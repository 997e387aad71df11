import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

import diagcat
from diagcat import enumerate_diagrams, identity_diagram, make_diagram, transpose
from diagcat.algebra import build_algebra, composition_table, hom_basis
from diagcat.errors import DimensionBudgetExceeded, InvalidParameter, VariantMismatch
from diagcat.taut import (
    TAUT_VARIANTS,
    RationalMatrix,
    TautContext,
    _check_pair_budget,
    _hom_size,
    _matrix,
    _objects_up_to,
    check_p2_p0_surjectivity,
    taut_matrix,
    verify_taut_functoriality,
)
from helpers import matmul, matrices_equal, scaled, taut_sweep_oracle, transposed


def b(i):
    return (0, i)


def t(i):
    return (1, i)


class TestBrauerMatrices:
    def test_cup_column(self):
        ctx = TautContext("brauer", dim=3)
        cup = make_diagram("brauer", 0, 2, [(t(1), t(2))])
        m = taut_matrix(ctx, cup)
        assert (m.rows, m.cols) == (9, 1)
        # column vector: sum of e_i x e_i
        expected = [[1 if r in (0, 4, 8) else 0] for r in range(9)]
        assert m.entries == [[Fraction(v) for v in row] for row in expected]

    def test_cap_after_cup_is_dimension(self):
        ctx = TautContext("brauer", dim=3)
        cup = make_diagram("brauer", 0, 2, [(t(1), t(2))])
        cap = make_diagram("brauer", 2, 0, [(b(1), b(2))])
        prod = matmul(taut_matrix(ctx, cap), taut_matrix(ctx, cup))
        assert prod.entries == [[Fraction(3)]]

    def test_first_example_action(self):
        # e_i x e_j x e_k maps to [i = k] sum_{r,s} e_r x e_r x e_s x e_j x e_s
        ctx = TautContext("brauer", dim=2)
        d = make_diagram(
            "brauer", 3, 5, [(b(1), b(3)), (b(2), t(4)), (t(1), t(2)), (t(3), t(5))]
        )
        m = taut_matrix(ctx, d)
        p = 2
        for i in range(p):
            for j in range(p):
                for k in range(p):
                    col = (i * p + j) * p + k
                    for target in range(p**5):
                        digits = []
                        x = target
                        for _ in range(5):
                            digits.append(x % p)
                            x //= p
                        digits.reverse()
                        r1, r2, s1, jj, s2 = digits
                        expected = int(
                            i == k and r1 == r2 and s1 == s2 and jj == j
                        )
                        assert m.entries[target][col] == expected

    def test_permutation_diagrams_are_permutation_matrices(self):
        ctx = TautContext("brauer", dim=2)
        n, p = 3, 2
        mats = {}
        for perm in permutations(range(1, n + 1)):
            d = make_diagram(
                "brauer", n, n, [(b(i), t(perm[i - 1])) for i in range(1, n + 1)]
            )
            m = taut_matrix(ctx, d)
            rowsum = [sum(r) for r in m.entries]
            colsum = [sum(m.entries[i][j] for i in range(m.rows)) for j in range(m.cols)]
            assert all(v == 1 for v in rowsum) and all(v == 1 for v in colsum)
            mats[perm] = m

        # the assignment is a group homomorphism
        for p1 in mats:
            for p2 in mats:
                composed = tuple(p2[p1[i] - 1] for i in range(n))
                assert matmul(mats[p2], mats[p1]).entries == mats[composed].entries

    def test_transpose_is_matrix_transpose(self):
        ctx = TautContext("brauer", dim=2)
        for n, m in [(0, 2), (2, 2), (1, 3), (3, 1)]:
            for d in enumerate_diagrams("brauer", n, m):
                assert taut_matrix(ctx, transpose(d)).entries == (
                    transposed(taut_matrix(ctx, d)).entries
                )

    def test_budget(self, monkeypatch):
        # 10^4 rows exceed the budget of 4096
        ctx = TautContext("brauer", dim=10)
        with pytest.raises(DimensionBudgetExceeded):
            taut_matrix(ctx, identity_diagram("brauer", 4))

        # the sweep refuses before any hom space is enumerated
        def enumerate_forbidden(*args):
            raise AssertionError("enumerated before the budget check")

        hom_basis.cache_clear()
        monkeypatch.setattr("diagcat.taut.enumerate_diagrams", enumerate_forbidden)
        monkeypatch.setattr("diagcat.algebra.enumerate_diagrams", enumerate_forbidden)
        oversized = [
            (TautContext("brauer", dim=2), 13),  # 2^13 rows
            # past the pair budget, while 1^k, 0^k and 2^12 rows are not
            (TautContext("brauer", dim=2), 12),
            (TautContext("brauer", dim=1), 10**6),
            (TautContext("partition", dim=1), 5),
            (TautContext("partition", dim=0), 5),
            (TautContext("walled", dim=1), 6),
            (TautContext("temperley_lieb", q=2), 7),
        ]
        for ctx, size in oversized:
            with pytest.raises(DimensionBudgetExceeded):
                verify_taut_functoriality(ctx, size)
        # the patched name is the one the sweep enumerates through
        with pytest.raises(AssertionError, match="enumerated"):
            verify_taut_functoriality(TautContext("brauer", dim=2), 1)

    def test_pair_budget_bounds(self):
        # the closed-form sizes are those of the enumerated hom spaces
        for variant in TAUT_VARIANTS:
            objects = _objects_up_to(variant, 3)
            for x in objects:
                for y in objects:
                    assert _hom_size(variant, x, y) == len(enumerate_diagrams(variant, x, y))
        # the largest sweep of each variant that the budget admits
        for variant, size in [
            ("brauer", 4), ("signed", 4), ("partition", 3), ("walled", 5), ("temperley_lieb", 6)
        ]:
            _check_pair_budget(variant, size)
            with pytest.raises(DimensionBudgetExceeded):
                _check_pair_budget(variant, size + 1)

    def test_huge_size_is_refused_at_once(self):
        # the verdict and message of 10^3000000 > 4096, without the power;
        # 2^12 rows pass the row budget, so the pair budget refuses that one
        start = time.perf_counter()
        with pytest.raises(DimensionBudgetExceeded, match=r"^10\^3000000 exceeds the row budget 4096$"):
            verify_taut_functoriality(TautContext("brauer", dim=10), 3_000_000)
        assert time.perf_counter() - start < 0.2
        for dim, size in [(2, 12), (2, 13), (4097, 1), (2, 10**9)]:
            with pytest.raises(DimensionBudgetExceeded) as refused:
                verify_taut_functoriality(TautContext("brauer", dim=dim), size)
            row_refusal = str(refused.value) == f"{dim}^{size} exceeds the row budget 4096"
            assert row_refusal == (dim**min(size, 20) > 4096)

    def test_variant_guard(self):
        ctx = TautContext("brauer", dim=2)
        with pytest.raises(VariantMismatch):
            taut_matrix(ctx, identity_diagram("partition", 1))
        swap = make_diagram("brauer", 2, 2, [(b(1), t(2)), (b(2), t(1))])
        with pytest.raises(VariantMismatch):
            taut_matrix(TautContext("temperley_lieb", q=2), swap)


class TestPartitionMatrices:
    def test_split_map(self):
        # single block {b1 t1 t2}: e_i -> e_i x e_i
        ctx = TautContext("partition", dim=3)
        d = make_diagram("partition", 1, 2, [[b(1), t(1), t(2)]])
        m = taut_matrix(ctx, d)
        for i in range(3):
            for r in range(9):
                expected = 1 if r == i * 3 + i else 0
                assert m.entries[r][i] == expected

    def test_augmentation(self):
        ctx = TautContext("partition", dim=3)
        d = make_diagram("partition", 1, 0, [[b(1)]])
        m = taut_matrix(ctx, d)
        assert m.entries == [[1, 1, 1]]

    def test_merge_map(self):
        # single block {b1 b2 t1}: e_i x e_j -> [i = j] e_i
        ctx = TautContext("partition", dim=2)
        d = make_diagram("partition", 2, 1, [[b(1), b(2), t(1)]])
        m = taut_matrix(ctx, d)
        assert m.entries == [[1, 0, 0, 0], [0, 0, 0, 1]]

    def test_all_to_invariant(self):
        ctx = TautContext("partition", dim=2)
        d = make_diagram("partition", 0, 1, [[t(1)]])
        assert taut_matrix(ctx, d).entries == [[1], [1]]


class TestSignedMatrices:
    def test_loop_value(self):
        # reference orientations: the closed loop evaluates to -p and the
        # composition engine reports sign -1 with one closed component
        from diagcat import compose

        ctx = TautContext("signed", dim=2)
        cup = make_diagram("signed", 0, 2, [(t(2), t(1))])
        cap = make_diagram("signed", 2, 0, [(b(1), b(2))])
        prod = matmul(taut_matrix(ctx, cap), taut_matrix(ctx, cup))
        res = compose(cap, cup)
        assert res.closed_count == 1
        assert prod.entries == [[Fraction(2 * res.sign)]]

    def test_even_dim_required(self):
        with pytest.raises(ValueError):
            TautContext("signed", dim=3)


class TestTemperleyLieb:
    def test_loop_value(self):
        for q in (Fraction(1), Fraction(2), Fraction(1, 2)):
            ctx = TautContext("temperley_lieb", q=q)
            cup = make_diagram("temperley_lieb", 0, 2, [(t(1), t(2))])
            cap = make_diagram("temperley_lieb", 2, 0, [(b(1), b(2))])
            prod = matmul(taut_matrix(ctx, cap), taut_matrix(ctx, cup))
            assert prod.entries == [[-q - 1 / q]]
            assert ctx.parameter == -q - 1 / q


class TestContextParameters:
    def test_integral_dim_reads_as_int(self):
        ctx = TautContext("brauer", dim=2.0)
        assert type(ctx.dim) is int and ctx.parameter == 2
        assert taut_matrix(ctx, identity_diagram("brauer", 1)).entries == [[1, 0], [0, 1]]

    @pytest.mark.parametrize("dim", [2.5, "2", None, -1, float("inf")])
    def test_dim_that_is_no_count_is_refused(self, dim):
        for variant in ("brauer", "partition", "walled", "signed"):
            with pytest.raises(InvalidParameter, match="^dim must be a non-negative integer$"):
                TautContext(variant, dim=dim)

    @pytest.mark.parametrize("q", ["x", "1/2", 0.5, 2.0])
    def test_q_that_is_no_rational_is_refused(self, q):
        with pytest.raises(InvalidParameter, match="is not a rational number$"):
            TautContext("temperley_lieb", q=q)


class TestRationalMatrix:
    def test_cancelled_product_is_zero(self):
        row = RationalMatrix(1, 2, [{0: 1}, {0: -1}])
        col = RationalMatrix(2, 1, [{0: Fraction(1, 2), 1: Fraction(1, 2)}])
        prod = matmul(row, col)
        assert matrices_equal(prod, RationalMatrix(1, 1, [{}]))
        assert not matrices_equal(prod, RationalMatrix(1, 1, [{0: 1}]))
        assert prod.entries == [[0]]


class TestDimensionZero:
    @pytest.mark.parametrize("variant", ["brauer", "partition", "signed"])
    def test_empty_tensor_powers(self, variant):
        ctx = TautContext(variant, dim=0)
        assert taut_matrix(ctx, identity_diagram(variant, 0)).entries == [[1]]
        part = [t(1), t(2)] if variant == "partition" else (t(1), t(2))
        cup = taut_matrix(ctx, make_diagram(variant, 0, 2, [part]))
        assert (cup.rows, cup.cols, cup.entries) == (0, 1, [])
        rep = verify_taut_functoriality(ctx, 2)
        assert rep["pass"], rep["failures"][:3]


class TestFunctoriality:
    def test_brauer_small(self):
        for p in (1, 2, 3):
            rep = verify_taut_functoriality(TautContext("brauer", dim=p), 2)
            assert rep["pass"], rep["failures"][:3]

    def test_partition_small(self):
        rep = verify_taut_functoriality(TautContext("partition", dim=2), 2)
        assert rep["pass"], rep["failures"][:3]

    def test_signed_small(self):
        rep = verify_taut_functoriality(TautContext("signed", dim=2), 2)
        assert rep["pass"], rep["failures"][:3]

    def test_walled_small(self):
        for p in (1, 2, 3):
            rep = verify_taut_functoriality(TautContext("walled", dim=p), 2)
            assert rep["pass"], (p, rep["failures"][:3])

    def test_temperley_lieb_small(self):
        for q in (Fraction(1), Fraction(2), Fraction(1, 2)):
            rep = verify_taut_functoriality(
                TautContext("temperley_lieb", q=q), 3
            )
            assert rep["pass"], rep["failures"][:3]


    def test_wrong_matrix_is_caught(self, monkeypatch):
        ctx = TautContext("brauer", dim=2)
        pairs = verify_taut_functoriality(ctx, 2)["pairs_checked"]
        swap = "2->2:(b1 t2)(b2 t1)"

        def doubled(ctx, d):
            m = _matrix(ctx, d)
            return scaled(m, 2) if d.to_text() == swap else m

        monkeypatch.setattr("diagcat.taut._matrix", doubled)
        rep = verify_taut_functoriality(ctx, 2)
        assert rep["pass"] is False
        assert rep["pairs_checked"] == pairs == 21
        # every pair with the swap as a factor, in x, y, z, alpha, beta
        # order, but the two with the identity: there the composite is
        # the swap too, so both sides double
        cup, cap = "0->2:(t1 t2)", "2->0:(b1 b2)"
        e = "2->2:(b1 b2)(t1 t2)"
        assert rep["failures"] == [
            (cup, swap),
            (swap, cap),
            (e, swap),
            (swap, e),
            (swap, swap),
        ]

    def test_cold_and_warm_reports_agree(self):
        for ctx, size in [
            (TautContext("partition", dim=2), 2),
            (TautContext("walled", dim=2), 3),
            (TautContext("signed", dim=2), 3),
            (TautContext("temperley_lieb", q=Fraction(2, 3)), 3),
        ]:
            for memo in (hom_basis, composition_table, build_algebra):
                memo.cache_clear()
            cold = verify_taut_functoriality(ctx, size)
            assert verify_taut_functoriality(ctx, size) == cold
            assert cold["pass"], cold["failures"][:3]


def _corrupted(factor, variant):
    """A `_matrix` that multiplies the matrix of the last diagram of
    Hom(x, x), x of size 2, by `factor`."""
    x = (1, 1) if variant == "walled" else 2
    victim = hom_basis(variant, x, x)[-1]

    def build(ctx, d):
        m = _matrix(ctx, d)
        return scaled(m, factor) if d == victim else m

    return build


ORACLE_CONTEXTS = (
    [(("brauer", p, None), 3) for p in (0, 1, 2, 3)]
    + [(("partition", p, None), size) for p, size in ((0, 2), (1, 3), (2, 2))]
    + [(("signed", p, None), 3) for p in (0, 2)]
    + [(("walled", p, None), 3) for p in (0, 1, 2)]
    + [(("temperley_lieb", None, q), 3) for q in (Fraction(2, 3), Fraction(-5, 7))]
)


class TestPackedSweep:
    """The packed sweep against one dict product per pair."""

    @pytest.mark.parametrize("args, size", ORACLE_CONTEXTS, ids=str)
    def test_matches_oracle(self, args, size, monkeypatch):
        ctx = TautContext(*args)
        rep = verify_taut_functoriality(ctx, size)
        assert rep == taut_sweep_oracle(ctx, size)
        assert rep["pass"], rep["failures"][:3]
        # doubled, halved (so the scale D doubles) and past 64 bits
        # (fields wider than a machine word)
        for factor in (2, Fraction(1, 2), 2**70):
            monkeypatch.setattr("diagcat.taut._matrix", _corrupted(factor, ctx.variant))
            rep = verify_taut_functoriality(ctx, size)
            assert rep == taut_sweep_oracle(ctx, size)
            assert rep["pass"] == (ctx.dim == 0), factor
            monkeypatch.undo()

    @pytest.mark.parametrize(
        "args, parameters",
        [
            # dim 2: the product closes loops of value 2, and a field is 8 bits
            (
                ("brauer", 2, None),
                [Fraction(1, 3), Fraction(7, 3), 2 + 2**8, 2 + 2**16, 2 + 2**64, 2 - 2**128, -(2**200)],
            ),
            # q = 2: entries -1/2 and -2, so the sweep scales by 2
            (
                ("temperley_lieb", None, Fraction(2)),
                [Fraction(-5, 2) + Fraction(1, 7), Fraction(-5, 2) + 2**8, Fraction(-5, 2) - 2**64],
            ),
        ],
        ids=str,
    )
    def test_unpackable_expectations_fail(self, args, parameters):
        # with a wrong loop value every pair that closes a loop has an
        # expected matrix that is not integral after scaling, or lies
        # outside the fields (some agree with the product modulo 2^8,
        # 2^16, ...); each such pair fails, and no other does
        ctx = TautContext(*args)
        objects = _objects_up_to(ctx.variant, 2)
        looped = [
            (alpha.to_text(), beta.to_text())
            for x in objects
            for y in objects
            for z in objects
            for j, alpha in enumerate(hom_basis(ctx.variant, x, y))
            for i, beta in enumerate(hom_basis(ctx.variant, y, z))
            if composition_table(ctx.variant, x, y, z)[i][j][0] > 0
        ]
        assert looped
        for parameter in parameters:
            ctx.parameter = parameter
            rep = verify_taut_functoriality(ctx, 2)
            assert rep["failures"] == looped, parameter
            assert rep == taut_sweep_oracle(ctx, 2)


class TestP2P0:
    def test_dichotomy(self):
        assert check_p2_p0_surjectivity(1) is True
        assert check_p2_p0_surjectivity(0) is False
        assert check_p2_p0_surjectivity(-2) is True
        assert check_p2_p0_surjectivity(Fraction(1, 2)) is True


def test_import_loads_no_numpy():
    # every module, the CLI included, runs on the standard library alone
    src = str(Path(diagcat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, diagcat, diagcat.cli; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
