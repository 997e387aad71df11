import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from diagcat import compose, enumerate_diagrams, is_downwards, is_upwards, transpose
from diagcat.algebra import (
    AlgebraTable,
    _basis_index,
    _hom_size,
    _products,
    _transpose_map,
    build_algebra,
    composition_table,
    discriminant,
    discriminant_rational_roots,
    hom_basis,
    is_semisimple_at,
    poly_det,
)
from diagcat.coeff import DeltaPoly
from diagcat.compose import _merge
from diagcat.diagrams import VARIANTS
from diagcat.errors import DimensionBudgetExceeded, ShapeMismatch, UnsupportedVariant
from helpers import check_associativity
from test_golden import TABLES, _objects


def radical_dimension_oracle(variant, n, delta):
    """Dimension of the trace-form kernel at a rational point, checked
    to generate a nilpotent two-sided ideal. Independent of poly_det."""
    alg = build_algebra(variant, n)
    dim = alg.dimension
    G = [
        [g.evaluate(delta) for g in row]
        for row in alg.gram_matrix()
    ]

    def rref(rows):
        rows = [list(r) for r in rows]
        rank, out = 0, []
        ncols = len(rows[0]) if rows else 0
        for c in range(ncols):
            piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            rows[rank] = [v / rows[rank][c] for v in rows[rank]]
            for i in range(len(rows)):
                if i != rank and rows[i][c] != 0:
                    f = rows[i][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
            out.append(c)
            rank += 1
        return rows[:rank], out

    # kernel of G
    reduced, pivots = rref(G)
    free = [c for c in range(dim) if c not in pivots]
    kernel = []
    for fc in free:
        vec = [Fraction(0)] * dim
        vec[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[fc]
        kernel.append(vec)

    def multiply(u, v):
        out = [Fraction(0)] * dim
        for i, a in enumerate(u):
            if not a:
                continue
            for j, bcoef in enumerate(v):
                if not bcoef:
                    continue
                c, s, k = alg.product(i, j)
                out[k] += a * bcoef * s * delta**c
        return out

    basis_vecs = []
    for i in range(dim):
        e = [Fraction(0)] * dim
        e[i] = Fraction(1)
        basis_vecs.append(e)

    # close the kernel span into a two-sided ideal
    span, _ = rref(kernel) if kernel else ([], [])
    changed = bool(span)
    while changed:
        changed = False
        candidates = list(span)
        for v in span:
            for e in basis_vecs:
                candidates.append(multiply(e, v))
                candidates.append(multiply(v, e))
        new_span, _ = rref(candidates)
        if len(new_span) != len(span):
            span = new_span
            changed = True

    # the ideal must be nilpotent
    power = list(span)
    for _ in range(dim + 1):
        if not power:
            break
        nxt = []
        for u in power:
            for v in span:
                nxt.append(multiply(u, v))
        power, _ = rref(nxt)
    assert not power, "trace-form kernel ideal is not nilpotent"
    return len(span)


# the objects of size at most 2 of each variant with a tautological functor
SMALL_OBJECTS = {
    "brauer": range(3),
    "partition": range(3),
    "temperley_lieb": range(3),
    "signed": range(3),
    "walled": [(a, total - a) for total in range(3) for a in range(total + 1)],
}


def _splits(variant, total):
    """The pairs of objects of a variant with `total` vertices in all."""
    if variant == "walled":
        return [
            ((a, b), (c, total - a - b - c))
            for a in range(total + 1)
            for b in range(total + 1 - a)
            for c in range(total + 1 - a - b)
        ]
    return [(x, total - x) for x in range(total + 1)]


class TestCompositionTable:
    @pytest.mark.parametrize("variant", SMALL_OBJECTS)
    def test_agrees_with_compose(self, variant):
        objects = SMALL_OBJECTS[variant]
        signs = set()
        for x, y, z in product(objects, repeat=3):
            alphas, betas = hom_basis(variant, x, y), hom_basis(variant, y, z)
            composites = hom_basis(variant, x, z)
            assert alphas == tuple(enumerate_diagrams(variant, x, y))
            table = composition_table(variant, x, y, z)
            assert [len(row) for row in table] == [len(alphas)] * len(betas)
            for beta, row in zip(betas, table):
                for alpha, (closed, sign, k) in zip(alphas, row):
                    res = compose(beta, alpha)
                    assert (closed, sign, composites[k]) == (res.closed_count, res.sign, res.result)
                    signs.add(sign)
        assert signs == ({1, -1} if variant == "signed" else {1})

    @pytest.mark.parametrize(
        "variant,n", [("brauer", 3), ("partition", 2), ("temperley_lieb", 3), ("signed", 2)]
    )
    def test_algebra_reads_the_table(self, variant, n):
        assert build_algebra(variant, n).table == composition_table(variant, n, n, n)

    def test_other_variants_refused_before_any_basis(self, monkeypatch):
        # a degenerate product on a cycle is zero, and partial injections
        # count no loops, which a d^closed * sign * composite entry cannot say
        def enumerate_forbidden(*args):
            raise AssertionError("enumerated before the variant check")

        hom_basis.cache_clear()
        composition_table.cache_clear()
        monkeypatch.setattr("diagcat.algebra.enumerate_diagrams", enumerate_forbidden)
        for variant in ("degenerate", "fisharp", "unknown"):
            with pytest.raises(UnsupportedVariant, match=f"^the composition table supports .*; not {variant}$"):
                composition_table(variant, 2, 2, 2)

    @pytest.mark.parametrize(
        "variant,x,y,z",
        [
            ("brauer", 1, 3, 5),
            ("partition", 1, 2, 3),
            ("temperley_lieb", 1, 3, 5),
            ("signed", 1, 3, 5),
            ("walled", (1, 0), (2, 1), (3, 2)),
        ],
    )
    def test_shared_middles_agree_with_compose(self, variant, x, y, z):
        # past SMALL_OBJECTS, with many betas to each middle row: every
        # pair is read off its group's merges, none off a transpose
        alphas, betas, composites = (hom_basis(variant, *hom) for hom in ((x, y), (y, z), (x, z)))
        middles = {beta.labels()[: beta.n] for beta in betas}
        assert x < z and len(alphas) > 1 and len(betas) >= 4 * len(middles)
        table = composition_table(variant, x, y, z)
        signs = set()
        for beta, row in zip(betas, table):
            for alpha, (closed, sign, k) in zip(alphas, row):
                res = compose(beta, alpha)
                assert (closed, sign, composites[k]) == (res.closed_count, res.sign, res.result)
                signs.add(sign)
        assert signs == ({1, -1} if variant == "signed" else {1})

    def test_sizes_judged_by_value_cold_or_warm(self):
        # an integral float is its int whether or not the space is cached,
        # and a size that is not integral is refused either way
        for warm in (False, True):
            hom_basis.cache_clear()
            composition_table.cache_clear()
            if warm:
                composition_table("brauer", 2, 2, 2)
            assert len(hom_basis("brauer", 2.0, 2)) == 3
            assert composition_table("brauer", 2.0, 2, 2) == composition_table("brauer", 2, 2, 2)
            # each triple with the one of its hom spaces that is ill-shaped
            refused = [
                ("brauer", (2.5, 2, 2), (2.5, 2)),
                ("brauer", (2, 2, "2"), (2, "2")),
                ("walled", (1, 1, 1), (1, 1)),
                ("walled", ((1, 0), (1, 0), 1), ((1, 0), 1)),
                ("partition", ((1, 0),) * 3, ((1, 0),) * 2),
            ]
            for variant, triple, hom in refused:
                with pytest.raises(ShapeMismatch):
                    composition_table(variant, *triple)
                with pytest.raises(ShapeMismatch):
                    hom_basis(variant, *hom)

    def test_signed_bases_list_the_brauer_labels(self):
        # a signed table reads the brauer table of its triple entry by entry
        for x, y in product(range(5), repeat=2):
            signed, plain = hom_basis("signed", x, y), hom_basis("brauer", x, y)
            assert [d.labels() for d in signed] == [d.labels() for d in plain]
            assert not any(d.flips for d in signed)

    def test_transpose_maps(self):
        for variant, size in TABLES[0].items():
            if variant == "signed":
                continue
            for x, y in product(_objects(variant, size), repeat=2):
                there, back = _transpose_map(variant, x, y), _transpose_map(variant, y, x)
                mirrors = hom_basis(variant, y, x)
                assert [mirrors[t] for t in there] == [transpose(d) for d in hom_basis(variant, x, y)]
                assert [back[t] for t in there] == list(range(len(there)))

    def test_cold_mirrored_requests(self):
        # in reverse order each x > z table is requested before the table
        # of its transpose, which it reads
        triples = [
            (variant, *triple)
            for variant, size in TABLES[0].items()
            for triple in product(_objects(variant, size), repeat=3)
        ]
        builds = []
        for order in (triples[::-1], triples):
            hom_basis.cache_clear()
            _basis_index.cache_clear()
            _transpose_map.cache_clear()
            composition_table.cache_clear()
            builds.append({t: composition_table(*t) for t in order})
        reverse, forward = builds
        assert reverse == forward

    @pytest.mark.parametrize(
        "variant,x,y,z",
        [
            ("partition", 3, 2, 1),
            ("partition", 2, 3, 2),
            ("brauer", 4, 2, 2),
            ("brauer", 2, 4, 2),
            ("walled", (2, 1), (2, 1), (1, 0)),
            ("walled", (1, 1), (2, 2), (1, 1)),
            ("walled", (2, 1), (2, 1), (2, 1)),
            ("temperley_lieb", 4, 4, 2),
            ("temperley_lieb", 3, 3, 3),
            ("signed", 4, 2, 2),
        ],
    )
    def test_mirrored_tables_agree_with_compose(self, variant, x, y, z):
        alphas, betas, composites = (hom_basis(variant, *hom) for hom in ((x, y), (y, z), (x, z)))
        table = composition_table(variant, x, y, z)
        assert len(alphas) * len(betas) > 1
        assert [len(row) for row in table] == [len(alphas)] * len(betas)
        for beta, row in zip(betas, table):
            for alpha, (closed, sign, k) in zip(alphas, row):
                res = compose(beta, alpha)
                assert (closed, sign, composites[k]) == (res.closed_count, res.sign, res.result)

    @pytest.mark.parametrize(
        "variant,x,y,z",
        [
            ("brauer", 4, 2, 4),
            ("partition", 3, 2, 3),
            ("temperley_lieb", 5, 3, 5),
            ("walled", (2, 2), (1, 1), (2, 2)),
            ("signed", 4, 2, 4),
        ],
    )
    def test_products_of_sub_lists_agree_with_compose(self, variant, x, y, z):
        # the axiom checks compose the flagged downwards alphas and upwards
        # betas of a hom space, not its whole basis, in bulk; the bulk
        # composer is sign-free, and a signed table reads its entries off
        # the brauer products through the comparison functor
        alphas, betas, composites = (hom_basis(variant, *hom) for hom in ((x, y), (y, z), (x, z)))
        downs = [a for a in alphas if is_downwards(a)]
        ups = [b for b in betas if is_upwards(b)]
        assert 0 < len(downs) < len(alphas) and 0 < len(ups) < len(betas)
        rng = random.Random(25)
        cases = [(downs, ups), ([], ups), (downs, []), ([], [])]
        for _ in range(3):
            cases.append(tuple(rng.sample(hom, rng.randint(1, len(hom))) for hom in (alphas, betas)))
        signs = set()
        for some_alphas, some_betas in cases:
            if variant == "signed":
                table = composition_table(variant, x, y, z)
                rows = [[table[betas.index(g)][alphas.index(f)] for f in some_alphas] for g in some_betas]
            else:
                rows = _products(some_alphas, some_betas, _basis_index(variant, x, z))
            assert [len(row) for row in rows] == [len(some_alphas)] * len(some_betas)
            for beta, row in zip(some_betas, rows):
                for alpha, (closed, sign, k) in zip(some_alphas, row):
                    res = compose(beta, alpha)
                    assert (closed, sign, composites[k]) == (res.closed_count, res.sign, res.result)
                    signs.add(sign)
        assert signs == ({1, -1} if variant == "signed" else {1})

    def test_half_the_pairs_are_glued(self, monkeypatch):
        # one merge per distinct beta middle and alpha: a table that falls
        # back to one merge per pair fails here
        merged, bound, pairs = Counter(), Counter(), Counter()

        def counting_merge(na, a_mid, b_mid, parts):
            merged[variant] += 1
            return _merge(na, a_mid, b_mid, parts)

        monkeypatch.setattr("diagcat.algebra._merge", counting_merge)
        composition_table.cache_clear()
        try:
            for variant, size in TABLES[0].items():
                for x, y, z in product(_objects(variant, size), repeat=3):
                    alphas, betas = hom_basis(variant, x, y), hom_basis(variant, y, z)
                    pairs[variant] += len(alphas) * len(betas)
                    composition_table(variant, x, y, z)
                    if x > z:
                        continue  # read off the table of (z, y, x)
                    middles = {beta.labels()[: beta.n] for beta in betas}
                    bound[variant] += len(middles) * len(alphas)
        finally:
            composition_table.cache_clear()
        for variant in TABLES[0]:
            assert merged[variant] <= bound[variant], (variant, merged[variant], bound[variant])
        # TABLES[0] lists brauer to size 4 before signed to size 3, so the
        # brauer table of every signed triple is cached when it is read
        assert list(TABLES[0]).index("brauer") < list(TABLES[0]).index("signed")
        assert TABLES[0]["brauer"] >= TABLES[0]["signed"]
        assert merged["signed"] == 0
        for variant, share in [("brauer", 0.52), ("partition", 0.52), ("walled", 0.65), ("temperley_lieb", 0.65)]:
            assert merged[variant] <= share * pairs[variant], (variant, merged[variant] / pairs[variant])


class TestAlgebraTables:
    def test_brauer_one(self):
        alg = build_algebra("brauer", 1)
        assert alg.dimension == 1
        assert alg.product(0, 0) == (0, 1, 0)

    def test_brauer_two(self):
        alg = build_algebra("brauer", 2)
        assert alg.dimension == 3
        texts = [d.to_text() for d in alg.basis]
        e = texts.index("2->2:(b1 b2)(t1 t2)")
        ident = texts.index("2->2:(b1 t1)(b2 t2)")
        swap = texts.index("2->2:(b1 t2)(b2 t1)")
        assert alg.product(e, e) == (1, 1, e)
        assert alg.product(swap, swap) == (0, 1, ident)
        assert alg.product(swap, e) == (0, 1, e)

    def test_partition_one(self):
        alg = build_algebra("partition", 1)
        assert alg.dimension == 2
        texts = [d.to_text() for d in alg.basis]
        x = texts.index("1->1:{b1}{t1}")
        assert alg.product(x, x) == (1, 1, x)

    def test_identity_is_unit(self):
        from diagcat import identity_diagram

        for variant, n in [("brauer", 2), ("partition", 2), ("temperley_lieb", 3)]:
            alg = build_algebra(variant, n)
            ident = alg.basis.index(identity_diagram(variant, n))
            for j in range(alg.dimension):
                assert alg.product(ident, j) == (0, 1, j)
                assert alg.product(j, ident) == (0, 1, j)

    @pytest.mark.parametrize(
        "variant,n", [("brauer", 2), ("brauer", 3), ("partition", 2), ("signed", 2)]
    )
    def test_associativity(self, variant, n):
        assert check_associativity(build_algebra(variant, n))

    def test_budget(self):
        with pytest.raises(DimensionBudgetExceeded):
            build_algebra("brauer", 5)

    def test_capped_count(self):
        # the exact count from sympy's closed forms for every variant whose
        # hom spaces are counted, and within a budget the count is the same
        # while past it the count is refused
        from sympy import bell, catalan, factorial, factorial2

        for variant in set(VARIANTS) - {"fisharp"}:
            for total in range(13):
                for x, y in _splits(variant, total):
                    if variant == "walled":
                        (n1, n2), (m1, m2) = x, y
                        exact = factorial(n1 + m2) if n1 + m2 == n2 + m1 else 0
                    elif variant in ("partition", "degenerate"):
                        exact = bell(total)
                    elif total % 2:
                        exact = 0
                    elif variant == "temperley_lieb":
                        exact = catalan(total // 2)
                    else:
                        exact = factorial2(total - 1)
                    assert _hom_size(variant, x, y) == exact, (variant, x, y)
                    for budget in (0, 1, 42, 250, 200_000, max(exact - 1, 0), exact):
                        if exact <= budget:
                            assert _hom_size(variant, x, y, budget) == exact
                        else:
                            with pytest.raises(DimensionBudgetExceeded, match=f"budget {budget}$"):
                                _hom_size(variant, x, y, budget)

    def test_partial_injection_count(self):
        # the sum over k of C(x, k) C(y, k) k!, not a count of perfect matchings
        for x in range(5):
            for y in range(5):
                assert _hom_size("fisharp", x, y) == len(enumerate_diagrams("fisharp", x, y)), (x, y)
        assert (_hom_size("fisharp", 2, 1), _hom_size("fisharp", 3, 2)) == (3, 13)
        # 1 + 16 + 72 = 89 within 4 -> 4 already exceeds 50 of its 209
        with pytest.raises(DimensionBudgetExceeded, match="budget 50$"):
            _hom_size("fisharp", 4, 4, 50)
        assert _hom_size("fisharp", 4, 4, 209) == 209

    def test_budgets_checked_before_enumerating(self, monkeypatch):
        def enumerate_forbidden(*args):
            raise AssertionError("enumerated before the budget check")

        hom_basis.cache_clear()
        monkeypatch.setattr("diagcat.algebra.enumerate_diagrams", enumerate_forbidden)
        # 135,135, 208,012 and 115,975 basis diagrams
        for variant, n in [("brauer", 7), ("temperley_lieb", 12), ("partition", 5)]:
            with pytest.raises(DimensionBudgetExceeded, match="budget 250$"):
                build_algebra(variant, n)
            with pytest.raises(DimensionBudgetExceeded, match="budget 250$"):
                discriminant(variant, n)
        # within the algebra's budget, past the discriminant's
        for variant, n in [("partition", 3), ("brauer", 4), ("signed", 4)]:
            with pytest.raises(DimensionBudgetExceeded, match="budget 42$"):
                discriminant(variant, n)
        with pytest.raises(ShapeMismatch, match="row size -1 is negative"):
            discriminant("brauer", -1)
        # the patched name is the one the algebra enumerates through
        with pytest.raises(AssertionError, match="enumerated"):
            AlgebraTable("brauer", 1)

    def test_gram_symmetric(self):
        for variant, n in [("brauer", 2), ("partition", 2)]:
            G = build_algebra(variant, n).gram_matrix()
            for i in range(len(G)):
                for j in range(len(G)):
                    assert G[i][j] == G[j][i]


def cofactor_det(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    acc = DeltaPoly.zero()
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        term = M[0][j] * cofactor_det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


class TestPolyDet:
    def test_constant(self):
        one = DeltaPoly.one()
        two = DeltaPoly(2)
        d = DeltaPoly([0, 1])
        assert poly_det([[two]]) == two
        assert poly_det([[one, d], [d, one]]) == DeltaPoly([1]) - d * d
        assert poly_det([]) == one

    def test_singular(self):
        d = DeltaPoly([0, 1])
        assert poly_det([[d, d], [d, d]]).is_zero()

    def test_row_swap_case(self):
        z = DeltaPoly.zero()
        one = DeltaPoly.one()
        assert poly_det([[z, one], [one, z]]) == DeltaPoly(-1)

    def test_zero_pivot_after_the_first_step(self):
        one = DeltaPoly.one()
        z = DeltaPoly.zero()
        d = DeltaPoly([0, 1])
        # the first step zeroes the (1, 1) pivot; row 2 is swapped in
        M = [[one, d, z], [one, d, one], [z, one, d]]
        assert poly_det(M) == DeltaPoly(-1) == cofactor_det(M)
        # the first step zeroes all of column 1 below the diagonal
        M = [[one, d, one], [one, d, DeltaPoly(2)], [one, d, DeltaPoly(3)]]
        assert poly_det(M).is_zero()

    def test_against_cofactor_expansion(self):
        import random

        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(1, 5)
            M = [
                [
                    DeltaPoly(
                        [
                            Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2, 3)))
                            for _ in range(rng.randint(0, 3))
                        ]
                    )
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            assert poly_det(M) == cofactor_det(M)

    def test_against_sympy(self):
        import random

        import sympy
        from sympy.polys.matrices import DomainMatrix

        rng = random.Random(11)
        d = sympy.Symbol("d")
        ring = sympy.QQ[d]
        M = [
            [
                DeltaPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)])
                for _ in range(6)
            ]
            for _ in range(6)
        ]
        entries = [
            [sum(sympy.Rational(c.numerator, c.denominator) * d**i
                 for i, c in enumerate(p.coeffs)) for p in row]
            for row in M
        ]
        oracle = DomainMatrix.from_Matrix(sympy.Matrix(entries)).convert_to(ring).det()
        coeffs = sympy.Poly(ring.to_sympy(oracle), d).all_coeffs()[::-1]
        want = DeltaPoly([Fraction(int(c.p), int(c.q)) for c in coeffs])
        assert want.degree == 12
        assert poly_det(M) == want


class TestDiscriminant:
    def test_brauer_one_is_constant_one(self):
        assert discriminant("brauer", 1) == DeltaPoly.one()

    def test_brauer_two_golden(self):
        # computed by the exact determinant; frozen
        assert discriminant("brauer", 2) == DeltaPoly([0, 0, 4])
        assert discriminant_rational_roots("brauer", 2) == [Fraction(0)]

    def test_partition_one_golden(self):
        assert discriminant("partition", 1) == DeltaPoly([0, 0, 1])

    def test_brauer_three_golden(self):
        d = discriminant("brauer", 3)
        assert d.degree == 18
        assert d.coeffs[0] == 58773123072
        assert d.coeffs[18] == 918330048
        assert discriminant_rational_roots("brauer", 3) == [
            Fraction(-2),
            Fraction(1),
        ]

    def test_partition_two_golden(self):
        assert discriminant_rational_roots("partition", 2) == [
            Fraction(0),
            Fraction(1),
            Fraction(2),
        ]

    def test_roots_are_integers(self):
        for n in (2, 3):
            for r in discriminant_rational_roots("brauer", n):
                assert r.denominator == 1


class TestSemisimplicity:
    def test_examples(self):
        assert is_semisimple_at("brauer", 2, 0) is False
        assert is_semisimple_at("brauer", 2, Fraction(1, 2)) is True
        for delta in (-2, -1, 0, 1, 2, Fraction(1, 2)):
            assert is_semisimple_at("brauer", 1, delta) is True

    def test_against_radical_oracle(self):
        for n in (1, 2):
            for delta in (-2, -1, 0, 1, 2, Fraction(1, 2)):
                rad = radical_dimension_oracle("brauer", n, Fraction(delta))
                assert is_semisimple_at("brauer", n, delta) == (rad == 0), (
                    n,
                    delta,
                )

    def test_brauer_three_radical_at_roots(self):
        # the radical is nontrivial exactly at the discriminant roots
        for delta in (-2, 1):
            assert radical_dimension_oracle("brauer", 3, Fraction(delta)) > 0
        for delta in (0, 2, Fraction(1, 2)):
            assert radical_dimension_oracle("brauer", 3, Fraction(delta)) == 0

    def test_partition_radical(self):
        for delta in (0, 1, 2):
            assert radical_dimension_oracle("partition", 2, Fraction(delta)) > 0
        assert radical_dimension_oracle("partition", 2, Fraction(3)) == 0
