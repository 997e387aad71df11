from math import comb, factorial

import pytest

from diagcat import chars
from diagcat.chars import (
    _exact_quotient,
    _lr_product,
    check_partition,
    class_size,
    conjugate_partition,
    cycle_type,
    delta_multiplicity,
    dim_specht,
    hyperoctahedral_elements,
    induced_multiplicity_oracle,
    lr_coefficient,
    partitions_of,
    ptilde_standard_multiplicity,
    standard_tableaux,
    sym_character,
    verify_principal_decomposition,
)
from diagcat.errors import SizeMismatch

from helpers import lr_by_characters, lr_by_tableaux, specht_character_oracle


def lr_triples(top):
    """Every (lam, mu, target) with |lam| + |mu| = |target| <= top."""
    for t in range(top + 1):
        for a in range(t + 1):
            for lam in partitions_of(a):
                for mu in partitions_of(t - a):
                    for target in partitions_of(t):
                        yield lam, mu, target


class TestPartitions:
    def test_counts(self):
        assert [len(partitions_of(n)) for n in range(9)] == [
            1, 1, 2, 3, 5, 7, 11, 15, 22,
        ]

    def test_validation(self):
        assert check_partition([3, 1]) == (3, 1)
        assert check_partition([]) == ()
        assert check_partition([2, 0]) == (2,)
        with pytest.raises(ValueError):
            check_partition([1, 2])

    def test_error_messages(self):
        # the CLI prints these messages as they are
        with pytest.raises(ValueError, match=r"^negative part in \(2, -1\)$"):
            check_partition([2, 0, -1])
        with pytest.raises(ValueError, match=r"^negative part in \(1, 2, -1\)$"):
            check_partition([1, 2, -1])
        with pytest.raises(
            ValueError, match=r"^parts must be weakly decreasing: \(1, 2\)$"
        ):
            check_partition([1, 0, 2])


class TestDimSpecht:
    def test_trivial_and_sign(self):
        for n in range(1, 7):
            assert dim_specht((n,)) == 1
            assert dim_specht((1,) * n) == 1

    def test_two_one(self):
        assert dim_specht((2, 1)) == 2
        assert len(standard_tableaux((2, 1))) == 2

    def test_against_enumeration(self):
        for n in range(7):
            for lam in partitions_of(n):
                assert dim_specht(lam) == len(standard_tableaux(lam)), lam

    def test_sum_of_squares(self):
        for n in range(1, 7):
            assert sum(dim_specht(l) ** 2 for l in partitions_of(n)) == factorial(n)


class TestCharacters:
    def test_sign_character(self):
        assert sym_character((1, 1), (2,)) == -1
        for n in range(1, 6):
            for mu in partitions_of(n):
                expected = 1
                for part in mu:
                    if part % 2 == 0:
                        expected = -expected
                assert sym_character((1,) * n, mu) == expected

    def test_identity_class_gives_dimension(self):
        for n in range(7):
            for lam in partitions_of(n):
                assert sym_character(lam, (1,) * n) == dim_specht(lam)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            sym_character((2, 1), (2,))

    def test_two_one_at_three_cycle(self):
        assert specht_character_oracle((2, 1), (3,)) == -1
        assert sym_character((2, 1), (3,)) == -1

    def test_against_specht_construction(self):
        # full independent check at small sizes
        for n in range(1, 5):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    assert sym_character(lam, mu) == specht_character_oracle(
                        lam, mu
                    ), (lam, mu)

    def test_orthogonality(self):
        for n in range(1, 7):
            parts = partitions_of(n)
            for lam in parts:
                for mu in parts:
                    total = sum(
                        class_size(rho)
                        * sym_character(lam, rho)
                        * sym_character(mu, rho)
                        for rho in parts
                    )
                    expected = factorial(n) if lam == mu else 0
                    assert total == expected, (lam, mu)

    def test_cycle_type(self):
        assert cycle_type((2, 1, 3)) == (2, 1)
        assert cycle_type((1, 2, 3)) == (1, 1, 1)
        assert class_size((2, 1)) == 3


class TestLittlewoodRichardson:
    def test_empty_factor(self):
        for lam in partitions_of(3):
            assert lr_coefficient(lam, (), lam) == 1

    def test_examples(self):
        assert lr_coefficient((1,), (1, 1), (2, 1)) == 1
        assert lr_coefficient((1,), (2,), (1, 1, 1)) == 0
        # classical: (2,1) x (2,1) contains (3,2,1) twice
        assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2

    def test_symmetry(self):
        for lam, mu, target in lr_triples(8):
            assert lr_coefficient(lam, mu, target) == lr_coefficient(
                mu, lam, target
            ), (lam, mu, target)

    def test_against_character_inner_product(self):
        for lam, mu, target in lr_triples(6):
            assert lr_coefficient(lam, mu, target) == (
                lr_by_characters(lam, mu, target)
            ), (lam, mu, target)

    def test_size_guards(self):
        assert lr_coefficient((2,), (1,), (2,)) == 0
        assert lr_coefficient((3,), (1,), (2, 1, 1)) == 0

    def test_against_tableau_enumeration(self):
        triples = list(lr_triples(8))
        assert len(triples) == 6830
        triples += [
            ([2, 0], (1,), (3,)),
            ((2,), [1, 0], [2, 1, 0]),
            ((2, 1), (1,), (3, 1, 0)),
            ((3,), (1,), (2, 2)),
            ((1, 1, 1), (1,), (2, 2)),
            ((2,), (2,), (3, 2)),
            ((), (), ()),
        ]
        for lam, mu, target in triples:
            assert lr_coefficient(lam, mu, target) == lr_by_tableaux(
                lam, mu, target
            ), (lam, mu, target)

    def test_conjugation(self):
        conj = conjugate_partition
        for lam, mu, target in lr_triples(9):
            assert lr_coefficient(conj(lam), conj(mu), conj(target)) == (
                lr_coefficient(lam, mu, target)
            ), (lam, mu, target)

    def test_dimension_identity(self):
        # sum over nu of c * f^nu = C(|lam| + |mu|, |lam|) f^lam f^mu
        for t in range(12):
            for a in range(t + 1):
                for lam in partitions_of(a):
                    for mu in partitions_of(t - a):
                        product = _lr_product(lam, mu)
                        assert all(c > 0 for c in product.values())
                        assert set(product) <= set(partitions_of(t))
                        total = sum(
                            c * dim_specht(nu) for nu, c in product.items()
                        )
                        assert total == comb(t, a) * dim_specht(
                            lam
                        ) * dim_specht(mu), (lam, mu)

    def test_memo_clears(self):
        lr_coefficient((2, 1), (2, 1), (3, 2, 1))
        lr_coefficient((1,), (1,), (2,))
        assert _lr_product.cache_info().currsize > 0
        for value in vars(chars).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
        assert _lr_product.cache_info().currsize == 0


class TestDeltaMultiplicity:
    def test_self(self):
        for n in range(5):
            for lam in partitions_of(n):
                assert delta_multiplicity(lam, lam) == 1

    def test_empty_weight_even_partitions(self):
        assert delta_multiplicity((), (2,)) == 1
        assert delta_multiplicity((), (1, 1)) == 0

    def test_one_to_three(self):
        assert delta_multiplicity((1,), (3,)) == 1

    def test_lowest_weight_shape(self):
        for a in range(4):
            for lam in partitions_of(a):
                for m in range(7):
                    for mu in partitions_of(m):
                        v = delta_multiplicity(lam, mu)
                        if m < a or (m - a) % 2:
                            assert v == 0

    def test_against_induced_oracle(self):
        for a in range(4):
            for lam in partitions_of(a):
                for m in range(7):
                    if (m - a) % 2 or m < a:
                        continue
                    for mu in partitions_of(m):
                        assert delta_multiplicity(lam, mu) == (
                            induced_multiplicity_oracle(lam, mu)
                        ), (lam, mu)


class TestPtilde:
    def test_self(self):
        for n in range(5):
            for lam in partitions_of(n):
                assert ptilde_standard_multiplicity(lam, lam) == 1

    def test_example(self):
        assert ptilde_standard_multiplicity((2,), ()) == 1

    def test_zero_when_bigger(self):
        assert ptilde_standard_multiplicity((), (2,)) == 0


class TestConcurrentMemo:
    def test_lr_table_under_threads(self):
        import threading

        results = []

        def worker():
            local = []
            for t in range(6):
                for target in partitions_of(t):
                    for a in range(t + 1):
                        for lam in partitions_of(a):
                            for mu in partitions_of(t - a):
                                local.append(lr_coefficient(lam, mu, target))
            results.append(local)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert len(results) == 4
        assert all(r == results[0] for r in results)


class TestExactQuotient:
    def test_divides(self):
        assert _exact_quotient(48, 24) == 2
        assert _exact_quotient(0, 6) == 0

    def test_remainder_raises(self):
        with pytest.raises(ArithmeticError):
            _exact_quotient(7, 2)


class TestHyperoctahedral:
    def test_order(self):
        for k in (0, 2, 4, 6):
            assert len(hyperoctahedral_elements(k)) == 2 ** (k // 2) * factorial(
                k // 2
            )

    def test_stabilizes_matching(self):
        matching = {frozenset((1, 2)), frozenset((3, 4))}
        for h in hyperoctahedral_elements(4):
            moved = {frozenset((h[a - 1], h[b - 1])) for a, b in ((1, 2), (3, 4))}
            assert moved == matching

    def test_subgroup(self):
        els = set(hyperoctahedral_elements(4))
        sample = list(els)[:8]
        for g in sample:
            for h in sample:
                prod = tuple(g[h[i] - 1] for i in range(4))
                assert prod in els


class TestPrincipalDecomposition:
    def test_zero_two(self):
        assert verify_principal_decomposition(0, 2)["pass"]

    def test_one_one(self):
        assert verify_principal_decomposition(1, 1)["pass"]

    def test_two_four(self):
        assert verify_principal_decomposition(2, 4)["pass"]

    def test_odd_raises(self):
        with pytest.raises(SizeMismatch):
            verify_principal_decomposition(1, 2)
