import inspect
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import pytest

from diagcat import chars
from diagcat.chars import (
    _exact_quotient,
    _fixed_matchings,
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
from diagcat.diagrams import TOP, enumerate_diagrams
from diagcat.errors import NotAnIntegerPartition, SizeMismatch

from helpers import (
    character_by_beta_sets,
    lr_by_characters,
    lr_by_tableaux,
    specht_character_oracle,
)


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

    @pytest.mark.parametrize(
        "parts", [[2.5, 1], [Fraction(3, 2)], ["2", "1"], [2, None], [float("nan")], [float("inf")]]
    )
    def test_non_integer_parts_refused(self, parts):
        # int() alone would read [2.5, 1] and ['2', '1'] as (2, 1)
        with pytest.raises(NotAnIntegerPartition, match="^parts must be integers: "):
            check_partition(parts)
        # warm the boundary memo with the partition the parts truncate to
        near = (2, 1) if len(parts) == 2 else (1,)
        sym_character(near, near)
        lr_coefficient(near, (), near)
        for call in (
            lambda: sym_character(parts, near),
            lambda: sym_character(near, parts),
            lambda: lr_coefficient(parts, (), near),
            lambda: lr_coefficient(near, parts, near),
            lambda: lr_coefficient(near, (), parts),
            lambda: delta_multiplicity(parts, near),
            lambda: delta_multiplicity((), parts),
        ):
            with pytest.raises(NotAnIntegerPartition):
                call()

    def test_integral_numbers_accepted(self):
        # a part is refused by its value, not its type, so the boundary
        # memo, which finds (2.0, 1) under (2, 1), agrees with the check
        assert check_partition([2.0, Fraction(1)]) == (2, 1)
        assert type(check_partition([2.0])[0]) is int
        assert sym_character((2.0, 1), [Fraction(3)]) == sym_character((2, 1), (3,)) == -1


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
        for n in range(13):
            for lam in partitions_of(n):
                assert sym_character(lam, (1,) * n) == dim_specht(lam), lam

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
        # rows and columns of the whole table, well past the Specht oracle
        for n in range(11):
            parts = partitions_of(n)
            table = [[sym_character(lam, rho) for rho in parts] for lam in parts]
            sizes = [class_size(rho) for rho in parts]
            for a, row in enumerate(table):
                for b, other in enumerate(table):
                    total = sum(z * x * y for z, x, y in zip(sizes, row, other))
                    assert total == (factorial(n) if a == b else 0), (parts[a], parts[b])
                    total = sum(line[a] * line[b] for line in table)
                    assert total == (factorial(n) // sizes[a] if a == b else 0), (parts[a], parts[b])

    def test_against_beta_set_recursion(self):
        for n in range(10):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    assert sym_character(lam, mu) == character_by_beta_sets(lam, mu), (lam, mu)

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

    def test_weight_of_the_wrong_size_raises(self):
        with pytest.raises(SizeMismatch):
            chars.principal_permutation_multiplicity(1, 3, (2, 1, 1))

    def test_fixed_counts_give_the_orbit_count(self):
        # Burnside: the mean number of fixed diagrams over the top
        # symmetric group is the number of its orbits on the hom space
        for total in range(7):
            for n in range(total + 1):
                m = total - n
                orbits = set()
                for d in enumerate_diagrams("brauer", n, m):
                    images = set()
                    for sigma in permutations(range(1, m + 1)):
                        moved = [
                            frozenset((row, sigma[i - 1] if row == TOP else i) for row, i in edge)
                            for edge in d.edges
                        ]
                        images.add(frozenset(moved))
                    orbits.add(frozenset(images))
                burnside = sum(
                    class_size(rho) * _fixed_matchings(n, m, rho) for rho in partitions_of(m)
                )
                assert burnside == len(orbits) * factorial(m), (n, m)


# the public entry points that take partitions, with sample arguments;
# every one must give the same value for lists as for tuples
PARTITION_ARGUMENTS = {
    "partition_key": ((3, 1),),
    "check_partition": ((3, 1, 0),),
    "doubled": ((2, 1),),
    "conjugate_partition": ((3, 1),),
    "dim_specht": ((3, 2, 1),),
    "standard_tableaux": ((2, 2),),
    "sym_character": ((3, 2, 1), (2, 2, 1, 1)),
    "centralizer_order": ((2, 2, 1),),
    "class_size": ((2, 2, 1),),
    "lr_coefficient": ((2, 1), (2, 1), (3, 2, 1)),
    "delta_multiplicity": ((1,), (3, 1, 1)),
    "ptilde_standard_multiplicity": ((3, 1, 1), (1,)),
    "induced_multiplicity_oracle": ((1,), (3, 1, 1)),
    "principal_permutation_multiplicity": (2, 4, (2, 2)),
}
PARTITION_PARAMETERS = {"lam", "mu", "nu", "rho", "parts", "target"}


def test_public_entry_points_accept_lists():
    public = {
        name: fn
        for name, fn in vars(chars).items()
        if inspect.isfunction(fn) and fn.__module__ == chars.__name__ and not name.startswith("_")
    }
    taking = {
        name for name, fn in public.items()
        if PARTITION_PARAMETERS & set(inspect.signature(fn).parameters)
    }
    assert taking == set(PARTITION_ARGUMENTS)
    for name, args in PARTITION_ARGUMENTS.items():
        as_lists = [list(a) if isinstance(a, tuple) else a for a in args]
        assert public[name](*as_lists) == public[name](*args), name
        # and again after the tuples have filled any memo
        assert public[name](*as_lists) == public[name](*args), name
