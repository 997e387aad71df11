import gc
import random
import tracemalloc
from itertools import product

import pytest

from diagcat import (
    BrauerDiagram,
    PartialInjection,
    SignedBrauerDiagram,
    TemperleyLiebDiagram,
    disjoint_union,
    enumerate_diagrams,
    identity_diagram,
    is_downwards,
    is_planar,
    is_upwards,
    make_diagram,
    transpose,
)
from diagcat.diagrams import VARIANTS, variant_class
from diagcat.errors import (
    ColorViolation,
    NotAMatching,
    NotAPartition,
    NotInjective,
    ParityViolation,
    ShapeMismatch,
    UnsupportedVariant,
    VariantMismatch,
)
from diagcat.linear import check_triangular_axioms, verify_t3
from diagcat.taut import TAUT_VARIANTS, TautContext, verify_taut_functoriality


def b(i):
    return (0, i)


def t(i):
    return (1, i)


def double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def bell(k):
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def catalan(k):
    from math import comb

    return comb(2 * k, k) // (k + 1)


EXAMPLE_3_TO_5 = [(b(1), b(3)), (b(2), t(4)), (t(1), t(2)), (t(3), t(5))]


class TestMakeDiagram:
    def test_three_to_five_example(self):
        d = make_diagram("brauer", 3, 5, EXAMPLE_3_TO_5)
        assert d.n == 3 and d.m == 5
        assert d.to_text() == "3->5:(b1 b3)(b2 t4)(t1 t2)(t3 t5)"

    def test_empty_diagram(self):
        d = make_diagram("brauer", 0, 0, [])
        assert d.to_text() == "0->0:"

    def test_parity_violation(self):
        with pytest.raises(ParityViolation):
            make_diagram("brauer", 1, 2, [(b(1), t(1))])

    def test_not_a_matching(self):
        with pytest.raises(NotAMatching):
            make_diagram("brauer", 2, 2, [(b(1), b(2)), (b(1), t(1))])
        with pytest.raises(NotAMatching):
            make_diagram("brauer", 2, 0, [])

    def test_not_a_partition(self):
        with pytest.raises(NotAPartition):
            make_diagram("partition", 1, 1, [[b(1)]])
        with pytest.raises(NotAPartition):
            make_diagram("partition", 1, 1, [[b(1), t(1)], [t(1)]])

    def test_color_violation(self):
        # horizontal edge joining two color-1 vertices
        with pytest.raises(ColorViolation):
            make_diagram("walled", (2, 0), (2, 0), [(b(1), b(2)), (t(1), t(2))])
        # vertical edge crossing the wall
        with pytest.raises(ColorViolation):
            make_diagram("walled", (1, 1), (1, 1), [(b(1), t(2)), (b(2), t(1))])

    def test_walled_valid(self):
        d = make_diagram("walled", (1, 1), (1, 1), [(b(1), t(1)), (b(2), t(2))])
        assert d.to_text() == "1+1->1+1:(b1 t1)(b2 t2)"
        cupcap = make_diagram("walled", (1, 1), (1, 1), [(b(1), b(2)), (t(1), t(2))])
        assert cupcap.color(b(1)) == 1 and cupcap.color(b(2)) == 2

    def test_fisharp(self):
        d = make_diagram("fisharp", 2, 2, [(1, 2)])
        assert d.to_text() == "2->2:[b1->t2]"
        with pytest.raises(NotInjective):
            make_diagram("fisharp", 2, 1, [(1, 1), (2, 1)])

    def test_signed_orientation_round_trip(self):
        d = make_diagram("signed", 2, 0, [(b(2), b(1))])
        assert d.arrows == ((b(2), b(1)),)
        sign, canon = d.canonicalize()
        assert sign == -1
        assert canon.arrows == ((b(1), b(2)),)


@pytest.mark.parametrize("variant", VARIANTS)
def test_negative_sizes_are_refused(variant):
    # a negative row size or color count builds no value and no hom space
    if variant == "walled":
        shapes = [((-1, 1), (0, 0)), ((2, -1), (1, 0)), ((1, 0), (0, -1))]
    else:
        shapes = [(-1, 1), (-2, 0), (0, -2)]
    for bottom, top in shapes:
        with pytest.raises(ShapeMismatch, match="is negative$"):
            enumerate_diagrams(variant, bottom, top)
        with pytest.raises(ShapeMismatch, match="is negative$"):
            make_diagram(variant, bottom, top, [])
    with pytest.raises(ShapeMismatch, match="is negative$"):
        identity_diagram(variant, (1, -1) if variant == "walled" else -1)
    # nor does a negative sweep size
    if variant in ("brauer", "partition", "temperley_lieb"):
        with pytest.raises(ShapeMismatch, match=r"^max_size -1 is negative$"):
            check_triangular_axioms(variant, -1)
        with pytest.raises(ShapeMismatch, match=r"^row size -1 is negative$"):
            verify_t3(variant, -1, 2)
    if variant in TAUT_VARIANTS:
        with pytest.raises(ShapeMismatch, match=r"^max_size -1 is negative$"):
            verify_taut_functoriality(TautContext(variant, dim=2), -1)


@pytest.mark.parametrize("variant", VARIANTS)
def test_sizes_are_judged_by_value(variant):
    # an integral number is that int; any other size, or a pair where a
    # row size is due and an int where a walled row is due, is refused
    if variant == "walled":
        assert enumerate_diagrams(variant, (1.0, 1), (True, 1)) == enumerate_diagrams(variant, (1, 1), (1, 1))
        shapes = [(1, 1), ((1, 0), 1), ((1.5, 0), (1, 0)), (("1", 0), (1, 0)), ((1, 0, 0), (1, 0))]
    else:
        assert enumerate_diagrams(variant, 2.0, 2) == enumerate_diagrams(variant, 2, 2)
        shapes = [(2.5, 2), ("2", 2), ((1, 0), (1, 0)), (2, None), (float("inf"), 1)]
    for bottom, top in shapes:
        with pytest.raises(ShapeMismatch, match="is not an integer$|^a walled row is a pair"):
            enumerate_diagrams(variant, bottom, top)
    for d in enumerate_diagrams(variant, *(((1.0, 1), (1, 1)) if variant == "walled" else (2.0, 2))):
        assert all(type(size) is int for size in (d.n, d.m))


@pytest.mark.parametrize("variant", VARIANTS)
def test_constructors_read_sizes_by_value(variant):
    # the validating constructors and identity_diagram read a size as
    # enumeration does: an integral number is that int, and a size of
    # the wrong shape is refused as such, never with a TypeError
    if variant == "walled":
        size, exact, bad = (1.0, True), (1, 1), [2, (1, 0, 0), (1.5, 0), ("1", 0)]
    else:
        size, exact, bad = 2.0, 2, [2.5, "2", (1, 0), None]
    ids = [(i, i) if variant == "fisharp" else (b(i), t(i)) for i in (1, 2)]
    d = identity_diagram(variant, size)
    assert d == identity_diagram(variant, exact) == make_diagram(variant, size, exact, ids)
    rows = (*d.bottom, *d.top) if variant == "walled" else (d.n, d.m)
    assert all(type(x) is int for x in rows)
    for shape in bad:
        with pytest.raises(ShapeMismatch, match="is not an integer$|^a walled row is a pair"):
            identity_diagram(variant, shape)
        with pytest.raises(ShapeMismatch, match="is not an integer$|^a walled row is a pair"):
            make_diagram(variant, shape, exact, [])


@pytest.mark.parametrize("variant", VARIANTS)
def test_entries_are_judged_by_value(variant):
    # a vertex or a pair entry is read as a size is: an integral number
    # is that int, and anything else is refused with the family's typed
    # error, never truncated and never a bare TypeError
    exc = {"fisharp": NotInjective, "partition": NotAPartition, "degenerate": NotAPartition}
    exc = exc.get(variant, NotAMatching)
    rows = ((1, 1), (1, 1)) if variant == "walled" else (2, 2)

    def build(first):
        # the identity, with `first` in place of b1, or of the pair (1, 1)
        if variant == "fisharp":
            return make_diagram(variant, *rows, [first])
        data = [(first, t(1)), (b(2), t(2))]
        if variant in ("partition", "degenerate"):
            data = [list(e) for e in data]
        return make_diagram(variant, *rows, data)

    lead = 1 if variant == "fisharp" else 0
    assert build((lead, 1)) == build((float(lead), 1.0)) == build((lead, True))
    bad = [(lead, 1.5), (lead, "1"), (lead, None), (lead, float("inf")), (lead, float("nan"))]
    for entry in bad + [(1.5, 1), (lead,), "b1", None]:
        with pytest.raises(exc, match="is not a pair of integers$"):
            build(entry)
    if variant == "signed":
        cup = [(b(1), b(2))]
        assert SignedBrauerDiagram(2, 0, cup, [((0, 2.0), (0, 1))]).flips == (0,)
        with pytest.raises(NotAMatching, match="is not a pair of integers$"):
            SignedBrauerDiagram(2, 0, cup, [((0, 2.5), (0, 1))])


def test_enumerated_values_hold_only_their_labels():
    # a value holds its rows and labels; the parts are derived on each
    # read, never kept, so a held hom basis is about its labels' size.
    # The collector is paused, so garbage that only it would free, such
    # as the cycle of a closure that calls itself, counts as held.
    for variant, size, count, bound in (("temperley_lieb", 9, 4862, 600), ("brauer", 6, 10395, 320)):
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ds = enumerate_diagrams(variant, size, size)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert len(ds) == count
        assert held / len(ds) < bound, variant
        del ds


@pytest.mark.parametrize("variant", VARIANTS)
def test_enumeration_runs_no_validating_constructor(variant, monkeypatch):
    # every enumerated value is built unchecked, through _trusted
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} validated an enumerated value")

    for cls in set(map(variant_class, VARIANTS)):
        if "__init__" in vars(cls):
            monkeypatch.setattr(cls, "__init__", refuse)
    rows = ((2, 1), (2, 1)) if variant == "walled" else (3, 3)
    ds = enumerate_diagrams(variant, *rows)
    assert ds and all(type(d) is variant_class(variant) for d in ds)


class TestPredicates:
    def test_identity_is_both(self):
        for variant in ("brauer", "partition"):
            d = identity_diagram(variant, 3)
            assert is_upwards(d) and is_downwards(d)

    def test_cup_is_upwards_only(self):
        cup = make_diagram("brauer", 0, 2, [(t(1), t(2))])
        assert is_upwards(cup) and not is_downwards(cup)

    def test_partition_singletons(self):
        d = make_diagram("partition", 1, 1, [[b(1)], [t(1)]])
        assert not is_upwards(d)
        assert not is_downwards(d)

    def test_partition_examples(self):
        up = make_diagram("partition", 1, 2, [[b(1), t(1)], [t(2)]])
        assert is_upwards(up) and not is_downwards(up)
        two_bottom = make_diagram("partition", 2, 1, [[b(1), b(2), t(1)]])
        assert not is_upwards(two_bottom) and is_downwards(two_bottom)

    def test_planarity(self):
        ident = identity_diagram("brauer", 2)
        assert is_planar(ident)
        swap = make_diagram("brauer", 2, 2, [(b(1), t(2)), (b(2), t(1))])
        assert not is_planar(swap)
        cupcap = make_diagram("brauer", 2, 2, [(b(1), b(2)), (t(1), t(2))])
        assert is_planar(cupcap)
        # a Temperley-Lieb value is planar by construction
        with pytest.raises(NotAMatching):
            make_diagram("temperley_lieb", 2, 2, [(b(1), t(2)), (b(2), t(1))])
        with pytest.raises(NotAMatching):
            TemperleyLiebDiagram(4, 0, [(b(1), b(3)), (b(2), b(4))])

    def test_fisharp_flags(self):
        total = make_diagram("fisharp", 2, 3, [(1, 1), (2, 3)])
        assert is_upwards(total) and not is_downwards(total)
        onto = transpose(total)
        assert is_downwards(onto) and not is_upwards(onto)


class TestCounts:
    def test_brauer_counts(self):
        for n in range(6):
            for m in range(6):
                if n + m > 10:
                    continue
                got = len(enumerate_diagrams("brauer", n, m))
                want = double_factorial(n + m - 1) if (n + m) % 2 == 0 else 0
                assert got == want, (n, m)

    def test_partition_counts(self):
        for n in range(5):
            for m in range(5):
                if n + m > 8:
                    continue
                assert len(enumerate_diagrams("partition", n, m)) == bell(n + m)

    def test_temperley_lieb_counts(self):
        shapes = [(n, m) for n in range(7) for m in range(7) if n + m <= 12]
        for n, m in shapes + [(8, 8)]:
            got = len(enumerate_diagrams("temperley_lieb", n, m))
            want = catalan((n + m) // 2) if (n + m) % 2 == 0 else 0
            assert got == want, (n, m)

    def test_temperley_lieb_is_planar_brauer(self):
        # the noncrossing generator against the planarity filter
        for n in range(11):
            for m in range(11 - n):
                planar = [
                    d.edges
                    for d in enumerate_diagrams("brauer", n, m)
                    if is_planar(d)
                ]
                tl = enumerate_diagrams("temperley_lieb", n, m)
                assert [d.edges for d in tl] == planar, (n, m)
                assert all(type(d) is TemperleyLiebDiagram for d in tl)

    def test_specific_counts(self):
        assert len(enumerate_diagrams("brauer", 2, 2)) == 3
        assert len(enumerate_diagrams("partition", 1, 1)) == 2
        assert len(enumerate_diagrams("temperley_lieb", 3, 3)) == 5

    def test_partition_1_1_contents(self):
        ds = enumerate_diagrams("partition", 1, 1)
        texts = {d.to_text() for d in ds}
        assert texts == {"1->1:{b1 t1}", "1->1:{b1}{t1}"}

    def test_fisharp_count(self):
        # sum over k of C(2,k) C(2,k) k!
        assert len(enumerate_diagrams("fisharp", 2, 2)) == 1 + 4 + 2

    def test_walled_count(self):
        # Hom((1,1),(1,1)): identity and cup-over-cap
        assert len(enumerate_diagrams("walled", (1, 1), (1, 1))) == 2

    def test_enumeration_sorted_and_canonical(self):
        ds = enumerate_diagrams("brauer", 2, 2)
        assert ds == sorted(ds, key=lambda d: d.sort_key())
        assert len(set(ds)) == len(ds)

    @pytest.mark.parametrize(
        "variant,bottom,top",
        [
            ("brauer", 2, 2),
            ("signed", 2, 2),
            ("walled", (2, 1), (2, 1)),
            ("temperley_lieb", 2, 2),
            ("partition", 2, 2),
            ("degenerate", 2, 2),
            ("fisharp", 2, 3),
            ("fisharp", 3, 3),
            ("walled", (2, 2), (2, 2)),
            ("temperley_lieb", 4, 4),
            ("partition", 3, 2),
        ],
    )
    def test_identity_layer(self, variant, bottom, top):
        ds = enumerate_diagrams(variant, bottom, top)
        shuffled = random.Random(7).sample(ds, len(ds))
        assert sorted(shuffled) == sorted(shuffled, key=lambda d: d.sort_key())
        assert sorted(shuffled) == ds
        for d in ds:
            cls = type(d)
            # the fields sort_key() reads are the validating constructor's
            # arguments; _trusted takes the identity, labels for parts
            *objects, data = d.sort_key()
            checked = cls(*objects, list(reversed(data)))
            trusted = cls._trusted(*d._key(d))
            assert checked == d and trusted == d
            assert hash(checked) == hash(d) == hash(trusted)
            if hasattr(d, "edges"):
                plain = BrauerDiagram(d.n, d.m, d.edges)
                assert (d == plain) == (plain == d) == (cls is BrauerDiagram)
            with pytest.raises(AttributeError):
                d.n = 0
            with pytest.raises(AttributeError):
                d.extra = 0

    def test_partition_labels(self):
        d = make_diagram("partition", 2, 1, [[b(1), t(1)], [b(2)]])
        assert d.labels() == (0, 1, 0)
        for n, m in ((0, 0), (2, 2), (3, 1), (0, 3)):
            for d in enumerate_diagrams("partition", n, m):
                labels = d.labels()
                vertices = [b(i) for i in range(1, n + 1)]
                vertices += [t(i) for i in range(1, m + 1)]
                # restricted growth: each label is at most one past the
                # largest label before it
                top = -1
                for label in labels:
                    assert label <= top + 1
                    top = max(top, label)
                grouped = {}
                for v, label in zip(vertices, labels):
                    grouped.setdefault(label, []).append(v)
                assert tuple(tuple(g) for g in grouped.values()) == d.blocks


class TestTranspose:
    def test_cup_cap(self):
        cup = make_diagram("brauer", 0, 2, [(t(1), t(2))])
        cap = transpose(cup)
        assert cap.to_text() == "2->0:(b1 b2)"

    def test_involution_everywhere(self):
        for variant, bot, top in [
            ("brauer", 2, 2),
            ("brauer", 1, 3),
            ("temperley_lieb", 1, 3),
            ("partition", 2, 2),
            ("degenerate", 1, 2),
            ("walled", (1, 1), (1, 1)),
            ("fisharp", 2, 2),
        ]:
            for d in enumerate_diagrams(variant, bot, top):
                assert type(transpose(d)) is type(d)
                assert transpose(transpose(d)) == d

    def test_three_to_five_example(self):
        d = make_diagram("brauer", 3, 5, EXAMPLE_3_TO_5)
        dt = transpose(d)
        assert dt.to_text() == "5->3:(b1 b2)(b3 b5)(b4 t2)(t1 t3)"

    def test_signed_unsupported(self):
        d = make_diagram("signed", 2, 0, [(b(1), b(2))])
        with pytest.raises(UnsupportedVariant):
            transpose(d)


class TestDisjointUnion:
    def test_identity_monoidal(self):
        i1 = identity_diagram("brauer", 1)
        assert disjoint_union(i1, i1) == identity_diagram("brauer", 2)

    def test_cup_cap(self):
        cup = make_diagram("brauer", 0, 2, [(t(1), t(2))])
        cap = make_diagram("brauer", 2, 0, [(b(1), b(2))])
        d = disjoint_union(cup, cap)
        assert d.to_text() == "2->2:(b1 b2)(t1 t2)"

    def test_unit(self):
        empty = make_diagram("brauer", 0, 0, [])
        d = make_diagram("brauer", 2, 2, [(b(1), t(2)), (b(2), t(1))])
        assert disjoint_union(d, empty) == d
        assert disjoint_union(empty, d) == d

    def test_variant_mismatch(self):
        cup = make_diagram("brauer", 0, 2, [(t(1), t(2))])
        pd = make_diagram("partition", 0, 0, [])
        with pytest.raises(VariantMismatch):
            disjoint_union(cup, pd)

    def test_associative(self):
        ds = enumerate_diagrams("brauer", 1, 1)
        a = ds[0]
        cup = make_diagram("brauer", 0, 2, [(t(1), t(2))])
        lhs = disjoint_union(disjoint_union(a, cup), a)
        rhs = disjoint_union(a, disjoint_union(cup, a))
        assert lhs == rhs

    def test_partition_union_is_canonical(self):
        # the validating constructor sorts every block and their order
        shapes = ((0, 1), (1, 0), (1, 2), (2, 1), (2, 2))
        for n1, m1 in shapes:
            for n2, m2 in shapes:
                for d1 in enumerate_diagrams("partition", n1, m1):
                    for d2 in enumerate_diagrams("partition", n2, m2):
                        shifted = [
                            [(r, i + (n1 if r == 0 else m1)) for r, i in blk]
                            for blk in d2.blocks
                        ]
                        expected = make_diagram(
                            "partition", n1 + n2, m1 + m2,
                            [list(blk) for blk in d1.blocks] + shifted,
                        )
                        assert disjoint_union(d1, d2).blocks == expected.blocks

    def test_preserves_flags(self):
        for d1 in enumerate_diagrams("partition", 1, 2):
            for d2 in enumerate_diagrams("partition", 2, 1):
                u = disjoint_union(d1, d2)
                assert is_upwards(u) == (is_upwards(d1) and is_upwards(d2))
                assert is_downwards(u) == (is_downwards(d1) and is_downwards(d2))

    def test_walled_union(self):
        i = identity_diagram("walled", (1, 1))
        u = disjoint_union(i, i)
        assert u.bottom_colors == (2, 2)
        assert u == identity_diagram("walled", (2, 2))


IDENTITY_VARIANTS = ("brauer", "temperley_lieb", "walled", "signed", "partition", "degenerate", "fisharp")


def hom_spaces(variant, total):
    """(bottom, top) for every hom space with at most `total` vertices."""
    if variant == "walled":
        rows = [(a, c) for a in range(total + 1) for c in range(total + 1 - a)]
        return [(x, y) for x in rows for y in rows if sum(x) + sum(y) <= total]
    return [(n, m) for n in range(total + 1) for m in range(total + 1 - n)]


def rebuilt(cls, bottom, top, parts, arrows, rng):
    """The validating constructor on the parts in shuffled order, each
    with its vertices shuffled; a partial injection's on the pairs its
    two-vertex parts give, in shuffled order."""
    parts = [rng.sample(p, len(p)) for p in rng.sample(parts, len(parts))]
    if cls is PartialInjection:
        pairs = [[i for _, i in sorted(p)] for p in parts if len(p) == 2]
        return cls(bottom, top, pairs)
    if cls is SignedBrauerDiagram:
        return cls(bottom, top, parts, rng.sample(arrows, len(arrows)))
    return cls(bottom, top, parts)


def moved(d1, d2, v, first):
    """Where vertex v of d1 (first) or of d2 lands in disjoint_union(d1,
    d2): each row lists d1's vertices, then d2's; a walled row does so
    for each color in turn."""
    row, i = v
    r1, r2 = (d1.bottom, d2.bottom) if row == 0 else (d1.top, d2.top)
    if isinstance(r1, int):
        return v if first else (row, i + r1)
    if first:
        return v if i <= r1[0] else (row, i + r2[0])
    return (row, i + r1[0]) if i <= r2[0] else (row, i + sum(r1))


def size(x):
    return x if isinstance(x, int) else sum(x)


class TestLabelsIdentity:
    """Matchings and partitions are stored as their labels; the parts
    are a view. Every value with at most six vertices is checked against
    the validating constructors, which build from parts."""

    @pytest.mark.parametrize("variant", IDENTITY_VARIANTS)
    def test_labels_are_the_identity(self, variant):
        rng = random.Random(12)
        cls = variant_class(variant)
        every = {}
        for bottom, top in hom_spaces(variant, 6):
            ds = enumerate_diagrams(variant, bottom, top)
            assert sorted(rng.sample(ds, len(ds))) == ds
            for d in ds:
                arrows = list(getattr(d, "arrows", ()))
                built = rebuilt(cls, bottom, top, d.parts, arrows, rng)
                # a value built from its labels alone derives its parts
                signed = [d.flips] if cls is SignedBrauerDiagram else []
                bare = cls._trusted(bottom, top, d.labels(), *signed)
                assert bare.parts == built.parts == d.parts
                assert built == d == bare
                assert hash(built) == hash(d) == hash(bare)
                every[built] = d
                if arrows:
                    flipped = cls(bottom, top, d.parts, [a[::-1] for a in arrows])
                    assert flipped != d and flipped.parts == d.parts
                if variant != "signed":
                    swapped = [[(1 - row, i) for row, i in p] for p in d.parts]
                    assert transpose(d) == rebuilt(cls, top, bottom, swapped, [], rng)
        # values of different shapes or parts are never equal
        assert len(every) == len(set(every.values()))

    @pytest.mark.parametrize("variant", IDENTITY_VARIANTS)
    def test_disjoint_union_against_constructor(self, variant):
        rng = random.Random(13)
        by_size = {}
        for bottom, top in hom_spaces(variant, 6):
            ds = enumerate_diagrams(variant, bottom, top)
            # oriented values also with every other arrow flipped
            ds += [
                SignedBrauerDiagram(
                    bottom, top, d.parts, [a[::-1] if k % 2 else a for k, a in enumerate(d.arrows, 1)]
                )
                for d in ds
                if variant == "signed" and d.arrows
            ]
            by_size.setdefault(size(bottom) + size(top), []).extend(ds)
        count = 0
        for size1, ds1 in by_size.items():
            for size2, ds2 in by_size.items():
                if size1 + size2 > 6:
                    continue
                for d1, d2 in product(ds1, ds2):
                    u = disjoint_union(d1, d2)
                    parts, arrows = [], []
                    for d, first in ((d1, True), (d2, False)):
                        parts += [[moved(d1, d2, v, first) for v in p] for p in d.parts]
                        for a in getattr(d, "arrows", ()):
                            arrows.append(tuple(moved(d1, d2, v, first) for v in a))
                    want = rebuilt(type(d1), u.bottom, u.top, parts, arrows, rng)
                    assert u == want and hash(u) == hash(want), (d1, d2)
                    assert u.parts == want.parts
                    count += 1
        assert count > 0
