import importlib
import pkgutil
import random
from collections import Counter

import pytest

import diagcat
from diagcat import (
    DeltaPoly,
    Morphism,
    PartitionDiagram,
    check_triangular_axioms,
    disjoint_union,
    enumerate_diagrams,
    factorize,
    identity_diagram,
    is_downwards,
    is_upwards,
    make_diagram,
    morphism_compose,
    morphism_tensor,
    morphism_transpose,
    transpose,
    verify_t3,
)
from diagcat import linear
from diagcat.algebra import _check_pair_budget, hom_basis
from diagcat.compose import compose
from diagcat.errors import (
    DimensionBudgetExceeded,
    ShapeMismatch,
    UnsupportedVariant,
    VariantMismatch,
)


def b(i):
    return (0, i)


def t(i):
    return (1, i)


CUP = make_diagram("brauer", 0, 2, [(t(1), t(2))])
CAP = make_diagram("brauer", 2, 0, [(b(1), b(2))])


def rand_morphism(rng, variant, n, m, nterms=2):
    ds = enumerate_diagrams(variant, n, m)
    terms = {}
    for d in rng.sample(ds, min(nterms, len(ds))):
        terms[d] = DeltaPoly([rng.randint(-3, 3), rng.randint(-2, 2)])
    return Morphism(variant, n, m, terms)


class TestMorphismAlgebra:
    def test_cap_cup_is_delta(self):
        res = morphism_compose(Morphism.from_diagram(CAP), Morphism.from_diagram(CUP))
        ident = identity_diagram("brauer", 0)
        assert res.terms == {ident: DeltaPoly([0, 1])}

    def test_identity_neutral(self):
        rng = random.Random(5)
        for _ in range(20):
            f = rand_morphism(rng, "brauer", 2, 4)
            assert morphism_compose(Morphism.identity("brauer", 4), f) == f
            assert morphism_compose(f, Morphism.identity("brauer", 2)) == f

    def test_tl_element_squares_to_delta_times_itself(self):
        e = morphism_compose(
            Morphism.from_diagram(CUP), Morphism.from_diagram(CAP)
        )  # cup after cap: [2] -> [2]
        e2 = morphism_compose(e, e)
        assert e2 == e * DeltaPoly([0, 1])

    def test_bilinearity(self):
        rng = random.Random(11)
        for variant in ("brauer", "partition"):
            for _ in range(15):
                n, m, k = rng.choice([(1, 1, 1), (2, 2, 2), (0, 2, 2), (3, 1, 1)])
                if variant == "brauer" and (n + m) % 2:
                    continue
                f1 = rand_morphism(rng, variant, n, m)
                f2 = rand_morphism(rng, variant, n, m)
                g = rand_morphism(rng, variant, m, k)
                a = DeltaPoly([2, 1])
                lhs = morphism_compose(g, f1 * a + f2)
                rhs = morphism_compose(g, f1) * a + morphism_compose(g, f2)
                assert lhs == rhs

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            morphism_compose(
                Morphism.from_diagram(CAP), Morphism.identity("brauer", 4)
            )

    def test_tensor(self):
        i1 = Morphism.identity("brauer", 1)
        assert morphism_tensor(i1, i1) == Morphism.identity("brauer", 2)
        two_cup = Morphism.from_diagram(CUP, 2)
        three_cap = Morphism.from_diagram(CAP, 3)
        prod = morphism_tensor(two_cup, three_cap)
        from diagcat import disjoint_union

        assert prod.terms == {disjoint_union(CUP, CAP): DeltaPoly(6)}
        empty = Morphism.identity("brauer", 0)
        f = Morphism.from_diagram(CUP, DeltaPoly([1, 2]))
        assert morphism_tensor(f, empty) == f

    def test_signed_morphism_composition(self):
        cap = make_diagram("signed", 2, 0, [(b(1), b(2))])
        cup = make_diagram("signed", 0, 2, [(t(2), t(1))])
        res = morphism_compose(Morphism.from_diagram(cap), Morphism.from_diagram(cup))
        ident = identity_diagram("signed", 0)
        assert res.terms == {ident: DeltaPoly([0, -1])}
        # a non-reference orientation folds its sign into the coefficient
        f = Morphism.from_diagram(make_diagram("signed", 0, 2, [(t(1), t(2))]))
        assert list(f.terms.values()) == [DeltaPoly(-1)]

    def test_cancelled_terms_are_dropped(self):
        f = Morphism.from_diagram(CUP, DeltaPoly([1, 2]))
        assert (f - f).terms == {} and (f * 0).terms == {}
        # the identity and the swap send the cup to the same diagram
        swap = make_diagram("brauer", 2, 2, [(b(1), t(2)), (b(2), t(1))])
        g = Morphism.identity("brauer", 2) - Morphism.from_diagram(swap)
        assert morphism_compose(g, f).terms == {}
        signed = make_diagram("signed", 0, 2, [(t(1), t(2))])
        h = Morphism("signed", 0, 2, {signed: 1, signed.canonicalize()[1]: 1})
        assert morphism_tensor(h, Morphism.identity("signed", 0)).terms == {}

    def test_signed_terms_kept_in_reference_orientation(self):
        flip = make_diagram("signed", 2, 0, [(b(2), b(1))])
        ref = make_diagram("signed", 2, 0, [(b(1), b(2))])
        f = Morphism("signed", 2, 0, {flip: 1})
        assert f == Morphism.from_diagram(flip) == Morphism.from_diagram(ref, -1)
        assert Morphism("signed", 2, 0, {flip: 1, ref: 1}).is_zero()

    def test_terms_of_another_class_refused(self):
        partition_cap = make_diagram("partition", 2, 0, [[b(1), b(2)]])
        with pytest.raises(VariantMismatch):
            Morphism("brauer", 2, 0, {partition_cap: 1})
        # a planar matching is a Brauer diagram, but of another variant
        planar_cap = make_diagram("temperley_lieb", 2, 0, [(b(1), b(2))])
        with pytest.raises(VariantMismatch):
            Morphism("brauer", 2, 0, {CAP: 1, planar_cap: 1})
        with pytest.raises(UnsupportedVariant):
            Morphism("bruaer", 2, 0, {CAP: 1})

    def test_degenerate_drops_zero_terms(self):
        alpha = Morphism.from_diagram(make_diagram("degenerate", 0, 2, [[t(1), t(2)]]))
        beta = Morphism.from_diagram(make_diagram("degenerate", 2, 0, [[b(1), b(2)]]))
        assert alpha.variant == beta.variant == "degenerate"
        assert morphism_compose(beta, alpha).is_zero()

    def test_transpose_contravariant(self):
        rng = random.Random(23)
        for variant in ("brauer", "partition"):
            for _ in range(15):
                n, m, k = rng.choice([(1, 1, 1), (2, 2, 2), (3, 1, 3), (0, 2, 0)])
                if variant == "brauer" and (n + m) % 2:
                    continue
                f = rand_morphism(rng, variant, n, m)
                g = rand_morphism(rng, variant, m, k)
                lhs = morphism_transpose(morphism_compose(g, f))
                rhs = morphism_compose(morphism_transpose(f), morphism_transpose(g))
                assert lhs == rhs


class TestFactorize:
    def test_three_to_five_factorization(self):
        d = make_diagram(
            "brauer", 3, 5, [(b(1), b(3)), (b(2), t(4)), (t(1), t(2)), (t(3), t(5))]
        )
        fac = factorize(d)
        assert fac.middle == 1
        assert fac.down == make_diagram("brauer", 3, 1, [(b(1), b(3)), (b(2), t(1))])
        assert fac.up == make_diagram(
            "brauer", 1, 5, [(b(1), t(4)), (t(1), t(2)), (t(3), t(5))]
        )

    def test_identity(self):
        for n in range(4):
            fac = factorize(identity_diagram("brauer", n))
            assert fac.middle == n
            assert fac.down == identity_diagram("brauer", n)
            assert fac.up == identity_diagram("brauer", n)

    def test_partition_example(self):
        d = make_diagram("partition", 2, 2, [[b(1), t(1)], [b(2)], [t(2)]])
        fac = factorize(d)
        assert fac.middle == 1
        assert fac.down == make_diagram("partition", 2, 1, [[b(1), t(1)], [b(2)]])
        assert fac.up == make_diagram("partition", 1, 2, [[b(1), t(1)], [t(2)]])

    def test_signed_unsupported(self):
        with pytest.raises(UnsupportedVariant):
            factorize(identity_diagram("signed", 2))

    @pytest.mark.parametrize(
        "variant", ["brauer", "partition", "walled", "temperley_lieb", "degenerate"]
    )
    def test_soundness(self, variant):
        if variant == "walled":
            objects = [(n1, n2) for n1 in range(3) for n2 in range(3 - n1)]
        else:
            objects = range(5)
        for x in objects:
            for y in objects:
                for d in enumerate_diagrams(variant, x, y):
                    fac = factorize(d)
                    assert type(fac.down) is type(fac.up) is type(d)
                    assert is_downwards(fac.down), d
                    assert is_upwards(fac.up), d
                    res = compose(fac.up, fac.down)
                    assert res.closed_count == 0 and not res.is_zero
                    assert res.result == d


def as_partition(d):
    """The partition diagram reading each edge of d as a two-element block."""
    return PartitionDiagram(d.n, d.m, d.edges)


def walled_positions(c1, c2):
    """Where each vertex of the plain row c1 + c2 lands in the walled
    tensor row, which puts the color-1 vertices of both factors first."""
    (a1, a2), (b1, b2) = c1, c2
    plain = [range(1, a1 + 1), range(a1 + a2 + 1, a1 + a2 + b1 + 1),
             range(a1 + 1, a1 + a2 + 1), range(a1 + a2 + b1 + 1, a1 + a2 + b1 + b2 + 1)]
    return {i: k for k, i in enumerate((i for r in plain for i in r), 1)}


class TestMatchingsArePartitions:
    def test_edges_as_blocks_commute_with_structure(self):
        """Reading every edge as a two-element block embeds each
        matching family in the partition family: compose, transpose,
        disjoint union, the up/down predicates, the labels and the
        factorization all commute with it."""
        families = {
            "brauer": range(4),
            "temperley_lieb": range(4),
            "walled": [(a, b) for a in range(3) for b in range(3)],
        }
        for variant, objects in families.items():
            homs = {
                (x, y): enumerate_diagrams(variant, x, y)
                for x in objects
                for y in objects
            }
            every = [d for ds in homs.values() for d in ds]
            for d in every:
                p = as_partition(d)
                assert as_partition(transpose(d)) == transpose(p), d
                assert is_upwards(d) == is_upwards(p), d
                assert is_downwards(d) == is_downwards(p), d
                assert d.labels() == p.labels(), d
                fm, fp = factorize(d), factorize(p)
                assert as_partition(fm.down) == fp.down, d
                assert as_partition(fm.up) == fp.up, d
                total = sum(fm.middle) if variant == "walled" else fm.middle
                assert total == fp.middle, d
            for (x, y), alphas in homs.items():
                for z in objects:
                    for alpha in alphas:
                        for beta in homs[(y, z)]:
                            res = compose(beta, alpha)
                            want = compose(as_partition(beta), as_partition(alpha))
                            assert as_partition(res.result) == want.result
                            assert res.closed_count == want.closed_count
            for d1 in every:
                for d2 in every:
                    union = as_partition(disjoint_union(d1, d2))
                    want = disjoint_union(as_partition(d1), as_partition(d2))
                    if variant == "walled":
                        bot = walled_positions(d1.bottom, d2.bottom)
                        top = walled_positions(d1.top, d2.top)
                        where = (bot, top)
                        want = PartitionDiagram(want.n, want.m, [
                            [(row, where[row][i]) for row, i in block]
                            for block in want.blocks
                        ])
                    assert union == want, (d1, d2)


class TestVerifyT3:
    def test_examples(self):
        rep = verify_t3("brauer", 1, 3)
        assert rep == {
            "category": "brauer",
            "source": 1,
            "target": 3,
            "lhs_dim": 3,
            "rhs_dim": 3,
            "pass": True,
        }
        rep = verify_t3("brauer", 2, 2)
        assert rep["lhs_dim"] == rep["rhs_dim"] == 3 and rep["pass"]
        rep = verify_t3("brauer", 0, 0)
        assert rep["lhs_dim"] == rep["rhs_dim"] == 1 and rep["pass"]

    def test_partition(self):
        assert verify_t3("partition", 2, 2)["pass"]
        assert verify_t3("partition", 3, 1)["pass"]

    def test_temperley_lieb(self):
        assert verify_t3("temperley_lieb", 3, 3)["pass"]
        assert verify_t3("temperley_lieb", 2, 4)["pass"]

    def test_criterion_3_loop_builds_each_hom_space_once(self, monkeypatch):
        # the enumerator is replaced in every diagcat module, whether it
        # holds one or not, so a second route to a hom space shows here
        enumerations = Counter()
        pairs = 0
        real = linear._products

        def counting_enumerate(variant, x, y):
            enumerations[variant, x, y] += 1
            return enumerate_diagrams(variant, x, y)

        def counting_products(alphas, betas, index):
            nonlocal pairs
            pairs += len(alphas) * len(betas)
            return real(alphas, betas, index)

        for info in pkgutil.iter_modules(diagcat.__path__):
            module = importlib.import_module(f"diagcat.{info.name}")
            monkeypatch.setattr(module, "enumerate_diagrams", counting_enumerate, raising=False)
        monkeypatch.setattr(linear, "_products", counting_products)
        # and none goes through the one-pair compose
        monkeypatch.setattr(linear, "compose", None)
        hom_basis.cache_clear()
        for variant in ("brauer", "partition", "temperley_lieb"):
            for n in range(9):
                for m in range(9 - n):
                    verify_t3(variant, n, m)
        assert len(enumerations) == 135
        assert max(enumerations.values()) == 1
        # every down-after-up pair is composed once, in bulk
        assert pairs == 68_291

    def test_empty_hom_space_is_not_searched(self, monkeypatch):
        # Hom([7], [8]) is empty, so every middle object has an empty
        # factor; the 135,135 diagrams of Hom([7], [7]) are not listed
        monkeypatch.setattr(linear, "_products", None)
        hom_basis.cache_clear()
        rep = verify_t3("brauer", 7, 8)
        assert rep["lhs_dim"] == rep["rhs_dim"] == 0 and rep["pass"]
        assert hom_basis.cache_info().currsize == 1


class TestPairBudget:
    def test_refused_before_enumerating(self, monkeypatch):
        def enumerate_forbidden(*args):
            raise AssertionError("enumerated before the budget check")

        hom_basis.cache_clear()
        monkeypatch.setattr("diagcat.algebra.enumerate_diagrams", enumerate_forbidden)
        # 135,135 * 7! down-after-up pairs of brauer Hom([7], [7]) at most
        for variant, n, m in [
            ("brauer", 7, 7),
            ("brauer", 8, 8),
            ("brauer", 6, 6),
            ("partition", 5, 4),
            ("temperley_lieb", 12, 12),
        ]:
            with pytest.raises(DimensionBudgetExceeded, match="budget 200000$"):
                verify_t3(variant, n, m)
        for variant, size in [("brauer", 6), ("brauer", 7), ("partition", 5), ("temperley_lieb", 12)]:
            with pytest.raises(DimensionBudgetExceeded, match="budget 200000$"):
                check_triangular_axioms(variant, size)
        # a huge size is refused at the first size past the budget
        with pytest.raises(DimensionBudgetExceeded, match=r"up to size 5 exceed"):
            check_triangular_axioms("partition", 10**9)
        # the patched name is the one the checks enumerate through
        with pytest.raises(AssertionError, match="enumerated"):
            verify_t3("brauer", 1, 1)
        with pytest.raises(AssertionError, match="enumerated"):
            check_triangular_axioms("brauer", 1)

    def test_largest_admitted(self):
        # criterion 3's largest (T3) count, partition 4 -> 4, has at most
        # 4140 * 4! = 99,360 pairs; the others are admitted with less room
        for variant, n, m in [
            ("partition", 4, 4),
            ("partition", 6, 3),
            ("brauer", 5, 5),
            ("brauer", 6, 4),
            ("temperley_lieb", 11, 11),
        ]:
            _check_pair_budget(linear._t3_pairs(variant, [(n, m)]))
        # the bounds of the spaces add up
        _check_pair_budget(linear._t3_pairs("partition", [(4, 4), (4, 4)]))
        with pytest.raises(DimensionBudgetExceeded, match="^223560 pairs up to size 5 exceed"):
            _check_pair_budget(linear._t3_pairs("partition", [(4, 4), (4, 4), (3, 5)]))


def _inject(monkeypatch, beta, alpha, closed, composite):
    """beta after alpha reads d^closed * composite wherever the axiom
    checks compose pairs in bulk."""
    real = linear._products

    def faulty(alphas, betas, index):
        k = hom_basis(composite.variant, composite.bottom, composite.top).index(composite)
        return tuple(
            tuple((closed, 1, k) if (g, f) == (beta, alpha) else e for f, e in zip(alphas, row))
            for g, row in zip(betas, real(alphas, betas, index))
        )

    monkeypatch.setattr(linear, "_products", faulty)


class TestAxioms:
    def test_brauer(self):
        rep = check_triangular_axioms("brauer", 3)
        assert rep["pass"], rep

    def test_partition(self):
        rep = check_triangular_axioms("partition", 2)
        assert rep["pass"], rep

    def test_temperley_lieb(self):
        rep = check_triangular_axioms("temperley_lieb", 3)
        assert rep["pass"], rep
        # planar permutations are trivial, so the middle category has
        # one-dimensional endomorphism spaces
        assert rep["t1"]["pass"]

    @pytest.mark.parametrize("variant", ["brauer", "partition", "temperley_lieb"])
    def test_bijections_read_off_the_labels(self, variant):
        # (T1)'s labels test agrees with the parts view on every diagram
        # of up to six vertices, in spaces of equal and unequal sizes
        for n in range(4):
            for m in range(4):
                for d in enumerate_diagrams(variant, n, m):
                    by_parts = all(len(p) == 2 and p[0][0] != p[1][0] for p in d.parts)
                    assert linear._is_bijection_diagram(d) == by_parts, d

    def test_failing_up_down_pair_is_reported(self, monkeypatch):
        # the cup after the cap is made to close a loop: (c) and (d) fail,
        # and of the (T3) reports only Hom([2], [2])'s, where that pair
        # factorizes through [0]
        _inject(monkeypatch, CUP, CAP, 1, compose(CUP, CAP).result)
        rep = check_triangular_axioms("brauer", 3)
        assert rep["t3"]["criterion_c"] is False
        assert rep["t3"]["criterion_d"] is False
        assert rep["t0"]["pass"] and rep["t1"]["pass"] and rep["t2"]["pass"]
        assert not rep["pass"]
        failing = [hom for hom, r in rep["t3"]["per_hom"].items() if not r["pass"]]
        assert failing == ["2->2"]
        assert len(rep["t3"]["per_hom"]) == 16

    @pytest.mark.parametrize("downwards", [False, True])
    def test_composite_leaving_the_subcategory_is_reported(self, monkeypatch, downwards):
        # the swap after an upwards map that is not downwards (or, transposed,
        # a downwards map after the swap) is made to leave the subcategory.
        # Neither (d) nor a (T3) count composes this pair, so only (c) fails
        f = make_diagram("partition", 1, 2, [[b(1), t(1)], [t(2)]])
        swap = make_diagram("partition", 2, 2, [[b(1), t(2)], [b(2), t(1)]])
        wrong = make_diagram("partition", 1, 2, [[b(1)], [t(1), t(2)]])
        pair = (swap, f)
        if downwards:
            pair, wrong = (transpose(f), swap), transpose(wrong)
        _inject(monkeypatch, *pair, 0, wrong)
        rep = check_triangular_axioms("partition", 2)
        assert rep["t3"]["criterion_c"] is False
        assert rep["t3"]["criterion_d"] is True
        assert all(r["pass"] for r in rep["t3"]["per_hom"].values())
        assert not rep["pass"]

    def test_hom_parity_vanishing(self):
        for n in range(5):
            for m in range(5):
                dim = len(enumerate_diagrams("brauer", n, m))
                assert (dim == 0) == ((n + m) % 2 == 1)


class TestAssociativityExhaustive:
    @pytest.mark.parametrize(
        "variant,max_size", [("brauer", 4), ("partition", 3), ("degenerate", 3)]
    )
    def test_diagram_associativity(self, variant, max_size):
        sizes = range(max_size + 1)
        homs = {
            (x, y): enumerate_diagrams(variant, x, y)
            for x in sizes
            for y in sizes
        }
        index = {
            key: {d: i for i, d in enumerate(ds)} for key, ds in homs.items()
        }
        # memoize every pairwise product once as integer-indexed tables;
        # each triple then costs only list lookups
        tables = {}
        for (x, y), h1 in homs.items():
            for z in sizes:
                h2 = homs[(y, z)]
                if not h1 or not h2:
                    continue
                idx_out = index[(x, z)]
                tbl = []
                for bb in h2:
                    row = []
                    for a in h1:
                        res = compose(bb, a)
                        row.append(
                            None
                            if res.is_zero
                            else (res.closed_count, idx_out[res.result])
                        )
                    tbl.append(row)
                tables[(x, y, z)] = tbl
        for n in sizes:
            for m in sizes:
                for k in sizes:
                    if (n, m, k) not in tables:
                        continue
                    t_nmk = tables[(n, m, k)]
                    for l in sizes:
                        if (m, k, l) not in tables:
                            continue
                        t_mkl = tables[(m, k, l)]
                        t_nkl = tables[(n, k, l)]
                        t_nml = tables[(n, m, l)]
                        n_a = len(homs[(n, m)])
                        n_b = len(homs[(m, k)])
                        n_g = len(homs[(k, l)])
                        for ia in range(n_a):
                            for ib in range(n_b):
                                ba = t_nmk[ib][ia]
                                for ig in range(n_g):
                                    gb = t_mkl[ig][ib]
                                    if ba is None or gb is None:
                                        # zero propagation is a morphism-level
                                        # statement, tested separately below
                                        continue
                                    left = t_nkl[ig][ba[1]]
                                    right = t_nml[gb[1]][ia]
                                    if left is None or right is None:
                                        assert left is None and right is None
                                        continue
                                    assert (
                                        ba[0] + left[0] == gb[0] + right[0]
                                        and left[1] == right[1]
                                    )

    def test_degenerate_morphism_associativity(self):
        # zero propagation makes the diagram-level check above partial;
        # at the morphism level associativity must hold on the nose
        sizes = range(3)
        for n in sizes:
            for m in sizes:
                for k in sizes:
                    for l in sizes:
                        h1 = enumerate_diagrams("degenerate", n, m)
                        h2 = enumerate_diagrams("degenerate", m, k)
                        h3 = enumerate_diagrams("degenerate", k, l)
                        for a in h1:
                            fa = Morphism.from_diagram(a)
                            for bb in h2:
                                fb = Morphism.from_diagram(bb)
                                ba = morphism_compose(fb, fa)
                                for g in h3:
                                    fg = Morphism.from_diagram(g)
                                    lhs = morphism_compose(fg, ba)
                                    rhs = morphism_compose(
                                        morphism_compose(fg, fb), fa
                                    )
                                    assert lhs == rhs

    def test_degenerate_morphism_associativity_size_4(self):
        # zero products from block cycles of length four and more first
        # appear with four middle vertices; seeded random triples reach
        # them beyond the exhaustive range above
        sizes = range(5)
        homs = {
            (x, y): enumerate_diagrams("degenerate", x, y)
            for x in sizes
            for y in sizes
        }
        rng = random.Random(0)
        for _ in range(6000):
            n, m, k, l = (rng.choice(sizes) for _ in range(4))
            fa, fb, fg = (
                Morphism.from_diagram(rng.choice(homs[hom]))
                for hom in ((n, m), (m, k), (k, l))
            )
            lhs = morphism_compose(fg, morphism_compose(fb, fa))
            rhs = morphism_compose(morphism_compose(fg, fb), fa)
            assert lhs == rhs


class TestMonoidalInterchange:
    def test_interchange_small(self):
        from diagcat import disjoint_union

        for variant in ("brauer", "partition"):
            objs = range(4)
            quads = []
            for n1 in objs:
                for m1 in objs:
                    for n2 in range(4 - n1):
                        for m2 in range(4 - m1):
                            for k1 in objs:
                                for k2 in range(4 - k1):
                                    quads.append((n1, m1, k1, n2, m2, k2))
            for n1, m1, k1, n2, m2, k2 in quads:
                if n1 + n2 > 3 or m1 + m2 > 3 or k1 + k2 > 3:
                    continue
                h_a = enumerate_diagrams(variant, n1, m1)
                h_b = enumerate_diagrams(variant, m1, k1)
                h_a2 = enumerate_diagrams(variant, n2, m2)
                h_b2 = enumerate_diagrams(variant, m2, k2)
                if not (h_a and h_b and h_a2 and h_b2):
                    continue
                for alpha in h_a[:4]:
                    for beta in h_b[:4]:
                        for alpha2 in h_a2[:4]:
                            for beta2 in h_b2[:4]:
                                left = compose(
                                    disjoint_union(beta, beta2),
                                    disjoint_union(alpha, alpha2),
                                )
                                r1 = compose(beta, alpha)
                                r2 = compose(beta2, alpha2)
                                assert left.result == disjoint_union(
                                    r1.result, r2.result
                                )
                                assert (
                                    left.closed_count
                                    == r1.closed_count + r2.closed_count
                                )
