"""Property tests past the exhaustive range: planar, degenerate and
plain diagrams, signed diagrams against plain ones, the monoidal
interchange law, and morphisms with coefficients a + b*d, on objects of
size 5 to 8, drawn by hypothesis from a fixed seed so that every run
checks the same examples."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagcat import (
    BrauerDiagram,
    DegeneratePartitionDiagram,
    DeltaPoly,
    Morphism,
    PartitionDiagram,
    SignedBrauerDiagram,
    TemperleyLiebDiagram,
    compose,
    disjoint_union,
    is_planar,
    morphism_compose,
    morphism_transpose,
    phi_signed_to_brauer,
    transpose,
)
from helpers import partition_compose_oracle, poly_add, poly_mul

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def sizes(draw, count, same_parity):
    """`count` object sizes from 5 to 8; with same_parity, all of the
    parity of the first, so that matchings exist between them."""
    first = draw(st.integers(5, 8))
    pool = [s for s in range(5, 9) if not same_parity or (s - first) % 2 == 0]
    return [first] + [draw(st.sampled_from(pool)) for _ in range(count - 1)]


@st.composite
def planar_diagrams(draw, n, m):
    """A noncrossing matching: the first point of an arc pairs with a
    point at odd distance, and the arcs inside and outside that edge
    are matched the same way."""
    order = [(0, i) for i in range(1, n + 1)] + [(1, i) for i in range(m, 0, -1)]
    edges = []
    arcs = [order]
    while arcs:
        arc = arcs.pop()
        if arc:
            j = 2 * draw(st.integers(0, len(arc) // 2 - 1)) + 1
            edges.append((arc[0], arc[j]))
            arcs += [arc[1:j], arc[j + 1 :]]
    return TemperleyLiebDiagram(n, m, edges)


@st.composite
def degenerate_diagrams(draw, n, m, cls=DegeneratePartitionDiagram):
    """A set partition of the n + m vertices: each vertex draws one of
    k block labels, with k at least half the number of vertices, so that
    zero and nonzero products both occur often."""
    vertices = [(0, i) for i in range(1, n + 1)] + [(1, i) for i in range(1, m + 1)]
    k = draw(st.integers(len(vertices) // 2, len(vertices)))
    label = st.integers(0, k - 1)
    labels = draw(st.lists(label, min_size=len(vertices), max_size=len(vertices)))
    parts = {}
    for v, label in zip(vertices, labels):
        parts.setdefault(label, []).append(v)
    return cls(n, m, list(parts.values()))


@st.composite
def diagrams(draw, variant, n, m):
    """A partition, or a perfect matching of the n + m vertices; a
    signed matching orients each horizontal edge at random."""
    if variant == "partition":
        return draw(degenerate_diagrams(n, m, PartitionDiagram))
    vertices = [(0, i) for i in range(1, n + 1)] + [(1, i) for i in range(1, m + 1)]
    order = draw(st.permutations(vertices))
    edges = list(zip(order[::2], order[1::2]))
    if variant == "brauer":
        return BrauerDiagram(n, m, edges)
    arrows = [e if draw(st.booleans()) else e[::-1] for e in edges if e[0][0] == e[1][0]]
    return SignedBrauerDiagram(n, m, edges, arrows)


COEFFICIENTS = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def morphisms(draw, variant, n, m):
    """One to three diagrams, each with a coefficient a + b*d, b != 0."""
    out = Morphism.zero(variant, n, m)
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(COEFFICIENTS), draw(COEFFICIENTS.filter(bool))
        out = out + Morphism.from_diagram(draw(diagrams(variant, n, m)), DeltaPoly([a, b]))
    return out


def composable(draw, variant, count):
    """`count` morphisms, each one's target the next one's source."""
    objects = draw(sizes(count + 1, same_parity=variant != "partition"))
    return [draw(morphisms(variant, a, b)) for a, b in zip(objects, objects[1:])]


def oracle_compose(g, f):
    """g o f term by term, with coefficients as tuples of Fractions: each
    pair of terms gives cf * cg * sign * d**closed on its composite. The
    composite of matchings and partitions is read off the stacked graph;
    a signed composite and its sign come from the diagram engine."""
    terms = {}
    for df, cf in f.terms.items():
        for dg, cg in g.terms.items():
            if isinstance(df, SignedBrauerDiagram):
                res = compose(dg, df)
                diagram, closed, sign = res.result, res.closed_count, res.sign
            else:
                blocks, closed, _ = partition_compose_oracle(dg, df)
                diagram, sign = type(df)(df.n, dg.m, blocks), 1
            c = poly_mul(poly_mul(cf.coeffs, cg.coeffs), (0,) * closed + (sign,))
            terms[diagram] = poly_add(terms.get(diagram, ()), c)
    return {d: c for d, c in terms.items() if c}


def _planar_tl(d):
    return type(d) is TemperleyLiebDiagram and is_planar(d)


@SEEDED
@given(st.data())
def test_temperley_lieb_operations_stay_planar(data):
    n, m, k = data.draw(sizes(3, same_parity=True))
    alpha = data.draw(planar_diagrams(n, m))
    beta = data.draw(planar_diagrams(m, k))
    assert _planar_tl(compose(beta, alpha).result)
    assert _planar_tl(transpose(alpha))
    assert _planar_tl(disjoint_union(alpha, beta))


@SEEDED
@given(st.data())
def test_temperley_lieb_composes_as_brauer(data):
    n, m, k = data.draw(sizes(3, same_parity=True))
    alpha = data.draw(planar_diagrams(n, m))
    beta = data.draw(planar_diagrams(m, k))
    planar = compose(beta, alpha)
    plain = compose(BrauerDiagram(m, k, beta.edges), BrauerDiagram(n, m, alpha.edges))
    assert planar.result.edges == plain.result.edges
    assert planar.closed_count == plain.closed_count


@SEEDED
@given(st.data())
def test_degenerate_products_associative(data):
    n, m, k, l = data.draw(sizes(4, same_parity=False))
    alpha = data.draw(degenerate_diagrams(n, m))
    beta = data.draw(degenerate_diagrams(m, k))
    gamma = data.draw(degenerate_diagrams(k, l))
    ba = compose(beta, alpha)
    left = compose(gamma, ba.result)
    gb = compose(gamma, beta)
    right = compose(gb.result, alpha)
    # a zero factor makes the whole product zero, on either side
    zero = ba.is_zero or left.is_zero
    assert zero == (gb.is_zero or right.is_zero)
    if not zero:
        assert left.result == right.result
        closed = ba.closed_count + left.closed_count
        assert closed == gb.closed_count + right.closed_count


@pytest.mark.parametrize("variant", ["brauer", "partition", "signed"])
@SEEDED
@given(data=st.data())
def test_morphism_compose_against_oracle(variant, data):
    f, g = composable(data.draw, variant, 2)
    got = {d: c.coeffs for d, c in morphism_compose(g, f).terms.items()}
    assert got == oracle_compose(g, f)


@pytest.mark.parametrize("variant", ["brauer", "partition", "signed"])
@SEEDED
@given(data=st.data())
def test_morphism_compose_associative(variant, data):
    f, g, h = composable(data.draw, variant, 3)
    left = morphism_compose(h, morphism_compose(g, f))
    assert left == morphism_compose(morphism_compose(h, g), f)


@pytest.mark.parametrize("variant", ["brauer", "partition"])
@SEEDED
@given(data=st.data())
def test_morphism_transpose_contravariant(variant, data):
    f, g = composable(data.draw, variant, 2)
    left = morphism_transpose(morphism_compose(g, f))
    assert left == morphism_compose(morphism_transpose(f), morphism_transpose(g))


@pytest.mark.parametrize("variant", ["brauer", "partition"])
@SEEDED
@given(data=st.data())
def test_interchange(variant, data):
    """(b (x) b2) o (a (x) a2) == (b o a) (x) (b2 o a2), the loop counts
    adding, for a: n -> m, b: m -> k and a2: n2 -> m2, b2: m2 -> k2."""
    same_parity = variant != "partition"
    n, m, k = data.draw(sizes(3, same_parity))
    n2, m2, k2 = data.draw(sizes(3, same_parity))
    a, b = data.draw(diagrams(variant, n, m)), data.draw(diagrams(variant, m, k))
    a2, b2 = data.draw(diagrams(variant, n2, m2)), data.draw(diagrams(variant, m2, k2))
    left = compose(disjoint_union(b, b2), disjoint_union(a, a2))
    first, second = compose(b, a), compose(b2, a2)
    assert left.result == disjoint_union(first.result, second.result)
    assert left.closed_count == first.closed_count + second.closed_count


@SEEDED
@given(data=st.data())
def test_signed_against_plain_at_minus_d(data):
    """phi(b o a) at d equals phi(b) o phi(a) at -d: the composites
    forget to the same plain diagram with the same loop count, and
    sign * eps(result) == eps(a) * eps(b) * (-1)**closed."""
    n, m, k = data.draw(sizes(3, same_parity=True))
    a = data.draw(diagrams("signed", n, m))
    b = data.draw(diagrams("signed", m, k))
    signed = compose(b, a)
    eps_result, plain_result = phi_signed_to_brauer(signed.result)
    eps_a, plain_a = phi_signed_to_brauer(a)
    eps_b, plain_b = phi_signed_to_brauer(b)
    plain = compose(plain_b, plain_a)
    assert plain_result == plain.result
    assert signed.closed_count == plain.closed_count
    assert signed.sign * eps_result == eps_a * eps_b * (-1) ** plain.closed_count
