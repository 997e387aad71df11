"""Property tests past the exhaustive range: planar and degenerate
diagrams on objects of size 5 to 8, drawn by hypothesis from a fixed
seed so that every run checks the same examples."""

from hypothesis import given, settings
from hypothesis import strategies as st

from diagcat import (
    BrauerDiagram,
    DegeneratePartitionDiagram,
    TemperleyLiebDiagram,
    compose,
    disjoint_union,
    is_planar,
    transpose,
)

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
def degenerate_diagrams(draw, n, m):
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
    return DegeneratePartitionDiagram(n, m, list(parts.values()))


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
