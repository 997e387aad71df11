"""Composition engines: stack two diagrams, trace the middle row,
count closed loops, and track signs for the oriented variant.
"""

from .diagrams import (
    BOTTOM,
    TOP,
    BrauerDiagram,
    PartialInjection,
    PartitionDiagram,
    SignedBrauerDiagram,
    WalledBrauerDiagram,
    canonical_arrow,
)
from .errors import ColorMismatch, ShapeMismatch


class CompositionResult:
    """Outcome of composing beta after alpha.

    closed_count is the number of connected components of the stacked
    graph supported entirely on the middle row; sign is +1 except for
    the oriented variant; is_zero only arises for the degenerate
    partition rule.
    """

    __slots__ = ("closed_count", "result", "sign", "is_zero")

    def __init__(self, closed_count, result, sign=1, is_zero=False):
        self.closed_count = closed_count
        self.result = result
        self.sign = sign
        self.is_zero = is_zero

    def __repr__(self):
        if self.is_zero:
            return "<CompositionResult 0>"
        return (
            f"<CompositionResult d^{self.closed_count} * {self.sign} * "
            f"{self.result.to_text()}>"
        )


def _middle_links(alpha, beta):
    """Adjacency of the stacked graph seen from the middle row.

    Returns (a_link, b_link, direct): a_link[t] describes the alpha
    edge at middle vertex t as ('S', i), ('mid', t2) or None; b_link
    likewise with ('U', i). direct collects alpha's bottom horizontals
    and beta's top horizontals, which pass straight to the result.
    """
    mid = alpha.m
    a_link = [None] * (mid + 1)
    b_link = [None] * (mid + 1)
    direct = []
    for a, b in alpha.edges:
        if a[0] == BOTTOM and b[0] == BOTTOM:
            direct.append(((BOTTOM, a[1]), (BOTTOM, b[1])))
        elif a[0] == TOP and b[0] == TOP:
            a_link[a[1]] = ("mid", b[1])
            a_link[b[1]] = ("mid", a[1])
        else:
            bot, top = (a, b) if a[0] == BOTTOM else (b, a)
            a_link[top[1]] = ("S", bot[1])
    for a, b in beta.edges:
        if a[0] == BOTTOM and b[0] == BOTTOM:
            b_link[a[1]] = ("mid", b[1])
            b_link[b[1]] = ("mid", a[1])
        elif a[0] == TOP and b[0] == TOP:
            direct.append(((TOP, a[1]), (TOP, b[1])))
        else:
            bot, top = (a, b) if a[0] == BOTTOM else (b, a)
            b_link[bot[1]] = ("U", top[1])
    return a_link, b_link, direct


def _trace(alpha, beta):
    """Walk all paths and cycles of the stacked graph.

    Returns (edges, cycles, paths) where edges are the result edges,
    cycles is the list of middle cycles (as lists of traversal steps)
    and paths maps each traced result edge to its traversal steps.
    A step is (side, frm, to) recording a traversed middle horizontal
    edge of alpha ('a') or beta ('b').
    """
    mid = alpha.m
    a_link, b_link, direct = _middle_links(alpha, beta)
    visited = [False] * (mid + 1)
    edges = list(direct)
    paths = {}
    cycles = []

    def walk(start_mid, from_side, steps):
        # returns the endpoint ('S'|'U', index) reached from start_mid
        t = start_mid
        side = from_side
        while True:
            visited[t] = True
            link = b_link[t] if side == "a" else a_link[t]
            tag = link[0]
            if tag == "mid":
                t2 = link[1]
                steps.append(("b" if side == "a" else "a", t, t2))
                t = t2
                side = "b" if side == "a" else "a"
            else:
                return (tag, link[1])

    for i in range(1, mid + 1):
        if visited[i] or a_link[i][0] != "S":
            continue
        steps = []
        start = ("S", a_link[i][1])
        visited[i] = True
        end = walk(i, "a", steps)
        key = _edge_from_endpoints(start, end)
        edges.append(key)
        paths[key] = (start, steps)
    for i in range(1, mid + 1):
        if visited[i] or b_link[i][0] != "U":
            continue
        steps = []
        start = ("U", b_link[i][1])
        visited[i] = True
        end = walk(i, "b", steps)
        key = _edge_from_endpoints(start, end)
        edges.append(key)
        paths[key] = (start, steps)
    for i in range(1, mid + 1):
        if visited[i]:
            continue
        # middle cycle: walk until we come back
        steps = []
        t, side = i, "b"  # pretend we arrived via beta, leave via alpha
        while True:
            visited[t] = True
            link = a_link[t] if side == "b" else b_link[t]
            t2 = link[1]
            steps.append(("a" if side == "b" else "b", t, t2))
            side = "a" if side == "b" else "b"
            t = t2
            if t == i and side == "b":
                break
        cycles.append(steps)
    return edges, cycles, paths


def _edge_from_endpoints(start, end):
    va = (BOTTOM if start[0] == "S" else TOP, start[1])
    vb = (BOTTOM if end[0] == "S" else TOP, end[1])
    return (va, vb) if va <= vb else (vb, va)


def compose_brauer(beta, alpha):
    """beta after alpha in the matching family (plain, walled, planar)."""
    if isinstance(beta, WalledBrauerDiagram) or isinstance(
        alpha, WalledBrauerDiagram
    ):
        if not (
            isinstance(beta, WalledBrauerDiagram)
            and isinstance(alpha, WalledBrauerDiagram)
        ):
            raise ShapeMismatch("cannot mix walled and plain diagrams")
        if alpha.m != beta.n:
            raise ShapeMismatch(
                f"middle sizes differ: {alpha.m} vs {beta.n}"
            )
        if alpha.top_colors != beta.bottom_colors:
            raise ColorMismatch(
                f"middle colorings differ: {alpha.top_colors} vs {beta.bottom_colors}"
            )
        edges, cycles, _ = _trace(alpha, beta)
        result = WalledBrauerDiagram._trusted(
            alpha.bottom_colors, beta.top_colors, tuple(sorted(edges))
        )
        return CompositionResult(len(cycles), result)
    if alpha.m != beta.n:
        raise ShapeMismatch(f"middle sizes differ: {alpha.m} vs {beta.n}")
    edges, cycles, _ = _trace(alpha, beta)
    result = BrauerDiagram._trusted(alpha.n, beta.m, tuple(sorted(edges)))
    return CompositionResult(len(cycles), result)


def compose_partition(beta, alpha, degenerate=False):
    """beta after alpha by merging touching blocks through the middle.

    Every middle vertex lies in one block of alpha and one block of
    beta; a union-find over the blocks (alpha's labels first, then
    beta's) joins that pair at each middle vertex. Outer vertices are
    then collected by scanning b1..bn and t1..tp, which yields the
    blocks already in canonical order. Merged components without an
    outer vertex are the closed ones.
    """
    if alpha.m != beta.n:
        raise ShapeMismatch(f"middle sizes differ: {alpha.m} vs {beta.n}")
    n, mid, p = alpha.n, alpha.m, beta.m
    a_labels, b_labels = alpha.labels(), beta.labels()

    # union-find over block labels, beta's shifted past alpha's
    na = len(alpha.blocks)
    parent = list(range(na + len(beta.blocks)))
    components = len(parent)
    for x, y in zip(a_labels[n:], b_labels[:mid]):
        y += na
        while parent[x] != x:
            x = parent[x]
        while parent[y] != y:
            y = parent[y]
        if x != y:
            parent[y] = x
            components -= 1
    # a middle vertex that joins two blocks already connected closes a
    # cycle of blocks, which the degenerate rule sends to zero
    is_zero = degenerate and mid > len(parent) - components

    blocks = []
    block_at = {}
    outer = ((BOTTOM, a_labels[:n], 0), (TOP, b_labels[mid:], na))
    for row, labels, shift in outer:
        for i, label in enumerate(labels, 1):
            root = label + shift
            while parent[root] != root:
                root = parent[root]
            block = block_at.get(root)
            if block is None:
                block = block_at[root] = []
                blocks.append(block)
            block.append((row, i))
    result = PartitionDiagram._trusted(n, p, tuple(map(tuple, blocks)))
    return CompositionResult(components - len(blocks), result, is_zero=is_zero)


def compose_signed(beta, alpha):
    """beta after alpha with orientation bookkeeping.

    Inputs may carry any orientations; they are first rewritten to the
    reference orientation (folding a sign). Each traced component then
    contributes (-1)**(flips + h//2) where h is the number of oriented
    edges in the component and flips counts edges traversed against
    their arrow; the traversal direction of a component whose result
    edge is horizontal follows that edge's reference orientation. The
    convention is pinned down by the functor to the plain category at
    negated parameter and by the symplectic tensor action.
    """
    if alpha.m != beta.n:
        raise ShapeMismatch(f"middle sizes differ: {alpha.m} vs {beta.n}")
    s_a, alpha = alpha.canonicalize()
    s_b, beta = beta.canonicalize()
    sign = s_a * s_b

    arrow_of = {}
    for tail, head in alpha.arrows:
        if tail[0] == TOP:  # middle horizontal contributed by alpha
            arrow_of[("a", frozenset((tail[1], head[1])))] = (tail[1], head[1])
    for tail, head in beta.arrows:
        if tail[0] == BOTTOM:
            arrow_of[("b", frozenset((tail[1], head[1])))] = (tail[1], head[1])

    edges, cycles, paths = _trace(alpha, beta)

    def component_sign(steps, reverse=False):
        if reverse:
            steps = [(side, t2, t1) for side, t1, t2 in reversed(steps)]
        flips = 0
        for side, t1, t2 in steps:
            if arrow_of[(side, frozenset((t1, t2)))] != (t1, t2):
                flips += 1
        return -1 if (flips + len(steps) // 2) % 2 else 1

    n, p = alpha.n, beta.m
    result_arrows = []
    for key, (start, steps) in paths.items():
        va, vb = key
        if va[0] == vb[0]:
            result_arrows.append(canonical_arrow(key, n, p))
            if steps:
                # traversal must start at the result arrow's tail
                tail = canonical_arrow(key, n, p)[0]
                started_at = (BOTTOM if start[0] == "S" else TOP, start[1])
                sign *= component_sign(steps, reverse=started_at != tail)
        elif steps:
            sign *= component_sign(steps)
    for cyc in cycles:
        sign *= component_sign(cyc)

    # alpha's bottom and beta's top horizontals keep their (reference)
    # orientations; their endpoints are unchanged by composition
    for tail, head in alpha.arrows:
        if tail[0] == BOTTOM:
            result_arrows.append((tail, head))
    for tail, head in beta.arrows:
        if tail[0] == TOP:
            result_arrows.append((tail, head))

    result = SignedBrauerDiagram._trusted(
        n, p, tuple(sorted(edges)), tuple(sorted(result_arrows))
    )
    return CompositionResult(len(cycles), result, sign=sign)


def compose_fisharp(beta, alpha, allow_non_injective=False):
    """Partial injections composed as partial functions.

    With allow_non_injective the same engine composes arbitrary
    partial (in particular total) maps.
    """
    if alpha.m != beta.n:
        raise ShapeMismatch(f"middle sizes differ: {alpha.m} vs {beta.n}")
    b = beta.as_dict()
    pairs = [(s, b[t]) for s, t in alpha.pairs if t in b]
    result = PartialInjection(
        alpha.n, beta.m, pairs, allow_non_injective=allow_non_injective
    )
    return CompositionResult(0, result)


def epsilon_sign(alpha):
    """Sign comparing the induced oriented matching to the standard one.

    The diagram is transferred to a single row via the bijection that
    keeps the bottom fixed and writes the top in reverse after it;
    former vertical edges point from smaller to larger position. The
    result is the sign of any permutation carrying the transferred
    matching to (1->2)(3->4)..., which is well defined because the
    stabilizer of the standard oriented matching is even.
    """
    n, m = alpha.n, alpha.m

    def pos(v):
        row, i = v
        return i if row == BOTTOM else n + m + 1 - i

    oriented = []
    arrows = {frozenset(a): a for a in alpha.arrows}
    for a, b in alpha.edges:
        arrow = arrows.get(frozenset((a, b)))
        if arrow is not None:
            oriented.append((pos(arrow[0]), pos(arrow[1])))
        else:
            x, y = pos(a), pos(b)
            oriented.append((x, y) if x < y else (y, x))
    perm = [0] * (n + m + 1)
    for k, (a, b) in enumerate(oriented):
        perm[a] = 2 * k + 1
        perm[b] = 2 * k + 2
    return _perm_sign(perm[1:])


def _perm_sign(images):
    # images is a permutation of 1..len(images)
    seen = [False] * (len(images) + 1)
    sign = 1
    for i in range(1, len(images) + 1):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = images[j - 1]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def phi_signed_to_brauer(alpha):
    """Forget orientations, attaching the comparison sign."""
    return epsilon_sign(alpha), BrauerDiagram(alpha.n, alpha.m, alpha.edges)


def compose(beta, alpha, degenerate=False):
    """Variant dispatch for single-diagram composition."""
    if isinstance(alpha, SignedBrauerDiagram):
        return compose_signed(beta, alpha)
    if isinstance(alpha, PartitionDiagram):
        return compose_partition(beta, alpha, degenerate=degenerate)
    if isinstance(alpha, PartialInjection):
        return compose_fisharp(beta, alpha)
    return compose_brauer(beta, alpha)
