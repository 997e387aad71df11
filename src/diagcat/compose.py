"""Composition: stack two diagrams, merge their parts through the
middle row with a union-find, count closed loops, and take the sign of
the oriented variant from the comparison functor.
"""

from .diagrams import (
    BOTTOM,
    TOP,
    BrauerDiagram,
    DegeneratePartitionDiagram,
    PartialInjection,
    PartitionDiagram,
    SignedBrauerDiagram,
    TemperleyLiebDiagram,
    WalledBrauerDiagram,
)
from .errors import ColorMismatch, ShapeMismatch, VariantMismatch


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


# the classes each per-variant composer accepts
_MATCHINGS = (BrauerDiagram, TemperleyLiebDiagram, WalledBrauerDiagram)
_PARTITIONS = (PartitionDiagram, DegeneratePartitionDiagram)


def _check(beta, alpha, accepts):
    """Refuse operands of two classes, of a class outside `accepts`, or
    with different middle rows."""
    cls = type(alpha)
    if type(beta) is not cls:
        raise VariantMismatch(
            f"cannot compose {type(beta).__name__} after {cls.__name__}"
        )
    if cls not in accepts:
        names = ", ".join(c.__name__ for c in accepts)
        raise VariantMismatch(f"expected one of {names}, not {cls.__name__}")
    if alpha.top != beta.bottom:
        if alpha.m != beta.n:
            raise ShapeMismatch(f"middle sizes differ: {alpha.m} vs {beta.n}")
        raise ColorMismatch(
            f"middle colorings differ: {alpha.top} vs {beta.bottom}"
        )


def _glue(beta, alpha, accepts):
    """Stack alpha under beta and merge their parts through the middle.

    The parts are a matching's edges or a partition's blocks, and
    `labels()` names the part at each vertex. Every middle vertex lies
    in one part of alpha and one part of beta; a union-find over the
    parts (alpha's labels first, then beta's) joins that pair at each
    middle vertex. Outer vertices are then collected by scanning
    b1..bn and t1..tp, which yields the blocks already in canonical
    order; for matchings they are the sorted edges. Returns
    (closed, blocks, cyclic): the merged components without an outer
    vertex, the outer blocks, and whether some middle vertex joined
    two parts that were already connected. Operands are checked
    against `accepts` first.
    """
    _check(beta, alpha, accepts)
    na, nb = len(alpha.parts), len(beta.parts)
    n, mid = alpha.n, alpha.m
    a_labels, b_labels = alpha.labels(), beta.labels()

    parent = list(range(na + nb))
    components = na + nb
    for x, y in zip(a_labels[n:], b_labels[:mid]):
        y += na
        while parent[x] != x:
            x = parent[x]
        while parent[y] != y:
            y = parent[y]
        if x != y:
            parent[y] = x
            components -= 1
    # each join that finds its two parts already connected closes a cycle
    cyclic = mid > na + nb - components

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
    return components - len(blocks), tuple(map(tuple, blocks)), cyclic


def compose_brauer(beta, alpha):
    """beta after alpha in the matching family (plain, walled, planar)."""
    closed, edges, _ = _glue(beta, alpha, _MATCHINGS)
    result = type(alpha)._trusted(alpha.bottom, beta.top, edges)
    return CompositionResult(closed, result)


def compose_partition(beta, alpha):
    """beta after alpha by merging touching blocks through the middle.

    The degenerate rule, which applies to DegeneratePartitionDiagram
    operands, sends the product to zero when the blocks of alpha and
    beta, joined at the middle vertices, contain a cycle.
    """
    closed, blocks, cyclic = _glue(beta, alpha, _PARTITIONS)
    result = type(alpha)._trusted(alpha.n, beta.m, blocks)
    zero = cyclic and type(alpha) is DegeneratePartitionDiagram
    return CompositionResult(closed, result, is_zero=zero)


def compose_signed(beta, alpha):
    """beta after alpha in the oriented variant.

    Inputs may carry any orientations; the result carries the reference
    ones. The sign comes from the comparison functor to the plain
    category at negated parameter: eps(beta o alpha) at d equals
    eps(beta) o eps(alpha) at -d, so
    sign = eps(alpha) * eps(beta) * eps(result) * (-1)**closed.
    """
    closed, edges, _ = _glue(beta, alpha, (SignedBrauerDiagram,))
    # in the reference orientation bottom arrows point right, top ones left
    arrows = sorted(
        (x, y) if x[0] == BOTTOM else (y, x) for x, y in edges if x[0] == y[0]
    )
    result = SignedBrauerDiagram._trusted(alpha.n, beta.m, edges, tuple(arrows))
    sign = epsilon_sign(alpha) * epsilon_sign(beta) * epsilon_sign(result)
    return CompositionResult(closed, result, sign=-sign if closed % 2 else sign)


def compose_fisharp(beta, alpha):
    """Partial injections composed as partial functions."""
    _check(beta, alpha, (PartialInjection,))
    b = beta.as_dict()
    # alpha's pairs are sorted by source, so the composite's are too
    pairs = tuple((s, b[t]) for s, t in alpha.pairs if t in b)
    return CompositionResult(0, PartialInjection._trusted(alpha.n, beta.m, pairs))


def epsilon_sign(alpha):
    """Sign comparing the induced oriented matching to the standard one.

    The diagram is transferred to a single row via the bijection that
    keeps the bottom fixed and writes the top in reverse after it;
    former vertical edges point from smaller to larger position. The
    result is the sign of any permutation carrying the transferred
    matching to (1->2)(3->4)..., which is well defined because the
    stabilizer of the standard oriented matching is even. Computed
    once and kept on the value.
    """
    if type(alpha) is not SignedBrauerDiagram:
        raise VariantMismatch(
            f"epsilon_sign takes a SignedBrauerDiagram, not {type(alpha).__name__}"
        )
    try:
        return alpha._epsilon
    except AttributeError:
        pass
    n, m = alpha.n, alpha.m
    last = n + m + 1
    perm = [0] * last
    # edges are sorted pairs, so only a top horizontal lists its
    # larger position first
    for k, ((r1, i1), (r2, i2)) in enumerate(alpha.edges):
        if r1 == TOP:
            x, y = last - i2, last - i1
        else:
            x, y = i1, i2 if r2 == BOTTOM else last - i2
        perm[x] = 2 * k + 1
        perm[y] = 2 * k + 2
    sign = _perm_sign(perm[1:])
    # an arrow pointing from larger to smaller position swaps the two
    # images of its edge, a transposition
    for (row, i), (_, j) in alpha.arrows:
        if (i > j) == (row == BOTTOM):
            sign = -sign
    object.__setattr__(alpha, "_epsilon", sign)
    return sign


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


def compose(beta, alpha):
    """Single-diagram composition by the rule of alpha's class."""
    if isinstance(alpha, SignedBrauerDiagram):
        return compose_signed(beta, alpha)
    if isinstance(alpha, PartitionDiagram):
        return compose_partition(beta, alpha)
    if isinstance(alpha, PartialInjection):
        return compose_fisharp(beta, alpha)
    return compose_brauer(beta, alpha)
