"""Composition: `compose` is the one composer of every variant. It
stacks two diagrams, merges their parts through the middle row with
`_merge`, scans the outer rows for the composite's labels and counts
the closed loops; then the operands' class adds its rule: the sign of
the oriented variant from the comparison functor, the zero of the
degenerate partition rule, or no loops for partial injections.

`_merge` is the one union-find of the package: the composition tables
of `algebra` run it once per alpha and middle row that a group of betas
shares, and read each composite as a bottom half plus a top half.
"""

from .chars import cycle_type
from .diagrams import (
    BrauerDiagram,
    DegeneratePartitionDiagram,
    PartialInjection,
    SignedBrauerDiagram,
)
from .errors import ColorMismatch, ShapeMismatch, VariantMismatch

_ROOTS = list(range(64))  # a fresh union-find of up to 64 parts is a slice of it


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


def _check(beta, alpha):
    """Refuse operands of two classes or with different middle rows."""
    cls = type(alpha)
    if type(beta) is not cls:
        raise VariantMismatch(
            f"cannot compose {type(beta).__name__} after {cls.__name__}"
        )
    if alpha.top != beta.bottom:
        if alpha.m != beta.n:
            raise ShapeMismatch(f"middle sizes differ: {alpha.m} vs {beta.n}")
        raise ColorMismatch(
            f"middle colorings differ: {alpha.top} vs {beta.bottom}"
        )


def _merge(na, a_mid, b_mid, parts):
    """Merge alpha's and beta's parts through the middle row: the one
    union-find of `compose` and of the composition tables.

    The parts are a matching's edges or a partition's blocks, and the
    labels name the part at each vertex; alpha's `na` parts come first
    and beta's follow, `parts` in all. At each middle vertex the part of
    alpha (`a_mid`) is joined to the part of beta (`b_mid`). Returns the
    parent list, whose roots name the merged components, and the number
    of joins; a middle vertex that joins no two parts closes a cycle.
    """
    parent = _ROOTS[:parts] if parts <= 64 else list(range(parts))
    joins = 0
    for x, y in zip(a_mid, b_mid):
        y += na
        while parent[x] != x:
            x = parent[x]
        while parent[y] != y:
            y = parent[y]
        if x != y:
            parent[y] = x
            joins += 1
    return parent, joins


def _glued(alpha):
    """(part count, bottom labels, middle labels) of alpha: what the
    composition tables read of an alpha, once for all the middle rows
    it is merged with."""
    n, labels = alpha.n, alpha._labels
    return max(labels) + 1 if labels else 0, labels[:n], labels[n:]


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
    # positions in the order b1..bn, tm..t1: the part labelled k sends
    # its smaller position to 2k + 1 and its larger one to 2k + 2
    n, labels = alpha.n, alpha._labels
    seen = set()
    images = []
    for label in labels[:n] + labels[n:][::-1]:
        images.append(2 * label + 2 if label in seen else 2 * label + 1)
        seen.add(label)
    # a permutation's sign is (-1)^(length - number of cycles)
    sign = -1 if (len(images) - len(cycle_type(images))) % 2 else 1
    # a flipped arrow points from the larger position to the smaller,
    # which swaps the two images of its edge, a transposition
    if len(alpha.flips) % 2:
        sign = -sign
    object.__setattr__(alpha, "_epsilon", sign)
    return sign


def phi_signed_to_brauer(alpha):
    """Forget orientations, attaching the comparison sign."""
    return epsilon_sign(alpha), BrauerDiagram._trusted(alpha.n, alpha.m, alpha._labels)


def compose(beta, alpha):
    """beta after alpha, by the rule of their class.

    The operands must share a class and a middle row. Their parts are
    merged through the middle, and then:
    - an oriented result carries the reference orientations, and its
      sign comes from the comparison functor to the plain category at
      negated parameter: eps(beta o alpha) at d equals eps(beta) o
      eps(alpha) at -d, so the sign is
      eps(alpha) * eps(beta) * eps(result) * (-1)**closed;
    - under the degenerate partition rule the product is zero when the
      blocks of alpha and beta, joined at the middle vertices, contain a
      cycle;
    - partial injections compose as partial functions and count no
      loops: a middle vertex neither operand maps is a part of its own.
    """
    _check(beta, alpha)
    n, mid = alpha.n, alpha.m
    a_labels, b_labels = alpha._labels, beta._labels
    na = max(a_labels) + 1 if a_labels else 0
    parts = na + max(b_labels) + 1 if b_labels else na
    parent, joins = _merge(na, a_labels[n:], b_labels[:mid], parts)
    # the outer vertices b1..bn, t1..tp, their roots numbered by first
    # appearance, give the composite's labels
    number = {}
    labels = []
    for x in a_labels[:n]:
        while parent[x] != x:
            x = parent[x]
        labels.append(number.setdefault(x, len(number)))
    for x in b_labels[mid:]:
        x += na
        while parent[x] != x:
            x = parent[x]
        labels.append(number.setdefault(x, len(number)))
    # the merged components without an outer vertex are closed loops
    closed = parts - joins - len(number)
    cls = type(alpha)
    result = cls._trusted(alpha.bottom, beta.top, tuple(labels))
    if cls is SignedBrauerDiagram:
        sign = epsilon_sign(alpha) * epsilon_sign(beta) * epsilon_sign(result)
        return CompositionResult(closed, result, -sign if closed % 2 else sign)
    if cls is DegeneratePartitionDiagram:
        return CompositionResult(closed, result, 1, mid > joins)
    if cls is PartialInjection:
        return CompositionResult(0, result)
    return CompositionResult(closed, result)
