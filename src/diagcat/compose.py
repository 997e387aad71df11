"""Composition: `compose` is the one composer of every variant. It
stacks two diagrams, merges their parts through the middle row with a
union-find and counts the closed loops; then the operands' class adds
its rule: the sign of the oriented variant from the comparison functor,
the zero of the degenerate partition rule, or no loops for partial
injections.
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


def _glue(b_labels, mid, alphas):
    """Stack each alpha under one beta and merge their parts through the
    `mid` middle vertices: the kernel of `compose` and of the tables.

    The parts are a matching's edges or a partition's blocks, and the
    labels name the part at each vertex. Each alpha comes as `_glued`
    gives it, beta as its labels. A union-find over the parts (alpha's
    first, then beta's) joins the two parts at each middle vertex. The
    outer vertices b1..bn, t1..tp are then scanned and their roots
    numbered by first appearance, which gives the composite's labels.
    Returns, per alpha, (closed, labels, cyclic): the number of merged
    components without an outer vertex, the composite's labels, and
    whether some middle vertex joined two parts already connected.
    """
    b_mid, b_top = b_labels[:mid], b_labels[mid:]
    nb = max(b_labels) + 1 if b_labels else 0
    out = []
    for na, a_bottom, a_mid in alphas:
        parts = na + nb
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
        number = {}
        labels = []
        for x in a_bottom:
            while parent[x] != x:
                x = parent[x]
            labels.append(number.setdefault(x, len(number)))
        for x in b_top:
            x += na
            while parent[x] != x:
                x = parent[x]
            labels.append(number.setdefault(x, len(number)))
        # each join that finds its two parts already connected closes a cycle
        out.append((parts - joins - len(number), tuple(labels), mid > joins))
    return out


def _glued(alpha):
    """(part count, bottom labels, middle labels) of alpha, as `_glue` reads it."""
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
    [(closed, labels, cyclic)] = _glue(beta._labels, alpha.m, [_glued(alpha)])
    cls = type(alpha)
    result = cls._trusted(alpha.bottom, beta.top, labels)
    if cls is SignedBrauerDiagram:
        sign = epsilon_sign(alpha) * epsilon_sign(beta) * epsilon_sign(result)
        return CompositionResult(closed, result, -sign if closed % 2 else sign)
    if cls is DegeneratePartitionDiagram:
        return CompositionResult(closed, result, 1, cyclic)
    if cls is PartialInjection:
        return CompositionResult(0, result)
    return CompositionResult(closed, result)
