"""Tautological matrix functors: realize diagrams as exact matrices on
tensor-power bases and verify functoriality against the composition
engine.

Matrices act on pure-tensor bases ordered lexicographically with the
first factor most significant. They are stored column-sparse with
Python `int` or `Fraction` entries. The functoriality sweep scales
them to integers and packs each column into one Python int, an entry
to a field whose width is chosen from a bound on every product entry,
so that one big-int product covers an alpha and every beta at once;
products stay exact, and they are compared with their expected values
byte for byte, never by hash.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from numbers import Rational

from .algebra import _hom_size, composition_table, hom_basis
from .diagrams import (
    BOTTOM,
    TOP,
    SignedBrauerDiagram,
    check_nonnegative,
    enumerate_diagrams,
    is_downwards,
    variant_class,
)
from .errors import (
    DimensionBudgetExceeded,
    InvalidParameter,
    ShapeMismatch,
    UnsupportedVariant,
    VariantMismatch,
)
from .linear import Morphism, morphism_compose

ROW_BUDGET = 4096
# Walled size 5 (123,483 pairs) was measured at 3.6 s at dim 2, while
# temperley_lieb size 7 (464,174) did not finish in 300 s and brauer
# size 5 (1,165,230) took 17.7 s at dim 1.
PAIR_BUDGET = 200_000

TAUT_VARIANTS = ("brauer", "walled", "partition", "temperley_lieb", "signed")


class TautContext:
    """Parameters of a tautological functor.

    dim is the underlying space dimension (per color for walled, even
    for signed), a non-negative integral number read as an int; the
    loop parameter is dim except for the planar variant, where it is
    -q - 1/q for a chosen nonzero rational q (an int or a Fraction).
    Any other dim or q is refused up front with `InvalidParameter`.

    cap and cup are the forms a bottom-only and a top-only part
    evaluate: dicts from the labels of the part's vertices, in order,
    to a nonzero weight. None stands for the diagonal form, which
    weighs every constant labelling 1 and holds for parts of any size;
    through parts always carry it.
    """

    __slots__ = ("variant", "dim", "q", "parameter", "cap", "cup")

    def __init__(self, variant, dim=None, q=None):
        if variant not in TAUT_VARIANTS:
            raise UnsupportedVariant.of("the tautological functor", variant, TAUT_VARIANTS)
        cap = cup = None
        if variant == "temperley_lieb":
            if not isinstance(q, Rational | None):
                raise InvalidParameter(f"q {q!r} is not a rational number")
            q = Fraction(q if q is not None else 1)
            if q == 0:
                raise InvalidParameter("q must be nonzero")
            dim = 2
            parameter = -q - 1 / q
            cap = {(0, 1): -1 / q, (1, 0): 1}
            cup = {(0, 1): 1, (1, 0): -q}
        else:
            try:
                [dim] = check_nonnegative("dim", dim)
            except ShapeMismatch:
                raise InvalidParameter("dim must be a non-negative integer") from None
            if variant == "signed":
                if dim % 2 != 0:
                    raise InvalidParameter("the oriented variant needs even dimension")
                cap = cup = _form_entries(dim)
            q = None
            parameter = dim
        self.variant = variant
        self.dim = dim
        self.q = q
        self.parameter = parameter
        self.cap = cap
        self.cup = cup


class RationalMatrix:
    """Exact matrix stored by columns: column j is a dict from row index
    to an `int` or `Fraction`. Absent entries are zero."""

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows, cols, columns):
        if len(columns) != cols:
            raise ValueError(f"{len(columns)} columns given for {cols}")
        self.rows = rows
        self.cols = cols
        self.columns = columns

    @property
    def entries(self):
        """Dense row-major view with `Fraction` entries."""
        dense = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                dense[i][j] = Fraction(v)
        return dense

    def __repr__(self):
        return f"<RationalMatrix {self.rows}x{self.cols}>"


def _check_budget(dim, size):
    """Refuse tensor powers of dimension dim with more than ROW_BUDGET rows."""
    # 2 ** ROW_BUDGET.bit_length() > ROW_BUDGET: capping the exponent
    # there keeps the verdict without computing a huge power
    if dim ** min(size, ROW_BUDGET.bit_length()) > ROW_BUDGET:
        raise DimensionBudgetExceeded(f"{dim}^{size} exceeds the row budget {ROW_BUDGET}")


def _check_variant(ctx, d):
    if type(d) is not variant_class(ctx.variant):
        raise VariantMismatch(f"{type(d).__name__} under a {ctx.variant} context")


def taut_matrix(ctx, d):
    """The exact matrix of the diagram's action on tensor powers."""
    _check_variant(ctx, d)
    _check_budget(ctx.dim, max(d.n, d.m))
    return _matrix(ctx, d)


def _form_entries(p):
    """Nonzero entries of the antisymmetric form: (a, b) -> value."""
    h = p // 2
    entries = {}
    for k in range(h):
        entries[(k, k + h)] = 1
        entries[(k + h, k)] = -1
    return entries


def _parts(d):
    """The parts of d, each a tuple of vertices; a signed diagram's
    horizontal edges are read tail first."""
    if isinstance(d, SignedBrauerDiagram):
        return [e for e in d.parts if e[0][0] != e[1][0]] + list(d.arrows)
    return d.parts


def _matrix(ctx, d):
    """Entry (J, I) is the product over the parts of d of the weight its
    form gives the labels that I (bottom) and J (top) put on it.

    Each part's nonzero labellings are listed as (source offset, target
    offset, weight); the parts touch disjoint tensor factors, so their
    product lists every nonzero entry exactly once."""
    p, n, m = ctx.dim, d.n, d.m
    place = {(BOTTOM, i): (p ** (n - i), 0) for i in range(1, n + 1)}
    place.update({(TOP, j): (0, p ** (m - j)) for j in range(1, m + 1)})
    terms = [(0, 0, 1)]
    for part in _parts(d):
        rows = {v[0] for v in part}
        if len(rows) == 2 or ctx.cap is None:
            form = {(x,) * len(part): 1 for x in range(p)}
        else:
            form = ctx.cap if BOTTOM in rows else ctx.cup
        choices = []
        for labels, w in form.items():
            s = t = 0
            for v, x in zip(part, labels):
                a, b = place[v]
                s += a * x
                t += b * x
            choices.append((s, t, w))
        terms = [
            (s + s2, t + t2, w * w2) for s, t, w in terms for s2, t2, w2 in choices
        ]
    columns = [{} for _ in range(p**n)]
    for s, t, w in terms:
        columns[s][t] = w
    return RationalMatrix(p**m, p**n, columns)


def _objects_up_to(variant, max_size):
    if variant == "walled":
        out = []
        for total in range(max_size + 1):
            for n1 in range(total + 1):
                out.append((n1, total - n1))
        return out
    return list(range(max_size + 1))


def _check_pair_budget(variant, max_size):
    """Refuse a sweep of more than PAIR_BUDGET pairs before any hom space
    is enumerated. The count grows with the size, so sizes are counted
    upwards and the first one past the budget stops the count."""
    for size in range(max_size + 1):
        objects = _objects_up_to(variant, size)
        hom = {(x, y): _hom_size(variant, x, y) for x in objects for y in objects}
        # the pairs through y are (pairs into y) * (pairs out of y)
        pairs = sum(
            sum(hom[x, y] for x in objects) * sum(hom[y, z] for z in objects) for y in objects
        )
        if pairs > PAIR_BUDGET:
            raise DimensionBudgetExceeded(
                f"{pairs} pairs up to size {size} exceed the pair budget {PAIR_BUDGET}"
            )


def _pack(matrix, scale, width):
    """The matrix times `scale` (which makes it integral), with each
    entry packed into a field of `width` bits.

    Returns the columns whose only entry is 1, as (c, r); the other
    columns with entries, as (c, [(r, entry), ...]); and the bytes of
    each column, entry r in bytes [r * width/8, (r+1) * width/8), little
    endian and biased by 2^(width-1) so that every field is
    nonnegative."""
    size, half = width // 8, 1 << width - 1
    zero = half.to_bytes(size, "little") * matrix.rows
    units, sums, column_bytes = [], [], []
    for c, col in enumerate(matrix.columns):
        if not col:
            column_bytes.append(zero)
            continue
        col = [(r, v.numerator * (scale // v.denominator)) for r, v in col.items()]
        if len(col) == 1 and col[0][1] == 1:
            units.append((c, col[0][0]))
        else:
            sums.append((c, col))
        fields = bytearray(zero)
        for r, v in col:
            fields[r * size : (r + 1) * size] = (v + half).to_bytes(size, "little")
        column_bytes.append(bytes(fields))
    return units, sums, column_bytes


def _scaled(packed, factor, width):
    """The column bytes of a packed matrix times a rational factor, or
    b"" for each column if an entry of the product would not be an
    integer or not fit its field. A matrix with rows has no such empty
    column, so a product never equals a matrix that does not pack."""
    units, sums, column_bytes = packed
    if factor == 1:
        return column_bytes
    num, den = factor.numerator, factor.denominator
    values = [v for _, col in sums for _, v in col]
    if units:
        values.append(1)
    if gcd(*values) % den or max(map(abs, values), default=0) * abs(num) >= den << width - 1:
        return [b""] * len(column_bytes)
    whole = b"".join(column_bytes)
    if not whole:  # no entries
        return column_bytes
    unit = (1 << width - 1).to_bytes(width // 8, "little")
    bias = int.from_bytes(unit * (len(whole) // len(unit)), "little")
    whole = ((int.from_bytes(whole, "little") - bias) * num // den + bias).to_bytes(len(whole), "little")
    length = len(whole) // len(column_bytes)
    return [whole[i : i + length] for i in range(0, len(whole), length)]


def verify_taut_functoriality(ctx, max_size):
    """Exhaustively compare matrix products with composed diagrams.

    For every composable pair of diagrams with object sizes at most
    max_size, the product of the matrices must equal the parameter
    power (times the composition sign) times the matrix of the
    composed diagram, with exact equality. The hom bases and
    compositions come from the cached tables of `diagcat.algebra`, built
    on labels, so sweeps at other dimensions or q, and the algebras on
    [n], compose each pair once, or read it off its transpose; the
    products are computed on every sweep.

    The products are computed on packed integers (Kronecker
    substitution). Every matrix is scaled by D, the lcm of the entry
    denominators, and each entry gets a field of W bits, W a multiple
    of 8 with 2^(W-1) above the largest entry a product can have,
    dim^max_size * (max |D * entry|)^2, so that an entry never leaves
    its field and packing a product gives the product of the packings.
    Column k of every beta in Hom(y, z) is packed side by side into one
    int, once per sweep; for an alpha in Hom(x, y), column c of its
    products with all those betas is then the sum over k of
    alpha[k, c] times the k-th int. The bytes of these columns are
    compared exactly, never hashed, with the expected
    D^2 * sign * parameter^closed * M(composite) of every pair, in the
    same layout. An expected matrix with an entry that is not an
    integer or does not fit its field is not packed: no product can
    equal it, so every pair that reads it fails. Only an alpha whose
    bytes differ is compared beta by beta, to list its failures.

    A sweep whose tensor powers exceed ROW_BUDGET rows, or whose pair
    count exceeds PAIR_BUDGET, is refused with DimensionBudgetExceeded
    before any hom space is enumerated, and a negative max_size with
    ShapeMismatch.
    """
    [max_size] = check_nonnegative("max_size", max_size)
    _check_budget(ctx.dim, max_size)
    variant = ctx.variant
    _check_pair_budget(variant, max_size)
    objects = _objects_up_to(variant, max_size)
    matrices = {
        (x, y): [_matrix(ctx, d) for d in hom_basis(variant, x, y)]
        for x in objects
        for y in objects
    }
    values = [v for ms in matrices.values() for m in ms for col in m.columns for v in col.values()]
    scale = lcm(*(v.denominator for v in values))
    bound = int(max(map(abs, values), default=0) * scale)
    width = 8 * ((max(1, ctx.dim**max_size) * bound**2).bit_length() // 8 + 1)
    unit = (1 << width - 1).to_bytes(width // 8, "little")  # a zero field
    packed = {key: [_pack(m, scale, width) for m in ms] for key, ms in matrices.items()}
    # per hom space, column k of every diagram side by side, diagram i in
    # fields [i*rows, (i+1)*rows): as bytes and as a signed int
    stacks = {}
    for key, ps in packed.items():
        if ps:
            zero = unit * (len(ps) * matrices[key][0].rows)
            offset = int.from_bytes(zero, "little")
            stacked = [b"".join(column) for column in zip(*[p[2] for p in ps])]
            stack = [int.from_bytes(c, "little") - offset for c in stacked]
            stacks[key] = zero, offset, stacked, stack

    # per (x, z), the column bytes of each (closed, sign, k) that occurs
    expected = {(x, z): {} for x in objects for z in objects}
    checked = 0
    failures = []
    for x in objects:
        for y in objects:
            alphas, left = hom_basis(variant, x, y), packed[x, y]
            for z in objects:
                betas = hom_basis(variant, y, z)
                if not (alphas and betas):
                    continue
                checked += len(alphas) * len(betas)
                table = composition_table(variant, x, y, z)
                want, target = expected[x, z], packed[x, z]
                for entry in set().union(*table).difference(want):
                    closed, sign, k = entry
                    factor = sign * ctx.parameter**closed * scale
                    want[entry] = _scaled(target[k], factor, width)

                zero, offset, stacked, stack = stacks[y, z]
                cols, length = matrices[x, y][0].cols, len(zero) // len(betas)
                for alpha, (units, sums, *_), entries in zip(alphas, left, zip(*table)):
                    # column c of alpha's product with every beta
                    got = [zero] * cols
                    for c, k in units:
                        got[c] = stacked[k]
                    for c, col in sums:
                        got[c] = (sum([stack[k] * a for k, a in col]) + offset).to_bytes(len(zero), "little")
                    ws = [want[e] for e in entries]
                    if b"".join(got) == b"".join(chain.from_iterable(zip(*ws))):
                        continue
                    for i, (beta, w) in enumerate(zip(betas, ws)):
                        if any(g[i * length : (i + 1) * length] != wc for g, wc in zip(got, w)):
                            failures.append((alpha.to_text(), beta.to_text()))

    return {
        "category": ctx.variant,
        "dim": ctx.dim,
        "parameter": str(ctx.parameter),
        "max_size": max_size,
        "pairs_checked": checked,
        "failures": failures,
        "pass": not failures,
    }


def check_p2_p0_surjectivity(delta):
    """Whether the degree-zero part of the map from the rank-2 principal
    projective to the rank-0 one is everything, at the given parameter.

    The image is spanned by all downwards maps [2] -> [0] applied to
    the generating cup element; the unique such map closes the loop,
    so the answer is exactly delta != 0 (which this computes rather
    than asserts). Hom([0], [0]) has the single basis diagram, the
    empty one, so the image is everything exactly when some image
    has a nonzero coefficient at delta.
    """
    delta = Fraction(delta)
    cup = enumerate_diagrams("brauer", 0, 2)[0]
    generator = Morphism.from_diagram(cup)
    images = (
        morphism_compose(Morphism.from_diagram(beta), generator)
        for beta in enumerate_diagrams("brauer", 2, 0)
        if is_downwards(beta)
    )
    return any(c.evaluate(delta) for image in images for c in image.terms.values())
