"""Tautological matrix functors: realize diagrams as exact matrices on
tensor-power bases and verify functoriality against the composition
engine.

Matrices act on pure-tensor bases ordered lexicographically with the
first factor most significant. For the integer-parameter variants all
entries are integers and the verification sweeps run on int64 arrays;
the bound p**size with p <= 3 and size <= 4 keeps every intermediate
value far below overflow. The public matrix type always carries exact
rationals.
"""

from fractions import Fraction
from itertools import product

import numpy as np

from .compose import compose
from .diagrams import (
    BOTTOM,
    TOP,
    PartitionDiagram,
    SignedBrauerDiagram,
    enumerate_diagrams,
    is_downwards,
    variant_class,
)
from .errors import (
    DimensionBudgetExceeded,
    UnsupportedVariant,
    VariantMismatch,
)
from .linear import Morphism, morphism_compose

DEFAULT_ROW_BUDGET = 4096

TAUT_VARIANTS = ("brauer", "walled", "partition", "temperley_lieb", "signed")


class TautContext:
    """Parameters of a tautological functor.

    dim is the underlying space dimension (per color for walled, even
    for signed); the loop parameter is dim except for the planar
    variant, where it is -q - 1/q for a chosen nonzero rational q.
    """

    __slots__ = ("variant", "dim", "q", "parameter", "row_budget")

    def __init__(self, variant, dim=None, q=None, row_budget=DEFAULT_ROW_BUDGET):
        if variant not in TAUT_VARIANTS:
            raise UnsupportedVariant(variant)
        if variant == "temperley_lieb":
            q = Fraction(q if q is not None else 1)
            if q == 0:
                raise ValueError("q must be nonzero")
            dim = 2
            parameter = -q - 1 / q
        else:
            if dim is None or dim < 0:
                raise ValueError("dim must be a non-negative integer")
            if variant == "signed" and dim % 2 != 0:
                raise ValueError("the oriented variant needs even dimension")
            q = None
            parameter = Fraction(dim)
        self.variant = variant
        self.dim = dim
        self.q = q
        self.parameter = parameter
        self.row_budget = row_budget


class RationalMatrix:
    """Dense exact-rational matrix, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        self.rows = rows
        self.cols = cols
        self.entries = [[Fraction(v) for v in row] for row in entries]
        assert len(self.entries) == rows
        assert all(len(r) == cols for r in self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __matmul__(self, other):
        assert self.cols == other.rows
        out = [
            [
                sum(
                    (self.entries[i][k] * other.entries[k][j] for k in range(self.cols)),
                    Fraction(0),
                )
                for j in range(other.cols)
            ]
            for i in range(self.rows)
        ]
        return RationalMatrix(self.rows, other.cols, out)

    def scaled(self, c):
        c = Fraction(c)
        return RationalMatrix(
            self.rows, self.cols, [[v * c for v in row] for row in self.entries]
        )

    def transposed(self):
        return RationalMatrix(
            self.cols,
            self.rows,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def __repr__(self):
        return f"<RationalMatrix {self.rows}x{self.cols}>"


def _check_budget(ctx, d):
    n, m = d.n, d.m
    if max(ctx.dim**m, ctx.dim**n) > ctx.row_budget:
        raise DimensionBudgetExceeded(
            f"{ctx.dim}^{max(n, m)} exceeds the row budget {ctx.row_budget}"
        )


def _check_variant(ctx, d):
    if type(d) is not variant_class(ctx.variant):
        raise VariantMismatch(f"{type(d).__name__} under a {ctx.variant} context")


def taut_matrix(ctx, d):
    """The exact matrix of the diagram's action on tensor powers."""
    _check_variant(ctx, d)
    _check_budget(ctx, d)
    if ctx.variant == "temperley_lieb":
        return _tl_matrix(ctx, d)
    arr = _int_matrix(ctx, d)
    return RationalMatrix(arr.shape[0], arr.shape[1], arr.tolist())


def _index(tup, p):
    out = 0
    for v in tup:
        out = out * p + v
    return out


def _int_matrix(ctx, d):
    """int64 matrix for the integer-parameter variants."""
    p = ctx.dim
    n, m = d.n, d.m
    arr = np.zeros((p**m, p**n), dtype=np.int64)
    if p == 0:
        if n == 0 and m == 0:
            arr = np.ones((1, 1), dtype=np.int64)
        return arr
    if isinstance(d, PartitionDiagram):
        _fill_partition(arr, d, p)
    elif isinstance(d, SignedBrauerDiagram):
        _fill_signed(arr, d, p)
    else:
        _fill_matching(arr, d, p)
    return arr


def _fill_matching(arr, d, p):
    n, m = d.n, d.m
    vert, bot, top = d.edge_kinds()
    for source in product(range(p), repeat=n):
        if any(source[a[1] - 1] != source[b[1] - 1] for a, b in bot):
            continue
        base = [None] * m
        for a, b in vert:
            bv, tv = (a, b) if a[0] == BOTTOM else (b, a)
            base[tv[1] - 1] = source[bv[1] - 1]
        col = _index(source, p)
        for free in product(range(p), repeat=len(top)):
            target = list(base)
            for (a, b), v in zip(top, free):
                target[a[1] - 1] = v
                target[b[1] - 1] = v
            arr[_index(target, p), col] = 1


def _fill_partition(arr, d, p):
    n, m = d.n, d.m
    free_blocks = []
    for source in product(range(p), repeat=n):
        base = [None] * m
        free_blocks = []
        ok = True
        for block in d.blocks:
            bots = [v[1] - 1 for v in block if v[0] == BOTTOM]
            tops = [v[1] - 1 for v in block if v[0] == TOP]
            if bots:
                val = source[bots[0]]
                if any(source[i] != val for i in bots):
                    ok = False
                    break
                for j in tops:
                    base[j] = val
            elif tops:
                free_blocks.append(tops)
        if not ok:
            continue
        col = _index(source, p)
        for free in product(range(p), repeat=len(free_blocks)):
            target = list(base)
            for tops, v in zip(free_blocks, free):
                for j in tops:
                    target[j] = v
            arr[_index(target, p), col] = 1


def _form_entries(p):
    """Nonzero entries of the antisymmetric form: (a, b) -> value."""
    h = p // 2
    entries = {}
    for k in range(h):
        entries[(k, k + h)] = 1
        entries[(k + h, k)] = -1
    return entries


def _fill_signed(arr, d, p):
    n, m = d.n, d.m
    form = _form_entries(p)
    vert, bot, top = d.edge_kinds()
    oriented = {frozenset(a): a for a in d.arrows}
    bot_arrows = [oriented[frozenset(e)] for e in bot]
    top_arrows = [oriented[frozenset(e)] for e in top]
    pairs = list(form.items())
    for source in product(range(p), repeat=n):
        scalar = 1
        for tail, head in bot_arrows:
            v = form.get((source[tail[1] - 1], source[head[1] - 1]), 0)
            if v == 0:
                scalar = 0
                break
            scalar *= v
        if scalar == 0:
            continue
        base = [None] * m
        for a, b in vert:
            bv, tv = (a, b) if a[0] == BOTTOM else (b, a)
            base[tv[1] - 1] = source[bv[1] - 1]
        col = _index(source, p)
        for choice in product(pairs, repeat=len(top_arrows)):
            target = list(base)
            val = scalar
            for (tail, head), ((a, b), w) in zip(top_arrows, choice):
                target[tail[1] - 1] = a
                target[head[1] - 1] = b
                val *= w
            arr[_index(target, p), col] += val


def _tl_matrix(ctx, d):
    q = ctx.q
    n, m = d.n, d.m
    cap = {(0, 1): -1 / q, (1, 0): Fraction(1)}
    cup = {(0, 1): Fraction(1), (1, 0): -q}
    vert, bot, top = d.edge_kinds()
    entries = [[Fraction(0)] * (2**n) for _ in range(2**m)]
    for source in product(range(2), repeat=n):
        scalar = Fraction(1)
        ok = True
        for a, b in bot:
            v = cap.get((source[a[1] - 1], source[b[1] - 1]))
            if v is None:
                ok = False
                break
            scalar *= v
        if not ok:
            continue
        base = [None] * m
        for a, b in vert:
            bv, tv = (a, b) if a[0] == BOTTOM else (b, a)
            base[tv[1] - 1] = source[bv[1] - 1]
        col = _index(source, 2)
        for choice in product(cup.items(), repeat=len(top)):
            target = list(base)
            val = scalar
            for (a, b), ((x, y), w) in zip(top, choice):
                target[a[1] - 1] = x
                target[b[1] - 1] = y
                val *= w
            entries[_index(target, 2)][col] += val
    return RationalMatrix(2**m, 2**n, entries)


def _objects_up_to(variant, max_size):
    if variant == "walled":
        out = []
        for total in range(max_size + 1):
            for n1 in range(total + 1):
                out.append((n1, total - n1))
        return out
    return list(range(max_size + 1))


def verify_taut_functoriality(ctx, max_size):
    """Exhaustively compare matrix products with composed diagrams.

    For every composable pair of diagrams with object sizes at most
    max_size, the product of the matrices must equal the parameter
    power (times the composition sign) times the matrix of the
    composed diagram, with exact equality.
    """
    if ctx.dim**max_size > ctx.row_budget:
        raise DimensionBudgetExceeded(
            f"{ctx.dim}^{max_size} exceeds the row budget {ctx.row_budget}"
        )
    objects = _objects_up_to(ctx.variant, max_size)
    exact = ctx.variant == "temperley_lieb"
    matrices = {}
    homs = {}
    for x in objects:
        for y in objects:
            ds = enumerate_diagrams(ctx.variant, x, y)
            homs[(x, y)] = ds
            for d in ds:
                matrices[d] = (
                    _tl_matrix(ctx, d) if exact else _int_matrix(ctx, d)
                )

    pairs = []
    for x in objects:
        for y in objects:
            if not homs[(x, y)]:
                continue
            for z in objects:
                if not homs[(y, z)]:
                    continue
                pairs.append((x, y, z))

    checked = 0
    failures = []
    for x, y, z in pairs:
        for alpha in homs[(x, y)]:
            ma = matrices[alpha]
            for beta in homs[(y, z)]:
                mb = matrices[beta]
                res = compose(beta, alpha)
                mr = matrices[res.result]
                checked += 1
                if exact:
                    lhs = mb @ ma
                    rhs = mr.scaled(
                        res.sign * ctx.parameter**res.closed_count
                    )
                    good = lhs == rhs
                else:
                    lhs = mb @ ma
                    rhs = (
                        res.sign * ctx.dim**res.closed_count
                    ) * mr
                    good = bool((lhs == rhs).all())
                if not good:
                    failures.append(
                        (alpha.to_text(), beta.to_text())
                    )

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
    than asserts).
    """
    delta = Fraction(delta)
    cup = enumerate_diagrams("brauer", 0, 2)[0]
    generator = Morphism.from_diagram(cup)
    target_basis = enumerate_diagrams("brauer", 0, 0)
    vectors = []
    for beta in enumerate_diagrams("brauer", 2, 0):
        if not is_downwards(beta):
            continue
        image = morphism_compose(Morphism.from_diagram(beta), generator)
        vectors.append(
            [
                image.terms[d].evaluate(delta) if d in image.terms else Fraction(0)
                for d in target_basis
            ]
        )
    return _rank(vectors) == len(target_basis)


def _rank(vectors):
    rows = [list(v) for v in vectors if any(v)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / pr[c]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        rank += 1
    return rank
