"""Endomorphism-algebra analysis: multiplication tables, trace-form
Gram matrices, discriminants and semisimplicity tests at specific
parameter values. The cached hom bases and composition tables are
shared with the tautological sweeps.
"""

from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, inf, lcm
from operator import mul

from .coeff import DeltaPoly, _reduced, int_exact_div, int_mul, int_sub, rational_roots
from .compose import _glued, _merge, epsilon_sign
from .diagrams import check_nonnegative, enumerate_diagrams, renumbered
from .errors import DimensionBudgetExceeded, UnsupportedVariant

BASIS_BUDGET = 250
# The largest algebra whose discriminant was measured to finish:
# temperley_lieb n=5 (42 basis diagrams, degree 132) in about 3 s, while
# brauer n=4 (105) gave no determinant within 250 s.
DISCRIMINANT_BASIS_BUDGET = 42

_ALGEBRA_VARIANTS = ("brauer", "partition", "temperley_lieb", "signed")
# the degenerate rule can give zero, and partial injections count no loops
_TABLE_VARIANTS = _ALGEBRA_VARIANTS + ("walled",)


class AlgebraTable:
    """Structure constants of the diagram algebra on the object [n].

    Products of basis diagrams are single terms: table[i][j] holds
    (delta power, sign, basis index) for basis[i] after basis[j].
    """

    __slots__ = ("variant", "n", "basis", "table")

    def __init__(self, variant, n):
        _dimension(variant, n)
        self.variant = variant
        self.n = n
        self.basis = hom_basis(variant, n, n)
        self.table = composition_table(variant, n, n, n)

    @property
    def dimension(self):
        return len(self.basis)

    def product(self, i, j):
        return self.table[i][j]

    def left_multiplication_trace(self, k):
        """Trace of y -> basis[k] o y in the regular representation."""
        fixed = [(c, s) for l, (c, s, out) in enumerate(self.table[k]) if out == l]
        return sum((DeltaPoly.one()._shifted(c, s) for c, s in fixed), DeltaPoly.zero())

    def gram_matrix(self):
        """G[i][j] = trace of left multiplication by basis[i] o basis[j]."""
        traces = [self.left_multiplication_trace(k) for k in range(self.dimension)]
        return [[traces[k]._shifted(c, s) for c, s, k in row] for row in self.table]


def _hom_size(variant, x, y, budget=inf):
    """|Hom(x, y)| by the counting formulas: (n1+m2)! matchings between
    the two colour classes of a walled object, Bell(n+m) set partitions,
    the sum over k of C(n, k) C(m, k) k! partial injections,
    Catalan((n+m)/2) planar and (n+m-1)!! other perfect matchings.

    Each is the last of a nondecreasing sequence, so a count past the
    budget is refused at the first term past it."""
    if variant == "walled":
        (n1, n2), (m1, m2) = x, y
        terms = accumulate(range(1, n1 + m2 + 1), mul, initial=1) if n1 + m2 == n2 + m1 else [0]
    elif variant in ("partition", "degenerate"):
        rows = accumulate(range(x + y), lambda row, _: list(accumulate(row, initial=row[-1])), initial=[1])
        terms = (row[0] for row in rows)
    elif variant == "fisharp":
        terms = accumulate(comb(x, k) * comb(y, k) * factorial(k) for k in range(min(x, y) + 1))
    elif (x + y) % 2:
        return 0
    elif variant == "temperley_lieb":
        terms = accumulate(range((x + y) // 2), lambda c, k: c * (4 * k + 2) // (k + 2), initial=1)
    else:
        terms = accumulate(range(1, x + y, 2), mul, initial=1)
    for count in terms:
        if count > budget:
            raise DimensionBudgetExceeded(f"Hom({x}, {y}) has more diagrams than the budget {budget}")
    return count


def _dimension(variant, n):
    """The dimension of the algebra on [n], counted before any basis is
    enumerated; past BASIS_BUDGET it is refused."""
    if variant not in _ALGEBRA_VARIANTS:
        raise UnsupportedVariant.of("the diagram algebra", variant, _ALGEBRA_VARIANTS)
    [n] = check_nonnegative("row size", n)
    return _hom_size(variant, n, n, BASIS_BUDGET)


@lru_cache(maxsize=None)
def hom_basis(variant, x, y):
    """The basis diagrams of Hom(x, y), in enumeration order."""
    return tuple(enumerate_diagrams(variant, x, y))


@lru_cache(maxsize=None)
def _basis_index(variant, x, y):
    """index[bottom][top] = (k, epsilon sign) of hom_basis(variant, x,
    y)[k], whose labels are bottom + top: the labels of its bottom row,
    then those of its top row."""
    eps = epsilon_sign if variant == "signed" else lambda d: 1
    index = {}
    for k, d in enumerate(hom_basis(variant, x, y)):
        labels, n = d._labels, d.n
        index.setdefault(labels[:n], {})[labels[n:]] = (k, eps(d))
    return index


@lru_cache(maxsize=None)
def _transpose_map(variant, x, y):
    """t with hom_basis(variant, y, x)[t[k]] the transpose of
    hom_basis(variant, x, y)[k]. Found by labels, those of the two rows
    exchanged and renumbered as `transpose` builds them; for x > y it is
    the inverse of the map of Hom(y, x)."""
    if x > y:
        inverse = _transpose_map(variant, y, x)
        return tuple(sorted(range(len(inverse)), key=inverse.__getitem__))
    index = _basis_index(variant, y, x)
    out = []
    for d in hom_basis(variant, x, y):
        n, labels = d.n, d._labels
        m = len(labels) - n
        mirror = renumbered(labels[n:] + labels[:n])
        out.append(index[mirror[:m]][mirror[m:]][0])
    return tuple(out)


@lru_cache(maxsize=None)
def composition_table(variant, x, y, z):
    """table[i][j] = (closed, sign, k): hom_basis(y, z)[i] after
    hom_basis(x, y)[j] is d^closed * sign * hom_basis(x, z)[k].

    Built on labels, each composite read as a bottom half plus a top
    half. The middle labels of a beta, those of its bottom row, are a
    restricted-growth string of their own, so the betas that share them
    share every merge through the middle row and differ only in their
    top rows. The betas are grouped by their middle labels, and per
    group and alpha `compose`'s union-find (`_merge`) runs once. It
    gives the bottom half, the composite's labels on alpha's bottom row;
    the inner components, merged parts with no bottom vertex; and the
    alpha's class: for each middle part, the label of its component on
    the bottom row or the number of its inner component, with the count
    of bottom labels. Per class and beta of the group, the top half is
    the composite's labels on beta's top row, with the number of inner
    components it reaches. A pair then costs one lookup in the two-level
    index, and closed = inner - reached.

    Transposing keeps loops and reverses composition, (beta o alpha)^T
    = alpha^T o beta^T, so of each pair and its transpose only one is
    computed. With tA, tB and tC the transpose maps of Hom(x, y),
    Hom(y, z) and Hom(z, x):
    - x < z: every pair is computed;
    - x > z: entry [i][j] is entry [tA[j]][tB[i]] of the table of
      (z, y, x), with its k sent through tC;
    - x == z: the pair (i, j) and its mirror (tA[j], tB[i]) lie in this
      table. Row i computes the alphas j with tA[j] >= i, taken in the
      order of tA[j], and writes each entry's mirror too: about half the
      pairs. A group merges the alphas that its first beta needs.
    The signed tables compute every pair: transpose is not defined on
    oriented values, and their tables are tiny.
    Equal entries are one shared tuple, so a table costs about one
    pointer per pair. The algebra on [n] and every tautological sweep
    through the triple read the same table. Signs are as in `compose`.
    """
    if variant not in _TABLE_VARIANTS:
        raise UnsupportedVariant.of("the composition table", variant, _TABLE_VARIANTS)
    alphas, betas = hom_basis(variant, x, y), hom_basis(variant, y, z)
    if not alphas or not betas:
        return ((),) * len(betas)
    signed = variant == "signed"
    if not signed and x > z:
        tA, tB = _transpose_map(variant, x, y), _transpose_map(variant, y, z)
        tC = _transpose_map(variant, z, x)
        transposed = composition_table(variant, z, y, x)
        mirror = {e: (e[0], e[1], tC[e[2]]) for e in set().union(*transposed)}
        return tuple(tuple([mirror[transposed[t][s]] for t in tA]) for s in tB)
    index = _basis_index(variant, x, z)
    mirrored = not signed and x == z
    if mirrored:
        # tB inverts the transpose map of the alphas, so it lists them by
        # the index of their transpose
        tB, tC = _transpose_map(variant, y, x), _transpose_map(variant, x, x)
        glued = [_glued(alphas[j]) for j in tB]
    else:
        glued = [_glued(a) for a in alphas]
        if signed:
            alpha_eps = [epsilon_sign(a) for a in alphas]
    mid = betas[0].n
    groups = {}
    for i, beta in enumerate(betas):
        groups.setdefault(beta._labels[:mid], []).append(i)
    rows = [[None] * len(alphas) for _ in betas]
    entries = {}
    for b_mid, members in groups.items():
        nm = max(b_mid) + 1 if b_mid else 0
        start = members[0] if mirrored else 0
        # per alpha: (the sub-index of its bottom half, its class, its
        # inner components); the roots met on the bottom row are numbered
        # by first appearance, 0..nbot-1, and the inner ones go on from nbot
        classes = {}
        halves = []
        for na, a_bottom, a_mid in glued[start:]:
            parent, _ = _merge(na, a_mid, b_mid, na + nm)
            number = {}
            bottom = []
            for v in a_bottom:
                while parent[v] != v:
                    v = parent[v]
                bottom.append(number.setdefault(v, len(number)))
            nbot = len(number)
            reach = []
            for v in range(na, na + nm):
                while parent[v] != v:
                    v = parent[v]
                reach.append(number.setdefault(v, len(number)))
            reach.append(nbot)
            c = classes.setdefault(tuple(reach), len(classes))
            halves.append((index[tuple(bottom)], c, len(number) - nbot))
        for i in members:
            # per class: (the top half, the inner components it reaches)
            b_labels = betas[i]._labels
            b_top = b_labels[mid:]
            # beta's labels from nm on are its parts that miss the middle
            # row: each is a component of its own, coded past every root
            outside = max(b_labels) + 1 - nm if b_labels else 0
            tops = []
            for reach in classes:
                nbot = reach[-1]
                first = {}
                top = []
                for v in b_top:
                    v = reach[v] if v < nm else nbot + v
                    top.append(v if v < nbot else first.setdefault(v, nbot + len(first)))
                tops.append((tuple(top), len(first) - outside))
            row = rows[i]
            if mirrored:
                ti = tB[i]
                for t, (sub, c, inner) in enumerate(halves[i - start:], i):
                    top, reached = tops[c]
                    closed, k = inner - reached, sub[top][0]
                    entry, mirror = (closed, 1, k), (closed, 1, tC[k])
                    row[tB[t]] = entries.setdefault(entry, entry)
                    rows[t][ti] = entries.setdefault(mirror, mirror)
                continue
            if signed:
                beta_eps = epsilon_sign(betas[i])
            for j, (sub, c, inner) in enumerate(halves):
                top, reached = tops[c]
                closed = inner - reached
                k, sign = sub[top]
                if signed:
                    sign *= alpha_eps[j] * beta_eps * (-1 if closed % 2 else 1)
                entry = (closed, sign, k)
                row[j] = entries.setdefault(entry, entry)
    return tuple(map(tuple, rows))


@lru_cache(maxsize=None)
def build_algebra(variant, n):
    return AlgebraTable(variant, n)


def poly_det(matrix):
    """Determinant of a square matrix of DeltaPolys.

    Each row is scaled to int numerators by the lcm of its entries'
    denominators. Fraction-free (Bareiss) elimination then runs on int
    coefficient lists, where every division is exact over Z[d], and the
    product of the row scales is divided out of the last pivot. A zero
    pivot is exchanged with the first nonzero entry below it, which
    negates the result; a column with none gives the zero polynomial.
    The empty matrix has determinant 1.
    """
    n = len(matrix)
    if n == 0:
        return DeltaPoly.one()
    scale = 1
    M = []
    for row in matrix:
        s = lcm(*(p._den for p in row))
        scale *= s
        M.append([[c * (s // p._den) for c in p._num] for p in row])
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not M[k][k]:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return DeltaPoly.zero()
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        pivot, pivot_row = M[k][k], M[k]
        for row in M[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                num = int_sub(int_mul(row[j], pivot), int_mul(lead, pivot_row[j]))
                row[j] = int_exact_div(num, prev)
            row[k] = []
        prev = pivot
    return _reduced([sign * c for c in M[n - 1][n - 1]], scale)


@lru_cache(maxsize=None)
def discriminant(variant, n):
    """Determinant of the trace form of the regular representation.

    An algebra of more than DISCRIMINANT_BASIS_BUDGET basis diagrams is
    refused with DimensionBudgetExceeded before its basis is enumerated.
    """
    size = _dimension(variant, n)
    if size > DISCRIMINANT_BASIS_BUDGET:
        raise DimensionBudgetExceeded(
            f"{size} basis diagrams exceed the budget {DISCRIMINANT_BASIS_BUDGET}"
        )
    return poly_det(build_algebra(variant, n).gram_matrix())


def is_semisimple_at(variant, n, delta):
    """Nonvanishing of the discriminant at an exact rational point."""
    return discriminant(variant, n).evaluate(delta) != 0


def discriminant_rational_roots(variant, n):
    return rational_roots(discriminant(variant, n))
