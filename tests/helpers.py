"""Independent brute-force oracles used only by the test suite."""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

from diagcat import taut
from diagcat.algebra import composition_table, hom_basis
from diagcat.chars import (
    check_partition,
    class_size,
    partitions_of,
    standard_tableaux,
    sym_character,
)
from diagcat.diagrams import BOTTOM, TOP
from diagcat.taut import RationalMatrix


def specht_character_oracle(lam, mu):
    """Trace of a permutation of the given cycle type on an explicitly
    constructed Specht module (polytabloids inside the tabloid space).

    Completely independent of the Murnaghan-Nakayama recursion; only
    usable at small sizes.
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    n = sum(lam)
    assert sum(mu) == n

    def tabloid(tab):
        return tuple(frozenset(row) for row in tab)

    tabloid_index = {}

    def tabloid_id(tab):
        key = tabloid(tab)
        if key not in tabloid_index:
            tabloid_index[key] = len(tabloid_index)
        return tabloid_index[key]

    def columns(tab):
        cols = []
        for j in range(lam[0]):
            col = [row[j] for row in tab if j < len(row)]
            cols.append(col)
        return cols

    def polytabloid(tab):
        vec = {}
        cols = columns(tab)
        choices = [list(permutations(range(len(c)))) for c in cols]

        def rec(ci, perm_so_far, sign):
            if ci == len(cols):
                moved = [
                    tuple(perm_so_far.get(v, v) for v in row) for row in tab
                ]
                tid = tabloid_id(moved)
                vec[tid] = vec.get(tid, 0) + sign
                return
            col = cols[ci]
            for p in choices[ci]:
                s = _perm_parity(p)
                mapping = dict(perm_so_far)
                for a, b in zip(col, (col[i] for i in p)):
                    mapping[a] = b
                rec(ci + 1, mapping, sign * s)

        rec(0, {}, 1)
        return vec

    basis_tabs = standard_tableaux(lam)
    vecs = [polytabloid(tab) for tab in basis_tabs]
    dim_t = len(tabloid_index)
    f = len(vecs)
    A = [[Fraction(vec.get(r, 0)) for vec in vecs] for r in range(dim_t)]

    sigma = _permutation_of_type_1based(mu, n)
    trace = Fraction(0)
    for i, tab in enumerate(basis_tabs):
        moved = [tuple(sigma[v - 1] for v in row) for row in tab]
        target_vec = polytabloid(moved)
        rhs = [Fraction(target_vec.get(r, 0)) for r in range(dim_t)]
        sol = _solve_exact(A, rhs, f)
        trace += sol[i]
    assert trace.denominator == 1
    return int(trace)


def _perm_parity(p):
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j, ln = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            ln += 1
        if ln % 2 == 0:
            sign = -sign
    return sign


def _permutation_of_type_1based(rho, n):
    img = []
    start = 1
    for ln in rho:
        block = list(range(start, start + ln))
        img.extend(block[1:] + block[:1])
        start += ln
    img.extend(range(start, n + 1))
    return tuple(img)


def _solve_exact(A, rhs, ncols):
    """Solve A x = rhs for the unique x (A has full column rank)."""
    rows = len(A)
    M = [list(A[r]) + [rhs[r]] for r in range(rows)]
    piv_rows = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, rows) if M[i][c] != 0), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        pivot = M[r][c]
        M[r] = [v / pivot for v in M[r]]
        for i in range(rows):
            if i != r and M[i][c] != 0:
                factor = M[i][c]
                M[i] = [a - factor * b for a, b in zip(M[i], M[r])]
        piv_rows.append((r, c))
        r += 1
    x = [Fraction(0)] * ncols
    for rr, cc in piv_rows:
        x[cc] = M[rr][ncols]
    return x


def lr_by_tableaux(lam, mu, target):
    """LR coefficient by enumerating, for this one target, every
    semistandard filling of target/lam with content mu and testing the
    lattice condition on each complete filling."""
    lam, mu, target = map(check_partition, (lam, mu, target))
    if sum(lam) + sum(mu) != sum(target):
        return 0
    if len(lam) > len(target):
        return 0
    lam_padded = lam + (0,) * (len(target) - len(lam))
    if any(lam_padded[i] > target[i] for i in range(len(target))):
        return 0
    if not mu:
        return 1
    rows = len(target)
    fill = [[0] * (target[i] - lam_padded[i]) for i in range(rows)]
    counts = [0] * (len(mu) + 1)

    def cell_value_ok(i, j, v):
        col = lam_padded[i] + j
        if j > 0 and fill[i][j - 1] > v:
            return False
        if i > 0:
            above_row = i - 1
            above_j = col - lam_padded[above_row]
            if 0 <= above_j < len(fill[above_row]) and fill[above_row][above_j] >= v:
                return False
        return True

    total = 0

    def place(i, j):
        nonlocal total
        if i == rows:
            if _is_lattice_filling(fill, len(mu)):
                total += 1
            return
        if j == len(fill[i]):
            place(i + 1, 0)
            return
        for v in range(1, len(mu) + 1):
            if counts[v] == mu[v - 1]:
                continue
            if not cell_value_ok(i, j, v):
                continue
            fill[i][j] = v
            counts[v] += 1
            place(i, j + 1)
            counts[v] -= 1
            fill[i][j] = 0

    place(0, 0)
    return total


def _is_lattice_filling(fill, nvals):
    counts = [0] * (nvals + 1)
    for row in fill:
        for v in reversed(row):
            counts[v] += 1
            if v > 1 and counts[v] > counts[v - 1]:
                return False
    return True


@lru_cache(maxsize=None)
def character_by_beta_sets(lam, mu):
    """Murnaghan-Nakayama recursion on beta *sets*, the form diagcat used
    before its list kernel; lam and mu are normal partitions of one size.

    Removing a border strip of length r moves one beta number b to the
    free place b - r; the sign counts the beta numbers strictly between.
    """
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    rows = max(len(lam), 1)
    beta = {lam[i] + rows - 1 - i if i < len(lam) else rows - 1 - i for i in range(rows)}
    total = 0
    for b in sorted(beta):
        if b - r < 0 or (b - r) in beta:
            continue
        height = sum(1 for x in beta if b - r < x < b)
        new_beta = sorted((beta - {b}) | {b - r}, reverse=True)
        child = tuple(p for p in (x - (rows - 1 - i) for i, x in enumerate(new_beta)) if p > 0)
        total += (-1) ** height * character_by_beta_sets(child, rest)
    return total


def lr_by_characters(lam, mu, target):
    """LR coefficient via the Frobenius inner product of characters."""
    from math import factorial

    a, b = sum(lam), sum(mu)
    if a + b != sum(target):
        return 0
    total = Fraction(0)
    for rho in partitions_of(a):
        ca = sym_character(lam, rho)
        if ca == 0:
            continue
        for pi in partitions_of(b):
            cb = sym_character(mu, pi)
            if cb == 0:
                continue
            combined = tuple(sorted(rho + pi, reverse=True))
            total += Fraction(
                class_size(rho) * class_size(pi) * ca * cb
                * sym_character(target, combined)
            )
    value = total / (factorial(a) * factorial(b))
    assert value.denominator == 1
    return int(value)


def partition_compose_oracle(beta, alpha):
    """Partition composition read off the connected components of the
    stacked graph, independent of the library's union-find engine.
    A matching is read as the partition whose blocks are its edges.

    Vertices are named ('b', i) on alpha's bottom row, ('m', i) on the
    shared middle row and ('t', i) on beta's top row. Returns
    (blocks, closed_count, cyclic): the result's blocks in canonical
    order, the number of components inside the middle row, and whether
    the blocks of alpha and beta, joined at each shared middle vertex,
    form a cycle (the degenerate rule's zero product). A component has
    a cycle exactly when it holds at least as many middle vertices as
    blocks.
    """

    def named(diagram, lower, upper):
        parts = diagram.blocks if hasattr(diagram, "blocks") else diagram.edges
        return [
            {(lower if row == 0 else upper, i) for row, i in block}
            for block in parts
        ]

    a_blocks = named(alpha, "b", "m")
    b_blocks = named(beta, "m", "t")
    adjacent = {}
    for block in a_blocks + b_blocks:
        for v in block:
            adjacent.setdefault(v, set()).update(block)
    seen = set()
    blocks = []
    closed = 0
    cyclic = False
    for start in adjacent:
        if start in seen:
            continue
        seen.add(start)
        stack, component = [start], []
        while stack:
            v = stack.pop()
            component.append(v)
            for w in adjacent[v] - seen:
                seen.add(w)
                stack.append(w)
        outer = sorted(
            (0 if row == "b" else 1, i) for row, i in component if row != "m"
        )
        if outer:
            blocks.append(tuple(outer))
        else:
            closed += 1
        members = set(component)
        middle = sum(1 for row, _ in component if row == "m")
        touching = sum(1 for blk in a_blocks + b_blocks if blk & members)
        cyclic = cyclic or middle >= touching
    return tuple(sorted(blocks)), closed, cyclic


def fisharp_compose_oracle(beta, alpha):
    """The pairs of beta after alpha, composing the two partial
    injections as partial functions on their pairs."""
    b = dict(beta.pairs)
    return tuple((s, b[t]) for s, t in alpha.pairs if t in b)


def check_associativity(algebra):
    """Exhaustive structure-constant associativity check of an
    AlgebraTable: (b_i b_j) b_k and b_i (b_j b_k) give the same loop
    count, sign and basis diagram."""
    table = algebra.table
    dim = algebra.dimension
    for i in range(dim):
        for j in range(dim):
            cij, sij, kij = table[i][j]
            for k in range(dim):
                cjk, sjk, kjk = table[j][k]
                c1, s1, k1 = table[kij][k]
                c2, s2, k2 = table[i][kjk]
                if (cij + c1, sij * s1, k1) != (cjk + c2, sjk * s2, k2):
                    return False
    return True


def canonical_arrow(edge):
    """The edge tail first in the order b1 < ... < bn < tm < ... < t1."""
    a, b = sorted(edge)
    return (b, a) if a[0] == TOP else (a, b)


def is_canonical(d):
    """Whether every arrow of a signed diagram has the reference
    orientation."""
    return all(a == canonical_arrow(a) for a in d.arrows)


def transposed(matrix):
    """The transpose of a column-sparse RationalMatrix."""
    out = [{} for _ in range(matrix.rows)]
    for j, col in enumerate(matrix.columns):
        for i, v in col.items():
            out[i][j] = v
    return RationalMatrix(matrix.cols, matrix.rows, out)


def taut_matrix_by_definition(ctx, d):
    """The entries of `taut_matrix(ctx, d)` as dense rows, one labelling
    at a time from the definition, without `diagcat.taut._matrix`.

    Entry (J, I) is the product over the parts of d, read from the
    `parts` view, of the weight its form gives the labels that I
    (bottom) and J (top) put on its vertices, first tensor factor most
    significant. A part on both rows, and every part of brauer, walled
    and partition, weighs 1 when its labels agree and 0 otherwise. A
    horizontal edge of temperley_lieb, read in vertex order, weighs
    cap(0, 1) = -1/q, cap(1, 0) = 1 on the bottom row and cup(0, 1) = 1,
    cup(1, 0) = -q on the top row. A horizontal edge of signed is read
    from the `arrows` view, tail first, and weighs w(x, x + h) = 1,
    w(x + h, x) = -1 for h = dim / 2."""
    p, h, q = ctx.dim, ctx.dim // 2, ctx.q
    forms = None
    if ctx.variant == "temperley_lieb":
        forms = {BOTTOM: {(0, 1): -1 / q, (1, 0): 1}, TOP: {(0, 1): 1, (1, 0): -q}}
    elif ctx.variant == "signed":
        w = {(x, x + h): 1 for x in range(h)} | {(x + h, x): -1 for x in range(h)}
        forms = {BOTTOM: w, TOP: w}
    arrows = {frozenset(a): a for a in getattr(d, "arrows", ())}
    rows = [[0] * p**d.n for _ in range(p**d.m)]
    for source in product(range(p), repeat=d.n):
        for target in product(range(p), repeat=d.m):
            label = {(BOTTOM, i): x for i, x in enumerate(source, 1)}
            label |= {(TOP, j): y for j, y in enumerate(target, 1)}
            value = 1
            for part in d.parts:
                part = arrows.get(frozenset(part), part)
                labels = tuple(label[v] for v in part)
                if forms is None or part[0][0] != part[-1][0]:
                    value *= len(set(labels)) == 1
                else:
                    value *= forms[part[0][0]].get(labels, 0)
            rows[_tensor_index(target, p)][_tensor_index(source, p)] = value
    return rows


def _tensor_index(labels, p):
    index = 0
    for x in labels:
        index = index * p + x
    return index


# -- column-sparse products: the oracle for the packed taut sweep


def matmul(left, right):
    """The product of two column-sparse RationalMatrix values, one dict
    column at a time. A column of the product may be a column of the
    left factor itself, since no column is modified after it is made."""
    if left.cols != right.rows:
        raise ValueError(f"cannot multiply {left!r} by {right!r}")
    out = []
    for col in right.columns:
        if len(col) == 1:
            [(k, w)] = col.items()
            out.append(left.columns[k] if w == 1 else {i: v * w for i, v in left.columns[k].items()})
            continue
        acc = {}
        for k, w in col.items():
            for i, v in left.columns[k].items():
                acc[i] = acc.get(i, 0) + v * w
        out.append(acc)
    return RationalMatrix(left.rows, right.cols, out)


def scaled(matrix, c):
    """The matrix times the scalar c."""
    if c == 1:
        return matrix
    return RationalMatrix(
        matrix.rows,
        matrix.cols,
        [{i: v * c for i, v in col.items()} for col in matrix.columns],
    )


def _nonzero(col):
    return {i: v for i, v in col.items() if v}


def matrices_equal(a, b):
    """Entrywise equality; a stored zero equals an absent entry."""
    return (
        a.rows == b.rows
        and a.cols == b.cols
        and all(x == y or _nonzero(x) == _nonzero(y) for x, y in zip(a.columns, b.columns))
    )


def taut_sweep_oracle(ctx, max_size):
    """The report of `verify_taut_functoriality`, from one dict product
    and one comparison per pair over the same composition tables. The
    matrices are built through `diagcat.taut._matrix` as the sweep
    reads it, so a monkeypatched builder reaches both."""
    variant = ctx.variant
    objects = taut._objects_up_to(variant, max_size)
    matrices = {
        (x, y): [taut._matrix(ctx, d) for d in hom_basis(variant, x, y)]
        for x in objects
        for y in objects
    }
    checked = 0
    failures = []
    for x in objects:
        for y in objects:
            alphas, left = hom_basis(variant, x, y), matrices[x, y]
            for z in objects:
                betas, right = hom_basis(variant, y, z), matrices[y, z]
                if not (alphas and betas):
                    continue
                table = composition_table(variant, x, y, z)
                for j, (alpha, ma) in enumerate(zip(alphas, left)):
                    for i, (beta, mb) in enumerate(zip(betas, right)):
                        closed, sign, k = table[i][j]
                        rhs = scaled(matrices[x, z][k], sign * ctx.parameter**closed)
                        if not matrices_equal(matmul(mb, ma), rhs):
                            failures.append((alpha.to_text(), beta.to_text()))
                checked += len(alphas) * len(betas)
    return {
        "category": ctx.variant,
        "dim": ctx.dim,
        "parameter": str(ctx.parameter),
        "max_size": max_size,
        "pairs_checked": checked,
        "failures": failures,
        "pass": not failures,
    }


# -- polynomials in d as plain tuples of Fractions, constant term first,
# without trailing zeros: the oracle ring for DeltaPoly


def poly_trim(cs):
    """The tuple of Fractions of cs without trailing zeros."""
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_add(a, b):
    n = max(len(a), len(b))
    return poly_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)
