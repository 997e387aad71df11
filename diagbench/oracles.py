"""Independent computations that the benchmark checks diagcat against.

Nothing here calls diagcat's engines or imports the test suite. Diagrams
arrive as plain data (edge or block tuples of (row, index) vertices, row
0 = bottom, row 1 = top) and every answer is recomputed from the
definitions: counting formulas, graph traversal, tensor-index sums,
closed-form semisimplicity criteria and exact elimination.
"""

from fractions import Fraction
from itertools import product
from math import comb, factorial

BOTTOM, TOP = 0, 1


# -- hom-space dimensions ----------------------------------------------------


def double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def bell(k):
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def catalan(k):
    return comb(2 * k, k) // (k + 1)


def hom_count(variant, bottom, top):
    """|Hom(bottom, top)| by the counting formulas: (n+m-1)!! perfect
    matchings, Bell(n+m) set partitions, Catalan((n+m)/2) planar
    matchings, and (n1+m2)! matchings between the two colour classes
    of a walled object."""
    if variant == "walled":
        (n1, n2), (m1, m2) = bottom, top
        return factorial(n1 + m2) if n1 + m2 == n2 + m1 else 0
    total = bottom + top
    if variant == "partition":
        return bell(total)
    if total % 2:
        return 0
    if variant == "temperley_lieb":
        return catalan(total // 2)
    return double_factorial(total - 1)


def objects_up_to(variant, size):
    """Objects of total size at most `size`: colour pairs when walled."""
    if variant == "walled":
        return [(a, total - a) for total in range(size + 1) for a in range(total + 1)]
    return list(range(size + 1))


# -- compositions --------------------------------------------------------------


def _stacked(alpha_parts, beta_parts):
    # tag vertices: ('a', i) bottom of alpha, ('m', j) middle, ('c', l) top of beta
    def tag_alpha(v):
        return ("a", v[1]) if v[0] == BOTTOM else ("m", v[1])

    def tag_beta(v):
        return ("m", v[1]) if v[0] == BOTTOM else ("c", v[1])

    adj = {}
    for part in alpha_parts:
        tagged = [tag_alpha(v) for v in part]
        for u in tagged:
            adj.setdefault(u, set()).update(tagged)
    for part in beta_parts:
        tagged = [tag_beta(v) for v in part]
        for u in tagged:
            adj.setdefault(u, set()).update(tagged)
    return adj


def _untag(v):
    return (BOTTOM, v[1]) if v[0] == "a" else (TOP, v[1])


def partition_compose(alpha_blocks, beta_blocks):
    """beta after alpha by connected components of the stacked graph.

    Returns (blocks, closed): the canonical block tuple of the result and
    the number of components that meet only the middle row.
    """
    adj = _stacked(alpha_blocks, beta_blocks)
    seen = set()
    blocks = []
    closed = 0
    for start in sorted(adj):
        if start in seen:
            continue
        comp = []
        todo = [start]
        seen.add(start)
        while todo:
            u = todo.pop()
            comp.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        outer = [_untag(v) for v in comp if v[0] != "m"]
        if outer:
            blocks.append(tuple(sorted(outer)))
        else:
            closed += 1
    return tuple(sorted(blocks)), closed


def brauer_compose(alpha_edges, beta_edges):
    """beta after alpha for perfect matchings, by walking each path.

    Every vertex of the stacked graph has one alpha partner (if it is
    alpha's) and one beta partner (if it is beta's); a walk alternates
    between the two diagrams until it leaves the middle row. Cycles left
    after all outer vertices are used are the closed loops.
    """
    a_mate, b_mate = {}, {}

    def tag_alpha(v):
        return ("a", v[1]) if v[0] == BOTTOM else ("m", v[1])

    def tag_beta(v):
        return ("m", v[1]) if v[0] == BOTTOM else ("c", v[1])

    for u, v in alpha_edges:
        x, y = tag_alpha(u), tag_alpha(v)
        a_mate[x], a_mate[y] = y, x
    for u, v in beta_edges:
        x, y = tag_beta(u), tag_beta(v)
        b_mate[x], b_mate[y] = y, x
    used = set()
    edges = []
    outer = sorted([v for v in a_mate if v[0] == "a"] + [v for v in b_mate if v[0] == "c"])
    for start in outer:
        if start in used:
            continue
        used.add(start)
        mates = a_mate if start[0] == "a" else b_mate
        cur = mates[start]
        via_alpha = start[0] == "a"
        while cur[0] == "m":
            used.add(cur)
            via_alpha = not via_alpha
            cur = (a_mate if via_alpha else b_mate)[cur]
        used.add(cur)
        e = tuple(sorted((_untag(start), _untag(cur))))
        edges.append(e)
    middle = {v for v in a_mate if v[0] == "m"}
    loops = 0
    for start in sorted(middle - used):
        if start in used:
            continue
        loops += 1
        cur = start
        via_alpha = True
        while True:
            used.add(cur)
            cur = (a_mate if via_alpha else b_mate)[cur]
            via_alpha = not via_alpha
            if cur == start:
                break
    return tuple(sorted(edges)), loops


# -- exact polynomials as coefficient tuples, constant term first --------------


def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(Fraction(x) for x in c)


def poly_add(a, b):
    n = max(len(a), len(b))
    return poly_trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def poly_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def parse_poly(text):
    """Inverse of the text form `a0 + a1*d + a2*d^2` (rational coefficients)."""
    if text.strip() == "0":
        return ()
    coeffs = {}
    for part in text.split(" + "):
        if "*d" in part:
            c, power = part.split("*d")
            k = int(power[1:]) if power.startswith("^") else 1
        else:
            c, k = part, 0
        coeffs[k] = coeffs.get(k, 0) + Fraction(c)
    return poly_trim(coeffs.get(k, 0) for k in range(max(coeffs) + 1))


def morphism_compose(g_terms, f_terms, compose_one):
    """Bilinear extension of an oracle composition; terms map a diagram
    key to a coefficient tuple, and compose_one(dg, df) returns
    (result key, closed loops)."""
    out = {}
    for df, cf in f_terms.items():
        for dg, cg in g_terms.items():
            key, loops = compose_one(dg, df)
            c = poly_mul(poly_mul(cf, cg), (0,) * loops + (1,))
            out[key] = poly_add(out.get(key, ()), c)
    return {k: c for k, c in out.items() if c}


# -- tensor-power matrices from the definition ---------------------------------


def _labelling(source, target):
    lab = {}
    for i, v in enumerate(source, 1):
        lab[(BOTTOM, i)] = v
    for j, v in enumerate(target, 1):
        lab[(TOP, j)] = v
    return lab


def _index(tup, p):
    out = 0
    for v in tup:
        out = out * p + v
    return out


def taut_matrix(kind, n, m, parts, dim, q=None, arrows=()):
    """Dense matrix of a diagram on V^{(x)n} -> V^{(x)m}, entry by entry.

    Entry (J, I) is the product over the diagram's parts of the factor
    each part contributes under the labelling bottom i -> I_i and top
    j -> J_j (first tensor factor most significant):
      - 'matching' and 'partition': 1 when the part's labels agree;
      - 'signed': a vertical edge needs equal labels, an arrow (tail,
        head) contributes the symplectic form w(l_tail, l_head) with
        w(k, k + h) = 1 and w(k + h, k) = -1 for h = dim / 2;
      - 'planar' (dim 2, quantum parameter q): a bottom edge (a < b)
        contributes cap(l_a, l_b) with cap(0,1) = -1/q, cap(1,0) = 1,
        a top edge cup(l_a, l_b) with cup(0,1) = 1, cup(1,0) = -q.
    """
    h = dim // 2
    cap = {(0, 1): -1 / Fraction(q), (1, 0): Fraction(1)} if q is not None else {}
    cup = {(0, 1): Fraction(1), (1, 0): -Fraction(q)} if q is not None else {}
    rows = [[0] * dim**n for _ in range(dim**m)]
    oriented = {frozenset(a): a for a in arrows}
    for source in product(range(dim), repeat=n):
        col = _index(source, dim)
        for target in product(range(dim), repeat=m):
            lab = _labelling(source, target)
            val = 1
            for part in parts:
                if kind in ("matching", "partition"):
                    if len({lab[v] for v in part}) != 1:
                        val = 0
                elif kind == "signed":
                    a, b = part
                    if a[0] != b[0]:
                        val *= lab[a] == lab[b]
                    else:
                        tail, head = oriented[frozenset(part)]
                        x, y = lab[tail], lab[head]
                        val *= 1 if (x < h and y == x + h) else -1 if (y < h and x == y + h) else 0
                else:  # planar
                    a, b = part
                    if a[0] != b[0]:
                        val *= lab[a] == lab[b]
                    else:
                        table = cap if a[0] == BOTTOM else cup
                        val *= table.get((lab[a], lab[b]), 0)
                if not val:
                    break
            rows[_index(target, dim)][col] = val
    return rows


def planar_loop_value(q):
    """cap o cup on V (x) V, which must equal the loop parameter."""
    q = Fraction(q)
    return (-1 / q) * 1 + 1 * (-q)


# -- semisimplicity criteria ---------------------------------------------------


def rui_brauer_roots(n):
    """Rational parameters where the Brauer algebra B_n is not semisimple.

    H. Rui, A criterion on the semisimple Brauer algebras, JCTA 111 (2005):
    for delta != 0, B_n(delta) is semisimple iff delta is not in
    Z(n) = {4-2n <= i <= n-2} minus the odd i with 4-2n < i <= 3-n;
    B_n(0) is semisimple iff n is 1, 3 or 5.
    """
    z = {
        i
        for i in range(4 - 2 * n, n - 1)
        if not (4 - 2 * n < i <= 3 - n and i % 2)
    }
    z.discard(0)
    if n not in (1, 3, 5):
        z.add(0)
    return {Fraction(i) for i in z} if n >= 2 else set()


def martin_partition_roots(n):
    """P. Martin (1994): P_n(delta) is semisimple iff delta is not one of
    0, 1, ..., 2n-2."""
    return {Fraction(i) for i in range(2 * n - 1)}


def temperley_lieb_roots(n):
    """Rational loop values where TL_n is not semisimple: delta = 2cos(pi k/l)
    with 3 <= l <= n gives the rationals +-1 (l = 3); delta = 0 (l = 2)
    is singular exactly for even n."""
    roots = set()
    if n >= 3:
        roots |= {Fraction(-1), Fraction(1)}
    if n >= 2 and n % 2 == 0:
        roots.add(Fraction(0))
    return roots


def signed_roots(n):
    """The oriented algebra at delta is the Brauer algebra at -delta."""
    return {-r for r in rui_brauer_roots(n)}


ROOT_ORACLES = {
    "brauer": rui_brauer_roots,
    "partition": martin_partition_roots,
    "temperley_lieb": temperley_lieb_roots,
    "signed": signed_roots,
}


def determinant(matrix):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    M = [[Fraction(x) for x in row] for row in matrix]
    n = len(M)
    sign, prev = 1, Fraction(1)
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) / prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1] if n else Fraction(1)


# -- symmetric-group combinatorics ---------------------------------------------


def partitions(n, cap=None):
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(min(n, cap), 0, -1)
        for rest in partitions(n - first, first)
    ]


_syt = {(): 1}


def syt_count(lam):
    """Standard Young tableaux by the branching rule: f^lam is the sum of
    f^{lam - c} over the removable corners c."""
    lam = tuple(lam)
    if lam not in _syt:
        total = 0
        for i, row in enumerate(lam):
            if i + 1 == len(lam) or lam[i + 1] < row:
                smaller = lam[:i] + (row - 1,) + lam[i + 1 :]
                total += syt_count(tuple(p for p in smaller if p))
        _syt[lam] = total
    return _syt[lam]


def centralizer(mu):
    z = 1
    for part in set(mu):
        k = mu.count(part)
        z *= part**k * factorial(k)
    return z
