"""Integer-partition combinatorics and symmetric-group characters.

Everything here is exact: hook-length dimensions, Murnaghan-Nakayama
character values, Littlewood-Richardson coefficients read off one
product expansion per pair of factors (the second factor's rows are
added one horizontal strip at a time, kept while the reading word is
a lattice word), and the restriction-multiplicity formulas expressed
as sums of LR coefficients at doubled partitions, together with the
induced-character machinery used to cross-check them.

Partitions are checked once, at the public entry points, through a memo
of `check_partition` keyed on the parts as a tuple. Behind them the
private kernels (`_chi`, `_lr`, `_delta`, with `_chi` and `_lr_product`
memoized) take partitions that are already normal tuples and call one
another without checking again.
"""

from functools import lru_cache
from itertools import permutations, zip_longest
from math import factorial

from .algebra import hom_basis
from .diagrams import as_int, check_nonnegative, renumbered
from .errors import NotAnIntegerPartition, SizeMismatch


def partition_key(mu):
    """Stable textual key for a partition: '3,1' and '()' when empty."""
    return ",".join(map(str, mu)) if mu else "()"


def parse_partition(text):
    """Inverse of partition_key, accepting '' and '0' for empty."""
    text = text.strip()
    if text in ("", "()", "0"):
        return ()
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise NotAnIntegerPartition(f"parts must be integers: {text!r}") from None
    return check_partition(parts)


def check_partition(parts):
    """Normalize to a weakly decreasing tuple of positive integers; a
    part that is not an integral number is refused, not truncated."""
    out = []
    rising = False
    for p in parts:
        if p != 0:
            q = as_int(p)
            if q is None:
                raise NotAnIntegerPartition(f"parts must be integers: {p!r}")
            p = q
            if out and p > out[-1]:
                rising = True
            out.append(p)
    # without a rise the smallest part is the last one
    if rising or (out and out[-1] < 0):
        parts = tuple(out)
        if min(parts) < 0:
            raise NotAnIntegerPartition(f"negative part in {parts}")
        raise NotAnIntegerPartition(f"parts must be weakly decreasing: {parts}")
    return tuple(out)


@lru_cache(maxsize=None)
def _normal(parts):
    return check_partition(parts)


def _partition(parts):
    """check_partition through a memo keyed on the parts as a tuple; a
    refusal raises, so it is never memoized."""
    try:
        return _normal(tuple(parts))
    except TypeError:  # an unhashable part
        return check_partition(parts)


def partitions_of(n):
    """All partitions of n in reverse lexicographic order."""
    [n] = check_nonnegative("partition size", n)
    return list(_capped_partitions(n, n))


def _capped_partitions(remaining, cap):
    """The partitions of `remaining` with no part above `cap`, in
    reverse lexicographic order."""
    if remaining == 0:
        yield ()
        return
    for first in range(min(remaining, cap), 0, -1):
        for rest in _capped_partitions(remaining - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _partitions(n):
    return tuple(partitions_of(n))


def doubled(nu):
    return tuple(2 * p for p in nu)


def conjugate_partition(lam):
    if not lam:
        return ()
    return tuple(
        sum(1 for p in lam if p > i) for i in range(lam[0])
    )


def dim_specht(lam):
    """Number of standard Young tableaux, by the hook length formula."""
    lam = _partition(lam)
    n = sum(lam)
    conj = conjugate_partition(lam)
    denom = 1
    for i, row in enumerate(lam):
        for j in range(row):
            denom *= (row - j) + (conj[j] - i) - 1
    return factorial(n) // denom


def standard_tableaux(lam):
    """Brute-force enumeration of standard Young tableaux (test oracle)."""
    lam = check_partition(lam)
    return list(_place(sum(lam), [[None] * r for r in lam], 1))


def _place(n, filled, k):
    """Each standard filling of the rows `filled` that places k..n in
    their empty cells, the rest already placed."""
    if k > n:
        yield [tuple(r) for r in filled]
        return
    for i, row in enumerate(filled):
        j = next((c for c, v in enumerate(row) if v is None), None)
        if j is None:
            continue
        if i > 0 and filled[i - 1][j] is None:
            continue
        row[j] = k
        yield from _place(n, filled, k + 1)
        row[j] = None


def sym_character(lam, mu):
    """Character of the irreducible labelled lam at cycle type mu."""
    lam, mu = _partition(lam), _partition(mu)
    if sum(lam) != sum(mu):
        raise SizeMismatch(f"|{lam}| != |{mu}|")
    return _chi(lam, mu)


@lru_cache(maxsize=None)
def _chi(lam, mu):
    """sym_character on normal partitions of one size.

    Murnaghan-Nakayama recursion on the decreasing beta list
    lam[i] + rows - 1 - i: removing a border strip of length r = mu[0]
    moves one beta number b down to a free place b - r. The beta numbers
    it jumps over, beta[i + 1:j], give the sign; each of their rows moves
    up one place and loses one box.
    """
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    rows = len(lam)
    beta = [p + rows - 1 - i for i, p in enumerate(lam)]
    total = 0
    for i, b in enumerate(beta):
        low = b - r
        if low < 0:
            break
        j = i + 1
        while j < rows and beta[j] > low:
            j += 1
        if j < rows and beta[j] == low:
            continue
        moved = [p - 1 for p in lam[i + 1:j]]
        moved.append(low - rows + j)
        if j == rows:  # rows emptied by the strip are dropped
            while moved and not moved[-1]:
                moved.pop()
        value = _chi(lam[:i] + tuple(moved) + lam[j:], rest)
        total += value if (j - i) % 2 else -value
    return total


def cycle_type(images):
    """Cycle type of a permutation given as a tuple of 1-based images."""
    n = len(images)
    seen = [False] * (n + 1)
    lengths = []
    for i in range(1, n + 1):
        if seen[i]:
            continue
        ln, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = images[j - 1]
            ln += 1
        lengths.append(ln)
    return tuple(sorted(lengths, reverse=True))


def centralizer_order(mu):
    z = 1
    mult = {}
    for p in mu:
        mult[p] = mult.get(p, 0) + 1
    for p, k in mult.items():
        z *= p**k * factorial(k)
    return z


def class_size(mu):
    return factorial(sum(mu)) // centralizer_order(mu)


def lr_coefficient(lam, mu, target):
    """Littlewood-Richardson coefficient of target in lam * mu.

    Returns 0 whenever the sizes or containment fail. The whole product
    is expanded once per normalized pair and memoized; c(lam, mu) equals
    c(mu, lam), so the pair is taken in one order.
    """
    return _lr(_partition(lam), _partition(mu), _partition(target))


def _lr(lam, mu, target):
    """lr_coefficient on normal partitions."""
    product = _lr_product(lam, mu) if lam <= mu else _lr_product(mu, lam)
    return product.get(target, 0)


@lru_cache(maxsize=None)
def _lr_product(lam, mu):
    """{nu: c} with s_lam * s_mu = sum of c * s_nu, never to be modified.

    Row k of mu is added to lam as a horizontal strip of label k, kept
    only while the reading word is a lattice word: for every row r, the
    label-k cells in rows <= r are at most the label-(k-1) cells in rows
    < r. Partial tableaux with the same shape and last strip are merged.
    """
    states = {(lam, ()): 1}
    for size in mu:
        grown = {}
        for (shape, prev), count in states.items():
            # label 1 is unbounded; a later label may not enter row 1
            for strip in _strips(shape, size, prev, 0 if prev else size):
                new = zip_longest(shape, strip, fillvalue=0)
                key = (tuple(s + a for s, a in new), strip)
                grown[key] = grown.get(key, 0) + count
        states = grown
    product = {}
    for (shape, _), count in states.items():
        product[shape] = product.get(shape, 0) + count
    return product


def _strips(shape, left, prev, budget, r=0):
    """Yield each horizontal strip of left cells on shape, as the cells
    it adds to rows r, r + 1, ...; at most budget cells go in row r, and
    moving past row r adds prev[r] to what is left of the budget."""
    if left == 0:
        yield ()
    elif r <= len(shape):
        room = shape[r - 1] - (shape[r] if r < len(shape) else 0) if r else left
        extra = prev[r] if r < len(prev) else 0
        for a in range(min(left, room, budget), -1, -1):
            for rest in _strips(shape, left - a, prev, budget - a + extra, r + 1):
                yield (a,) + rest


def delta_multiplicity(lam, mu):
    """Weight-mu multiplicity of the standard object at lowest weight lam:
    the sum of LR coefficients of mu at lam with doubled partitions."""
    return _delta(_partition(lam), _partition(mu))


def _delta(lam, mu):
    """delta_multiplicity on normal partitions."""
    diff = sum(mu) - sum(lam)
    if diff < 0 or diff % 2 != 0:
        return 0
    return sum(_lr(lam, doubled(nu), mu) for nu in _partitions(diff // 2))


def ptilde_standard_multiplicity(lam, mu):
    """Standard-filtration multiplicity in the weight-lam projective.

    By reciprocity it is the weight-lam multiplicity of the standard
    object at lowest weight mu."""
    return delta_multiplicity(mu, lam)


def hyperoctahedral_elements(k):
    """The stabilizer of the matching (1 2)(3 4)... inside the symmetric
    group on [k], as tuples of images; k must be even."""
    if k % 2 != 0:
        raise ValueError("k must be even")
    half = k // 2
    out = []
    for pairs in permutations(range(half)):
        for flips in range(1 << half):
            img = [0] * k
            for i in range(half):
                a, b = 2 * i + 1, 2 * i + 2
                ta, tb = 2 * pairs[i] + 1, 2 * pairs[i] + 2
                if flips >> i & 1:
                    ta, tb = tb, ta
                img[a - 1] = ta
                img[b - 1] = tb
            out.append(tuple(img))
    return out


@lru_cache(maxsize=None)
def _hyperoctahedral_type_counts(k):
    counts = {}
    for h in hyperoctahedral_elements(k):
        ct = cycle_type(h)
        counts[ct] = counts.get(ct, 0) + 1
    return tuple(counts.items())


def induced_multiplicity_oracle(lam, mu):
    """Multiplicity of the mu-irreducible in the module induced from
    (lam-irreducible) x (trivial) along the product of the symmetric
    group on [n] with the matching stabilizer on the remaining points.

    Computed by the Frobenius character inner product; this is the
    independent route against which the LR-sum formula is tested.
    """
    lam, mu = _partition(lam), _partition(mu)
    n, m = sum(lam), sum(mu)
    k = m - n
    if k < 0 or k % 2 != 0:
        return 0
    total = 0
    h_order = 2**(k // 2) * factorial(k // 2)
    for rho in _partitions(n):
        chi_lam = _chi(lam, rho)
        if chi_lam == 0:
            continue
        inner = 0
        for h_type, count in _hyperoctahedral_type_counts(k):
            combined = tuple(sorted(rho + h_type, reverse=True))
            inner += count * _chi(mu, combined)
        total += class_size(rho) * chi_lam * inner
    return _exact_quotient(total, factorial(n) * h_order)


def principal_permutation_multiplicity(n, m, mu):
    """Multiplicity of the mu-irreducible in the permutation action of
    the top symmetric group on the matching diagrams from [n] to [m]."""
    mu = _partition(mu)
    if (n + m) % 2 != 0:
        return 0
    rhos = _partitions(m)
    if sum(mu) != m:
        raise SizeMismatch(f"|{mu}| != {m}")
    total = 0
    for rho in rhos:
        chi = _chi(mu, rho)
        if chi != 0:
            total += class_size(rho) * chi * _fixed_matchings(n, m, rho)
    return _exact_quotient(total, factorial(m))


def _exact_quotient(total, group_order):
    """A character inner product, summed over the group, divided by the
    group order; a remainder means the sum is wrong."""
    value, rest = divmod(total, group_order)
    if rest:
        raise ArithmeticError(
            f"character sum {total} is not a multiple of {group_order}"
        )
    return value


@lru_cache(maxsize=None)
def _fixed_matchings(n, m, rho):
    """Number of matching diagrams [n] -> [m] fixed by a permutation of
    cycle type rho acting on the top row."""
    sigma = _permutation_of_type(rho)
    fixed = 0
    for d in hom_basis("brauer", n, m):
        labels = d.labels()
        # top vertex j moves to sigma[j - 1], taking its label along
        moved = list(labels)
        for j, label in enumerate(labels[n:]):
            moved[n + sigma[j] - 1] = label
        fixed += renumbered(moved) == labels
    return fixed


def _permutation_of_type(rho):
    img = []
    start = 1
    for ln in rho:
        block = list(range(start, start + ln))
        img.extend(block[1:] + block[:1])
        start += ln
    return tuple(img)


def verify_principal_decomposition(n, m):
    """Check that the permutation character of the hom space matches the
    weight multiplicities predicted by the projective decomposition."""
    n, m = check_nonnegative("row size", n, m)
    if (n + m) % 2 != 0:
        raise SizeMismatch("hom space is zero for odd total size")
    details = {}
    ok = True
    for mu in _partitions(m):
        lhs = principal_permutation_multiplicity(n, m, mu)
        rhs = 0
        for lam in _partitions(n):
            acc = 0
            for j in range(n, -1, -2):
                for nu in _partitions(j):
                    # the weight-lam multiplicity of the standard object at nu
                    acc += _delta(nu, lam) * _delta(nu, mu)
            rhs += dim_specht(lam) * acc
        details[partition_key(mu)] = {"lhs": lhs, "rhs": rhs}
        if lhs != rhs:
            ok = False
    return {"source": n, "target": m, "pass": ok, "per_weight": details}
