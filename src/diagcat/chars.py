"""Integer-partition combinatorics and symmetric-group characters.

Everything here is exact: hook-length dimensions, Murnaghan-Nakayama
character values, Littlewood-Richardson coefficients by tableau
enumeration, and the restriction-multiplicity formulas expressed as
sums of LR coefficients at doubled partitions, together with the
induced-character machinery used to cross-check them.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial

from .errors import SizeMismatch


def partition_key(mu):
    """Stable textual key for a partition: '3,1' and '()' when empty."""
    return ",".join(map(str, mu)) if mu else "()"


def parse_partition(text):
    """Inverse of partition_key, accepting '' and '0' for empty."""
    text = text.strip()
    if text in ("", "()", "0"):
        return ()
    return check_partition(int(p) for p in text.split(","))


def check_partition(parts):
    """Normalize to a weakly decreasing tuple of positive integers."""
    parts = tuple(int(p) for p in parts if p != 0)
    if any(p < 0 for p in parts):
        raise ValueError(f"negative part in {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {parts}")
    return parts


def partitions_of(n):
    """All partitions of n in reverse lexicographic order."""

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return list(gen(n, n))


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
    lam = check_partition(lam)
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
    n = sum(lam)
    rows = len(lam)
    filled = [[None] * r for r in lam]

    def place(k):
        if k > n:
            yield [tuple(r) for r in filled]
            return
        for i in range(rows):
            row = filled[i]
            j = next((c for c, v in enumerate(row) if v is None), None)
            if j is None:
                continue
            if i > 0 and filled[i - 1][j] is None:
                continue
            row[j] = k
            yield from place(k + 1)
            row[j] = None

    return list(place(1))


def _beta_set(lam, rows):
    return tuple(lam[i] + (rows - 1 - i) if i < len(lam) else (rows - 1 - i)
                 for i in range(rows))


def _partition_from_beta(beta):
    beta = sorted(beta, reverse=True)
    rows = len(beta)
    lam = [beta[i] - (rows - 1 - i) for i in range(rows)]
    return tuple(p for p in lam if p > 0)


@lru_cache(maxsize=None)
def sym_character(lam, mu):
    """Character of the irreducible labelled lam at cycle type mu.

    Murnaghan-Nakayama recursion in beta-set form: removing a border
    strip of length r moves one beta number down by r; the sign counts
    the beta numbers jumped over.
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise SizeMismatch(f"|{lam}| != |{mu}|")
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    rows = max(len(lam), 1)
    beta = set(_beta_set(lam, rows))
    total = 0
    for b in sorted(beta):
        if b - r < 0 or (b - r) in beta:
            continue
        height = sum(1 for x in beta if b - r < x < b)
        new_beta = (beta - {b}) | {b - r}
        new_lam = _partition_from_beta(tuple(new_beta))
        total += (-1) ** height * sym_character(new_lam, rest)
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

    Counts semistandard skew tableaux of shape target/lam with content
    mu whose reverse reading word is a lattice word. Returns 0 whenever
    the sizes or containment fail. Results are memoized on the
    normalized partitions.
    """
    return _lr_count(
        check_partition(lam), check_partition(mu), check_partition(target)
    )


@lru_cache(maxsize=None)
def _lr_count(lam, mu, target):
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
            if _is_lattice(fill, len(mu)):
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


def _is_lattice(fill, nvals):
    counts = [0] * (nvals + 1)
    for row in fill:
        for v in reversed(row):
            counts[v] += 1
            if v > 1 and counts[v] > counts[v - 1]:
                return False
    return True


def delta_multiplicity(lam, mu):
    """Weight-mu multiplicity of the standard object at lowest weight lam:
    the sum of LR coefficients of mu at lam with doubled partitions."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    diff = sum(mu) - sum(lam)
    if diff < 0 or diff % 2 != 0:
        return 0
    return sum(
        lr_coefficient(lam, doubled(nu), mu) for nu in partitions_of(diff // 2)
    )


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
    lam = check_partition(lam)
    mu = check_partition(mu)
    n, m = sum(lam), sum(mu)
    k = m - n
    if k < 0 or k % 2 != 0:
        return 0
    total = Fraction(0)
    h_order = 2**(k // 2) * factorial(k // 2)
    for rho in partitions_of(n):
        chi_lam = sym_character(lam, rho)
        if chi_lam == 0:
            continue
        inner = 0
        for h_type, count in _hyperoctahedral_type_counts(k):
            combined = tuple(sorted(rho + h_type, reverse=True))
            inner += count * sym_character(mu, combined)
        total += Fraction(class_size(rho) * chi_lam * inner)
    value = total / (factorial(n) * h_order)
    assert value.denominator == 1
    return int(value)


def principal_permutation_multiplicity(n, m, mu):
    """Multiplicity of the mu-irreducible in the permutation action of
    the top symmetric group on the matching diagrams from [n] to [m]."""
    mu = check_partition(mu)
    if (n + m) % 2 != 0:
        return 0
    total = Fraction(0)
    for rho in partitions_of(m):
        chi = sym_character(mu, rho)
        if chi != 0:
            total += Fraction(class_size(rho) * chi * _fixed_matchings(n, m, rho))
    value = total / factorial(m)
    assert value.denominator == 1
    return int(value)


@lru_cache(maxsize=None)
def _fixed_matchings(n, m, rho):
    """Number of matching diagrams [n] -> [m] fixed by a permutation of
    cycle type rho acting on the top row."""
    from .diagrams import TOP, enumerate_diagrams

    sigma = _permutation_of_type(rho)

    def move(v):
        return (TOP, sigma[v[1] - 1]) if v[0] == TOP else v

    fixed = 0
    for d in enumerate_diagrams("brauer", n, m):
        moved = sorted(tuple(sorted((move(v), move(w)))) for v, w in d.edges)
        fixed += tuple(moved) == d.edges
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
    if (n + m) % 2 != 0:
        raise SizeMismatch("hom space is zero for odd total size")
    details = {}
    ok = True
    for mu in partitions_of(m):
        lhs = principal_permutation_multiplicity(n, m, mu)
        rhs = 0
        for lam in partitions_of(n):
            acc = 0
            for j in range(n, -1, -2):
                for nu in partitions_of(j):
                    acc += ptilde_standard_multiplicity(
                        lam, nu
                    ) * delta_multiplicity(nu, mu)
            rhs += dim_specht(lam) * acc
        details[partition_key(mu)] = {"lhs": lhs, "rhs": rhs}
        if lhs != rhs:
            ok = False
    return {"source": n, "target": m, "pass": ok, "per_weight": details}
