"""Exact polynomial arithmetic in the loop parameter.

Every morphism coefficient in this package is a polynomial in a single
formal parameter ``d`` (the scalar assigned to each closed loop produced
by composition) with arbitrary-precision rational coefficients.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


def _normalize(coeffs):
    # strip trailing zeros; the zero polynomial is the empty tuple
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(Fraction(c) for c in coeffs[:n])


class DeltaPoly:
    """Polynomial in the formal parameter d over the rationals.

    Coefficients are stored densely, constant term first, with no
    trailing zeros; two values are equal iff their normal forms are.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, (int, Fraction)):
            coeffs = (coeffs,)
        object.__setattr__(self, "coeffs", _normalize(tuple(coeffs)))

    def __setattr__(self, name, value):
        raise AttributeError("DeltaPoly is immutable")

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def delta_power(cls, c, scalar=1):
        """scalar * d**c"""
        if c < 0:
            raise ValueError("negative d-exponent")
        if scalar == 0:
            return cls.zero()
        return _delta_power_cached(c, scalar)

    @property
    def degree(self):
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DeltaPoly(other)
        if not isinstance(other, DeltaPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DeltaPoly(other)
        if not isinstance(other, DeltaPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return DeltaPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return DeltaPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DeltaPoly(other)
        if not isinstance(other, DeltaPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return DeltaPoly(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(Fraction(other)) if other else DeltaPoly.zero()
        if not isinstance(other, DeltaPoly):
            return NotImplemented
        if len(self.coeffs) == 1:
            return other._scaled(self.coeffs[0])
        if len(other.coeffs) == 1:
            return self._scaled(other.coeffs[0])
        if not self.coeffs or not other.coeffs:
            return DeltaPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return DeltaPoly(out)

    __rmul__ = __mul__

    def _scaled(self, c):
        # c is a nonzero Fraction, so the scaled tuple is still normal
        if c == 1:
            return self
        out = object.__new__(DeltaPoly)
        object.__setattr__(out, "coeffs", tuple(c * a for a in self.coeffs))
        return out

    def divmod(self, other):
        """Polynomial division with remainder; divisor must be nonzero."""
        if not isinstance(other, DeltaPoly):
            other = DeltaPoly(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        dlead = other.coeffs[-1]
        dn = len(other.coeffs)
        while len(rem) >= dn:
            c = rem[-1] / dlead
            k = len(rem) - dn
            quo[k] = c
            for i, b in enumerate(other.coeffs):
                rem[k + i] -= c * b
            while rem and rem[-1] == 0:
                rem.pop()
            if not rem:
                break
        return DeltaPoly(quo), DeltaPoly(rem)

    def exact_div(self, other):
        """Quotient when the division is known to be exact."""
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def evaluate(self, x):
        """Value at an exact rational point, by Horner's rule."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self):
        # textual form `a0 + a1*d + a2*d^2`, rationals printed as p/q
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*d")
            else:
                parts.append(f"{c}*d^{i}")
        return " + ".join(parts)

    def __repr__(self):
        return f"DeltaPoly({self.coeffs!r})"


@lru_cache(maxsize=4096)
def _delta_power_cached(c, scalar):
    return DeltaPoly((0,) * c + (scalar,))


# -- integer coefficient lists ----------------------------------------
#
# Discriminants and their roots are computed over Z[d] on plain lists of
# ints, constant term first, with no trailing zeros ([] is zero). Fraction
# arithmetic takes a gcd on every operation; here elimination divides only
# exactly, and the root finder keeps remainders integral by
# pseudo-division.


def int_mul(a, b):
    """Product of two integer coefficient lists."""
    if not a or not b:
        return []
    nb = len(b)
    out = [0] * (len(a) + nb - 1)
    for i, x in enumerate(a):
        if x:
            out[i : i + nb] = [o + x * y for o, y in zip(out[i : i + nb], b)]
    return out


def int_sub(a, b):
    """Difference of two integer coefficient lists."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    while out and out[-1] == 0:
        out.pop()
    return out


def int_exact_div(a, b):
    """Quotient a / b over Z[d]; ValueError unless b divides a there."""
    rem = list(a)
    lead, nb = b[-1], len(b)
    quo = [0] * max(len(rem) - nb + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        q, r = divmod(rem[k + nb - 1], lead)
        if r:
            raise ValueError("division is not exact")
        if q:
            quo[k] = q
            rem[k : k + nb] = [x - q * y for x, y in zip(rem[k : k + nb], b)]
    if any(rem):
        raise ValueError("division is not exact")
    return quo


def _content_free(a):
    # divide out the positive gcd of the coefficients, keeping every sign
    g = gcd(*a)
    return [c // g for c in a] if g > 1 else a


def _primitive(a):
    a = _content_free(a)
    return [-c for c in a] if a[-1] < 0 else a


def _derivative(a):
    return [i * c for i, c in enumerate(a)][1:]


def _prem(a, b):
    """Pseudo-remainder: lead(b)**(deg a - deg b + 1) * a modulo b."""
    rem = list(a)
    lead, nb = b[-1], len(b)
    for k in range(len(a) - nb, -1, -1):
        c = rem[k + nb - 1]
        rem = [lead * x for x in rem]
        rem[k : k + nb] = [x - c * y for x, y in zip(rem[k : k + nb], b)]
    rem = rem[: nb - 1]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _gcd(a, b):
    # primitive pseudo-remainder sequence; the result is primitive
    while b:
        a, b = b, _content_free(_prem(a, b))
    return _primitive(a)


def _sturm_sequence(f):
    """Sturm sequence of a square-free f: each term is -(rem of the two
    before), scaled by a positive integer so that signs are kept."""
    seq = [f, _derivative(f)]
    while len(seq[-1]) > 1:
        a, b = seq[-2], seq[-1]
        r = _prem(a, b)
        # prem multiplies by lead(b)**(deg a - deg b + 1); undo its sign
        if b[-1] > 0 or (len(a) - len(b)) % 2:
            r = [-c for c in r]
        seq.append(_content_free(r))
    return seq


def _sign_changes(seq, x):
    """Sign changes of the sequence at the rational x, zeros skipped."""
    num, den = x.numerator, x.denominator
    changes, last = 0, 0
    for p in seq:
        # den**deg(p) * p(x) has the sign of p(x)
        acc, pw = 0, 1
        for c in reversed(p):
            acc = acc * num + c * pw
            pw *= den
        if acc:
            if last and (acc > 0) != (last > 0):
                changes += 1
            last = acc
    return changes


def _simplest_between(lo, hi):
    """The rational of least denominator in the closed interval [lo, hi]."""
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -_simplest_between(-hi, -lo)
    fl = lo.numerator // lo.denominator
    if fl == lo:
        return lo
    if fl + 1 <= hi:
        return Fraction(fl + 1)
    return fl + 1 / _simplest_between(1 / (hi - fl), 1 / (lo - fl))


def _root_intervals(f):
    """Disjoint intervals (lo, hi], each holding exactly one real root of
    the square-free integer polynomial f and narrower than
    1 / (2 lead(f)**2), so that each holds at most one rational whose
    denominator divides lead(f)."""
    seq = _sturm_sequence(f)
    # Cauchy: every root lies below 1 + max|a_i| / |lead| < 2**(e + 1)
    e = max(max(abs(c).bit_length() for c in f[:-1]) - abs(f[-1]).bit_length() + 1, 0)
    lo, hi = Fraction(-(2 ** (e + 1))), Fraction(2 ** (e + 1))
    width = Fraction(1, 2 * f[-1] ** 2)
    stack = [(lo, _sign_changes(seq, lo), hi, _sign_changes(seq, hi))]
    out = []
    while stack:
        lo, vlo, hi, vhi = stack.pop()
        # Sturm: vlo - vhi distinct roots lie in (lo, hi]
        if vlo == vhi:
            continue
        if vlo - vhi == 1 and hi - lo < width:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        vmid = _sign_changes(seq, mid)
        stack.append((lo, vlo, mid, vmid))
        stack.append((mid, vmid, hi, vhi))
    return out


def rational_roots(poly):
    """All rational roots of a nonzero DeltaPoly, sorted ascending.

    Multiplicities are not reported. A factor d**k gives the root 0. The
    rest is scaled to a primitive integer polynomial and reduced to its
    square-free part f / gcd(f, f'). Sturm sequences isolate the real
    roots of that part inside a power-of-two Cauchy bound, and bisection
    narrows each to an interval below 1 / (2 a**2), a the leading
    coefficient: a rational root there has a denominator dividing a, so
    it is the simplest rational of its interval. Each such candidate is
    confirmed by evaluating the original polynomial. No coefficient is
    factored.
    """
    if poly.is_zero():
        raise ValueError("the zero polynomial has every root")
    coeffs = poly.coeffs
    k = 0
    while coeffs[k] == 0:
        k += 1
    roots = [Fraction(0)] if k else []
    if len(coeffs) - k > 1:
        scale = lcm(*(c.denominator for c in coeffs))
        f = _primitive([c.numerator * (scale // c.denominator) for c in coeffs[k:]])
        # primitive, with a positive leading coefficient, by Gauss's lemma
        f = int_exact_div(f, _gcd(f, _derivative(f)))
        for lo, hi in _root_intervals(f):
            cand = _simplest_between(lo, hi)
            # f(0) != 0, so a candidate 0 is never a root of f
            if cand and poly.evaluate(cand) == 0:
                roots.append(cand)
    return sorted(roots)
