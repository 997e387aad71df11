"""Exact polynomial arithmetic in the loop parameter.

Every morphism coefficient in this package is a polynomial in a single
formal parameter ``d`` (the scalar assigned to each closed loop produced
by composition) with arbitrary-precision rational coefficients.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm


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


def rational_roots(poly):
    """All rational roots of a nonzero DeltaPoly, sorted ascending.

    Multiplicities are not reported. Uses the rational root bound on the
    integer-scaled polynomial; every candidate is checked exactly.
    """
    if poly.is_zero():
        raise ValueError("the zero polynomial has every root")
    coeffs = list(poly.coeffs)
    roots = set()
    k = 0
    while coeffs[0] == 0:
        coeffs.pop(0)
        k += 1
    if k:
        roots.add(Fraction(0))
    if len(coeffs) == 1:
        return sorted(roots)
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    a0, alead = abs(ints[0]), abs(ints[-1])
    for p in _divisors(a0):
        for q in _divisors(alead):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if poly.evaluate(cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def _divisors(n):
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)
