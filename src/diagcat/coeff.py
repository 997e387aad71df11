"""Exact polynomial arithmetic in the loop parameter.

Every morphism coefficient in this package is a polynomial in a single
formal parameter ``d`` (the scalar assigned to each closed loop produced
by composition) with rational coefficients. A `DeltaPoly` keeps them as
int numerators over one positive int denominator, so each ring operation
takes at most one gcd, and a factor of +-d**k is a shift of the tuple.
"""

from fractions import Fraction
from math import gcd, lcm


class DeltaPoly:
    """Polynomial in the formal parameter d over the rationals.

    Stored as `_num`, a tuple of int numerators, constant term first,
    with no trailing zeros, over `_den`, a positive int with
    gcd(_den, *_num) == 1; zero is ((), 1). Two values are equal iff
    their normal forms are. `coeffs` is the derived tuple of Fractions.
    """

    __slots__ = ("_num", "_den")

    def __new__(cls, coeffs=()):
        if type(coeffs) is int:
            return _poly((coeffs,) if coeffs else ())
        if isinstance(coeffs, (int, Fraction)):
            coeffs = (coeffs,)
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = lcm(*[c.denominator for c in cs])
        return _reduced([c.numerator * (den // c.denominator) for c in cs], den)

    def __setattr__(self, name, value):
        raise AttributeError("DeltaPoly is immutable")

    @classmethod
    def zero(cls):
        return _ZERO

    @classmethod
    def one(cls):
        return _ONE

    @property
    def coeffs(self):
        den = self._den
        return tuple([Fraction(c, den) for c in self._num])

    @property
    def degree(self):
        """Degree, or -1 for the zero polynomial."""
        return len(self._num) - 1

    def is_zero(self):
        return not self._num

    def __bool__(self):
        return bool(self._num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DeltaPoly(other)
        if not isinstance(other, DeltaPoly):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        # the hash of the tuple of Fractions, as hash(Fraction(n)) == hash(n)
        return hash(self._num) if self._den == 1 else hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DeltaPoly(other)
        if not isinstance(other, DeltaPoly):
            return NotImplemented
        a, da, b, db = self._num, self._den, other._num, other._den
        if da != db:
            den = lcm(da, db)
            a = [c * (den // da) for c in a]
            b = [c * (den // db) for c in b]
            da = den
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _reduced(out, da)

    __radd__ = __add__

    def __neg__(self):
        return _poly(tuple([-c for c in self._num]), self._den)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, DeltaPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return DeltaPoly(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator) if other else _ZERO
        if not isinstance(other, DeltaPoly):
            return NotImplemented
        a, b = self._num, other._num
        if len(a) == 1:
            return other._scaled(a[0], self._den)
        if len(b) == 1:
            return self._scaled(b[0], other._den)
        if not a or not b:
            return _ZERO
        return _reduced(int_mul(a, b), self._den * other._den)

    __rmul__ = __mul__

    def _scaled(self, p, q):
        """self * p / q, for ints p != 0 and q > 0."""
        if p == 1 and q == 1:
            return self
        return _reduced([p * c for c in self._num], q * self._den)

    def _shifted(self, k, sign):
        """sign * d**k * self, for sign +1 or -1; the normal form is kept."""
        num = self._num
        if sign < 0:
            num = tuple([-c for c in num])
        elif not k:
            return self
        if k and num:
            num = (0,) * k + num
        return _poly(num, self._den)

    def exact_div(self, other):
        """Quotient when the division is known to be exact; ValueError
        when it is not."""
        if not isinstance(other, DeltaPoly):
            other = DeltaPoly(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        # a primitive divisor that divides over Q divides over Z
        # (Gauss's lemma); its content and both denominators scale after
        b = other._num
        content = gcd(*b)
        quo = int_exact_div(self._num, [c // content for c in b])
        return _reduced([c * other._den for c in quo], content * self._den)

    def evaluate(self, x):
        """Value at an exact rational point, by Horner's rule on ints:
        with x = p / q and degree n, the sum of num_i p**i q**(n-i) is
        den * q**n times the value."""
        x = Fraction(x)
        p, q = x.numerator, x.denominator
        acc, pw = 0, 1
        for c in reversed(self._num):
            acc = acc * p + c * pw
            pw *= q
        # pw ends at q**(n + 1)
        return Fraction(acc * q, pw * self._den)

    def __str__(self):
        # textual form `a0 + a1*d + a2*d^2`, rationals printed as p/q
        if not self._num:
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


_set_num = DeltaPoly._num.__set__
_set_den = DeltaPoly._den.__set__


def _poly(num, den=1):
    # trusted: num and den already in normal form
    p = object.__new__(DeltaPoly)
    _set_num(p, num)
    _set_den(p, den)
    return p


def _reduced(num, den):
    """The normal form of the list num over the positive int den."""
    while num and num[-1] == 0:
        num.pop()
    if not num:
        return _ZERO
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return _poly(tuple(num), den)


_ZERO = _poly(())
_ONE = _poly((1,))


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
    int numerators of the rest are made primitive and reduced to their
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
    num = poly._num
    k = 0
    while num[k] == 0:
        k += 1
    roots = [Fraction(0)] if k else []
    if len(num) - k > 1:
        f = _primitive(list(num[k:]))
        # primitive, with a positive leading coefficient, by Gauss's lemma
        f = int_exact_div(f, _gcd(f, _derivative(f)))
        for lo, hi in _root_intervals(f):
            cand = _simplest_between(lo, hi)
            # f(0) != 0, so a candidate 0 is never a root of f
            if cand and poly.evaluate(cand) == 0:
                roots.append(cand)
    return sorted(roots)
