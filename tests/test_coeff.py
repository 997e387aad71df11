import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagcat.coeff import DeltaPoly, rational_roots
from helpers import poly_add, poly_mul, poly_trim


def rand_poly(rng, max_deg=8):
    deg = rng.randint(-1, max_deg)
    if deg < 0:
        return DeltaPoly.zero()
    return DeltaPoly(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg + 1)]
    )


def test_normal_form():
    assert DeltaPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert DeltaPoly([0, 0]).coeffs == ()
    assert DeltaPoly.zero().is_zero()
    assert DeltaPoly([1, 2]) == DeltaPoly([Fraction(1), Fraction(2), Fraction(0)])


def test_evaluate_examples():
    d = DeltaPoly([0, 1])
    assert d.evaluate(3) == 3
    assert DeltaPoly([-1, 0, 1]).evaluate(2) == 3
    assert DeltaPoly.zero().evaluate(Fraction(7, 3)) == 0


def test_ring_axioms_random():
    rng = random.Random(20240)
    for _ in range(300):
        p, q, r = (rand_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + DeltaPoly.zero() == p
        assert p * DeltaPoly.one() == p


def test_evaluate_is_ring_hom():
    rng = random.Random(7)
    for _ in range(200):
        p, q = rand_poly(rng), rand_poly(rng)
        x = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)
        assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)


def test_division():
    p = DeltaPoly([2, 3, 1])  # (d+1)(d+2)
    q = DeltaPoly([1, 1])
    assert p.exact_div(q) == DeltaPoly([2, 1])
    with pytest.raises(ValueError):
        DeltaPoly([1, 1, 1]).exact_div(q)


def test_text_form():
    assert str(DeltaPoly.zero()) == "0"
    assert str(DeltaPoly([Fraction(1, 2), 0, 3])) == "1/2 + 3*d^2"
    assert str(DeltaPoly([0, 1])) == "1*d"


def product(*factors):
    out = DeltaPoly.one()
    for f in factors:
        out = out * DeltaPoly(f)
    return out


def test_rational_roots():
    # d * (d - 2) * (2d + 1)
    p = DeltaPoly([0, 1]) * DeltaPoly([-2, 1]) * DeltaPoly([1, 2])
    assert rational_roots(p) == [Fraction(-1, 2), Fraction(0), Fraction(2)]
    assert rational_roots(DeltaPoly([1, 0, 1])) == []
    assert rational_roots(DeltaPoly([-2, 0, 1])) == []
    assert rational_roots(DeltaPoly([5])) == []
    assert rational_roots(DeltaPoly([Fraction(-2, 3)])) == []
    # Fraction coefficients: (d/2 - 1/3)(d + 3/4)
    p = product([Fraction(-1, 3), Fraction(1, 2)], [Fraction(3, 4), 1])
    assert rational_roots(p) == [Fraction(-3, 4), Fraction(2, 3)]
    # negative leading coefficient: -3 (d - 2)(d + 1/2)
    p = product([-3], [-2, 1], [Fraction(1, 2), 1])
    assert rational_roots(p) == [Fraction(-1, 2), Fraction(2)]
    # repeated roots: d^3 (d - 1)^4 (d + 2)^2
    p = product([0, 0, 0, 1], *[[-1, 1]] * 4, [2, 1], [2, 1])
    assert rational_roots(p) == [Fraction(-2), Fraction(0), Fraction(1)]
    # the Sturm sequence of d^4 + d - 2 = (d - 1)(d^3 + d^2 + d + 2) drops
    # from degree 3 to 1, so the pseudo-remainder's sign must be undone
    assert rational_roots(DeltaPoly([-2, 1, 0, 0, 1])) == [Fraction(1)]
    assert rational_roots(DeltaPoly([-18, 1, 0, 0, 1])) == [Fraction(2)]
    # dyadic roots land on the bisection points
    p = product([-1, 1], [-2, 1], [-4, 1], [1, 2], [-1, 4], [8, 1])
    assert rational_roots(p) == [
        Fraction(-8), Fraction(-1, 2), Fraction(1, 4), Fraction(1), Fraction(2), Fraction(4)
    ]
    # d (d^2 + 10d - 1) and d (d^2 - 10d - 1): an irrational root within
    # 1/10 of 0 is isolated next to the bisection point 0, whose simplest
    # rational is 0 again; the root 0 is still reported once
    assert rational_roots(DeltaPoly([0, -1, 10, 1])) == [Fraction(0)]
    assert rational_roots(DeltaPoly([0, -1, -10, 1])) == [Fraction(0)]
    with pytest.raises(ValueError):
        rational_roots(DeltaPoly.zero())


def test_rational_roots_of_a_huge_constant_term():
    # (d^2 - 10^30)(d - 1)^3 (2d + 3)(5d - 7/3): trial division up to the
    # square root of the constant term would take about 10^15 steps
    p = product([-10**30, 0, 1], [-1, 1], [-1, 1], [-1, 1], [3, 2], [Fraction(-7, 3), 5])
    start = time.perf_counter()
    roots = rational_roots(p)
    assert time.perf_counter() - start < 1.0
    assert roots == [
        Fraction(-10**15), Fraction(-3, 2), Fraction(7, 15), Fraction(1), Fraction(10**15)
    ]


def _is_square(n):
    return n >= 0 and math.isqrt(n) ** 2 == n


# p*d - q, and a*d^2 + b*d + c irreducible over the rationals
LINEAR = st.tuples(st.integers(1, 12), st.integers(-40, 40))
QUADRATIC = st.tuples(st.integers(1, 6), st.integers(-12, 12), st.integers(-12, 12)).filter(
    lambda t: not _is_square(t[1] ** 2 - 4 * t[0] * t[2])
)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    st.lists(LINEAR, max_size=6),
    st.lists(QUADRATIC, max_size=3),
    st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool),
)
def test_rational_roots_against_sympy(linears, quadratics, scale):
    import sympy

    factors = [[-q, p] for p, q in linears] + [[c, b, a] for a, b, c in quadratics]
    poly = product([scale], *factors)
    d = sympy.Symbol("d")
    oracle = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(poly.coeffs)], d
    )
    _, irreducibles = oracle.factor_list()
    want = set()
    for f, _ in irreducibles:
        if f.degree() == 1:
            lead, const = f.all_coeffs()
            root = -const / lead
            want.add(Fraction(int(root.p), int(root.q)))
    assert rational_roots(poly) == sorted(want)


def convolve(p, q):
    # the general product, written out independently of DeltaPoly.__mul__
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs))
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return DeltaPoly(out)


def test_constant_factor_products():
    rng = random.Random(31)
    constants = [1, -1, 3, Fraction(1), Fraction(-2, 7), Fraction(5, 3)]
    for _ in range(60):
        p = rand_poly(rng)
        for c in constants:
            expected = convolve(p, DeltaPoly(c))
            for product in (p * c, c * p, p * DeltaPoly(c), DeltaPoly(c) * p):
                assert product == expected
                assert all(type(a) is Fraction for a in product.coeffs)
                assert not product.coeffs or product.coeffs[-1] != 0
    p = DeltaPoly([Fraction(1, 2), 0, 3])
    assert p * 1 is p and 1 * p is p
    assert p * DeltaPoly.one() is p and DeltaPoly.one() * p is p


def test_zero_factor_products():
    p = DeltaPoly([Fraction(1, 2), 0, 3])
    zero = DeltaPoly.zero()
    for product in (
        p * zero, zero * p, zero * zero, p * 0, 0 * p, zero * 5,
        zero * DeltaPoly(Fraction(2, 3)), DeltaPoly(-1) * zero,
    ):
        assert product.coeffs == ()


# -- the int ring against plain tuples of Fractions --------------------

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=300)
RATIONALS = st.fractions(min_value=-30, max_value=30, max_denominator=12)
ENTRIES = st.one_of(st.integers(-30, 30), RATIONALS, st.just(0))
LISTS = st.lists(ENTRIES, max_size=6)


def poly_text(a):
    terms = [
        str(c) if i == 0 else f"{c}*d" if i == 1 else f"{c}*d^{i}"
        for i, c in enumerate(a)
        if c
    ]
    return " + ".join(terms) or "0"


def poly_value(a, x):
    return sum((c * x**i for i, c in enumerate(a)), Fraction(0))


def assert_matches(p, want, x):
    num, den = p._num, p._den
    assert type(den) is int and den > 0
    assert all(type(c) is int for c in num)
    assert math.gcd(den, *num) == 1
    assert not num or num[-1] != 0
    assert p.coeffs == want
    assert all(type(c) is Fraction for c in p.coeffs)
    assert str(p) == poly_text(want)
    assert hash(p) == hash(want)
    value = p.evaluate(x)
    assert type(value) is Fraction and value == poly_value(want, x)


@SEEDED
@given(LISTS, LISTS, RATIONALS, st.integers(0, 3), st.sampled_from((1, -1)))
def test_ring_against_fraction_lists(xs, ys, x, k, sign):
    p, q = DeltaPoly(xs), DeltaPoly(ys)
    a, b = poly_trim(xs), poly_trim(ys)
    neg_b = tuple(-c for c in b)
    c = ys[0] if ys else 0
    cases = [
        (p, a),
        (p + q, poly_add(a, b)),
        (p - q, poly_add(a, neg_b)),
        (-q, neg_b),
        (p * q, poly_mul(a, b)),
        (p * c, poly_mul(a, poly_trim([c]))),
        (c * p, poly_mul(a, poly_trim([c]))),
        (p + c, poly_add(a, poly_trim([c]))),
        (c - p, poly_add(poly_trim([c]), tuple(-v for v in a))),
        (p._shifted(k, sign), poly_mul(a, poly_trim([0] * k + [sign]))),
    ]
    for poly, want in cases:
        assert_matches(poly, want, x)
    assert (p == q) == (a == b)
    assert (p - q + q == p) and hash(p - q + q) == hash(p)
    if b:
        assert (p * q).exact_div(q) == p
    assert (p == c) == (a == poly_trim([c]))
