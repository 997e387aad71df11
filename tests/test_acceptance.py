"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime against the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from diagcat import (
    DeltaPoly,
    Morphism,
    check_triangular_axioms,
    compose,
    disjoint_union,
    enumerate_diagrams,
    epsilon_sign,
    identity_diagram,
    make_diagram,
    morphism_compose,
    morphism_tensor,
    morphism_transpose,
    transpose,
    verify_t3,
)
from diagcat.algebra import discriminant_rational_roots, is_semisimple_at
from diagcat.chars import (
    delta_multiplicity,
    induced_multiplicity_oracle,
    partitions_of,
    verify_principal_decomposition,
)
from diagcat.taut import TautContext, check_p2_p0_surjectivity, verify_taut_functoriality


def b(i):
    return (0, i)


def t(i):
    return (1, i)


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed or elapsed >= budget_seconds else "PASS"
        print(
            f"criterion {number} ({description}): {status} "
            f"in {elapsed:.2f}s [budget {budget_seconds}s]"
        )
    assert elapsed < budget_seconds, f"criterion {number} exceeded its budget"


def test_criterion_1_worked_example_goldens():
    with criterion(1, "worked-example goldens", 1):
        cup = make_diagram("brauer", 0, 2, [(t(1), t(2))])
        cap = make_diagram("brauer", 2, 0, [(b(1), b(2))])
        res = compose(cap, cup)
        assert res.closed_count == 1
        assert res.result == identity_diagram("brauer", 0)
        as_morphism = morphism_compose(
            Morphism.from_diagram(cap), Morphism.from_diagram(cup)
        )
        assert as_morphism.terms == {
            identity_diagram("brauer", 0): DeltaPoly([0, 1])
        }

        beta = make_diagram(
            "brauer",
            7,
            5,
            [
                (b(1), t(1)),
                (b(6), t(2)),
                (b(2), t(4)),
                (b(3), b(5)),
                (b(4), b(7)),
                (t(3), t(5)),
            ],
        )
        alpha = make_diagram(
            "brauer",
            3,
            7,
            [(t(1), t(2)), (t(3), t(4)), (t(5), t(7)), (b(1), b(2)), (b(3), t(6))],
        )
        res = compose(beta, alpha)
        assert res.closed_count == 1
        assert res.result == make_diagram(
            "brauer",
            3,
            5,
            [(t(3), t(5)), (t(1), t(4)), (b(1), b(2)), (b(3), t(2))],
        )

        beta_p = make_diagram(
            "partition",
            7,
            5,
            [
                [b(1), t(1)],
                [t(2), t(3)],
                [b(2)],
                [b(3)],
                [b(4)],
                [b(5), t(4), t(5)],
                [b(6), b(7)],
            ],
        )
        alpha_p = make_diagram(
            "partition",
            4,
            7,
            [
                [t(1)],
                [t(3)],
                [t(4)],
                [b(1), t(2)],
                [b(2), b(3)],
                [t(5), t(6)],
                [b(4), t(7)],
            ],
        )
        res = compose(beta_p, alpha_p)
        assert res.closed_count == 2
        assert res.result == make_diagram(
            "partition",
            4,
            5,
            [[b(1)], [t(1)], [t(2), t(3)], [b(2), b(3)], [b(4), t(4), t(5)]],
        )


def test_criterion_2_tautological_functoriality():
    with criterion(2, "tautological functoriality", 60):
        for p in (1, 2, 3):
            for variant in ("brauer", "partition"):
                rep = verify_taut_functoriality(TautContext(variant, dim=p), 3)
                assert rep["pass"], (variant, p, rep["failures"][:3])
        rep = verify_taut_functoriality(TautContext("signed", dim=2), 3)
        assert rep["pass"], rep["failures"][:3]
        for q in (Fraction(1), Fraction(2), Fraction(1, 2)):
            rep = verify_taut_functoriality(TautContext("temperley_lieb", q=q), 3)
            assert rep["pass"], (q, rep["failures"][:3])


def test_criterion_3_triangular_axioms():
    with criterion(3, "triangular axioms", 120):
        for variant, max_size in (
            ("brauer", 4),
            ("partition", 3),
            ("temperley_lieb", 4),
        ):
            rep = check_triangular_axioms(variant, max_size)
            assert rep["pass"], (variant, rep)
        for variant in ("brauer", "partition", "temperley_lieb"):
            for n in range(9):
                for m in range(9 - n):
                    rep = verify_t3(variant, n, m)
                    assert rep["pass"], (variant, n, m, rep)
                    assert rep["lhs_dim"] == rep["rhs_dim"]


def test_criterion_4_counting_identities():
    with criterion(4, "counting identities", 30):

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
            from math import comb

            return comb(2 * k, k) // (k + 1)

        for n in range(11):
            for m in range(11 - n):
                want = double_factorial(n + m - 1) if (n + m) % 2 == 0 else 0
                assert len(enumerate_diagrams("brauer", n, m)) == want
        for n in range(9):
            for m in range(9 - n):
                assert len(enumerate_diagrams("partition", n, m)) == bell(n + m)
        for n in range(13):
            for m in range(13 - n):
                want = catalan((n + m) // 2) if (n + m) % 2 == 0 else 0
                assert len(enumerate_diagrams("temperley_lieb", n, m)) == want


def test_criterion_5_signed_plain_equivalence():
    with criterion(5, "signed/plain equivalence", 60):
        # compose takes the oriented sign from this equivalence, so this
        # restates the engine's rule; tests/test_compose.py checks the
        # sign against the symplectic matrices
        sizes = range(4)
        for n in sizes:
            for m in sizes:
                for k in sizes:
                    for alpha in enumerate_diagrams("signed", n, m):
                        for beta in enumerate_diagrams("signed", m, k):
                            res = compose(beta, alpha)
                            # image of the composite at parameter d
                            lhs_diagram = make_diagram(
                                "brauer", n, k, res.result.edges
                            )
                            lhs_coeff = DeltaPoly(
                                [0] * res.closed_count
                                + [res.sign * epsilon_sign(res.result)]
                            )
                            # composite of the images at parameter -d
                            plain = compose(
                                make_diagram("brauer", m, k, beta.edges),
                                make_diagram("brauer", n, m, alpha.edges),
                            )
                            rhs_coeff = DeltaPoly(
                                [0] * plain.closed_count
                                + [
                                    epsilon_sign(beta)
                                    * epsilon_sign(alpha)
                                    * (-1) ** plain.closed_count
                                ]
                            )
                            assert lhs_diagram == plain.result
                            assert lhs_coeff == rhs_coeff, (alpha, beta)


def test_criterion_6_multiplicity_formulas():
    with criterion(6, "multiplicity formulas", 120):
        for a in range(5):
            for lam in partitions_of(a):
                for m in range(9):
                    if m < a or (m - a) % 2:
                        continue
                    for mu in partitions_of(m):
                        assert delta_multiplicity(lam, mu) == (
                            induced_multiplicity_oracle(lam, mu)
                        ), (lam, mu)
        for n in range(4):
            for m in range(8):
                if (n + m) % 2:
                    continue
                rep = verify_principal_decomposition(n, m)
                assert rep["pass"], rep


def test_criterion_7_delta_degeneration():
    with criterion(7, "delta degeneration", 60):
        assert check_p2_p0_surjectivity(0) is False
        for delta in (1, -2, Fraction(1, 2)):
            assert check_p2_p0_surjectivity(delta) is True
        assert is_semisimple_at("brauer", 2, 0) is False
        assert is_semisimple_at("brauer", 2, Fraction(1, 2)) is True
        # root sets frozen after confirmation by the radical oracle
        # (tests/test_algebra.py); all roots are integers
        golden = {2: [Fraction(0)], 3: [Fraction(-2), Fraction(1)]}
        for n, expected in golden.items():
            roots = discriminant_rational_roots("brauer", n)
            assert roots == expected
            assert all(r.denominator == 1 for r in roots)


def test_criterion_8_structural_involutions():
    with criterion(8, "structural involutions", 30):
        # transpose is an involution on every enumerated diagram
        for variant, objs in (
            ("brauer", range(4)),
            ("partition", range(4)),
            ("walled", [(a, c - a) for c in range(4) for a in range(c + 1)]),
        ):
            for x in objs:
                for y in objs:
                    for d in enumerate_diagrams(variant, x, y):
                        assert transpose(transpose(d)) == d

        # contravariance at the morphism level, exactly in the
        # polynomial coefficient ring
        for variant in ("brauer", "partition"):
            for n in range(4):
                for m in range(4):
                    for k in range(4):
                        homs_nm = enumerate_diagrams(variant, n, m)
                        homs_mk = enumerate_diagrams(variant, m, k)
                        if not homs_nm or not homs_mk:
                            continue
                        for df in homs_nm:
                            f = Morphism.from_diagram(df)
                            for dg in homs_mk:
                                g = Morphism.from_diagram(dg)
                                lhs = morphism_transpose(morphism_compose(g, f))
                                rhs = morphism_compose(
                                    morphism_transpose(f), morphism_transpose(g)
                                )
                                assert lhs == rhs

        # monoidal interchange with delta exponents adding
        for variant in ("brauer", "partition"):
            objs = range(4)
            for n1 in objs:
                for m1 in objs:
                    for k1 in objs:
                        h_a = enumerate_diagrams(variant, n1, m1)
                        h_b = enumerate_diagrams(variant, m1, k1)
                        if not h_a or not h_b:
                            continue
                        for n2 in range(4 - n1):
                            for m2 in range(4 - m1):
                                for k2 in range(4 - k1):
                                    h_a2 = enumerate_diagrams(variant, n2, m2)
                                    h_b2 = enumerate_diagrams(variant, m2, k2)
                                    if not h_a2 or not h_b2:
                                        continue
                                    r2_table = [
                                        [compose(b2, a2) for b2 in h_b2]
                                        for a2 in h_a2
                                    ]
                                    for alpha in h_a:
                                        du_a = [
                                            disjoint_union(alpha, a2)
                                            for a2 in h_a2
                                        ]
                                        for beta in h_b:
                                            r1 = compose(beta, alpha)
                                            du_b = [
                                                disjoint_union(beta, b2)
                                                for b2 in h_b2
                                            ]
                                            for i2 in range(len(h_a2)):
                                                for j2 in range(len(h_b2)):
                                                    left = compose(
                                                        du_b[j2], du_a[i2]
                                                    )
                                                    r2 = r2_table[i2][j2]
                                                    assert (
                                                        left.result
                                                        == disjoint_union(
                                                            r1.result, r2.result
                                                        )
                                                    )
                                                    assert (
                                                        left.closed_count
                                                        == r1.closed_count
                                                        + r2.closed_count
                                                    )

        # the tensor of morphisms multiplies coefficients
        cup = Morphism.from_diagram(
            make_diagram("brauer", 0, 2, [(t(1), t(2))]), DeltaPoly([0, 2])
        )
        cap = Morphism.from_diagram(
            make_diagram("brauer", 2, 0, [(b(1), b(2))]), 3
        )
        prod = morphism_tensor(cup, cap)
        assert list(prod.terms.values()) == [DeltaPoly([0, 6])]
