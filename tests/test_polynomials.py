"""Exact polynomial arithmetic: frozen expansions, ring axioms, gcd."""

import random
import sys
from fractions import Fraction

import mpmath
import pytest

import dompoly.polynomials
from dompoly.domination import family_poly
from dompoly.graphs import FamilySpec
from dompoly.polynomials import (
    ONE,
    X,
    IntPolynomial,
    exact_div,
    poly_gcd,
    pseudo_rem,
)

P = IntPolynomial


def rand_poly(rng, max_deg=6, span=9):
    return P([rng.randint(-span, span) for _ in range(rng.randint(0, max_deg + 1))])


def test_trailing_zeros_stripped():
    assert P([1, 2, 0, 0]).coeffs == (1, 2)
    assert P([0, 0]).is_zero
    assert P().degree == -1
    assert P([5]).degree == 0


def test_rejects_non_integers():
    with pytest.raises(TypeError):
        P([1.5])
    with pytest.raises(TypeError):
        P([Fraction(1, 2)])


def test_power_identity():
    two_x_x2 = P([0, 2, 1])
    assert two_x_x2 ** 1 == two_x_x2
    assert (ONE + X) ** 2 == P([1, 2, 1])
    assert X ** 0 == ONE


def repeated_product(base, n):
    """base ** n by n plain multiplications, the reference for pow."""
    result = ONE
    for _ in range(n):
        result = result * base
    return result


@pytest.mark.parametrize("base", [
    P([-3, 0, 0, 5]),                   # negative coefficient
    P([0, 0, 7, -2]),                   # nonzero low exponent s
    P([0, -(2 ** 70) - 1, 0, 3 ** 40]),  # large coefficients
    P([0, 0, 0, -1, 0, -1]),
])
def test_two_term_power_matches_repeated_products(base):
    for n in range(41):
        assert base ** n == repeated_product(base, n), n


@pytest.mark.parametrize("base", [
    P([1, 2, 1]),                          # (1+x)^2, the friendship lambda
    P([0, 0, -7, 3, 0, -2, 11]),           # dense, valuation 2, negative p_0
    X * P([1, 3, 3, 1]) + P([0, 3, 3, 1]),  # x(1+x)^3 + D(friendship:1)
])
def test_power_matches_repeated_products(base):
    for n in range(41):
        assert base ** n == repeated_product(base, n), n


def test_power_of_monomial_and_zero():
    for base in (P([0, 0, -3]), P([5]), X):
        for n in range(41):
            assert base ** n == repeated_product(base, n)
    assert P() ** 0 == ONE
    assert (P() ** 1).is_zero and (P() ** 7).is_zero


def test_power_rejects_bad_exponents():
    for base in (P([1, 2]), P([1, 2, 3]), X, P()):
        for bad in (-1, 2.0, Fraction(1)):
            with pytest.raises(ValueError):
                base ** bad


def test_friendship2_expansion():
    # (2x+x^2)^2 + x(1+x)^4, expanded by hand:
    # (4x^2+4x^3+x^4) + (x+4x^2+6x^3+4x^4+x^5)
    lhs = P([0, 2, 1]) ** 2 + X * (ONE + X) ** 4
    assert lhs == P([0, 1, 8, 10, 5, 1])
    assert lhs.eval_int(1) == 25


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(200):
        p, q, r = (rand_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)


def test_eval_multiplicative_random():
    rng = random.Random(8)
    for _ in range(100):
        p, q = rand_poly(rng), rand_poly(rng)
        k = rng.randint(-10, 10)
        assert (p * q).eval_int(k) == p.eval_int(k) * q.eval_int(k)


def test_eval_int_basics():
    p = P([3, 0, 1])
    assert p.eval_int(0) == 3
    assert p.eval_int(2) == 7
    assert p.eval_int(Fraction(1, 2)) == Fraction(13, 4)


def test_derivative():
    assert (X ** 3).derivative() == P([0, 0, 3])
    rng = random.Random(9)
    for _ in range(100):
        p, q = rand_poly(rng), rand_poly(rng)
        assert (p + q).derivative() == p.derivative() + q.derivative()
        assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


def test_shift():
    assert (X ** 2).shift(1) == P([1, 2, 1])
    assert P([3, -1, 4]).shift(1).shift(-1) == P([3, -1, 4])
    rng = random.Random(10)
    for _ in range(50):
        p = rand_poly(rng)
        assert p.shift(1).shift(-1) == p
        c = rng.randint(-4, 4)
        k = rng.randint(-5, 5)
        assert p.shift(c).eval_int(k) == p.eval_int(k + c)
    wide = P([3 << 200, -(5 << 230), 0, 7, -(1 << 250) + 1])
    for c in (-3, -1, 1, 2):
        assert wide.shift(c).shift(-c) == wide
        assert wide.shift(c).eval_int(3) == wide.eval_int(3 + c)
    assert P([9]).shift(4) == P([9]) and P().shift(1) == P()


def test_gcd_double_root():
    p = X ** 2 * (X + 2 * ONE)
    g = poly_gcd(p, p.derivative())
    assert g == X


def test_gcd_recovers_shared_factor():
    rng = random.Random(11)
    for _ in range(60):
        shared = rand_poly(rng, max_deg=3)
        if shared.degree < 1:
            continue
        a, b = rand_poly(rng, max_deg=3), rand_poly(rng, max_deg=3)
        if a.is_zero or b.is_zero:
            continue
        g = poly_gcd(shared * a, shared * b)
        assert g.lead > 0
        # the shared factor divides the gcd
        _, prim = shared.content_and_primitive()
        exact_div(g * prim.lead ** (g.degree + 1), prim)  # no remainder


def test_gcd_fallback_gives_the_same_gcd(monkeypatch):
    """With the heuristic made to give up, the remainder sequence answers,
    with the same normalized gcd."""
    rng = random.Random(13)
    cases = [(p, p.derivative()) for p in (
        family_poly(FamilySpec("friendship", 8)),
        family_poly(FamilySpec("book", 6)),
        X ** 3 * (X + 2 * ONE) ** 2 * (3 * X - ONE))]
    for _ in range(20):
        shared = rand_poly(rng, max_deg=3)
        a, b = rand_poly(rng, max_deg=4), rand_poly(rng, max_deg=4)
        if not (shared.is_zero or a.is_zero or b.is_zero):
            cases.append((-7 * shared * a, 21 * shared * b))
    expected = [poly_gcd(p, q) for p, q in cases]
    monkeypatch.setattr(dompoly.polynomials, "_heuristic_gcd", lambda a, b: None)
    calls = []
    original = dompoly.polynomials.pseudo_rem
    monkeypatch.setattr(dompoly.polynomials, "pseudo_rem",
                        lambda a, b: calls.append(1) or original(a, b))
    assert [poly_gcd(p, q) for p, q in cases] == expected
    assert calls  # the fallback ran


def test_gcd_sign_normalization():
    g = poly_gcd(P([0, -2]), P([0, -4]))
    assert g.lead > 0
    assert poly_gcd(P(), P([-3])).lead > 0


def test_pseudo_rem_matches_rational_remainder_sign():
    rng = random.Random(12)
    for _ in range(100):
        a, b = rand_poly(rng, 6), rand_poly(rng, 4)
        if b.is_zero or a.degree < b.degree:
            continue
        r = pseudo_rem(a, b)
        # exact rational remainder for comparison
        ra = [Fraction(c) for c in a.coeffs]
        while len(ra) - 1 >= b.degree and any(ra):
            while ra and ra[-1] == 0:
                ra.pop()
            if len(ra) - 1 < b.degree:
                break
            coef = ra[-1] / b.lead
            for i, cb in enumerate(b.coeffs):
                ra[len(ra) - 1 - b.degree + i] -= coef * cb
        while ra and ra[-1] == 0:
            ra.pop()
        expect = ra
        got = list(r.coeffs)
        assert len(got) == len(expect)
        for gz, ez in zip(got, expect):
            assert (gz > 0) == (ez > 0) and (gz < 0) == (ez < 0)
            if ez:
                assert Fraction(gz) / ez == Fraction(got[-1]) / expect[-1]


def test_exact_div():
    p = P([0, 2, 1]) * P([1, 1, 1])
    assert exact_div(p, P([1, 1, 1])) == P([0, 2, 1])
    with pytest.raises(ValueError):
        exact_div(X + ONE, X ** 2)
    with pytest.raises(ValueError):
        exact_div(X ** 2 + ONE, X + ONE)
    # divisible over Q but not over Z
    with pytest.raises(ValueError):
        exact_div(X, 2 * X)
    # negative leading coefficient in the divisor
    q = P([3, 0, -2])
    assert exact_div(P([4, -5]) * q, q) == P([4, -5])
    assert exact_div(-6 * X ** 3, -2 * X) == 3 * X ** 2


def test_serialization_roundtrip():
    p = P([0, 2, 1])
    assert p.to_coeff_string() == "0,2,1"
    assert P.from_coeff_string("0,2,1") == p
    assert P.from_coeff_string("") == P()
    assert P.from_coeff_string(p.to_coeff_string()) == p
    with pytest.raises(ValueError):
        P.from_coeff_string("1,x")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no integer string conversion limit")
def test_poly_strings_past_the_int_string_limit():
    """Coefficients of about 720 digits convert both ways under a 640-digit
    limit, outside the CLI, and each conversion puts the limit back."""
    p = family_poly(FamilySpec("friendship", 1200))
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        text = p.to_coeff_string()
        assert P.from_coeff_string(text) == p
        digits = text.split(",")
        assert repr(p) == f"IntPolynomial([{', '.join(digits)}])"
        assert max(digits, key=len) in str(p)
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(saved)
    assert max(len(c) for c in digits) > 640
    assert digits == [str(c) for c in p.coeffs]


def test_human_format():
    assert str(P([0, 3, 3, 1])) == "3x + 3x^2 + x^3"
    assert str(P([0, 2, 1])) == "2x + x^2"
    assert str(P()) == "0"
    assert str(P([-1, 1])) == "-1 + x"
    assert str(P([1, 0, -2])) == "1 - 2x^2"


def test_eval_complex_precision():
    p = P([0, 1, 8, 10, 5, 1])
    z = mpmath.mpc("-0.1516251043", 0)
    value = p.eval_complex(z, 256)
    assert abs(value) < 1e-9  # near a true root
    with pytest.raises(ValueError):
        p.eval_complex(z, 32)


def test_eval_complex_wide_coefficients_stay_exact():
    p = P([2 ** 400, 1])
    value = p.eval_complex(mpmath.mpc(-(2 ** 400), 0))
    assert value == 0


def test_immutability():
    p = P([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (5,)


def test_valuation_and_lead():
    p = P([0, 0, 3, 4])
    assert p.valuation == 2
    assert p.lead == 4
    assert P().valuation == -1
