"""Property-based checks: the three computation paths, brute force at every
low/high split against an enumeration oracle, the graph6 codec,
exact division, the heuristic gcd, Taylor shifts, square-free
decomposition, Horner evaluation (exact, and in the solver's fixed point
against its error bound), the solver's fixed-point division (against the
exact floors of both parts), its rounding of roots and the CLI's printing
of them (against mpmath) and real-root isolation (against a Sturm count
and against constructed real roots), on inputs drawn by hypothesis.

Examples are derandomized so every run draws the same inputs."""

import itertools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_domination import oracle_poly, oracle_restricted

from dompoly import domination
from dompoly.cli import _nstr
from dompoly.domination import (
    brute_force_poly,
    recurrence_poly_odot,
    recurrence_poly_vertex,
    restricted_count,
)
from dompoly.graphs import Graph, parse_graph6, write_graph6
from dompoly.polynomials import (
    IntPolynomial,
    _signed_prs,
    exact_div,
    horner,
    poly_gcd,
)
from dompoly.roots import (
    _fixed_div,
    _fixed_horner,
    _isolate,
    _refine,
    _round_bits,
    _sign_at,
    count_real_roots_in,
    real_roots_exact,
    root_bound_pow2,
    square_free_decomposition,
    square_free_part,
    sturm_chain,
)

P = IntPolynomial

deterministic = settings(derandomize=True, database=None, max_examples=60,
                         deadline=None)


@st.composite
def graphs(draw, max_n=9, min_n=1):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


def polys(min_degree=0, max_degree=6, span=9):
    coeffs = st.lists(st.integers(-span, span), min_size=min_degree + 1,
                      max_size=max_degree + 1)
    return coeffs.map(P).filter(lambda p: p.degree >= min_degree)


@deterministic
@given(graphs(), st.data())
def test_brute_force_equals_both_recurrences(g, data):
    u = data.draw(st.integers(0, g.n - 1))
    reference = brute_force_poly(g)
    assert recurrence_poly_vertex(g, u) == reference
    assert recurrence_poly_odot(g, u) == reference


@deterministic
@given(graphs(max_n=12, min_n=0), st.data())
def test_brute_force_at_every_split_equals_oracle(g, data):
    # every low/high split of the subset sweep, so that small graphs run
    # the grouped high-half path too
    expected = oracle_poly(g)
    u = data.draw(st.integers(0, g.n - 1)) if g.n else None
    expected_restricted = oracle_restricted(g, u) if g.n else None
    for chunk in range(g.n + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(domination, "_CHUNK_BITS", chunk)
            assert brute_force_poly(g) == expected
            if g.n:
                assert restricted_count(g, u) == expected_restricted


@deterministic
@given(graphs())
def test_domination_polynomial_is_odd_at_one(g):
    assert brute_force_poly(g).eval_int(1) % 2 == 1


@deterministic
@given(graphs(max_n=14))
def test_graph6_round_trip(g):
    text = write_graph6(g)
    assert parse_graph6(text) == g
    assert write_graph6(parse_graph6(text)) == text


@deterministic
@given(polys(), polys().filter(bool))
def test_exact_div_undoes_multiplication(p, q):
    assert exact_div(p * q, q) == p


def wide_polys(max_degree=4, bits=80):
    """Polynomials whose coefficients mix zeros, small values and values
    up to +-2^bits."""
    coeff = st.one_of(st.just(0), st.integers(-9, 9),
                      st.integers(-2 ** bits, 2 ** bits))
    return st.lists(coeff, min_size=1, max_size=max_degree + 1).map(P)


def prs_gcd(p, q):
    """gcd of nonzero p and q from the primitive remainder sequence alone."""
    cont = math.gcd(p.content(), q.content())
    _, a = p.content_and_primitive()
    _, b = q.content_and_primitive()
    *_, g = _signed_prs(a, b)
    return cont * (-g if g.lead < 0 else g)


@deterministic
@given(wide_polys().filter(bool), wide_polys().filter(bool),
       wide_polys(max_degree=3).filter(bool))
def test_gcd_equals_remainder_sequence_gcd(a, b, shared):
    p, q = shared * a, shared * b
    g = poly_gcd(p, q)
    assert g == prs_gcd(p, q)
    exact_div(p, g)
    exact_div(q, g)


def naive_shift(p, c):
    """p(x + c) by Horner's rule over polynomials."""
    out = P()
    for coeff in reversed(p.coeffs):
        out = out * P([c, 1]) + P([coeff])
    return out


@deterministic
@given(wide_polys(max_degree=8, bits=240), st.sampled_from([-3, -1, 1, 2]))
def test_shift_round_trip(p, c):
    shifted = p.shift(c)
    assert shifted == naive_shift(p, c)
    assert shifted.shift(-c) == p
    assert shifted.eval_int(5) == p.eval_int(5 + c)


@deterministic
@given(st.lists(st.tuples(polys(min_degree=1, max_degree=3, span=4),
                          st.integers(1, 3)), min_size=1, max_size=3),
       st.integers(-6, 6).filter(bool))
def test_square_free_decomposition_rebuilds_primitive_part(factors, content):
    p = P([content])
    for f, k in factors:
        p = p * f ** k
    rebuilt = P([1])
    for f, k in square_free_decomposition(p):
        rebuilt = rebuilt * f ** k
    _, prim = p.content_and_primitive()
    assert rebuilt in (prim, -prim)


@deterministic
@given(polys(), st.fractions(max_denominator=50))
def test_horner_matches_power_sum_and_sign(p, r):
    value = sum((c * r ** i for i, c in enumerate(p.coeffs)), Fraction(0))
    assert horner(p.coeffs, r) == p.eval_int(r) == value
    assert _sign_at(p, r) == (value > 0) - (value < 0)


@st.composite
def fixed_point_cases(draw):
    """(coeffs, prec, P, a, b): a polynomial, a working precision, the
    solver's scale P for them, and a point z = (a + ib)/2^P near the least
    root modulus 2^-(w+1), near the unit circle or far outside it."""
    coeffs = draw(st.lists(st.integers(-2 ** 200, 2 ** 200), min_size=2, max_size=31)
                  .filter(lambda c: c[0] and c[-1]))
    prec = draw(st.integers(53, 300))
    d = len(coeffs) - 1
    w = max(abs(c).bit_length() for c in coeffs)
    scale = prec + w + d.bit_length() + 8  # as in `_aberth_roots`
    e = draw(st.one_of(st.integers(-w - 2, -w), st.integers(-1, 1),
                       st.integers(8, 80)))
    part = st.integers(-(1 << (scale + e)), 1 << (scale + e))
    return coeffs, prec, scale, draw(part), draw(part)


fixed_parts = st.integers(-2 ** 400, 2 ** 400)


@deterministic
@given(fixed_parts, fixed_parts, fixed_parts, fixed_parts, st.integers(0, 300))
def test_fixed_point_division_floors_both_parts(ar, ai, br, bi, scale):
    """The solver's fixed-point quotient of (ar + i*ai)/2^P by
    (br + i*bi)/2^P is the exact quotient with each part floored to a
    multiple of 2^-P, and dividing by 0 raises ZeroDivisionError."""
    with pytest.raises(ZeroDivisionError):
        _fixed_div(ar, ai, 0, 0, scale)
    if not (br or bi):
        return
    a, b = Fraction(ar, 1 << scale), Fraction(ai, 1 << scale)
    c, d = Fraction(br, 1 << scale), Fraction(bi, 1 << scale)
    norm = c * c + d * d
    exact = ((a * c + b * d) / norm, (b * c - a * d) / norm)
    assert _fixed_div(ar, ai, br, bi, scale) == tuple(
        math.floor(part * (1 << scale)) for part in exact)


@deterministic
@given(fixed_point_cases())
def test_fixed_point_horner_within_its_error_bound(case):
    """The solver's fixed-point Horner kernel at scale P is off by at most
    2*(d+1)*2^-P*max(1,|z|)^d, and so by under 2^-prec*sum|c_i||z|^i / 8,
    at points near the least root modulus 2^-(w+1), near the unit circle
    and far outside it.  z = (a + ib)/2^P is a dyadic point, so
    p(z)*2^(P*d) is exact in the Gaussian integers."""
    coeffs, prec, scale, a, b = case
    d = len(coeffs) - 1
    value_re, value_im = _fixed_horner(coeffs, a, b, scale)
    # Horner's rule over the Gaussian integers, c_i lifted by 2^(P*(d-i))
    exact_re = exact_im = 0
    for i, c in enumerate(reversed(coeffs)):
        exact_re, exact_im = (exact_re * a - exact_im * b + (c << (scale * i)),
                              exact_re * b + exact_im * a)
    err_re = (value_re << (scale * (d - 1))) - exact_re
    err_im = (value_im << (scale * (d - 1))) - exact_im
    err2 = err_re ** 2 + err_im ** 2  # |error|^2 * 2^(2*P*d)
    modulus2 = a * a + b * b
    assert (err2 << (2 * scale)
            <= 4 * (d + 1) ** 2 * max(1 << (2 * scale), modulus2) ** d)
    # sum|c_i||z|^i * 2^(P*d), with |z| rounded down, is a lower bound
    floor_sum = sum(abs(c) * math.isqrt(modulus2) ** i << (scale * (d - i))
                    for i, c in enumerate(coeffs))
    assert err2 * 64 << (2 * prec) <= floor_sum ** 2


def sturm_variations(chain, x):
    """Sign variations of a Sturm chain at x."""
    signs = [s for s in (_sign_at(q, x) for q in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@deterministic
@given(polys(min_degree=1))
def test_sturm_count_equals_isolating_intervals(p):
    bound = Fraction(root_bound_pow2(p))
    chain = sturm_chain(p)
    # Sturm's theorem counts the distinct real roots in (-B, B]
    expect = sturm_variations(chain, -bound) - sturm_variations(chain, bound)
    assert len(real_roots_exact(p)) == expect
    assert count_real_roots_in(p, -bound, bound) == expect


@st.composite
def known_real_roots(draw):
    """c * x^k * prod (q_i*x - p_i)^(m_i) * (x^2 + x + 1) and its distinct real
    roots: nonzero rationals p_i/q_i, many of them dyadic, with m_i in 1..3
    so that the square-free chain is often divided by gcd(p, p')."""
    fractions = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                          st.sampled_from([1, 2, 3, 4, 5, 7, 8, 16]))
    roots = draw(st.lists(fractions, min_size=1, max_size=4, unique=True))
    k = draw(st.integers(0, 2))
    p = P([draw(st.integers(-6, 6).filter(bool))]) * P([0, 1]) ** k * P([1, 1, 1])
    for r in roots:
        p = p * P([-r.numerator, r.denominator]) ** draw(st.integers(1, 3))
    return p, sorted(roots + [Fraction(0)] * (k > 0))


@deterministic
@given(known_real_roots(), st.data())
def test_isolation_and_count_find_known_roots(case, data):
    p, roots = case
    intervals = real_roots_exact(p)
    assert len(intervals) == len(roots)
    for (lo, hi), r in zip(intervals, roots):
        if lo == hi:
            assert lo == r
        else:
            assert lo < r < hi and hi - lo <= Fraction(1, 2 ** 40)
    ends = st.one_of(st.sampled_from(roots),
                     st.fractions(-10, 10, max_denominator=16))
    for _ in range(3):
        a, b = sorted([data.draw(ends), data.draw(ends)])
        assert count_real_roots_in(p, a, b) == sum(a < r < b for r in roots)


def sturm_isolation(p, width):
    """Bisection of the dyadic grid of [-B, B] by exact Sturm counts, each
    cell with one root and no root endpoint halved down to `width`: the
    intervals real_roots_exact must reproduce."""
    k = p.valuation
    found = [(Fraction(0), Fraction(0))] if k else []
    q = P(p.coeffs[k:])
    if q.degree < 1:
        return found
    f = square_free_part(q)
    chain = sturm_chain(f)
    bound = Fraction(root_bound_pow2(f))
    exact = {lo for lo, _ in found}
    cuts = [-bound, Fraction(0), bound] if k else [-bound, bound]
    stack = list(zip(cuts, cuts[1:]))
    while stack:
        lo, hi = stack.pop()
        count = (sturm_variations(chain, lo) - sturm_variations(chain, hi)
                 - (_sign_at(f, hi) == 0))
        if count == 1 and lo not in exact and hi not in exact:
            while hi - lo > width and _sign_at(f, (lo + hi) / 2):
                mid = (lo + hi) / 2
                lo, hi = (lo, mid) if _sign_at(f, lo) != _sign_at(f, mid) else (mid, hi)
            found.append((lo, hi) if hi - lo <= width else ((lo + hi) / 2,) * 2)
        elif count:
            mid = (lo + hi) / 2
            if _sign_at(f, mid) == 0:
                found.append((mid, mid))
                exact.add(mid)
            stack += [(lo, mid), (mid, hi)]
    return sorted(found)


@st.composite
def roots_near_complex_pairs(draw):
    """x^k times products of (2^s*x - a - t) and (2^s*x - a)^2 + b^2: real
    roots a few 2^-s from complex pairs (a +- bi)/2^s, so Descartes needs
    cells finer than exact counting would, below 2^-40 when s > 40."""
    s = draw(st.integers(20, 48))
    p = P([draw(st.integers(-5, 5).filter(bool))]) * P([0, 1]) ** draw(st.integers(0, 2))
    for _ in range(draw(st.integers(1, 3))):
        a = draw(st.integers(-2 ** 8, 2 ** 8))
        b = draw(st.integers(1, 3))
        t = draw(st.integers(-4, 4))
        p = p * P([-(a + t), 1 << s]) ** draw(st.integers(1, 2))
        p = p * P([a * a + b * b, -a << (s + 1), 1 << (2 * s)])
    return p


@deterministic
@given(st.one_of(roots_near_complex_pairs(), polys(min_degree=1)),
       st.sampled_from([Fraction(1, 2 ** 40), Fraction(1, 2 ** 10), Fraction(4)]))
def test_isolation_equals_sturm_bisection(p, width):
    assert real_roots_exact(p, width) == sturm_isolation(p, width)


def bisection_refine(f, lo, hi, width):
    """Halve the isolating cell (lo, hi) of a root of f down to `width`, one
    exact sign per halving: what `_refine` must return."""
    sign_lo = _sign_at(f, lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        s = _sign_at(f, mid)
        if s == 0:
            return (mid, mid)
        lo, hi = (lo, mid) if s != sign_lo else (mid, hi)
    return (lo, hi)


@st.composite
def planted_roots(draw):
    """Products of (2^e*x - a), real roots on dyadic grids as fine as 2^-50
    that a refinement may hit exactly, with (q*x - a) for odd q and
    x^2 - c, whose roots it never hits."""
    p = P([draw(st.integers(1, 5))])
    for _ in range(draw(st.integers(1, 4))):
        e = draw(st.integers(0, 50))
        p = p * P([-draw(st.integers(-2 ** (e + 3), 2 ** (e + 3))), 1 << e])
    if draw(st.booleans()):
        p = p * P([-draw(st.integers(-99, 99)), draw(st.sampled_from([3, 5, 7, 9]))])
    if draw(st.booleans()):
        p = p * P([-draw(st.integers(2, 99)), 0, 1])
    return p


@deterministic
@given(planted_roots(),
       st.sampled_from([Fraction(1, 2 ** 40), Fraction(1, 2 ** 10), Fraction(1, 2),
                        Fraction(4)]))
def test_refinement_equals_bisection(p, width):
    f, _, cells, _, _ = _isolate(p)
    for lo, hi in cells:
        assert _refine(f, lo, hi, width) == bisection_refine(f, lo, hi, width)


@deterministic
@given(st.integers(0, 3), st.lists(st.integers(-2 ** 80, 2 ** 80), max_size=6),
       st.integers(0, 25))
def test_power_equals_repeated_products(valuation, coeffs, n):
    base = P([0] * valuation + coeffs)  # degree <= valuation + 5
    product = P([1])
    for _ in range(n):
        product = product * base
    assert base ** n == product


mantissas = st.integers(-2 ** 700, 2 ** 700)


@deterministic
@given(mantissas, st.integers(1, 800))
@example(5, 2)  # a tie rounds to even, down here and up below
@example(7, 2)
@example(-(2 ** 300) - 2 ** 255, 256)
def test_root_rounding_matches_mpmath(m, prec):
    """A root part m/2^P leaves the solver rounded to prec significant
    bits, ties to even, as mpmath rounds mpf((m, -P)) at that precision."""
    rounded = _round_bits(m, prec)
    with mpmath.workprec(prec):
        assert mpmath.mpf((rounded, -40)) == mpmath.mpf((m, -40))
    assert abs(rounded).bit_length() - (abs(rounded) & -abs(rounded)).bit_length() < prec
    assert abs(rounded - m) <= abs(m) >> prec


@settings(deterministic, max_examples=400)
@given(mantissas, st.integers(-13000, 13000))
@example((1 << 170) + 1, -200)  # 9.31322574615478515625...e-10: digit 21 is a 5
@example(10 ** 21 - 1, 0)  # twenty-one 9s round up to 1.0e+21
@example(10 ** 19, 0)  # the widest fixed form
@example(1, -14)  # 6.103515625e-5 prints in fixed form
@example(1, -17)  # 7.62939453125e-6 does not
def test_printer_matches_mpmath_nstr(m, e):
    """The CLI prints the dyadic m*2^e as mpmath.nstr(x, 20,
    strip_zeros=True) does, also where the binary exponent exceeds 3500
    in size and mpmath divides by a power of ten first."""
    with mpmath.workprec(max(abs(m).bit_length(), 1)):
        x = mpmath.mpf((m, e))
    assert _nstr(Fraction(m) * Fraction(2) ** e) == mpmath.nstr(x, 20, strip_zeros=True)
