"""Property-based checks: the three computation paths, the graph6 codec,
exact division, square-free decomposition, Horner evaluation and Sturm
isolation (also against constructed real roots), on inputs drawn by
hypothesis.

Examples are derandomized so every run draws the same inputs."""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dompoly.domination import (
    brute_force_poly,
    recurrence_poly_odot,
    recurrence_poly_vertex,
)
from dompoly.graphs import Graph, parse_graph6, write_graph6
from dompoly.polynomials import IntPolynomial, exact_div, horner
from dompoly.roots import (
    _sign_at,
    count_real_roots_in,
    real_roots_exact,
    root_bound_pow2,
    square_free_decomposition,
)

P = IntPolynomial

deterministic = settings(derandomize=True, database=None, max_examples=60,
                         deadline=None)


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(1, max_n))
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


@deterministic
@given(polys(min_degree=1))
def test_sturm_count_equals_isolating_intervals(p):
    bound = root_bound_pow2(p)
    assert count_real_roots_in(p, -bound, bound) == len(real_roots_exact(p))


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


@deterministic
@given(st.integers(0, 3), st.lists(st.integers(-2 ** 80, 2 ** 80), max_size=6),
       st.integers(0, 25))
def test_power_equals_repeated_products(valuation, coeffs, n):
    base = P([0] * valuation + coeffs)  # degree <= valuation + 5
    product = P([1])
    for _ in range(n):
        product = product * base
    assert base ** n == product
