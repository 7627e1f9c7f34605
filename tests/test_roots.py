"""Root extraction: certified real isolation, exact integer roots, and the
multiprecision complex solver, cross-validated against each other."""

import cmath
import dataclasses
import json
import math
import pathlib
import random
from fractions import Fraction

import mpmath
import numpy
import pytest

import dompoly.polynomials
import dompoly.roots
from dompoly.cli import _nstr
from dompoly.domination import corona_poly, family_poly
from dompoly.graphs import FamilySpec
from dompoly.polynomials import ONE, X, IntPolynomial
from dompoly.roots import (
    ConvergenceError,
    _MAX_SWEEPS,
    _aberth_sweeps,
    _fixed_sweeps,
    _float_phase,
    _newton_polygon_starts,
    _upper_starts,
    all_roots,
    count_real_roots_in,
    default_tol,
    integer_roots,
    real_roots_exact,
    root_bound_pow2,
    square_free_decomposition,
    square_free_part,
    sturm_chain,
)

P = IntPolynomial


def friendship(n):
    return family_poly(FamilySpec("friendship", n))


def mpc(root) -> mpmath.mpc:
    """A ComplexRoot as an mpmath complex, exact at the current precision
    when that is at least the root's."""
    return mpmath.mpc(*(mpmath.mpf(x.numerator) / x.denominator for x in (root.re, root.im)))


def assert_10_digits(value, reference: str):
    ref = float(reference)
    import math

    assert abs(value - ref) < 0.5 * 10.0 ** (math.floor(math.log10(abs(ref))) - 9), \
        f"{value} != {reference} at 10 significant digits"


# -- square-free machinery ----------------------------------------------------


def test_square_free_part():
    p = X ** 2 * (X + 2 * ONE)
    assert square_free_part(p) == X * (X + 2 * ONE)
    assert square_free_part(X + ONE) == X + ONE


def test_square_free_decomposition():
    p = X ** 2 * (X + 2 * ONE)
    assert square_free_decomposition(p) == [(X + 2 * ONE, 1), (X, 2)]
    rng = random.Random(31)
    for _ in range(30):
        base = [P([rng.randint(-3, 3), 1]) for _ in range(rng.randint(1, 3))]
        mults = [rng.randint(1, 3) for _ in base]
        prod = ONE
        for f, m in zip(base, mults):
            prod = prod * f ** m
        rebuilt = ONE
        for f, m in square_free_decomposition(prod):
            rebuilt = rebuilt * f ** m
        _, expect = prod.content_and_primitive()
        _, got = rebuilt.content_and_primitive()
        assert got == expect or got == -expect


def test_sturm_chain_counts_k_real_roots():
    # (x-1)(x-3)(x+5) has 3 real roots
    p = (X - ONE) * (X - 3 * ONE) * (X + 5 * ONE)
    chain = sturm_chain(p)
    assert chain[0].degree == 3
    assert count_real_roots_in(p, -100, 100) == 3


@pytest.mark.parametrize("kind, n", [("friendship", 20), ("book", 20), ("cycle", 40)])
def test_one_remainder_sequence_per_query(monkeypatch, kind, n):
    """At most one remainder sequence per query, and in fact none: square-free
    parts come from the heuristic gcd and real roots from Descartes
    bisection, so no query runs a pseudo-remainder."""
    original = dompoly.polynomials.pseudo_rem
    calls = []

    def counting(a, b):
        calls.append(1)
        return original(a, b)

    for module in (dompoly.polynomials, dompoly.roots):
        if getattr(module, "pseudo_rem", None) is original:
            monkeypatch.setattr(module, "pseudo_rem", counting)
    p = family_poly(FamilySpec(kind, n))
    real_roots_exact(p)
    count_real_roots_in(p, -2, 0)
    square_free_part(p)
    all_roots(p)
    assert calls == []


def test_root_bound():
    b = root_bound_pow2(X - 3 * ONE)
    assert b >= 4 and (X - 3 * ONE).eval_int(b) != 0
    p = friendship(10)
    b = root_bound_pow2(p)
    assert b <= 64  # coefficients are huge but roots are small


# -- exact real isolation -------------------------------------------------------


def test_real_roots_friendship_3():
    # odd index: only the root 0
    assert real_roots_exact(friendship(3)) == [(0, 0)]


def test_real_roots_friendship_4():
    intervals = real_roots_exact(friendship(4))
    assert len(intervals) == 3
    mids = [float((lo + hi) / 2) for lo, hi in intervals]
    assert_10_digits(mids[0], "-1.683727169")
    assert_10_digits(mids[1], "-0.2316175850")
    assert intervals[2] == (0, 0)
    for lo, hi in intervals[:2]:
        assert hi - lo <= Fraction(1, 2 ** 40)
        assert Fraction(-2) < lo and hi < 0


def test_real_roots_table_even_rows():
    refs = {
        2: ("-1.660992532", "-0.1516251043"),
        6: ("-1.691458147", "-0.2537459684"),
        8: ("-1.695348455", "-0.2641276712"),
        10: ("-1.697690028", "-0.2701559954"),
    }
    for n, (r1, r2) in refs.items():
        intervals = real_roots_exact(friendship(n))
        assert len(intervals) == 3
        assert_10_digits(float(sum(intervals[0]) / 2), r1)
        assert_10_digits(float(sum(intervals[1]) / 2), r2)


def test_real_roots_no_real():
    assert real_roots_exact(X ** 2 + ONE) == []


def test_real_roots_exact_rational_hits():
    got = real_roots_exact(X * (X + 2 * ONE) ** 3)
    assert got == [(-2, -2), (0, 0)]
    got = real_roots_exact(X - 3 * ONE)
    assert got == [(3, 3)]


def test_real_roots_disjoint_and_isolating():
    p = (X - ONE) * (X - 2 * ONE) * (X * X - 3 * ONE)
    intervals = real_roots_exact(p)
    assert len(intervals) == 4
    for (a1, b1), (a2, b2) in zip(intervals, intervals[1:]):
        assert b1 <= a2  # sorted and disjoint
    # each interval contains exactly one sign change of the square-free part
    for lo, hi in intervals:
        if lo == hi:
            assert p.eval_int(lo) == 0
        else:
            assert p.eval_int(lo) * p.eval_int(hi) < 0


def test_count_real_roots_in():
    assert count_real_roots_in(friendship(6), -2, 0) == 2
    assert count_real_roots_in(friendship(7), -2, 0) == 0
    assert count_real_roots_in(friendship(6), Fraction(-2), Fraction(-2)) == 0
    # endpoint roots are excluded
    assert count_real_roots_in(X * (X + 2 * ONE), -2, 0) == 0
    assert count_real_roots_in(X * (X + 2 * ONE), -3, 0) == 1
    with pytest.raises(ValueError):
        count_real_roots_in(X, 1, 0)


# -- integer roots ---------------------------------------------------------------


def test_integer_roots_basic():
    assert integer_roots(X * (X + 2 * ONE) ** 3) == [-2, 0]
    assert integer_roots(friendship(2)) == [0]
    assert integer_roots(X ** 2 + ONE) == []
    assert integer_roots((X - 7 * ONE) * (X + 4 * ONE)) == [-4, 7]


def test_integer_roots_corona_factorization():
    # x(x+2)(x^2+2x+2): one vertex with a triangle-with-hub copy
    p = X * (X + 2 * ONE) * P([2, 2, 1])
    assert integer_roots(p) == [-2, 0]


def test_integer_roots_huge_trailing_coefficient():
    # trailing coefficient far beyond the trial-division limit forces the
    # isolation-based fallback
    big = 10 ** 14 + 7
    p = (X - 2 * ONE) * (X + big * ONE)
    assert integer_roots(p) == [-big, 2]


@pytest.mark.parametrize("n", [499999, 10 ** 6 + 3, 4999999])
def test_integer_roots_both_routes_agree(monkeypatch, n):
    # trailing coefficients -10n around the trial-division limit: the
    # divisor scan and the isolating intervals find the same roots
    p = (X + 2 * ONE) * (X - 5 * ONE) * (X * X + n * ONE)
    found = []
    for limit in (math.inf, -1):
        monkeypatch.setattr(dompoly.roots, "_TRIAL_DIVISION_LIMIT", limit)
        found.append(integer_roots(p))
    assert found == [[-2, 5]] * 2


# -- complex solver ---------------------------------------------------------------


def test_all_roots_simple_quadratic():
    rs = all_roots(X * X + 2 * X)
    assert rs.zero_multiplicity == 1
    assert rs.integer_roots == (-2, 0)
    assert len(rs.complex_roots) == 1
    assert abs(complex(rs.complex_roots[0]) - (-2)) < 1e-30


def test_all_roots_friendship_1():
    # x(x^2+3x+3): quadratic-formula cofactor roots (-3 +- i sqrt 3)/2
    rs = all_roots(friendship(1))
    assert rs.zero_multiplicity == 1
    got = sorted((complex(r) for r in rs.complex_roots),
                 key=lambda z: z.imag)
    expect = [complex(-1.5, -(3 ** 0.5) / 2), complex(-1.5, (3 ** 0.5) / 2)]
    for g, e in zip(got, expect):
        assert abs(g - e) < 1e-12


def test_all_roots_count_invariant():
    for n in (1, 2, 5, 8):
        p = friendship(n)
        rs = all_roots(p)
        assert rs.nonzero_root_count + rs.zero_multiplicity == p.degree
        for r in rs.complex_roots:
            assert r.residual <= 1e-20


def test_all_roots_multiplicities():
    p = (X * (X + 2 * ONE) * P([2, 2, 1])) ** 4
    rs = all_roots(p)
    assert rs.zero_multiplicity == 4
    assert all(r.multiplicity == 4 for r in rs.complex_roots)
    assert rs.nonzero_root_count + 4 == p.degree
    assert rs.integer_roots == (-2, 0)


def test_all_roots_agrees_with_exact_isolation():
    tol = 1e-20
    for n in (4, 8):
        p = friendship(n)
        rs = all_roots(p, tol=tol)
        near_real = [r for r in rs.complex_roots
                     if abs(float(r.im)) <= tol ** 0.5]
        assert len(near_real) == len(rs.real_intervals)
        for lo, hi in rs.real_intervals:
            inside = [r for r in near_real
                      if float(lo) - 1e-11 <= float(r.re) <= float(hi) + 1e-11]
            assert len(inside) == 1
        # no clearly-complex root pretends to be in a real interval
        for r in rs.complex_roots:
            if abs(float(r.im)) > tol ** 0.5:
                for lo, hi in rs.real_intervals:
                    assert not (float(lo) <= float(r.re) <= float(hi)
                                and abs(float(r.im)) < 1e-12)


def test_all_roots_vieta_spot_checks():
    tol = 1e-20
    for n in (2, 3, 6):
        p = friendship(n)
        rs = all_roots(p, tol=tol)
        k = rs.zero_multiplicity
        cofactor = P(p.coeffs[k:])
        with mpmath.workprec(300):
            prod = mpmath.mpc(1)
            total = mpmath.mpc(0)
            for r in rs.complex_roots:
                for _ in range(r.multiplicity):
                    prod *= mpc(r)
                    total += mpc(r)
            d = cofactor.degree
            # sum = -c_{d-1}/c_d, product = (-1)^d c_0/c_d
            assert abs(total - (-Fraction(cofactor.coeffs[-2], cofactor.lead))) < 10 * tol ** 0.25
            expect_prod = mpmath.mpf(cofactor.coeffs[0]) / cofactor.lead * (-1) ** d
            assert abs(prod - expect_prod) < 10 * tol ** 0.25 * abs(expect_prod)


def test_all_roots_deterministic():
    p = friendship(5)
    a = all_roots(p)
    b = all_roots(p)
    assert [(r.re, r.im) for r in a.complex_roots] == \
        [(r.re, r.im) for r in b.complex_roots]


def test_all_roots_diagnostics():
    rs = all_roots(friendship(30))
    (diag,) = rs.diagnostics
    assert (diag.degree, diag.real_roots, diag.precision) == (60, 2, 256)
    assert diag.converged and diag.float_sweeps > 0
    # Near x = -1.7 doubles cannot evaluate D(F_30, x): their rounding error
    # there exceeds the spacing of the roots, so about half the
    # double-precision iterates are not yet near a root and need the sweeps
    # at 256 bits (27 on CPython 3.11, x86-64), still far below the cap of 400
    assert diag.mp_sweeps <= 40
    # members whose roots doubles can resolve need only a few
    assert all(d.converged and d.mp_sweeps <= 10
               for d in all_roots(friendship(9)).diagnostics)
    # diagnostics take no part in equality
    assert dataclasses.replace(rs, diagnostics=()) == rs
    # the double-precision sweeps are those of CPython 3.11 on x86-64; the
    # fixed-point sweeps from their iterates are exact integer arithmetic;
    # the polish stops at a zero step, so it takes fewer than 4 steps per
    # iterate, one per conjugate pair
    (diag,) = all_roots(friendship(9)).diagnostics
    assert (diag.degree, diag.real_roots, diag.float_sweeps, diag.mp_sweeps,
            diag.converged) == (18, 0, 14, 4, True)
    assert diag.degree // 2 <= diag.polish_steps < 2 * diag.degree
    assert dataclasses.replace(diag, polish_steps=0) == diag


@pytest.mark.parametrize("p", [friendship(8), family_poly(FamilySpec("cycle", 20)),
                               (X * (X + 2 * ONE) * P([2, 2, 1])) ** 4,
                               (X - ONE) ** 2 * (X + 3 * ONE) * P([-2, 0, 1]) * P([1, 3, 1]),
                               (X * X + ONE) * (3 * X + ONE) ** 2 * (X * X - 3 * ONE) ** 2],
                         ids=["friendship:8", "cycle:20", "corona", "all-real", "mixed"])
def test_real_roots_come_from_the_isolation(monkeypatch, p):
    """Each factor's real roots are those of the one exact isolation, with
    im exactly 0, one in each of its intervals; the solver iterates one
    root per conjugate pair, so real_roots + 2*(iterated roots) is each
    factor's degree.  Factors have distinct multiplicities, listed
    ascending, so a root's multiplicity names its factor."""
    calls = []
    original = dompoly.roots.real_roots_exact

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(dompoly.roots, "real_roots_exact", counting)
    rs = all_roots(p)
    assert calls == [1]
    real = [r for r in rs.complex_roots if r.im == 0]
    assert len(real) == len(rs.real_intervals)
    for r, (lo, hi) in zip(real, rs.real_intervals):
        assert lo <= r.re <= hi
    mults = sorted({r.multiplicity for r in rs.complex_roots})
    assert len(mults) == len(rs.diagnostics)
    for mult, diag in zip(mults, rs.diagnostics):
        upper = [r for r in rs.complex_roots if r.multiplicity == mult and r.im > 0]
        assert diag.real_roots == sum(r.multiplicity == mult for r in real)
        assert diag.real_roots + 2 * len(upper) == diag.degree


def test_coincident_iterates_are_nudged_apart():
    """Two coincident iterates, or one on the real axis, make the repulsion
    divide by 0; both phases then nudge the moving iterate up, off the
    other and off the axis, and still converge, to the upper roots i and 2i
    of (x^2 + 1)(x^2 + 4), and to i for x^2 + 1 from the start 1."""
    for coeffs, starts, expect in [((4, 0, 5, 0, 1), [1 + 1j, 1 + 1j], [1, 2]),
                                   ((1, 0, 1), [1 + 0j], [1])]:
        upper = list(starts)
        _, converged = _aberth_sweeps([float(c) for c in coeffs], upper, [])
        assert converged
        assert sorted(z.imag for z in upper) == pytest.approx(expect)
        assert all(abs(z.real) < 1e-9 for z in upper)
        prec, scale = 64, 80
        grid = [(int(z.real) << scale, int(z.imag) << scale) for z in starts]
        _, converged = _fixed_sweeps(coeffs, grid, [], prec, scale)
        assert converged
        assert sorted(im / 2 ** scale for _, im in grid) == pytest.approx(expect)
        assert all(abs(re) < 2 ** (scale - 30) for re, _ in grid)


def test_all_roots_default_tol_follows_precision():
    assert default_tol(53) == 2.0 ** -45 and default_tol(74) == 2.0 ** -66
    assert default_tol(75) == default_tol(256) == 1e-20
    rs = all_roots(friendship(5), 53)
    assert max(r.residual for r in rs.complex_roots) <= default_tol(53)
    with pytest.raises(ConvergenceError):
        all_roots(friendship(5), 53, 1e-20)


def test_refinement_evaluations_per_root(monkeypatch):
    """Quadratic interval refinement brings each of the 27 isolating cells
    of cycle:150 down to 2^-40 in about 12 exact evaluations, where bisection
    took one per halving, about 34 per root."""
    calls = []
    original = dompoly.roots._scaled_value

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(dompoly.roots, "_scaled_value", counting)
    intervals = real_roots_exact(family_poly(FamilySpec("cycle", 150)))
    assert len(intervals) == 27
    assert all(hi - lo <= Fraction(1, 2 ** 40) for lo, hi in intervals)
    assert len(calls) <= 16 * len(intervals)


def test_all_roots_wilkinson():
    p = ONE
    for k in range(1, 21):
        p = p * (X - k * ONE)
    rs = all_roots(p)
    got = sorted(rs.complex_roots, key=lambda r: r.re)
    assert len(got) == 20
    for k, r in zip(range(1, 21), got):
        assert (r.re - k) ** 2 + r.im ** 2 < Fraction(1e-30) ** 2


def test_float_phase_stops_at_a_non_finite_iterate():
    """The double-precision sweeps of friendship:70 (degree 140 after the
    root 0: 2 real roots and 69 conjugate pairs) overflow within a few
    sweeps; they stop there instead of running all _MAX_SWEEPS, and the
    phase hands the folded Newton-polygon starts on unchanged, so
    `all_roots` reports float_sweeps 0 and starts at the working precision
    from them."""
    p = friendship(70)
    coeffs = p.coeffs[p.valuation:]
    intervals = real_roots_exact(P(coeffs))
    starts = _upper_starts(coeffs, (len(coeffs) - 1 - len(intervals)) // 2)
    assert len(starts) == 69 and all(z.imag > 0 and k == 0 for z, k in starts)
    upper = [z for z, _ in starts]
    reals = [float((lo + hi) / 2) for lo, hi in intervals]
    sweeps, converged = _aberth_sweeps([float(c) for c in coeffs], upper, reals)
    assert sweeps < _MAX_SWEEPS and not converged
    assert not all(map(cmath.isfinite, upper))
    assert _float_phase(coeffs, starts, [round(x * 2 ** 40) for x in reals], 40) == (0, starts)


def test_all_roots_without_float_phase():
    # 2^1100 is no finite double, so the solver starts at 256+ bits from the
    # Newton-polygon points
    rs = all_roots(X ** 2 - (2 ** 1100) * ONE)
    (diag,) = rs.diagnostics
    assert diag.float_sweeps == 0 and diag.converged
    assert diag.precision >= 1100
    values = sorted(rs.complex_roots, key=lambda r: r.re)
    for r, expect in zip(values, (-(2 ** 550), 2 ** 550)):
        assert (r.re - expect) ** 2 + r.im ** 2 < 2 ** (2 * (550 - 200))


@pytest.mark.parametrize("p, scale", [(X ** 2 + (2 ** 3000) * ONE, 1500),
                                      ((2 ** 3000) * X ** 2 + ONE, -1500)])
def test_starts_beyond_the_range_of_doubles(p, scale):
    """Roots +-2^1500*i and +-2^-1500*i: the Newton-polygon radius is no
    finite nonzero double, so each start is a double times 2^+-1500, and
    the solver converges from them at the working precision alone."""
    assert [k for _, k in _newton_polygon_starts(p.coeffs)] == [scale] * 2
    rs = all_roots(p)
    (diag,) = rs.diagnostics
    assert diag.converged and diag.float_sweeps == 0
    modulus = Fraction(2) ** scale
    for r, expect in zip(sorted(rs.complex_roots, key=lambda r: r.im), (-modulus, modulus)):
        assert r.re ** 2 + (r.im - expect) ** 2 < (modulus / 2 ** 200) ** 2


@pytest.mark.parametrize("p", [X ** 2 + (2 ** 3000) * ONE, (2 ** 3000) * X ** 2 + ONE])
def test_roots_beyond_the_range_of_doubles_sort_as_inside_it(p):
    """Parts below the range of doubles round to +-0.0, which compare equal,
    so the exact parts decide the order; a conjugate pair then lists its
    lower root first, as it does inside the range and above it (+-inf)."""
    signs = [r.im > 0 for r in all_roots(X ** 2 + ONE).complex_roots]
    assert signs == [False, True]
    assert [r.im > 0 for r in all_roots(p).complex_roots] == signs


@pytest.mark.parametrize(
    "kind, n",
    [("friendship", n) for n in range(1, 13)]
    + [("book", n) for n in range(1, 11)]
    + [("cycle", n) for n in range(3, 26)])
def test_roots_agree_with_mpmath_polyroots(kind, n):
    """The distinct nonzero roots agree to >= 70 digits, one to one, with
    mpmath's own solver (Durand-Kerner) at 600 bits on the square-free
    part, started from numpy's companion-matrix eigenvalues."""
    p = family_poly(FamilySpec(kind, n))
    rs = all_roots(p)
    f = square_free_part(P(p.coeffs[p.valuation:]))
    with mpmath.workprec(600):
        got = [mpc(r) for r in rs.complex_roots]
        starts = numpy.roots([float(c) for c in f.coeffs[::-1]])
        ref = mpmath.polyroots(f.coeffs[::-1], maxsteps=60, extraprec=128,
                               roots_init=[mpmath.mpc(complex(z)) for z in starts])
        assert len(got) == len(ref) == f.degree
        for a, b in ((got, ref), (ref, got)):
            for z in a:
                assert min(abs(z - w) for w in b) <= 1e-70 * max(1, abs(z))


@pytest.mark.parametrize("p", [
    family_poly(FamilySpec("friendship", 20)),
    (X * (X + 2 * ONE) * P([2, 2, 1])) ** 4,
], ids=["friendship:20", "corona"])
def test_all_roots_evaluates_nothing_in_mpmath(monkeypatch, p):
    """Residuals come from the solver's fixed point, at the returned roots;
    no mpmath re-evaluation of p follows."""
    calls = []
    original = IntPolynomial.eval_complex

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(IntPolynomial, "eval_complex", counting)
    P([1, 1]).eval_complex(1)
    assert calls == [1]  # the counter sees evaluations
    rs = all_roots(p)
    assert calls == [1]
    assert all(r.residual <= 1e-20 for r in rs.complex_roots)


PINNED = json.loads((pathlib.Path(__file__).parent / "data" / "roots_pinned.json").read_text())


@pytest.mark.parametrize("member", sorted(PINNED))
def test_roots_reproduce_the_pinned_members(member):
    """Every root of the members that the roots-solve benchmark draws,
    friendship, book and book_contracted 4..9 and cycle, path, star and
    complete 8..20, as the CLI prints it: re and im to 20 digits, and the
    residual.  They were recorded when the solver still iterated every
    root, real ones included; a nonreal root keeps all three strings, and
    a real root, now taken from the exact isolation, keeps re, has im
    exactly 0 where the iteration left rounding noise below 1e-40, and
    has a residual within the tolerance."""
    kind, n = member.split(":")
    rs = all_roots(family_poly(FamilySpec(kind, int(n))))
    got = [[_nstr(r.re), _nstr(r.im), repr(r.residual)] for r in rs.complex_roots]
    pinned = PINNED[member]
    assert len(got) == len(pinned)
    real = 0
    for (re, im, residual), (pin_re, pin_im, pin_residual) in zip(got, pinned):
        assert re == pin_re
        if im == "0.0":
            real += 1
            assert abs(float(pin_im)) < 1e-40
            assert float(residual) <= default_tol(256)
        else:
            assert (im, residual) == (pin_im, pin_residual)
    assert real == len(rs.real_intervals)


def test_newton_polygon_starts_match_root_moduli():
    p = (X - ONE) * (X - 10 ** 3 * ONE) * (X - 10 ** 6 * ONE)
    starts = _newton_polygon_starts(p.coeffs)
    assert len(starts) == 3 and all(k == 0 for _, k in starts)
    for root in (1, 10 ** 3, 10 ** 6):
        assert any(root / 2 <= abs(z) <= 2 * root for z, _ in starts)


def test_all_roots_validation():
    with pytest.raises(ValueError):
        all_roots(ONE)
    with pytest.raises(ValueError):
        all_roots(P())
    with pytest.raises(ValueError):
        all_roots(X, precision=40)


def test_corona_book_friendship_roots():
    # book:1 corona friendship:1 = (x(x+2)(x^2+2x+2))^4
    inner = corona_poly(family_poly(FamilySpec("friendship", 1)), 3, 4)
    assert inner == (X * (X + 2 * ONE) * P([2, 2, 1])) ** 4
    assert integer_roots(inner) == [-2, 0]
    assert len(real_roots_exact(inner)) == 2


# -- constructed-factor oracles ---------------------------------------------------


def test_real_roots_against_constructed_factors():
    # build polynomials from known linear and irreducible quadratic factors;
    # the distinct real roots are exactly the chosen linear roots
    rng = random.Random(51)
    for _ in range(60):
        real_roots = sorted(set(rng.randint(-6, 6)
                                for _ in range(rng.randint(0, 4))))
        p = ONE
        for r in real_roots:
            p = p * (X - r * ONE) ** rng.randint(1, 2)
        for _ in range(rng.randint(0, 2)):
            a = rng.randint(-4, 4)
            b = rng.randint(1 + a * a // 4, a * a // 4 + 5)  # discriminant < 0
            p = p * P([b, a, 1])
        if p.degree < 1:
            continue
        intervals = real_roots_exact(p)
        assert len(intervals) == len(real_roots)
        for (lo, hi), r in zip(intervals, real_roots):
            assert lo <= r <= hi
            if lo == hi:
                assert lo == r


def test_integer_roots_against_constructed_factors():
    rng = random.Random(52)
    for _ in range(60):
        roots = sorted(set(rng.randint(-9, 9) for _ in range(rng.randint(1, 4))))
        p = ONE
        for r in roots:
            p = p * (X - r * ONE)
        p = p * P([rng.randint(1, 3), 0, rng.randint(1, 2)])  # no real roots
        assert integer_roots(p) == roots


def test_count_consistent_with_isolation():
    rng = random.Random(53)
    for _ in range(40):
        p = P([rng.randint(-8, 8) for _ in range(rng.randint(2, 8))])
        if p.degree < 1:
            continue
        intervals = real_roots_exact(p)
        bound = root_bound_pow2(square_free_part(p))
        assert count_real_roots_in(p, -bound, bound) == len(intervals)


def test_all_roots_cross_checked_against_numpy():
    np = pytest.importorskip("numpy")
    p = friendship(6)  # degree 13, coefficients fit double precision
    reference = np.roots(np.array([float(c) for c in reversed(p.coeffs)]))
    rs = all_roots(p)
    mine = [complex(r) for r in rs.complex_roots] + [0j]
    assert len(mine) == len(reference)
    for z in reference:
        assert min(abs(z - w) for w in mine) < 1e-8
