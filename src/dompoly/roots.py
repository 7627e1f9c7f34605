"""Root analysis: multiprecision complex roots with residual bounds, exact
real-root isolation by Descartes bisection over the rationals, and exact
integer root detection.

Exactness split: anything feeding a count ("how many real roots", "is -2 a
root") goes through integer/rational arithmetic and is certified; complex
root positions are numerical and carry a normalized residual bound instead.
The real roots of each square-free factor come from its exact isolating
intervals, brought to the working precision by safeguarded Newton; the
nonreal ones from a simultaneous-iteration solver that moves one member of
each conjugate pair, in the upper half-plane, with the real roots held
fixed.  Both run in fixed point, on (re, im) pairs of Python integers (the
solver in doubles first), and return each root as a pair of exact dyadic
rationals: a real root with im exactly 0, a pair as (re, im) and
(re, -im).  A root's residual is that of its square-free factor at the
returned root, evaluated in the same fixed point: the one value that the
tolerance gates and the CLI prints.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .polynomials import (
    DEFAULT_PRECISION,
    MIN_PRECISION,
    ONE,
    IntPolynomial,
    _signed_prs,
    _working_precision,
    exact_div,
    horner,
    poly_gcd,
    taylor_shift,
)

DEFAULT_TOL = 1e-20  # the default residual tolerance from 75 bits up
DEFAULT_INTERVAL_WIDTH = Fraction(1, 2 ** 40)

# the divisor scan costs what real-root isolation does at a trailing coefficient
# of 10^7: 0.26 against 0.25 ms for (x+2)(x^2+N) (2-core x86-64, CPython 3.11)
_TRIAL_DIVISION_LIMIT = 10 ** 7
_MAX_SWEEPS = 400  # Aberth sweeps per phase before it counts as stalled


class ConvergenceError(RuntimeError):
    """A root missed the residual tolerance.

    `best` holds every root found, as (re, im, residual) triples.
    """

    def __init__(self, message: str, best: list):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class ComplexRoot:
    """The root re + i*im, rounded to the working precision: re and im are
    exact dyadic rationals (Fractions with power-of-two denominators)."""

    re: Fraction
    im: Fraction
    residual: float
    multiplicity: int

    def __complex__(self) -> complex:
        return complex(_float(self.re), _float(self.im))


def _float(x: Fraction) -> float:
    """The float nearest x, or an infinity beyond the range of floats."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


@dataclass(frozen=True)
class SolveDiagnostics:
    """What the complex solver did for one square-free factor.

    real_roots counts the roots taken from the exact isolation, so that
    the iteration ran on (degree - real_roots)/2 iterates, one per
    conjugate pair (none for a linear factor or one whose roots are all
    real: then both sweep counts are 0).  float_sweeps counts the
    double-precision Aberth sweeps whose iterates seeded the
    multiprecision phase (0 when that phase was skipped); mp_sweeps counts
    the sweeps of that phase, run on integer pairs in a fixed point fine
    enough to keep `precision` relative bits at every possible root, each
    product and quotient floored part by part (see `_aberth_roots`).
    converged says every iterate passed the backward-error test at
    2^-precision before the Newton polish.  polish_steps counts the
    Newton steps of the polish, each one p(z)/p'(z) in that fixed point:
    at most 4 per iterate, fewer where a step is 0; it takes no part in
    equality.
    """

    degree: int
    real_roots: int
    float_sweeps: int
    mp_sweeps: int
    converged: bool
    precision: int
    polish_steps: int = field(compare=False)


@dataclass(frozen=True)
class RootSet:
    """All roots of an integer polynomial.

    complex_roots lists the distinct nonzero roots (numerical, with residual
    bounds and exact multiplicities): one per interval of real_intervals,
    inside it and with im exactly 0, and each nonreal root beside its
    exact conjugate.  real_intervals isolates the distinct nonzero real
    roots in disjoint rational intervals, collapsed to lo == hi for roots
    found exactly.  integer_roots is exact and includes
    0 whenever zero_multiplicity >= 1.  diagnostics holds one
    SolveDiagnostics per square-free factor the complex solver ran on; it
    takes no part in equality and is never printed.
    """

    degree: int
    zero_multiplicity: int
    complex_roots: tuple[ComplexRoot, ...]
    real_intervals: tuple[tuple[Fraction, Fraction], ...]
    integer_roots: tuple[int, ...]
    diagnostics: tuple[SolveDiagnostics, ...] = field(default=(), compare=False)

    @property
    def nonzero_root_count(self) -> int:
        """Number of nonzero roots counted with multiplicity."""
        return sum(r.multiplicity for r in self.complex_roots)


# -- square-free machinery ----------------------------------------------------


def _div_roots(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive part of a/b, for b dividing a over Q.  Content is discarded
    deliberately; only roots matter here.

    The primitive part of b then divides a over Z (Gauss's lemma), so the
    division is exact in Z[x].
    """
    _, b_prim = b.content_and_primitive()
    _, prim = exact_div(a, b_prim).content_and_primitive()
    return prim


def square_free_part(p: IntPolynomial) -> IntPolynomial:
    """Primitive polynomial with the same roots as p, all simple: the
    primitive part q of p divided by gcd(q, q'), exact over Z by Gauss's
    lemma.  Its leading coefficient has the sign of p's."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return ONE
    _, q = p.content_and_primitive()
    return exact_div(q, poly_gcd(q, q.derivative()))


def square_free_decomposition(p: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """Distinct-root factors with multiplicities: p ~ prod f_k^k up to a
    constant.  Factors are primitive and pairwise coprime."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    _, c = p.content_and_primitive()
    if c.degree == 0:
        return []
    chain = [c]
    while chain[-1].degree >= 1:
        chain.append(poly_gcd(chain[-1], chain[-1].derivative()))
    w = [_div_roots(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    factors = []
    for k in range(len(w)):
        f = w[k] if k == len(w) - 1 else _div_roots(w[k], w[k + 1])
        if f.degree >= 1:
            factors.append((f, k + 1))
    return factors


# -- real roots -------------------------------------------------------------------


def sturm_chain(p: IntPolynomial) -> list[IntPolynomial]:
    """Canonical Sturm sequence of p over Z[x]: the signed primitive
    remainder sequence of p and p'.

    Remainders are scaled by positive constants only (content-stripped
    positively-scaled pseudo-remainders), which preserves every sign
    evaluation exactly.  Nothing in the package calls it: it is the
    independent count the tests check the Descartes isolation against, and
    the benchmark's tracer reports its time under this name.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    _, first = p.content_and_primitive()
    _, d = first.derivative().content_and_primitive()
    if d.is_zero:
        return [first]
    return list(_signed_prs(first, d))


def _sign_at(p: IntPolynomial, point: Fraction) -> int:
    """Exact sign of p(point)."""
    value = _scaled_value(p, point.numerator, point.denominator)
    return (value > 0) - (value < 0)


def _scaled_value(p: IntPolynomial, num: int, den: int) -> int:
    """den^d * p(num/den) for den > 0 and d = deg p, exact: homogeneous
    integer Horner, in which the powers of a power-of-two den, as at every
    bisection point, are shifts."""
    acc = 0
    if den & (den - 1) == 0:
        s = den.bit_length() - 1
        for j, c in enumerate(reversed(p.coeffs)):
            acc = acc * num + (c << (s * j))
    else:
        dpow = 1
        for c in reversed(p.coeffs):
            acc = acc * num + c * dpow
            dpow *= den
    return acc


def _variations(coeffs) -> int:
    """Sign changes along a coefficient sequence, zeros skipped."""
    signs = [c > 0 for c in coeffs if c]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def root_bound_pow2(p: IntPolynomial) -> int:
    """A power of two B with every root of p strictly inside |z| < B.

    Uses the Fujiwara-style bound 2*max_k |c_{d-k}/c_d|^(1/k), rounded up to
    a power of two by pure integer comparisons, then widened until +-B are
    verifiably not roots.
    """
    if p.is_zero or p.degree < 1:
        raise ValueError("root bound needs degree >= 1")
    d = p.degree
    lead = abs(p.coeffs[-1])
    e = 1
    while True:
        if all(abs(p.coeffs[d - k]) <= lead << (k * (e - 1)) for k in range(1, d + 1)):
            break
        e += 1
    b = 1 << e
    while p.eval_int(b) == 0 or p.eval_int(-b) == 0:
        b <<= 1
    return b


def real_roots_exact(p: IntPolynomial,
                     width: Fraction = DEFAULT_INTERVAL_WIDTH) -> list[tuple[Fraction, Fraction]]:
    """Isolate every distinct real root of p in disjoint rational intervals.

    Returned sorted ascending; an interval with lo == hi is an exact
    rational root (0 when x divides p, and rational roots hit by a
    bisection midpoint).  Each open interval (lo, hi) contains exactly one
    real root, has p(lo) != 0 != p(hi), and width <= `width`.

    The root 0 is split off exactly; the rest are the roots of the
    square-free part f of p / x^valuation, isolated by Descartes bisection
    on the dyadic grid of [-B, B], B = root_bound_pow2(f), split at 0 when
    x divides p.  An isolating cell is narrowed down to `width` by
    quadratic interval refinement, which ends where bisection would.  The
    intervals are those of exact root counting on that grid: descending
    towards a root, the first cell of width <= `width` that holds no other
    root and has no root as an endpoint, or the bisection midpoint that is
    the root, whichever comes first.
    """
    f, bound, cells, hits, exact = _isolate(p)
    # Descartes may need finer cells than exact counting would; below
    # `width`, report the widest cell that exact counting would have kept
    limit = min(width, Fraction(bound if 0 in exact else 2 * bound))

    def widest(lo: Fraction, hi: Fraction):
        best = None
        while hi - lo <= limit:
            inside = sum(lo < x < hi for x in exact) + sum(
                lo <= a and b <= hi for a, b in cells)
            if inside != 1 or lo in exact or hi in exact:
                break
            best = (lo, hi)
            size = 2 * (hi - lo)
            lo = (lo + bound) // size * size - bound
            hi = lo + size
        return best

    found = [(Fraction(0), Fraction(0))] if 0 in exact else []
    found += [widest(lo, hi) or _refine(f, lo, hi, width) for lo, hi in cells]
    found += [widest(lo, hi) or (mid, mid) for mid, lo, hi in hits]
    found.sort(key=lambda iv: iv[0])
    return found


def _isolate(p: IntPolynomial) -> tuple:
    """(f, B, cells, hits, exact): the square-free part f of p / x^valuation
    (ONE if that is constant), its root bound B, and the output of
    `_descartes_bisection`; `exact` holds the rational roots found, 0 among
    them when x divides p."""
    if p.is_zero:
        raise ValueError("zero polynomial has every point as a root")
    k = p.valuation
    exact = {Fraction(0)} if k else set()
    q = IntPolynomial(p.coeffs[k:])
    if q.degree < 1:
        return ONE, 1, [], [], exact
    f = square_free_part(q)
    bound = root_bound_pow2(f)
    return (f, bound, *_descartes_bisection(f, exact), exact)


def _descartes_bisection(f: IntPolynomial, exact: set) -> tuple[list, list]:
    """Bisect the dyadic cells [-2^j, 0] and [0, 2^j] until every real root
    of the square-free f is alone in a cell or a bisection midpoint.

    Each stack entry (lo, hi, g) carries the low-to-high coefficients of
    g(x) = c*f(lo + (hi - lo)*x) for some c > 0, so f's roots in (lo, hi)
    are g's in (0, 1).  By Descartes' rule their number is at most, and of
    the same parity as, the sign variations v of (x + 1)^d*g(1/(x + 1))
    (Collins & Akritas, 1976): a cell with v = 0 holds no root, one with
    v = 1 exactly one.  The halves carry 2^d*g(x/2) and its shift by 1.  A
    cell with an endpoint in `exact` is split again, like a cell with
    v >= 2.  The bisection starts from the narrowest cells [-2^j, 0] and
    [0, 2^j] that hold every real root.

    Returns the isolating cells (lo, hi), with f(lo) != 0 != f(hi), and the
    hits (mid, lo, hi), a root at the midpoint of the bisected (lo, hi);
    each hit is also added to `exact`.
    """
    stack = []
    for sign in (-1, 1):
        coeffs = [c * sign ** i for i, c in enumerate(f.coeffs)]  # f(sign*x)
        j = _real_root_exponent(coeffs)
        g = [c << (j * i) for i, c in enumerate(f.coeffs)]  # f(2^j*x)
        if sign < 0:
            g = taylor_shift(g, -1)  # f(2^j*(x - 1))
        lo = Fraction(min(0, sign << j))
        stack.append((lo, lo + (1 << j), g))
    cells, hits = [], []
    while stack:
        lo, hi, g = stack.pop()
        count = _descartes_count(g)
        if count == 0:
            continue
        if count == 1 and lo not in exact and hi not in exact:
            cells.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        left = _halve(g)
        right = taylor_shift(left, 1)
        if right[0] == 0:  # f(mid) = 0
            hits.append((mid, lo, hi))
            exact.add(mid)
        stack += [(lo, mid, left), (mid, hi, right)]
    return cells, hits


def _real_root_exponent(coeffs: list[int]) -> int:
    """The least j >= 0 such that the polynomial with low-to-high `coeffs`
    has no real root at or above 2^j: its shift by 2^j has a nonzero
    constant term and no sign variation.  No larger j than that of
    `root_bound_pow2` is needed, since every root has real part below it."""
    j = 0
    while True:
        shifted = taylor_shift(coeffs, 1 << j)
        if shifted[0] and _variations(shifted) == 0:
            return j
        j += 1


def _descartes_count(g: list[int]) -> int:
    """Sign variations of (x + 1)^d*g(1/(x + 1)); 0 at once when g itself
    has none, for then it has no positive root at all."""
    if _variations(g) == 0:
        return 0
    return _variations(taylor_shift(g[::-1], 1))


def _halve(g: list[int]) -> list[int]:
    """2^d*g(x/2), the polynomial of the left half of g's cell, divided by
    its largest power-of-two content so that coefficients stay short."""
    d = len(g) - 1
    coeffs = [c << (d - i) for i, c in enumerate(g)]
    twos = min((c & -c).bit_length() for c in coeffs if c) - 1
    return [c >> twos for c in coeffs]


def _refine(square_free: IntPolynomial, lo: Fraction, hi: Fraction,
            width: Fraction) -> tuple[Fraction, Fraction]:
    """Where bisecting the isolating cell (lo, hi) of a root r of
    `square_free` down to `width` ends.  With h = (hi - lo)/2^k for the
    least k that makes h <= width, that is (r, r) if r = lo + m*h for an
    integer m, a midpoint on the way, and otherwise the cell
    (lo + m*h, lo + (m+1)*h) around r.

    Found by quadratic interval refinement (Abbott, ISSAC 2006) on the grid
    lo + m*h, with the exact values at a common denominator: a secant
    through the values at the ends of the current cell, rounded to one of
    N + 1 evenly spaced grid points, and the sign there pick a subcell of
    width 1/N of the cell, kept when the signs at its two ends differ.  N
    starts at 4 and is squared on success; on failure it is replaced by
    its square root and the cell is bisected.  Near a simple root the
    secant's error shrinks quadratically, so a few evaluations replace the
    one per halving of bisection.
    """
    span = hi - lo
    # the least k with 2^k >= ceil(span/width), in integers
    a = span.numerator * width.denominator
    b = width.numerator * span.denominator
    k = ((a + b - 1) // b - 1).bit_length()
    h = span / (1 << k)
    den = math.lcm(lo.denominator, h.denominator)
    base = lo.numerator * (den // lo.denominator)
    unit = h.numerator * (den // h.denominator)
    values = {}
    d = square_free.degree

    def sign(m: int) -> int:  # of the value at lo + m*h
        if m not in values:  # at the reduced denominator, scaled back to den
            num = base + m * unit
            t = ((num | den) & -(num | den)).bit_length() - 1
            values[m] = _scaled_value(square_free, num >> t, den >> t) << (t * d)
        return (values[m] > 0) - (values[m] < 0)

    a, b = 0, 1 << k
    sign_a = sign(a)
    sign(b)
    log_n = 2
    while b - a > 1:
        n = min(1 << log_n, b - a)
        step = (b - a) // n
        va, vb = values[a], values[b]
        m = a + (2 * n * va + va - vb) // (2 * (va - vb)) * step  # the secant's
        sign_m = sign(m)
        if sign_m == 0:
            return (lo + m * h,) * 2
        other = m + step if sign_m == sign_a else m - step  # the subcell's other end
        sign_other = sign(other)
        if sign_other == 0:
            return (lo + other * h,) * 2
        if sign_other != sign_m:
            a, b = min(m, other), max(m, other)
            sign_a = sign(a)
            log_n *= 2
            continue
        log_n = max(1, log_n // 2)
        mid = (a + b) // 2
        sign_mid = sign(mid)
        if sign_mid == 0:
            return (lo + mid * h,) * 2
        if sign_mid == sign_a:
            a = mid
        else:
            b = mid
    return (lo + a * h, lo + b * h)


def count_real_roots_in(p: IntPolynomial, a, b) -> int:
    """Exact number of distinct real roots of p in the open interval (a, b).

    Endpoints that happen to be roots are excluded from the count, which
    resolves the endpoint ambiguity deterministically.  The count comes
    from the isolating cells; one that contains a or b tells which side its
    root is on by the sign of the square-free part there.
    """
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        if a == b:
            return 0
        raise ValueError("need a < b")
    f, _, cells, _, exact = _isolate(p)
    count = sum(a < x < b for x in exact)
    for lo, hi in cells:
        if a < hi and lo < b:
            count += ((lo >= a or _sign_at(f, a) == _sign_at(f, lo))
                      and (hi <= b or _sign_at(f, b) == _sign_at(f, hi)))
    return count


# -- integer roots -------------------------------------------------------------


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small = [i for i in range(1, math.isqrt(n) + 1) if n % i == 0]
    return small + [n // i for i in reversed(small) if i * i != n]


def integer_roots(p: IntPolynomial) -> list[int]:
    """All integer roots of p, each verified by exact evaluation.

    Candidates are the divisors of the least nonzero coefficient; 0 is
    included when x divides p.  If that coefficient is too large to scan by
    trial division, candidates come from the exact real-root isolating
    intervals instead (an integer root always lies in one).
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    k = p.valuation
    roots = [0] if k >= 1 else []
    q = IntPolynomial(p.coeffs[k:])
    if q.degree < 1:
        return roots
    if abs(q.coeffs[0]) <= _TRIAL_DIVISION_LIMIT:
        candidates = {s * d for d in _divisors(q.coeffs[0]) for s in (1, -1)}
    else:
        candidates = {r for lo, hi in real_roots_exact(q)
                      for r in (math.ceil(lo), math.floor(hi)) if lo <= r <= hi}
    return sorted(roots + [r for r in candidates if q.eval_int(r) == 0])


# -- complex roots (Aberth-Ehrlich) ---------------------------------------------


def default_tol(precision: int) -> float:
    """The residual tolerance used when none is given: 1e-20, or 2^(8 - p)
    when that is larger, at a working precision p below 75 bits.  A root
    rounded to p bits has a residual of order 2^-p, which 1e-20 rejects at
    53 and at 64 bits."""
    return max(DEFAULT_TOL, 2.0 ** (8 - precision))


def all_roots(p: IntPolynomial, precision: int = DEFAULT_PRECISION,
              tol: float | None = None) -> RootSet:
    """Every root of p: the x^k factor handled exactly, the real roots of
    each square-free factor brought from their exact isolating intervals
    onto the working precision by safeguarded Newton, and its nonreal roots
    by simultaneous iteration on one member of each conjugate pair,
    Newton-polished.

    A root's residual is |f(z)| / (max|c_i| * max(1,|z|)^deg f), where f is
    the square-free factor it is a root of and z the returned root, rounded
    to the working precision.  It is evaluated in the solver's fixed point,
    whose error bound `_aberth_roots` states, and a residual above `tol`
    raises ConvergenceError; `tol` defaults to `default_tol(precision)`.
    A real root has im exactly 0, and a nonreal root's conjugate is listed
    too, with equal re and residual.  The iteration starts from
    Newton-polygon points computed from the integer coefficients, runs in
    double precision first and finishes at the working precision, all
    deterministically, so repeated runs give identical output.
    """
    if p.is_zero or p.degree < 1:
        raise ValueError("need a polynomial of degree >= 1")
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be >= {MIN_PRECISION}")
    if tol is None:
        tol = default_tol(precision)
    k0 = p.valuation
    cofactor = IntPolynomial(p.coeffs[k0:])
    intervals = real_roots_exact(cofactor)
    complex_roots: list[ComplexRoot] = []
    diagnostics: list[SolveDiagnostics] = []
    if cofactor.degree >= 1:
        for factor, mult in square_free_decomposition(cofactor):
            # the isolating intervals of this factor's roots: the factors
            # are coprime and vanish at no open interval's end, so exactly
            # one changes sign across each interval or vanishes at its point
            mine = [(lo, hi) for lo, hi in intervals
                    if _sign_at(factor, lo) * _sign_at(factor, hi) <= 0]
            roots, diag = _aberth_roots(factor, mine, precision, tol)
            diagnostics.append(diag)
            complex_roots += [ComplexRoot(*root, mult) for root in roots]
    # the exact parts break ties between parts beyond the range of doubles
    complex_roots.sort(key=lambda r: (_float(r.re), _float(r.im), r.re, r.im))
    return RootSet(
        degree=p.degree,
        zero_multiplicity=k0,
        complex_roots=tuple(complex_roots),
        real_intervals=tuple(intervals),
        integer_roots=tuple(integer_roots(p)),
        diagnostics=tuple(diagnostics),
    )


def _newton_polygon_starts(coeffs) -> list[tuple[complex, int]]:
    """Bini's starting points for the roots of sum(c_i x^i), c_0 != 0, as
    pairs (z, k) that stand for z*2^k.

    Each edge (k0, k1) of the upper convex hull of the points (i, log|c_i|)
    contributes m = k1 - k0 points on the circle of radius
    (|c_k0|/|c_k1|)^(1/m), the typical modulus of m of the roots.  Angles
    are offset per edge so that the circles' points do not line up and no
    start is real.  k is 0 where the radius is a finite nonzero double, and
    otherwise the power of two nearest it.
    """
    d = len(coeffs) - 1
    hull: list[tuple[int, float]] = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        point = (i, math.log(abs(c)))
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], point) >= 0:
            hull.pop()
        hull.append(point)
    starts = []
    for (k0, log0), (k1, log1) in zip(hull, hull[1:]):
        m = k1 - k0
        log_radius = (log0 - log1) / m
        k = 0 if -745 < log_radius < 709.78 else round(log_radius / math.log(2))
        radius = math.exp(log_radius - k * math.log(2))
        offset = 2 * math.pi * k0 / d + 0.7
        starts += [(cmath.rect(radius, 2 * math.pi * j / m + offset), k)
                   for j in range(m)]
    return starts


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _upper_starts(coeffs, u: int) -> list[tuple[complex, int]]:
    """The Newton-polygon starts (z, k) folded into the upper half-plane,
    z conjugated where Im z < 0, and of those the u whose z*2^k has the
    largest imaginary part, compared exactly: a positive Im z = m*2^e with
    1/2 <= m < 1 orders by e + k, then by m, and 0 comes last."""
    def height(start):
        m, e = math.frexp(start[0].imag)
        return m > 0, e + start[1], m

    folded = [(z.conjugate() if z.imag < 0 else z, k)
              for z, k in _newton_polygon_starts(coeffs)]
    folded.sort(key=height, reverse=True)
    return folded[:u]


def _aberth_sweeps(coeffs, upper: list, reals: list) -> tuple[int, bool]:
    """Aberth-Ehrlich sweeps in double precision over `upper`, one iterate
    per conjugate pair of nonreal roots, updated in place, with the real
    roots `reals` held fixed.  Each iterate z is repelled by every other
    root: the other iterates and their conjugates, its own conjugate and
    the real roots.  An update that crosses the real axis is reflected
    back.  An iterate is frozen once it passes Bini's backward-error test
    |p(z)| <= 4*d*eps*sum|c_i||z|^i with eps = 2^-53, i.e. once it is an
    exact root of a polynomial within rounding of p; the others keep
    moving.  Returns the sweeps run and whether every iterate was frozen.
    `_fixed_sweeps` is the same loop at the working precision.
    """
    d = len(coeffs) - 1
    dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]
    moduli = [abs(c) for c in coeffs]
    bound = 4 * d * 2.0 ** -53
    frozen = [False] * len(upper)
    for sweep in range(1, _MAX_SWEEPS + 1):
        for j, z in enumerate(upper):
            if frozen[j]:
                continue
            pz = horner(coeffs, z)
            if abs(pz) <= bound * horner(moduli, abs(z)):
                frozen[j] = True
                continue
            try:
                repulsion = 1 / (z - z.conjugate())
                for i, x in enumerate(upper):
                    if i != j:
                        repulsion += 1 / (z - x) + 1 / (z - x.conjugate())
                for x in reals:
                    repulsion += 1 / (z - x)
                z -= pz / (horner(dcoeffs, z) - pz * repulsion)
                upper[j] = z.conjugate() if z.imag < 0 else z
            except ZeroDivisionError:
                # an iterate on the real axis, coincident iterates or a
                # zero Aberth denominator
                upper[j] = z + 1j * bound * (1 + abs(z))
            if not cmath.isfinite(upper[j]):
                # NaN spreads to every later update, and an infinite
                # iterate stays infinite or freezes there, so the sweeps
                # cannot end finite and `_float_phase` drops them anyway
                return sweep, False
        if all(frozen):
            return sweep, True
    return _MAX_SWEEPS, False


def _fixed_sweeps(coeffs, upper: list, reals: list, prec: int, s: int) -> tuple[int, bool]:
    """`_aberth_sweeps` with eps = 2^-prec over pairs (re, im) of integers,
    the points (re + i*im)/2^s, and the integer `coeffs`; `upper` is
    updated in place, and the real roots `reals` are integers on the same
    grid.  Moduli are floored square roots, and every product or quotient
    of two points is floored to a multiple of 2^-s, part by part; sums
    are exact."""
    d = len(coeffs) - 1
    dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]
    moduli = [abs(c) << s for c in reversed(coeffs)]  # high to low, at scale s
    bound = 4 * d << (s - prec)  # 4*d*eps at scale s
    one, s2 = 1 << s, 2 * s
    frozen = [False] * len(upper)
    for sweep in range(1, _MAX_SWEEPS + 1):
        for j, (zr, zi) in enumerate(upper):
            if frozen[j]:
                continue
            pr, pi = _fixed_horner(coeffs, zr, zi, s)
            size = math.isqrt(zr * zr + zi * zi)
            acc = 0  # the modulus sum |c_0| + |c_1|*|z| + ..., by real Horner
            for c in moduli:
                acc = ((acc * size) >> s) + c
            if math.isqrt(pr * pr + pi * pi) <= bound * acc >> s:
                frozen[j] = True
                continue
            try:
                # the repulsion, sum 1/(z - x) over the other roots x,
                # each 1/(cr + i*ci) = (cr - i*ci)/(cr^2 + ci^2); from the
                # own conjugate, cr = 0 and ci = 2*zi
                rr, ri = 0, (-1 << s2) // (2 * zi)
                for i, (xr, xi) in enumerate(upper):
                    if i != j:
                        cr = zr - xr
                        for ci in (zi - xi, zi + xi):
                            norm = cr * cr + ci * ci
                            rr += (cr << s2) // norm
                            ri += (-ci << s2) // norm
                for x in reals:
                    cr = zr - x
                    norm = cr * cr + zi * zi
                    rr += (cr << s2) // norm
                    ri += (-zi << s2) // norm
                dr, di = _fixed_horner(dcoeffs, zr, zi, s)
                qr, qi = _fixed_div(pr, pi, dr - ((pr * rr - pi * ri) >> s),
                                    di - ((pr * ri + pi * rr) >> s), s)
                upper[j] = zr - qr, abs(zi - qi)
            except ZeroDivisionError:
                # an iterate on the real axis, coincident iterates or a
                # zero Aberth denominator
                upper[j] = zr, zi + (bound * (size + one) >> s)
        if all(frozen):
            return sweep, True
    return _MAX_SWEEPS, False


def _fixed_horner(coeffs, zr: int, zi: int, s: int) -> tuple[int, int]:
    """Value at z = (zr + i*zi)/2^s of the polynomial with low-to-high
    integer `coeffs`, as a pair at scale s: Horner's rule over the integers.
    Each step floors the parts of the product of the accumulator and z to
    multiples of 2^-s and adds the coefficient exactly."""
    ar = ai = 0
    for c in reversed(coeffs):
        ar, ai = ((ar * zr - ai * zi) >> s) + (c << s), (ar * zi + ai * zr) >> s
    return ar, ai


def _fixed_div(ar: int, ai: int, br: int, bi: int, s: int) -> tuple[int, int]:
    """The quotient of the points (ar + i*ai)/2^s and (br + i*bi)/2^s as a
    pair at scale s, each part floored; ZeroDivisionError when the divisor
    is 0."""
    norm = br * br + bi * bi
    return ((ar * br + ai * bi) << s) // norm, ((ai * br - ar * bi) << s) // norm


def _float_phase(coeffs: tuple[int, ...], starts: list, reals: list,
                 s: int) -> tuple[int, list]:
    """Double-precision Aberth iterates from the upper-half-plane `starts`,
    as (z, 0) pairs, and the sweeps they took, with the real roots
    `reals`, integers at scale s, held fixed; the starts themselves and 0
    sweeps when a coefficient, a real root, a start or an iterate is not a
    finite float."""
    if any(k for _, k in starts):
        return 0, starts
    upper = [z for z, _ in starts]
    try:
        sweeps, _ = _aberth_sweeps([float(c) for c in coeffs], upper,
                                   [x / (1 << s) for x in reals])
    except OverflowError:
        return 0, starts
    if not all(cmath.isfinite(z) for z in upper):
        return 0, starts
    return sweeps, [(z, 0) for z in upper]


def _newton_real(f: IntPolynomial, dcoeffs, lo: Fraction, hi: Fraction, s: int) -> int:
    """The root of the square-free f in its isolating interval (lo, hi) as
    a point of the grid at scale s: Newton's method on the real line in the
    solver's fixed point (`_fixed_horner` at im 0), safeguarded as in
    rtsafe (Press et al., Numerical Recipes).  The grid points a <= b in
    [lo, hi] bracket the root, and each value's sign moves one of them to
    the point it was taken at; a Newton step that would leave the bracket,
    or that is not at most half the step before, is replaced by a
    bisection of the bracket.  Returns the first point whose value is
    within the evaluation's error bound 2*(d+1)*max(1,|x|)^d (at scale s;
    see `_aberth_roots`), where it cannot tell the root from its
    neighbours, or whose step is 0 on the grid."""
    d = f.degree
    a = -(-lo.numerator << s) // lo.denominator
    b = (hi.numerator << s) // hi.denominator
    size = max(1 << s, abs(a), abs(b))
    noise = (2 * (d + 1) * size ** d >> (s * d)) + 1
    rising = _sign_at(f, lo) < 0
    x, dx = (a + b) >> 1, b - a
    while True:
        v = _fixed_horner(f.coeffs, x, 0, s)[0]
        if abs(v) <= noise:
            return x
        if (v < 0) == rising:
            a = x
        else:
            b = x
        dv = _fixed_horner(dcoeffs, x, 0, s)[0]
        step = (v << s) // dv if dv else dx
        if not a <= x - step <= b or 2 * abs(step) > abs(dx):
            step = x - ((a + b) >> 1)
        if step == 0:
            return x
        x, dx = x - step, step


def _on_grid(x: Fraction, s: int) -> int:
    """The rational x floored to the grid at scale s, with a sticky last
    bit set when the floor is inexact, so that it rounds as x itself to
    any precision at least 2 bits coarser."""
    q, r = divmod(x.numerator << s, x.denominator)
    return q | bool(r)


def _round_bits(m: int, prec: int) -> int:
    """The integer m rounded to `prec` significant bits, ties to even."""
    shift = m.bit_length() - prec
    if shift <= 0:
        return m
    q, r = divmod(m, 1 << shift)
    return q + (2 * r > 1 << shift or 2 * r == 1 << shift and q & 1) << shift


def _floor_scaled(x: float, e: int) -> int:
    """floor(x * 2^e) for a finite float x and e >= 0."""
    n, d = x.as_integer_ratio()
    return (n << e) // d


def _aberth_roots(f: IntPolynomial, intervals: list, precision: int, tol: float
                  ) -> tuple[list[tuple[Fraction, Fraction, float]], SolveDiagnostics]:
    """Roots of a square-free integer polynomial with f(0) != 0, all
    simple, as (re, im, residual), and what the solver did to find them.
    `intervals` are the exact isolating intervals of f's real roots, as
    `real_roots_exact` returns them.

    Everything runs on pairs (re, im) of integers, the grid points
    (re + i*im)/2^P with P = prec + w + bitlen(d) + 8, w the widest
    coefficient's bit length, over the integer coefficients.  Each real
    root enters the grid by `_newton_real` from its interval, or floored
    with a sticky bit (`_on_grid`) where it is exact: an interval with
    lo == hi, or the root -c_0/c_1 of a linear f.  The u = (d - r)/2
    nonreal roots of the upper half-plane are found by Aberth's method
    with the r real roots held fixed and each iterate standing for a
    conjugate pair.  Cheap double-precision sweeps (`_aberth_sweeps`) from
    the folded Newton-polygon starts (`_upper_starts`) bring them close
    (MPSolve's strategy); sweeps at the working precision prec
    (`_fixed_sweeps`), started from those iterates floored on the grid,
    then need only a few more.  A Newton polish follows, up to 4 steps
    per iterate, each p(z)/p'(z) by `_fixed_div`, and stops at a step that
    is 0 on the grid, after which z could not move.  Each part of a root
    leaves the grid rounded to prec significant bits, ties to even.

    On the grid a sum is exact, a modulus is a floored square root, and a
    product or quotient of two points, in `_fixed_horner`, `_fixed_div` and
    the repulsion sum, floors each part to a multiple of 2^-P, so it is off
    by less than sqrt(2)*2^-P.  Every root has |z| >= 2^-(w+1), since
    |c_0| >= 1 and |c_i| < 2^w, so each iterate near a root keeps at least
    prec relative bits.  One Horner evaluation at a point z of the grid
    floors d + 1 products, and the error of the one made k steps before
    the end is multiplied by z^k, so it is off by at most
    2*(d+1)*2^-P*max(1,|z|)^d.  As |c_0|, |c_d| >= 1, that is below
    2^-prec*sum|c_i||z|^i / 8, because 16*(d+1) <= 2^(bitlen(d)+4) <=
    2^(P-prec).  Bini's freeze test |p(z)| <= 4*d*2^-prec*sum|c_i||z|^i
    therefore stays sound: rounding moves |p(z)| by under 1/(32*d) of its
    threshold.

    The residual of a root is |f(z)| / (max|c_i| * max(1, |z|)^d) at the
    returned, rounded z, which lies on the grid: rounding a multiple of
    2^-P to prec bits keeps it one.  A sticky last bit lies 8 bits below
    the rounding position, so an exact root rounds as the exact value.  A
    conjugate pair is evaluated once, since |f(conj z)| = |f(z)| for real
    f, and its members are (re, im) and (re, -im).  A residual above `tol`
    raises ConvergenceError.
    """
    d = f.degree
    prec = _working_precision(f, precision)
    w = max(abs(c).bit_length() for c in f.coeffs)
    scale = prec + w + d.bit_length() + 8
    dcoeffs = f.derivative().coeffs
    if d == 1:
        reals = [_on_grid(Fraction(-f.coeffs[0], f.coeffs[1]), scale)]
    else:
        reals = [_on_grid(lo, scale) if lo == hi else _newton_real(f, dcoeffs, lo, hi, scale)
                 for lo, hi in intervals]
    upper = []
    float_sweeps = mp_sweeps = polish_steps = 0
    converged = True
    u = (d - len(reals)) // 2
    if u:
        float_sweeps, starts = _float_phase(f.coeffs, _upper_starts(f.coeffs, u),
                                            reals, scale)
        upper = [(_floor_scaled(z.real, scale + k), _floor_scaled(z.imag, scale + k))
                 for z, k in starts]
        mp_sweeps, converged = _fixed_sweeps(f.coeffs, upper, reals, prec, scale)
        # Newton polish at full precision, up to 4 steps per root; a step
        # that is 0 on the grid would repeat itself, so it ends the polish
        for j, (zr, zi) in enumerate(upper):
            for _ in range(4):
                try:
                    qr, qi = _fixed_div(*_fixed_horner(f.coeffs, zr, zi, scale),
                                        *_fixed_horner(dcoeffs, zr, zi, scale), scale)
                except ZeroDivisionError:
                    break
                polish_steps += 1
                if not (qr or qi):
                    break
                zr, zi = zr - qr, zi - qi
            upper[j] = zr, zi
    diagnostics = SolveDiagnostics(d, len(reals), float_sweeps, mp_sweeps, converged,
                                   prec, polish_steps)
    norm = max(abs(c) for c in f.coeffs)
    found = []  # a real root is one member, an iterate a conjugate pair
    for members, (re, im) in [(1, (x, 0)) for x in reals] + [(2, z) for z in upper]:
        re, im = _round_bits(re, prec), _round_bits(im, prec)
        # |f(z)| / (max|c_i| * max(1, |z|)^d) on the grid
        vr, vi = _fixed_horner(f.coeffs, re, im, scale)
        size = max(1 << scale, math.isqrt(re * re + im * im))
        residual = (math.isqrt(vr * vr + vi * vi) << (scale * (d - 1))) / (norm * size ** d)
        found += [(Fraction(re, 1 << scale), Fraction(part, 1 << scale), residual)
                  for part in (im, -im)[:members]]
    worst = max(residual for _, _, residual in found)
    if worst > tol:
        state = "converged but inaccurate" if converged else "stalled"
        raise ConvergenceError(
            f"Aberth iteration {state} (max residual {worst:.3e} > tol {tol:.3e})",
            best=found)
    return found, diagnostics
