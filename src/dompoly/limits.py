"""Limit curves of root sequences for exponential polynomial families.

A family f_n = sum_i alpha_i(z) * lambda_i(z)^n accumulates its roots, as
n grows, on the locus where the two largest |lambda_i| tie (traced here by
sign-change contouring plus bisection) and at isolated points where the
dominant term's alpha vanishes.  The friendship family places that locus on
the hyperbola (Re x + 1)^2 - (Im x)^2 = 1/2 with the isolated point 0; the
book family adds a circle arc and a |x+1|^2 = |x| arc meeting the hyperbola
at real part -3/2 - sqrt(2)/2.

The hyperbola sign convention follows from the equimodularity computation
|x^2+2x| = |x+1|^2 itself (substitute x = a-1+bi and square), not from any
memorized formula; a plus sign would describe a circle, which the traced
locus visibly is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .domination import ExponentialFamily
from .polynomials import IntPolynomial, horner
from .roots import all_roots

BOOK_JUNCTION_RE = -1.5 - math.sqrt(2) / 2  # where the book arcs meet

_DOMINANCE_SLACK = 1e-9
_BISECTION_STEPS = 200
_CHORDAL_SAMPLES = 513  # odd: the real-axis vertices are among the samples
_CHORDAL_IM_MAX = 3.0  # |Im w| sampled uniformly below this, in 1/Im w beyond


# -- curve containers -----------------------------------------------------------


@dataclass(frozen=True)
class CurvePiece:
    """One labeled arc: ordered samples, an implicit-form identifier and a
    real-part validity window."""

    implicit_id: str
    points: tuple[complex, ...]
    re_window: tuple[float, float] = (-math.inf, math.inf)
    connected: bool = True

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, ...]:
        """The samples as coordinate arrays (re, im), built once per piece.

        A polyline (connected, at least two samples) gets its segments
        instead: start re, start im, step re, step im and squared length.
        The squared length is Python's ``abs(b - a) ** 2`` (libm pow), which
        differs from ``h * h`` in the last bit for about 1 in 1,300 lengths.
        """
        re = np.array([z.real for z in self.points], dtype=float)
        im = np.array([z.imag for z in self.points], dtype=float)
        if not (self.connected and len(self.points) >= 2):
            return re, im
        step_re, step_im = re[1:] - re[:-1], im[1:] - im[:-1]
        length2 = np.array([h ** 2 for h in np.hypot(step_re, step_im).tolist()])
        return re[:-1], im[:-1], step_re, step_im, length2


@dataclass(frozen=True)
class LimitCurve:
    pieces: tuple[CurvePiece, ...]
    isolated_points: tuple[complex, ...] = ()


def hyperbola_residual(z: complex) -> float:
    return abs((z.real + 1) ** 2 - z.imag ** 2 - 0.5)


# -- analytic curves -------------------------------------------------------------


def friendship_limit_curve(samples: int = 513, im_max: float = 3.0) -> LimitCurve:
    """Both branches of (Re x + 1)^2 - (Im x)^2 = 1/2 plus the isolated
    limit point 0.  The real-axis crossings -1 +- 1/sqrt(2) are always
    among the samples."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if samples % 2 == 0:
        samples += 1  # keep the b = 0 crossing in the sample set
    bs = _lerp(-im_max, im_max, _unit_steps(samples))
    root = np.sqrt(0.5 + bs * bs)
    right = _complexes(-1 + root, bs)
    left = _complexes(-1 - root, bs)
    return LimitCurve(
        pieces=(
            CurvePiece("hyperbola", right),
            CurvePiece("hyperbola", left),
        ),
        isolated_points=(0j,),
    )


def book_limit_curve(samples: int = 513) -> LimitCurve:
    """The three-arc limit locus of the book family.

    Arc 1: |x+2| = 1 with Re x >= -3/2 - sqrt(2)/2.
    Arc 2: the hyperbola branch with Re x >= -1 (the right-half-plane
            portion; the window is configurable via the returned piece).
    Arc 3: |x+1|^2 = |x| with Re x <= -3/2 - sqrt(2)/2.

    The case-(ii) isolated points 0 and -1/2 (vanishing leading alphas with
    a strictly dominant lambda) ride along.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    j_re = BOOK_JUNCTION_RE
    # circle arc: cos(theta) >= (1-sqrt 2)/2 keeps |lambda1|=|lambda3|
    # dominant over |lambda2|
    theta_max = math.acos((1 - math.sqrt(2)) / 2)
    # math.cos/sin, not numpy's: its SIMD sin/cos need not match libm's bits
    thetas = _lerp(-theta_max, theta_max, _unit_steps(samples)).tolist()
    circle_pts = tuple(complex(-2 + math.cos(t), math.sin(t)) for t in thetas)

    im_max = 3.0
    bs = _lerp(-im_max, im_max, _unit_steps(samples))
    hyper_pts = _complexes(-1 + np.sqrt(0.5 + bs * bs), bs)

    a_min = (-3 - math.sqrt(5)) / 2  # where the arc closes on the real axis
    half = max(2, samples // 2)
    upper = _lerp(j_re, a_min, _unit_steps(half))
    # the upper half already ends at the real-axis point a_min
    lower = _lerp(a_min, j_re, _unit_steps(half))[1:]
    balance_pts = (_modulus_balance_points(upper, 1.0)
                   + _modulus_balance_points(lower, -1.0))

    return LimitCurve(
        pieces=(
            CurvePiece("circle", circle_pts, re_window=(j_re, math.inf)),
            CurvePiece("hyperbola", hyper_pts, re_window=(-1.0, math.inf)),
            CurvePiece("modulus-balance", balance_pts,
                       re_window=(-math.inf, j_re)),
        ),
        isolated_points=(0j, complex(-0.5, 0.0)),
    )


def _hyperbola_point(b: float, sign: float) -> complex:
    """The point with imaginary part b on the right (sign 1) or left
    (sign -1) branch of (Re x + 1)^2 - (Im x)^2 = 1/2."""
    return complex(-1 + sign * math.sqrt(0.5 + b * b), b)


def _modulus_balance_points(a: np.ndarray, sign: float) -> tuple[complex, ...]:
    """The points with real parts a on the upper (sign 1) or lower (sign -1)
    half of |x+1|^2 = |x|: the modulus s = |x| solves s^2 - s + 2a + 1 = 0,
    so s = (1 + sqrt(-8a-3))/2 and |Im x| = sqrt(s^2 - a^2)."""
    s = (1 + np.sqrt(_positive_part(-8 * a - 3))) / 2
    return _complexes(a, sign * np.sqrt(_positive_part(s * s - a * a)))


def _positive_part(x: np.ndarray) -> np.ndarray:
    """max(0.0, x) elementwise, as Python's max: 0.0 for -0.0 and NaN."""
    return np.where(x > 0.0, x, 0.0)


def _lerp(a, b, t):
    """a + (b - a) * t, for a float t or an array of them."""
    return a + (b - a) * t


def _unit_steps(count: int) -> np.ndarray:
    """k / (count - 1) for k = 0 .. count - 1, each correctly rounded."""
    return np.arange(count) / (count - 1)


def _complexes(re: np.ndarray, im: np.ndarray) -> tuple[complex, ...]:
    return tuple(map(complex, re.tolist(), im.tolist()))


# -- generic BKW tracer ----------------------------------------------------------


@dataclass(frozen=True)
class GridRegion:
    re_min: float = -4.0
    re_max: float = 2.0
    im_min: float = -3.0
    im_max: float = 3.0
    re_cells: int = 120
    im_cells: int = 120

    def __post_init__(self):
        bounds = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not all(math.isfinite(v) for v in bounds):
            raise ValueError("grid bounds must be finite")
        if self.re_min >= self.re_max or self.im_min >= self.im_max:
            raise ValueError("empty grid region")
        if self.re_cells < 2 or self.im_cells < 2:
            raise ValueError("grid needs at least 2 cells per axis")


def bkw_limit_points(family: ExponentialFamily, grid: GridRegion | None = None,
                     tol: float = 1e-12) -> LimitCurve:
    """Trace the limit-of-roots set of an exponential family on a grid.

    Pairwise equimodular loci are found by sign-change contouring of
    |lambda_i| - |lambda_j| along grid edges, refined by bisection until the
    modulus gap is below tol, and kept only where the tied pair dominates
    the remaining lambdas.  Isolated points are roots of each alpha_j at
    which lambda_j strictly dominates.

    Grid nodes, edges and bisections are float64 arrays, and each array
    operation is the one Python complex arithmetic performs on a single
    point, so every point is bit-identical to a point-by-point evaluation.

    Rejects degenerate families where lambda_i = +-lambda_j for some pair
    (the locus would be the whole plane).
    """
    grid = grid or GridRegion()
    lambdas: Sequence[IntPolynomial] = tuple(family.lambdas)
    _reject_degenerate(lambdas)

    pieces = []
    # overflow to inf and inf - inf = NaN pass silently, as for Python floats
    with np.errstate(all="ignore"):
        re = _lerp(grid.re_min, grid.re_max, _unit_steps(grid.re_cells + 1))
        im = _lerp(grid.im_min, grid.im_max, _unit_steps(grid.im_cells + 1))
        nodes = _SplitComplex(re[np.newaxis, :], im[:, np.newaxis])  # rows: im
        moduli = [abs(horner(lam.coeffs, nodes)) for lam in lambdas]
        for i in range(len(lambdas)):
            for j in range(i + 1, len(lambdas)):
                pts = _trace_pair(lambdas, i, j, re, im, moduli, tol)
                if pts:
                    pieces.append(CurvePiece(
                        implicit_id=f"equimodular:{i}:{j}",
                        points=pts,
                        re_window=(grid.re_min, grid.re_max),
                        connected=False,
                    ))
    return LimitCurve(pieces=tuple(pieces),
                      isolated_points=_isolated_points(lambdas, family.alphas))


class _SplitComplex:
    """Complex numbers re + i*im held as two float64 arrays (or scalars that
    broadcast against them): the point type `bkw_limit_points` hands to
    `horner`, as `roots._Fixed` is for the solver.

    It has what `horner` and the tracer use: * between two of them, * and +
    with an int, and abs, which is np.hypot (the libm hypot that CPython's
    abs(complex) calls).  Each result is the float64 expression CPython
    evaluates for Python complex, so every modulus is bit-identical to the
    scalar one; at most the sign of a zero part differs, which abs ignores.

    numpy complex128 is not used: its SIMD kernels round differently.  With
    numpy 2.4 on an AVX-512 x86-64 machine, 92,954 of 200,000 complex128
    products differed from CPython's a.real*b.real - a.imag*b.imag in the
    last bit, and np.abs(horner((1, 2, 1), Z)) differed from abs(horner(...))
    on 424,567 of 1,000,000 points of the default tracer region.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __mul__(self, other):
        if isinstance(other, _SplitComplex):
            a, b, c, d = self.re, self.im, other.re, other.im
            return _SplitComplex(a * c - b * d, a * d + b * c)
        scale = float(other)
        return _SplitComplex(scale * self.re, scale * self.im)

    __rmul__ = __mul__

    def __add__(self, other: int):
        return _SplitComplex(self.re + float(other), self.im)

    def __abs__(self):
        return np.hypot(self.re, self.im)


def _reject_degenerate(lambdas: Sequence[IntPolynomial]) -> None:
    """Raise when |lambda_i| = |lambda_j| on the whole plane.

    Then lambda_i / lambda_j has constant modulus, so it is a constant (open
    mapping theorem), and a constant ratio of two integer polynomials is
    rational: of modulus 1, it is +1 or -1.
    """
    for i in range(len(lambdas)):
        for j in range(i + 1, len(lambdas)):
            if lambdas[i] == lambdas[j] or lambdas[i] == -lambdas[j]:
                raise ValueError(
                    f"degenerate family: lambda_{i} = +-lambda_{j}")


def _isolated_points(lambdas: Sequence[IntPolynomial],
                     alphas: Sequence[IntPolynomial]) -> tuple[complex, ...]:
    k = len(lambdas)
    isolated = []
    for j, alpha in enumerate(alphas):
        if alpha.degree < 1:
            continue
        root_set = all_roots(alpha)
        candidates = [0j] * (1 if root_set.zero_multiplicity else 0)
        candidates += [complex(r.value) for r in root_set.complex_roots]
        for z in candidates:
            mj = abs(horner(lambdas[j].coeffs, z))
            others = [abs(horner(lambdas[i].coeffs, z)) for i in range(k) if i != j]
            if mj > max(others) + _DOMINANCE_SLACK * max(1.0, mj):
                isolated.append(z)
    isolated.sort(key=lambda z: (z.real, z.imag))
    return tuple(isolated)


def _trace_pair(lambdas, i, j, re: np.ndarray, im: np.ndarray, moduli,
                tol: float) -> tuple[complex, ...]:
    """The points of the |lambda_i| = |lambda_j| locus on the grid with
    node coordinates re (columns) and im (rows).

    Every grid node where the modulus gap is exactly 0 is a point; every
    edge from another node whose gap changes sign is bisected, all edges at
    once.  Points come in row-major node order: at each node the node
    itself, or else its right edge before its down edge.
    """
    gap = moduli[i] - moduli[j]
    hits = np.zeros(gap.shape + (3,), dtype=bool)
    hits[:, :, 0] = gap == 0.0
    # a product is never negative at a zero node, so those skip their edges
    hits[:, :-1, 1] = gap[:, :-1] * gap[:, 1:] < 0.0
    hits[:-1, :, 2] = gap[:-1, :] * gap[1:, :] < 0.0
    row, col, kind = np.nonzero(hits)
    pts_re, pts_im = re[col], im[row]
    edge = kind > 0
    row, col, kind = row[edge], col[edge], kind[edge]
    found = np.ones(len(edge), dtype=bool)
    pts_re[edge], pts_im[edge], found[edge] = _bisect_edges(
        lambdas[i].coeffs, lambdas[j].coeffs,
        re[col], im[row], re[col + (kind == 1)], im[row + (kind == 2)],
        gap[row, col], tol)
    keep = found & _dominant(lambdas, i, j, _SplitComplex(pts_re, pts_im))
    return _complexes(pts_re[keep], pts_im[keep])


def _bisect_edges(ci, cj, a_re, a_im, b_re, b_im, ga, tol: float):
    """Bisect each edge a-b, whose modulus gap g = |lambda_i| - |lambda_j|
    is ga at a and of the other sign at b, in its own lane.

    A lane stops at the first midpoint with |g| <= tol (found), or once the
    edge is narrower than 1e-15 * max(1, |mid|) (found only if
    |g| <= 1e3 * tol), or after _BISECTION_STEPS midpoints (found).
    Returns the last midpoint of every lane and whether it was found.
    """
    mid_re, mid_im = np.empty_like(ga), np.empty_like(ga)
    found = np.ones(len(ga), dtype=bool)
    lane = np.arange(len(ga))
    for _ in range(_BISECTION_STEPS):
        if not len(lane):
            break
        m_re, m_im = (a_re + b_re) / 2, (a_im + b_im) / 2
        mid = _SplitComplex(m_re, m_im)
        gm = abs(horner(ci, mid)) - abs(horner(cj, mid))
        mid_re[lane], mid_im[lane] = m_re, m_im
        size = abs(mid)
        close = np.abs(gm) <= tol
        narrow = np.hypot(b_re - a_re, b_im - a_im) < 1e-15 * np.where(
            size > 1.0, size, 1.0)
        found[lane] = close | ~narrow | (np.abs(gm) <= 1e3 * tol)  # live lanes: True
        go = ~(close | narrow)
        lane, a_re, a_im, b_re, b_im, ga, gm, m_re, m_im = (
            v[go] for v in (lane, a_re, a_im, b_re, b_im, ga, gm, m_re, m_im))
        flip = ga * gm < 0
        b_re, b_im = np.where(flip, m_re, b_re), np.where(flip, m_im, b_im)
        a_re, a_im = np.where(flip, a_re, m_re), np.where(flip, a_im, m_im)
        ga = np.where(flip, ga, gm)
    return mid_re, mid_im, found


def _dominant(lambdas, i, j, z: _SplitComplex) -> np.ndarray:
    """Where the tied pair i, j is at least as large as every other lambda,
    up to _DOMINANCE_SLACK; everywhere when there is no other lambda."""
    mods = [abs(horner(lam.coeffs, z)) for lam in lambdas]
    tied = np.where(mods[j] > mods[i], mods[j], mods[i])
    others = [m for t, m in enumerate(mods) if t not in (i, j)]
    if not others:
        return np.ones(tied.shape, dtype=bool)
    top = others[0]
    for m in others[1:]:
        top = np.where(m > top, m, top)
    return tied >= top - _DOMINANCE_SLACK * np.where(tied > 1.0, tied, 1.0)


# -- point-to-curve distance -------------------------------------------------------


def distance_to_curve(z: complex, curve: LimitCurve) -> float:
    """Minimum Euclidean distance from z to the curve's sampled arcs.

    Connected pieces are treated as polylines (distance to each segment via
    orthogonal projection); point-cloud pieces use the nearest sample.
    Isolated points are not part of the curve and are ignored.
    """
    if not curve.pieces:
        raise ValueError("curve has no pieces")
    best = math.inf
    for piece in curve.pieces:
        arrays = piece._arrays
        if len(arrays) == 2:
            re, im = arrays
            dist = np.hypot(z.real - re, z.imag - im)
        else:
            a_re, a_im, ab_re, ab_im, length2 = arrays
            az_re, az_im = z.real - a_re, z.imag - a_im
            # a zero-length segment keeps t = 0, so its distance is |z - a|
            t = np.divide(az_re * ab_re + az_im * ab_im, length2,
                          out=np.zeros_like(length2), where=length2 != 0.0)
            t = np.where(t > 0.0, t, 0.0)  # min(1.0, max(0.0, t)), NaN -> 0.0
            t = np.where(t < 1.0, t, 1.0)
            dist = np.hypot(z.real - (a_re + t * ab_re), z.imag - (a_im + t * ab_im))
        # fmin skips NaN as Python's min(best, d) does
        best = min(best, float(np.fmin.reduce(dist, initial=math.inf)))
    return best


def chordal_distance_to_hyperbola(z: complex) -> float:
    """Chordal distance from z to the closure of the friendship hyperbola on
    the Riemann sphere: both branches of (Re x + 1)^2 - (Im x)^2 = 1/2 plus
    the point at infinity.

    chi(z, w) = 2|z - w| / sqrt((1 + |z|^2)(1 + |w|^2)) and
    chi(z, inf) = 2 / sqrt(1 + |z|^2).  The hyperbola is unbounded, so roots
    can approach it on the sphere while receding from it in the plane.

    Each branch is minimised as a whole, not near its Euclidean-nearest
    sample: Im w is sampled uniformly over [-_CHORDAL_IM_MAX, _CHORDAL_IM_MAX]
    and uniformly in 1/Im w beyond it, out to infinity, and every local
    minimum among the samples is refined by golden-section search.
    _CHORDAL_IM_MAX only moves the samples; the result does not depend on it.
    """
    im_max = _CHORDAL_IM_MAX
    z_scale = math.sqrt(1 + abs(z) ** 2)
    to_infinity = 2 / z_scale
    best = to_infinity
    last = _CHORDAL_SAMPLES - 1
    us = [_lerp(-2.0, 2.0, t / last) for t in range(_CHORDAL_SAMPLES)]
    for sign in (1.0, -1.0):
        def chi(u: float) -> float:
            if abs(u) >= 2.0:
                return to_infinity
            # u in [-1, 1] maps linearly onto [-im_max, im_max]; 1 < |u| < 2
            # maps onto the tails, with |u| -> 2 at infinity
            b = im_max * u if abs(u) <= 1.0 else math.copysign(
                im_max / (2.0 - abs(u)), u)
            w = _hyperbola_point(b, sign)
            return 2 * abs(z - w) / (z_scale * math.sqrt(1 + abs(w) ** 2))

        values = [chi(u) for u in us]
        for k, v in enumerate(values):
            lo, hi = max(k - 1, 0), min(k + 1, last)
            if v <= values[lo] and v <= values[hi]:
                best = min(best, v, _golden_min(chi, us[lo], us[hi]))
    return best


def _golden_min(f: Callable[[float], float], a: float, b: float) -> float:
    """Minimum value of f on [a, b], f unimodal there."""
    ratio = (math.sqrt(5) - 1) / 2
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-13:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = f(d)
    return min(fc, fd)
