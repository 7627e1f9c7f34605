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
        bounds = (self.re_min, self.re_max, self.im_min, self.im_max,
                  self.re_max - self.re_min, self.im_max - self.im_min)
        if not all(math.isfinite(v) for v in bounds):
            raise ValueError("grid bounds and spans must be finite")
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

    All pairs are traced in one pass over float64 arrays, and each array
    operation is the one Python complex arithmetic performs on a single
    point, so every point is bit-identical to a point-by-point evaluation.

    Rejects degenerate families where lambda_i = +-lambda_j for some pair
    (the locus would be the whole plane).
    """
    grid = grid or GridRegion()
    lambdas: Sequence[IntPolynomial] = tuple(family.lambdas)
    _reject_degenerate(lambdas)
    pairs = [(i, j) for i in range(len(lambdas)) for j in range(i + 1, len(lambdas))]
    # overflow to inf and inf - inf = NaN pass silently, as for Python floats
    with np.errstate(all="ignore"):
        re = _lerp(grid.re_min, grid.re_max, _unit_steps(grid.re_cells + 1))
        im = _lerp(grid.im_min, grid.im_max, _unit_steps(grid.im_cells + 1))
        pair, pts_re, pts_im = _trace_pairs(
            [lam.coeffs for lam in lambdas], pairs, re, im, tol)
    pieces = [CurvePiece(f"equimodular:{i}:{j}",
                         _complexes(pts_re[pair == p], pts_im[pair == p]),
                         re_window=(grid.re_min, grid.re_max), connected=False)
              for p, (i, j) in enumerate(pairs) if (pair == p).any()]
    return LimitCurve(pieces=tuple(pieces),
                      isolated_points=_isolated_points(lambdas, family.alphas))


def _modulus(coeffs, re, im) -> np.ndarray:
    """|p(re + i*im)| for the integer coefficients `coeffs` (low to high), at
    float64 arrays re and im or scalars that broadcast against them.

    Horner's rule runs on the two parts with CPython's float64 operations
    for complex, from the leading coefficient (horner's 0*z*z + c_d at a
    finite z), so at a finite point the modulus is abs(horner(...)) to the
    bit: np.hypot is the libm hypot of abs(complex), blind to zero signs.

    numpy complex128 is not used: its SIMD kernels round differently.  With
    numpy 2.4 on an AVX-512 x86-64 machine, 92,954 of 200,000 complex128
    products differed from CPython's a.real*b.real - a.imag*b.imag in the
    last bit, and np.abs(horner((1, 2, 1), Z)) differed from abs(horner(...))
    on 424,567 of 1,000,000 points of the default tracer region.
    """
    if len(coeffs) == 1:  # hypot(c, 0.0) is |c|
        return np.full(np.broadcast(re, im).shape, abs(float(coeffs[0])))
    acc_re, acc_im = float(coeffs[-1]), 0.0
    for c in reversed(coeffs[:-1]):
        acc_re, acc_im = acc_re * re - acc_im * im + float(c), acc_re * im + acc_im * re
    return np.hypot(acc_re, acc_im)


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
        candidates += [complex(r) for r in root_set.complex_roots]
        for z in candidates:
            mj = abs(horner(lambdas[j].coeffs, z))
            others = [abs(horner(lambdas[i].coeffs, z)) for i in range(k) if i != j]
            if mj > max(others) + _DOMINANCE_SLACK * max(1.0, mj):
                isolated.append(z)
    isolated.sort(key=lambda z: (z.real, z.imag))
    return tuple(isolated)


def _trace_pairs(coeffs, pairs, re: np.ndarray, im: np.ndarray, tol: float):
    """Each point's index in pairs and its coordinates, for the points of
    every pair's |lambda_i| = |lambda_j| locus on the grid with node
    coordinates re (columns) and im (rows).

    Every grid node where a pair's modulus gap is exactly 0 is a point of
    that pair; every edge from another node whose gap changes sign is
    bisected, the edges of all pairs at once.  Points come by pair, then in
    row-major node order: a node, or else its right edge before its down edge.
    """
    moduli = [_modulus(c, re[np.newaxis, :], im[:, np.newaxis]) for c in coeffs]
    hits = []
    for p, (i, j) in enumerate(pairs):
        gap = moduli[i] - moduli[j]
        hit = np.zeros(gap.shape + (3,), dtype=bool)
        hit[:, :, 0] = gap == 0.0
        # a product is never negative at a zero node, so those skip their edges
        hit[:, :-1, 1] = gap[:, :-1] * gap[:, 1:] < 0.0
        hit[:-1, :, 2] = gap[:-1, :] * gap[1:, :] < 0.0
        row, col, kind = np.nonzero(hit)
        hits.append((np.full(len(row), p), row, col, kind, gap[row, col]))
    pair, row, col, kind, ga = (np.concatenate(v) for v in zip(*hits))
    first, second = (np.array(side)[pair] for side in zip(*pairs))
    pts_re, pts_im = re[col], im[row]
    found = np.ones(len(pair), dtype=bool)
    edge = kind > 0
    row, col, kind = row[edge], col[edge], kind[edge]
    pts_re[edge], pts_im[edge], found[edge] = _bisect_edges(
        coeffs, first[edge], second[edge],
        re[col], im[row], re[col + (kind == 1)], im[row + (kind == 2)],
        ga[edge], tol)
    keep = found & _dominant(coeffs, first, second, pts_re, pts_im)
    return pair[keep], pts_re[keep], pts_im[keep]


def _bisect_edges(coeffs, first, second, a_re, a_im, b_re, b_im, ga, tol):
    """Bisect each edge a-b, whose gap |lambda_first| - |lambda_second| is
    ga at a and of the other sign at b, in its own lane; each step evaluates
    each lambda once, at the midpoints of all live lanes.

    A lane stops at the first midpoint with |g| <= tol (found), or once the
    edge is narrower than 1e-15 * max(1, |mid|) (found only if
    |g| <= 1e3 * tol), or after _BISECTION_STEPS midpoints (found).
    Returns the last midpoint of every lane and whether it was found.
    """
    mid_re, mid_im = np.empty_like(ga), np.empty_like(ga)
    found = np.ones(len(ga), dtype=bool)
    lane = np.arange(len(ga))
    m_re, m_im = a_re, a_im  # the midpoints of no lanes, if there are none
    for _ in range(_BISECTION_STEPS):
        if not len(lane):
            break
        m_re, m_im = (a_re + b_re) / 2, (a_im + b_im) / 2
        _, mi, mj = _pair_moduli(coeffs, first, second, m_re, m_im)
        gm = mi - mj
        close = np.abs(gm) <= tol
        # fmax(NaN, 1.0) is 1.0, as Python's max(1.0, NaN) is
        stop = close | (np.hypot(b_re - a_re, b_im - a_im)
                        < 1e-15 * np.fmax(np.hypot(m_re, m_im), 1.0))
        if stop.any():  # compact the lanes
            done, go = lane[stop], ~stop
            mid_re[done], mid_im[done] = m_re[stop], m_im[stop]
            found[done] = close[stop] | (np.abs(gm[stop]) <= 1e3 * tol)
            lane, first, second, a_re, a_im, b_re, b_im, ga, gm, m_re, m_im = (
                v[go] for v in (lane, first, second, a_re, a_im, b_re, b_im,
                                ga, gm, m_re, m_im))
        flip = ga * gm < 0
        b_re, b_im = np.where(flip, m_re, b_re), np.where(flip, m_im, b_im)
        a_re, a_im = np.where(flip, a_re, m_re), np.where(flip, a_im, m_im)
        ga = np.where(flip, ga, gm)
    mid_re[lane], mid_im[lane] = m_re, m_im  # out of steps: found
    return mid_re, mid_im, found


def _pair_moduli(coeffs, first, second, re, im):
    """Every lambda's modulus at the points re + i*im, a row per lambda, and
    each point's |lambda_first| and |lambda_second|."""
    mods = np.array([_modulus(c, re, im) for c in coeffs])
    at = np.arange(len(re))
    return mods, mods.take(first * len(re) + at), mods.take(second * len(re) + at)


def _dominant(coeffs, first, second, re, im) -> np.ndarray:
    """Where each point's tied pair is at least as large as every other
    lambda, up to _DOMINANCE_SLACK; everywhere when there is no other lambda.
    The others' maximum is Python's max, so a NaN counts only as the first."""
    mods, mi, mj = _pair_moduli(coeffs, first, second, re, im)
    tied = np.where(mj > mi, mj, mi)
    top, seen = np.zeros_like(tied), np.zeros(len(tied), dtype=bool)
    for k, m in enumerate(mods):
        other = (first != k) & (second != k)
        top = np.where(other & (~seen | (m > top)), m, top)
        seen |= other
    return ~seen | (tied >= top - _DOMINANCE_SLACK * np.where(tied > 1.0, tied, 1.0))


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
    u = _lerp(-2.0, 2.0, _unit_steps(_CHORDAL_SAMPLES))
    inner = u[1:-1]  # the ends |u| = 2 are the point at infinity
    bs = np.where(np.abs(inner) <= 1.0, im_max * inner,
                  np.copysign(im_max / (2.0 - np.abs(inner)), inner))
    us = u.tolist()
    for sign in (1.0, -1.0):
        def chi(u: float) -> float:
            if abs(u) >= 2.0:
                return to_infinity
            # u in [-1, 1] maps linearly onto [-im_max, im_max]; 1 < |u| < 2
            # maps onto the tails, with |u| -> 2 at infinity
            b = im_max * u if abs(u) <= 1.0 else math.copysign(
                im_max / (2.0 - abs(u)), u)
            w = complex(-1 + sign * math.sqrt(0.5 + b * b), b)  # on the branch
            return 2 * abs(z - w) / (z_scale * math.sqrt(1 + abs(w) ** 2))

        # chi at every sample at once, with the same float64 operations
        w_re = -1 + sign * np.sqrt(0.5 + bs * bs)
        # Python's ** is libm pow, which numpy's square differs from in the last bit
        w2 = np.array([h ** 2 for h in np.hypot(w_re, bs).tolist()])
        v = np.concatenate(([to_infinity], 2 * np.hypot(z.real - w_re, z.imag - bs)
                            / (z_scale * np.sqrt(1 + w2)), [to_infinity]))
        # samples no larger than either neighbour (an end has one)
        lower = (v <= np.append(v[0], v[:-1])) & (v <= np.append(v[1:], v[-1]))
        for k in np.flatnonzero(lower).tolist():
            lo, hi = max(k - 1, 0), min(k + 1, last)
            best = min(best, float(v[k]), _golden_min(chi, us[lo], us[hi]))
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
