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
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .domination import ExponentialFamily, family_poly
from .graphs import FamilySpec
from .polynomials import IntPolynomial, horner
from .roots import all_roots

BOOK_JUNCTION_RE = -1.5 - math.sqrt(2) / 2  # where the book arcs meet

_DEGENERACY_SAMPLES = 17
_DOMINANCE_SLACK = 1e-9
_CHORDAL_SAMPLES = 513  # odd: the real-axis vertices are among the samples


# -- curve containers -----------------------------------------------------------


@dataclass(frozen=True)
class CurvePiece:
    """One labeled arc: ordered samples, an implicit-form identifier, a
    real-part validity window, and the residual function of its implicit
    equation."""

    implicit_id: str
    points: tuple[complex, ...]
    re_window: tuple[float, float] = (-math.inf, math.inf)
    connected: bool = True
    residual: Callable[[complex], float] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class LimitCurve:
    pieces: tuple[CurvePiece, ...]
    isolated_points: tuple[complex, ...] = ()


def hyperbola_residual(z: complex) -> float:
    return abs((z.real + 1) ** 2 - z.imag ** 2 - 0.5)


def circle_residual(z: complex) -> float:
    return abs(abs(z + 2) - 1)


def modulus_balance_residual(z: complex) -> float:
    return abs(abs(z + 1) ** 2 - abs(z))


# -- analytic curves -------------------------------------------------------------


def friendship_limit_curve(samples: int = 513, im_max: float = 3.0) -> LimitCurve:
    """Both branches of (Re x + 1)^2 - (Im x)^2 = 1/2 plus the isolated
    limit point 0.  The real-axis crossings -1 +- 1/sqrt(2) are always
    among the samples."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if samples % 2 == 0:
        samples += 1  # keep the b = 0 crossing in the sample set
    bs = [_lerp(-im_max, im_max, t / (samples - 1)) for t in range(samples)]
    right = tuple(_hyperbola_point(b, 1.0) for b in bs)
    left = tuple(_hyperbola_point(b, -1.0) for b in bs)
    return LimitCurve(
        pieces=(
            CurvePiece("hyperbola", right, residual=hyperbola_residual),
            CurvePiece("hyperbola", left, residual=hyperbola_residual),
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
    thetas = [_lerp(-theta_max, theta_max, t / (samples - 1)) for t in range(samples)]
    circle_pts = tuple(complex(-2 + math.cos(t), math.sin(t)) for t in thetas)

    im_max = 3.0
    bs = [_lerp(-im_max, im_max, t / (samples - 1)) for t in range(samples)]
    hyper_pts = tuple(_hyperbola_point(b, 1.0) for b in bs)

    a_min = (-3 - math.sqrt(5)) / 2  # where the arc closes on the real axis
    half = max(2, samples // 2)
    upper = [_lerp(j_re, a_min, t / (half - 1)) for t in range(half)]
    lower = [_lerp(a_min, j_re, t / (half - 1)) for t in range(half)]
    balance_pts = ([_modulus_balance_point(a, 1.0) for a in upper]
                   + [_modulus_balance_point(a, -1.0) for a in lower])

    return LimitCurve(
        pieces=(
            CurvePiece("circle", circle_pts, re_window=(j_re, math.inf),
                       residual=circle_residual),
            CurvePiece("hyperbola", hyper_pts, re_window=(-1.0, math.inf),
                       residual=hyperbola_residual),
            CurvePiece("modulus-balance", tuple(balance_pts),
                       re_window=(-math.inf, j_re),
                       residual=modulus_balance_residual),
        ),
        isolated_points=(0j, complex(-0.5, 0.0)),
    )


def _hyperbola_point(b: float, sign: float) -> complex:
    """The point with imaginary part b on the right (sign 1) or left
    (sign -1) branch of (Re x + 1)^2 - (Im x)^2 = 1/2."""
    return complex(-1 + sign * math.sqrt(0.5 + b * b), b)


def _modulus_balance_point(a: float, sign: float) -> complex:
    """The point with real part a on the upper (sign 1) or lower (sign -1)
    half of |x+1|^2 = |x|: the modulus s = |x| solves s^2 - s + 2a + 1 = 0,
    so s = (1 + sqrt(-8a-3))/2 and |Im x| = sqrt(s^2 - a^2)."""
    s = (1 + math.sqrt(max(0.0, -8 * a - 3))) / 2
    return complex(a, sign * math.sqrt(max(0.0, s * s - a * a)))


def _lerp(a: float, b: float, t: float) -> float:
    return a + (b - a) * t


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

    Rejects degenerate families where some lambda_i is a unit-modulus scalar
    multiple of another (the locus would be the whole plane).
    """
    grid = grid or GridRegion()
    lambdas: Sequence[IntPolynomial] = tuple(family.lambdas)
    alphas: Sequence[IntPolynomial] = tuple(family.alphas)
    _reject_degenerate(lambdas)

    k = len(lambdas)
    moduli = _grid_moduli(lambdas, grid)
    pieces = []
    for i in range(k):
        for j in range(i + 1, k):
            pts = _trace_pair(lambdas, i, j, grid, moduli, tol)
            if pts:
                pieces.append(CurvePiece(
                    implicit_id=f"equimodular:{i}:{j}",
                    points=tuple(pts),
                    re_window=(grid.re_min, grid.re_max),
                    connected=False,
                    residual=_pair_residual(lambdas, i, j),
                ))

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
    return LimitCurve(pieces=tuple(pieces), isolated_points=tuple(isolated))


def _reject_degenerate(lambdas: Sequence[IntPolynomial]) -> None:
    for i in range(len(lambdas)):
        for j in range(i + 1, len(lambdas)):
            ratios = []
            for t in range(_DEGENERACY_SAMPLES):
                ang = 2 * math.pi * t / _DEGENERACY_SAMPLES + 0.1
                z = 1.234567 * complex(math.cos(ang), math.sin(ang))
                den = horner(lambdas[j].coeffs, z)
                if abs(den) > 1e-9:
                    ratios.append(horner(lambdas[i].coeffs, z) / den)
            if len(ratios) >= 5:
                spread = max(abs(r - ratios[0]) for r in ratios)
                if spread < 1e-9 and abs(abs(ratios[0]) - 1) < 1e-9:
                    raise ValueError(
                        f"degenerate family: lambda_{i} is a unit-modulus "
                        f"multiple of lambda_{j}")


def _grid_moduli(lambdas, grid) -> list[list[list[float]]]:
    nodes = []
    for r in range(grid.im_cells + 1):
        row = []
        im = _lerp(grid.im_min, grid.im_max, r / grid.im_cells)
        for c in range(grid.re_cells + 1):
            re = _lerp(grid.re_min, grid.re_max, c / grid.re_cells)
            z = complex(re, im)
            row.append([abs(horner(lam.coeffs, z)) for lam in lambdas])
        nodes.append(row)
    return nodes


def _pair_residual(lambdas, i, j) -> Callable[[complex], float]:
    li, lj = lambdas[i], lambdas[j]

    def gap(z: complex) -> float:
        return abs(abs(horner(li.coeffs, z)) - abs(horner(lj.coeffs, z)))

    return gap


def _trace_pair(lambdas, i, j, grid: GridRegion, moduli, tol: float) -> list[complex]:
    def g(z: complex) -> float:
        return abs(horner(lambdas[i].coeffs, z)) - abs(horner(lambdas[j].coeffs, z))

    def dominated(z: complex) -> bool:
        mods = [abs(horner(lam.coeffs, z)) for lam in lambdas]
        tied = max(mods[i], mods[j])
        others = [m for t, m in enumerate(mods) if t not in (i, j)]
        return not others or tied >= max(others) - _DOMINANCE_SLACK * max(1.0, tied)

    points: list[complex] = []

    def node(r, c) -> complex:
        return complex(_lerp(grid.re_min, grid.re_max, c / grid.re_cells),
                       _lerp(grid.im_min, grid.im_max, r / grid.im_cells))

    for r in range(grid.im_cells + 1):
        for c in range(grid.re_cells + 1):
            gi = moduli[r][c][i] - moduli[r][c][j]
            if gi == 0.0:
                z = node(r, c)
                if dominated(z):
                    points.append(z)
                continue
            for dr, dc in ((0, 1), (1, 0)):
                r2, c2 = r + dr, c + dc
                if r2 > grid.im_cells or c2 > grid.re_cells:
                    continue
                gj = moduli[r2][c2][i] - moduli[r2][c2][j]
                if gi * gj < 0.0:
                    z = _bisect_edge(g, node(r, c), node(r2, c2), gi, tol)
                    if z is not None and dominated(z):
                        points.append(z)
    return points


def _bisect_edge(g, za: complex, zb: complex, ga: float, tol: float) -> complex | None:
    mid = (za + zb) / 2
    for _ in range(200):
        mid = (za + zb) / 2
        gm = g(mid)
        if abs(gm) <= tol:
            return mid
        if abs(zb - za) < 1e-15 * max(1.0, abs(mid)):
            return mid if abs(gm) <= 1e3 * tol else None
        if ga * gm < 0:
            zb = mid
        else:
            za, ga = mid, gm
    return mid


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
        pts = piece.points
        if piece.connected and len(pts) >= 2:
            for a, b in zip(pts, pts[1:]):
                best = min(best, _segment_distance(z, a, b))
        else:
            for p in pts:
                best = min(best, abs(z - p))
    return best


def _segment_distance(z: complex, a: complex, b: complex) -> float:
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(z - a)
    t = ((z - a).real * ab.real + (z - a).imag * ab.imag) / denom
    t = min(1.0, max(0.0, t))
    return abs(z - (a + t * ab))


def chordal_distance_to_hyperbola(z: complex, im_max: float = 3.0) -> float:
    """Chordal distance from z to the closure of the friendship hyperbola on
    the Riemann sphere: both branches of (Re x + 1)^2 - (Im x)^2 = 1/2 plus
    the point at infinity.

    chi(z, w) = 2|z - w| / sqrt((1 + |z|^2)(1 + |w|^2)) and
    chi(z, inf) = 2 / sqrt(1 + |z|^2).  The hyperbola is unbounded, so roots
    can approach it on the sphere while receding from it in the plane.

    Each branch is minimised as a whole, not near its Euclidean-nearest
    sample: Im w is sampled uniformly over [-im_max, im_max] and uniformly in
    1/Im w beyond it, out to infinity, and every local minimum among the
    samples is refined by golden-section search.  im_max only moves the
    samples; the result does not depend on it.
    """
    if im_max <= 0:
        raise ValueError("im_max must be positive")
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


# -- root-approach pipeline ----------------------------------------------------------


def friendship_root_spray(n: int, precision: int = 256,
                          exclusion_radius: float = 0.15,
                          samples: int = 4001) -> tuple[list[complex], list[float]]:
    """The nonzero roots of the n-th friendship polynomial outside a disk
    around the isolated limit point 0, and their Euclidean distances to the
    hyperbola, in the same order.

    The root 0 itself is exact in every member and the points approaching the
    isolated limit 0 are not near the curve, hence the exclusion disk.
    """
    root_set = all_roots(family_poly(FamilySpec("friendship", n)),
                         precision=precision)
    pts = [complex(r.value) for r in root_set.complex_roots
           if abs(complex(r.value)) > exclusion_radius]
    im_max = max(3.0, max((abs(z.imag) for z in pts), default=0.0) + 0.5)
    curve = friendship_limit_curve(samples=samples, im_max=im_max)
    return pts, [distance_to_curve(z, curve) for z in pts]

