"""The array tracer, distance queries and analytic curves of
`dompoly.limits` against the scalar Python-complex loops they replaced,
kept here as reference oracles: every point and distance must agree to the
last bit, in the same order.

Examples are derandomized so every run draws the same inputs."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dompoly.limits
from dompoly.domination import ExponentialFamily, book_family, friendship_family
from dompoly.limits import (
    _DOMINANCE_SLACK,
    BOOK_JUNCTION_RE,
    CurvePiece,
    GridRegion,
    LimitCurve,
    _isolated_points,
    _lerp,
    _modulus,
    _reject_degenerate,
    bkw_limit_points,
    book_limit_curve,
    distance_to_curve,
    friendship_limit_curve,
)
from dompoly.polynomials import ONE, X, IntPolynomial, horner

P = IntPolynomial

deterministic = settings(derandomize=True, database=None, max_examples=60,
                         deadline=None)

# the friendship family in y = 1 + x: 1*(y^2-1)^n + (y-1)*(y^2)^n
SHIFTED_FRIENDSHIP = ExponentialFamily((ONE, P([-1, 1])),
                                       (P([-1, 0, 1]), P([0, 0, 1])))
# two lambdas, so the dominance check is vacuous; the locus is Re x = -1
SYMMETRIC = ExponentialFamily((ONE, ONE), (X, X + 2 * ONE))
FAMILIES = {"friendship": friendship_family(), "book": book_family(),
            "shifted-friendship": SHIFTED_FRIENDSHIP, "symmetric": SYMMETRIC}


# -- scalar references -------------------------------------------------------------


def reference_bkw_limit_points(family, grid, tol=1e-12):
    lambdas = tuple(family.lambdas)
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
                ))
    return LimitCurve(pieces=tuple(pieces),
                      isolated_points=_isolated_points(lambdas, family.alphas))


def _grid_moduli(lambdas, grid):
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


def _trace_pair(lambdas, i, j, grid, moduli, tol):
    def g(z):
        return abs(horner(lambdas[i].coeffs, z)) - abs(horner(lambdas[j].coeffs, z))

    def dominated(z):
        mods = [abs(horner(lam.coeffs, z)) for lam in lambdas]
        tied = max(mods[i], mods[j])
        others = [m for t, m in enumerate(mods) if t not in (i, j)]
        return not others or tied >= max(others) - _DOMINANCE_SLACK * max(1.0, tied)

    points = []

    def node(r, c):
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


def _bisect_edge(g, za, zb, ga, tol):
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


def reference_friendship_limit_curve(samples=513, im_max=3.0):
    if samples % 2 == 0:
        samples += 1
    bs = [_lerp(-im_max, im_max, t / (samples - 1)) for t in range(samples)]
    right = tuple(_hyperbola_point(b, 1.0) for b in bs)
    left = tuple(_hyperbola_point(b, -1.0) for b in bs)
    return [right, left]


def reference_book_limit_curve(samples=513):
    j_re = BOOK_JUNCTION_RE
    theta_max = math.acos((1 - math.sqrt(2)) / 2)
    thetas = [_lerp(-theta_max, theta_max, t / (samples - 1)) for t in range(samples)]
    circle_pts = tuple(complex(-2 + math.cos(t), math.sin(t)) for t in thetas)
    im_max = 3.0
    bs = [_lerp(-im_max, im_max, t / (samples - 1)) for t in range(samples)]
    hyper_pts = tuple(_hyperbola_point(b, 1.0) for b in bs)
    a_min = (-3 - math.sqrt(5)) / 2
    half = max(2, samples // 2)
    upper = [_lerp(j_re, a_min, t / (half - 1)) for t in range(half)]
    lower = [_lerp(a_min, j_re, t / (half - 1)) for t in range(1, half)]
    balance_pts = ([_modulus_balance_point(a, 1.0) for a in upper]
                   + [_modulus_balance_point(a, -1.0) for a in lower])
    return [circle_pts, hyper_pts, tuple(balance_pts)]


def _hyperbola_point(b, sign):
    return complex(-1 + sign * math.sqrt(0.5 + b * b), b)


def _modulus_balance_point(a, sign):
    s = (1 + math.sqrt(max(0.0, -8 * a - 3))) / 2
    return complex(a, sign * math.sqrt(max(0.0, s * s - a * a)))


def reference_distance_to_curve(z, curve):
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


def _segment_distance(z, a, b):
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(z - a)
    t = ((z - a).real * ab.real + (z - a).imag * ab.imag) / denom
    t = min(1.0, max(0.0, t))
    return abs(z - (a + t * ab))


def bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def curve_bits(curve: LimitCurve):
    return ([(p.implicit_id, p.re_window, p.connected, [bits(z) for z in p.points])
             for p in curve.pieces],
            [bits(z) for z in curve.isolated_points])


# -- the tracer ----------------------------------------------------------------------


_COORDS = st.one_of(
    st.sampled_from([-4.0, -3.0, -2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0]),
    st.floats(-5.0, 3.0, allow_nan=False, allow_infinity=False))


@st.composite
def grids(draw):
    re_min, re_max = sorted((draw(_COORDS), draw(_COORDS)))
    im_min, im_max = sorted((draw(_COORDS), draw(_COORDS)))
    if re_min == re_max or im_min == im_max:
        re_min, re_max, im_min, im_max = -4.0, 2.0, -3.0, 3.0
    return GridRegion(re_min, re_max, im_min, im_max,
                      draw(st.integers(2, 24)), draw(st.integers(2, 24)))


# grids with nodes exactly on the locus, where the gap is exactly 0.0
ON_LOCUS = [("symmetric", GridRegion(-3.0, 1.0, -2.0, 2.0, 8, 6)),
            ("shifted-friendship", GridRegion(-1.0, 1.0, -1.0, 1.0, 8, 8)),
            ("book", GridRegion(-4.0, 2.0, -3.0, 3.0, 6, 6))]


# 1e-20 is below the gap's rounding noise, so most lanes end at the width
# test and some are dropped there
@deterministic
@given(st.sampled_from(sorted(FAMILIES)), grids(),
       st.sampled_from([1e-12, 1e-20, 1e-4]))
@example("symmetric", ON_LOCUS[0][1], 1e-12)
@example("shifted-friendship", ON_LOCUS[1][1], 1e-12)
@example("book", ON_LOCUS[2][1], 1e-12)
@example("book", GridRegion(-0.0, 2.0, -3.0, -0.0, 7, 19), 1e-12)
def test_tracer_bit_identical_to_scalar_reference(name, grid, tol):
    traced = bkw_limit_points(FAMILIES[name], grid, tol)
    expected = reference_bkw_limit_points(FAMILIES[name], grid, tol)
    assert traced == expected
    assert curve_bits(traced) == curve_bits(expected)


@pytest.mark.parametrize("name, grid", ON_LOCUS)
def test_on_locus_grids_hit_exact_zero_nodes(name, grid):
    """The examples above do reach the g == 0.0 branch: some traced points
    are grid nodes themselves."""
    nodes = {complex(_lerp(grid.re_min, grid.re_max, c / grid.re_cells),
                     _lerp(grid.im_min, grid.im_max, r / grid.im_cells))
             for r in range(grid.im_cells + 1) for c in range(grid.re_cells + 1)}
    traced = bkw_limit_points(FAMILIES[name], grid)
    assert any(z in nodes for piece in traced.pieces for z in piece.points)


@pytest.mark.parametrize("bound", [1e155, 1e300, 8.9e307, 1e-300])
def test_tracer_extreme_grids_silent_and_bit_identical(bound):
    """Overflow and underflow pass without numpy warnings, as they do for
    Python complex arithmetic."""
    grid = GridRegion(-bound, bound, -bound, bound, 5, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traced = bkw_limit_points(book_family(), grid)
    expected = reference_bkw_limit_points(book_family(), grid)
    assert curve_bits(traced) == curve_bits(expected)


def test_tracer_default_region_bit_identical():
    for family in (friendship_family(), book_family()):
        grid = GridRegion(re_cells=60, im_cells=45)
        assert curve_bits(bkw_limit_points(family, grid)) == \
            curve_bits(reference_bkw_limit_points(family, grid))


# -- analytic curves ------------------------------------------------------------------


@pytest.mark.parametrize("samples", [2, 3, 4, 101, 512, 513, 4001])
def test_analytic_curves_bit_identical_to_scalar_reference(samples):
    for curve, expected in ((friendship_limit_curve(samples),
                             reference_friendship_limit_curve(samples)),
                            (friendship_limit_curve(samples, im_max=7),
                             reference_friendship_limit_curve(samples, im_max=7)),
                            (book_limit_curve(samples),
                             reference_book_limit_curve(samples))):
        assert [[bits(z) for z in p.points] for p in curve.pieces] == \
            [[bits(z) for z in points] for points in expected]


# -- distances ------------------------------------------------------------------------


def test_cached_squared_lengths_are_pythons():
    """Python's abs(b - a) ** 2 calls libm pow, which is not always h * h."""
    for curve in (friendship_limit_curve(4001), book_limit_curve(4001)):
        for piece in curve.pieces:
            length2 = piece._arrays[4].tolist()
            expected = [abs(b - a) ** 2 for a, b in zip(piece.points, piece.points[1:])]
            assert [x.hex() for x in length2] == [x.hex() for x in expected]


def _query_points():
    return st.builds(complex, st.floats(-8.0, 6.0), st.floats(-6.0, 6.0))


SMALL_CURVES = LimitCurve(pieces=(
    CurvePiece("one-point polyline", (complex(-1.0, 0.5),)),
    CurvePiece("cloud", (0j, 1 + 0j, complex(-2.0, -1.5)), connected=False),
    CurvePiece("repeats", (0j, 0j, 1 + 1j, 1 + 1j, 2 + 0j)),
    CurvePiece("empty", ()),
))


@deterministic
@given(st.sampled_from(["friendship", "book", "traced", "small"]),
       st.integers(2, 80), st.lists(_query_points(), min_size=1, max_size=8))
def test_distance_bit_identical_to_scalar_reference(kind, samples, queries):
    if kind == "friendship":
        curve = friendship_limit_curve(samples=samples)
    elif kind == "book":
        curve = book_limit_curve(samples=samples)
    elif kind == "traced":
        curve = bkw_limit_points(book_family(), GridRegion(re_cells=16, im_cells=16))
    else:
        curve = SMALL_CURVES
    # the curve's own samples, where the nearest distance is exactly 0
    queries += [z for piece in curve.pieces for z in piece.points[:3]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in queries:
            got = distance_to_curve(z, curve)
            assert got.hex() == reference_distance_to_curve(z, curve).hex()


def test_distance_clamps_at_segment_ends():
    piece = CurvePiece("segment", (0j, 1 + 0j))
    curve = LimitCurve(pieces=(piece,))
    for z in (complex(-3.0, 4.0), complex(4.0, -4.0), complex(0.5, 2.0)):
        assert distance_to_curve(z, curve) == reference_distance_to_curve(z, curve)
    assert distance_to_curve(complex(-3.0, 4.0), curve) == 5.0
    assert distance_to_curve(complex(4.0, -4.0), curve) == 5.0


def test_book_curve_zero_length_segment_without_warnings():
    """The modulus-balance piece's halves meet at (-3-sqrt5)/2 in one point,
    not in a segment of length 0.  A zero-length segment there has distance
    |z - a|, with no numpy RuntimeWarning."""
    curve = book_limit_curve()
    balance = next(p for p in curve.pieces if p.implicit_id == "modulus-balance")
    joins = [k for k, (a, b) in enumerate(zip(balance.points, balance.points[1:]))
             if a == b]
    assert len(joins) == 0
    a_min = (-3 - math.sqrt(5)) / 2
    join = min(balance.points, key=lambda z: z.real)
    assert join.real == pytest.approx(a_min)
    only = LimitCurve(pieces=(CurvePiece("join", (join, join)),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (complex(a_min - 0.5, 0.25), complex(a_min, 0.0), complex(-1.0, 1.0)):
            assert distance_to_curve(z, only) == abs(z - join)
            assert distance_to_curve(z, curve) == reference_distance_to_curve(z, curve)


# -- the modulus kernel ----------------------------------------------------------------


LAMBDAS = sorted({lam.coeffs for fam in (friendship_family(), book_family())
                  for lam in fam.lambdas}) + [(-2,), (1, -3, 0, 2)]
_PARTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, -2.0]),
                   st.floats(-10.0, 10.0))


def _hex_moduli(coeffs, points):
    return [abs(horner(coeffs, z)).hex() for z in points]


@deterministic
@given(st.lists(st.tuples(_PARTS, _PARTS), min_size=1, max_size=40))
def test_modulus_matches_python_complex(points):
    """Bit-identical to abs(horner(...)) on Python complex, at zero parts of
    either sign too, and on the grid's row-against-column broadcast."""
    re = np.array([p[0] for p in points])
    im = np.array([p[1] for p in points])
    for coeffs in LAMBDAS:
        got = _modulus(coeffs, re, im)
        assert got.shape == re.shape
        assert [x.hex() for x in got.tolist()] == \
            _hex_moduli(coeffs, [complex(a, b) for a, b in points])
        grid = _modulus(coeffs, re[np.newaxis, :], im[:, np.newaxis])
        assert grid.shape == (len(im), len(re))
        assert [[x.hex() for x in row] for row in grid.tolist()] == \
            [_hex_moduli(coeffs, [complex(a, b) for a in re.tolist()])
             for b in im.tolist()]


def test_tracer_evaluates_each_lambda_once_per_bisection_step(monkeypatch):
    """One bisection loop serves every pair of the book family: the kernel
    runs once per lambda at the grid nodes, once per lambda at each step, as
    many steps as the scalar reference's longest lane, and once per lambda
    in the dominance test."""
    family, grid = book_family(), GridRegion(re_cells=30, im_cells=30)
    coeffs = [lam.coeffs for lam in family.lambdas]
    calls, lanes = [], []
    modulus, bisect_edge = _modulus, _bisect_edge

    def counted_modulus(c, re, im):
        calls.append((c, re))
        return modulus(c, re, im)

    def counted_bisect_edge(g, za, zb, ga, tol):
        steps = []
        try:
            return bisect_edge(lambda z: steps.append(z) or g(z), za, zb, ga, tol)
        finally:
            lanes.append(len(steps))

    monkeypatch.setattr(dompoly.limits, "_modulus", counted_modulus)
    monkeypatch.setattr(sys.modules[__name__], "_bisect_edge", counted_bisect_edge)
    assert curve_bits(bkw_limit_points(family, grid)) == \
        curve_bits(reference_bkw_limit_points(family, grid))
    k = len(coeffs)
    assert len(lanes) > 0 and len(calls) == k * (max(lanes) + 2)
    for start in range(0, len(calls), k):
        step = calls[start:start + k]
        assert [c for c, _ in step] == coeffs
        # all lambdas of one step see the same points
        assert start == 0 or all(re is step[0][1] for _, re in step)
