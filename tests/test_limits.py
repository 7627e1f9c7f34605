"""Limit-curve machinery: family identities, analytic curves, the generic
equimodular tracer, and point-to-curve distances."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dompoly.limits
from dompoly.domination import (
    ExponentialFamily,
    book_family,
    family_member,
    family_poly,
    friendship_family,
)
from dompoly.graphs import FamilySpec
from dompoly.limits import (
    BOOK_JUNCTION_RE,
    CurvePiece,
    GridRegion,
    LimitCurve,
    bkw_limit_points,
    book_limit_curve,
    chordal_distance_to_hyperbola,
    distance_to_curve,
    friendship_limit_curve,
    hyperbola_residual,
)
from dompoly.polynomials import ONE, X, IntPolynomial

P = IntPolynomial

# the friendship family in y = 1 + x: 1*(y^2-1)^n + (y-1)*(y^2)^n
SHIFTED_FRIENDSHIP = ExponentialFamily((ONE, P([-1, 1])),
                                       (P([-1, 0, 1]), P([0, 0, 1])))

# the implicit equation of each analytic piece, as a residual
ANALYTIC_RESIDUALS = {
    "hyperbola": hyperbola_residual,
    "circle": lambda z: abs(abs(z + 2) - 1),
    "modulus-balance": lambda z: abs(abs(z + 1) ** 2 - abs(z)),
}


# -- families and members -----------------------------------------------------


def test_friendship_family_y_members_are_shifted():
    for n in range(1, 7):
        expect = family_poly(FamilySpec("friendship", n)).shift(-1)
        assert family_member(SHIFTED_FRIENDSHIP, n) == expect


def test_shifted_member_frozen_expansion():
    # (y^2-1)^2 + (y-1) y^4, expanded exactly
    y2m1 = P([-1, 0, 1])
    expect = y2m1 ** 2 + P([-1, 1]) * X ** 4
    assert family_member(SHIFTED_FRIENDSHIP, 2) == expect
    assert family_poly(FamilySpec("friendship", 2)).shift(-1) == expect


def test_shift_poly():
    # the y = x + 1 substitution that the y-variable families are built on
    assert (X ** 2).shift(1) == P([1, 2, 1])
    p = P([3, -1, 4])
    assert p.shift(1).shift(-1) == p


def test_family_validation():
    with pytest.raises(ValueError):
        ExponentialFamily((P(), X), (ONE, X))
    with pytest.raises(ValueError):
        ExponentialFamily((ONE,), (X,))
    with pytest.raises(ValueError):
        ExponentialFamily((ONE, ONE), (X,))
    with pytest.raises(ValueError):
        family_member(friendship_family(), 0)


# -- analytic curves --------------------------------------------------------------


def test_friendship_curve_samples_on_hyperbola():
    curve = friendship_limit_curve(samples=401)
    assert len(curve.pieces) == 2
    for piece in curve.pieces:
        assert piece.implicit_id == "hyperbola"
        for z in piece.points:
            assert hyperbola_residual(z) <= 1e-12
    assert curve.isolated_points == (0j,)


def test_friendship_curve_real_axis_crossings():
    curve = friendship_limit_curve(samples=101)
    crossings = {-1 + 1 / math.sqrt(2), -1 - 1 / math.sqrt(2)}
    hits = {z.real for piece in curve.pieces for z in piece.points
            if z.imag == 0}
    assert len(hits) == 2
    for h in hits:
        assert min(abs(h - c) for c in crossings) < 1e-12
    assert any(abs(h - (-1.7071)) < 1e-3 for h in hits)
    assert any(abs(h - (-0.2929)) < 1e-3 for h in hits)


def test_book_curve_pieces():
    curve = book_limit_curve(samples=301)
    by_id = {piece.implicit_id: piece for piece in curve.pieces}
    assert set(by_id) == {"circle", "hyperbola", "modulus-balance"}
    for piece in curve.pieces:
        for z in piece.points:
            assert ANALYTIC_RESIDUALS[piece.implicit_id](z) <= 1e-12
    # windows
    assert by_id["circle"].re_window[0] == pytest.approx(BOOK_JUNCTION_RE)
    assert by_id["hyperbola"].re_window[0] == -1.0
    assert by_id["modulus-balance"].re_window[1] == pytest.approx(BOOK_JUNCTION_RE)
    for z in by_id["circle"].points:
        assert z.real >= BOOK_JUNCTION_RE - 1e-9
    for z in by_id["hyperbola"].points:
        assert z.real >= -1.0
    for z in by_id["modulus-balance"].points:
        assert z.real <= BOOK_JUNCTION_RE + 1e-9
    assert set(curve.isolated_points) == {0j, complex(-0.5, 0)}


def test_book_curve_junction_continuity():
    # circle and modulus-balance arcs meet where all three moduli tie
    curve = book_limit_curve(samples=301)
    by_id = {piece.implicit_id: piece for piece in curve.pieces}
    circle_ends = {by_id["circle"].points[0], by_id["circle"].points[-1]}
    balance_ends = {by_id["modulus-balance"].points[0],
                    by_id["modulus-balance"].points[-1]}
    for ce in circle_ends:
        assert min(abs(ce - be) for be in balance_ends) < 1e-9
        assert abs(ce.real - BOOK_JUNCTION_RE) < 1e-12


def test_modulus_balance_real_axis():
    # real solutions of |x+1|^2 = |x| for x < 0: (-3 +- sqrt 5)/2
    for r in ((-3 + math.sqrt(5)) / 2, (-3 - math.sqrt(5)) / 2):
        assert ANALYTIC_RESIDUALS["modulus-balance"](complex(r, 0)) < 1e-12
    curve = book_limit_curve(samples=301)
    balance = next(p for p in curve.pieces if p.implicit_id == "modulus-balance")
    leftmost = min(z.real for z in balance.points)
    assert leftmost == pytest.approx((-3 - math.sqrt(5)) / 2)


# -- generic tracer ----------------------------------------------------------------


def test_tracer_symmetric_family_vertical_line():
    fam = ExponentialFamily((ONE, ONE), (X, X + 2 * ONE))
    curve = bkw_limit_points(fam, GridRegion(-3, 1, -2, 2, 60, 60))
    pts = [z for piece in curve.pieces for z in piece.points]
    assert pts
    assert max(abs(z.real + 1) for z in pts) < 1e-10
    assert curve.isolated_points == ()


def test_tracer_rejects_degenerate_family():
    with pytest.raises(ValueError):
        bkw_limit_points(ExponentialFamily((ONE, ONE), (X, -1 * X)))


def test_tracer_accepts_nearly_equimodular_high_degree_pair():
    # |x^120 + 1| / |x^120| is within 1e-11 of 1 on |x| = 1.23, yet the
    # locus is the curve Re(x^120) = -1/2, not the whole plane
    curve = bkw_limit_points(ExponentialFamily((ONE, ONE), (X ** 120 + ONE, X ** 120)))
    assert [piece.implicit_id for piece in curve.pieces] == ["equimodular:0:1"]


_SMALL_LAMBDAS = st.lists(st.integers(-2, 2), min_size=1, max_size=3).map(P).filter(
    lambda p: not p.is_zero)


def _moduli_tie_everywhere(p, q):
    """|p| = |q| on the whole plane, decided exactly: for real coefficients
    |p(z)|^2 = p(z) p(conj z), and z, conj z vary independently, so the
    moduli tie iff p(z) p(w) = q(z) q(w) as polynomials in z and w."""
    n = max(len(p.coeffs), len(q.coeffs))
    a = list(p.coeffs) + [0] * (n - len(p.coeffs))
    b = list(q.coeffs) + [0] * (n - len(q.coeffs))
    return all(a[i] * a[j] == b[i] * b[j] for i in range(n) for j in range(n))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_SMALL_LAMBDAS, _SMALL_LAMBDAS, st.sampled_from([None, None, None, 1, -1]))
@example(X ** 120 + ONE, X ** 120, None)
@example(2 * ONE, -2 * ONE, None)
def test_tracer_rejects_exactly_the_signed_copies(first, second, copy_sign):
    """bkw_limit_points raises exactly when the two moduli tie on the whole
    plane, that is when lambda_0 = +-lambda_1; copy_sign makes lambda_1 =
    copy_sign * lambda_0 often enough to test both sides."""
    if copy_sign is not None:
        second = copy_sign * first
    family = ExponentialFamily((ONE, ONE), (first, second))
    degenerate = _moduli_tie_everywhere(first, second)
    assert degenerate == (first == second or first == -second)
    grid = GridRegion(-2, 2, -2, 2, 4, 4)
    if degenerate:
        with pytest.raises(ValueError, match="degenerate"):
            bkw_limit_points(family, grid)
    else:
        bkw_limit_points(family, grid)


def test_tracer_friendship_recovers_hyperbola():
    curve = bkw_limit_points(friendship_family(),
                             GridRegion(-4, 2, -3, 3, 100, 100))
    pts = [z for piece in curve.pieces for z in piece.points]
    assert len(pts) > 100
    assert max(hyperbola_residual(z) for z in pts) < 1e-10
    assert curve.isolated_points == (0j,)
    # the one pair: |x^2 + 2x| = |(1 + x)^2|
    for piece in curve.pieces:
        assert piece.implicit_id == "equimodular:0:1"
        for z in piece.points:
            assert abs(abs(z * z + 2 * z) - abs((1 + z) ** 2)) <= 1e-12


def test_tracer_friendship_y_variable():
    # in the shifted variable the locus satisfies |y^2 - 1| = |y^2|
    curve = bkw_limit_points(SHIFTED_FRIENDSHIP,
                             GridRegion(-3, 3, -3, 3, 80, 80))
    for piece in curve.pieces:
        for y in piece.points:
            assert abs(abs(y * y - 1) - abs(y * y)) <= 1e-10
    # case (ii): y = 1, i.e. x = 0
    assert len(curve.isolated_points) == 1
    assert abs(curve.isolated_points[0] - 1) < 1e-25


def test_tracer_book_covers_analytic_arcs():
    grid = GridRegion(-4, 2, -3, 3, 120, 120)
    traced = bkw_limit_points(book_family(), grid)
    cloud = [z for piece in traced.pieces for z in piece.points]
    assert cloud
    cell = max((grid.re_max - grid.re_min) / grid.re_cells,
               (grid.im_max - grid.im_min) / grid.im_cells)
    analytic = book_limit_curve(samples=201)
    for piece in analytic.pieces:
        for z in piece.points:
            if not (grid.re_min < z.real < grid.re_max
                    and grid.im_min < z.imag < grid.im_max):
                continue
            assert min(abs(z - w) for w in cloud) < 2 * cell, \
                f"analytic point {z} on {piece.implicit_id} not traced"
    assert set(complex(round(z.real, 6), round(z.imag, 6))
               for z in traced.isolated_points) == {complex(-0.5, 0), 0j}


def test_grid_region_validation():
    with pytest.raises(ValueError):
        GridRegion(1, -1, 0, 1, 10, 10)
    with pytest.raises(ValueError):
        GridRegion(-1, 1, 0, 1, 1, 10)
    for bounds in ((math.nan, 2, -3, 3), (-math.inf, 2, -3, 3), (-4, 2, -3, math.inf),
                   (-1.7e308, 1.7e308, -1, 1), (-1, 1, -1.7e308, 1.7e308)):
        with pytest.raises(ValueError, match="finite"):
            GridRegion(*bounds, 10, 10)


# -- distances ----------------------------------------------------------------------


def test_distance_to_curve_on_curve():
    curve = friendship_limit_curve(samples=2001)
    on_curve = curve.pieces[0].points[137]
    assert distance_to_curve(on_curve, curve) <= 1e-9


def test_distance_to_curve_known_value():
    # from -1 (the hyperbola center) both branches are 1/sqrt(2) away at the
    # real-axis vertices
    curve = friendship_limit_curve(samples=4001)
    assert distance_to_curve(complex(-1, 0), curve) == \
        pytest.approx(1 / math.sqrt(2), abs=1e-6)


def test_distance_ignores_isolated_points():
    curve = friendship_limit_curve(samples=2001)
    # 0 is an isolated limit point, not on the curve; nearest curve point is
    # the right vertex at -1 + 1/sqrt(2)
    assert distance_to_curve(0j, curve) == \
        pytest.approx(1 - 1 / math.sqrt(2), abs=1e-6)


def test_distance_point_cloud_piece():
    piece = CurvePiece("cloud", (0j, 1 + 0j), connected=False)
    curve = LimitCurve(pieces=(piece,))
    assert distance_to_curve(complex(0.5, 0), curve) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        distance_to_curve(0j, LimitCurve(pieces=()))


# -- chordal distances ----------------------------------------------------------------


@pytest.mark.parametrize("z, expected", [
    # independent mpmath golden-section minimisation over both branches
    (complex(-1, 0), 0.505449),
    (complex(-1, 2), 0.439394),
    (complex(-1, 10), 0.132898),
])
def test_chordal_distance_reference_values(z, expected):
    assert chordal_distance_to_hyperbola(z) == pytest.approx(expected, abs=1e-6)


def test_chordal_distance_prefers_the_chordal_nearest_branch():
    # from -1 the Euclidean-nearest point -1 + 1/sqrt(2) is chordally farther
    # than the left vertex -1 - 1/sqrt(2)
    def chi(z, w):
        return 2 * abs(z - w) / math.sqrt((1 + abs(z) ** 2) * (1 + abs(w) ** 2))

    z = complex(-1, 0)
    right, left = -1 + 1 / math.sqrt(2), -1 - 1 / math.sqrt(2)
    assert chi(z, right) == pytest.approx(0.960, abs=1e-3)
    assert chordal_distance_to_hyperbola(z) == pytest.approx(chi(z, left), abs=1e-9)


def test_chordal_distance_on_curve_is_zero():
    assert chordal_distance_to_hyperbola(complex(-1 + 1 / math.sqrt(2), 0)) \
        == pytest.approx(0.0, abs=1e-12)
    curve = friendship_limit_curve(samples=401, im_max=5.0)
    for z in curve.pieces[1].points[::40]:
        assert chordal_distance_to_hyperbola(z) == pytest.approx(0.0, abs=1e-9)


_PROBES = [0j, complex(-1, 0), complex(-1, 2), complex(-1, -10), complex(0.5, 0.5),
           complex(-3, 1.5), complex(2, -7), complex(-1.2, 40), complex(1e5, -3e5)]


@pytest.mark.parametrize("z", _PROBES)
def test_chordal_distance_bounded_by_infinity(z):
    assert chordal_distance_to_hyperbola(z) <= 2 / math.sqrt(1 + abs(z) ** 2)


@pytest.mark.parametrize("z", _PROBES)
def test_chordal_distance_conjugate_symmetric(z):
    assert chordal_distance_to_hyperbola(z.conjugate()) == \
        pytest.approx(chordal_distance_to_hyperbola(z), abs=1e-12)


@pytest.mark.parametrize("z", _PROBES)
def test_chordal_distance_independent_of_window(z, monkeypatch):
    default = chordal_distance_to_hyperbola(z)
    monkeypatch.setattr(dompoly.limits, "_CHORDAL_IM_MAX", 6.0)
    assert chordal_distance_to_hyperbola(z) == pytest.approx(default, abs=1e-9)
