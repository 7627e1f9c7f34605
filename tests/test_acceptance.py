"""Acceptance suite: every headline property at its stated tolerance.

Each test prints a one-line pass/fail summary so the suite output doubles as
the verification report.  The checks themselves live in
dompoly.verification, shared with `dompoly verify`.

The max-distance check measures chordal distance on the Riemann sphere: the
limit hyperbola is unbounded, and the farthest root pair recedes to infinity,
so the Euclidean maximum grows while the chordal one falls; see the check's
docstring for the evidence.
"""

from types import SimpleNamespace

import pytest

from dompoly.limits import LimitCurve
from dompoly.polynomials import ONE, X
from dompoly.verification import (
    ALL_CHECKS,
    check_closed_vs_brute,
    check_corona_real_roots,
    check_equivalence_witnesses,
    check_export_pipeline,
    check_integer_root_conjecture,
    check_limit_curve_max_distance,
    check_limit_curve_tracer,
    check_parity_invariant,
    check_real_root_counts,
    check_recurrence_identities,
    check_reference_real_roots,
)


def report(result, max_seconds=None):
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.name}: {result.detail} ({result.seconds:.2f}s)")
    assert result.passed, f"{result.name}: {result.detail}"
    if max_seconds is not None:
        assert result.seconds < max_seconds, \
            f"{result.name} took {result.seconds:.1f}s, budget {max_seconds}s"


def test_criterion_1_reference_table_roots():
    report(check_reference_real_roots(), max_seconds=5)


def test_criterion_2_closed_form_vs_brute_force():
    report(check_closed_vs_brute(), max_seconds=30)


def test_criterion_3_recurrence_identities():
    report(check_recurrence_identities())


def test_criterion_4_friendship_not_unique():
    report(check_equivalence_witnesses(), max_seconds=5)


def test_criterion_5_real_root_counts():
    report(check_real_root_counts())


def test_criterion_6a_max_distance_monotone():
    # The max-distance property in the chordal metric, in which BKW
    # convergence to the closed hyperbola is uniform (see
    # dompoly.verification for why the Euclidean form fails).
    report(check_limit_curve_max_distance())


def test_criterion_6b_tracer_and_median_approach():
    report(check_limit_curve_tracer())


def test_criterion_7_corona_real_roots():
    report(check_corona_real_roots())


def test_criterion_8_integer_root_conjecture_scan():
    report(check_integer_root_conjecture(), max_seconds=120)


def test_criterion_9_parity_invariant():
    report(check_parity_invariant())


def test_criterion_10_export_pipeline():
    report(check_export_pipeline())


# One broken dependency per check: (attribute to patch, replacement, a
# fragment the failing check's detail must contain).  A check missing from
# the table fails its test below.
BREAKAGES = {
    "check_reference_real_roots": ("dompoly.verification.real_roots_exact",
                                   lambda poly, **kw: [(0, 0)],
                                   "nonzero real roots, expected 2"),
    "check_closed_vs_brute": ("dompoly.verification.brute_force_poly",
                              lambda g: ONE, "!= brute"),
    "check_recurrence_identities": ("dompoly.verification.recurrence_poly_odot",
                                    lambda g, u: ONE, "200 mismatches"),
    "check_equivalence_witnesses": (
        "dompoly.verification.verify_friendship_not_unique",
        lambda n: SimpleNamespace(certificate=SimpleNamespace(kind="size")),
        "certificate size"),
    "check_real_root_counts": ("dompoly.verification.real_roots_exact",
                               lambda poly: [], "expected only the root 0"),
    "check_limit_curve_max_distance": (
        "dompoly.verification.chordal_distance_to_hyperbola",
        lambda z: 1.0, "(not decreasing)"),
    "check_limit_curve_tracer": ("dompoly.verification.bkw_limit_points",
                                 lambda family, region: LimitCurve(()),
                                 "tracer produced no points"),
    "check_corona_real_roots": ("dompoly.verification.integer_roots",
                                lambda poly: [], "ints [], reals"),
    "check_integer_root_conjecture": ("dompoly.verification.integer_roots",
                                      lambda poly: [-1], "FINDING"),
    "check_parity_invariant": ("dompoly.verification.family_poly",
                               lambda spec: 2 * X, "even value at 1"),
    "check_export_pipeline": ("dompoly.cli.main", lambda argv: 2,
                              "exited nonzero"),
}


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.__name__)
def test_every_check_can_fail(check, monkeypatch):
    target, replacement, fragment = BREAKAGES[check.__name__]
    monkeypatch.setattr(target, replacement)
    result = check()
    assert result.passed is False
    assert fragment in result.detail, result.detail
