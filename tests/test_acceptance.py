"""Acceptance suite: every headline property at its stated tolerance.

Each test prints a one-line pass/fail summary so the suite output doubles as
the verification report.  The checks themselves live in
dompoly.verification, shared with `dompoly verify`.

The max-distance check measures chordal distance on the Riemann sphere: the
limit hyperbola is unbounded, and the farthest root pair recedes to infinity,
so the Euclidean maximum grows while the chordal one falls; see the check's
docstring for the evidence.
"""

from dompoly.verification import (
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
