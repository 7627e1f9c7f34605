"""End-to-end verification suite.

Each check exercises one headline property of the engine at desk scale and
reports a single pass/fail line.  The suite is shared by the `verify` CLI
subcommand and the acceptance tests, so there is exactly one source of truth
for what "working" means.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import os
import random
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from statistics import median

from .domination import (
    brute_force_poly,
    brute_force_polys,
    corona_family_poly,
    corona_poly,
    family_poly,
    friendship_family,
    recurrence_poly_odot,
    recurrence_poly_vertex,
)
from .equivalence import BUNDLED_ORDERS, bundled_catalog, verify_friendship_not_unique
from .graphs import FamilySpec, Graph, bitset_members, build_family
from .limits import (
    GridRegion,
    bkw_limit_points,
    chordal_distance_to_hyperbola,
    distance_to_curve,
    friendship_limit_curve,
    hyperbola_residual,
)
from .roots import all_roots, count_real_roots_in, integer_roots, real_roots_exact

# Frozen 10-significant-digit reference values for the nonzero real roots of
# the friendship polynomials (independently reproduced by exact isolation).
REFERENCE_REAL_ROOTS: dict[int, tuple[str, ...]] = {
    1: (),
    2: ("-1.660992532", "-0.1516251043"),
    3: (),
    4: ("-1.683727169", "-0.2316175850"),
    5: (),
    6: ("-1.691458147", "-0.2537459684"),
    7: (),
    8: ("-1.695348455", "-0.2641276712"),
    9: (),
    10: ("-1.697690028", "-0.2701559954"),
}
_TRIALS = 200  # random graphs in the recurrence check


@dataclass(frozen=True)
class CheckResult:
    name: str
    claim: str
    passed: bool
    detail: str
    seconds: float


def _check(name: str, claim: str):
    """Make a check of a body that returns (problems, detail): the check is
    timed, and passes when the problems list is empty.  Its detail is then
    the body's, and otherwise the problems joined by "; "."""
    def wrap(body):
        @functools.wraps(body)
        def check() -> CheckResult:
            started = time.time()
            problems, detail = body()
            return CheckResult(name, claim, not problems,
                               "; ".join(problems) or detail,
                               time.time() - started)
        return check
    return wrap


def _matches_10_digits(value: float, reference: str) -> bool:
    ref = float(reference)
    ulp10 = 10.0 ** (math.floor(math.log10(abs(ref))) - 9)
    return abs(value - ref) < 0.5 * ulp10


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = 1
    frontier = 1
    while frontier:
        grown = 0
        for v in bitset_members(frontier):
            grown |= g.adj[v]
        frontier = grown & ~seen
        seen |= grown
    return seen == g.full_mask


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Uniform-ish random connected graph via rejection on G(n, p)."""
    while True:
        p = rng.uniform(0.3, 0.8)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        g = Graph(n, edges)
        if is_connected(g):
            return g


# -- the checks -----------------------------------------------------------------


@_check("table-reference-roots",
        "10-digit reference real roots of friendship polynomials, n = 1..10")
def check_reference_real_roots():
    problems = []
    for n, refs in REFERENCE_REAL_ROOTS.items():
        poly = family_poly(FamilySpec("friendship", n))
        intervals = real_roots_exact(poly, width=Fraction(1, 2 ** 48))
        nonzero = [iv for iv in intervals if not (iv[0] <= 0 <= iv[1])]
        if (0, 0) not in [(a, b) for a, b in intervals]:
            problems.append(f"n={n}: exact root 0 missing")
        if len(nonzero) != len(refs):
            problems.append(f"n={n}: {len(nonzero)} nonzero real roots, "
                            f"expected {len(refs)}")
            continue
        for (lo, hi), ref in zip(nonzero, refs):
            mid = float((lo + hi) / 2)
            if not _matches_10_digits(mid, ref):
                problems.append(f"n={n}: {mid!r} != {ref} at 10 digits")
    return problems, "all rows match to 10 significant digits"


@_check("closed-vs-brute",
        "closed forms equal brute force: friendship, book and contracted "
        "book n<=12, path, cycle and complete n=26")
def check_closed_vs_brute():
    cases = ([(kind, n) for kind in ("friendship", "book", "book_contracted")
              for n in range(1, 13)]
             + [(kind, 26) for kind in ("path", "cycle", "complete")])
    problems = []
    for kind, n in cases:
        spec = FamilySpec(kind, n)
        closed = family_poly(spec)
        brute = brute_force_poly(build_family(spec))
        if closed != brute:
            problems.append(f"{spec}: closed {closed} != brute {brute}")
    return problems, f"{len(cases)} instances agree exactly"


@_check("recurrence-identities",
        f"both deletion recurrences equal brute force on {_TRIALS} random "
        f"connected graphs of order <= 8")
def check_recurrence_identities():
    rng = random.Random(20240131)
    mismatches = 0
    for _ in range(_TRIALS):
        n = rng.randint(2, 8)
        g = random_connected_graph(rng, n)
        u = rng.randrange(n)
        reference = brute_force_poly(g)
        mismatches += recurrence_poly_vertex(g, u) != reference
        mismatches += recurrence_poly_odot(g, u) != reference
    return ([f"{mismatches} mismatches"] if mismatches else [],
            f"{_TRIALS} trials, exact agreement (both recurrences)")


@_check("friendship-not-unique",
        "friendship and contracted book share polynomials with "
        "degree-sequence certificates, n = 2..100")
def check_equivalence_witnesses():
    problems = []
    for n in range(2, 101):
        w = verify_friendship_not_unique(n)
        if w.certificate.kind != "degree-sequence":
            problems.append(f"n={n}: certificate {w.certificate.kind}")
    return problems, "99 witness pairs certified"


@_check("real-root-counts",
        "friendship real-root counts: 1 for odd n<=15, 3 for even n<=14, "
        "nonzero roots inside (-2,0), never -1")
def check_real_root_counts():
    problems = []
    for n in range(1, 16):
        poly = family_poly(FamilySpec("friendship", n))
        if poly.eval_int(-1) == 0:
            problems.append(f"n={n}: -1 is a root")
        intervals = real_roots_exact(poly)
        if n % 2 == 1:
            if len(intervals) != 1 or intervals[0] != (0, 0):
                problems.append(f"n={n}: expected only the root 0")
            continue
        if n > 14:
            continue
        if len(intervals) != 3:
            problems.append(f"n={n}: {len(intervals)} real roots, expected 3")
            continue
        inner = count_real_roots_in(poly, Fraction(-2), Fraction(0))
        if inner != 2:
            problems.append(f"n={n}: {inner} roots inside (-2,0), expected 2")
        for lo, hi in intervals:
            if lo <= 0 <= hi:
                continue
            if not (Fraction(-2) < lo and hi < Fraction(0)):
                problems.append(f"n={n}: interval ({lo},{hi}) escapes (-2,0)")
            if lo <= Fraction(-1) <= hi:
                problems.append(f"n={n}: interval ({lo},{hi}) contains -1")
    return problems, "counts and locations certified"


@functools.cache
def _root_spray(n: int) -> tuple[list[complex], list[float]]:
    """The nonzero friendship:n roots outside the disk of radius 0.15 around
    the isolated limit point 0, and their Euclidean distances to the
    hyperbola, in the same order; solved once per n and shared by the
    limit-curve checks.

    The root 0 is exact in every member, and the roots approaching the
    isolated limit 0 are not near the curve, hence the exclusion disk.
    """
    root_set = all_roots(family_poly(FamilySpec("friendship", n)))
    pts = [z for z in (complex(r) for r in root_set.complex_roots)
           if abs(z) > 0.15]
    im_max = max(3.0, max((abs(z.imag) for z in pts), default=0.0) + 0.5)
    curve = friendship_limit_curve(samples=4001, im_max=im_max)
    return pts, [distance_to_curve(z, curve) for z in pts]


@_check("limit-curve-max-distance",
        "max chordal distance from member roots (outside the 0-disk) to the "
        "closed hyperbola (both branches and infinity) decreases strictly "
        "over n = 10, 20, 30")
def check_limit_curve_max_distance():
    """The farthest root approaches the closed hyperbola on the sphere.

    BKW places the limit of the friendship roots on the hyperbola and the
    isolated point 0, with convergence on compact sets.  The hyperbola is
    unbounded, so the statement is uniform in the chordal metric of the
    Riemann sphere, where its closure adds the point at infinity.  The check
    asserts that the maximum chordal distance from the roots outside the
    0.15 exclusion disk to that closure decreases strictly over
    n = 10, 20, 30.

    In the Euclidean metric the maximum grows instead (1.16 -> 1.58 -> 1.89):
    it belongs to the conjugate pair of largest modulus, which lies between
    the branches near Re x = -1.  Every root satisfies
    (1 - 1/(x+1)^2)^n = -x, so that pair recedes to infinity as n grows.
    The detail line keeps those Euclidean maxima and the pair's modulus as
    the evidence.
    """
    ns = (10, 20, 30)
    chordal = {n: max(chordal_distance_to_hyperbola(z) for z in _root_spray(n)[0])
               for n in ns}
    # (Euclidean maximum, modulus of the root attaining it) per n
    euclid = {n: max((d, abs(z)) for z, d in zip(*_root_spray(n))) for n in ns}
    passed = chordal[10] > chordal[20] > chordal[30]
    detail = ("chordal maxima " + ", ".join(f"n={n}: {chordal[n]:.4f}" for n in ns)
              + ("" if passed else " (not decreasing)")
              + "; Euclidean maxima "
              + ", ".join(f"{euclid[n][0]:.4f}" for n in ns)
              + " attained at |x| = "
              + ", ".join(f"{euclid[n][1]:.3f}" for n in ns))
    return ([] if passed else [detail]), detail


@_check("limit-curve-tracer",
        "typical roots approach the hyperbola (median distance falls); "
        "the tracer recovers the curve to 1e-6 and the isolated point 0")
def check_limit_curve_tracer():
    problems = []
    med10 = median(_root_spray(10)[1])
    med30 = median(_root_spray(30)[1])
    if not (med30 < med10):
        problems.append(f"median distance not improving: {med10} vs {med30}")

    traced = bkw_limit_points(friendship_family(),
                              GridRegion(-4.0, 2.0, -3.0, 3.0, 140, 140))
    pts = [z for piece in traced.pieces for z in piece.points]
    if not pts:
        problems.append("tracer produced no points")
    else:
        worst = max(hyperbola_residual(z) for z in pts)
        if worst > 1e-6:
            problems.append(f"tracer residual {worst:.2e} > 1e-6")
    if list(traced.isolated_points) != [0j]:
        problems.append(f"isolated points {traced.isolated_points} != (0,)")
    return problems, (f"median distance {med10:.4f} -> {med30:.4f}; tracer "
                      f"residual <= 1e-6; isolated point 0")


@_check("corona-real-roots",
        "corona chains: book-over-friendship has real roots exactly {-2,0}; "
        "even-clique chains {0}; odd-clique chains within {-2,0}")
def check_corona_real_roots():
    # (label, polynomial, predicate on its integer roots and real-root count);
    # book:n corona friendship:n has orders 2n+2 and 2n+1
    cases = [(f"book:{n} over friendship:{n}",
              corona_poly(family_poly(FamilySpec("friendship", n)),
                          2 * n + 1, 2 * n + 2),
              lambda ints, reals: ints == [-2, 0] and reals == 2)
             for n in (1, 3)]
    cases += [(f"even clique 2m={2*m} base={base} depth={depth}",
               corona_family_poly("complete", base, 2 * m, depth),
               lambda ints, reals: ints == [0] and reals == 1)
              for base, m, depth in ((1, 1, 1), (2, 1, 2), (1, 2, 2), (3, 2, 1))]
    cases += [(f"odd clique {2*m+1} base={base} depth={depth}",
               corona_family_poly("complete", base, 2 * m + 1, depth),
               lambda ints, reals: set(ints) <= {-2, 0} and reals == len(ints))
              for base, m, depth in ((1, 0, 1), (1, 1, 1), (2, 1, 2), (1, 2, 2))]
    problems = []
    for label, poly, holds in cases:
        ints, real_count = integer_roots(poly), len(real_roots_exact(poly))
        if not holds(ints, real_count):
            problems.append(f"{label}: ints {ints}, reals {real_count}")
    return problems, "all corona instances have certified integer-only real roots"


@_check("integer-root-conjecture-scan",
        "integer domination roots lie in {-2, 0} for every graph of order <= 6")
def check_integer_root_conjecture():
    graphs = [(order, g) for order in BUNDLED_ORDERS for g in bundled_catalog(order)]
    findings = []
    for order, g in graphs:
        extra = set(integer_roots(brute_force_poly(g))) - {-2, 0}
        if extra:
            findings.append(f"FINDING: order-{order} graph with integer "
                            f"roots {sorted(extra)} outside {{-2,0}}")
    return findings, f"{len(graphs)} graphs scanned, no integer root outside {{-2, 0}}"


@_check("parity-invariant",
        "every computed polynomial is odd at 1 (and nonzero at -1)")
def check_parity_invariant():
    polys = [(f"{kind}:{n}", family_poly(FamilySpec(kind, n)))
             for kind in ("friendship", "book", "book_contracted", "complete",
                          "empty", "path", "star") for n in range(1, 13)]
    polys += [(f"cycle:{n}", family_poly(FamilySpec("cycle", n))) for n in range(3, 13)]
    catalog = [(f"catalog:{order}:{i}", g) for order in BUNDLED_ORDERS
               for i, g in enumerate(bundled_catalog(order))]
    polys += zip([label for label, _ in catalog],
                 brute_force_polys([g for _, g in catalog]))
    for n in (1, 3):
        polys.append((f"corona:{n}",
                      corona_poly(family_poly(FamilySpec("friendship", n)),
                                  2 * n + 1, 2 * n + 2)))
    problems = []
    for label, poly in polys:
        if poly.eval_int(1) % 2 == 0:
            problems.append(f"{label}: even value at 1")
        if poly.eval_int(-1) == 0:
            problems.append(f"{label}: -1 is a root")
    return problems, f"{len(polys)} polynomials, all odd at 1 and nonzero at -1"


def _exported_csv(family: str, n_max: int, samples: int) -> tuple[str, str] | None:
    """The scatter and curve CSV texts that `dompoly limits --export csv`
    writes for members 1..n_max, or None if it exits nonzero.  Its stdout is
    discarded."""
    from . import cli

    with tempfile.TemporaryDirectory() as out_dir, redirect_stdout(io.StringIO()):
        code = cli.main(["limits", "--family", family, "--n-max", str(n_max),
                         "--export", "csv", "--output-dir", out_dir,
                         "--precision", "128", "--tol", "1e-18",
                         "--samples", str(samples)])
        if code != cli.EXIT_OK:
            return None
        texts = []
        for kind in ("scatter", "curve"):
            with open(os.path.join(out_dir, f"{family}_{kind}.csv"),
                      encoding="utf-8") as fh:
                texts.append(fh.read())
    return texts[0], texts[1]


@_check("export-pipeline",
        "root-scatter and curve data exports are well-formed, "
        "residual-checked, and byte-deterministic")
def check_export_pipeline():
    outputs = [_exported_csv("friendship", 6, 257) for _ in range(2)]
    book = _exported_csv("book", 4, 129)
    if None in (*outputs, book):
        return ["dompoly limits --export csv exited nonzero"], ""
    problems = []
    if outputs[0] != outputs[1]:
        problems.append("repeated export differs byte-for-byte")
    scatter_rows = list(csv.reader(io.StringIO(outputs[0][0])))
    curve_rows = list(csv.reader(io.StringIO(outputs[0][1])))
    if scatter_rows[0] != ["re", "im", "residual"]:
        problems.append(f"scatter header {scatter_rows[0]}")
    if curve_rows[0] != ["re", "im", "piece"]:
        problems.append(f"curve header {curve_rows[0]}")
    if len(scatter_rows) < 20 or len(curve_rows) < 20:
        problems.append("exports suspiciously small")
    for re_s, im_s, piece in curve_rows[1:]:
        z = complex(float(re_s), float(im_s))
        if piece == "hyperbola" and hyperbola_residual(z) > 1e-12:
            problems.append(f"curve sample {z} off the hyperbola")
            break
    for re_s, im_s, res_s in scatter_rows[1:]:
        if float(res_s) > 1e-18:
            problems.append(f"scatter residual {res_s} too large")
            break
    book_scatter, book_curve = book
    book_pieces = {row[2] for row in list(csv.reader(io.StringIO(book_curve)))[1:]}
    if not {"circle", "hyperbola", "modulus-balance"} <= book_pieces:
        problems.append(f"book curve pieces incomplete: {sorted(book_pieces)}")
    if len(book_scatter.splitlines()) < 10:
        problems.append("book scatter suspiciously small")
    return problems, (f"{len(scatter_rows) - 1} scatter rows, "
                      f"{len(curve_rows) - 1} curve rows, identical across "
                      f"runs; book export carries all three arcs")


ALL_CHECKS = (
    check_reference_real_roots,
    check_closed_vs_brute,
    check_recurrence_identities,
    check_equivalence_witnesses,
    check_real_root_counts,
    check_limit_curve_max_distance,
    check_limit_curve_tracer,
    check_corona_real_roots,
    check_integer_root_conjecture,
    check_parity_invariant,
    check_export_pipeline,
)


def run_all_checks() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]


def render_report(results: list[CheckResult]) -> str:
    # timings are deliberately omitted so identical runs render identically
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.name:<{width}}  {r.claim}")
        lines.append(f"       {'':<{width}}  -> {r.detail}")
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines)
