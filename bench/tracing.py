"""Spans around dompoly's public functions, recorded from outside the program.

`installed(tracer)` replaces each traced function at every binding site: the
defining module and every dompoly module that imported it by name (cli
imports `all_roots` by name, so patching `dompoly.roots` alone would miss
that call).  Spans are kept in memory as (name, parent, start, end) and
written out at the end; a span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
from collections import defaultdict
from time import perf_counter

MODULES = ("dompoly", "dompoly.cli", "dompoly.domination", "dompoly.equivalence",
           "dompoly.graphs", "dompoly.limits", "dompoly.polynomials",
           "dompoly.roots", "dompoly.verification")

GRAPH_OPS = ("build_family", "delete_vertex", "delete_closed_neighborhood",
             "contract", "odot")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, float, float] | None] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.recording = False
        self._wrappers: dict = {}

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        """`fn` recording a span named `name` while the tracer is recording.

        on_result(tracer, args, result) and on_error(tracer, exc) record
        counts after the span has closed, so their cost is not in it.
        """
        if (name, fn) in self._wrappers:
            return self._wrappers[name, fn]
        self.names.append(name)
        name_id = len(self.names) - 1

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(index, name_id, parent, start)
                if on_error:
                    on_error(self, exc)
                raise
            self._close(index, name_id, parent, start)
            if on_result:
                on_result(self, args, result)
            return result

        traced.__wrapped__ = fn
        self._wrappers[name, fn] = traced
        return traced

    def _close(self, index, name_id, parent, start):
        end = perf_counter()
        self.stack.pop()
        self.spans[index] = (name_id, parent, start, end)

    def span_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, and total seconds counted
        once for spans nested inside a span of the same name."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name_id, parent, start, end in spans:
            if parent >= 0:
                covered[parent] += end - start
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for index, (name_id, parent, start, end) in enumerate(spans):
            name = self.names[name_id]
            entry = stats[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - covered[index]
            ancestor = parent
            while ancestor >= 0 and self.names[spans[ancestor][0]] != name:
                ancestor = spans[ancestor][1]
            if ancestor < 0:
                entry["total_s"] += end - start
        return stats

    def write_spans(self, path: str) -> None:
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "parent", "name", "start_s", "end_s"])
            for index, (name_id, parent, start, end) in enumerate(self.spans):
                writer.writerow([index, parent, self.names[name_id],
                                 f"{start - origin:.9f}", f"{end - origin:.9f}"])


# -- counts recorded at the span boundaries ----------------------------------------


def _coeff_bits(tracer, args, result):
    bits = max((abs(c).bit_length() for c in result.coeffs), default=0)
    tracer.counts["polynomials.max_coeff_bits"] = max(
        tracer.counts["polynomials.max_coeff_bits"], bits)


def _subsets(tracer, args, result):
    tracer.counts["domination.subsets_enumerated"] += 2 ** args[0].n
    tracer.counts["domination.dominating_sets"] += sum(result.coeffs)


def _solved(tracer, args, result):
    # one distinct root per degree of each square-free factor
    tracer.counts["roots.solved_degree_sum"] += len(result.complex_roots)


def _convergence_error(tracer, exc):
    from dompoly.roots import ConvergenceError

    if isinstance(exc, ConvergenceError):
        tracer.counts["roots.convergence_errors"] += 1


def _witnesses(tracer, args, result):
    tracer.counts["equivalence.witness_pairs"] += len(result.witness_pairs)


# (module, attribute, span name, on_result, on_error) per traced function
TARGETS = (
    ("dompoly.cli", "main", "cli.main", None, None),
    ("dompoly.graphs", "parse_graph6", "graphs.parse_graph6", None, None),
    *(("dompoly.graphs", op, f"graphs.{op}", None, None) for op in GRAPH_OPS),
    ("dompoly.polynomials", "pseudo_rem", "polynomials.pseudo_rem", _coeff_bits, None),
    ("dompoly.polynomials", "poly_gcd", "polynomials.poly_gcd", None, None),
    ("dompoly.polynomials", "exact_div", "polynomials.exact_div", None, None),
    ("dompoly.domination", "family_poly", "domination.family_poly", None, None),
    ("dompoly.domination", "brute_force_poly", "domination.brute_force_poly", _subsets, None),
    ("dompoly.domination", "recurrence_poly_vertex", "domination.recurrence", None, None),
    ("dompoly.domination", "recurrence_poly_odot", "domination.recurrence", None, None),
    ("dompoly.roots", "all_roots", "roots.all_roots", _solved, _convergence_error),
    ("dompoly.roots", "square_free_decomposition", "roots.square_free_decomposition", None, None),
    ("dompoly.roots", "real_roots_exact", "roots.real_roots_exact", None, None),
    ("dompoly.roots", "sturm_chain", "roots.sturm_chain", None, None),
    ("dompoly.roots", "integer_roots", "roots.integer_roots", None, None),
    ("dompoly.limits", "bkw_limit_points", "limits.bkw_limit_points", None, None),
    ("dompoly.limits", "friendship_limit_curve", "limits.analytic_curve", None, None),
    ("dompoly.limits", "book_limit_curve", "limits.analytic_curve", None, None),
    ("dompoly.limits", "distance_to_curve", "limits.distance_to_curve", None, None),
    ("dompoly.equivalence", "partition_catalog", "equivalence.partition_catalog", _witnesses, None),
)


# IntPolynomial methods: (attribute, span name)
METHODS = (("__mul__", "polynomials.mul"), ("__rmul__", "polynomials.mul"),
           ("__pow__", "polynomials.pow"), ("eval_complex", "polynomials.eval_complex"))


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced function at every binding site; restore on exit."""
    modules = [importlib.import_module(name) for name in MODULES]
    restore: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, span, on_result, on_error in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = tracer.wrap(span, original, on_result, on_error)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        restore.append((module, key, value))
                        setattr(module, key, wrapper)
        cls = importlib.import_module("dompoly.polynomials").IntPolynomial
        for attr, span in METHODS:
            original = cls.__dict__[attr]
            restore.append((cls, attr, original))
            setattr(cls, attr, tracer.wrap(span, original))
        yield tracer
    finally:
        for owner, key, value in reversed(restore):
            setattr(owner, key, value)


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, float]:
    """The per-layer metrics, by name, from the recorded spans and counts."""
    stats = tracer.span_stats()

    def s(name, field):
        return stats[name][field] if name in stats else 0.0

    counts = tracer.counts
    subsets = counts["domination.subsets_enumerated"]
    return {
        "cli.self_s": s("cli.main", "self_s"),
        "graphs.parse_graph6.calls": s("graphs.parse_graph6", "calls"),
        "graphs.parse_graph6.self_s": s("graphs.parse_graph6", "self_s"),
        "graphs.ops.self_s": sum(s(f"graphs.{op}", "self_s") for op in GRAPH_OPS),
        "polynomials.mul.calls": s("polynomials.mul", "calls"),
        "polynomials.mul.self_s": s("polynomials.mul", "self_s"),
        "polynomials.pow.total_s": s("polynomials.pow", "total_s"),
        "polynomials.pseudo_rem.calls": s("polynomials.pseudo_rem", "calls"),
        "polynomials.pseudo_rem.self_s": s("polynomials.pseudo_rem", "self_s"),
        "polynomials.poly_gcd.total_s": s("polynomials.poly_gcd", "total_s"),
        "polynomials.exact_div.self_s": s("polynomials.exact_div", "self_s"),
        "polynomials.max_coeff_bits": counts["polynomials.max_coeff_bits"],
        "polynomials.eval_complex.self_s": s("polynomials.eval_complex", "self_s"),
        "domination.family_poly.total_s": s("domination.family_poly", "total_s"),
        "domination.brute_force_poly.calls": s("domination.brute_force_poly", "calls"),
        "domination.brute_force_poly.self_s": s("domination.brute_force_poly", "self_s"),
        "domination.recurrence.total_s": s("domination.recurrence", "total_s"),
        "domination.subsets_enumerated": subsets,
        "domination.dominating_ratio":
            counts["domination.dominating_sets"] / subsets if subsets else 0.0,
        "roots.all_roots.calls": s("roots.all_roots", "calls"),
        "roots.all_roots.self_s": s("roots.all_roots", "self_s"),
        "roots.solved_degree_sum": counts["roots.solved_degree_sum"],
        "roots.square_free_decomposition.total_s": s("roots.square_free_decomposition", "total_s"),
        "roots.convergence_errors": counts["roots.convergence_errors"],
        "roots.real_roots_exact.calls": s("roots.real_roots_exact", "calls"),
        "roots.real_roots_exact.total_s": s("roots.real_roots_exact", "total_s"),
        "roots.sturm_chain.total_s": s("roots.sturm_chain", "total_s"),
        "roots.integer_roots.total_s": s("roots.integer_roots", "total_s"),
        "limits.bkw_limit_points.self_s": s("limits.bkw_limit_points", "self_s"),
        "limits.analytic_curve.total_s": s("limits.analytic_curve", "total_s"),
        "limits.distance_to_curve.calls": s("limits.distance_to_curve", "calls"),
        "limits.distance_to_curve.self_s": s("limits.distance_to_curve", "self_s"),
        "equivalence.partition_catalog.self_s": s("equivalence.partition_catalog", "self_s"),
        "equivalence.witness_pairs": counts["equivalence.witness_pairs"],
        "trace.overhead_ratio": overhead_ratio,
    }
