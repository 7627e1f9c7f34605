"""Command-line interface.

Subcommands: `poly` (compute polynomials by one or all methods with an
agreement verdict), `roots` (complex + certified real roots), `limits`
(limit curves and root scatters, with CSV/JSON export), `equiv`
(equal-polynomial classes over graph6 catalogs), `verify` (the full
verification suite).

Exit codes: 0 success, 1 verification failure, 2 malformed input,
3 enumeration budget exceeded, 4 computation paths disagree, 5 the
complex solver missed its residual tolerance.
Identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .domination import (
    BRUTE_FORCE_BUDGET_BITS,
    EnumerationBudgetError,
    _check_budget,
    book_family,
    brute_force_poly,
    family_poly,
    friendship_family,
    recurrence_poly_odot,
    recurrence_poly_vertex,
)
from .equivalence import _split_by_budget, bundled_catalog_text, partition_catalog
from .graphs import (
    FamilySpec,
    Graph,
    _decode_graph6,
    _validate_graph6,
    build_family,
)
from .polynomials import (
    DEFAULT_PRECISION,
    MIN_PRECISION,
    IntPolynomial,
    _unlimited_int_digits,
    terms_text,
)
from .roots import (
    ConvergenceError,
    RootSet,
    all_roots,
    default_tol,
    integer_roots,
    real_roots_exact,
)

if TYPE_CHECKING:
    from .limits import GridRegion

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_DISAGREE = 4
EXIT_NUMERIC = 5

MAX_RESOLUTION = 2000  # the tracer grid costs O(resolution^2)
# each analytic piece holds --samples points, and time, memory and file size
# grow linearly: at 10^5 a book JSON export takes 2.3 s, 147 MB peak RSS and
# writes 29 MB (2-core x86-64 VM, CPython 3.11; json.dump took 3.7 s that day)
MAX_SAMPLES = 100_000
_JSON_CHUNK = 4096  # pieces joined per write by _write_json


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite float > 0.  NaN would switch the
    residual gate off, since no comparison with it is true."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def _bounded_int(minimum: int, maximum: float = math.inf):
    """argparse type for an integer flag that must lie in [minimum, maximum],
    so a bad value exits 2 before any work starts."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {text!r}")
        if value > maximum:
            raise argparse.ArgumentTypeError(
                f"must be <= {maximum}, got {text!r}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _nstr(x: Fraction) -> str:
    """The dyadic x as mpmath.nstr(x, 20, strip_zeros=True) prints it: its
    digits floored from 86 bits as mpmath floors them, rounded up at a 21st
    digit of 5 or more, in fixed form for decimal exponents -5 to 19.  Where
    the binary exponent exceeds 3500 in size, mpmath first divides by a
    power of ten at 86 bits; here that division is exact."""
    if not x:
        return "0.0"
    n, d = abs(x.numerator), x.denominator
    lead = n.bit_length() - d.bit_length() + 1  # 2^(lead-1) <= |x| < 2^lead
    tens = 0 if abs(lead) <= 3500 else int(lead * math.log10(2))
    n, d = (n, d * 10 ** tens) if tens > 0 else (n * 10 ** -tens, d)
    fix = max(85 - n.bit_length() + d.bit_length(), 0)
    places = int(fix / math.log(10, 2) + 0.5)
    digits = str(((n << fix) // d * 10 ** places) >> fix)
    exponent = tens + len(digits) - places - 1
    if digits[20:21] >= "5":
        digits = str(int(digits[:20]) + 1)
        exponent += len(digits) > 20
    digits, split = digits[:20], 1
    if -6 < exponent < 20:
        digits, split, exponent = "0" * -exponent + digits, 1 + max(exponent, 0), 0
    text = (digits[:split] + "." + digits[split:]).rstrip("0")
    text += "0" if text.endswith(".") else ""
    return ("-" if x < 0 else "") + text + (f"e{exponent:+d}" if exponent else "")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after that.
    Each `parse_args` call returns a fresh namespace, so no option value
    carries over from one `main` call to the next."""
    parser = argparse.ArgumentParser(
        prog="dompoly",
        description="Exact domination polynomials, their roots, and root "
                    "limit curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(sp):
        sp.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
        sp.add_argument("--output", metavar="PATH",
                        help="write output here instead of stdout")

    def add_numeric(sp):
        sp.add_argument("--precision", type=_bounded_int(MIN_PRECISION),
                        default=DEFAULT_PRECISION,
                        help=f"working precision in bits (>= {MIN_PRECISION}; "
                             f"default {DEFAULT_PRECISION})")
        sp.add_argument("--tol", type=_tolerance, default=None,
                        help="residual tolerance for the complex solver "
                             "(default 1e-20, or 2^(8 - precision) when "
                             "larger)")

    def add_inputs(sp):
        group = sp.add_mutually_exclusive_group(required=True)
        group.add_argument("--family", metavar="NAME:N",
                           help="family member, e.g. friendship:4 or book:3")
        group.add_argument("--graph6", metavar="G6",
                           help="one graph6-encoded graph")
        group.add_argument("--graph6-file", metavar="PATH",
                           help="newline-delimited graph6 catalog")

    sp = sub.add_parser("poly", help="compute domination polynomials")
    add_inputs(sp)
    sp.add_argument("--method",
                    choices=("brute", "recurrence", "closed", "all"),
                    default=None,
                    help="computation path (default: closed for families, "
                         "brute for explicit graphs)")
    add_io(sp)
    sp.set_defaults(func=cmd_poly)

    sp = sub.add_parser("roots", help="complex and certified real roots")
    add_inputs(sp)
    sp.add_argument("--real-only", action="store_true",
                    help="exact real isolation only, skip the complex solver")
    add_numeric(sp)
    add_io(sp)
    sp.set_defaults(func=cmd_roots)

    sp = sub.add_parser("limits", help="limit curves and root scatters")
    sp.add_argument("--family", choices=("friendship", "book"), required=True)
    sp.add_argument("--n-max", type=_bounded_int(1), default=30,
                    help="compute roots of members 1..n-max (default 30)")
    sp.add_argument("--samples", type=_bounded_int(2, MAX_SAMPLES), default=513,
                    help=f"curve samples per piece (2 to {MAX_SAMPLES})")
    sp.add_argument("--method", choices=("analytic", "trace"),
                    default="analytic",
                    help="closed-form curve or generic equimodular tracer")
    sp.add_argument("--grid", metavar="REMIN:REMAX:IMMIN:IMMAX",
                    default="-4:2:-3:3", help="tracer region")
    sp.add_argument("--resolution", type=_bounded_int(2, MAX_RESOLUTION),
                    default=120,
                    help=f"tracer grid cells per axis (2 to {MAX_RESOLUTION})")
    sp.add_argument("--export", choices=("csv", "json"),
                    help="write scatter + curve data files")
    sp.add_argument("--output-dir", default=".",
                    help="directory for exported files")
    add_numeric(sp)
    sp.set_defaults(func=cmd_limits)

    sp = sub.add_parser("equiv", help="equal-polynomial classes of a catalog")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--catalog", metavar="PATH",
                       help="graph6 catalog file")
    group.add_argument("--order", type=int,
                       help="bundled catalog of all graphs of this order (1..6)")
    add_io(sp)
    sp.set_defaults(func=cmd_equiv)

    sp = sub.add_parser("verify", help="run the full verification suite")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _unlimited_int_digits():  # exact coefficients print at any size
            return args.func(args)
    except EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def _emit(args, text: str) -> None:
    with _output(args) as fh:
        fh.write(text)


def _write_csv(fh, header, rows) -> None:
    """Write the header and rows to fh as csv.writer's default dialect does
    with "\n" line ends: a field holding a comma, a quote or a line break
    goes in quotes, its quotes doubled.  Each field goes straight to fh, as
    it is: csv.writer would first copy a whole row into a buffer of four
    bytes a character, and a polynomial's coefficients are one field."""
    write = fh.write
    for row in itertools.chain([header], rows):
        sep = ""
        for value in row:
            text = str(value)
            if "," in text or '"' in text or "\n" in text or "\r" in text:
                write(sep + '"')
                write(text.replace('"', '""'))
                write('"')
            else:
                write(sep)
                write(text)
            sep = ","
        write("\n")


class _Verbatim(str):
    """A JSON string value with nothing to escape, such as a coefficient
    list or a polynomial's text, which `_write_json` writes as it is."""


def _write_json(fh, obj) -> None:
    """Write to fh what json.dumps(obj, indent=2) + "\n" would.

    Dicts and lists are laid out here, each string quoted by json's C
    escaper, and a `_Verbatim` string is passed to fh.write itself, with no
    copy.  The pieces are joined and written every _JSON_CHUNK pieces, so
    the document is never built in memory whole.
    """
    quote = json.encoder.encode_basestring_ascii
    buf = []

    def flush(tail: str = "") -> None:
        fh.write("".join(buf) + tail)
        buf.clear()

    def value(v, indent: str) -> None:
        # a str item is quoted in its container's loop, one call fewer
        if isinstance(v, dict) and v:
            inner = indent + "  "
            sep, comma = "{\n" + inner, ",\n" + inner
            for key, item in v.items():  # quote raises TypeError on a non-str key
                buf.append(sep + quote(key) + ": ")
                if type(item) is str:
                    buf.append(quote(item))
                else:
                    value(item, inner)
                if len(buf) >= _JSON_CHUNK:
                    flush()
                sep = comma
            buf.append("\n" + indent + "}")
        elif isinstance(v, list) and v:
            inner = indent + "  "
            sep, comma = "[\n" + inner, ",\n" + inner
            for item in v:
                buf.append(sep)
                if type(item) is str:
                    buf.append(quote(item))
                else:
                    value(item, inner)
                if len(buf) >= _JSON_CHUNK:
                    flush()
                sep = comma
            buf.append("\n" + indent + "]")
        elif isinstance(v, _Verbatim):
            flush('"')
            fh.write(v)
            buf.append('"')
        else:  # a scalar or an empty container, on one line
            buf.append(json.dumps(v))

    try:
        value(obj, "")
    finally:
        del value  # a closure over itself: the cycle would keep fh and buf alive
    flush("\n")


@contextlib.contextmanager
def _output(args):
    """The --output file, opened for writing, or else stdout."""
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _read_graph6(path: str) -> list[str]:
    """The lines of a graph6 file, stripped, blank lines left out."""
    with open(path, "r", encoding="ascii") as fh:
        return [line for line in map(str.strip, fh) if line]


def _resolve_inputs(args) -> list[tuple[str, FamilySpec | None, Graph | None]]:
    """The jobs of a poly or roots request.  graph6 lines are all checked
    before any is decoded, and each vertex count is held to the enumeration
    budget in between: every parse error comes before any budget error, and
    an over-budget line is never decoded."""
    if args.family:
        spec = FamilySpec.parse(args.family)
        return [(str(spec), spec, None)]
    if args.graph6:
        lines = [args.graph6]
    else:
        lines = _read_graph6(args.graph6_file)
        if not lines:
            raise ValueError(f"no graphs in {args.graph6_file}")
    checked = [_validate_graph6(line) for line in lines]
    for _, n, _ in checked:
        _check_budget(n)
    # the label drops the line breaks that _validate_graph6 drops
    return [(line.rstrip("\r\n"), None, _decode_graph6(*c))
            for line, c in zip(lines, checked)]


# -- poly -------------------------------------------------------------------


def _poly_methods(label: str, spec: FamilySpec | None, graph: Graph | None,
                  method: str | None) -> dict[str, IntPolynomial]:
    method = method or ("closed" if spec else "brute")
    out: dict[str, IntPolynomial] = {}
    if method in ("closed", "all") and spec is not None:
        out["closed"] = family_poly(spec)
    if method in ("brute", "recurrence", "all"):
        g = graph
        if g is None:
            if spec.order > BRUTE_FORCE_BUDGET_BITS:
                raise EnumerationBudgetError(
                    f"{label}: method {method!r} needs enumeration, but "
                    f"{spec.order} vertices exceeds the 2^"
                    f"{BRUTE_FORCE_BUDGET_BITS} subset budget; "
                    f"use --method closed")
            g = build_family(spec)
        if method in ("brute", "all"):
            out["brute"] = brute_force_poly(g)
        if method in ("recurrence", "all"):
            out["recurrence-vertex"] = recurrence_poly_vertex(g, 0)
            out["recurrence-odot"] = recurrence_poly_odot(g, 0)
    return out


def cmd_poly(args) -> int:
    if args.method == "closed" and not args.family:
        raise ValueError("no closed form for an explicit graph; "
                         "use --method brute")
    jobs = _resolve_inputs(args)
    results = []
    any_disagree = False
    for label, spec, graph in jobs:
        polys = _poly_methods(label, spec, graph, args.method)
        verdict = "AGREE" if len(set(polys.values())) == 1 else "DISAGREE"
        if verdict == "DISAGREE":
            any_disagree = True
        results.append((label, polys, verdict))

    if args.format == "json":
        payload = [{
            "input": label,
            "polynomials": {
                name: _poly_json(p) for name, p in polys.items()
            },
            "verdict": verdict,
        } for label, polys, verdict in results]
        with _output(args) as fh:
            _write_json(fh, payload)
    elif args.format == "csv":
        with _output(args) as fh:
            _write_csv(fh, ["input", "method", "degree", "coefficients"], (
                [label, name, p.degree, p.to_coeff_string()]
                for label, polys, _ in results for name, p in polys.items()))
    else:
        lines = []
        for label, polys, verdict in results:
            lines.append(f"# {label}")
            for name, p in polys.items():
                lines.append(f"{name}: {p}")
            if len(polys) > 1:
                lines.append(f"verdict: {verdict}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_DISAGREE if any_disagree else EXIT_OK


def _poly_json(p: IntPolynomial) -> dict[str, str]:
    digits = [str(c) for c in p.coeffs]
    return {"coefficients": _Verbatim(",".join(digits)),
            "text": _Verbatim(terms_text(p.coeffs, digits))}


# -- roots ------------------------------------------------------------------


def _root_rows(root_set: RootSet) -> list[list[str]]:
    """(re, im, residual) rows, one per root counted with multiplicity."""
    rows = [["0", "0", "0"]] * root_set.zero_multiplicity
    for r in root_set.complex_roots:
        rows += [[_nstr(r.re), _nstr(r.im), repr(r.residual)]] * r.multiplicity
    return rows


def cmd_roots(args) -> int:
    precision = args.precision
    tol = default_tol(precision) if args.tol is None else args.tol
    jobs = _resolve_inputs(args)
    reports = []
    for label, spec, graph in jobs:
        poly = family_poly(spec) if spec else brute_force_poly(graph)
        if args.real_only:
            reports.append((label, poly, real_roots_exact(poly),
                            integer_roots(poly), None))
            continue
        if poly.degree < 1:
            # a constant, such as D(K0) = 1, has no roots to solve for
            root_set = RootSet(poly.degree, 0, (), (), ())
        else:
            root_set = all_roots(poly, precision, tol)
        # RootSet leaves the exact root 0 out of its real intervals
        zero = [(Fraction(0), Fraction(0))] if root_set.zero_multiplicity else []
        intervals = sorted([*root_set.real_intervals, *zero], key=lambda iv: iv[0])
        reports.append((label, poly, intervals, list(root_set.integer_roots),
                        root_set))

    if args.format == "json":
        payload = []
        for label, poly, intervals, ints, root_set in reports:
            entry = {
                "input": label,
                "polynomial": _Verbatim(poly.to_coeff_string()),
                "precision_bits": precision,
                "tolerance": repr(tol),
                "integer_roots": ints,
                "real_roots": [{
                    "lo": str(lo), "hi": str(hi),
                    "value": f"{float((lo + hi) / 2):.10g}",
                } for lo, hi in intervals],
            }
            if root_set is not None:
                entry["zero_multiplicity"] = root_set.zero_multiplicity
                entry["complex_roots"] = [{
                    "re": _nstr(r.re), "im": _nstr(r.im),
                    "residual": repr(r.residual),
                    "multiplicity": r.multiplicity,
                } for r in root_set.complex_roots]
            payload.append(entry)
        with _output(args) as fh:
            _write_json(fh, payload)
    elif args.format == "csv":
        rows = []
        for label, poly, intervals, ints, root_set in reports:
            if root_set is None:
                rows += [[f"{float((lo + hi) / 2):.10g}", "0", repr(float(hi - lo))]
                         for lo, hi in intervals]
            else:
                rows += _root_rows(root_set)
        with _output(args) as fh:
            _write_csv(fh, ["re", "im", "residual"], rows)
    else:
        lines = []
        for label, poly, intervals, ints, root_set in reports:
            lines.append(f"# {label}")
            lines.append(f"polynomial: {poly}")
            lines.append(f"integer roots: "
                         f"{', '.join(map(str, ints)) if ints else '(none)'}")
            lines.append("real roots (exact isolation):")
            for lo, hi in intervals:
                mid = f"{float((lo + hi) / 2):.10g}"
                if lo == hi:
                    lines.append(f"  {mid}  (exact {lo})")
                else:
                    lines.append(f"  {mid}  in ({lo}, {hi})")
            if root_set is not None:
                lines.append(f"zero multiplicity: {root_set.zero_multiplicity}")
                lines.append("complex roots (re, im, residual, multiplicity):")
                for r in root_set.complex_roots:
                    lines.append(
                        f"  {_nstr(r.re)}  {_nstr(r.im)}  "
                        f"{r.residual:.3e}  {r.multiplicity}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


# -- limits -----------------------------------------------------------------


def _parse_grid(text: str, resolution: int) -> GridRegion:
    from .limits import GridRegion

    try:
        re_min, re_max, im_min, im_max = (float(p) for p in text.split(":"))
    except ValueError:
        raise ValueError(f"grid {text!r} must be REMIN:REMAX:IMMIN:IMMAX") from None
    return GridRegion(re_min, re_max, im_min, im_max, resolution, resolution)


def _limit_curve(family: str, method: str, samples: int, grid: GridRegion):
    # imported on call, so that the other commands start without numpy
    from .limits import bkw_limit_points, book_limit_curve, friendship_limit_curve

    if method == "analytic":
        if family == "friendship":
            return friendship_limit_curve(samples=samples)
        return book_limit_curve(samples=samples)
    fam = friendship_family() if family == "friendship" else book_family()
    return bkw_limit_points(fam, grid)


def _scatter_rows(family: str, n_max: int, precision: int, tol: float):
    """(re, im, residual) rows for all roots of members 1..n_max, plus the
    per-member maximum modulus (exploratory growth data)."""
    rows = []
    max_modulus = []
    for n in range(1, n_max + 1):
        root_set = all_roots(family_poly(FamilySpec(family, n)), precision, tol)
        rows += _root_rows(root_set)
        moduli = [abs(complex(r)) for r in root_set.complex_roots]
        max_modulus.append((n, max(moduli, default=0.0)))
    return rows, max_modulus


def cmd_limits(args) -> int:
    precision = args.precision
    tol = default_tol(precision) if args.tol is None else args.tol
    grid = _parse_grid(args.grid, args.resolution)
    rows, max_modulus = _scatter_rows(args.family, args.n_max, precision, tol)
    lines = [f"# {args.family} family, members 1..{args.n_max}"]
    if args.export:
        curve = _limit_curve(args.family, args.method, args.samples, grid)
        os.makedirs(args.output_dir, exist_ok=True)
    if args.export == "csv":
        scatter_path = os.path.join(args.output_dir,
                                    f"{args.family}_scatter.csv")
        curve_path = os.path.join(args.output_dir, f"{args.family}_curve.csv")
        with open(scatter_path, "w", encoding="utf-8") as fh:
            _write_csv(fh, ["re", "im", "residual"], rows)
        with open(curve_path, "w", encoding="utf-8") as fh:
            _write_csv(fh, ["re", "im", "piece"], itertools.chain(
                ([repr(z.real), repr(z.imag), piece.implicit_id]
                 for piece in curve.pieces for z in piece.points),
                ([repr(z.real), repr(z.imag), "isolated"]
                 for z in curve.isolated_points)))
        lines.append(f"wrote {scatter_path}")
        lines.append(f"wrote {curve_path}")
    elif args.export == "json":
        payload = {
            "family": args.family,
            "n_max": args.n_max,
            "precision_bits": precision,
            "tolerance": repr(tol),
            "scatter": [{"re": r, "im": i, "residual": res}
                        for r, i, res in rows],
            "curve": [{
                "piece": piece.implicit_id,
                "re_window": [repr(piece.re_window[0]), repr(piece.re_window[1])],
                "points": [{"re": repr(z.real), "im": repr(z.imag)}
                           for z in piece.points],
            } for piece in curve.pieces],
            "isolated_points": [{"re": repr(z.real), "im": repr(z.imag)}
                                for z in curve.isolated_points],
        }
        path = os.path.join(args.output_dir, f"{args.family}_limits.json")
        with open(path, "w", encoding="utf-8") as fh:
            _write_json(fh, payload)
        lines.append(f"wrote {path}")
    lines.append("max root modulus by member (exploratory growth data):")
    for n, biggest in max_modulus:
        lines.append(f"  n={n}: {biggest:.6f}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


# -- equiv ------------------------------------------------------------------


def cmd_equiv(args) -> int:
    # a bundled catalog has one graph6 line per line and no blank lines
    ids = (_read_graph6(args.catalog) if args.catalog
           else bundled_catalog_text(args.order).split())
    # every line is checked before any is decoded, and a line over the
    # budget is skipped by its header, as partition_catalog skips a graph
    checked = [_validate_graph6(line) for line in ids]
    kept, skipped = _split_by_budget(zip(ids, checked), [n for _, n, _ in checked])
    report = dataclasses.replace(
        partition_catalog([_decode_graph6(*c) for _, c in kept],
                          [gid for gid, _ in kept]),
        skipped=tuple(skipped))

    if args.format == "json":
        payload = {
            "graph_count": report.graph_count,
            "class_count": report.class_count,
            "singleton_count": report.singleton_count,
            "non_unique_count": report.non_unique_count,
            "classes": [{"polynomial": poly, "graphs": list(members)}
                        for poly, members in report.classes.items()],
            "witness_pairs": [{
                "a": w.graph_a, "b": w.graph_b,
                "certificate": {
                    "kind": w.certificate.kind,
                    "a": list(w.certificate.detail_a),
                    "b": list(w.certificate.detail_b),
                },
            } for w in report.witness_pairs],
            "skipped": [list(item) for item in report.skipped],
        }
        with _output(args) as fh:
            _write_json(fh, payload)
    elif args.format == "csv":
        per_order: dict[int, list[int]] = {}
        for poly, members in report.classes.items():
            order = len(poly.split(",")) - 1
            stats = per_order.setdefault(order, [0, 0, 0])
            stats[0] += len(members)
            stats[1] += 1
            if len(members) > 1:
                stats[2] += len(members)
        rows = [[order, *stats] for order, stats in sorted(per_order.items())]
        with _output(args) as fh:
            _write_csv(fh, ["order", "graphs", "classes", "non_unique"], rows)
    else:
        lines = [
            f"graphs: {report.graph_count}",
            f"classes: {report.class_count}",
            f"singletons: {report.singleton_count}",
            f"non-unique graphs: {report.non_unique_count}",
        ]
        for poly, members in report.classes.items():
            if len(members) > 1:
                lines.append(f"class {poly}: {' '.join(members)}")
        for w in report.witness_pairs:
            cert = w.certificate
            body = (f"{cert.kind} {list(cert.detail_a)} vs {list(cert.detail_b)}"
                    if cert.available else "certificate unavailable")
            lines.append(f"witness {w.graph_a} ~ {w.graph_b}: {body}")
        for gid, reason in report.skipped:
            lines.append(f"skipped {gid}: {reason}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


# -- verify -----------------------------------------------------------------


def cmd_verify(args) -> int:
    from .verification import render_report, run_all_checks

    results = run_all_checks()
    print(render_report(results))
    failing = [r for r in results if not r.passed]
    if failing:
        print(f"first failing check: {failing[0].name}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
