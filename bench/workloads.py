"""The four workloads.  Each yields decks: a deck is one shuffled round of
requests with one request per stratum (request kind x parameter band).  The
seed picks each parameter inside its band, stratified across the decks of a
run (gen.Stratified), so every run sends about the same mix whatever the
seed, which keeps the spread between seeds small, while the inputs
themselves still come from the seed.

A request is one in-process call into a public entry point: `dompoly.cli.main`
with stdout and stderr captured, or a public library function where the CLI
has no entry.  Entry points are looked up at call time, so a traced run sees
the wrapped functions.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Iterator

import checks
import gen

import dompoly.cli
import dompoly.limits
from dompoly.domination import brute_force_poly
from dompoly.graphs import Graph


@dataclass
class Request:
    label: str
    run: Callable[[], object]  # the timed call
    check: Callable[[object], None]  # raises on a wrong output


@dataclass
class Context:
    """What requests share within one benchmark process."""

    workdir: str
    brute_cache: dict = field(default_factory=dict)

    def brute(self, kind: str, n: int) -> list[int]:
        """Brute-force reference coefficients of a separately built graph."""
        if (kind, n) not in self.brute_cache:
            order, edges = gen.family_edges(kind, n)
            self.brute_cache[kind, n] = list(brute_force_poly(Graph(order, edges)).coeffs)
        return self.brute_cache[kind, n]


def invoke(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = dompoly.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    if code != 0:
        raise checks.CheckFailed(f"exit {code}: {err.getvalue().strip()[:200]}")
    return code, out.getvalue()


def cli_request(label: str, argv: list[str], check: Callable[[str], None]) -> Request:
    return Request(label, lambda: invoke(argv), lambda result: check(result[1]))


def cli_name(kind: str) -> str:
    return kind.replace("_", "-")


# -- roots-solve -------------------------------------------------------------------

SMALL_FAMILIES = ("friendship", "book", "book_contracted")  # every n in 4..9
LARGE_FAMILIES = ("cycle", "path", "star", "complete")  # one n per band of 8..20
LARGE_BANDS = ((8, 10), (11, 13), (14, 16), (17, 20))


def roots_solve(rng: random.Random, ctx: Context) -> Iterator[list[Request]]:
    bands = [(kind, gen.Stratified(rng, lo, hi, 3))
             for kind in LARGE_FAMILIES for lo, hi in LARGE_BANDS]
    while True:
        specs = [(kind, n) for kind in SMALL_FAMILIES for n in range(4, 10)]
        specs += [(kind, band.draw()) for kind, band in bands]
        deck = []
        for kind, n in specs:
            argv = ["roots", "--family", f"{cli_name(kind)}:{n}", "--format", "json"]
            deck.append(cli_request(
                f"roots {kind}:{n}", argv,
                lambda out, kind=kind, n=n: checks.check_roots(out, kind, n, ctx.brute, False)))
        rng.shuffle(deck)
        yield deck


# -- exact-closed ------------------------------------------------------------------

# friendship and book stop at n = 800: above that one request takes 1.5-6 s,
# and a run of at least 100 requests would not fit the run-time limit.
POLY_BANDS = {
    "friendship": ((500, 599), (600, 699), (700, 800)),
    "book": ((500, 599), (600, 699), (700, 800)),
    "complete": ((500, 833), (834, 1166), (1167, 1500)),
    "star": ((500, 833), (834, 1166), (1167, 1500)),
    "cycle": ((300, 499), (500, 699), (700, 900)),
    "path": ((300, 449), (450, 599), (600, 749), (750, 900)),
}
REAL_ONLY_BANDS = {
    "friendship": ((60, 79), (80, 100)),
    "book": ((30, 39), (40, 50)),
    "cycle": ((100, 124), (125, 150)),
}


def _check_poly_json(out: str, kind: str, n: int, ctx: Context) -> None:
    payload = json.loads(out)
    checks.require(len(payload) == 1, "expected one result")
    coeffs = checks.parse_coeffs(payload[0]["polynomials"]["closed"]["coefficients"])
    checks.check_family_poly(coeffs, kind, n, ctx.brute)


def exact_closed(rng: random.Random, ctx: Context) -> Iterator[list[Request]]:
    poly = [(kind, gen.Stratified(rng, lo, hi, 4))
            for kind, bands in POLY_BANDS.items() for lo, hi in bands]
    real = [(kind, gen.Stratified(rng, lo, hi, 4))
            for kind, bands in REAL_ONLY_BANDS.items() for lo, hi in bands]
    while True:
        deck = []
        for kind, band in poly:
            n = band.draw()
            deck.append(cli_request(
                f"poly {kind}:{n}",
                ["poly", "--family", f"{kind}:{n}", "--format", "json"],
                lambda out, kind=kind, n=n: _check_poly_json(out, kind, n, ctx)))
        for kind, band in real:
            n = band.draw()
            deck.append(cli_request(
                f"roots --real-only {kind}:{n}",
                ["roots", "--family", f"{kind}:{n}", "--real-only", "--format", "json"],
                lambda out, kind=kind, n=n: checks.check_roots(out, kind, n, ctx.brute, True)))
        rng.shuffle(deck)
        yield deck


# -- graphs-enumerate --------------------------------------------------------------

GRAPH_ORDERS = range(14, 25)  # one random graph per order
CATALOGS_PER_DECK = 2
CATALOG_SIZE = 300
ORDER6_PER_DECK = 2


def graphs_enumerate(rng: random.Random, ctx: Context) -> Iterator[list[Request]]:
    densities = {n: gen.Stratified(rng, 0.15, 0.5, 3) for n in GRAPH_ORDERS}
    while True:
        deck = []
        for n in GRAPH_ORDERS:
            edges = gen.random_edges(rng, n, densities[n].draw())
            non_isolated = len({v for edge in edges for v in edge})
            deck.append(cli_request(
                f"poly --method all n={n}",
                ["poly", "--graph6", gen.graph6(n, edges), "--method", "all"],
                lambda out, n=n, k=non_isolated: checks.check_graph_all_methods(out, n, k)))
        for _ in range(CATALOGS_PER_DECK):
            lines, planted = gen.catalog(rng, CATALOG_SIZE)
            fd, path = tempfile.mkstemp(suffix=".g6", dir=ctx.workdir)
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                fh.write("\n".join(lines) + "\n")
            deck.append(cli_request(
                "equiv --catalog", ["equiv", "--catalog", path, "--format", "json"],
                lambda out, lines=lines, planted=planted:
                    checks.check_equiv_catalog(out, lines, planted)))
        for _ in range(ORDER6_PER_DECK):
            deck.append(cli_request("equiv --order 6", ["equiv", "--order", "6"],
                                    checks.check_equiv_order6))
        rng.shuffle(deck)
        yield deck


# -- limits-trace ------------------------------------------------------------------

RESOLUTION_BANDS = ((100, 149), (150, 200))
DISTANCE_BATCHES = ("friendship", "friendship", "book", "book")
QUERIES_PER_BATCH = 12
CURVE_SAMPLES = 4001


def _grid(rng: random.Random) -> str:
    im = rng.uniform(2.5, 3.5)
    return (f"{rng.uniform(-4.5, -3.5):.3f}:{rng.uniform(1.5, 2.5):.3f}:"
            f"{-im:.3f}:{im:.3f}")


def _read_limits(family: str, export: str, outdir: str):
    """(scatter rows, curve (piece, z) pairs, isolated points) from the
    exported files, which are removed once read."""
    if export == "csv":
        paths = [os.path.join(outdir, f"{family}_scatter.csv"),
                 os.path.join(outdir, f"{family}_curve.csv")]
        with open(paths[0], encoding="utf-8") as fh:
            scatter = list(csv.reader(fh))[1:]
        with open(paths[1], encoding="utf-8") as fh:
            rows = [(complex(float(re), float(im)), piece)
                    for re, im, piece in list(csv.reader(fh))[1:]]
        curve = [(piece, z) for z, piece in rows if piece != "isolated"]
        isolated = [z for z, piece in rows if piece == "isolated"]
    else:
        paths = [os.path.join(outdir, f"{family}_limits.json")]
        with open(paths[0], encoding="utf-8") as fh:
            payload = json.load(fh)
        scatter = [(r["re"], r["im"], r["residual"]) for r in payload["scatter"]]
        curve = [(piece["piece"], complex(float(p["re"]), float(p["im"])))
                 for piece in payload["curve"] for p in piece["points"]]
        isolated = [complex(float(p["re"]), float(p["im"])) for p in payload["isolated_points"]]
    for path in paths:
        os.remove(path)
    return scatter, curve, isolated


def _distance_batch(family: str, points: list[complex]) -> list[float]:
    limits = dompoly.limits
    make = limits.friendship_limit_curve if family == "friendship" else limits.book_limit_curve
    curve = make(samples=CURVE_SAMPLES)
    return [limits.distance_to_curve(z, curve) for z in points]


def limits_trace(rng: random.Random, ctx: Context) -> Iterator[list[Request]]:
    outdir = ctx.workdir
    slots = [(family, export, gen.Stratified(rng, lo, hi, 3))
             for family in ("friendship", "book") for export in ("csv", "json")
             for lo, hi in RESOLUTION_BANDS]
    spare_n_max = {family: gen.Stratified(rng, 1, 3, 3) for family in ("friendship", "book")}
    while True:
        deck = []
        n_maxes = {}
        for family, draw in spare_n_max.items():
            n_maxes[family] = [1, 2, 3, draw.draw()]  # one per slot of the family
            rng.shuffle(n_maxes[family])
        for family, export, resolution in slots:
            n_max = n_maxes[family].pop()
            argv = ["limits", "--family", family, "--method", "trace",
                    f"--grid={_grid(rng)}", "--resolution", str(resolution.draw()),
                    "--n-max", str(n_max), "--export", export, "--output-dir", outdir]

            def check(out, family=family, export=export, n_max=n_max):
                checks.check_limits(family, n_max, out, *_read_limits(family, export, outdir))

            deck.append(cli_request(f"limits {family} {export}", argv, check))
        for family in DISTANCE_BATCHES:
            queries = checks.curve_queries(rng, family, QUERIES_PER_BATCH)
            points = [z for z, _ in queries]
            expected = [d for _, d in queries]
            deck.append(Request(
                f"distance_to_curve {family}",
                lambda family=family, points=points: _distance_batch(family, points),
                lambda got, expected=expected: checks.check_distances(got, expected)))
        rng.shuffle(deck)
        yield deck


@dataclass(frozen=True)
class Workload:
    name: str
    decks: Callable[[random.Random, Context], Iterator[list[Request]]]
    trace_decks: int  # decks per pass of a traced run


WORKLOADS = {w.name: w for w in (
    Workload("roots-solve", roots_solve, 1),
    Workload("exact-closed", exact_closed, 1),
    Workload("graphs-enumerate", graphs_enumerate, 4),
    Workload("limits-trace", limits_trace, 3),
)}
