"""Output checks.  Each rests on a fact that does not come from the code
path under test: a closed formula or a linear recurrence evaluated in plain
Python ints, brute force on a separately built graph, a property of the
generated input, or the agreement of two independent solvers.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction

from gen import family_order

REAL_TOL = 1e-10  # |Im z| below this counts as a real root
MATCH_TOL = 1e-6  # Sturm midpoint to Aberth root
CURVE_TOL = 1e-6  # traced point to the analytic curve
DISTANCE_TOL = 1e-3  # polyline distance to the exact normal offset
SOLVER_TOL = 1e-20  # dompoly's default --tol
EVAL_POINTS = (2, -3)


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- polynomials ---------------------------------------------------------------


def family_value(kind: str, n: int, x: int) -> int:
    """D(G, x) of a family member at an integer x, from its formula."""
    if kind in ("friendship", "book_contracted"):
        return (x * x + 2 * x) ** n + x * (1 + x) ** (2 * n)
    if kind == "book":
        return (x * x + 2 * x) ** n * (1 + 2 * x) + x * x * (1 + x) ** (2 * n) - 2 * x ** n
    if kind == "complete":
        return (1 + x) ** n - 1
    if kind == "star":
        return x * (1 + x) ** n + x ** n
    if kind in ("path", "cycle"):
        # D(G_k) = x (D(G_{k-1}) + D(G_{k-2}) + D(G_{k-3})) for k >= 4
        if kind == "path":
            seq = [x, x * x + 2 * x, x ** 3 + 3 * x * x + x]
        else:
            seq = [x, x * x + 2 * x, x ** 3 + 3 * x * x + 3 * x]
        for _ in range(n - 3):
            seq = [seq[1], seq[2], x * (seq[0] + seq[1] + seq[2])]
        return seq[min(n, 3) - 1]
    raise ValueError(kind)


def horner(coeffs: list[int], x) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def parse_coeffs(text: str) -> list[int]:
    return [int(part) for part in text.split(",")] if text else []


def check_domination_poly(coeffs: list[int], order: int) -> None:
    """Facts every domination polynomial of an order-n graph satisfies."""
    require(len(coeffs) == order + 1 and coeffs[-1] == 1,
            f"degree/lead wrong for order {order}")
    require(coeffs[0] == 0, "constant term is not 0")
    require(sum(coeffs) % 2 == 1, "D(G,1) is even")


def check_family_poly(coeffs: list[int], kind: str, n: int, brute) -> None:
    """Exact equality with brute force on small orders, else the formula at
    two integer points.  `brute(kind, n)` returns the reference coefficients."""
    order = family_order(kind, n)
    check_domination_poly(coeffs, order)
    if order <= 20:
        require(coeffs == brute(kind, n), f"{kind}:{n} differs from brute force")
        return
    for x in EVAL_POINTS:
        require(horner(coeffs, x) == family_value(kind, n, x),
                f"{kind}:{n} differs from its formula at x={x}")


def parse_poly_text(text: str) -> list[int]:
    """Coefficients of the `str(IntPolynomial)` form of a polynomial with
    non-negative coefficients, e.g. 'x^3 + 3x^2 + x'."""
    terms = {}
    for term in text.split(" + "):
        head, has_x, power = term.partition("x")
        exponent = (int(power[1:]) if power else 1) if has_x else 0
        terms[exponent] = int(head) if head else 1
    return [terms.get(i, 0) for i in range(max(terms) + 1)]


def check_graph_all_methods(stdout: str, order: int, non_isolated: int) -> None:
    """`poly --graph6 G --method all`: the verdict, and two coefficients
    read off the generated graph: d(G,n) = 1 and d(G,n-1) = the number of
    vertices with a neighbour."""
    lines = stdout.splitlines()
    require("verdict: AGREE" in lines, "no AGREE verdict")
    brute = [line for line in lines if line.startswith("brute: ")]
    require(len(brute) == 1, "no brute-force line")
    coeffs = parse_poly_text(brute[0][len("brute: "):])
    check_domination_poly(coeffs, order)
    require(coeffs[order - 1] == non_isolated, "d(G, n-1) is not the non-isolated count")


# -- roots ---------------------------------------------------------------------


def _sign_at(coeffs: list[int], point: Fraction) -> int:
    num, den = point.numerator, point.denominator
    acc, dpow = 0, 1
    for c in reversed(coeffs):
        acc = acc * num + c * dpow
        dpow *= den
    return (acc > 0) - (acc < 0)


def check_real_intervals(coeffs: list[int], entry: dict) -> list[tuple[Fraction, Fraction]]:
    """Sorted disjoint intervals, each with a sign change or an exact root;
    integer roots evaluate to 0."""
    intervals = [(Fraction(r["lo"]), Fraction(r["hi"])) for r in entry["real_roots"]]
    for (lo, hi), nxt in zip(intervals, intervals[1:] + [None]):
        if lo == hi:
            require(_sign_at(coeffs, lo) == 0, f"{lo} is not a root")
        else:
            require(lo < hi and _sign_at(coeffs, lo) * _sign_at(coeffs, hi) < 0,
                    f"no sign change on ({lo}, {hi})")
        require(nxt is None or hi < nxt[0], "intervals overlap or are unsorted")
    ints = entry["integer_roots"]
    require(0 in ints, "0 missing from the integer roots")
    require(all(horner(coeffs, r) == 0 for r in ints), "integer root is not a root")
    return intervals


def check_roots(stdout: str, kind: str, n: int, brute, real_only: bool) -> None:
    payload = json.loads(stdout)
    require(len(payload) == 1, "expected one report")
    entry = payload[0]
    coeffs = parse_coeffs(entry["polynomial"])
    check_family_poly(coeffs, kind, n, brute)
    intervals = check_real_intervals(coeffs, entry)
    if real_only:
        require("complex_roots" not in entry, "complex roots in a --real-only report")
        return
    valuation = next(i for i, c in enumerate(coeffs) if c)
    roots = entry["complex_roots"]
    require(entry["zero_multiplicity"] == valuation, "zero multiplicity is wrong")
    require(valuation + sum(r["multiplicity"] for r in roots) == len(coeffs) - 1,
            "multiplicities do not add up to the degree")
    tol = float(entry["tolerance"])
    require(all(float(r["residual"]) <= tol for r in roots), "residual above tolerance")
    real = [float(r["re"]) for r in roots if abs(float(r["im"])) <= REAL_TOL]
    nonzero = [(lo, hi) for lo, hi in intervals if not lo == hi == 0]
    require(len(real) == len(nonzero), "Aberth and Sturm disagree on the real-root count")
    for lo, hi in nonzero:
        mid = float((lo + hi) / 2)
        require(any(abs(mid - r) <= MATCH_TOL for r in real),
                f"no Aberth root near the Sturm interval at {mid}")


# -- equivalence -----------------------------------------------------------------


def _check_classes(classes: dict[str, list[str]], witness_pairs, planted) -> None:
    class_of = {gid: poly for poly, members in classes.items() for gid in members}
    for poly, members in classes.items():
        coeffs = parse_coeffs(poly)
        require(sum(coeffs) % 2 == 1, "class polynomial is even at 1")
        require(all(_order_of(gid) == len(coeffs) - 1 for gid in members),
                "class mixes orders or has the wrong degree")
    for a, b in list(witness_pairs) + list(planted):
        require(a in class_of and class_of.get(a) == class_of.get(b),
                f"pair {a} ~ {b} is split across classes")


def _order_of(graph6_text: str) -> int:
    return ord(graph6_text[0]) - 63


def check_equiv_catalog(stdout: str, lines: list[str], planted) -> None:
    report = json.loads(stdout)
    require(report["graph_count"] == len(lines) and not report["skipped"],
            "catalog graphs missing from the report")
    classes = {c["polynomial"]: c["graphs"] for c in report["classes"]}
    _check_classes(classes, [(w["a"], w["b"]) for w in report["witness_pairs"]], planted)


def check_equiv_order6(stdout: str) -> None:
    """Text report of the bundled order-6 catalog: there are 156 graphs on
    six vertices."""
    lines = stdout.splitlines()
    require("graphs: 156" in lines, "order-6 catalog is not 156 graphs")
    classes, pairs = {}, []
    for line in lines:
        if line.startswith("class "):
            poly, _, members = line[len("class "):].partition(": ")
            classes[poly] = members.split()
        elif line.startswith("witness "):
            a, _, rest = line[len("witness "):].partition(" ~ ")
            pairs.append((a, rest.partition(":")[0]))
    require(pairs, "no witness pairs")
    _check_classes(classes, pairs, ())


# -- limits ------------------------------------------------------------------------


def hyperbola_gap(z: complex) -> float:
    return abs((z.real + 1) ** 2 - z.imag ** 2 - 0.5)


def circle_gap(z: complex) -> float:
    return abs(abs(z + 2) - 1)


def balance_gap(z: complex) -> float:
    return abs(abs(z + 1) ** 2 - abs(z))


# equimodular pair -> its implicit curve; the isolated limit points
PAIR_CURVES = {
    "friendship": {"equimodular:0:1": hyperbola_gap},
    "book": {"equimodular:0:1": hyperbola_gap, "equimodular:0:2": circle_gap,
             "equimodular:1:2": balance_gap},
}
ISOLATED = {"friendship": [0j], "book": [complex(-0.5, 0), 0j]}


def check_limits(family: str, n_max: int, stdout: str, scatter, curve, isolated) -> None:
    """`limits --method trace`: the scatter holds every root of members
    1..n_max within tolerance; traced points lie on the analytic curve of
    their pair; the isolated points are the known ones.

    scatter: [(re, im, residual)], curve: [(piece, z)], isolated: [z].
    """
    degree_sum = sum(family_order(family, n) for n in range(1, n_max + 1))
    require(len(scatter) == degree_sum, "scatter row count is not the degree sum")
    require(all(float(res) <= SOLVER_TOL for _, _, res in scatter),
            "scatter residual above tolerance")
    curves = PAIR_CURVES[family]
    require(curve, "tracer found no curve points")
    for piece, z in curve:
        require(piece in curves and curves[piece](z) <= CURVE_TOL,
                f"{piece} point {z} is off its curve")
    expected = ISOLATED[family]
    require(len(isolated) == len(expected)
            and all(abs(a - b) <= 1e-9 for a, b in zip(isolated, expected)),
            f"isolated points {isolated}")
    summary = [line for line in stdout.splitlines() if line.startswith("  n=")]
    require(len(summary) == n_max, "max-modulus summary has the wrong length")


def curve_queries(rng, family: str, count: int) -> list[tuple[complex, float]]:
    """Points at a known normal offset from the limit curve, with that offset.

    Offsets stay under 0.05, well inside every radius of curvature and far
    from the other arcs, so the offset is the distance to the curve.
    """
    out = []
    theta_max = 0.8 * math.acos((1 - math.sqrt(2)) / 2)
    for _ in range(count):
        delta = rng.choice((-1, 1)) * rng.uniform(0.005, 0.05)
        if family == "book" and rng.random() < 0.5:
            unit = cmath.exp(1j * rng.uniform(-theta_max, theta_max))
            out.append((-2 + unit * (1 + delta), abs(delta)))
            continue
        b = rng.uniform(-2.5, 2.5)
        sign = -1 if family == "friendship" and rng.random() < 0.5 else 1
        a1 = sign * math.sqrt(0.5 + b * b)  # a1 = Re z + 1
        normal = complex(a1, -b) / abs(complex(a1, -b))
        out.append((complex(a1 - 1, b) + delta * normal, abs(delta)))
    return out


def check_distances(distances: list[float], expected: list[float]) -> None:
    require(len(distances) == len(expected), "missing distances")
    for got, want in zip(distances, expected):
        require(abs(got - want) <= DISTANCE_TOL, f"distance {got} != offset {want}")
