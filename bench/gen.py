"""Seeded benchmark inputs: random graphs, named family graphs, graph6 text.

Everything here is written without dompoly, so the program only ever sees
the text these functions produce.
"""

from __future__ import annotations

import itertools
import random


class Stratified:
    """Seeded draws from lo..hi spread evenly over a run: each block of
    `parts` consecutive draws takes one value from each of `parts` equal
    sub-ranges, in seeded order.  Integer bounds give integers."""

    def __init__(self, rng: random.Random, lo, hi, parts: int):
        self.rng, self.lo, self.hi, self.parts = rng, lo, hi, parts
        self.integer = isinstance(lo, int) and isinstance(hi, int)
        self.pending: list[int] = []

    def draw(self):
        if not self.pending:
            self.pending = list(range(self.parts))
            self.rng.shuffle(self.pending)
        part = self.pending.pop()
        if self.integer:
            size = self.hi - self.lo + 1
            a = self.lo + part * size // self.parts
            b = self.lo + (part + 1) * size // self.parts - 1
            return self.rng.randint(a, max(a, b))
        width = (self.hi - self.lo) / self.parts
        return self.rng.uniform(self.lo + part * width, self.lo + (part + 1) * width)


def random_edges(rng: random.Random, n: int, density: float) -> list[tuple[int, int]]:
    """Erdos-Renyi G(n, density) edge list."""
    return [(i, j) for j in range(1, n) for i in range(j) if rng.random() < density]


def relabel(edges: list[tuple[int, int]], perm: list[int]) -> list[tuple[int, int]]:
    return [(perm[u], perm[v]) for u, v in edges]


def family_edges(kind: str, n: int) -> tuple[int, list[tuple[int, int]]]:
    """(order, edges) of a named family member, built from its definition.

    The contracted book is built directly as a hub joined to a clique with
    one pendant per clique vertex, not by contracting a book graph.
    """
    if kind == "friendship":
        edges = []
        for i in range(n):
            a, b = 2 * i + 1, 2 * i + 2
            edges += [(0, a), (0, b), (a, b)]
        return 2 * n + 1, edges
    if kind == "book":
        edges = [(0, 1)]
        for i in range(n):
            a, b = 2 * i + 2, 2 * i + 3
            edges += [(0, a), (a, b), (b, 1)]
        return 2 * n + 2, edges
    if kind == "book_contracted":
        clique = range(1, n + 1)
        pendants = range(n + 1, 2 * n + 1)
        edges = [(0, v) for v in range(1, 2 * n + 1)]
        edges += [(u, v) for u in clique for v in clique if u < v]
        edges += [(c, p) for c, p in zip(clique, pendants)]
        return 2 * n + 1, edges
    if kind == "complete":
        return n, [(i, j) for j in range(n) for i in range(j)]
    if kind == "cycle":
        return n, [(i, (i + 1) % n) for i in range(n)]
    if kind == "path":
        return n, [(i, i + 1) for i in range(n - 1)]
    if kind == "star":
        return n + 1, [(0, i) for i in range(1, n + 1)]
    raise ValueError(f"unknown family {kind!r}")


def family_order(kind: str, n: int) -> int:
    return {"friendship": 2 * n + 1, "book": 2 * n + 2,
            "book_contracted": 2 * n + 1, "star": n + 1}.get(kind, n)


def graph6(n: int, edges: list[tuple[int, int]]) -> str:
    """graph6 text of a graph with at most 62 vertices."""
    if not 0 <= n <= 62:
        raise ValueError("this writer covers 0..62 vertices")
    adjacent = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [(i, j) in adjacent for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        value = 0
        for bit in bits[k:k + 6]:
            value = value << 1 | bit
        out.append(chr(value + 63))
    return "".join(out)


def catalog(rng: random.Random, size: int) -> tuple[list[str], list[tuple[str, str]]]:
    """A graph6 catalog of orders 8..13 and the pairs that must share a class.

    A quarter of the random graphs get a relabelled copy (isomorphic graphs
    have equal polynomials), and friendship:k sits beside the contracted
    book of the same k (equal polynomials, different degree sequences).
    """
    lines: list[str] = []
    seen: set[str] = set()
    pairs: list[tuple[str, str]] = []

    def add(text: str) -> bool:
        if text in seen:
            return False
        seen.add(text)
        lines.append(text)
        return True

    for k in (4, 5, 6):
        f = graph6(*family_edges("friendship", k))
        b = graph6(*family_edges("book_contracted", k))
        add(f)
        add(b)
        pairs.append((f, b))
    orders = itertools.cycle(range(8, 14))  # equal shares keep the cost steady
    while len(lines) < size:
        n = next(orders)
        edges = random_edges(rng, n, rng.uniform(0.15, 0.5))
        original = graph6(n, edges)
        if not add(original):
            continue
        if rng.random() < 0.25:
            perm = list(range(n))
            rng.shuffle(perm)
            copy = graph6(n, relabel(edges, perm))
            if add(copy):
                pairs.append((original, copy))
    rng.shuffle(lines)
    return lines, pairs
