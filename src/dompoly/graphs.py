"""Simple graphs with bitset neighborhoods, named families, and operations.

Vertices are labeled 0..n-1.  Adjacency is kept as one Python-int bitset per
vertex, so closed-neighborhood unions (the heart of domination checks) are
single OR operations.  Python ints are arbitrary width, so graphs of any
order can be built (degree-sequence certificates on large family members,
for example).  The only size limit is the enumeration budget, which every
enumeration path checks (`EnumerationBudgetError` in `domination`); graph6
input is bounded by its own length, which is checked before anything sized
by its vertex count is allocated.

All graphs are immutable and every operation returns a new graph, so values
are safe to share freely.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

FAMILY_KINDS = (
    "friendship",
    "book",
    "book_contracted",
    "complete",
    "empty",
    "cycle",
    "path",
    "star",
)


class Graph6ParseError(ValueError):
    """Malformed graph6 input; `offset` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class Graph:
    """Immutable simple graph on vertices 0..n-1.

    `adj[v]` is the open-neighborhood bitset, `closed[v]` adds bit v.
    """

    __slots__ = ("n", "adj", "closed")

    n: int
    adj: tuple[int, ...]
    closed: tuple[int, ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._init(n, tuple(adj))

    def _init(self, n: int, adj: tuple[int, ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "closed",
                           tuple(a | (1 << v) for v, a in enumerate(adj)))

    @classmethod
    def _from_adj(cls, adj: tuple[int, ...]) -> "Graph":
        g = object.__new__(cls)
        g._init(len(adj), adj)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    # -- queries ---------------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            v = u + 1
            while rest:
                if rest & 1:
                    yield (u, v)
                rest >>= 1
                v += 1

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def degree_sequence(self) -> tuple[int, ...]:
        """Degrees sorted descending."""
        return tuple(sorted((a.bit_count() for a in self.adj), reverse=True))

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def __eq__(self, other) -> bool:
        if isinstance(other, Graph):
            return self.n == other.n and self.adj == other.adj
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Graph", self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())!r})"


def bitset(vertices: Iterable[int]) -> int:
    """Bitset with the given vertex bits set."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def bitset_members(mask: int) -> list[int]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


def is_dominating(g: Graph, subset: int) -> bool:
    """True iff the closed neighborhoods of `subset` cover every vertex."""
    if subset < 0 or subset > g.full_mask:
        raise ValueError("subset is not a vertex bitset of this graph")
    cover = 0
    rest = subset
    while rest:
        low = rest & -rest
        cover |= g.closed[low.bit_length() - 1]
        rest ^= low
    return cover == g.full_mask


# -- named families -------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """A named graph family member, e.g. friendship:3."""

    kind: str
    n: int

    def __post_init__(self):
        kind = self.kind.replace("-", "_").lower()
        object.__setattr__(self, "kind", kind)
        if kind not in FAMILY_KINDS:
            raise ValueError(
                f"unknown family {self.kind!r}; expected one of {', '.join(FAMILY_KINDS)}")
        if self.n < 1:
            raise ValueError(f"family parameter must be >= 1, got {self.n}")
        if kind == "cycle" and self.n < 3:
            raise ValueError("cycle parameter must be >= 3 for a simple graph")

    @property
    def order(self) -> int:
        """Number of vertices of the realized graph."""
        return {
            "friendship": 2 * self.n + 1,
            "book": 2 * self.n + 2,
            "book_contracted": 2 * self.n + 1,
            "complete": self.n,
            "empty": self.n,
            "cycle": self.n,
            "path": self.n,
            "star": self.n + 1,
        }[self.kind]

    @classmethod
    def parse(cls, text: str) -> "FamilySpec":
        """Parse 'name:n' (e.g. 'friendship:2')."""
        name, sep, num = text.partition(":")
        if not sep:
            raise ValueError(f"family spec {text!r} must look like 'name:n'")
        try:
            n = int(num)
        except ValueError:
            raise ValueError(f"family parameter {num!r} is not an integer") from None
        return cls(name.strip(), n)

    def __str__(self) -> str:
        return f"{self.kind}:{self.n}"


def build_family(spec: FamilySpec) -> Graph:
    """Materialize a family member with its fixed labeling.

    Friendship hub is vertex 0; the book common edge is {0, 1}; the
    contracted book arises from contracting the book at vertex 1 and
    compacting labels, which again puts the high-degree vertex at 0.
    """
    n = spec.n
    kind = spec.kind
    if kind == "friendship":
        edges = []
        for i in range(n):
            a, b = 2 * i + 1, 2 * i + 2
            edges += [(0, a), (0, b), (a, b)]
        return Graph(2 * n + 1, edges)
    if kind == "book":
        edges = [(0, 1)]
        for i in range(n):
            a, b = 2 * i + 2, 2 * i + 3
            edges += [(0, a), (a, b), (b, 1)]
        return Graph(2 * n + 2, edges)
    if kind == "book_contracted":
        return contract(build_family(FamilySpec("book", n)), 1)
    if kind == "complete":
        return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if kind == "empty":
        return Graph(n, ())
    if kind == "cycle":
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "path":
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "star":
        return Graph(n + 1, [(0, i) for i in range(1, n + 1)])
    raise AssertionError(kind)


# -- operations -------------------------------------------------------------

def union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; h's vertices are relabeled by offset g.n."""
    adj = list(g.adj) + [a << g.n for a in h.adj]
    return Graph._from_adj(tuple(adj))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two vertex sets."""
    g_mask = (1 << g.n) - 1
    h_mask = ((1 << h.n) - 1) << g.n
    adj = [a | h_mask for a in g.adj] + [(a << g.n) | g_mask for a in h.adj]
    return Graph._from_adj(tuple(adj))


def corona(g: Graph, h: Graph) -> Graph:
    """One copy of h per vertex of g, each g-vertex joined to all of its copy.

    Copy i occupies the contiguous block g.n + i*h.n .. g.n + (i+1)*h.n - 1.
    The operation is not commutative.
    """
    if g.n == 0:
        raise ValueError("corona requires a nonempty first operand")
    adj = list(g.adj) + [0] * (g.n * h.n)
    for i in range(g.n):
        base = g.n + i * h.n
        block_mask = ((1 << h.n) - 1) << base
        adj[i] |= block_mask
        for v in range(h.n):
            adj[base + v] = (h.adj[v] << base) | (1 << i)
    return Graph._from_adj(tuple(adj))


def induced_subgraph(g: Graph, keep_mask: int) -> Graph:
    """Induced subgraph on the vertices of keep_mask, labels compacted in order."""
    keep = bitset_members(keep_mask)
    index = {v: i for i, v in enumerate(keep)}
    adj = []
    for v in keep:
        row = 0
        for w in bitset_members(g.adj[v] & keep_mask):
            row |= 1 << index[w]
        adj.append(row)
    return Graph._from_adj(tuple(adj))


def delete_vertex(g: Graph, u: int) -> Graph:
    g._check_vertex(u)
    return induced_subgraph(g, g.full_mask & ~(1 << u))


def delete_closed_neighborhood(g: Graph, u: int) -> Graph:
    g._check_vertex(u)
    return induced_subgraph(g, g.full_mask & ~g.closed[u])


def contract(g: Graph, u: int) -> Graph:
    """Join all neighbors of u pairwise, then delete u (labels compacted)."""
    g._check_vertex(u)
    nbrs = g.adj[u]
    adj = list(g.adj)
    for v in bitset_members(nbrs):
        adj[v] |= nbrs & ~(1 << v)
    return delete_vertex(Graph._from_adj(tuple(adj)), u)


def odot(g: Graph, u: int) -> Graph:
    """Remove every edge between two neighbors of u; u itself stays."""
    g._check_vertex(u)
    nbrs = g.adj[u]
    adj = list(g.adj)
    for v in bitset_members(nbrs):
        adj[v] &= ~(nbrs & ~(1 << u))
    return Graph._from_adj(tuple(adj))


# -- graph6 ------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"
_G6_OUTSIDE = re.compile("[^?-~]")  # any byte outside 63..126


def _validate_graph6(text: str) -> tuple[bytes, int, int]:
    """Check one graph6 line (optional >>graph6<< header allowed) without
    decoding it: its byte range, its vertex count, its length against that
    count, and its padding bits, which all lie in the last byte.  Returns
    (data, n, pos): the line's bytes after any header and line break, the
    vertex count, and the offset of the edge bits in data."""
    base = 0
    if text.startswith(_G6_HEADER):
        base = len(_G6_HEADER)
        text = text[base:]
    text = text.rstrip("\r\n")
    if not text:
        raise Graph6ParseError("empty graph6 string", base)
    outside = _G6_OUTSIDE.search(text)
    if outside:
        raise Graph6ParseError(f"byte {ord(outside.group())} outside graph6 range",
                               base + outside.start())
    data = text.encode("ascii")
    if data[0] != 126:
        n = data[0] - 63
        pos = 1
    elif len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise Graph6ParseError("truncated 3-byte vertex count", base + len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        pos = 4
    else:
        if len(data) < 8:
            raise Graph6ParseError("truncated 6-byte vertex count", base + len(data))
        n = 0
        for i in range(2, 8):
            n = (n << 6) | (data[i] - 63)
        pos = 8
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise Graph6ParseError("truncated edge data", base + len(data))
    if len(data) - pos > nbytes:
        raise Graph6ParseError("trailing data after edge bits", base + pos + nbytes)
    # the 6 * nbytes - nbits < 6 padding bits are the last byte's lowest
    if (data[-1] - 63) & ((1 << (6 * nbytes - nbits)) - 1):
        raise Graph6ParseError("nonzero padding bit", base + pos + nbytes - 1)
    return data, n, pos


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 line (optional >>graph6<< header allowed).

    The whole line is checked, its length against its vertex count included,
    before anything sized by that count is allocated.
    """
    return _decode_graph6(*_validate_graph6(text))


def _decode_graph6(data: bytes, n: int, pos: int) -> Graph:
    """The graph of a line from what `_validate_graph6` returned for it:
    each edge bit is set straight into the two bitsets it joins."""
    adj = [0] * n
    bit = 0
    for j in range(1, n):
        for i in range(j):
            if (data[pos + bit // 6] - 63) >> (5 - bit % 6) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            bit += 1
    return Graph._from_adj(tuple(adj))


def write_graph6(g: Graph) -> str:
    """Canonical graph6 encoding (minimal header, zero padding, no prefix)."""
    n = g.n
    out: list[int] = []
    if n <= 62:
        out.append(n + 63)
    elif n <= 258047:
        out += [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    elif n <= 68719476735:
        out.append(126)
        out.append(126)
        out += [((n >> (6 * k)) & 63) + 63 for k in range(5, -1, -1)]
    else:
        raise ValueError("graph too large for graph6")
    acc = 0
    filled = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | (g.adj[j] >> i & 1)
            filled += 1
            if filled == 6:
                out.append(acc + 63)
                acc, filled = 0, 0
    if filled:
        out.append((acc << (6 - filled)) + 63)
    return "".join(chr(b) for b in out)

