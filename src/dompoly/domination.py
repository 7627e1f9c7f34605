"""Domination polynomials by brute force, recurrences, and closed forms.

The same polynomial is reachable three independent ways — exhaustive subset
enumeration, deletion/contraction recurrences, and family closed forms — and
the test suite insists the paths coincide.  Conventions the recurrences
force: the empty graph has polynomial 1 (the empty set dominates it), and a
graph of n isolated vertices has polynomial x^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING

from .graphs import (
    FamilySpec,
    Graph,
    bitset_members,
    contract,
    delete_closed_neighborhood,
    delete_vertex,
    odot,
)
from .polynomials import ONE, X, IntPolynomial

if TYPE_CHECKING:
    import numpy as np

BRUTE_FORCE_BUDGET_BITS = 26  # vertices; keeps every mask within an int32 entry

_CHUNK_BITS = 13  # width of the low-half table in the subset sweep
_SWEEP_BLOCK = 1 << 16  # table entries per vectorized step of the sweep


class EnumerationBudgetError(ValueError):
    """Instance too large for subset enumeration; use a closed form
    instead."""


def _check_budget(n: int) -> None:
    """Raise EnumerationBudgetError if n vertices exceed the budget."""
    if n > BRUTE_FORCE_BUDGET_BITS:
        raise EnumerationBudgetError(
            f"{n} vertices needs 2^{n} subsets, over the "
            f"2^{BRUTE_FORCE_BUDGET_BITS} budget; use family_poly instead")


def _cover_table(masks: list[int]) -> np.ndarray:
    """table[s] = union of masks[v] over the bits v of s, built by doubling:
    the subsets that contain v = j are those without it, or'ed with masks[j]."""
    import numpy as np

    table = np.zeros(1 << len(masks), dtype=np.int32)
    for j, mask in enumerate(masks):
        table[1 << j:2 << j] = table[:1 << j] | mask
    return table


@cache
def _popcount_table(width: int) -> tuple[np.ndarray, np.ndarray]:
    """(pop, onehot) for the subsets s < 2^width: pop[s] is the size of s
    and onehot[s, i] is 1.0 where i = pop[s].  Built by doubling like
    _cover_table; cached, so the arrays are read-only."""
    import numpy as np

    pop = np.zeros(1 << width, dtype=np.int32)
    for j in range(width):
        pop[1 << j:2 << j] = pop[:1 << j] + 1
    onehot = (pop[:, None] == np.arange(width + 1)).astype(np.float32)
    for table in (pop, onehot):
        table.flags.writeable = False
    return pop, onehot


def _count_small(rows: np.ndarray, full: int) -> np.ndarray:
    """counts[r, i] = number of i-element subsets of the k masks rows[r]
    whose union is full, for a (rows, k) array with k <= _CHUNK_BITS.

    The cover tables of up to _SWEEP_BLOCK >> k rows are doubled at once,
    like _cover_table, and counted by one product of their ok flags with
    the size one-hot, in float32: each count is at most C(k, i) <= 2^13 <
    2^24, so every partial sum is an exact integer.
    """
    import numpy as np

    k = rows.shape[1]
    onehot = _popcount_table(k)[1]
    counts = np.empty((len(rows), k + 1), dtype=np.int64)
    step = max(1, _SWEEP_BLOCK >> k)
    for r in range(0, len(rows), step):
        block = rows[r:r + step]
        table = np.zeros((len(block), 1 << k), dtype=np.int32)
        for j in range(k):
            table[:, 1 << j:2 << j] = table[:, :1 << j] | block[:, j, None]
        counts[r:r + step] = (table == full).astype(np.float32) @ onehot
    return counts


def _covers_by_size(table: np.ndarray, other: int,
                    full: int) -> tuple[np.ndarray, np.ndarray]:
    """(covers, hist) of one half's cover table: the distinct covers c of
    the parts that reach full together with the other half's whole cover,
    and hist[c, j] = the number of those parts of size j with cover c."""
    import numpy as np

    width = len(table).bit_length()  # the half has width - 1 masks
    # key = cover << shift | size stays below 2^31, as covers are below 2^26
    shift = width.bit_length()
    pop = _popcount_table(width - 1)[0]
    keep = (table | other) == full
    key, count = np.unique((table << shift | pop)[keep], return_counts=True)
    covers, which = np.unique(key >> shift, return_inverse=True)
    hist = np.zeros((len(covers), width), dtype=np.int64)
    hist[which, key & ((1 << shift) - 1)] = count
    return covers, hist


def _count_covering_by_size(masks: list[int], full: int) -> list[int]:
    """counts[i] = number of i-element subsets of masks whose union is full.

    Up to _CHUNK_BITS masks this is _count_small on one row.  Above that, a
    subset splits into a low part (the first _CHUNK_BITS masks) and a high
    part (the rest); it covers full iff low cover | high cover == full.  So
    the count depends on the parts only through their covers, and

        sizes[i, j] = sum over low covers c and high covers d with
                      c | d == full of  l_c[i] * h_d[j]

    where l_c[i] counts the low parts of size i with cover c and h_d[j] the
    high parts of size j with cover d; counts[m] sums sizes[i, j] over
    i + j = m.  Both halves are grouped by cover, dropping the parts that
    miss full even with the whole other half, so the cost is per pair of
    distinct covers.  t = ok @ h, with ok[c, d] = (c | d == full), runs in
    float32 over blocks of low covers: t[c, j] sums h_d[j] over a subset of
    the high parts of size j, at most C(13, j) <= 2^13 < 2^24, so every
    partial sum is exact.  sizes = l.T @ t is then taken in int64.
    """
    import numpy as np

    k = len(masks)
    lo = min(k, _CHUNK_BITS)
    if k == lo:
        return _count_small(np.array([masks], dtype=np.int32), full)[0].tolist()
    low_table = _cover_table(masks[:lo])
    high_table = _cover_table(masks[lo:])
    lows, low_hist = _covers_by_size(low_table, int(high_table[-1]), full)
    highs, high_hist = _covers_by_size(high_table, int(low_table[-1]), full)
    h = high_hist.astype(np.float32)
    t = np.empty((len(lows), h.shape[1]), dtype=np.float32)
    step = max(1, _SWEEP_BLOCK // max(1, len(highs)))
    for r in range(0, len(lows), step):
        ok = (lows[r:r + step, None] | highs) == full
        t[r:r + step] = ok.astype(np.float32) @ h
    sizes = low_hist.T @ t.astype(np.int64)
    counts = np.zeros(k + 1, dtype=np.int64)
    for j in range(k - lo + 1):
        counts[j:j + lo + 1] += sizes[:, j]
    return counts.tolist()


def brute_force_poly(g: Graph) -> IntPolynomial:
    """Exact domination polynomial by enumerating all 2^n vertex subsets."""
    _check_budget(g.n)
    if g.n == 0:
        return ONE
    return IntPolynomial(_count_covering_by_size(list(g.closed), g.full_mask))


def brute_force_polys(graphs: list[Graph]) -> list[IntPolynomial]:
    """brute_force_poly of each graph, in order.  Graphs of one order up to
    _CHUNK_BITS vertices are enumerated together, _SWEEP_BLOCK table entries
    at a time; every other graph goes through brute_force_poly."""
    import numpy as np

    for g in graphs:
        _check_budget(g.n)
    polys: list[IntPolynomial | None] = [None] * len(graphs)
    by_order: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        if 0 < g.n <= _CHUNK_BITS:
            by_order.setdefault(g.n, []).append(i)
        else:
            polys[i] = brute_force_poly(g)
    for n, which in by_order.items():
        rows = np.array([graphs[i].closed for i in which], dtype=np.int32)
        for i, counts in zip(which, _count_small(rows, (1 << n) - 1).tolist()):
            polys[i] = IntPolynomial(counts)
    return polys


def restricted_count(g: Graph, u: int) -> IntPolynomial:
    """Polynomial counting dominating sets of g - u that avoid all of N(u).

    Neighborhoods are read in g itself, so the allowed vertices are exactly
    those outside N[u]; domination is tested in the deleted graph.
    """
    g._check_vertex(u)
    _check_budget(g.n)
    h = delete_vertex(g, u)
    allowed = [v - (v > u) for v in bitset_members(g.full_mask & ~g.closed[u])]
    masks = [h.closed[v] for v in allowed]
    return IntPolynomial(_count_covering_by_size(masks, h.full_mask))


# -- product and join formulas ------------------------------------------------

def join_poly(p: IntPolynomial, n1: int, q: IntPolynomial, n2: int) -> IntPolynomial:
    """Domination polynomial of the join of graphs of orders n1 and n2
    with polynomials p and q."""
    if n1 < 1 or n2 < 1:
        raise ValueError("join operands must be nonempty")
    xp1 = (ONE + X) ** n1 - ONE
    xp2 = (ONE + X) ** n2 - ONE
    return xp1 * xp2 + p + q


def corona_poly(q: IntPolynomial, m: int, n: int) -> IntPolynomial:
    """Domination polynomial of G∘H: (x(1+x)^m + D(H,x))^n.

    Only the orders matter: m = |V(H)| (must be >= 1), n = |V(G)|.
    """
    if m < 1:
        raise ValueError("corona requires a nonempty second operand (m >= 1)")
    if n < 1:
        raise ValueError("corona requires a nonempty first operand (n >= 1)")
    return (X * (ONE + X) ** m + q) ** n


# -- recurrences ----------------------------------------------------------------

def recurrence_poly_vertex(g: Graph, u: int) -> IntPolynomial:
    """Vertex-contraction recurrence:

        D(G) = x·D(G/u) + D(G-u) + x·D(G-N[u]) - (1+x)·p_u(G)

    Subproblems are evaluated by brute force; the recurrence is used as a
    verifiable identity, not as a speedup.
    """
    g._check_vertex(u)
    contracted = brute_force_poly(contract(g, u))
    deleted = brute_force_poly(delete_vertex(g, u))
    stripped = brute_force_poly(delete_closed_neighborhood(g, u))
    p_u = restricted_count(g, u)
    return X * contracted + deleted + X * stripped - (ONE + X) * p_u


def recurrence_poly_odot(g: Graph, u: int) -> IntPolynomial:
    """Triangle-removing recurrence:

        D(G) = D(G-u) + D(G⊙u) - D(G⊙u - u)

    where G⊙u deletes every edge joining two neighbors of u.
    """
    g._check_vertex(u)
    flattened = odot(g, u)
    return (brute_force_poly(delete_vertex(g, u))
            + brute_force_poly(flattened)
            - brute_force_poly(delete_vertex(flattened, u)))


# -- closed forms ---------------------------------------------------------------

@dataclass(frozen=True)
class ExponentialFamily:
    """f_n = sum_i alphas[i] * lambdas[i]^n over k >= 2 terms; k = 2 covers
    the friendship polynomials and k = 3 the book polynomials."""

    alphas: tuple[IntPolynomial, ...]
    lambdas: tuple[IntPolynomial, ...]

    def __post_init__(self):
        if len(self.alphas) != len(self.lambdas):
            raise ValueError("alphas and lambdas must pair up")
        if len(self.alphas) < 2:
            raise ValueError("need at least two terms")
        for p in (*self.alphas, *self.lambdas):
            if p.is_zero:
                raise ValueError("family terms must be nonzero")


def family_member(fam: ExponentialFamily, n: int) -> IntPolynomial:
    """Exact n-th member alpha1*lambda1^n + ... of a family."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = IntPolynomial()
    for alpha, lam in zip(fam.alphas, fam.lambdas):
        total = total + alpha * lam ** n
    return total


def friendship_family() -> ExponentialFamily:
    """D(friendship:n, x) = 1*(x^2+2x)^n + x*((1+x)^2)^n."""
    return ExponentialFamily(
        alphas=(ONE, X),
        lambdas=(IntPolynomial((0, 2, 1)), IntPolynomial((1, 2, 1))),
    )


def book_family() -> ExponentialFamily:
    """D(book:n, x) = (2x+1)*(x^2+2x)^n + x^2*((1+x)^2)^n - 2*x^n: the
    friendship lambdas plus x."""
    return ExponentialFamily(
        alphas=(IntPolynomial((1, 2)), X * X, IntPolynomial((-2,))),
        lambdas=(*friendship_family().lambdas, X),
    )


def family_poly(spec: FamilySpec) -> IntPolynomial:
    """Exact domination polynomial of a family member, without building the
    graph, in O(n) operations on O(n)-bit integers for every family (paths
    and cycles by gap counts); usable far beyond the enumeration budget.

    The contracted book is deliberately computed through its structure
    (a hub joined to a clique-with-pendants, i.e. join + corona) rather than
    by reusing the friendship formula, so equality of the two is a real
    cross-check.
    """
    n = spec.n
    kind = spec.kind
    if kind == "friendship":
        return family_member(friendship_family(), n)
    if kind == "book":
        return family_member(book_family(), n)
    if kind == "book_contracted":
        pendant_clique = corona_poly(X, 1, n)  # clique of n, one pendant each
        return join_poly(X, 1, pendant_clique, 2 * n)
    if kind == "complete":
        return (ONE + X) ** n - ONE
    if kind == "empty":
        return X ** n
    if kind == "star":
        return join_poly(X, 1, X ** n, n)
    if kind == "path":
        return _path_poly(n)
    if kind == "cycle":
        return _cycle_poly(n)
    raise AssertionError(kind)


def _path_poly(n: int) -> IntPolynomial:
    """d(P_n, i) = T(i, n - i) + T(i - 1, n - i - 1), as the end gaps lie in
    {0, 1}, the i - 1 inner ones in {0, 1, 2}, and (1+t)^2 = (1+t+t^2) + t."""
    inner = [0, *_trinomial_diagonal(n - 2), 0]
    return IntPolynomial(map(int.__add__, _trinomial_diagonal(n), inner))


def _cycle_poly(n: int) -> IntPolynomial:
    """d(C_n, i) = (n / i)·T(i, n - i): a dominating i-set with one member
    marked is a start vertex and the i gaps read from it, each in
    {0, 1, 2}; n >= 3."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return IntPolynomial([0] + [n * u // i for i, u in
                                enumerate(_trinomial_diagonal(n)) if i])


def _trinomial_diagonal(n: int) -> list[int]:
    """[T(i, n - i) for i = 0..n], T(i, r) = [t^r](1 + t + t^2)^i: the ways
    to fill i gaps with 0, 1 or 2 vertices each, r in all.

    In O(n) operations on O(n)-bit integers, O(n^2) bit operations in all:
    T(i, n - i) = 0 for i < n/3, and the walk starts at the top of row
    ⌈n/3⌉, T(i, 2i) = 1 and T(i, 2i - 1) = i.  It extends row i downwards by
    the coefficient of t^(s-1) in (1 + t + t^2)·F' = i·(1 + 2t)·F, F the row,

        s·T(i, s) = (i - s + 1)·T(i, s - 1) + (2i - s + 2)·T(i, s - 2),

    solved for T(i, s - 2): an exact division by 2i - s + 2 > 0, as s <= 2i.
    The next row follows by T(i + 1, r) = T(i, r) + T(i, r - 1) + T(i, r - 2).
    """
    diagonal = [0] * (n + 1)
    i = -(-n // 3)
    s, a, b = 2 * i, 1, i  # a = T(i, s), b = T(i, s - 1)
    for _ in range(3 * i - n):  # down row i to s = n - i
        s, a, b = s - 1, b, (s * a - (i - s + 1) * b) // (2 * i - s + 2)
    for i in range(i, n + 1):
        diagonal[i] = a
        j = 2 * i - s  # c, d, e = T(i, s - 2), T(i, s - 3), T(i, s - 4)
        c = (s * a - (i - s + 1) * b) // (j + 2)
        d = ((s - 1) * b - (i - s + 2) * c) // (j + 3)
        e = ((s - 2) * c - (i - s + 3) * d) // (j + 4)
        s, a, b = s - 1, b + c + d, c + d + e
    return diagonal


def corona_family_poly(kind: str, base_order: int, n: int, depth: int) -> IntPolynomial:
    """Iterated corona chain G∘H, (G∘H)∘H, ... with H a family member.

    Only |V(G)| = base_order matters for the polynomial.  depth is the
    number of corona applications.
    """
    if base_order < 1:
        raise ValueError("base_order must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    h_spec = FamilySpec(kind, n)
    m = h_spec.order
    # each application multiplies the order by 1 + m; only the last counts
    return corona_poly(family_poly(h_spec), m, base_order * (1 + m) ** (depth - 1))

