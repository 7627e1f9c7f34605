"""Graph representation, named families, operations, graph6 codec."""

import random
import tracemalloc

import pytest

from dompoly.equivalence import bundled_catalog_text
from dompoly.graphs import (
    FamilySpec,
    Graph,
    Graph6ParseError,
    bitset,
    build_family,
    contract,
    corona,
    delete_closed_neighborhood,
    delete_vertex,
    is_dominating,
    join,
    odot,
    parse_graph6,
    union,
    write_graph6,
)

K1 = build_family(FamilySpec("complete", 1))
K2 = build_family(FamilySpec("complete", 2))
K3 = build_family(FamilySpec("complete", 3))


def F(n):
    return build_family(FamilySpec("friendship", n))


def B(n):
    return build_family(FamilySpec("book", n))


def rand_graph(rng, n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.5])


# -- families ------------------------------------------------------------


def test_friendship_counts():
    assert (F(1).n, F(1).edge_count) == (3, 3)
    assert F(1) == K3
    assert (F(3).n, F(3).edge_count) == (7, 9)
    for n in range(1, 12):
        g = F(n)
        assert (g.n, g.edge_count) == (2 * n + 1, 3 * n)
        assert g.degree(0) == 2 * n  # hub


def test_book_counts():
    assert (B(4).n, B(4).edge_count) == (10, 13)
    for n in range(1, 10):
        assert (B(n).n, B(n).edge_count) == (2 * n + 2, 3 * n + 1)
        assert B(n).has_edge(0, 1)  # the common edge


def test_book_contracted_realization():
    for n in range(1, 8):
        bc = build_family(FamilySpec("book_contracted", n))
        assert bc.n == 2 * n + 1
        assert bc == contract(B(n), 1)


def test_other_families():
    assert build_family(FamilySpec("complete", 4)).edge_count == 6
    assert build_family(FamilySpec("empty", 5)).edge_count == 0
    assert build_family(FamilySpec("cycle", 5)).degree_sequence() == (2,) * 5
    p = build_family(FamilySpec("path", 4))
    assert (p.n, p.edge_count) == (4, 3)
    s = build_family(FamilySpec("star", 4))
    assert (s.n, s.edge_count) == (5, 4)
    assert s.degree(0) == 4


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("friendship", 0)
    with pytest.raises(ValueError):
        FamilySpec("cycle", 2)
    with pytest.raises(ValueError):
        FamilySpec("nosuch", 3)
    assert FamilySpec.parse("book-contracted:3").kind == "book_contracted"
    with pytest.raises(ValueError):
        FamilySpec.parse("friendship")
    with pytest.raises(ValueError):
        FamilySpec.parse("friendship:x")


def test_family_cap():
    """Families build at any order; only enumeration has a size budget."""
    big = build_family(FamilySpec("friendship", 40))
    assert big.n == 81
    huge = build_family(FamilySpec("friendship", 1000))
    assert huge.n == 2001 and huge.degree(0) == 2000


# -- operations ------------------------------------------------------------


def test_union():
    two_k1 = union(K1, K1)
    assert (two_k1.n, two_k1.edge_count) == (2, 0)
    two_k2 = union(K2, K2)
    assert (two_k2.n, two_k2.edge_count) == (4, 2)
    g = union(F(1), K1)
    assert (g.n, g.edge_count) == (4, 3)


def test_join():
    star = join(K1, union(K1, K1))
    assert star.degree(0) == 2 and star.edge_count == 2
    assert join(K1, K1) == K2
    # K1 joined with n disjoint edges is the friendship construction, label
    # for label
    for n in range(1, 6):
        g = K2
        for _ in range(n - 1):
            g = union(g, K2)
        assert join(K1, g) == F(n)


def test_corona():
    assert corona(K1, K1) == K2
    p4 = corona(K2, K1)
    assert (p4.n, p4.edge_count) == (4, 3)
    assert sorted(p4.degree_sequence()) == [1, 1, 2, 2]
    k4 = corona(K1, F(1))
    assert k4.n == 4 and k4.edge_count == 6  # complete on 4
    # copy blocks are contiguous: vertex i of g joins block g.n + i*h.n
    g = corona(K2, K2)
    assert g.has_edge(0, 2) and g.has_edge(0, 3)
    assert g.has_edge(1, 4) and g.has_edge(1, 5)
    assert not g.has_edge(0, 4)
    with pytest.raises(ValueError):
        corona(Graph(0), K1)


def test_delete_vertex():
    assert delete_vertex(K2, 0) == K1
    assert delete_vertex(F(1), 2) == K2
    rng = random.Random(3)
    for _ in range(50):
        g = rand_graph(rng, rng.randint(1, 9))
        u = rng.randrange(g.n)
        assert delete_vertex(g, u).n == g.n - 1
    with pytest.raises(ValueError):
        delete_vertex(K2, 5)


def test_delete_vertex_keeps_label_order():
    # path 0-1-2-3: deleting 1 leaves 0 isolated, old 2-3 edge becomes 1-2
    p4 = build_family(FamilySpec("path", 4))
    g = delete_vertex(p4, 1)
    assert sorted(g.edges()) == [(1, 2)]


def test_delete_closed_neighborhood():
    assert delete_closed_neighborhood(B(2), 0).degree_sequence() == (0, 0)
    empty = delete_closed_neighborhood(F(2), 0)
    assert empty.n == 0


def test_contract():
    p3 = build_family(FamilySpec("path", 3))
    assert contract(p3, 1) == K2
    assert contract(K3, 0) == K2


def test_odot():
    assert odot(K3, 0) == Graph(3, [(0, 1), (0, 2)])
    assert odot(K2, 0) == K2
    for n in (1, 2, 4):
        star = odot(F(n), 0)
        assert star.n == 2 * n + 1
        assert star.degree_sequence() == (2 * n,) + (1,) * (2 * n)
    rng = random.Random(4)
    for _ in range(50):
        g = rand_graph(rng, rng.randint(1, 9))
        assert odot(g, rng.randrange(g.n)).n == g.n


def test_is_dominating():
    for n in (1, 3, 5):
        assert is_dominating(F(n), bitset([0]))
    assert not is_dominating(K2, 0)
    assert is_dominating(Graph(0), 0)
    # two outer vertices of one triangle leave the other triangle uncovered
    assert not is_dominating(F(2), bitset([1, 2]))
    with pytest.raises(ValueError):
        is_dominating(K2, bitset([5]))


# -- graph6 ------------------------------------------------------------------


def test_graph6_known_encodings():
    assert parse_graph6("A_") == K2
    assert parse_graph6("B?") == Graph(3)
    assert parse_graph6(">>graph6<<A_") == K2
    assert write_graph6(K2) == "A_"


def test_graph6_roundtrip_bundled_catalogs():
    for order in range(1, 7):
        for line in bundled_catalog_text(order).splitlines():
            if line:
                assert write_graph6(parse_graph6(line)) == line


def test_graph6_against_reference_implementation():
    nx = pytest.importorskip("networkx")
    for line in bundled_catalog_text(5).splitlines():
        if not line:
            continue
        mine = parse_graph6(line)
        ref = nx.from_graph6_bytes(line.encode())
        assert mine.n == ref.number_of_nodes()
        assert sorted(mine.edges()) == sorted(tuple(sorted(e)) for e in ref.edges())
    rng = random.Random(5)
    # orders 63 and up take the 4-byte vertex count
    for n in [rng.randint(1, 12) for _ in range(25)] + [63, 64, 100, 258, 300]:
        g = rand_graph(rng, n)
        line = write_graph6(g)
        assert parse_graph6(line) == g
        ref = nx.from_graph6_bytes(line.encode())
        assert ref.number_of_nodes() == n
        assert sorted(g.edges()) == sorted(tuple(sorted(e)) for e in ref.edges())


def test_graph6_long_form():
    g = Graph(63, [(0, 62)])
    line = write_graph6(g)
    assert line.startswith(chr(126))
    assert parse_graph6(line) == g


def test_graph6_errors_carry_offsets():
    with pytest.raises(Graph6ParseError):
        parse_graph6("")
    with pytest.raises(Graph6ParseError) as err:
        parse_graph6("A" + chr(20))
    assert err.value.offset == 1
    with pytest.raises(Graph6ParseError):
        parse_graph6("D")  # truncated edge data
    with pytest.raises(Graph6ParseError):
        parse_graph6("A_!!")  # trailing data
    with pytest.raises(Graph6ParseError):
        parse_graph6("A" + chr(63 + 1))  # nonzero padding bit for n=2
    for text, width in (("~??", 3), ("~~????", 6)):  # vertex counts cut short
        with pytest.raises(Graph6ParseError,
                           match=f"truncated {width}-byte vertex count") as err:
            parse_graph6(text)
        assert err.value.offset == len(text)
    # a header claiming 2^35 vertices fails on its missing edge bytes before
    # anything is sized by that count
    tracemalloc.start()
    try:
        with pytest.raises(Graph6ParseError, match="truncated edge data"):
            parse_graph6("~~" + chr(63 + 32) + chr(63) * 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(-1)
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])
    with pytest.raises(AttributeError):
        K2.n = 4


def test_closed_neighborhoods_invariant():
    rng = random.Random(6)
    for _ in range(30):
        g = rand_graph(rng, rng.randint(1, 10))
        for v in range(g.n):
            assert g.closed[v] == g.adj[v] | (1 << v)
            assert not g.adj[v] >> v & 1  # irreflexive
        for u in range(g.n):
            for v in range(g.n):
                assert (g.adj[u] >> v & 1) == (g.adj[v] >> u & 1)  # symmetric
