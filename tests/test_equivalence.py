"""Equal-polynomial partitioning, witnesses, and the bundled catalogs."""

import itertools
import random

import pytest

from dompoly.domination import brute_force_poly, family_poly
from dompoly.equivalence import (
    bundled_catalog,
    bundled_catalog_text,
    certificate_for,
    partition_catalog,
    verify_friendship_not_unique,
)
from dompoly.graphs import FamilySpec, Graph, bitset, build_family, is_dominating

CATALOG_SIZES = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}


def oracle_poly_string(g):
    counts = [0] * (g.n + 1)
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if is_dominating(g, bitset(combo)):
                counts[size] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return ",".join(map(str, counts))


def test_bundled_catalog_counts():
    for order, size in CATALOG_SIZES.items():
        assert len(bundled_catalog(order)) == size
    with pytest.raises(ValueError):
        bundled_catalog(7)


def test_partition_singleton():
    report = partition_catalog([build_family(FamilySpec("complete", 1))])
    assert report.class_count == 1
    assert report.singleton_count == 1
    assert report.witness_pairs == ()


def test_partition_friendship_and_contracted_book():
    f2 = build_family(FamilySpec("friendship", 2))
    bc2 = build_family(FamilySpec("book_contracted", 2))
    report = partition_catalog([f2, bc2], ids=["f2", "bc2"])
    assert report.class_count == 1
    assert report.classes == {"0,1,8,10,5,1": ("bc2", "f2")}
    (pair,) = report.witness_pairs
    assert pair.certificate.available


def test_partition_order_4_catalog():
    catalog = bundled_catalog(4)
    ids = [line for line in bundled_catalog_text(4).splitlines() if line]
    report = partition_catalog(catalog, ids)
    assert report.graph_count == 11
    assert report.class_count == 10
    assert report.non_unique_count == 2
    # independent oracle partition agrees
    oracle = {}
    for gid, g in zip(ids, catalog):
        oracle.setdefault(oracle_poly_string(g), []).append(gid)
    assert {k: tuple(sorted(v)) for k, v in oracle.items()} == \
        {k: tuple(sorted(v)) for k, v in report.classes.items()}
    # the one non-singleton class is the 4-path with two disjoint edges,
    # sharing x^2 (x+2)^2; they already differ in edge count
    (pair,) = report.witness_pairs
    assert pair.certificate.kind == "size"
    assert sorted([pair.certificate.detail_a, pair.certificate.detail_b]) == \
        [(2,), (3,)]


def test_partition_is_permutation_invariant():
    catalog = bundled_catalog(5)
    ids = [line for line in bundled_catalog_text(5).splitlines() if line]
    base = partition_catalog(catalog, ids)
    rng = random.Random(41)
    order = list(range(len(catalog)))
    rng.shuffle(order)
    shuffled = partition_catalog([catalog[i] for i in order],
                                 [ids[i] for i in order])
    assert list(base.classes) == list(shuffled.classes)
    assert {k: tuple(sorted(v)) for k, v in base.classes.items()} == \
        {k: tuple(sorted(v)) for k, v in shuffled.classes.items()}


def test_classes_never_mix_orders():
    catalog = bundled_catalog(4) + bundled_catalog(5)
    report = partition_catalog(catalog)
    for poly, members in report.classes.items():
        degree = len(poly.split(",")) - 1
        first = next(g for g in catalog if brute_force_poly(g).degree == degree)
        assert all(len(m) for m in members)
        assert brute_force_poly(first).degree == degree


def test_partition_skips_over_budget():
    big = Graph(30, cap=30)
    report = partition_catalog([big, build_family(FamilySpec("complete", 1))],
                               ids=["big", "k1"])
    assert report.graph_count == 1
    assert len(report.skipped) == 1
    assert report.skipped[0][0] == "big"


def test_certificates():
    k2 = build_family(FamilySpec("complete", 2))
    p3 = build_family(FamilySpec("path", 3))
    assert certificate_for(k2, p3).kind == "order"
    c4 = build_family(FamilySpec("cycle", 4))
    p4 = build_family(FamilySpec("path", 4))
    assert certificate_for(c4, p4).kind == "size"
    assert certificate_for(k2, k2).kind == "unavailable"


def test_verify_friendship_not_unique():
    w = verify_friendship_not_unique(2)
    assert w.polynomial == family_poly(FamilySpec("friendship", 2))
    assert w.certificate.kind == "degree-sequence"
    assert w.certificate.detail_a == (4, 2, 2, 2, 2)
    assert w.certificate.detail_b == (4, 3, 3, 2, 2)
    assert w.friendship.degree_sequence() == (4, 2, 2, 2, 2)
    with pytest.raises(ValueError):
        verify_friendship_not_unique(1)


def test_verify_friendship_not_unique_large():
    w = verify_friendship_not_unique(100)
    assert w.friendship.n == 201
    assert w.certificate.detail_a[0] == 200  # hub degree
    assert sorted(set(w.certificate.detail_b)) == [2, 101, 200]


def test_catalog_graphs_parse_and_roundtrip():
    from dompoly.graphs import parse_graph6, write_graph6

    for order in CATALOG_SIZES:
        lines = [ln for ln in bundled_catalog_text(order).splitlines() if ln]
        graphs = bundled_catalog(order)
        assert len(set(lines)) == len(lines)
        for line, g in zip(lines, graphs):
            assert g.n == order
            assert write_graph6(parse_graph6(line)) == line
