"""Equal-polynomial classes over graph catalogs and non-uniqueness witnesses.

Two graphs are equivalent when their domination polynomials agree exactly.
Partitioning keys on the serialized coefficient list, so classes never mix
polynomial degrees (= graph orders).  Non-isomorphism of classmates is
certified only by order, size, or degree-sequence mismatch; pairs agreeing
on all three are flagged "certificate unavailable" rather than guessed,
since isomorphism testing is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .domination import EnumerationBudgetError, brute_force_poly, family_poly
from .graphs import FamilySpec, Graph, build_family, write_graph6
from .polynomials import IntPolynomial

BUNDLED_ORDERS = range(1, 7)


@dataclass(frozen=True)
class WitnessCertificate:
    """Why two equal-polynomial graphs are non-isomorphic (or 'unavailable')."""

    kind: str  # "order" | "size" | "degree-sequence" | "unavailable"
    detail_a: tuple = ()
    detail_b: tuple = ()

    @property
    def available(self) -> bool:
        return self.kind != "unavailable"


@dataclass(frozen=True)
class WitnessPair:
    graph_a: str
    graph_b: str
    certificate: WitnessCertificate


@dataclass(frozen=True)
class EquivalenceReport:
    """Partition of a catalog by domination polynomial.

    classes maps the serialized polynomial (low-to-high coefficients) to the
    identifiers sharing it, ordered by (degree, coefficients); every witness
    pair comes from one class of size >= 2.
    """

    classes: dict[str, tuple[str, ...]]
    singleton_count: int
    witness_pairs: tuple[WitnessPair, ...]
    skipped: tuple[tuple[str, str], ...]

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def graph_count(self) -> int:
        return sum(len(ids) for ids in self.classes.values())

    @property
    def non_unique_count(self) -> int:
        return sum(len(ids) for ids in self.classes.values() if len(ids) > 1)


def certificate_for(a: Graph, b: Graph) -> WitnessCertificate:
    """Cheapest available non-isomorphism certificate for two graphs."""
    if a.n != b.n:
        return WitnessCertificate("order", (a.n,), (b.n,))
    if a.edge_count != b.edge_count:
        return WitnessCertificate("size", (a.edge_count,), (b.edge_count,))
    da, db = a.degree_sequence(), b.degree_sequence()
    if da != db:
        return WitnessCertificate("degree-sequence", da, db)
    return WitnessCertificate("unavailable")


def partition_catalog(graphs: list[Graph],
                      ids: list[str] | None = None) -> EquivalenceReport:
    """Partition a catalog into classes of equal domination polynomial.

    Graphs over the enumeration budget are skipped and reported.  Identifiers
    default to the graph6 encodings.  Output ordering is independent of the
    input order up to the order of identifiers inside a class.
    """
    if ids is None:
        ids = [write_graph6(g) for g in graphs]
    if len(ids) != len(graphs):
        raise ValueError("ids must pair with graphs")
    by_poly: dict[IntPolynomial, list[tuple[str, Graph]]] = {}
    skipped: list[tuple[str, str]] = []
    for gid, g in zip(ids, graphs):
        try:
            poly = brute_force_poly(g)
        except EnumerationBudgetError as exc:
            skipped.append((gid, str(exc)))
            continue
        by_poly.setdefault(poly, []).append((gid, g))

    classes: dict[str, tuple[str, ...]] = {}
    witness_pairs: list[WitnessPair] = []
    for poly in sorted(by_poly, key=lambda p: (p.degree, p.coeffs)):
        members = sorted(by_poly[poly], key=lambda item: item[0])
        classes[poly.to_coeff_string()] = tuple(gid for gid, _ in members)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                (ida, ga), (idb, gb) = members[i], members[j]
                witness_pairs.append(
                    WitnessPair(ida, idb, certificate_for(ga, gb)))
    singleton = sum(1 for ids_ in classes.values() if len(ids_) == 1)
    return EquivalenceReport(
        classes=classes,
        singleton_count=singleton,
        witness_pairs=tuple(witness_pairs),
        skipped=tuple(skipped),
    )


@dataclass(frozen=True)
class NonUniquenessWitness:
    """A friendship graph and the contracted book sharing its polynomial."""

    n: int
    polynomial: IntPolynomial
    friendship: Graph
    book_contracted: Graph
    certificate: WitnessCertificate


def verify_friendship_not_unique(n: int) -> NonUniquenessWitness:
    """Produce the classic witness pair: friendship:n and the book graph
    contracted at a common-edge vertex share a polynomial but differ in
    degree sequence for every n >= 2.

    Polynomial equality goes through the two distinct closed-form routes, so
    it works far beyond the enumeration budget; non-isomorphism is certified
    by the built graphs' degree sequences.  n = 1 is rejected: there both
    constructions give a triangle.
    """
    if n < 2:
        raise ValueError("need n >= 2; at n = 1 the two graphs are isomorphic")
    p_f = family_poly(FamilySpec("friendship", n))
    p_b = family_poly(FamilySpec("book_contracted", n))
    if p_f != p_b:
        raise AssertionError("closed forms disagree; computation is broken")
    cap = 2 * n + 2
    f = build_family(FamilySpec("friendship", n), cap=cap)
    bc = build_family(FamilySpec("book_contracted", n), cap=cap)
    # certify by degree sequence specifically (the sizes differ as well, but
    # the degree sequences pin down where: 2n pendant-path degrees vs n
    # clique degrees of n+1)
    da, db = f.degree_sequence(), bc.degree_sequence()
    if da == db:
        raise AssertionError("degree sequences unexpectedly agree")
    cert = WitnessCertificate("degree-sequence", da, db)
    return NonUniquenessWitness(
        n=n, polynomial=p_f, friendship=f, book_contracted=bc, certificate=cert)


def bundled_catalog_text(order: int) -> str:
    """Raw text of the bundled catalog of all graphs of the given order."""
    if order not in BUNDLED_ORDERS:
        raise ValueError(f"bundled catalogs cover orders "
                         f"{BUNDLED_ORDERS.start}..{BUNDLED_ORDERS.stop - 1}")
    return (resources.files("dompoly") / "data" / f"order{order}.g6").read_text()


def bundled_catalog(order: int) -> list[Graph]:
    """All non-isomorphic graphs of the given order (1..6), one per line."""
    from .graphs import parse_graph6

    return [parse_graph6(line) for line in bundled_catalog_text(order).splitlines()
            if line.strip()]
