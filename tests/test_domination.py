"""Domination polynomial paths must coincide: brute force vs an independent
enumeration oracle, product/join/corona formulas vs brute force, recurrences
vs brute force, closed forms vs everything."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dompoly.domination import (
    EnumerationBudgetError,
    _cycle_poly,
    _trinomial_diagonal,
    brute_force_poly,
    brute_force_polys,
    corona_family_poly,
    corona_poly,
    family_poly,
    join_poly,
    recurrence_poly_odot,
    recurrence_poly_vertex,
    restricted_count,
)
from dompoly.graphs import (
    FamilySpec,
    Graph,
    bitset,
    build_family,
    corona,
    delete_vertex,
    is_dominating,
    join,
    union,
)
from dompoly.polynomials import ONE, X, IntPolynomial

P = IntPolynomial


def oracle_poly(g):
    """Independent oracle: enumerate subsets via itertools, count by size."""
    counts = [0] * (g.n + 1)
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if is_dominating(g, bitset(combo)):
                counts[size] += 1
    return P(counts)


def oracle_restricted(g, u):
    """Independent oracle for the avoid-the-neighborhood count."""
    h = delete_vertex(g, u)
    allowed = [v - (v > u) for v in range(g.n)
               if v != u and not (g.adj[u] >> v & 1)]
    counts = [0] * (g.n + 1)
    for size in range(len(allowed) + 1):
        for combo in itertools.combinations(allowed, size):
            if is_dominating(h, bitset(combo)):
                counts[size] += 1
    return P(counts)


def fam(kind, n):
    return build_family(FamilySpec(kind, n))


def rand_graph(rng, n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.5])


# -- brute force ---------------------------------------------------------------


def test_brute_force_frozen_values():
    assert brute_force_poly(fam("complete", 1)) == X
    assert brute_force_poly(fam("complete", 2)) == P([0, 2, 1])
    assert brute_force_poly(fam("complete", 3)) == P([0, 3, 3, 1])
    assert brute_force_poly(fam("friendship", 2)) == P([0, 1, 8, 10, 5, 1])
    assert brute_force_poly(fam("book", 2)) == P([0, 0, 3, 16, 15, 6, 1])


def test_brute_force_empty_graph_convention():
    assert brute_force_poly(Graph(0)) == ONE


def test_brute_force_matches_oracle():
    rng = random.Random(21)
    for _ in range(40):
        g = rand_graph(rng, rng.randint(0, 7))
        assert brute_force_poly(g) == oracle_poly(g)
    assert brute_force_poly(fam("friendship", 2)) == oracle_poly(fam("friendship", 2))
    assert brute_force_poly(fam("book", 2)) == oracle_poly(fam("book", 2))


def test_brute_force_crosses_chunk_boundary():
    # 14 vertices exercises the low/high subset split
    g = fam("friendship", 6)
    star = fam("star", 13)
    assert brute_force_poly(star) == family_poly(FamilySpec("star", 13))
    assert brute_force_poly(g) == family_poly(FamilySpec("friendship", 6))


def test_brute_force_polys_in_input_order():
    # orders 0 and 1, and order 4 three times around other orders, so the
    # batch of order-4 graphs must be put back in place
    rng = random.Random(24)
    graphs = [rand_graph(rng, 4), Graph(0), rand_graph(rng, 4), Graph(1),
              fam("friendship", 7), rand_graph(rng, 4), fam("star", 13)]
    polys = brute_force_polys(graphs)
    assert polys[1] == ONE and polys[3] == X
    assert polys == [brute_force_poly(g) for g in graphs]
    assert polys == [oracle_poly(g) for g in graphs[:4]] + polys[4:]
    assert brute_force_polys([]) == []
    with pytest.raises(EnumerationBudgetError):
        brute_force_polys([Graph(3), Graph(27)])


def test_budget_error():
    g = Graph(30)
    with pytest.raises(EnumerationBudgetError) as err:
        brute_force_poly(g)
    assert "family_poly" in str(err.value)
    with pytest.raises(EnumerationBudgetError):
        restricted_count(g, 0)


# -- product / join / corona formulas ---------------------------------------------


def test_union_poly():
    rng = random.Random(22)
    for _ in range(100):
        g, h = rand_graph(rng, rng.randint(1, 6)), rand_graph(rng, rng.randint(1, 6))
        assert brute_force_poly(g) * brute_force_poly(h) == \
            brute_force_poly(union(g, h))


def test_join_poly():
    assert join_poly(X, 1, X, 1) == P([0, 2, 1])
    # K1 + n disjoint edges: (2x+x^2)^n + x(1+x)^(2n)
    for n in range(1, 6):
        nk2 = P([0, 2, 1]) ** n
        expect = nk2 + X * (ONE + X) ** (2 * n)
        assert join_poly(X, 1, nk2, 2 * n) == expect
    rng = random.Random(23)
    for _ in range(100):
        g, h = rand_graph(rng, rng.randint(1, 6)), rand_graph(rng, rng.randint(1, 6))
        got = join_poly(brute_force_poly(g), g.n, brute_force_poly(h), h.n)
        assert got == brute_force_poly(join(g, h))
    with pytest.raises(ValueError):
        join_poly(X, 0, X, 1)


def test_corona_poly():
    assert corona_poly(X, 1, 1) == P([0, 2, 1])
    p4 = brute_force_poly(fam("path", 4))
    assert corona_poly(X, 1, 2) == P([0, 2, 1]) ** 2 == p4
    assert p4 == P([0, 0, 4, 4, 1])
    rng = random.Random(24)
    trials = 0
    while trials < 100:
        gn, hn = rng.randint(1, 4), rng.randint(1, 3)
        if gn * (1 + hn) > 12:
            continue
        trials += 1
        g, h = rand_graph(rng, gn), rand_graph(rng, hn)
        got = corona_poly(brute_force_poly(h), h.n, g.n)
        assert got == brute_force_poly(corona(g, h))
    with pytest.raises(ValueError):
        corona_poly(X, 0, 2)


# -- restricted count ----------------------------------------------------------


def test_restricted_count_book_common_edge():
    for n in (1, 2, 3):
        assert restricted_count(fam("book", n), 0) == X ** n
        assert restricted_count(fam("book", n), 1) == X ** n


def test_restricted_count_trivial_cases():
    assert restricted_count(fam("complete", 2), 0).is_zero
    assert restricted_count(fam("friendship", 1), 0).is_zero


def test_restricted_count_matches_oracle():
    rng = random.Random(25)
    for _ in range(40):
        g = rand_graph(rng, rng.randint(1, 7))
        u = rng.randrange(g.n)
        assert restricted_count(g, u) == oracle_restricted(g, u)


# -- recurrences ----------------------------------------------------------------


def test_recurrence_vertex_k2():
    assert recurrence_poly_vertex(fam("complete", 2), 0) == P([0, 2, 1])


def test_recurrence_vertex_random():
    rng = random.Random(26)
    for _ in range(60):
        g = rand_graph(rng, rng.randint(1, 8))
        u = rng.randrange(g.n)
        assert recurrence_poly_vertex(g, u) == brute_force_poly(g)


def test_recurrence_vertex_book_chain():
    # at a common-edge vertex the recurrence collapses to
    # x*D(contracted) + D(minus-vertex) - x^n
    for n in (2, 3):
        book = fam("book", n)
        contracted_poly = brute_force_poly(fam("book_contracted", n))
        minus_v = brute_force_poly(delete_vertex(book, 0))
        assert minus_v == P([0, 2, 1]) ** n * (X + ONE) - X ** n
        chain = X * contracted_poly + minus_v - X ** n
        assert chain == brute_force_poly(book)
        assert recurrence_poly_vertex(book, 0) == chain


def test_recurrence_odot_k3():
    assert recurrence_poly_odot(fam("complete", 3), 0) == P([0, 3, 3, 1])


def test_recurrence_odot_contracted_book():
    # pivoting on the hub: D = D(pendant-clique) + D(star) - D(isolated),
    # which is (2x+x^2)^n + x(x+1)^(2n)
    for n in (2, 3, 4):
        g = fam("book_contracted", n)
        expect = P([0, 2, 1]) ** n + X * (ONE + X) ** (2 * n)
        assert recurrence_poly_odot(g, 0) == expect
        assert brute_force_poly(g) == expect


def test_recurrence_odot_random():
    rng = random.Random(27)
    for _ in range(60):
        g = rand_graph(rng, rng.randint(1, 8))
        u = rng.randrange(g.n)
        assert recurrence_poly_odot(g, u) == brute_force_poly(g)


# -- closed forms ------------------------------------------------------------------


def test_family_poly_friendship():
    assert family_poly(FamilySpec("friendship", 1)) == P([0, 3, 3, 1])
    for n in range(1, 7):
        assert family_poly(FamilySpec("friendship", n)) == \
            brute_force_poly(fam("friendship", n))


def test_family_poly_book():
    assert family_poly(FamilySpec("book", 2)) == P([0, 0, 3, 16, 15, 6, 1])
    for n in range(1, 6):
        assert family_poly(FamilySpec("book", n)) == \
            brute_force_poly(fam("book", n))


def test_family_poly_book_contracted_equals_friendship():
    for n in (1, 2, 3, 8, 50, 100):
        assert family_poly(FamilySpec("book_contracted", n)) == \
            family_poly(FamilySpec("friendship", n))
    # the contraction realized as a graph has the same polynomial, n <= 8
    for n in range(1, 9):
        assert family_poly(FamilySpec("book_contracted", n)) == \
            brute_force_poly(fam("book_contracted", n))


def test_family_poly_small_families():
    for n in range(1, 7):
        assert family_poly(FamilySpec("complete", n)) == \
            brute_force_poly(fam("complete", n)) == (ONE + X) ** n - ONE
        assert family_poly(FamilySpec("empty", n)) == X ** n
    for n in range(1, 6):
        assert family_poly(FamilySpec("star", n)) == \
            brute_force_poly(fam("star", n))


def test_family_poly_paths_and_cycles():
    assert family_poly(FamilySpec("path", 1)) == X
    assert family_poly(FamilySpec("path", 2)) == P([0, 2, 1])
    assert family_poly(FamilySpec("path", 3)) == P([0, 1, 3, 1])
    for n in range(1, 21):
        assert family_poly(FamilySpec("path", n)) == \
            brute_force_poly(fam("path", n)), f"path {n}"
    for n in range(3, 21):
        assert family_poly(FamilySpec("cycle", n)) == \
            brute_force_poly(fam("cycle", n)), f"cycle {n}"
    with pytest.raises(ValueError, match="cycle needs n >= 3"):
        _cycle_poly(2)


def powers_by_products(base, n_max):
    """[base^0, ..., base^n_max], each one plain multiplication after the
    last: the ring-operation route the closed forms are checked against."""
    powers = [ONE]
    for _ in range(n_max):
        powers.append(powers[-1] * base)
    return powers


def test_family_poly_matches_ring_operations():
    n_max = 200
    two_x_x2 = powers_by_products(P([0, 2, 1]), n_max)
    one_x = powers_by_products(ONE + X, 2 * n_max)
    x = powers_by_products(X, n_max)
    for n in range(1, n_max + 1):
        friendship = two_x_x2[n] + X * one_x[2 * n]
        expected = {
            "friendship": friendship,
            "book": (two_x_x2[n] * P([1, 2]) + x[2] * one_x[2 * n]
                     - 2 * x[n]),
            # join of K1 with the corona K_n ∘ K1, as the closed form builds it
            "book_contracted": X * (one_x[2 * n] - ONE) + X + two_x_x2[n],
            "complete": one_x[n] - ONE,
            "empty": x[n],
            "star": X * (one_x[n] - ONE) + X + x[n],
        }
        assert expected["book_contracted"] == friendship
        for kind, poly in expected.items():
            assert family_poly(FamilySpec(kind, n)) == poly, f"{kind}:{n}"


def old_sweep(in_s, dominated, needy):
    """The three-state path sweep the path and cycle closed forms used
    before the three-term recurrence, on IntPolynomials: yields the states
    after 0, 1, 2, ... steps (last vertex in the set, out but dominated,
    out and needing its right neighbour)."""
    while True:
        yield in_s, dominated, needy
        in_s, dominated, needy = X * (in_s + dominated + needy), in_s, dominated


def test_paths_and_cycles_match_old_sweep():
    zero = P()
    path = list(itertools.islice(old_sweep(X, zero, ONE), 200))
    first_in = list(itertools.islice(old_sweep(X * X, X, zero), 199))
    second_in = list(itertools.islice(old_sweep(X, zero, zero), 199))
    both_out = list(itertools.islice(old_sweep(zero, zero, ONE), 198))
    for n in range(1, 201):
        in_s, dominated, _ = path[n - 1]
        assert family_poly(FamilySpec("path", n)) == in_s + dominated, n
    for n in range(3, 201):
        cycle = (sum(first_in[n - 2], zero) + sum(second_in[n - 2][:2], zero)
                 + X * sum(both_out[n - 3], zero))
        assert family_poly(FamilySpec("cycle", n)) == cycle, n


def three_term_recurrence(seeds, n):
    """D_n from the coefficients of D_1, D_2, D_3 by

        D_k = x·(D_{k-1} + D_{k-2} + D_{k-3}),

    which holds for paths and for cycles (Alikhani & Peng, 2008/2009).

    Runs on packed integers: coefficient i sits in the w-bit slot at bit
    w·i, with w > n a whole number of bytes, so each step is one sum and
    one shift.  Slots never carry, because every coefficient of D_k is
    below 2^k <= 2^n: it counts subsets of k vertices.  The path and cycle
    closed forms used it until they counted gaps; it is their reference.
    """
    if n <= 3:
        return IntPolynomial(seeds[n - 1])
    width = n // 8 + 1  # bytes per slot
    w = 8 * width
    a, b, c = (sum(coeff << (w * i) for i, coeff in enumerate(seed))
               for seed in seeds)
    for _ in range(n - 3):
        a, b, c = b, c, (a + b + c) << w
    packed = c.to_bytes((n + 1) * width, "little")
    return IntPolynomial(int.from_bytes(packed[i:i + width], "little")
                         for i in range(0, len(packed), width))


PATH_SEEDS = ((0, 1), (0, 2, 1), (0, 1, 3, 1))
CYCLE_SEEDS = ((0, 1), (0, 2, 1), (0, 3, 3, 1))  # C1, C2: seed values only


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(1, 500))
@example(1)
@example(3)
@example(500)
@example(2000)
def test_paths_and_cycles_match_three_term_recurrence(n):
    assert family_poly(FamilySpec("path", n)) == \
        three_term_recurrence(PATH_SEEDS, n), n
    if n >= 3:
        assert family_poly(FamilySpec("cycle", n)) == \
            three_term_recurrence(CYCLE_SEEDS, n), n


def test_trinomial_identities_and_diagonal():
    """The two identities the gap-count walk rests on, checked on rows of
    (1 + x + x^2)^i built by Miller's power, and the walk read off them."""
    rows = [((ONE + X + X * X) ** i).coeffs for i in range(301)]

    def entry(i, s):
        return rows[i][s] if 0 <= s < len(rows[i]) else 0

    for i, row in enumerate(rows):
        assert len(row) == 2 * i + 1
        for s in range(-2, 2 * i + 2):
            # s·T(i, s) = (i - s + 1)·T(i, s - 1) + (2i - s + 2)·T(i, s - 2)
            quotient, rest = divmod(
                s * entry(i, s) - (i - s + 1) * entry(i, s - 1), 2 * i - s + 2)
            assert rest == 0 and quotient == entry(i, s - 2), (i, s)
            if i:  # T(i, s) = T(i - 1, s) + T(i - 1, s - 1) + T(i - 1, s - 2)
                assert entry(i, s) == sum(entry(i - 1, s - k) for k in range(3))
    for n in range(301):
        assert _trinomial_diagonal(n) == [entry(i, n - i) for i in range(n + 1)], n


def test_family_poly_far_beyond_budget():
    p = family_poly(FamilySpec("friendship", 1000))
    assert p.degree == 2001
    assert p.lead == 1
    assert p.coeffs[0] == 0
    assert p.eval_int(1) % 2 == 1


def test_friendship_factor_reconstruction():
    for n in range(1, 11):
        poly = family_poly(FamilySpec("friendship", n))
        assert poly - X * (ONE + X) ** (2 * n) == P([0, 2, 1]) ** n


def test_corona_family_poly():
    # one vertex, one triangle-with-hub copy: x(x+2)(x^2+2x+2)
    got = corona_family_poly("friendship", 1, 1, 1)
    assert got == X * (X + 2 * ONE) * P([2, 2, 1]) == P([0, 4, 6, 4, 1])
    # one vertex, one K2 copy
    assert corona_family_poly("complete", 1, 2, 1) == \
        X * (ONE + X) ** 2 + P([0, 2, 1])
    # depth 2 is corona applied twice
    once = corona_poly(family_poly(FamilySpec("complete", 2)), 2, 3)
    twice = corona_poly(family_poly(FamilySpec("complete", 2)), 2, 3 * 3)
    assert corona_family_poly("complete", 3, 2, 2) == twice
    assert corona_family_poly("complete", 3, 2, 1) == once
    # depth 3 against brute force on the built graph ((K2∘K1)∘K1)∘K1
    k1 = build_family(FamilySpec("complete", 1))
    g = build_family(FamilySpec("complete", 2))
    for _ in range(3):
        g = corona(g, k1)
    assert g.n == 16
    assert corona_family_poly("complete", 2, 1, 3) == brute_force_poly(g)
    with pytest.raises(ValueError):
        corona_family_poly("complete", 0, 2, 1)
    with pytest.raises(ValueError):
        corona_family_poly("complete", 1, 2, 0)


# -- structural invariants ------------------------------------------------------------


def test_domination_polynomial_shape():
    rng = random.Random(28)
    polys = [brute_force_poly(rand_graph(rng, rng.randint(1, 7)))
             for _ in range(40)]
    polys += [family_poly(FamilySpec("friendship", n)) for n in range(1, 9)]
    polys += [family_poly(FamilySpec("book", n)) for n in range(1, 7)]
    for p in polys:
        assert p.lead == 1
        assert p.coeffs[0] == 0
        assert all(c >= 0 for c in p.coeffs)
        # support is exactly [valuation, degree]
        assert all(c > 0 for c in p.coeffs[p.valuation:])
        assert p.eval_int(1) % 2 == 1
        assert p.eval_int(-1) != 0


def test_union_commutes_at_polynomial_level():
    rng = random.Random(29)
    for _ in range(20):
        g, h = rand_graph(rng, rng.randint(1, 5)), rand_graph(rng, rng.randint(1, 5))
        assert brute_force_poly(union(g, h)) == brute_force_poly(union(h, g))
        assert brute_force_poly(join(g, h)) == brute_force_poly(join(h, g))


def test_brute_force_at_scale_matches_closed_forms():
    # up to the 26-vertex budget; the matching (i, i + 13) and star:25 keep
    # every high-half subset, each with its own cover, while the families,
    # paths and cycles share few covers
    matching = Graph(26, [(i, i + 13) for i in range(13)])
    assert brute_force_poly(matching) == P([0, 2, 1]) ** 13
    for kind, n in (("friendship", 10), ("book", 9), ("star", 25),
                    ("book", 12), ("friendship", 12), ("path", 26), ("cycle", 26)):
        spec = FamilySpec(kind, n)
        assert brute_force_poly(build_family(spec)) == family_poly(spec)
