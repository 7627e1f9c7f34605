"""Exact domination polynomials of graphs, their roots, and root limit curves.

The package computes D(G,x) = sum_i d(G,i) x^i, where d(G,i) counts the
dominating sets of G of size i, three independent ways (brute force,
recurrences, closed family formulas), analyzes the roots (multiprecision
complex solving, exact real-root isolation, exact integer roots), traces
limit curves of root sequences for two- and three-term exponential families,
and partitions graph catalogs into classes with equal polynomials.

Five exported names have no caller inside the package: `union`, `join` and
`corona` build the graphs whose polynomials the closed-form product rules
(`D(G ∪ H) = D(G)·D(H)`, `join_poly`, `corona_poly`) predict, and
`is_dominating` with `bitset` is the subset-by-subset oracle that the brute
force is tested against.  They are the graph side of those identities.
"""

from .domination import (
    BRUTE_FORCE_BUDGET_BITS,
    EnumerationBudgetError,
    ExponentialFamily,
    book_family,
    brute_force_poly,
    corona_family_poly,
    corona_poly,
    family_member,
    family_poly,
    friendship_family,
    join_poly,
    recurrence_poly_odot,
    recurrence_poly_vertex,
    restricted_count,
)
from .equivalence import (
    EquivalenceReport,
    NonUniquenessWitness,
    bundled_catalog,
    partition_catalog,
    verify_friendship_not_unique,
)
from .graphs import (
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
from .polynomials import (
    DEFAULT_PRECISION,
    IntPolynomial,
    exact_div,
    poly_gcd,
)
from .roots import (
    ComplexRoot,
    ConvergenceError,
    RootSet,
    all_roots,
    count_real_roots_in,
    integer_roots,
    real_roots_exact,
    square_free_decomposition,
    square_free_part,
)

__all__ = [
    "BRUTE_FORCE_BUDGET_BITS",
    "ComplexRoot",
    "ConvergenceError",
    "CurvePiece",
    "DEFAULT_PRECISION",
    "EnumerationBudgetError",
    "EquivalenceReport",
    "ExponentialFamily",
    "FamilySpec",
    "Graph",
    "Graph6ParseError",
    "GridRegion",
    "IntPolynomial",
    "LimitCurve",
    "NonUniquenessWitness",
    "RootSet",
    "all_roots",
    "bitset",
    "bkw_limit_points",
    "book_family",
    "book_limit_curve",
    "brute_force_poly",
    "build_family",
    "bundled_catalog",
    "contract",
    "corona",
    "corona_family_poly",
    "corona_poly",
    "count_real_roots_in",
    "delete_closed_neighborhood",
    "delete_vertex",
    "distance_to_curve",
    "exact_div",
    "family_member",
    "family_poly",
    "friendship_family",
    "friendship_limit_curve",
    "integer_roots",
    "is_dominating",
    "join",
    "join_poly",
    "odot",
    "parse_graph6",
    "partition_catalog",
    "poly_gcd",
    "real_roots_exact",
    "recurrence_poly_odot",
    "recurrence_poly_vertex",
    "restricted_count",
    "square_free_decomposition",
    "square_free_part",
    "union",
    "verify_friendship_not_unique",
    "write_graph6",
]

__version__ = "0.1.0"

# `limits` and its names load on first access (PEP 562), and numpy with
# them, so that `import dompoly` and the CLI start without numpy
_LIMITS_NAMES = frozenset((
    "CurvePiece", "GridRegion", "LimitCurve", "bkw_limit_points",
    "book_limit_curve", "distance_to_curve", "friendship_limit_curve"))


def __getattr__(name: str):
    if name == "limits" or name in _LIMITS_NAMES:
        # not `from . import limits`, which asks this hook for "limits" again
        import importlib

        limits = importlib.import_module(f"{__name__}.limits")
        return limits if name == "limits" else getattr(limits, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "limits", *_LIMITS_NAMES})
