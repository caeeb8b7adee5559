"""Neighborhood reconstruction and direct-product cancellation for small graphs.

The central objects: a graph's neighborhood multiset, the anti-automorphisms
that realize every graph sharing it, the permuted graphs G^a they induce, and
the deciders/oracles that settle whether a graph is determined by its
neighborhoods (equivalently, cancels in direct products).

The verification layer, ``VerificationReport``, ``verify_theorems`` and the
brute-force oracles (``neighborhood_oracle``, ``cancellation_oracle``,
``cancellation_counterexample``, ``product_iso_witness``,
``extract_anti_from_product_iso``), loads on first use: ``oracle.py`` is the
largest module of the package, and the per-graph path (``parse_graph`` ->
``classify``) never runs it, so ``import cancelgraph`` does not compile it.
Each access resolves the name in ``cancelgraph.oracle`` anew and nothing is
cached here, so a name rebound in that module (by a test's patch or a
tracer) is what the package hands out, and unbinding it restores the
original everywhere.
"""

from typing import TYPE_CHECKING

from .antiauto import (
    AntOrbitPartition,
    TwoFoldPair,
    act,
    ant_orbits,
    apply_anti,
    enumerate_ant,
    enumerate_aut_tf,
    is_anti_automorphism,
    is_two_fold,
    permuted_digraph,
)
from .decide import (
    AnalysisReport,
    bipartite_cancellation_decider,
    bipartite_reversal_witness,
    classify,
    is_cancellation_graph,
    is_neighborhood_reconstructible,
    is_strongly_reconstructible,
    reconstruction_counterexample,
    strong_counterexample,
)
from .errors import (
    CancelGraphError,
    CapacityError,
    InvalidActionError,
    InvalidAntiError,
    InvariantViolationError,
    ParseError,
    UsageError,
)
from .fileformat import (
    format_permutation,
    parse_graph,
    parse_graph_file,
    parse_permutation,
    serialize_graph,
)
from .graphs import (
    Digraph,
    Graph,
    NeighborhoodMultiset,
    Permutation,
    RPartition,
    disjoint_union,
    enumerate_labeled_graphs,
    neighborhood,
    neighborhood_multiset,
    r_partition,
)
from .iso import (
    Certificate,
    automorphisms,
    canonical_form,
    canonical_graph,
    find_isomorphism,
    has_involution,
    involution_witness,
    is_isomorphic,
)
from .product import Bipartition, bipartition, components, direct_product, is_bipartite

# Never run: type checkers read these names from here, and so does any tool
# that scans the package's relative imports for its cross-module names.
if TYPE_CHECKING:
    from .oracle import (
        VerificationReport,
        cancellation_counterexample,
        cancellation_oracle,
        extract_anti_from_product_iso,
        neighborhood_oracle,
        product_iso_witness,
        verify_theorems,
    )

_ORACLE_NAMES = frozenset({
    "VerificationReport",
    "cancellation_counterexample",
    "cancellation_oracle",
    "extract_anti_from_product_iso",
    "neighborhood_oracle",
    "product_iso_witness",
    "verify_theorems",
})

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "AntOrbitPartition",
    "Bipartition",
    "CancelGraphError",
    "CapacityError",
    "Certificate",
    "Digraph",
    "Graph",
    "InvalidActionError",
    "InvalidAntiError",
    "InvariantViolationError",
    "NeighborhoodMultiset",
    "ParseError",
    "Permutation",
    "RPartition",
    "TwoFoldPair",
    "UsageError",
    "VerificationReport",
    "act",
    "ant_orbits",
    "apply_anti",
    "automorphisms",
    "bipartite_cancellation_decider",
    "bipartite_reversal_witness",
    "bipartition",
    "cancellation_counterexample",
    "cancellation_oracle",
    "canonical_form",
    "canonical_graph",
    "classify",
    "components",
    "direct_product",
    "disjoint_union",
    "enumerate_ant",
    "enumerate_aut_tf",
    "enumerate_labeled_graphs",
    "extract_anti_from_product_iso",
    "find_isomorphism",
    "format_permutation",
    "has_involution",
    "involution_witness",
    "is_anti_automorphism",
    "is_bipartite",
    "is_cancellation_graph",
    "is_isomorphic",
    "is_neighborhood_reconstructible",
    "is_strongly_reconstructible",
    "is_two_fold",
    "neighborhood",
    "neighborhood_multiset",
    "neighborhood_oracle",
    "parse_graph",
    "parse_graph_file",
    "parse_permutation",
    "permuted_digraph",
    "product_iso_witness",
    "r_partition",
    "reconstruction_counterexample",
    "serialize_graph",
    "strong_counterexample",
    "verify_theorems",
]


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _ORACLE_NAMES)
