"""Local maximum stable sets, very well-covered graphs, and greedoids on small graphs.

A set S of vertices is a local maximum stable set when it is a maximum
stable set of the subgraph induced by its closed neighbourhood.  This
package enumerates those families, decides whether they satisfy the
greedoid axioms, and — for very well-covered graphs — decides the same
question through the unique-perfect-matching criterion, with brute-force
oracles and corpus sweeps to back every shortcut.
"""

from .graphs import (
    CapacityError,
    DuplicateEdgeError,
    Edge,
    Graph,
    MalformedLineError,
    MismatchError,
    ParseError,
    SelfLoopError,
    UsageError,
    VertexRangeError,
    VertexSet,
    closed_neighborhood,
    complete,
    corona,
    cycle,
    empty_graph,
    girth,
    induced_subgraph,
    is_connected,
    neighborhood,
    parse_edge_list,
    parse_edge_lists,
    path,
    serialize,
    serialize_many,
)
from .fixtures import fixture, fixture_names, named_edges
from .stability import (
    StableSetFamily,
    alpha,
    extends_to_maximum,
    is_stable,
    omega_enumerate,
    psi_enumerate,
    psi_member_oracle,
)
from .matching import (
    AlternatingCycle,
    Matching,
    check_property_p,
    count_perfect_matchings,
    enumerate_alternating_cycles,
    enumerate_matchings,
    enumerate_maximum_matchings,
    enumerate_perfect_matchings,
    find_alternating_c4,
    find_alternating_cycle,
    has_unique_perfect_matching,
    is_uniquely_restricted,
    mu,
)
from .classifiers import (
    has_isolated_vertices,
    has_pendant_perfect_matching,
    is_bipartite,
    is_c4_free,
    is_forest,
    is_koenig_egervary,
    is_triangle_free,
    is_very_well_covered,
    is_well_covered,
    maximal_stable_sets,
    psi_neighborhoods_are_ke,
)
from .greedoid import (
    AccessibilityChain,
    GreedoidVerdict,
    SetSystem,
    accessibility_chain,
    check_accessibility,
    check_exchange,
    is_greedoid,
    matching_from_chains,
    psi_is_greedoid,
)
from .corpus import (
    CorpusSpec,
    canonical_graph,
    canonical_key,
    connected_graphs,
    corona_family,
    iter_corpus,
    nonisomorphic_graphs,
    nonisomorphic_trees,
    random_graphs,
)
from .report import ClassificationReport, analyze_graph, render_text
from .theorems import RULES, VerificationSummary, Violation, verify

__version__ = "0.1.0"
