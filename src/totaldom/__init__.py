"""Exact domination toolkit: solvers, bounds, families, and verification."""

from .bounds import (
    BOUND_IDS,
    BoundReport,
    CircularValue,
    StarMatchingShape,
    achieves_extremal,
    all_bounds,
    circular_gamma_t,
    is_extremal_tree,
    path_cycle_formula,
    recognize_star_plus_matching,
)
from .domination import (
    DominationResult,
    SolverConfig,
    SolverStats,
    Strategy,
    gamma,
    gamma_t,
    greedy_total_dominating,
    is_dominating,
    is_total_dominating,
)
from .errors import (
    DomainTooLarge,
    EdgeListFormatError,
    InvalidFamily,
    NotATree,
    OutOfDomain,
    OutOfRange,
    RejectedEdge,
    ResourceExhausted,
    ToolkitError,
    UndefinedValue,
)
from .families import (
    FamilyKind,
    FamilySpec,
    SplitMix64,
    generate,
    isomorphism_classes,
    parse_family_range,
    prufer_decode,
)
from .graph import (
    INFINITE,
    Graph,
    StructuralProfile,
    format_edge_list,
    new_graph,
    parse_edge_list,
    profile,
    read_edge_list,
    write_edge_list,
)
from .verify import (
    TheoremId,
    VerificationReport,
    random_graph_specs,
    random_tree_specs,
    scan_bound_claims,
    sweep,
    sweep_csv,
    verify,
    verify_all,
)
from .vertexset import MAX_CAPACITY, VertexSet

__version__ = "0.1.0"
