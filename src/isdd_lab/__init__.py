"""Exact computation and brute-force verification of the inverse symmetric
division deg index and companion degree-based graph invariants."""

from .graphs import (
    Bipartition,
    EdgeListError,
    Graph,
    Graph6Error,
    GraphError,
    bipartition,
    count_degree_pair_edges,
    is_connected,
    parse_edge_list,
    parse_graph6,
    write_graph6,
)
from .indices import (
    IndexVector,
    edge_term_isdd,
    forgotten,
    fraction_str,
    geometric_arithmetic,
    index_vector,
    isdd,
    sdd,
    zagreb1,
    zagreb2,
)
from .bounds import (
    ALL_BOUND_IDS,
    BoundId,
    BoundReport,
    SkippedBound,
    claim1_chain,
    edge_min_term,
    edge_second_min_term,
    evaluate_all,
    ga_lower_simple,
    ga_m2_lower,
    lower_bound_ell,
    m1_f_lower,
    remark_ordering,
    tree_edge_lower,
    upper_bound_k,
    upper_bound_n_delta,
)
from .classify import (
    GraphClassLabel,
    classify,
    edge_ratio_constant,
    in_gamma1,
    in_gamma2,
    in_gamma3,
    is_regular,
    is_semiregular_bipartite,
)
from .enumeration import (
    EqualityDiscrepancy,
    StreamError,
    SweepConfig,
    SweepReport,
    Violation,
    canonical_form,
    labeled_graphs,
    labeled_trees,
    run_sweep,
    stream_graph6,
)

__version__ = "0.1.0"
