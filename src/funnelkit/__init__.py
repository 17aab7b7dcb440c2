"""Funnel recognition, arc deletion distance, and instance generation.

A funnel is a DAG in which every source-to-sink path uses at least one
arc that no other source-to-sink path uses.  This package recognizes
funnels, certifies non-funnels with a forbidden subgraph witness, and
computes the minimum number of arc deletions needed to turn a DAG into
a funnel, both exactly and with a factor-2 approximation.
"""

from .analysis import (
    ForbiddenWitness,
    NotAFunnel,
    PathCounts,
    extremal_funnel,
    find_forbidden_witness,
    funnel_labeling,
    is_funnel_degree,
    is_funnel_private_arc,
    max_arc_bound,
    path_counts,
    verify_funnel_labeling,
)
from .approx import (
    ApproxResult,
    approximate_addf,
    arc_deletion_set,
    assign_labels_greedy,
    greedy_relabel,
)
from .bench import GridSpec, Report, analyze, run_grid, summarize, write_csv
from .exact import (
    ExactResult,
    Solver,
    SolverStats,
    lower_bound,
    solve_addf,
)
from .generator import (
    CnfFormula,
    GenParams,
    InvalidFormula,
    NotEnoughSlots,
    SplitMix64,
    add_noise_arcs,
    derive_seed,
    generate_planted_funnel,
    parse_dimacs,
    planted_instance,
    reduce_3sat,
)
from .graph import (
    Arc,
    ArcNotPresent,
    ArcSet,
    CycleDetected,
    Dag,
    DuplicateArc,
    GraphError,
    MalformedLine,
    SelfLoop,
    condense_scc,
    delete_arcs,
    emit_dot,
    emit_edge_list,
    parse_edge_list,
    read_arc_list,
    topological_order,
)
from .labeling import Label, Labeling, PartialLabeling
from .oracles import (
    TooLarge,
    brute_force_addf,
    is_funnel_by_path_enumeration,
    labeling_enumeration_addf,
    sat_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "ArcNotPresent",
    "ArcSet",
    "ApproxResult",
    "CnfFormula",
    "CycleDetected",
    "Dag",
    "DuplicateArc",
    "ExactResult",
    "ForbiddenWitness",
    "GenParams",
    "GraphError",
    "GridSpec",
    "InvalidFormula",
    "Label",
    "Labeling",
    "MalformedLine",
    "NotAFunnel",
    "NotEnoughSlots",
    "PartialLabeling",
    "PathCounts",
    "Report",
    "SelfLoop",
    "Solver",
    "SolverStats",
    "SplitMix64",
    "TooLarge",
    "add_noise_arcs",
    "analyze",
    "approximate_addf",
    "arc_deletion_set",
    "assign_labels_greedy",
    "brute_force_addf",
    "condense_scc",
    "delete_arcs",
    "derive_seed",
    "emit_dot",
    "emit_edge_list",
    "extremal_funnel",
    "find_forbidden_witness",
    "funnel_labeling",
    "generate_planted_funnel",
    "greedy_relabel",
    "is_funnel_by_path_enumeration",
    "is_funnel_degree",
    "is_funnel_private_arc",
    "labeling_enumeration_addf",
    "lower_bound",
    "max_arc_bound",
    "parse_dimacs",
    "parse_edge_list",
    "path_counts",
    "planted_instance",
    "read_arc_list",
    "reduce_3sat",
    "run_grid",
    "sat_oracle",
    "solve_addf",
    "summarize",
    "topological_order",
    "verify_funnel_labeling",
    "write_csv",
]
