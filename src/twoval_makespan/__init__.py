"""Approximation solvers for two-size makespan scheduling with machine
eligibility constraints, with exact-rational certificates throughout."""

from .bounds import (
    GuaranteeReport,
    gb_ratio_expressions,
    gb_worst_case_alpha,
    guarantee_report,
    lift_factors,
    ratio_expressions,
    worst_case_alpha,
)
from .fileio import FileFormatError, format_instance, parse_instance
from .flow import (
    FlowNetwork,
    FlowSolution,
    FractionalAssignment,
    build_network,
    extract_assignment,
    max_flow_integral,
    min_feasible_T,
)
from .generator import generate_instance, random_instance
from .graph_balancing import (
    HalfEdgeGraph,
    gb_forest_round,
    gb_perfect_matching_opt1,
    gb_solve_two_valued,
    gb_solve_unit_k,
    orient_components,
)
from .lenstra import (
    LenstraSolution,
    cancel_cycles,
    fractional_assign_plain,
    lenstra_solve,
    round_forest,
)
from .model import (
    Instance,
    Job,
    Rational,
    ScaledInstance,
    Schedule,
    is_graph_balancing,
    machine_loads,
    makespan,
    normalize,
    scale_to_integer,
    validate,
)
from .oracle import (
    DEFAULT_NODE_BUDGET,
    BudgetExceeded,
    OracleResult,
    brute_force_opt,
    enumerate_opt,
    verify_ratio,
)
from .twovalued import ReducedInstance, SolveResult, build_reduced, solve_two_valued
from .unitk import UnitKSolution, match_big_jobs, solve_unit_k

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "DEFAULT_NODE_BUDGET",
    "FileFormatError",
    "FlowNetwork",
    "FlowSolution",
    "FractionalAssignment",
    "GuaranteeReport",
    "HalfEdgeGraph",
    "Instance",
    "Job",
    "LenstraSolution",
    "OracleResult",
    "Rational",
    "ReducedInstance",
    "ScaledInstance",
    "Schedule",
    "SolveResult",
    "UnitKSolution",
    "build_network",
    "build_reduced",
    "brute_force_opt",
    "cancel_cycles",
    "enumerate_opt",
    "extract_assignment",
    "format_instance",
    "fractional_assign_plain",
    "gb_forest_round",
    "gb_perfect_matching_opt1",
    "gb_ratio_expressions",
    "gb_solve_two_valued",
    "gb_solve_unit_k",
    "gb_worst_case_alpha",
    "generate_instance",
    "guarantee_report",
    "is_graph_balancing",
    "lenstra_solve",
    "lift_factors",
    "machine_loads",
    "makespan",
    "match_big_jobs",
    "max_flow_integral",
    "min_feasible_T",
    "normalize",
    "orient_components",
    "parse_instance",
    "random_instance",
    "ratio_expressions",
    "round_forest",
    "scale_to_integer",
    "solve_two_valued",
    "solve_unit_k",
    "validate",
    "verify_ratio",
    "worst_case_alpha",
]
