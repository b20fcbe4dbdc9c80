"""Approximation solvers for two-size makespan scheduling with machine
eligibility constraints, with exact-rational certificates throughout.

The package exports the solve pipeline and the types it returns; every other
name (the flow kernel, the reductions, the roundings, the bound arithmetic)
is imported from its submodule.
"""

from .bounds import GuaranteeReport
from .fileio import FileFormatError, parse_instance
from .graph_balancing import gb_solve_two_valued
from .model import (
    Instance,
    ScaledInstance,
    Schedule,
    is_graph_balancing,
    makespan,
    normalize,
    scale_to_integer,
)
from .oracle import BudgetExceeded, OracleResult, brute_force_opt
from .twovalued import SolveResult, solve_two_valued
from .unitk import UnitKSolution, solve_unit_k

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "FileFormatError",
    "GuaranteeReport",
    "Instance",
    "OracleResult",
    "ScaledInstance",
    "Schedule",
    "SolveResult",
    "UnitKSolution",
    "brute_force_opt",
    "gb_solve_two_valued",
    "is_graph_balancing",
    "makespan",
    "normalize",
    "parse_instance",
    "scale_to_integer",
    "solve_two_valued",
    "solve_unit_k",
]
