"""Dynamic-programming heuristic search with constraint-propagation pruning.

A solver library pairing state-based dynamic-programming models (dominance,
dual bounds, A*/CABS search) with a small constraint-propagation engine
that prunes states and transitions and strengthens heuristic bounds, plus
three ready models: single-machine weighted tardiness, resource-constrained
project scheduling, and the travelling salesperson with time windows.
"""

from .core import (
    DepthExceeded,
    DpModel,
    InvalidTransition,
    NotBase,
    SolveLimits,
    SolveResult,
    SolveStatus,
    brute_force_value,
    enumerate_state_values,
    evaluate_solution,
)
from .cost import Cost, CostOverflow, INFINITY, add, is_finite
from .cp_engine import (
    AdapterFailure,
    Cumulative,
    Disjunctive,
    DomainStore,
    PrecedenceLe,
    PropagationAdapter,
    propagate_fixpoint,
    propagate_once,
)
from .metrics import NegativeGap, RunMetrics, optimality_gap
from .search import (
    PropagationMode,
    Registry,
    SearchNode,
    astar,
    cabs,
)

__version__ = "0.1.0"

__all__ = [
    "AdapterFailure",
    "Cost",
    "CostOverflow",
    "Cumulative",
    "DepthExceeded",
    "Disjunctive",
    "DomainStore",
    "DpModel",
    "INFINITY",
    "InvalidTransition",
    "NegativeGap",
    "NotBase",
    "PrecedenceLe",
    "PropagationAdapter",
    "PropagationMode",
    "Registry",
    "RunMetrics",
    "SearchNode",
    "SolveLimits",
    "SolveResult",
    "SolveStatus",
    "add",
    "astar",
    "brute_force_value",
    "cabs",
    "enumerate_state_values",
    "evaluate_solution",
    "is_finite",
    "optimality_gap",
    "propagate_fixpoint",
    "propagate_once",
]
