"""Model contract for state-transition dynamic programs.

A model describes a minimisation problem as a state-transition system: a
solution is a sequence of labelled transitions from the target state to a
base state, and its cost is the sum of transition weights plus the base
cost.  Models also supply a dominance relation (used for duplicate
detection) and an admissible dual bound (used as the search heuristic).

This module holds the abstract contract, replay validation of solutions,
a memoized exhaustive recursion used as a verification oracle by the test
suites, and the set-bit iterator the bitmask models share.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Hashable, List, Optional, Sequence, Tuple

from .cost import Cost, INFINITY, add

# Transition labels are problem-specific small integers (job/task/location
# index); they must be stable across a solve so solutions can be replayed.
Label = int


def iter_bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class InvalidTransition(Exception):
    """A replayed label is not applicable at its step."""

    def __init__(self, step: int, label=None):
        self.step = step
        self.label = label
        super().__init__(f"label {label!r} not applicable at step {step}")


class NotBase(Exception):
    """A replayed sequence ended on a non-base state."""


class DepthExceeded(Exception):
    """The exhaustive oracle hit its recursion cap; instance too large."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"exhaustive recursion exceeded depth cap {cap}")


class DpModel(ABC):
    """Contract a problem model implements for the solvers.

    States must be immutable and hashable.  ``successors`` must never yield
    a state equal to its input, ``dominates`` must be reflexive and
    transitive among states with equal signature, and ``dual`` must never
    exceed the true optimal remaining cost of a reachable state.
    """

    @abstractmethod
    def target_state(self) -> Any:
        """Initial state of the recursion."""

    @abstractmethod
    def is_base(self, state) -> bool:
        """True when the recursion terminates at ``state``."""

    @abstractmethod
    def base_cost(self, state) -> Cost:
        """Terminal cost of a base state (may be infinite)."""

    @abstractmethod
    def successors(self, state) -> List[Tuple[Cost, Label, Any]]:
        """Ordered ``(weight, label, state)`` transitions out of ``state``.

        An empty list marks a dead end (no solution through ``state``).  A
        model may omit a child that has no feasible completion, as a DIDP
        state constraint drops a violating state when it is generated.
        """

    @abstractmethod
    def dominates(self, a, b) -> bool:
        """True when ``a`` provably solves at least as cheaply as ``b``.

        Only called for states with equal ``state_signature``.
        """

    @abstractmethod
    def dual(self, state, floor: Optional[Sequence[int]] = None) -> Cost:
        """Admissible lower bound on the optimal remaining cost.

        ``floor``, if given, is a propagated store's ``lbs``: a valid
        earliest start per variable, by the model's own ids.  A model may
        raise each pending variable's earliest start to ``floor[i]`` or
        ignore the floor; a floor never weakens the bound.
        """

    @abstractmethod
    def state_signature(self, state) -> Hashable:
        """Bucket key; dominance is only checked within one bucket."""

    def root_cost(self) -> Cost:
        """Path cost charged to the target state before any transition.

        Zero for most models; a model whose weights telescope against a
        nonzero initial estimate charges that estimate here so reported
        costs equal the natural objective.
        """
        return 0


class SolveStatus(enum.Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    TIME_LIMIT = "TimeLimit"
    MEMORY_LIMIT = "MemoryLimit"
    EXPANSION_LIMIT = "ExpansionLimit"


@dataclass(frozen=True)
class SolveLimits:
    """Resource limits for one solve.

    ``memory_limit`` is in bytes and is enforced against a fixed per-node
    estimate of solver bookkeeping, not real process memory.  An
    ``expansion_cap`` of 0 is allowed and forbids any expansion.  A limit
    that is not a positive finite number (for the cap, an ``int`` >= 0),
    or that is a boolean, raises a ``ValueError`` naming the field.
    """

    time_limit: Optional[float] = None
    memory_limit: Optional[int] = None
    expansion_cap: Optional[int] = None

    def __post_init__(self):
        # ``bool`` subclasses ``int``, and ``not 0 < x < inf`` also rejects
        # NaN, which no elapsed time would reach.
        for name in ("time_limit", "memory_limit"):
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not 0 < value < float("inf"):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        cap = self.expansion_cap
        if cap is not None and (isinstance(cap, bool) or not isinstance(cap, int) or cap < 0):
            raise ValueError(f"expansion_cap must be an integer >= 0, got {cap!r}")


@dataclass
class SolveResult:
    """Outcome of a solve.

    ``incumbent`` is ``(cost, labels)`` for the best solution found; its
    label sequence replays from the target state to a base state with a
    total cost equal to the reported cost.  ``root_dual`` is the best dual
    bound established for the target state: the optimum once it is proven,
    ``INFINITY`` once infeasibility is.
    """

    status: SolveStatus
    incumbent: Optional[Tuple[Cost, Tuple[Label, ...]]]
    root_dual: Cost
    metrics: Any = None

    @property
    def cost(self) -> Optional[Cost]:
        return self.incumbent[0] if self.incumbent is not None else None

    @property
    def solution(self) -> Optional[Tuple[Label, ...]]:
        return self.incumbent[1] if self.incumbent is not None else None


def evaluate_solution(model: DpModel, seq: Sequence[Label]) -> Cost:
    """Replay ``seq`` from the target state and return its exact cost.

    Each label must appear among the successors of the current state
    (otherwise ``InvalidTransition``), and the final state must be a base
    state (otherwise ``NotBase``).  The returned cost includes the model's
    root charge, all transition weights, and the base cost, so it is
    directly comparable to solver-reported incumbent costs.
    """
    state = model.target_state()
    total: Cost = model.root_cost()
    for step, label in enumerate(seq):
        if model.is_base(state):
            raise InvalidTransition(step, label)
        match = None
        for weight, lbl, succ in model.successors(state):
            if lbl == label:
                match = (weight, succ)
                break
        if match is None:
            raise InvalidTransition(step, label)
        total = add(total, match[0])
        state = match[1]
    if not model.is_base(state):
        raise NotBase("replayed sequence did not reach a base state")
    return add(total, model.base_cost(state))


def brute_force_value(model: DpModel, state, depth_cap: int = 64) -> Cost:
    """Exact optimal remaining cost of ``state`` by exhaustive recursion.

    Returns ``INFINITY`` when no base state is reachable.  Raises
    ``DepthExceeded`` if any path needs more than ``depth_cap``
    transitions, signalling the instance is too large for this oracle.
    Does not include the model's root charge.
    """
    return enumerate_state_values(model, depth_cap, state)[state]


def enumerate_state_values(model: DpModel, depth_cap: int = 64, start=None):
    """All states reachable from ``start`` (the target state by default)
    with their exact values.

    Returns ``{state: value}`` including base states, memoizing on exact
    state equality; a dead end is worth ``INFINITY``.  Used by invariant
    suites that check dual bounds and dominance against the oracle.
    """
    values: dict = {}

    def rec(s, depth: int) -> Cost:
        if s in values:
            return values[s]
        if model.is_base(s):
            values[s] = model.base_cost(s)
            return values[s]
        if depth >= depth_cap:
            raise DepthExceeded(depth_cap)
        best: Cost = INFINITY
        for weight, _label, succ in model.successors(s):
            value = add(weight, rec(succ, depth + 1))
            if value < best:
                best = value
        values[s] = best
        return best

    rec(model.target_state() if start is None else start, 0)
    return values
