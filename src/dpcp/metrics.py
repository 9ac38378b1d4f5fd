"""Run accounting: counters, anytime traces, and the optimality gap."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .cost import Cost, is_finite


class NegativeGap(Exception):
    """Dual bound exceeded the primal bound: a solver bug, abort the run."""


def optimality_gap(primal: Optional[Cost], dual: Cost) -> float:
    """Relative distance between incumbent and dual bound.

    1.0 with no incumbent, ``(primal - dual) / max(1, primal)`` otherwise.
    Proven infeasibility is a gap of 0.0, but that case is decided by the
    caller (this function never sees it).
    """
    if primal is None or not is_finite(primal):
        return 1.0
    if not is_finite(dual) or dual > primal:
        raise NegativeGap(f"dual {dual!r} exceeds primal {primal!r}")
    return (primal - dual) / max(1, primal)


@dataclass
class RunMetrics:
    """Counters and anytime traces for one solve.

    An expansion is a popped, non-stale, non-base state whose successor
    enumeration actually ran; states short-circuited by propagation
    (infeasible or bound-pruned before enumerating) are counted in
    ``pruned_by_cp`` instead.  ``generated`` counts successor candidates
    handed to the admission test.  With propagation on, each popped,
    non-stale, non-base state either builds and propagates its CP model
    (``propagation_calls``) or, in CABS, reuses what propagation found for
    it earlier under the same incumbent (``reused``).  Traces carry
    wall-clock offsets;
    incumbent costs are strictly decreasing and dual bounds non-decreasing.
    """

    expansions: int = 0
    generated: int = 0
    pruned_by_cp: int = 0
    propagation_calls: int = 0
    reused: int = 0
    propagation_time: float = 0.0
    base_pops: int = 0
    stale_skips: int = 0
    incumbent_trace: List[Tuple[float, Cost]] = field(default_factory=list)
    dual_trace: List[Tuple[float, Cost]] = field(default_factory=list)
    beam_widths: List[int] = field(default_factory=list)
    final_gap: float = 1.0

    def to_json(self) -> dict:
        from .cost import cost_to_json

        return {
            "expansions": self.expansions,
            "generated": self.generated,
            "pruned_by_cp": self.pruned_by_cp,
            "propagation_calls": self.propagation_calls,
            "reused": self.reused,
            "propagation_time": self.propagation_time,
            "base_pops": self.base_pops,
            "stale_skips": self.stale_skips,
            "incumbent_trace": [[t, cost_to_json(c)] for t, c in self.incumbent_trace],
            "dual_trace": [[t, cost_to_json(c)] for t, c in self.dual_trace],
            "beam_widths": list(self.beam_widths),
            "final_gap": self.final_gap,
        }
