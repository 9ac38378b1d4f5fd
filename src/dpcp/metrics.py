"""Run accounting: counters, anytime traces, and the optimality gap."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple

from .cost import Cost, cost_to_json, is_finite


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

    An expansion is a popped, non-stale, non-base state that was not
    pruned; it counts once whether its successors were enumerated or, in
    CABS, replayed from an earlier pop of the state.  A state pruned by its
    propagated store counts in ``pruned_by_cp`` instead, and one pruned on
    its own ``f`` (in every propagation mode) in ``pruned_by_f``.
    ``pops`` counts each of those pops, not a base pop, a stale skip or the
    pop at which a limit fires: ``expansions + pruned_by_f`` with
    propagation off.  ``generated`` counts successor candidates handed to
    the admission test, and ``dominated`` those of them that the
    registry's dominance test dropped before they were bounded.  In CABS,
    ``reused`` counts the pops, in every propagation mode, that found
    their state's expansion kept from an earlier pop in this pass or the
    last: with propagation on, each other pop builds and propagates its CP
    model (``propagation_calls``), so the pops number ``propagation_calls
    + reused``; a kept store is replayed under any incumbent, as ``build``
    reads the state alone.  ``peak_kept_children`` is the largest number
    of successors those kept expansions held at once (0 in A*).
    ``peak_stored`` is the largest number of search nodes the registry
    stored at once (in CABS, the largest over its passes).  Traces carry
    wall-clock offsets; incumbent costs are strictly decreasing and dual
    bounds non-decreasing.
    """

    expansions: int = 0
    generated: int = 0
    dominated: int = 0
    pruned_by_cp: int = 0
    pruned_by_f: int = 0
    pops: int = 0
    propagation_calls: int = 0
    reused: int = 0
    peak_kept_children: int = 0
    peak_stored: int = 0
    propagation_time: float = 0.0
    base_pops: int = 0
    stale_skips: int = 0
    incumbent_trace: List[Tuple[float, Cost]] = field(default_factory=list)
    dual_trace: List[Tuple[float, Cost]] = field(default_factory=list)
    beam_widths: List[int] = field(default_factory=list)
    final_gap: float = 1.0

    def to_json(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        for name in ("incumbent_trace", "dual_trace"):
            out[name] = [[t, cost_to_json(c)] for t, c in out[name]]
        out["beam_widths"] = list(self.beam_widths)
        return out
