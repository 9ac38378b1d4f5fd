"""Best-first and anytime-beam solvers over the model contract.

Both drivers keep a registry of the search nodes of encountered states,
bucketed by state signature; the node is the only record of a state.
Each generated successor is admitted in this order, cheapest test first:

1. its path cost ``g`` and state signature are computed;
2. it is dropped if a registered node dominates it at no larger ``g``;
3. otherwise its bound ``f`` is ``g`` plus the larger of the model dual
   and the CP dual bound; the CP dual is computed only when propagation
   is on and ``g`` plus the model dual does not exceed the incumbent (so
   the CP dual cannot rescue a child the model dual already rejects);
4. only if ``f <= primal`` is its search node created, the registered
   nodes it dominates evicted (marked stale), and the node stored.

With propagation enabled, the expanded state's CP model is built and
propagated once (or to a fixed point); the state can be pruned outright by
infeasibility or by its CP dual bound against the incumbent, and surviving
successors are filtered individually.  The CP dual of a successor is
evaluated under the parent's propagated domains, which remain valid for
every successor.
"""

from __future__ import annotations

import enum
import itertools
import time
from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

from .core import DpModel, SolveLimits, SolveResult, SolveStatus
from .cost import Cost, INFINITY, add
from .cp_engine import PropagationAdapter, propagate_fixpoint, propagate_once
from .metrics import RunMetrics, optimality_gap

# Fixed per-node bookkeeping estimate used for the memory limit.  Measured
# as the ``tracemalloc`` peak of a solve over its peak registry size
# (``perfbench/run.py --trace 1``, seed 1, CPython 3.11 on x86-64), a
# stored node costs 410-448 B for smswt, 485-525 B for tsptw and 419-427 B
# for rcpsp, with propagation off and on: the estimate is up to 25% high
# and up to 3% low.
NODE_ESTIMATE_BYTES = 512


class PropagationMode(enum.Enum):
    OFF = "off"
    ONCE = "once"
    FIXPOINT = "fixpoint"


class SearchNode:
    """Search node: state, path cost ``g``, bound ``f`` on the cost of any
    solution through it, and parent link."""

    __slots__ = ("state", "g", "f", "parent", "label", "seq", "stale")

    def __init__(self, state, g: Cost, f: Cost, parent=None, label=None, seq: int = 0):
        self.state = state
        self.g = g
        self.f = f
        self.parent = parent
        self.label = label
        self.seq = seq
        self.stale = False

    def path_labels(self) -> Tuple[int, ...]:
        labels = []
        node = self
        while node.parent is not None:
            labels.append(node.label)
            node = node.parent
        labels.reverse()
        return tuple(labels)


class Registry:
    """Dominance-aware duplicate detection, bucketed by state signature.

    The buckets hold the admitted search nodes themselves.  ``register`` is
    the single admission step: it tests dominance first and builds the
    node only for a state that survives it.
    """

    def __init__(self):
        self._buckets = {}
        self.size = 0

    def register(
        self, model: DpModel, state, g: Cost, build: Callable[[], Optional[SearchNode]]
    ) -> Optional[SearchNode]:
        """Admit ``state`` at path cost ``g``, or return None.

        The state is rejected if a stored node dominates it at no larger
        path cost; this test has no side effects.  Only then is ``build``
        called: it returns the state's node, or None to decline the state
        (a child whose ``f`` exceeds the incumbent), and then nothing is
        stored or evicted.  On admission the stored nodes that the state
        dominates at no larger cost are evicted and marked stale, so that
        the drivers skip them lazily.  Returns the admitted node.
        """
        sig = model.state_signature(state)
        bucket = self._buckets.get(sig)
        if bucket is not None:
            for old in bucket:
                if old.g <= g and model.dominates(old.state, state):
                    return None
        node = build()
        if node is None:
            return None
        if bucket is None:
            # An exact-size list: appending to an empty one would reserve
            # room for four entries in every new bucket.
            self._buckets[sig] = [node]
            self.size += 1
            return node
        kept = []
        for old in bucket:
            if g <= old.g and model.dominates(state, old.state):
                old.stale = True
                self.size -= 1
            else:
                kept.append(old)
        kept.append(node)
        self._buckets[sig] = kept
        self.size += 1
        return node


def _resolve_mode(mode: Optional[PropagationMode], adapter) -> PropagationMode:
    if mode is None:
        return PropagationMode.ONCE if adapter is not None else PropagationMode.OFF
    if mode is not PropagationMode.OFF and adapter is None:
        raise ValueError(f"propagation mode {mode.value} requires an adapter")
    return mode


def _gen_succ_cp(model, adapter, state, g, primal, mode, metrics):
    """Propagation-wrapped successor generation.

    Builds and propagates the state's CP model and returns
    ``(successors, cp_dual, store)``.  ``store`` is None, with no
    successors, when the store is infeasible (``cp_dual`` is then
    INFINITY) or ``g + cp_dual`` cannot beat ``primal``.  Otherwise the
    successors the store does not veto are the model's
    ``(weight, label, state)`` triples, and ``store`` holds the parent's
    propagated domains, under which each successor's CP dual bound may be
    evaluated at admission.
    """
    started = time.perf_counter()
    store, props = adapter.build(state, g, primal)
    if not store.infeasible:
        if mode is PropagationMode.FIXPOINT:
            propagate_fixpoint(store, props)
        else:
            propagate_once(store, props)
    if metrics is not None:
        metrics.propagation_calls += 1
        metrics.propagation_time += time.perf_counter() - started
    if store.infeasible:
        return [], INFINITY, None
    cp_dual = adapter.dual_cp(state, store)
    if add(g, cp_dual) >= primal:
        return [], cp_dual, None
    out = []
    for weight, label, succ in model.successors(state):
        if adapter.is_succ_infeasible(label, state, succ, store):
            if metrics is not None:
                metrics.pruned_by_cp += 1
            continue
        out.append((weight, label, succ))
    return out, cp_dual, store


class _SolveContext:
    """State shared by the two drivers for one solve."""

    def __init__(self, model, adapter, limits, mode):
        self.model = model
        self.adapter = adapter
        self.limits = limits
        self.mode = mode
        self.metrics = RunMetrics()
        self.status: Optional[SolveStatus] = None
        self.primal: Cost = INFINITY
        self.incumbent: Optional[SearchNode] = None
        self.best_dual: Optional[Cost] = None
        self.counter = itertools.count()
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def limit_status(self, registry: Registry, open_count: int = 0) -> Optional[SolveStatus]:
        lim = self.limits
        if lim.expansion_cap is not None and self.metrics.expansions >= lim.expansion_cap:
            return SolveStatus.EXPANSION_LIMIT
        if lim.time_limit is not None and self.elapsed() >= lim.time_limit:
            return SolveStatus.TIME_LIMIT
        if lim.memory_limit is not None:
            estimate = (registry.size + open_count) * NODE_ESTIMATE_BYTES
            if estimate > lim.memory_limit:
                return SolveStatus.MEMORY_LIMIT
        return None

    def make_root(self) -> SearchNode:
        target = self.model.target_state()
        g0 = self.model.root_cost()
        f0 = add(g0, self.model.dual(target))
        root = SearchNode(target, g0, f0, seq=next(self.counter))
        self.note_dual(root.f)
        return root

    def note_dual(self, value: Cost) -> None:
        if self.best_dual is None or value > self.best_dual:
            self.best_dual = value
            self.metrics.dual_trace.append((self.elapsed(), value))

    def offer_incumbent(self, node: SearchNode) -> None:
        """Record a popped base node if it improves the incumbent."""
        total = add(node.g, self.model.base_cost(node.state))
        if total < self.primal:
            self.primal = total
            self.incumbent = node
            self.metrics.incumbent_trace.append((self.elapsed(), total))

    def exhausted(self) -> SolveStatus:
        """Status once nothing is left to search."""
        return SolveStatus.OPTIMAL if self.incumbent else SolveStatus.INFEASIBLE

    def process(self, node: SearchNode, registry: Registry, open_count: int) -> List[SearchNode]:
        """Handle one live node taken off the open list or the beam layer.

        A base node is offered as the incumbent.  Any other node is checked
        against the limits (a fired limit sets ``status``) and expanded;
        its children are offered to the registry in generation order, and
        the admitted ones are returned in that order.  A child's bound is
        computed only once the registry's dominance test has passed
        (see the module docstring for the order).
        """
        model = self.model
        if model.is_base(node.state):
            self.metrics.base_pops += 1
            self.offer_incumbent(node)
            return []
        self.status = self.limit_status(registry, open_count)
        if self.status is not None:
            return []
        expanded = self.expand(node)
        if expanded is None:
            return []
        succs, store = expanded
        adapter, primal, counter = self.adapter, self.primal, self.counter

        def bounded(g, label, state):
            h = model.dual(state)
            if add(g, h) > primal:
                return None
            if store is not None:
                h_cp = adapter.dual_cp(state, store)
                if h_cp > h:
                    h = h_cp
            f = add(g, h)
            if f > primal:
                return None
            return SearchNode(state, g, f, parent=node, label=label, seq=next(counter))

        admitted = []
        for weight, label, state in succs:
            self.metrics.generated += 1
            g = add(node.g, weight)
            child = registry.register(model, state, g, lambda: bounded(g, label, state))
            if child is not None:
                admitted.append(child)
        return admitted

    def expand(self, node: SearchNode):
        """``(successors, store)`` of a popped node, or None if propagation
        pruned it.

        ``store`` is the node's propagated CP store, or None with
        propagation off.  Counts the expansion only when the model's
        successor enumeration actually runs; propagation-pruned pops count
        toward ``pruned_by_cp`` instead.
        """
        if self.mode is PropagationMode.OFF:
            self.metrics.expansions += 1
            return self.model.successors(node.state), None
        succs, cp_dual, store = _gen_succ_cp(
            self.model, self.adapter, node.state, node.g, self.primal, self.mode, self.metrics
        )
        if node.parent is None:
            # Only at the root is g + CP dual a bound on the global optimum.
            self.note_dual(add(node.g, cp_dual))
        if store is None:
            self.metrics.pruned_by_cp += 1
            return None
        self.metrics.expansions += 1
        return succs, store

    def finish(self) -> SolveResult:
        status = self.status
        m = self.metrics
        if status is SolveStatus.OPTIMAL:
            self.note_dual(self.primal)
            m.final_gap = 0.0
        elif status is SolveStatus.INFEASIBLE:
            m.final_gap = 0.0
        else:
            primal = self.primal if self.incumbent is not None else None
            m.final_gap = optimality_gap(primal, self.best_dual)
        incumbent = None
        if self.incumbent is not None:
            incumbent = (self.primal, self.incumbent.path_labels())
        if status is SolveStatus.INFEASIBLE:
            incumbent = None
        return SolveResult(
            status=status, incumbent=incumbent, root_dual=self.best_dual, metrics=m
        )


def astar(
    model: DpModel,
    adapter: Optional[PropagationAdapter] = None,
    limits: Optional[SolveLimits] = None,
    mode: Optional[PropagationMode] = None,
) -> SolveResult:
    """Best-first search; pops minimum f, ties broken by larger g then FIFO.

    Returns the proven optimum (or infeasibility) unless a limit fires.
    Optimality is declared when a popped node cannot beat the incumbent
    (``f >= primal``) or the open list empties.
    """
    mode = _resolve_mode(mode, adapter)
    ctx = _SolveContext(model, adapter, limits or SolveLimits(), mode)
    registry = Registry()
    root = ctx.make_root()
    registry.register(model, root.state, root.g, lambda: root)
    heap = [(root.f, -root.g, root.seq, root)]
    while ctx.status is None:
        if not heap:
            ctx.status = ctx.exhausted()
            break
        f, _neg_g, _seq, node = heappop(heap)
        if node.stale:
            ctx.metrics.stale_skips += 1
            continue
        if ctx.incumbent is not None and f >= ctx.primal:
            ctx.status = SolveStatus.OPTIMAL
            break
        ctx.note_dual(min(ctx.primal, f))
        for child in ctx.process(node, registry, len(heap)):
            heappush(heap, (child.f, -child.g, child.seq, child))
    return ctx.finish()


def cabs(
    model: DpModel,
    adapter: Optional[PropagationAdapter] = None,
    limits: Optional[SolveLimits] = None,
    mode: Optional[PropagationMode] = None,
) -> SolveResult:
    """Complete anytime beam search with a doubling width.

    Runs repeated layered beam passes at widths 1, 2, 4, and so on, each
    pass doubling the width of the one before; each layer keeps the
    ``width`` best nodes by (f, larger g, insertion order).  The incumbent persists across
    passes while duplicate detection restarts per pass.  Expansion counts
    accumulate across passes.

    A pass that never discards a node at the width cut is exhaustive, even
    if it improved the incumbent, so it proves the final incumbent optimal
    (or the instance infeasible when there is none).  Without width cuts a
    node leaves the pass only in these ways:

    * it is pruned against the primal current at that moment, by
      ``f > primal`` at admission or by its CP bound or infeasibility at
      expansion (a vetoed successor has no feasible completion); the
      primal only falls during the pass, so it is never below the final
      primal, and the pruned node cannot lead to anything cheaper than
      the final primal;
    * the registry rejects it, or later evicts it, in favour of a
      registered node of the same pass that dominates it at no larger
      path cost; that node sits in a layer, so it is itself expanded or
      pruned on its bound, and its best completion is no worse.

    So every solution strictly cheaper than the final primal would have
    been reached and recorded, and none exists.
    """
    mode = _resolve_mode(mode, adapter)
    ctx = _SolveContext(model, adapter, limits or SolveLimits(), mode)
    width = 1
    while ctx.status is None:
        ctx.metrics.beam_widths.append(width)
        registry = Registry()
        root = ctx.make_root()
        registry.register(model, root.state, root.g, lambda: root)
        layer: List[SearchNode] = [root]
        discarded = False
        while layer and ctx.status is None:
            candidates: List[SearchNode] = []
            for node in layer:
                if node.stale:
                    ctx.metrics.stale_skips += 1
                    continue
                candidates += ctx.process(node, registry, len(layer) + len(candidates))
                if ctx.status is not None:
                    break
            candidates.sort(key=lambda n: (n.f, -n.g, n.seq))
            if len(candidates) > width:
                discarded = True
                candidates = candidates[:width]
            layer = candidates
        if ctx.status is None:
            if discarded:
                width *= 2
            else:
                ctx.status = ctx.exhausted()
    return ctx.finish()
