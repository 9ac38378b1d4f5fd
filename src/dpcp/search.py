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

CABS restarts duplicate detection with each pass, but what propagation
found for a popped state carries over one pass: a state popped again under
the same incumbent, in this pass or the last, reuses its propagated store
(or its prune) instead of building and propagating its CP model afresh.
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
# stored node costs 407-446 B for smswt, 460-675 B for tsptw and 471-472 B
# for rcpsp, with propagation off and on: the estimate is up to 26% high
# (smswt), 8-9% high for rcpsp, and for tsptw from 11% high (A*, off) to
# 24% low (CABS, once, where the short-lived propagation lists in the peak
# are spread over the fewest stored nodes).  CABS counts each entry of its
# tables of propagation outcomes as a node too, which is conservative: at
# their largest on the perfbench instance ``sms-tight:55`` (CABS, once),
# 4,993 entries held about 340 B each by ``tracemalloc``.
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
        # CABS only: ``state -> (primal, h, store)`` for the states popped
        # in the current pass and in the last one (see ``expand``), which
        # stay empty with propagation off.  ``this_pass`` stays None in A*.
        self.last_pass: dict = {}
        self.this_pass: Optional[dict] = None

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def limit_status(self, registry: Registry) -> Optional[SolveStatus]:
        lim = self.limits
        if lim.expansion_cap is not None and self.metrics.expansions >= lim.expansion_cap:
            return SolveStatus.EXPANSION_LIMIT
        if lim.time_limit is not None and self.elapsed() >= lim.time_limit:
            return SolveStatus.TIME_LIMIT
        if lim.memory_limit is not None:
            # Every live open-list or layer entry is a registered node, and
            # the per-node estimate is calibrated on the registry size.  An
            # entry of the CABS tables counts as a node.
            stored = registry.size + len(self.last_pass) + len(self.this_pass or ())
            estimate = stored * NODE_ESTIMATE_BYTES
            if estimate > lim.memory_limit:
                return SolveStatus.MEMORY_LIMIT
        return None

    def start_pass(self) -> None:
        """Begin a CABS pass: keep the last pass's propagation outcomes and
        drop the older ones."""
        self.last_pass, self.this_pass = self.this_pass or {}, {}

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

    def process(self, node: SearchNode, registry: Registry) -> List[SearchNode]:
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
        self.status = self.limit_status(registry)
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

        With propagation off, ``successors`` is the model's and ``store``
        is None.  Otherwise the node's CP model is built and propagated;
        the node is pruned if the store is infeasible or ``g`` plus its CP
        dual cannot beat the incumbent, and each successor the store vetoes
        is dropped.  ``store`` then holds the node's propagated domains,
        under which each successor's CP dual may be evaluated at admission.
        Counts the expansion only when the model's successor enumeration
        actually runs; a pruned pop and each vetoed successor count toward
        ``pruned_by_cp`` instead.

        In CABS, each pop records ``(primal, h, store)`` for its state: the
        incumbent it was propagated under, its CP dual (``INFINITY`` when
        infeasible), and its store, or None if it was pruned.  ``build`` is
        deterministic for equal states and primals, so a later pop of the
        state under the same primal, in this pass or the next, reuses the
        entry (counted in ``reused``, not ``propagation_calls``) and takes
        exactly the decisions a fresh store would: a pruned entry only while
        its ``g`` still prunes it, and a store after ``dual_cp`` has been
        asked again for the popped state's own bound.
        """
        model, state, m = self.model, node.state, self.metrics
        if self.mode is PropagationMode.OFF:
            m.expansions += 1
            return model.successors(state), None
        adapter, primal, table = self.adapter, self.primal, self.this_pass
        entry = None if table is None else table.get(state) or self.last_pass.pop(state, None)
        if (
            entry is not None
            and entry[0] == primal
            and (entry[2] is not None or add(node.g, entry[1]) >= primal)
        ):
            _, h, store = entry
            if store is not None:
                h = adapter.dual_cp(state, store)
            m.reused += 1
        else:
            started = time.perf_counter()
            store, props = adapter.build(state, primal)
            if not store.infeasible:
                if self.mode is PropagationMode.FIXPOINT:
                    propagate_fixpoint(store, props)
                else:
                    propagate_once(store, props)
            m.propagation_calls += 1
            m.propagation_time += time.perf_counter() - started
            h = INFINITY if store.infeasible else adapter.dual_cp(state, store)
        bound = add(node.g, h)
        if table is not None:
            table[state] = (primal, h, store if bound < primal else None)
        if node.parent is None:
            # Only at the root is g + CP dual a bound on the global optimum.
            self.note_dual(bound)
        if bound >= primal:
            m.pruned_by_cp += 1
            return None
        m.expansions += 1
        succs = []
        for weight, label, succ in model.successors(state):
            if adapter.is_succ_infeasible(label, state, succ, store):
                m.pruned_by_cp += 1
            else:
                succs.append((weight, label, succ))
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
        for child in ctx.process(node, registry):
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
    accumulate across passes.  With propagation on, what propagation found
    for each popped state carries over one pass: a state popped again under
    the same incumbent reuses it (see ``_SolveContext.expand``), which
    leaves the search unchanged and only saves ``propagation_calls``.

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
      pruned on its bound, and its best completion is no worse;
    * it was never generated, because the model's ``successors`` omits a
      child with no feasible completion.

    So every solution strictly cheaper than the final primal would have
    been reached and recorded, and none exists.

    By the same argument, a completed pass that did cut nodes misses only
    solutions through them, each costing at least its node's ``f``; so it
    notes ``min(primal, smallest cut f)`` as a dual bound.  A pass that a
    limit stops gives no bound.
    """
    mode = _resolve_mode(mode, adapter)
    ctx = _SolveContext(model, adapter, limits or SolveLimits(), mode)
    width = 1
    while ctx.status is None:
        ctx.metrics.beam_widths.append(width)
        ctx.start_pass()
        registry = Registry()
        root = ctx.make_root()
        registry.register(model, root.state, root.g, lambda: root)
        layer: List[SearchNode] = [root]
        min_cut_f: Optional[Cost] = None  # smallest f discarded at the width cut
        while layer and ctx.status is None:
            candidates: List[SearchNode] = []
            for node in layer:
                if node.stale:
                    ctx.metrics.stale_skips += 1
                    continue
                candidates += ctx.process(node, registry)
                if ctx.status is not None:
                    break
            candidates.sort(key=lambda n: (n.f, -n.g, n.seq))
            if len(candidates) > width:
                cut_f = candidates[width].f
                if min_cut_f is None or cut_f < min_cut_f:
                    min_cut_f = cut_f
                candidates = candidates[:width]
            layer = candidates
        if ctx.status is None:
            if min_cut_f is not None:
                # A completed pass misses only solutions through its cut
                # nodes, so none is cheaper than the smallest cut f.
                ctx.note_dual(min(ctx.primal, min_cut_f))
                width *= 2
            else:
                ctx.status = ctx.exhausted()
    return ctx.finish()
