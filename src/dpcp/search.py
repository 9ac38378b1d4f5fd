"""Best-first and anytime-beam solvers over the model contract.

Both drivers keep a registry of the search nodes of encountered states,
bucketed by state signature; the node is the only record of a state, and
each bucket is a chain of nodes linked through their ``sibling`` slot.
Each generated successor is admitted in this order, cheapest test first,
all in one loop of ``_SolveContext.process``:

1. its path cost ``g`` is computed;
2. it is dropped if ``Registry.dominated`` finds a stored node that
   dominates it at no larger ``g``;
3. otherwise its bound ``f`` is ``g`` plus the model dual, one call per
   child; with propagation on, the dual's floor is the parent's
   propagated lower bounds, which remain valid for every successor, and
   the adapter's ``child_bounds`` may have bounded every child of the pop
   already when it was expanded, as TSPTW's does from the pop's
   assignment duals: such a child is not bounded again;
4. only if ``f <= primal`` and ``f`` is finite is its search node
   created and handed to ``Registry.register``, which evicts the stored
   nodes it dominates (marking them stale) and stores it: a bound of
   ``INFINITY`` proves that the child has no completion, so it is
   declined also while there is no incumbent.

Every mode prunes a popped state when the larger of its ``f`` and ``g``
plus its CP dual reaches the incumbent; ``off`` has no CP term.  With
propagation on, the state's CP model is built and propagated once (or to a
fixed point), an infeasible store prunes it outright, and surviving
successors are filtered individually.  The adapter's ``dual_cp`` bounds
popped states only.

Both drivers share one pop step: each pop's expansion is one record (its
propagated store and CP dual, its successors after the veto and the bound
of each child bounded so far), and the loop above runs over it.  A*
drops the record with the pop.  CABS restarts duplicate detection with
each pass, but keeps the records for one pass, in every propagation mode:
a state popped again in this pass or the last replays what its first pop
computed instead of asking the model and the adapter again, under any
later incumbent, as a pop's CP model depends on its state alone.
Admission, dominance and the pruning tests still run at every pop, so the
search is the one without the replay.
"""

from __future__ import annotations

import enum
import time
from heapq import heappop, heappush
from typing import List, Optional, Tuple, Union

from .core import DpModel, SolveLimits, SolveResult, SolveStatus
from .cost import MAX_COST, Cost, INFINITY, add
from .cp_engine import PropagationAdapter, propagate_fixpoint, propagate_once
from .metrics import RunMetrics, optimality_gap

# Fixed per-node bookkeeping estimate used for the memory limit.  Measured
# as the ``tracemalloc`` peak of an A* solve without propagation over its
# ``RunMetrics.peak_stored``, on the 16 instances per model of the seed-1
# ``mixed-off`` plan of ``perfbench/`` (CPython 3.11 on x86-64), a stored
# node costs 402 B for smswt (349-593 B per solve), 335 B for tsptw
# (310-621 B) and 500 B for rcpsp (471-599 B), its open-list slot and its
# key's share included: the estimate is 27% high for smswt, 53% high for
# tsptw and 2% high for rcpsp.  A propagated store lives for its pop only,
# except in the CABS tables, charged below.  CABS counts each entry of its
# tables of kept expansions as a node too, and each successor an entry
# keeps at ``CHILD_ESTIMATE_BYTES``.  At the start of a pass, where the
# tables hold the last pass's entries, on the perfbench instances
# ``sms-tight:55`` and ``tsptw-wide:0..5`` (CABS, off and once), dropping
# the kept successors freed 141-206 B each by ``tracemalloc`` (174-206 B
# on all but the smallest table), and then dropping the entries freed
# 604-696 B each under once, store included, and 202-236 B under off
# (433 and 130 B on the smallest table): the tables' charge was 11% low on
# ``sms-tight:55`` under once and 18% high under off.
NODE_ESTIMATE_BYTES = 512
CHILD_ESTIMATE_BYTES = 200


class PropagationMode(enum.Enum):
    OFF = "off"
    ONCE = "once"
    FIXPOINT = "fixpoint"


class _Expansion:
    """The record of one pop's expansion, which ``expand`` hands to
    ``process``; A* drops it with the pop, CABS keeps it in its tables for
    the state's later pops.

    ``store`` and ``cp_dual`` are None with propagation off.  ``succs``
    stays None until a pop of the state expands it; then it holds the
    successors that survived the veto, ``vetoed`` the number of the others,
    and ``bounds`` one slot per successor for its bound: the adapter's
    ``child_bounds`` at the expansion, or, where that left None (always
    with propagation off), the model dual under the store's floor, filled
    when the registry first lets it through to bounding.
    """

    __slots__ = ("store", "cp_dual", "succs", "vetoed", "bounds")

    def __init__(self, store, cp_dual):
        self.store = store
        self.cp_dual = cp_dual
        self.succs = None
        self.vetoed = 0
        self.bounds = None


class SearchNode:
    """Search node: state, path cost ``g``, bound ``f`` on the cost of any
    solution through it, and parent link.

    ``sibling`` links the stored nodes of one state signature in the
    registry, oldest first; ``stale`` marks a node that the registry
    evicted.
    """

    __slots__ = ("state", "g", "f", "parent", "label", "stale", "sibling")

    def __init__(self, state, g: Cost, f: Cost, parent=None, label=None):
        self.state = state
        self.g = g
        self.f = f
        self.parent = parent
        self.label = label
        self.stale = False
        self.sibling = None

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

    Each bucket is a chain of the stored search nodes themselves: the
    signature maps to its oldest stored node, and each node's ``sibling``
    to the next one stored.  ``dominated`` is the test a child must pass
    before it is bounded, and ``register`` stores the node of a child that
    passed it and was bounded within the incumbent.  ``size`` counts the
    stored nodes.
    """

    def __init__(self):
        self._buckets = {}
        self.size = 0

    def dominated(self, model: DpModel, state, g: Cost) -> bool:
        """Whether a stored node dominates ``state`` at no larger path
        cost.  Has no side effects."""
        old = self._buckets.get(model.state_signature(state))
        while old is not None:
            if old.g <= g and model.dominates(old.state, state):
                return True
            old = old.sibling
        return False

    def register(self, model: DpModel, node: SearchNode) -> SearchNode:
        """Store ``node`` at the tail of its chain and return it, evicting
        the stored nodes that it dominates at no larger path cost: they are
        unlinked and marked stale, so that the drivers skip them lazily."""
        state, g = node.state, node.g
        sig = model.state_signature(state)
        buckets = self._buckets
        old = buckets.get(sig)
        prev = None  # the last node kept in the chain
        while old is not None:
            nxt = old.sibling
            if g <= old.g and model.dominates(state, old.state):
                old.stale = True
                old.sibling = None
                self.size -= 1
                if prev is None:
                    buckets[sig] = nxt
                else:
                    prev.sibling = nxt
            else:
                prev = old
            old = nxt
        if prev is None:
            buckets[sig] = node
        else:
            prev.sibling = node
        self.size += 1
        return node


class _SolveContext:
    """State shared by the two drivers for one solve.  ``mode`` None means
    ``once`` with an adapter and ``off`` without one."""

    def __init__(self, model, adapter, limits, mode):
        if mode is None:
            mode = PropagationMode.ONCE if adapter is not None else PropagationMode.OFF
        mode = PropagationMode(mode)
        if mode is not PropagationMode.OFF and adapter is None:
            raise ValueError(f"propagation mode {mode.value} requires an adapter")
        self.model = model
        self.adapter = adapter
        self.limits = limits or SolveLimits()
        self.metrics = RunMetrics()
        self.status: Optional[SolveStatus] = None
        self.primal: Cost = INFINITY
        self.incumbent: Optional[SearchNode] = None
        self.best_dual: Optional[Cost] = None
        self.started = time.perf_counter()
        # CABS only: ``state -> _Expansion`` of each state popped in the
        # current pass and in the last one (see ``expand``), in every mode;
        # ``this_pass`` stays None in A*, which keeps no record.
        # ``kept_children`` counts the successors that the entries of both
        # tables hold.
        self.last_pass: dict = {}
        self.this_pass: Optional[dict] = None
        self.kept_children = 0
        # The propagation driver, None when off.  Looked up here, at each
        # solve, so that a driver rebound on this module is the one called.
        self.propagate = {
            PropagationMode.OFF: None,
            PropagationMode.ONCE: propagate_once,
            PropagationMode.FIXPOINT: propagate_fixpoint,
        }[mode]

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
            # entry of the CABS tables counts as a node, and each successor
            # it keeps as a child.
            stored = registry.size + len(self.last_pass) + len(self.this_pass or ())
            estimate = stored * NODE_ESTIMATE_BYTES + self.kept_children * CHILD_ESTIMATE_BYTES
            if estimate > lim.memory_limit:
                return SolveStatus.MEMORY_LIMIT
        return None

    def start_pass(self) -> None:
        """Begin a CABS pass: keep the last pass's expansions and drop the
        older ones."""
        self.kept_children -= sum(
            len(entry.succs) for entry in self.last_pass.values() if entry.succs is not None
        )
        self.last_pass, self.this_pass = self.this_pass or {}, {}

    def make_root(self, registry: Registry) -> SearchNode:
        """The root node, bounded by the model dual and registered."""
        model = self.model
        target = model.target_state()
        g0 = model.root_cost()
        root = SearchNode(target, g0, add(g0, model.dual(target)))
        self.note_dual(root.f)
        registry.register(model, root)
        if registry.size > self.metrics.peak_stored:
            self.metrics.peak_stored = registry.size
        return root

    def note_dual(self, value: Cost) -> None:
        if self.best_dual is None or value > self.best_dual:
            self.best_dual = value
            self.metrics.dual_trace.append((self.elapsed(), value))

    def offer_incumbent(self, node: SearchNode) -> None:
        """Record a popped base node if it improves the incumbent.  The
        CABS tables are kept: no record depends on the incumbent."""
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
        its children take the module docstring's admission steps in
        generation order, and the admitted ones are returned in that order.
        A child's model dual is computed only the first time for its
        expansion record, and only where ``child_bounds`` left its slot
        None: in A* the record lives for this pop, in CABS it is kept for
        the state's later pops.
        """
        model, m = self.model, self.metrics
        if model.is_base(node.state):
            m.base_pops += 1
            self.offer_incumbent(node)
            return []
        self.status = self.limit_status(registry)
        if self.status is not None:
            return []
        entry = self.expand(node)
        if entry is None:
            return []
        floor = None if entry.store is None else entry.store.lbs
        bounds = entry.bounds
        # A bound of INFINITY proves that a child has no completion, so it
        # is declined also while the incumbent is INFINITY.
        limit = min(self.primal, MAX_COST)
        admitted = []
        for i, (weight, label, state) in enumerate(entry.succs):
            m.generated += 1
            g = add(node.g, weight)
            if registry.dominated(model, state, g):
                m.dominated += 1
                continue
            h = bounds[i]
            if h is None:
                h = bounds[i] = model.dual(state, floor)
            f = add(g, h)
            if f <= limit:
                admitted.append(registry.register(model, SearchNode(state, g, f, node, label)))
                if registry.size > m.peak_stored:
                    m.peak_stored = registry.size
        return admitted

    def expand(self, node: SearchNode) -> Optional[_Expansion]:
        """The ``_Expansion`` of a popped node, or None if it is pruned.

        Every mode prunes the node when the larger of its ``f`` and ``g``
        plus its CP dual reaches the incumbent, which may have fallen since
        its admission; with propagation off there is no CP term and the
        record's ``store`` is None.  Otherwise the node's CP model is built
        and handed to the driver, which leaves a store empty at build as it
        is (an infeasible store gives an infinite CP dual),
        each successor the store vetoes is dropped, ``store`` holds the
        node's propagated domains, the floor of each successor's dual, and
        the adapter's ``child_bounds`` fills the successors' bound slots
        it can.
        Counts the pop, and the expansion only when the node is not
        pruned; a pop pruned by its store and each vetoed successor count
        toward ``pruned_by_cp`` instead, and a pop pruned on its ``f``
        toward ``pruned_by_f``.

        Each pop has one record.  A* builds it afresh and drops it with the
        pop.  CABS keeps it in its tables, whatever the pop decided, and in
        every mode a later pop of the state in this pass or the next
        replays it (counted in ``reused``): the store and CP dual, the
        successors and veto count once a pop has expanded the state, and
        ``bounds``, the children's bounds computed so far.  Each is
        deterministic in the state and its store, and ``build`` in the
        state alone, so under any incumbent the replay gives exactly the
        decisions and counts of a fresh expansion.
        """
        model, state, m, primal = self.model, node.state, self.metrics, self.primal
        m.pops += 1
        table = self.this_pass
        entry = None if table is None else table.get(state) or self.last_pass.pop(state, None)
        if entry is not None:
            m.reused += 1
        else:
            store = cp_dual = None
            if self.propagate is not None:
                adapter = self.adapter
                started = time.perf_counter()
                store, props = adapter.build(state)
                self.propagate(store, props)
                m.propagation_calls += 1
                m.propagation_time += time.perf_counter() - started
                cp_dual = INFINITY if store.infeasible else adapter.dual_cp(state, store)
            entry = _Expansion(store, cp_dual)
        if table is not None:
            table[state] = entry
        store = entry.store
        if store is not None:
            reach = add(node.g, entry.cp_dual)
            if node.parent is None:
                # Only at the root is this bound one on the global optimum.
                self.note_dual(max(node.f, reach))
            if reach >= primal:
                m.pruned_by_cp += 1
                return None
        if node.f >= primal:
            m.pruned_by_f += 1
            return None
        m.expansions += 1
        if entry.succs is None:
            succs = model.successors(state)
            if store is None:
                bounds = [None] * len(succs)
            else:
                adapter = self.adapter
                kept = [t for t in succs if not adapter.is_succ_infeasible(t[1], t[2], store)]
                entry.vetoed = len(succs) - len(kept)
                succs = kept
                bounds = adapter.child_bounds(state, store, succs)
            entry.succs, entry.bounds = succs, bounds
            if table is not None:
                self.kept_children += len(succs)
                if self.kept_children > m.peak_kept_children:
                    m.peak_kept_children = self.kept_children
        m.pruned_by_cp += entry.vetoed
        return entry

    def finish(self) -> SolveResult:
        status = self.status
        m = self.metrics
        if status is SolveStatus.OPTIMAL or status is SolveStatus.INFEASIBLE:
            # Proven: the optimum, or INFINITY, the primal with no incumbent.
            self.note_dual(self.primal)
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
    mode: Union[PropagationMode, str, None] = None,
) -> SolveResult:
    """Best-first search; pops minimum f, ties broken by larger g then FIFO.

    The open list keeps one FIFO list of nodes per ``(f, -g)`` key and a
    heap of the keys whose list is not empty, so it stores no entry per
    node beyond the list slot; popping the front of the smallest key's list
    is exactly the order of a heap of ``(f, -g, push count)`` entries.
    Returns the proven optimum (or infeasibility) unless a limit fires.
    Optimality is declared when a popped node cannot beat the incumbent
    (``f >= primal``) or the open list empties.
    """
    ctx = _SolveContext(model, adapter, limits, mode)
    registry = Registry()
    root = ctx.make_root(registry)
    # ``lists`` maps each key to its nodes, oldest first, and ``keys`` is
    # the heap of its keys; a key leaves both once its list is empty.
    key = (root.f, -root.g)
    lists = {key: [root]}
    keys = [key]
    while ctx.status is None:
        if not keys:
            ctx.status = ctx.exhausted()
            break
        key = keys[0]
        nodes = lists[key]
        node = nodes.pop(0)
        if not nodes:
            heappop(keys)
            del lists[key]
        if node.stale:
            ctx.metrics.stale_skips += 1
            continue
        f = node.f
        if ctx.incumbent is not None and f >= ctx.primal:
            ctx.status = SolveStatus.OPTIMAL
            break
        ctx.note_dual(min(ctx.primal, f))
        for child in ctx.process(node, registry):
            key = (child.f, -child.g)
            nodes = lists.get(key)
            if nodes is None:
                lists[key] = [child]
                heappush(keys, key)
            else:
                nodes.append(child)
    return ctx.finish()


def cabs(
    model: DpModel,
    adapter: Optional[PropagationAdapter] = None,
    limits: Optional[SolveLimits] = None,
    mode: Union[PropagationMode, str, None] = None,
) -> SolveResult:
    """Complete anytime beam search with a doubling width.

    Runs repeated layered beam passes at widths 1, 2, 4, and so on, each
    pass doubling the width of the one before; each layer keeps the
    ``width`` best nodes by (f, larger g, creation order).  The incumbent persists across
    passes while duplicate detection restarts per pass.  Expansion counts
    accumulate across passes.  In every propagation mode, each popped
    state's expansion carries over one pass: a state popped again replays
    it, whatever it decided before, under any later incumbent (see
    ``_SolveContext.expand``).  That leaves the search and its counts
    unchanged and only saves calls to the model and the adapter.  A pop
    differs between propagation modes only in what propagation adds:
    ``off`` prunes a pop on its own ``f`` exactly as the other modes do.

    A pass that never discards a node at the width cut is exhaustive, even
    if it improved the incumbent, so it proves the final incumbent optimal
    (or the instance infeasible when there is none).  Without width cuts a
    node leaves the pass only in these ways:

    * it is pruned against the primal current at that moment, by
      ``f > primal`` at admission, or at the pop by its CP bound or
      infeasibility or on its own ``f`` (a vetoed successor has no
      feasible completion); the primal only falls during the pass, so it
      is never below the final primal, and the pruned node cannot lead to
      anything cheaper than the final primal;
    * it is declined at admission with an ``f`` of ``INFINITY``, which
      proves that it has no feasible completion;
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
    ctx = _SolveContext(model, adapter, limits, mode)
    width = 1
    while ctx.status is None:
        ctx.metrics.beam_widths.append(width)
        ctx.start_pass()
        registry = Registry()
        layer: List[SearchNode] = [ctx.make_root(registry)]
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
            # Stable: ties keep the creation order of ``candidates``.
            candidates.sort(key=lambda n: (n.f, -n.g))
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
