"""Small constraint-propagation engine: integer domains and propagators.

The engine owns a per-pop ``DomainStore`` of integer interval domains,
kept as two bound lists and a bit mask of live variables, and a handful
of stateless propagator descriptors, which an adapter may build once and
post on every store:

* ``Disjunctive`` -- non-overlapping jobs, filtered by an overload check
  and edge-finding on earliest starts,
* ``Cumulative``  -- capacity-limited tasks, filtered by time-table
  reasoning over compulsory parts,
* ``PrecedenceLe`` -- an ordered list of ``start_i + offset <= start_j``
  arcs, each applied once by bounds arithmetic.

Propagators only ever lift lower bounds, the earliest starts every model
dual reads as its floor; upper bounds are read, never lowered.  An emptied
domain flips the store's ``infeasible`` flag, which is sticky: the store
ignores every later write, and the drivers, which run the propagators
either once each in registration order or to a fixed point, stop at it,
so no propagator tests the flag.  A model's ``PropagationAdapter`` is its
``build``: the default successor veto drops nothing, and a model whose
store can rule out a child overrides it (SMS).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left
from operator import gt, itemgetter
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .cost import Cost


class AdapterFailure(Exception):
    """A propagation adapter produced an inconsistent model build."""


class DomainStore:
    """Interval domains ``[lbs[x], ubs[x]]`` with a sticky infeasibility
    flag and a bit mask of live variables.

    The two bound lists are the whole state, as no model needs a hole in a
    domain, and the only way to read a domain.  A propagator reads them
    through ``bounds``, which checks its id range once; an adapter reads
    the variables it filled itself, as SMS's veto reads a job's lower
    bound.  Every write goes through ``set_lb`` or ``mark_infeasible``, so
    the monotone-shrink invariant, emptiness detection, and the change
    revision counter live in one place; ``ubs`` stays as ``build`` laid it
    out.  Once empty, the store ignores every write: a propagator that
    carries on after emptying it changes nothing.  A store is owned by a
    single solve; sharing is read-only.

    ``live`` has bit ``x`` set when variable ``x`` takes part in this
    store's state: ``Disjunctive`` and ``Cumulative`` skip every item whose
    variable is dead, so one propagator built over all of a model's
    variables serves every state.  Every store names its live variables;
    ``-1`` has every bit set.  ``PrecedenceLe`` ignores the mask, and a
    dead variable's domain is still checked for emptiness.  A store may
    have no variable at all (TSPTW's).
    """

    __slots__ = ("lbs", "ubs", "infeasible", "revision", "live")

    def __init__(self, lbs: List[int], ubs: List[int], live: int):
        if len(lbs) != len(ubs):
            raise AdapterFailure(f"{len(lbs)} lower bounds for {len(ubs)} upper bounds")
        self.lbs = lbs
        self.ubs = ubs
        self.infeasible = any(map(gt, lbs, ubs))
        self.revision = 0
        self.live = live

    def bounds(self, lo: int, hi: int) -> Tuple[List[int], List[int]]:
        """The bound lists themselves, after checking that ids ``lo..hi``
        are in range.

        A propagator reads bounds from them directly, as the drivers call
        it only while the store is feasible and no domain is empty; writes
        still go through ``set_lb``.
        """
        if lo < 0 or hi >= len(self.lbs):
            raise AdapterFailure(f"variable ids {lo}..{hi} out of range")
        return self.lbs, self.ubs

    def mark_infeasible(self) -> None:
        if not self.infeasible:
            self.infeasible = True
            self.revision += 1

    def set_lb(self, x: int, v: int) -> None:
        """Shrink the lower bound of ``x`` up to ``v`` (no-op if weaker, or
        if the store is already empty)."""
        if self.infeasible:
            return
        if not 0 <= x < len(self.lbs):
            raise AdapterFailure(f"variable id {x} out of range")
        if v <= self.lbs[x]:
            return
        self.lbs[x] = v
        self.revision += 1
        if v > self.ubs[x]:
            self.infeasible = True


class PrecedenceLe:
    """``start_i + offset <= start_j`` for each ``(i, offset, j)`` arc.

    The arcs are applied once each, in list order: lift ``lbs[j]`` to
    ``lbs[i] + offset``, each arc seeing the lifts of the arcs before it.
    One call therefore does what one single-arc propagator per arc, run in
    sequence, would do.  Only ``set_lb`` reads a latest start, to detect
    an emptied domain.
    """

    def __init__(self, arcs: Iterable[Tuple[int, int, int]]):
        self.arcs = list(arcs)
        self._lo, self._hi = 0, -1
        if self.arcs:
            tails, _offsets, heads = zip(*self.arcs)
            self._lo = min(min(tails), min(heads))
            self._hi = max(max(tails), max(heads))

    def propagate(self, store: DomainStore) -> None:
        lbs, _ubs = store.bounds(self._lo, self._hi)
        for i, offset, j in self.arcs:
            v = lbs[i] + offset
            if v > lbs[j]:
                store.set_lb(j, v)


class Disjunctive:
    """A set of jobs that must not overlap, filtered by edge-finding.

    Each item is ``(start_var, duration)`` with a constant duration, as
    edge-finding is defined over fixed processing times.

    Jobs whose variable is not in ``store.live`` are skipped.  One
    application runs the overload check and one pass lifting earliest
    starts, both from the entry bounds; latest starts are read, never
    written, except once, at the root, by the model: ``SmsModel`` runs one
    pass on its windows mirrored in time to cut its deadlines.
    """

    def __init__(self, items: Iterable[Tuple[int, int]]):
        # Jobs of duration zero impose nothing.
        self.items = [(v, p) for v, p in items if p > 0]
        ids = [v for v, _ in self.items]
        self._lo, self._hi = (min(ids), max(ids)) if ids else (0, -1)

    def propagate(self, store: DomainStore) -> None:
        lbs, ubs = store.bounds(self._lo, self._hi)
        live = store.live
        jobs = [(lbs[v], p, ubs[v] + p, v) for v, p in self.items if live >> v & 1]
        if not jobs:
            return
        lifts = _edge_find_lower(jobs)
        if lifts is None:
            store.mark_infeasible()
            return
        for v, new_est in lifts.items():
            store.set_lb(v, new_est)


def _edge_find_lower(jobs):
    """Edge-finding lower-bound lifts over task-interval sets (Vilim,
    "O(n log n) Filtering Algorithms for Unary Resource Constraint", 2004).

    ``jobs`` holds ``(est, p, lct, key)`` with ``p > 0``.  Returns ``{key:
    new_est}`` for strictly improved bounds, in ``jobs`` order, or ``None``
    on overload.

    A candidate set, the jobs with ``lct <= b`` and ``est >= a`` for a job
    lct ``b`` and a job est ``a``, forces an outside job ``i`` after all of
    it when they cannot fit in ``[min(a, est_i), b]``.  These interval sets
    lose no deductions.

    One pass over ``T_b``, the jobs with ``lct <= b`` in descending-est
    order, gives ``ECT(T_b)``, the largest ``a + E`` over its prefixes;
    overload is ``ECT(T_b) > b``.  A firing window ``b`` lifts ``i`` to
    ``ECT(T_b)``: its largest firing prefix already reaches that maximum.
    That falls with ``b``, so edges run in descending order and a job
    leaves the test once lifted or once ``est_i >= ECT(T_b)``.  As
    ``ECT(T_b + i) <= max(ECT(T_b), est_i) + p_i``, a job with ``p_i <= b -
    ECT(T_b)`` cannot fire.  A survivor that could finish alone by ``b``
    needs the exact test, one more scan of ``T_b`` in descending-est order
    that fires once ``min(a, est_i) + E > b - p_i``.  That makes the worst
    case O(n^3); at 1-16 jobs it ran no slower than prefix arrays with a
    bisection.

    When every job has the same est ``e`` (an SMS state whose pending jobs
    are all released), ``ECT(T_b)`` is ``e + P(T_b)``, with ``P`` the total
    duration, and the exact test reduces to ``p_i > b - ECT(T_b)``.  So
    one sort by lct and one prefix pass give every window's slack ``b -
    ECT(T_b)``, a negative one is an overload, and each job is lifted at
    the largest window below its lct whose slack is under ``p_i``: O(n log
    n) plus a scan down the windows per job.
    """
    est = _common_est(jobs)
    if est is not None:
        return _edge_find_common_est(jobs, est)
    by_est_desc = sorted(jobs, key=itemgetter(0), reverse=True)
    by_lct_desc = sorted(jobs, key=itemgetter(2), reverse=True)
    lifted = {}
    outside = []  # jobs with lct > b that may still fire
    pos = 0
    while True:
        b = by_lct_desc[pos][2]
        energy = 0
        ect = by_est_desc[-1][0]  # below every a + E
        for est, p, lct, _key in by_est_desc:
            if lct <= b:
                energy += p
                if est + energy > ect:
                    ect = est + energy
        if ect > b:
            return None
        if outside:
            slack = b - ect
            waiting = []
            for job in outside:
                est_i, p_i, _lct, _key = job
                if est_i >= ect:
                    continue
                if p_i <= slack:
                    waiting.append(job)
                    continue
                if est_i + p_i <= b:
                    room = b - p_i
                    energy = 0
                    for est, p, lct, _key in by_est_desc:
                        if lct <= b:
                            energy += p
                            if (est if est < est_i else est_i) + energy > room:
                                break
                    else:
                        waiting.append(job)
                        continue
                lifted[job] = ect
            outside = waiting
        if by_lct_desc[-1][2] == b:
            break
        while by_lct_desc[pos][2] == b:
            outside.append(by_lct_desc[pos])
            pos += 1
    return {job[3]: lifted[job] for job in jobs if job in lifted} if lifted else {}


def _common_est(jobs):
    """The est that every job has, or None."""
    est = jobs[0][0]
    for job in jobs:
        if job[0] != est:
            return None
    return est


def _edge_find_common_est(jobs, est):
    """``_edge_find_lower`` for jobs that all have est ``est``."""
    lcts, slacks = [], []  # each window's b and b - ECT(T_b), ascending
    energy = 0
    for _est, p, lct, _key in sorted(jobs, key=itemgetter(2)):
        energy += p
        slack = lct - est - energy
        if slack < 0:
            return None
        if lcts and lcts[-1] == lct:
            slacks[-1] = slack
        else:
            lcts.append(lct)
            slacks.append(slack)
    lifts = {}
    for _est, p, lct, key in jobs:
        k = bisect_left(lcts, lct)
        while k:
            k -= 1
            if p > slacks[k]:
                lifts[key] = lcts[k] - slacks[k]
                break
    return lifts


class Cumulative:
    """Capacity-limited tasks filtered by time-table reasoning.

    Tasks are ``(start_var, duration, usage)`` with constant durations and
    usages; a task whose variable is not in ``store.live`` is skipped, so
    one object over all of a resource's users serves every state.  A live
    task whose bounds pin part of its execution occupies that compulsory
    part in every schedule; stacking compulsory parts gives a lower profile
    of guaranteed usage.  Each live task's earliest start is swept past the
    profile segments that would overflow the capacity together with its
    own usage (excluding its own compulsory contribution).
    """

    def __init__(self, tasks: Iterable[Tuple[int, int, int]], capacity: int):
        self.capacity = capacity
        # Tasks that use nothing constrain nothing.
        self.tasks = [t for t in tasks if t[1] > 0 and t[2] > 0]
        # A live task that alone exceeds the capacity empties the store.
        self._overfull = [v for v, _p, u in self.tasks if u > capacity]
        ids = [v for v, _p, _u in self.tasks]
        self._lo, self._hi = (min(ids), max(ids)) if ids else (0, -1)

    def propagate(self, store: DomainStore) -> None:
        lbs, ubs = store.bounds(self._lo, self._hi)
        live = store.live
        for v in self._overfull:
            if live >> v & 1:
                store.mark_infeasible()
                return
        capacity = self.capacity
        # The compulsory part of a task is [ub, lb + p) when ub < lb + p.
        # New bounds come from the entry bounds alone, so they are
        # snapshotted here, before a write can move them: two tasks may
        # share a variable.
        entry = []
        events: dict = {}
        for v, p, u in self.tasks:
            if live >> v & 1:
                lb, ub = lbs[v], ubs[v]
                entry.append((v, p, u, lb, ub))
                end = lb + p
                if ub < end:
                    events[ub] = events.get(ub, 0) + u
                    events[end] = events.get(end, 0) - u
        if not events:
            return
        # Maximal segments (a, b, height) of nonzero compulsory usage.
        points = sorted(events)
        segments = []
        height = top = 0
        for a, b in zip(points, points[1:]):
            height += events[a]
            if height > capacity:
                store.mark_infeasible()
                return
            if height > 0:
                segments.append((a, b, height))
                if height > top:
                    top = height
        # Each lb is written as soon as it is known, and an unmoved one is
        # not written.  A task that fits on top of the highest segment
        # cannot be moved.  The sweep pushes the task past every segment
        # whose height, less the task's own compulsory usage there,
        # exceeds ``limit``.  The compulsory part ``[ub, lb + p)`` covers
        # segment ``[a, b)`` when ``ub <= a`` and ``b <= lb + p``; without
        # a compulsory part no segment passes that test.
        for v, p, u, lb, ub in entry:
            if top + u <= capacity:
                continue
            limit = capacity - u
            end = lb + p
            new_lb = lb
            for a, b, h in segments:
                if a >= new_lb + p:
                    break
                if b <= new_lb:
                    continue
                if ub <= a and b <= end:
                    h -= u
                if h > limit:
                    new_lb = b
            if new_lb != lb:
                store.set_lb(v, new_lb)


Propagator = Union[PrecedenceLe, Disjunctive, Cumulative]


def propagate_once(store: DomainStore, props: Sequence[Propagator]) -> DomainStore:
    """Apply each propagator exactly once, in order.

    Later propagators see the shrinks of earlier ones.  Infeasibility is a
    store flag, never an exception; this driver and ``propagate_fixpoint``
    alone read it, and call no propagator on an empty store.
    """
    for p in props:
        if store.infeasible:
            break
        p.propagate(store)
    return store


def propagate_fixpoint(store: DomainStore, props: Sequence[Propagator]) -> DomainStore:
    """Repeat ``propagate_once`` until a pass changes nothing."""
    while not store.infeasible:
        before = store.revision
        propagate_once(store, props)
        if store.revision == before:
            break
    return store


class PropagationAdapter(ABC):
    """Bridge from a DP model's states to a CP model over a domain store.

    A model's adapter implements ``build`` alone.  ``build`` reads the
    state alone and is deterministic in it, so CABS replays a state's
    propagated store under any later incumbent; the search reads
    infeasibility from ``store.infeasible``.  Neither the incumbent nor
    the path cost is passed: the search prunes on the larger of the node's
    ``f`` and ``g`` plus ``dual_cp`` itself, so a cap on the remaining cost
    would only repeat that test.  ``dual_cp`` defaults to the model's
    ``dual`` floored by the store's lower bounds (SMS, RCPSP).  TSPTW's
    model ignores the floor, so its adapter returns the model's relaxation
    solved exactly instead; a ``dual_cp`` of 0 would add nothing, as the
    pop still prunes on ``f``, which holds the model dual.

    A store is laid out over the model's variables: ``lbs[i]`` bounds the
    variable of the model's job, task or location ``i``.  The search
    passes a popped state's ``lbs`` as the floor of each surviving
    successor's model ``dual``, as the parent's domains remain valid for
    every successor; so ``dual_cp`` bounds popped states only, each under
    its own store.  The search calls it only on a feasible store, so an
    adapter need not guard an empty domain.

    The adapter's second role is ``child_bounds``: asked once per
    expanded pop, it may bound the pop's successors itself, from what its
    ``dual_cp`` computed.  The default leaves each child to the floored
    model ``dual`` (SMS, RCPSP); TSPTW reads each child's bound off the
    pop's assignment duals.

    ``build`` returns the propagators together with the store.  Where they
    do not depend on the state, an adapter builds them once, over all of
    its variables, and returns the same list on every call; the store's
    ``live`` mask then tells ``Disjunctive`` and ``Cumulative`` which
    variables to skip (SMS and RCPSP do this).  TSPTW's store has no
    variable and its list no propagator: all it does is ``dual_cp``.  The
    pair also lets a profiler wrap each propagator a store is propagated
    with (``perfbench/tracing.py``).

    The search asks ``is_succ_infeasible`` about every successor of a
    propagated pop; the default drops nothing.  SMS overrides it with a
    lower-bound lookup on the state the transition produced.
    """

    def __init__(self, model):
        self.model = model
        self.instance = model.instance

    @abstractmethod
    def build(self, state) -> Tuple[DomainStore, List[Propagator]]:
        """CP variables, domains, and propagators representing ``state``."""

    def dual_cp(self, state, store: DomainStore) -> Cost:
        """Lower bound on remaining cost of a popped ``state`` under its
        own propagated ``store``, which is feasible."""
        return self.model.dual(state, store.lbs)

    def child_bounds(self, state, store: DomainStore, succs) -> List[Optional[Cost]]:
        """One bound slot per successor in ``succs`` of a popped ``state``
        under its own feasible ``store``, after the veto: an admissible
        bound on the child's remaining cost, or None.  The search fills a
        None slot with ``model.dual(child, store.lbs)`` when the registry
        first lets that child through, so the default, all None, bounds
        each child by its model dual under the parent's floor, lazily."""
        return [None] * len(succs)

    def is_succ_infeasible(self, label, succ, store: DomainStore) -> bool:
        """True when ``store``, the parent's propagated store, rules out the
        transition ``label`` that produced ``succ``; here never."""
        return False
