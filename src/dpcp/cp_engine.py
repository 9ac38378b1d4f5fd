"""Small constraint-propagation engine: integer domains and propagators.

The engine owns a per-pop ``DomainStore`` of integer interval domains,
kept as two bound lists and a bit mask of live variables, and a handful
of stateless propagator descriptors, which an adapter may build once and
post on every store:

* ``Disjunctive`` -- non-overlapping jobs, filtered by edge-finding,
* ``Cumulative``  -- capacity-limited tasks, filtered by time-table
  reasoning over compulsory parts,
* ``PrecedenceLe`` -- an ordered list of ``start_i + offset <= start_j``
  arcs, each applied once by bounds arithmetic.

Propagators only ever shrink domains; an emptied domain flips the store's
``infeasible`` flag, which is sticky.  Drivers run the propagators either
once each in registration order or to a fixed point.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left
from operator import gt, itemgetter
from typing import Iterable, List, Sequence, Tuple, Union

from .cost import Cost, INFINITY


class AdapterFailure(Exception):
    """A propagation adapter produced an inconsistent model build."""


class DomainStore:
    """Interval domains ``[lbs[x], ubs[x]]`` with a sticky infeasibility
    flag and a bit mask of live variables.

    The two bound lists are the whole state, as no model needs a hole in a
    domain, and the only way to read a domain.  A propagator reads them
    through ``bounds``, which checks its id range once; an adapter reads
    the variables it filled itself.  Every write goes through ``set_lb``,
    ``set_ub`` or ``mark_infeasible``, so the monotone-shrink invariant,
    emptiness detection, and the change revision counter live in one
    place.  A store is owned by a single solve; sharing is read-only.

    ``live`` has bit ``x`` set when variable ``x`` takes part in this
    store's state: ``Disjunctive`` and ``Cumulative`` skip every item whose
    variable is dead, so one propagator built over all of a model's
    variables serves every state.  The default, ``-1``, has every bit set.
    ``PrecedenceLe`` ignores the mask, and a dead variable's domain is
    still checked for emptiness.
    """

    __slots__ = ("lbs", "ubs", "infeasible", "revision", "live")

    def __init__(self, lbs: List[int], ubs: List[int], live: int = -1):
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

        While the store is feasible no domain is empty, so a propagator
        reads bounds from them directly; writes still go through
        ``set_lb``/``set_ub``.
        """
        if lo < 0 or hi >= len(self.lbs):
            raise AdapterFailure(f"variable ids {lo}..{hi} out of range")
        return self.lbs, self.ubs

    def contains(self, x: int, v: int) -> bool:
        if not 0 <= x < len(self.lbs):
            raise AdapterFailure(f"variable id {x} out of range")
        return self.lbs[x] <= v <= self.ubs[x]

    def mark_infeasible(self) -> None:
        if not self.infeasible:
            self.infeasible = True
            self.revision += 1

    def set_lb(self, x: int, v: int) -> None:
        """Shrink the lower bound of ``x`` up to ``v`` (no-op if weaker)."""
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

    def set_ub(self, x: int, v: int) -> None:
        """Shrink the upper bound of ``x`` down to ``v`` (no-op if weaker)."""
        if self.infeasible:
            return
        if not 0 <= x < len(self.ubs):
            raise AdapterFailure(f"variable id {x} out of range")
        if v >= self.ubs[x]:
            return
        self.ubs[x] = v
        self.revision += 1
        if v < self.lbs[x]:
            self.infeasible = True


class PrecedenceLe:
    """``start_i + offset <= start_j`` for each ``(i, offset, j)`` arc.

    The arcs are applied once each, in list order: lift ``lbs[j]`` to
    ``lbs[i] + offset``, then cut ``ubs[i]`` to ``ubs[j] - offset``, each arc
    seeing the shrinks of the arcs before it.  One call therefore does what
    one single-arc propagator per arc, run in sequence, would do.
    """

    def __init__(self, arcs: Iterable[Tuple[int, int, int]]):
        self.arcs = list(arcs)
        self._lo, self._hi = 0, -1
        if self.arcs:
            tails, _offsets, heads = zip(*self.arcs)
            self._lo = min(min(tails), min(heads))
            self._hi = max(max(tails), max(heads))

    def propagate(self, store: DomainStore) -> None:
        if store.infeasible:
            return
        lbs, ubs = store.bounds(self._lo, self._hi)
        for i, offset, j in self.arcs:
            v = lbs[i] + offset
            if v > lbs[j]:
                store.set_lb(j, v)
                if store.infeasible:
                    return
            v = ubs[j] - offset
            if v < ubs[i]:
                store.set_ub(i, v)
                if store.infeasible:
                    return


class Disjunctive:
    """A set of jobs that must not overlap, filtered by edge-finding.

    Each item is ``(start_var, duration)`` with a constant duration, as
    edge-finding is defined over fixed processing times.  A model whose
    true durations may exceed the one it passes (TSPTW hands over each
    leave cost) gets a relaxation: shrinking a job preserves disjointness,
    so every deduction made here is sound for the longer jobs.

    Jobs of duration zero impose nothing and are skipped, and so are jobs
    whose variable is not in ``store.live``.  One application runs the
    overload check, a lower-bound lifting pass, and the same pass on the
    time-reversed jobs for upper bounds, all from the entry bounds.
    """

    def __init__(self, items: Iterable[Tuple[int, int]]):
        self.items = list(items)
        ids = [v for v, _ in self.items]
        self._lo, self._hi = (min(ids), max(ids)) if ids else (0, -1)

    def propagate(self, store: DomainStore) -> None:
        if store.infeasible:
            return
        lbs, ubs = store.bounds(self._lo, self._hi)
        live = store.live
        jobs, mirrored = [], []
        for v, p in self.items:
            if p <= 0 or not live >> v & 1:
                continue
            est, lct = lbs[v], ubs[v] + p
            jobs.append((est, p, lct, v))
            mirrored.append((-lct, p, -est, v))
        if not jobs:
            return
        lifts = _edge_find_lower(jobs)
        drops = _edge_find_lower(mirrored) if lifts is not None else None
        if drops is None:
            store.mark_infeasible()
            return
        for v, new_est in lifts.items():
            store.set_lb(v, new_est)
            if store.infeasible:
                return
        durations = {v: p for _est, p, _lct, v in jobs} if drops else {}
        for v, new_mirror_est in drops.items():
            store.set_ub(v, -new_mirror_est - durations[v])
            if store.infeasible:
                return


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
    needs the exact test over prefix arrays built once per edge: prefixes
    with ``a > est_i`` are settled by the last of them, the rest by a
    suffix maximum of ``a + E``.  Total cost is O(n^2 log n).
    """
    by_est_desc = sorted(jobs, key=itemgetter(0), reverse=True)
    by_lct_desc = sorted(jobs, key=itemgetter(2), reverse=True)
    floor = by_est_desc[-1][0]  # below every a + E
    lifted = {}
    outside = []  # jobs with lct > b that may still fire
    pos = 0
    while True:
        b = by_lct_desc[pos][2]
        energy = 0
        ect = floor
        for est, p, lct, _key in by_est_desc:
            if lct <= b:
                energy += p
                if est + energy > ect:
                    ect = est + energy
        if ect > b:
            return None
        if outside:
            slack = b - ect
            neg_ests = None
            waiting = []
            for job in outside:
                est_i, p_i, _lct, _key = job
                if est_i >= ect:
                    continue
                if p_i <= slack:
                    waiting.append(job)
                    continue
                if est_i + p_i <= b:
                    if neg_ests is None:
                        # -a (ascending), E, then suffix maxima of a + E.
                        neg_ests, energies, bounds, energy = [], [], [], 0
                        for est, p, lct, _key in by_est_desc:
                            if lct <= b:
                                energy += p
                                neg_ests.append(-est)
                                energies.append(energy)
                                bounds.append(est + energy)
                        for k in range(len(bounds) - 2, -1, -1):
                            if bounds[k] < bounds[k + 1]:
                                bounds[k] = bounds[k + 1]
                        bounds.append(floor)  # r past the end: floor <= room
                    room = b - p_i
                    r = bisect_left(neg_ests, -est_i)
                    if bounds[r] <= room and not (r and est_i + energies[r - 1] > room):
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


class Cumulative:
    """Capacity-limited tasks filtered by time-table reasoning.

    Tasks are ``(start_var, duration, usage)`` with constant durations and
    usages; a task whose variable is not in ``store.live`` is skipped, so
    one object over all of a resource's users serves every state.  A live
    task whose bounds pin part of its execution occupies that compulsory
    part in every schedule; stacking compulsory parts gives a lower profile
    of guaranteed usage.  Live tasks are swept past profile segments that
    would overflow the capacity together with their own usage (excluding
    their own compulsory contribution).
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
        if store.infeasible:
            return
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
        if not segments:
            return
        # Each bound is written as soon as it is known; the sweeps only
        # raise lb and lower ub, and an unmoved bound is not written.  A
        # task that fits on top of the highest segment cannot be moved.
        # Each sweep pushes the task past every segment whose height, less
        # the task's own compulsory usage there, exceeds ``limit``.  The
        # compulsory part ``[ub, lb + p)`` covers segment ``[a, b)`` when
        # ``ub <= a`` and ``b <= lb + p``; without a compulsory part no
        # segment passes that test.
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
                if store.infeasible:
                    return
            new_ub = ub
            for a, b, h in reversed(segments):
                if b <= new_ub:
                    break
                if a >= new_ub + p:
                    continue
                if ub <= a and b <= end:
                    h -= u
                if h > limit:
                    new_ub = a - p
            if new_ub != ub:
                store.set_ub(v, new_ub)
                if store.infeasible:
                    return


Propagator = Union[PrecedenceLe, Disjunctive, Cumulative]


def propagate_once(store: DomainStore, props: Sequence[Propagator]) -> DomainStore:
    """Apply each propagator exactly once, in order.

    Later propagators see the shrinks of earlier ones.  Infeasibility is a
    store flag, never an exception.
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


def ect_envelope_max(tasks: Sequence[Tuple[int, Sequence[int]]], capacities: Sequence[int]) -> int:
    """Largest earliest-completion envelope over several resources, from
    one sort.

    ``tasks`` are ``(lb_start, energies)`` with one ``usage * duration``
    per resource.  For each resource of capacity ``C`` the envelope is the
    largest ``min_lb + ceil(sum(energy) / C)`` over non-empty task subsets.
    Only suffix sets by start lower bound need evaluating: replacing any
    subset by all tasks with ``lb >= min_lb`` of that subset can only add
    energy at the same left edge.  Tasks tied in ``lb`` may come in any order: the suffix
    ending at the last of them holds the most energy at that left edge,
    so the maximum does not depend on it.
    """
    by_lb_desc = sorted(tasks, key=itemgetter(0), reverse=True)
    best = 0
    for r, capacity in enumerate(capacities):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        energy = 0
        for lb, energies in by_lb_desc:
            energy += energies[r]
            cand = lb + -(-energy // capacity)
            if cand > best:
                best = cand
    return best


class PropagationAdapter(ABC):
    """Bridge from a DP model's states to a CP model over a domain store.

    ``build`` is deterministic for equal states and primal bounds.  The
    primal is passed in so that an adapter may cap the latest starts of
    pending tasks by it; the search reads infeasibility from
    ``store.infeasible``.  ``reads_primal`` says whether ``build`` reads
    the primal at all.  An adapter whose ``build`` gives the same store
    for a state under every primal sets it to False, and CABS then reuses
    the state's propagated store under a later incumbent; the default,
    True, is always sound, and reuses it only under the same one.  The
    path cost is not passed: the search prunes on the larger of the
    node's ``f`` and ``g`` plus ``dual_cp`` itself, so a cap on the
    remaining cost would only repeat that test.  A ``dual_cp`` of 0 adds
    nothing, and the pop still prunes on ``f``, which holds the model
    dual: an adapter whose bound is all there returns 0.

    The search calls ``dual_cp`` only on a feasible store, so an adapter
    need not guard an empty domain.  It calls it for a popped state under
    its own propagated store, then, in generation order and under that
    same store, for each successor that the store does not veto and that
    neither the registry nor the model dual has rejected: the parent's
    domains remain valid for every successor, which is what makes the
    per-successor bound sound.  So an adapter may reuse one sum per store,
    keyed on the store's identity and ``revision`` (as ``SmsAdapter``
    does); a reused value must equal the one computed afresh, whatever the
    call order.

    ``build`` returns the propagators together with the store.  Where they
    do not depend on the state, an adapter builds them once, over all of
    its variables, and returns the same list on every call; the store's
    ``live`` mask then tells ``Disjunctive`` and ``Cumulative`` which
    variables to skip (SMS and RCPSP do this).  TSPTW's job durations are
    its state's leave costs, so it builds its ``Disjunctive`` per call.
    The pair also lets a profiler wrap each propagator a store is
    propagated with (``perfbench/tracing.py``).

    The transition rule lives only in the model's ``successors``, so the
    successor veto is handed the state it produced, not its parent, and
    reduces to domain lookups.
    """

    reads_primal = True

    @abstractmethod
    def build(self, state, primal: Cost = INFINITY) -> Tuple[DomainStore, List[Propagator]]:
        """CP variables, domains, and propagators representing ``state``
        against the incumbent cost ``primal``."""

    @abstractmethod
    def dual_cp(self, state, store: DomainStore) -> Cost:
        """Lower bound on remaining cost of ``state`` under ``store``,
        which is feasible."""

    @abstractmethod
    def is_succ_infeasible(self, label, succ, store: DomainStore) -> bool:
        """True when ``store``, the parent's propagated store, rules out the
        transition ``label`` that produced ``succ``."""
