"""Small constraint-propagation engine: integer domains and propagators.

The engine owns a per-solve ``DomainStore`` of integer domains (intervals
or finite sets) and a handful of stateless propagator descriptors:

* ``Disjunctive`` -- non-overlapping jobs, filtered by edge-finding,
* ``Cumulative``  -- capacity-limited tasks, filtered by time-table
  reasoning over compulsory parts,
* ``PrecedenceLe`` -- ``start_i + offset <= start_j`` bounds arithmetic,
* ``SumLe``       -- a sum of variables capped by a constant.

Propagators only ever shrink domains; an emptied domain flips the store's
``infeasible`` flag, which is sticky.  Drivers run the propagators either
once each in registration order or to a fixed point.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .cost import Cost, INFINITY, is_finite


class AdapterFailure(Exception):
    """A propagation adapter produced an inconsistent model build."""


class Interval:
    """Contiguous integer domain; only its bounds ever move."""

    __slots__ = ("lb", "ub")

    def __init__(self, lb: int, ub: int):
        self.lb = lb
        self.ub = ub

    def is_empty(self) -> bool:
        return self.lb > self.ub

    def contains(self, v: int) -> bool:
        return self.lb <= v <= self.ub

    def copy(self) -> "Interval":
        return Interval(self.lb, self.ub)

    def __repr__(self):
        return f"[{self.lb}, {self.ub}]"


class FiniteSet:
    """Sorted distinct integers; supports removal of interior values."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable[int]):
        self.values = sorted(set(values))

    def is_empty(self) -> bool:
        return not self.values

    @property
    def lb(self) -> int:
        return self.values[0]

    @property
    def ub(self) -> int:
        return self.values[-1]

    def contains(self, v: int) -> bool:
        i = bisect_left(self.values, v)
        return i < len(self.values) and self.values[i] == v

    def copy(self) -> "FiniteSet":
        c = FiniteSet.__new__(FiniteSet)
        c.values = list(self.values)
        return c

    def __repr__(self):
        return "{" + ", ".join(map(str, self.values)) + "}"


Domain = Union[Interval, FiniteSet]


class DomainStore:
    """Indexed domains with a sticky infeasibility flag.

    All mutation goes through the store so the monotone-shrink invariant,
    emptiness detection, and the change revision counter live in one place.
    A store is owned by a single solve; sharing is read-only.
    """

    def __init__(self, domains: Sequence[Domain]):
        self._domains: List[Domain] = list(domains)
        self.infeasible = False
        self.revision = 0
        for d in self._domains:
            if d.is_empty():
                self.infeasible = True

    def __len__(self):
        return len(self._domains)

    def domain(self, x: int) -> Domain:
        try:
            return self._domains[x]
        except IndexError:
            raise AdapterFailure(f"variable id {x} out of range") from None

    def lb(self, x: int) -> int:
        d = self.domain(x)
        if d.is_empty():
            raise AdapterFailure(f"lb() on empty domain of variable {x}")
        return d.lb

    def ub(self, x: int) -> int:
        d = self.domain(x)
        if d.is_empty():
            raise AdapterFailure(f"ub() on empty domain of variable {x}")
        return d.ub

    def contains(self, x: int, v: int) -> bool:
        return self.domain(x).contains(v)

    def mark_infeasible(self) -> None:
        if not self.infeasible:
            self.infeasible = True
            self.revision += 1

    def set_lb(self, x: int, v: int) -> None:
        """Shrink the lower bound of ``x`` up to ``v`` (no-op if weaker)."""
        if self.infeasible:
            return
        d = self.domain(x)
        if isinstance(d, Interval):
            if v <= d.lb:
                return
            d.lb = v
            self.revision += 1
            if d.is_empty():
                self.infeasible = True
        else:
            i = bisect_left(d.values, v)
            if i == 0:
                return
            del d.values[:i]
            self.revision += 1
            if d.is_empty():
                self.infeasible = True

    def set_ub(self, x: int, v: int) -> None:
        """Shrink the upper bound of ``x`` down to ``v`` (no-op if weaker)."""
        if self.infeasible:
            return
        d = self.domain(x)
        if isinstance(d, Interval):
            if v >= d.ub:
                return
            d.ub = v
            self.revision += 1
            if d.is_empty():
                self.infeasible = True
        else:
            i = bisect_right(d.values, v)
            if i == len(d.values):
                return
            del d.values[i:]
            self.revision += 1
            if d.is_empty():
                self.infeasible = True


class VarDuration(NamedTuple):
    """Marks a disjunctive item duration given by a variable's lower bound."""

    var: int


DurationSpec = Union[int, VarDuration]


def _duration_lb(store: DomainStore, d: DurationSpec) -> int:
    return d if isinstance(d, int) else store.lb(d.var)


@dataclass(frozen=True)
class PrecedenceLe:
    """``start_i + offset <= start_j``."""

    i: int
    offset: int
    j: int

    def propagate(self, store: DomainStore) -> None:
        if store.infeasible:
            return
        store.set_lb(self.j, store.lb(self.i) + self.offset)
        if store.infeasible:
            return
        store.set_ub(self.i, store.ub(self.j) - self.offset)


@dataclass(frozen=True)
class SumLe:
    """``sum(terms) <= cap`` with lower-bound-consistent pruning.

    An infinite cap (no incumbent yet) makes the constraint vacuous.
    """

    terms: Tuple[int, ...]
    cap: Cost

    def propagate(self, store: DomainStore) -> None:
        if store.infeasible or not is_finite(self.cap) or not self.terms:
            return
        lbs = [store.lb(x) for x in self.terms]
        total = sum(lbs)
        if total > self.cap:
            store.mark_infeasible()
            return
        for x, lb in zip(self.terms, lbs):
            # Values above cap - sum(other lower bounds) cannot appear.
            store.set_ub(x, self.cap - (total - lb))
            if store.infeasible:
                return


class Disjunctive:
    """A set of jobs that must not overlap, filtered by edge-finding.

    Each item is ``(start_var, duration)`` where the duration is either a
    constant or a variable reference resolved to its current lower bound.
    Substituting minimum durations yields a relaxation of the real jobs
    (shrinking a job preserves disjointness), so every deduction made here
    is sound for the original durations.

    Jobs whose duration bound is zero impose nothing and are skipped.
    One application runs the overload check, a lower-bound lifting pass,
    and the mirrored upper-bound pass, all from the entry bounds.
    """

    def __init__(self, items: Iterable[Tuple[int, DurationSpec]]):
        self.items = list(items)

    def propagate(self, store: DomainStore) -> None:
        if store.infeasible:
            return
        live = []
        for var, dur in self.items:
            p = _duration_lb(store, dur)
            if p <= 0:
                continue
            live.append((var, p))
        if not live:
            return
        # Forward axis: lift earliest starts of jobs forced after a set.
        jobs = [(store.lb(v), p, store.ub(v) + p, v) for v, p in live]
        lifts = _edge_find_lower(jobs)
        if lifts is None:
            store.mark_infeasible()
            return
        # Mirrored axis (time reversal): the same pass tightens latest
        # starts of jobs forced before a set.
        mirrored = [(-(store.ub(v) + p), p, -store.lb(v), v) for v, p in live]
        drops = _edge_find_lower(mirrored)
        if drops is None:
            store.mark_infeasible()
            return
        durations = dict(live)
        for v, new_est in lifts.items():
            store.set_lb(v, new_est)
            if store.infeasible:
                return
        for v, new_mirror_est in drops.items():
            store.set_ub(v, -new_mirror_est - durations[v])
            if store.infeasible:
                return


def _edge_find_lower(jobs):
    """Edge-finding lower-bound lifts over task-interval sets.

    ``jobs`` is a list of ``(est, p, lct, key)``.  Returns ``{key: new_est}``
    for strictly improved bounds, or ``None`` on detected overload.

    A candidate set is characterised by an upper window edge ``b`` (a job
    lct) and a lower edge ``a`` (a job est): the jobs with ``lct <= b`` and
    ``est >= a``.  If such a set together with an outside job ``i`` cannot
    fit before ``b``, job ``i`` must run after the whole set, lifting its
    earliest start to the set's earliest completion.  Restricting to these
    interval sets loses no deductions.

    Each edge ``b`` takes one pass over ``T_b``, the jobs with
    ``lct <= b`` in descending-est order, whose prefixes are the candidate
    sets; the pass also runs the overload check.  Two facts keep the rest
    cheap.  A job with ``lct_i <= b`` is never lifted by window ``b``: the
    set plus ``i`` lies inside an est-suffix of ``T_b`` that already fits
    before ``b``.  For a job with ``lct_i > b`` the lift is the ECT of the
    largest qualifying prefix, since ECTs never decrease along the order;
    the prefixes whose ests all exceed ``est_i`` need one test, the rest a
    bisection over suffix maxima of ``est + energy``.  Total cost is
    O(n^2 log n).
    """
    by_est_desc = sorted(jobs, key=lambda j: (-j[0], j[2]))
    best = [None] * len(jobs)
    for b in sorted({j[2] for j in jobs}):
        neg_ests = []  # -est of each prefix's last member (ascending)
        energies = []  # prefix energies E_k
        ects = []  # prefix earliest completion times
        bounds = []  # est_k + E_k
        energy = 0
        ect = None
        for est, p, lct, _key in by_est_desc:
            if lct > b:
                continue
            energy += p
            cand = est + energy
            if cand > b:
                return None
            if ect is None or cand > ect:
                ect = cand
            neg_ests.append(-est)
            energies.append(energy)
            ects.append(ect)
            bounds.append(cand)
        # neg_suf[k] = -max(bounds[k:]) ascends, so bisection finds the
        # largest k with bounds[k] above a threshold.
        neg_suf = bounds[:]
        top = None
        for k in range(len(bounds) - 1, -1, -1):
            if top is None or bounds[k] > top:
                top = bounds[k]
            neg_suf[k] = -top
        last = len(bounds) - 1
        for x, (est_i, p_i, lct_i, _key) in enumerate(jobs):
            if lct_i <= b:
                continue
            if est_i + p_i > b:
                # i alone cannot finish by b: it runs after every member.
                k = last
            else:
                # Largest prefix k whose set plus i cannot fit in
                # [min(est_i, a_k), b].  Past the first r prefixes
                # (a_k <= est_i) that is a_k + E_k + p_i > b; within them
                # it is est_i + E_k + p_i > b, which grows with k.
                k = bisect_left(neg_suf, p_i - b) - 1
                r = bisect_left(neg_ests, -est_i)
                if k < r:
                    k = r - 1 if r and est_i + energies[r - 1] + p_i > b else -1
            if k >= 0:
                lift = ects[k]
                if lift > est_i and (best[x] is None or lift > best[x]):
                    best[x] = lift
    return {jobs[x][3]: v for x, v in enumerate(best) if v is not None}


class Cumulative:
    """Capacity-limited tasks filtered by time-table reasoning.

    Tasks are ``(start_var, duration, usage)`` with constant durations and
    usages.  A task whose bounds pin part of its execution occupies that
    compulsory part in every schedule; stacking compulsory parts gives a
    lower profile of guaranteed usage.  Tasks are swept past profile
    segments that would overflow the capacity together with their own
    usage (excluding their own compulsory contribution).
    """

    def __init__(self, tasks: Iterable[Tuple[int, int, int]], capacity: int):
        self.tasks = list(tasks)
        self.capacity = capacity

    def propagate(self, store: DomainStore) -> None:
        if store.infeasible:
            return
        live = [(v, p, u) for v, p, u in self.tasks if p > 0 and u > 0]
        for _v, _p, u in live:
            if u > self.capacity:
                store.mark_infeasible()
                return
        if not live:
            return
        bounds = {v: (store.lb(v), store.ub(v)) for v, _p, _u in live}
        segments = self._profile(live, bounds)
        if segments is None:
            store.mark_infeasible()
            return
        if not segments:
            return
        new_bounds = []
        for v, p, u in live:
            lb, ub = bounds[v]
            cp = self._compulsory(lb, ub, p)
            new_lb = self._sweep_up(segments, lb, p, u, cp)
            new_ub = self._sweep_down(segments, ub, p, u, cp)
            new_bounds.append((v, new_lb, new_ub))
        for v, new_lb, new_ub in new_bounds:
            store.set_lb(v, new_lb)
            if store.infeasible:
                return
            store.set_ub(v, new_ub)
            if store.infeasible:
                return

    @staticmethod
    def _compulsory(lb: int, ub: int, p: int) -> Optional[Tuple[int, int]]:
        """Interval occupied in every schedule, or None."""
        if ub < lb + p:
            return (ub, lb + p)
        return None

    def _profile(self, live, bounds):
        """Maximal constant segments ``(a, b, height)`` of compulsory usage.

        Returns None when the profile alone exceeds the capacity.
        """
        events: dict = {}
        for v, p, u in live:
            cp = self._compulsory(*bounds[v], p)
            if cp is None:
                continue
            events[cp[0]] = events.get(cp[0], 0) + u
            events[cp[1]] = events.get(cp[1], 0) - u
        if not events:
            return []
        points = sorted(events)
        segments = []
        height = 0
        for a, b in zip(points, points[1:]):
            height += events[a]
            if height > self.capacity:
                return None
            if height > 0:
                segments.append((a, b, height))
        return segments

    def _overlap_height(self, seg, cp, u):
        """Profile height at ``seg`` minus the task's own contribution."""
        a, b, height = seg
        if cp is not None and cp[0] <= a and cp[1] >= b:
            return height - u
        return height

    def _sweep_up(self, segments, lb, p, u, cp):
        cur = lb
        for seg in segments:
            a, b, _h = seg
            if a >= cur + p:
                break
            if b <= cur:
                continue
            if self._overlap_height(seg, cp, u) + u > self.capacity:
                cur = b
        return cur

    def _sweep_down(self, segments, ub, p, u, cp):
        cur = ub
        for seg in reversed(segments):
            a, b, _h = seg
            if b <= cur:
                break
            if a >= cur + p:
                continue
            if self._overlap_height(seg, cp, u) + u > self.capacity:
                cur = a - p
        return cur


Propagator = Union[PrecedenceLe, SumLe, Disjunctive, Cumulative]


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
    """Repeat full passes until no propagator changes anything."""
    while not store.infeasible:
        before = store.revision
        for p in props:
            if store.infeasible:
                break
            p.propagate(store)
        if store.revision == before:
            break
    return store


def ect_envelope(tasks: Sequence[Tuple[int, int, int]], capacity: int) -> int:
    """Earliest-completion envelope of ``(lb_start, duration, usage)`` tasks.

    Maximises ``ceil((C * min_lb + sum(usage * duration)) / C)`` over all
    non-empty task subsets.  Only suffix sets by start lower bound need
    evaluating: replacing any subset by all tasks with ``lb >= min_lb``
    of that subset can only add energy at the same left edge.
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    if not tasks:
        return 0
    by_lb_desc = sorted(tasks, key=lambda t: -t[0])
    best = 0
    energy = 0
    for lb, p, u in by_lb_desc:
        energy += u * p
        cand = lb + -(-energy // capacity)
        if cand > best:
            best = cand
    return best


class PropagationAdapter(ABC):
    """Bridge from a DP model's states to a CP model over a domain store.

    ``build`` is deterministic for equal states.  The current path cost and
    primal bound are passed in so objective-capping constraints can be
    emitted; the search reads infeasibility from ``store.infeasible``.
    ``dual_cp`` may be evaluated for a successor state against its
    parent's propagated store: the parent's domains remain valid for every
    successor, which is what makes the per-successor bound sound.  The
    transition rule lives only in the model's ``successors``, so the
    successor veto is handed the state it produced and reduces to domain
    lookups.
    """

    @abstractmethod
    def build(
        self, state, g: Cost = 0, primal: Cost = INFINITY
    ) -> Tuple[DomainStore, List[Propagator]]:
        """CP variables, domains, and propagators representing ``state``."""

    @abstractmethod
    def dual_cp(self, state, store: DomainStore) -> Cost:
        """Lower bound on remaining cost of ``state`` under ``store``."""

    @abstractmethod
    def is_succ_infeasible(self, label, state, succ, store: DomainStore) -> bool:
        """True when ``store`` rules out the transition ``label`` taking
        ``state`` to ``succ``."""
