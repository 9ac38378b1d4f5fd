"""Single-machine weighted-tardiness scheduling with releases and deadlines.

Jobs have a duration, a release time, a due date (tardiness is weighted
lateness past it), and a hard deadline (latest allowed finish).  The model
schedules one job at a time: a state is the set of still-unscheduled jobs
plus the machine's current time.  Scheduling job ``i`` at time ``t`` starts
it at ``max(t, r_i)`` and charges ``w_i * max(0, finish - d_i)``.  A state
is a dead end when some pending job would miss its deadline even if it
started now.  As a DIDP state constraint would, ``successors`` drops each
child that is a dead end by that rule, so only the target state, or a
state built by hand, is ever found dead when it is expanded.

The propagation side has one start variable per job, live over its
window while the job is pending, and a single non-overlap constraint over
all jobs, built once per adapter; its dual bound is the tardiness sum if
every pending job started at its propagated earliest start.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from .core import DpModel, iter_bits
from .cost import Cost, INFINITY, check_ceiling
from .cp_engine import Disjunctive, DomainStore, PropagationAdapter
from .parsing import read_instance


@dataclass(frozen=True)
class SmsJob:
    p: int  # duration
    r: int  # release time
    d: int  # due date
    deadline: int  # latest allowed finish
    w: int  # tardiness weight

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("job duration must be >= 1")
        if self.r < 0:
            raise ValueError("release time must be >= 0")
        if self.w < 0:
            raise ValueError("weight must be >= 0")


@dataclass(frozen=True)
class SmsInstance:
    jobs: Tuple[SmsJob, ...]

    @property
    def n(self) -> int:
        return len(self.jobs)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "jobs": [
                {"p": j.p, "r": j.r, "d": j.d, "deadline": j.deadline, "w": j.w}
                for j in self.jobs
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "SmsInstance":
        jobs = tuple(
            SmsJob(p=j["p"], r=j["r"], d=j["d"], deadline=j["deadline"], w=j["w"])
            for j in data["jobs"]
        )
        if "n" in data and data["n"] != len(jobs):
            raise ValueError("job count does not match 'n'")
        return SmsInstance(jobs)


class SmsState(NamedTuple):
    unscheduled: int  # bitmask over job indices
    time: int


class SmsModel(DpModel):
    """State-transition model minimising total weighted tardiness."""

    def __init__(self, instance: SmsInstance):
        self.instance = instance
        self._full = (1 << instance.n) - 1
        # ``(w, r, p - d)`` per job: a job started at ``s`` is ``s + p - d``
        # late, and the bounds here and in ``SmsAdapter`` weigh that by ``w``.
        self.tardiness_terms = tuple((j.w, j.r, j.p - j.d) for j in instance.jobs)
        # The clock, each finish and each live start bound end by the latest
        # deadline, which bounds every tardiness term.
        latest = max((j.deadline for j in instance.jobs), default=0)
        check_ceiling(sum(j.w * max(0, max(j.r, latest) + j.p - j.d) for j in instance.jobs))

    def target_state(self) -> SmsState:
        return SmsState(self._full, 0)

    def is_base(self, state: SmsState) -> bool:
        return state.unscheduled == 0

    def base_cost(self, state: SmsState) -> Cost:
        return 0

    def successors(self, state: SmsState):
        """Each pending job scheduled next, less the children that are
        dead ends themselves.

        A child at clock ``f`` is dead when ``f`` passes the latest start
        ``deadline - p`` of a job it leaves pending (every such job's
        release is at or before its latest start, or the state itself is
        dead).  So only the two smallest latest starts are kept, and each
        child is tested against the smallest one of another job.
        """
        jobs = self.instance.jobs
        t = state.time
        mask = state.unscheduled
        finishes = []
        first = second = INFINITY
        first_at = -1
        for i in iter_bits(mask):
            job = jobs[i]
            f = (t if t > job.r else job.r) + job.p
            # A pending job already past its deadline can never recover:
            # the state is a dead end regardless of order.
            if f > job.deadline:
                return []
            finishes.append((i, f))
            latest = job.deadline - job.p
            if latest < first:
                first, second, first_at = latest, first, i
            elif latest < second:
                second = latest
        out = []
        for i, f in finishes:
            if f > (second if i == first_at else first):
                continue
            job = jobs[i]
            late = f - job.d
            out.append((job.w * late if late > 0 else 0, i, SmsState(mask ^ (1 << i), f)))
        return out

    def dominates(self, a: SmsState, b: SmsState) -> bool:
        return a.time <= b.time

    def dual(self, state: SmsState) -> Cost:
        """Tardiness sum if every pending job started as early as possible."""
        terms = self.tardiness_terms
        t = state.time
        total = 0
        mask = state.unscheduled
        while mask:
            low = mask & -mask
            w, r, slack = terms[low.bit_length() - 1]
            late = (r if r > t else t) + slack
            if late > 0:
                total += w * late
            mask ^= low
        return total

    def state_signature(self, state: SmsState):
        return state.unscheduled


class SmsAdapter(PropagationAdapter):
    """CP view: one start variable per job, live while the job is pending,
    and one non-overlap constraint over all jobs, built once."""

    reads_primal = False

    def __init__(self, model: SmsModel):
        self.model = model
        self.instance = model.instance
        self._terms = model.tardiness_terms
        self._props = [Disjunctive((i, job.p) for i, job in enumerate(self.instance.jobs))]
        # ``(store, revision, pending mask, total)`` of the last sum taken
        # in full: a child's pending set is its parent's less the chosen
        # job, so its bound under the parent's store is the parent's total
        # less one term.  The memo holds its store, so no later store can
        # take that identity.
        self._memo = (None, 0, 0, 0)

    def build(self, state: SmsState, primal: Cost = INFINITY):
        jobs = self.instance.jobs
        lbs = [0] * len(jobs)  # scheduled jobs keep the inert [0, 0]
        ubs = [0] * len(jobs)
        for i in iter_bits(state.unscheduled):
            job = jobs[i]
            lbs[i] = max(job.r, state.time)
            ubs[i] = job.deadline - job.p
        return DomainStore(lbs, ubs, state.unscheduled), self._props

    def dual_cp(self, state: SmsState, store: DomainStore) -> Cost:
        """Tardiness sum if every pending job started at its propagated
        earliest start."""
        mask = state.unscheduled
        terms, lbs = self._terms, store.lbs
        memo_store, revision, memo_mask, total = self._memo
        if store is memo_store and store.revision == revision:
            gone = memo_mask ^ mask
            if not gone:
                return total
            if not gone & mask and not gone & (gone - 1):
                i = gone.bit_length() - 1
                w, _r, slack = terms[i]
                late = lbs[i] + slack
                return total - w * late if late > 0 else total
        total = 0
        rest = mask
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            w, _r, slack = terms[i]
            late = lbs[i] + slack
            if late > 0:
                total += w * late
            rest ^= low
        self._memo = (store, store.revision, mask, total)
        return total

    def is_succ_infeasible(self, label: int, succ: SmsState, store: DomainStore) -> bool:
        # The job finishes at the successor's clock; the transition dies
        # when its start was propagated out of the job's domain.
        return not store.contains(label, succ.time - self.instance.jobs[label].p)


def exact_optimum(instance: SmsInstance) -> Optional[int]:
    """Exact optimum over every feasible job order, None if there is none;
    plain ``+`` keeps an optimum of ``INFINITY`` or above exact."""
    jobs = instance.jobs
    best: Optional[int] = None

    def rec(mask: int, t: int, acc: int):
        nonlocal best
        if mask == 0:
            if best is None or acc < best:
                best = acc
            return
        rest = mask
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            rest ^= low
            f = max(t, jobs[i].r) + jobs[i].p
            if f > jobs[i].deadline:
                continue
            rec(mask ^ low, f, acc + jobs[i].w * max(0, f - jobs[i].d))

    rec((1 << instance.n) - 1, 0, 0)
    return best


def permutation_optimum(instance: SmsInstance) -> Cost:
    """``exact_optimum`` as a cost, ``INFINITY`` if there is none."""
    best = exact_optimum(instance)
    return INFINITY if best is None else best


@dataclass(frozen=True)
class SmsGeneratorConfig:
    """Random-instance family: tightness knobs scale with total work.

    ``tau`` spreads release dates, ``rho`` widens due-date allowances, and
    ``phi`` widens deadlines, each as a fraction of the duration sum.
    """

    n: int
    tau: float
    rho: float
    phi: float
    seed: int = 0
    count: int = 1

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        # The chained test is false for NaN too; an infinite span has no
        # integer width.
        if not 0 < self.rho < math.inf:
            raise ValueError("rho must be finite and > 0")
        if not 0 < self.phi < math.inf:
            raise ValueError("phi must be finite and > 0")
        if self.n < 1 or self.count < 1:
            raise ValueError("n and count must be >= 1")


def generate_instances(config: SmsGeneratorConfig) -> List[SmsInstance]:
    """Deterministic uniform draws; durations first, then r, d, deadline, w.

    Durations and weights are drawn from [1, 10]; the remaining ranges
    scale with the duration sum P, truncating tau*P, rho*P, phi*P toward
    zero before sampling.
    """
    rng = random.Random(config.seed)
    out = []
    for _ in range(config.count):
        ps = [rng.randint(1, 10) for _ in range(config.n)]
        total = sum(ps)
        r_hi = int(config.tau * total)
        rho_span = int(config.rho * total)
        phi_span = int(config.phi * total)
        rs = [rng.randint(0, r_hi) for _ in range(config.n)]
        ds = [rng.randint(rs[i] + ps[i], rs[i] + ps[i] + rho_span) for i in range(config.n)]
        deadlines = [rng.randint(ds[i], ds[i] + phi_span) for i in range(config.n)]
        ws = [rng.randint(1, 10) for _ in range(config.n)]
        out.append(
            SmsInstance(
                tuple(
                    SmsJob(p=ps[i], r=rs[i], d=ds[i], deadline=deadlines[i], w=ws[i])
                    for i in range(config.n)
                )
            )
        )
    return out


def load_instance(path: str) -> SmsInstance:
    """The JSON instance at ``path``; see ``parsing.read_instance``."""
    return read_instance(path, SmsInstance.from_json)
