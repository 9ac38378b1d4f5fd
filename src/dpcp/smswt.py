"""Single-machine weighted-tardiness scheduling with releases and deadlines.

Jobs have a duration, a release time, a due date (tardiness is weighted
lateness past it), and a hard deadline (latest allowed finish).  The model
schedules one job at a time: a state is the set of still-unscheduled jobs
plus the machine's current time.  Scheduling job ``i`` at time ``t`` starts
it at ``max(t, r_i)`` and charges ``w_i * max(0, finish - d_i)``.

The propagation side builds one start variable per unscheduled job over
its live window and a single non-overlap constraint; its dual bound is the
tardiness sum if every job started at its propagated earliest start.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

from .core import DpModel, iter_bits
from .cost import Cost, INFINITY
from .cp_engine import (
    Disjunctive,
    DomainStore,
    Interval,
    PropagationAdapter,
)
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

    def target_state(self) -> SmsState:
        return SmsState(self._full, 0)

    def is_base(self, state: SmsState) -> bool:
        return state.unscheduled == 0

    def base_cost(self, state: SmsState) -> Cost:
        return 0

    def successors(self, state: SmsState):
        jobs = self.instance.jobs
        t = state.time
        finishes = []
        for i in iter_bits(state.unscheduled):
            f = max(t, jobs[i].r) + jobs[i].p
            # A pending job already past its deadline can never recover:
            # the state is a dead end regardless of order.
            if f > jobs[i].deadline:
                return []
            finishes.append((i, f))
        out = []
        for i, f in finishes:
            weight = jobs[i].w * max(0, f - jobs[i].d)
            out.append((weight, i, SmsState(state.unscheduled ^ (1 << i), f)))
        return out

    def dominates(self, a: SmsState, b: SmsState) -> bool:
        return a.time <= b.time

    def dual(self, state: SmsState) -> Cost:
        """Tardiness sum if every pending job started as early as possible."""
        jobs = self.instance.jobs
        t = state.time
        total = 0
        for i in iter_bits(state.unscheduled):
            total += jobs[i].w * max(0, max(jobs[i].r, t) + jobs[i].p - jobs[i].d)
        return total

    def state_signature(self, state: SmsState):
        return state.unscheduled


class SmsAdapter(PropagationAdapter):
    """CP view: one start variable per pending job plus non-overlap."""

    def __init__(self, model: SmsModel):
        self.model = model
        self.instance = model.instance

    def build(self, state: SmsState, g: Cost = 0, primal: Cost = INFINITY):
        jobs = self.instance.jobs
        domains = []
        for i, job in enumerate(jobs):
            if state.unscheduled >> i & 1:
                domains.append(Interval(max(job.r, state.time), job.deadline - job.p))
            else:
                domains.append(Interval(0, 0))  # inert placeholder
        store = DomainStore(domains)
        items = [(i, jobs[i].p) for i in iter_bits(state.unscheduled)]
        return store, [Disjunctive(items)]

    def dual_cp(self, state: SmsState, store: DomainStore) -> Cost:
        jobs = self.instance.jobs
        total = 0
        for i in iter_bits(state.unscheduled):
            total += jobs[i].w * max(0, store.lb(i) + jobs[i].p - jobs[i].d)
        return total

    def is_succ_infeasible(
        self, label: int, state: SmsState, succ: SmsState, store: DomainStore
    ) -> bool:
        # The job finishes at the successor's clock; the transition dies
        # when its start was propagated out of the job's domain.
        return not store.contains(label, succ.time - self.instance.jobs[label].p)


def permutation_optimum(instance: SmsInstance) -> Cost:
    """Exact optimum by enumerating every feasible job order."""
    jobs = instance.jobs
    best: Cost = INFINITY

    def rec(mask: int, t: int, acc: int):
        nonlocal best
        if mask == 0:
            if acc < best:
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
        if self.rho <= 0:
            raise ValueError("rho must be > 0")
        if self.phi <= 0:
            raise ValueError("phi must be > 0")
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


def load_instance(path: str, fmt: str = "auto") -> SmsInstance:
    """The JSON instance at ``path``; see ``parsing.read_instance``."""
    return read_instance(path, fmt, SmsInstance.from_json)
