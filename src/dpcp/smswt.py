"""Single-machine weighted-tardiness scheduling with releases and deadlines.

Jobs have a duration, a release time, a due date (tardiness is weighted
lateness past it), and a hard deadline (latest allowed finish).  The model
schedules one job at a time: a state is the set of still-unscheduled jobs
plus the machine's current time.  Scheduling job ``i`` at time ``t`` starts
it at ``max(t, r_i)`` and charges ``w_i * max(0, finish - d_i)``.  A state
is a dead end when some pending job would miss its deadline, as cut once
at the root (``SmsModel.table``), even if it started now.  As a DIDP
state constraint would, ``successors`` drops each child that is a dead
end by that rule, so only the target state, or a state built by hand, is
ever found dead when it is expanded.

The dual bound (``SmsModel.dual``) is the larger of two lower bounds on
the pending jobs' weighted tardiness, each over one earliest start per
job: ``max(r, t)``, or a propagated store's lower bound if that is
later.  The separable sum charges each job as if it started at its own
earliest start.  The queue term sees the one machine: weighted tardiness
is at least weighted lateness, and with every release relaxed to the
smallest earliest start ``t0`` the jobs' ``sum w*C`` is at least that of
the WSPT order started at ``t0`` (Smith's rule: Smith, *Naval Research
Logistics Quarterly*, 1956), less ``sum w*d``.  That order depends on the
jobs alone, so it is built once per model.  A feasible completion has
``sum w*C`` at most the pending jobs' ``sum w*deadline``, by the cut
deadlines, so a WSPT sum above that proves that none exists, and the
bound is then ``INFINITY``.  Below it, the queue term is at most ``sum
w*(deadline - d)``, so a path cost plus the bound stays within the
ceiling the model checks.

The propagation side has one start variable per job, live over its
window while the job is pending, and a single non-overlap constraint over
all jobs, built once per adapter; its store's lower bounds are the
floor of ``dual``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cmp_to_key
from typing import List, NamedTuple, Optional, Tuple

from .core import DpModel, iter_bits
from .cost import Cost, INFINITY, check_ceiling
from .cp_engine import Disjunctive, DomainStore, PropagationAdapter, propagate_once
from .parsing import read_instance, require_int, require_list


@dataclass(frozen=True)
class SmsJob:
    p: int  # duration
    r: int  # release time
    d: int  # due date
    deadline: int  # latest allowed finish
    w: int  # tardiness weight

    def __post_init__(self):
        require_int("p", self.p, 1)
        require_int("r", self.r, 0)
        require_int("d", self.d)
        require_int("deadline", self.deadline)
        require_int("w", self.w, 0)


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
        jobs = []
        for j in require_list("jobs", data["jobs"]):
            if not isinstance(j, dict):
                raise ValueError(f"job must be an object, got {j!r}")
            jobs.append(SmsJob(p=j["p"], r=j["r"], d=j["d"], deadline=j["deadline"], w=j["w"]))
        if "n" in data and require_int("n", data["n"]) != len(jobs):
            raise ValueError(f"n must be the job count {len(jobs)}, got {data['n']!r}")
        return SmsInstance(tuple(jobs))


class SmsState(NamedTuple):
    unscheduled: int  # bitmask over job indices
    time: int


class SmsModel(DpModel):
    """State-transition model minimising total weighted tardiness."""

    def __init__(self, instance: SmsInstance):
        self.instance = instance
        self._full = (1 << instance.n) - 1
        jobs = instance.jobs
        self.releases = tuple(j.r for j in jobs)
        self._table = None  # built on first use, so set-up spends nothing
        # The clock, each finish and each live start bound end by the latest
        # deadline, which bounds every tardiness term.
        latest = max((j.deadline for j in jobs), default=0)
        check_ceiling(sum(j.w * max(0, max(j.r, latest) + j.p - j.d) for j in jobs))

    def table(self):
        """``(deadlines, windows, wspt_rows)``, built on the first call and
        kept.

        ``deadlines`` are cut once by edge-finding on completion times: one
        ``Disjunctive`` pass over the windows mirrored in time, job ``i``
        starting at ``-C_i`` in ``[-deadline_i, -(r_i + p_i)]``.  Every
        feasible schedule meets them.  An order's schedule does not depend
        on the deadlines, so each order is feasible, at the same cost,
        under both sets: optima, replays and oracles do not change, and
        the bounds stay admissible on every state reachable from the
        target.  A pass that empties the store, by an overload or a cut
        below some job's earliest finish, cuts every deadline below its
        job's earliest finish, so the target is a dead end.  ``windows[i]``
        is ``(r_i, p_i, deadline_i - p_i)``.

        ``wspt_rows`` are ``(bit, i, r, w, p, p - d, w * d, w * (deadline -
        d))`` in Smith's order, by exact cross products: ``p_i / w_i <
        p_j / w_j`` first, zero weights last, ties either way.
        """
        if self._table is None:
            jobs = self.instance.jobs
            store = DomainStore([-j.deadline for j in jobs], [-j.r - j.p for j in jobs], -1)
            propagate_once(store, [Disjunctive((i, j.p) for i, j in enumerate(jobs))])
            if store.infeasible:
                deadlines = tuple(min(j.deadline, j.r + j.p - 1) for j in jobs)
            else:
                deadlines = tuple(-lb for lb in store.lbs)
            windows = tuple((j.r, j.p, dl - j.p) for j, dl in zip(jobs, deadlines))
            order = sorted(
                enumerate(jobs), key=cmp_to_key(lambda a, b: a[1].p * b[1].w - b[1].p * a[1].w)
            )
            rows = tuple(
                (1 << i, i, j.r, j.w, j.p, j.p - j.d, j.w * j.d, j.w * (deadlines[i] - j.d))
                for i, j in order
            )
            self._table = (deadlines, windows, rows)
        return self._table

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
        ``deadline - p``, by the cut deadline, of a job it leaves pending
        (every such job's release is at or before its latest start, or the
        state itself is dead).  So only the two smallest latest starts are kept, and each
        child is tested against the smallest one of another job.
        """
        windows = (self._table or self.table())[1]
        t = state.time
        mask = state.unscheduled
        finishes = []
        first = second = INFINITY
        first_at = -1
        for i in iter_bits(mask):
            r, p, latest = windows[i]
            start = t if t > r else r
            # A pending job already past its latest start can never
            # recover: the state is a dead end regardless of order.
            if start > latest:
                return []
            finishes.append((i, start + p))
            if latest < first:
                first, second, first_at = latest, first, i
            elif latest < second:
                second = latest
        out = []
        jobs = self.instance.jobs
        for i, f in finishes:
            if f > (second if i == first_at else first):
                continue
            job = jobs[i]
            late = f - job.d
            out.append((job.w * late if late > 0 else 0, i, SmsState(mask ^ (1 << i), f)))
        return out

    def dominates(self, a: SmsState, b: SmsState) -> bool:
        return a.time <= b.time

    def dual(self, state: SmsState, floor=None) -> Cost:
        """Lower bound on the weighted tardiness of the pending jobs of
        ``state``, each starting no earlier than ``max(r, t)`` at the
        state's clock ``t``, nor before ``floor[i]`` if a floor is given.

        The larger of the separable sum, each job started at its own
        earliest start, and the queue term, ``WSPT(t0) - sum w*d`` with
        ``t0`` the smallest earliest start; ``INFINITY`` when ``WSPT(t0)``
        passes the pending jobs' ``sum w*deadline`` (see the module
        docstring).  One pass over the WSPT rows: each pending job
        completes at ``t0`` plus ``done``, the pending durations up to and
        including its own.
        """
        mask, t = state
        floor = self.releases if floor is None else floor
        separable = weight = done = queue = room = 0
        t0 = INFINITY
        for row in (self._table or self.table())[2]:
            if mask & row[0]:
                _bit, i, r, w, p, slack, wd, wroom = row
                est = floor[i]
                if est < r:
                    est = r
                if est < t:
                    est = t
                if est < t0:
                    t0 = est
                late = est + slack
                if late > 0:
                    separable += w * late
                weight += w
                done += p
                queue += w * done - wd
                room += wroom
        # ``queue`` held ``sum w*(done - d)``, the WSPT sum started at 0.
        queue += weight * t0
        if queue > room:
            return INFINITY
        return queue if queue > separable else separable

    def state_signature(self, state: SmsState):
        return state.unscheduled


class SmsAdapter(PropagationAdapter):
    """CP view: one start variable per job, live while the job is pending,
    and one non-overlap constraint over all jobs, built once.

    A pending job's window is ``[max(r, t), deadline - p]`` at clock ``t``,
    with the model's cut deadline; ``build`` reads it from the model's
    ``windows``.  ``dual_cp`` is the default.  The veto tests the start a
    child gives its job, the child's clock less the job's duration,
    against the job's earliest start alone, so it fires only where
    edge-finding lifted that earliest start past it.  The latest start
    never decides: ``successors`` returns no child from a state in which a
    pending job would miss its deadline, so a child's job finishes by its
    deadline and starts by ``deadline - p``, its upper bound.
    """

    def __init__(self, model: SmsModel):
        super().__init__(model)
        jobs = self.instance.jobs
        self._durations = tuple(job.p for job in jobs)
        self._props = [Disjunctive((i, job.p) for i, job in enumerate(jobs))]

    def build(self, state: SmsState):
        windows = self.model.table()[1]
        lbs = [0] * len(windows)  # scheduled jobs keep the inert [0, 0]
        ubs = [0] * len(windows)
        t = state.time
        mask = state.unscheduled
        while mask:
            low = mask & -mask
            i = low.bit_length() - 1
            r, _p, latest = windows[i]
            lbs[i] = r if r > t else t
            ubs[i] = latest
            mask ^= low
        return DomainStore(lbs, ubs, state.unscheduled), self._props

    def is_succ_infeasible(self, label: int, succ: SmsState, store: DomainStore) -> bool:
        return store.lbs[label] > succ.time - self._durations[label]


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
        require_int("n", self.n, 1)
        require_int("count", self.count, 1)
        # A span is the knob times a duration sum of at most 10 * n, and an
        # infinite span has no integer width.  The chained tests are false
        # for NaN too.
        for name in ("rho", "phi"):
            knob = getattr(self, name)
            try:
                finite = 0 < knob < math.inf and knob * 10 * self.n < math.inf
            except OverflowError:  # n itself is past the float range
                finite = False
            if not finite:
                raise ValueError(f"{name} must be > 0 and {name} * 10 * n finite")


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
