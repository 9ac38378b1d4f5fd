"""Resource-constrained project scheduling, minimising the makespan.

Tasks have durations and per-resource usages; precedence pairs force one
task to finish before another starts, and each renewable resource has a
capacity that the running tasks may never exceed.  The model schedules one
task at a time at its earliest feasible start no sooner than the current
time, so starts are non-decreasing along a path.  Transition weights are
the increase of a makespan estimate (finished work plus the best possible
completion of pending work); they telescope, so the path cost charged from
the target's estimate equals the final makespan.

A state is derived once, from its parent, and carries what every layer
reads of it: the bit mask of its scheduled tasks (its signature), the
tasks still running at its clock, and its makespan estimate.  So the
successor rule, dominance, both dual bounds and the CP build read those
fields instead of rescanning all n starts.

Dual bounds, both the model's own (critical path, resource energy) and the
propagation-based ones (latest pending finish and completion envelope over
the propagated start bounds), naturally bound the total makespan; they are
converted to remaining cost by subtracting the state's current estimate,
floored at 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .core import DpModel, iter_bits
from .cost import Cost, INFINITY, check_ceiling
from .cp_engine import (
    Cumulative,
    DomainStore,
    PrecedenceLe,
    PropagationAdapter,
    ect_envelope_max,
)
from .parsing import ParseError, all_int_tokens, read_instance


@dataclass(frozen=True)
class RcpspTask:
    duration: int
    usages: Tuple[int, ...]

    def __post_init__(self):
        if self.duration < 1:
            raise ValueError("task duration must be >= 1")
        if any(u < 0 for u in self.usages):
            raise ValueError("usages must be >= 0")


class RcpspInstance:
    """Immutable instance with derived precedence structure.

    Validates that the precedence graph is acyclic and that no single task
    exceeds a resource capacity (such an instance could never be scheduled).
    """

    def __init__(
        self,
        tasks: Sequence[RcpspTask],
        capacities: Sequence[int],
        precedences: Sequence[Tuple[int, int]],
    ):
        self.tasks: Tuple[RcpspTask, ...] = tuple(tasks)
        self.capacities: Tuple[int, ...] = tuple(capacities)
        self.precedences: Tuple[Tuple[int, int], ...] = tuple(
            (int(i), int(j)) for i, j in precedences
        )
        n = len(self.tasks)
        if n == 0:
            raise ValueError("instance needs at least one task")
        if any(c < 1 for c in self.capacities):
            raise ValueError("capacities must be >= 1")
        for t in self.tasks:
            if len(t.usages) != len(self.capacities):
                raise ValueError("task usage vector length mismatch")
            for u, c in zip(t.usages, self.capacities):
                if u > c:
                    raise ValueError("task usage exceeds a resource capacity")
        self.predecessors: Tuple[Tuple[int, ...], ...]
        self.successors: Tuple[Tuple[int, ...], ...]
        preds: List[List[int]] = [[] for _ in range(n)]
        succs: List[List[int]] = [[] for _ in range(n)]
        for i, j in self.precedences:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"bad precedence pair ({i}, {j})")
            preds[j].append(i)
            succs[i].append(j)
        self.predecessors = tuple(tuple(p) for p in preds)
        self.successors = tuple(tuple(s) for s in succs)
        self.horizon = sum(t.duration for t in self.tasks)
        self.topo_order = self._topological_order()

    @property
    def n(self) -> int:
        return len(self.tasks)

    @property
    def n_resources(self) -> int:
        return len(self.capacities)

    def _topological_order(self) -> Tuple[int, ...]:
        indeg = [len(p) for p in self.predecessors]
        order = [i for i in range(self.n) if indeg[i] == 0]
        head = 0
        while head < len(order):
            i = order[head]
            head += 1
            for j in self.successors[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    order.append(j)
        if len(order) != self.n:
            raise ValueError("precedence graph has a cycle")
        return tuple(order)

    def to_json(self) -> dict:
        return {
            "tasks": [{"p": t.duration, "u": list(t.usages)} for t in self.tasks],
            "capacities": list(self.capacities),
            "precedences": [[i, j] for i, j in self.precedences],
        }

    @staticmethod
    def from_json(data: dict) -> "RcpspInstance":
        tasks = [RcpspTask(t["p"], tuple(t["u"])) for t in data["tasks"]]
        return RcpspInstance(
            tasks, tuple(data["capacities"]), [tuple(p) for p in data["precedences"]]
        )


class RcpspState(NamedTuple):
    """A partial schedule.  Build one with ``RcpspModel.make_state``: the
    last three fields are derived from ``starts`` and ``time``."""

    starts: Tuple[Optional[int], ...]  # None while unscheduled
    time: int  # start of the task scheduled last; no start lies after it
    scheduled: int  # bit mask of the scheduled tasks: the state signature
    running: Tuple[int, ...]  # scheduled tasks with start + p > time, ascending
    estimate: int  # latest finish, pending tasks taken as starting at time


class RcpspModel(DpModel):
    """Schedule one task at a time at its earliest feasible start.

    A state carries, next to its starts and clock, the bit mask of its
    scheduled tasks, the tasks still running at its clock, and its makespan
    estimate ``max(time + longest pending p, latest running finish)``.  The
    task scheduled last starts at ``time`` and so is running, and every
    other scheduled task has finished by ``time`` or is running too.  So
    the estimate is the latest finish over all tasks, with the pending ones
    started at ``time``.
    ``successors`` derives a child's fields from its parent's, and no rule
    scans every start: ``earliest_time`` checks capacity against the
    running tasks, left-shift pruning drops a candidate that another
    candidate finishes before, ``dominates`` compares states of equal
    signature by their clocks and the dominator's running tasks, and
    ``dual`` takes precomputed tails and energies over the pending tasks.
    """

    def __init__(self, instance: RcpspInstance):
        self.instance = instance
        # Starts and store bounds stay within the horizon, as do the pending
        # work floors, so every time is at most twice that.
        check_ceiling(2 * instance.horizon)
        tasks = instance.tasks
        durations = tuple(t.duration for t in tasks)
        self._durations = durations
        self._usages = tuple(t.usages for t in tasks)
        self._full = (1 << instance.n) - 1
        # A set, since an instance may repeat a precedence pair.
        self._pred_masks = tuple(sum(1 << j for j in set(p)) for p in instance.predecessors)
        # (resource, usage, capacity) for each resource a task uses.
        self._needs = tuple(
            tuple(
                (r, u, cap)
                for r, (u, cap) in enumerate(zip(t.usages, instance.capacities))
                if u > 0
            )
            for t in tasks
        )
        # Longest duration sum along a precedence chain from each task.
        # Every successor of a pending task is pending, so the largest tail
        # over the pending tasks is their critical path.
        tails = [0] * instance.n
        for i in reversed(instance.topo_order):
            tails[i] = durations[i] + max((tails[j] for j in instance.successors[i]), default=0)
        self._tails = tuple(tails)
        self._energies = tuple(tuple(u * t.duration for u in t.usages) for t in tasks)
        self._longest_first = tuple(sorted(range(instance.n), key=lambda i: -durations[i]))
        # One tuple per running set, shared by every state that has it.  A
        # race between solves sharing the model at worst stores an equal
        # tuple twice.
        self._running_sets: Dict[int, Tuple[int, ...]] = {}

    def _running(self, mask: int) -> Tuple[int, ...]:
        running = self._running_sets.get(mask)
        if running is None:
            running = self._running_sets[mask] = tuple(iter_bits(mask))
        return running

    def make_state(self, starts: Sequence[Optional[int]], time: int) -> RcpspState:
        """The state with these starts and clock, its other fields derived
        from scratch."""
        durations = self._durations
        scheduled = running = estimate = 0
        for i, s in enumerate(starts):
            if s is None:
                finish = time + durations[i]
            elif s > time:
                raise ValueError(f"task {i} starts at {s}, after the state's time {time}")
            else:
                scheduled |= 1 << i
                finish = s + durations[i]
                if finish > time:
                    running |= 1 << i
            if finish > estimate:
                estimate = finish
        return RcpspState(tuple(starts), time, scheduled, self._running(running), estimate)

    def target_state(self) -> RcpspState:
        return self.make_state((None,) * self.instance.n, 0)

    def root_cost(self) -> Cost:
        return self.target_state().estimate

    def is_base(self, state: RcpspState) -> bool:
        return state.scheduled == self._full

    def base_cost(self, state: RcpspState) -> Cost:
        return 0

    def earliest_time(self, state: RcpspState, task: int) -> Optional[int]:
        """Earliest start in [time, horizon] with all predecessors finished
        and no resource conflict against the running scheduled tasks."""
        if self._pred_masks[task] & ~state.scheduled:
            return None
        durations = self._durations
        starts = state.starts
        h = state.time
        for j in self.instance.predecessors[task]:
            finish = starts[j] + durations[j]
            if finish > h:
                h = finish
        # Every scheduled start is at most ``time``, so a task finishing
        # after ``h`` runs throughout [time, its finish).
        usages = self._usages
        busy = []
        for j in state.running:
            finish = starts[j] + durations[j]
            if finish > h:
                busy.append((finish, usages[j]))
        need = self._needs[task]
        horizon = self.instance.horizon
        for cand in [h] + sorted([f for f, _u in busy]):
            if cand > horizon:
                return None
            for r, u, cap in need:
                load = u
                for finish, usage in busy:
                    if finish > cand:
                        load += usage[r]
                if load > cap:
                    break
            else:
                return cand
        return None

    def successors(self, state: RcpspState):
        starts, _time, scheduled, running, estimate = state
        durations = self._durations
        candidates = []
        # The two smallest candidate finishes, and the task of the first.
        first = second = 2 * self.instance.horizon + 1
        first_task = None
        for task in range(len(starts)):
            if scheduled >> task & 1:
                continue
            slot = self.earliest_time(state, task)
            if slot is None:
                continue
            candidates.append((task, slot))
            finish = slot + durations[task]
            if finish < second:
                if finish < first:
                    first, second, first_task = finish, first, task
                else:
                    second = finish
        out = []
        for task, slot in candidates:
            # Drop a candidate when another candidate finishes before its
            # slot even starts: scheduling the short one first can only help.
            if (second if task == first_task else first) <= slot:
                continue
            # The child's running tasks are the parent's still running at
            # the slot, and the task itself.
            kept = 1 << task
            latest = slot + durations[task]
            for j in running:
                finish = starts[j] + durations[j]
                if finish > slot:
                    kept |= 1 << j
                    if finish > latest:
                        latest = finish
            done = scheduled | 1 << task
            for j in self._longest_first:
                if not done >> j & 1:
                    if slot + durations[j] > latest:
                        latest = slot + durations[j]
                    break
            succ = RcpspState(
                starts[:task] + (slot,) + starts[task + 1 :],
                slot,
                done,
                self._running(kept),
                latest,
            )
            out.append((latest - estimate, task, succ))
        return out

    def dominates(self, a: RcpspState, b: RcpspState) -> bool:
        # Tasks still running at the dominated state's clock must have
        # started no later in the dominator.  One that started later in
        # ``a`` and runs past ``b.time >= a.time`` is running in ``a``.
        tb = b.time
        if a.time > tb:
            return False
        durations = self._durations
        starts_a, starts_b = a.starts, b.starts
        for i in a.running:
            sa = starts_a[i]
            if sa > starts_b[i] and sa + durations[i] > tb:
                return False
        return True

    def dual(self, state: RcpspState) -> Cost:
        """Critical-path and resource-energy floors on the pending work, as
        remaining cost."""
        scheduled = state.scheduled
        pending = [i for i in range(len(self._tails)) if not scheduled >> i & 1]
        tails, energies = self._tails, self._energies
        floor = max([tails[i] for i in pending], default=0)
        for energy, cap in zip(
            map(sum, zip(*[energies[i] for i in pending])), self.instance.capacities
        ):
            need = -(-energy // cap)
            if need > floor:
                floor = need
        return max(0, state.time + floor - state.estimate)

    def state_signature(self, state: RcpspState):
        return state.scheduled


class RcpspAdapter(PropagationAdapter):
    """CP view: fixed starts for scheduled tasks, and for pending ones
    windows whose latest start lets them finish by the incumbent; one
    capacity propagator per resource over all of its users, which skips
    the finished tasks (the store's ``live`` mask holds the pending and
    running ones), and all precedence links.  The propagators are built
    once."""

    def __init__(self, model: RcpspModel):
        self.model = model
        self.instance = model.instance
        inst = self.instance
        tasks = inst.tasks
        self._durations = model._durations
        self._energies = model._energies
        self._props = [
            Cumulative([(i, t.duration, t.usages[r]) for i, t in enumerate(tasks)], cap)
            for r, cap in enumerate(inst.capacities)
        ]
        self._props.append(
            PrecedenceLe((i, tasks[i].duration, j) for i, j in inst.precedences)
        )

    def build(self, state: RcpspState, primal: Cost = INFINITY):
        inst = self.instance
        starts, time = state.starts, state.time
        # A pending task must finish by the horizon, and by the incumbent.
        finish_by = min(inst.horizon, primal)
        lbs = [time if s is None else s for s in starts]
        ubs = [finish_by - p if s is None else s for s, p in zip(starts, self._durations)]
        live = ~state.scheduled  # pending tasks, and the running ones below
        for j in state.running:
            live |= 1 << j
        return DomainStore(lbs, ubs, live), self._props

    def dual_cp(self, state: RcpspState, store: DomainStore) -> Cost:
        # The latest earliest finish of a pending task, and the completion
        # envelope, each bound the makespan.
        finish = 0
        pending = []
        for s, lb, p, e in zip(state.starts, store.lbs, self._durations, self._energies):
            if s is None:
                pending.append((lb, e))
                if lb + p > finish:
                    finish = lb + p
        envelope = ect_envelope_max(pending, self.instance.capacities)
        return max(0, max(finish, envelope) - state.estimate)

    def is_succ_infeasible(self, label: int, succ: RcpspState, store: DomainStore) -> bool:
        return not store.contains(label, succ.starts[label])


def ordering_optimum(instance: RcpspInstance) -> int:
    """Minimum makespan over all precedence-feasible task orderings, each
    task scheduled greedily at its earliest feasible start no sooner than
    the previous task's start.

    Shares no code with ``RcpspModel``: a start is found by stepping one
    time unit at a time until the task fits under every capacity at every
    instant it runs, given the tasks already placed.
    """
    tasks = instance.tasks
    starts: List[Optional[int]] = [None] * instance.n
    best: Optional[int] = None

    def fits(task: int, t: int) -> bool:
        for instant in range(t, t + tasks[task].duration):
            for r, cap in enumerate(instance.capacities):
                load = tasks[task].usages[r]
                for j, s in enumerate(starts):
                    if s is not None and s <= instant < s + tasks[j].duration:
                        load += tasks[j].usages[r]
                if load > cap:
                    return False
        return True

    def rec(previous: int, placed: int):
        nonlocal best
        if placed == instance.n:
            makespan = max(s + tasks[i].duration for i, s in enumerate(starts))
            if best is None or makespan < best:
                best = makespan
            return
        for task in range(instance.n):
            preds = instance.predecessors[task]
            if starts[task] is not None or any(starts[j] is None for j in preds):
                continue
            t = max([previous] + [starts[j] + tasks[j].duration for j in preds])
            # Terminates: no single task exceeds a capacity, so it fits once
            # every placed task has finished.
            while not fits(task, t):
                t += 1
            starts[task] = t
            rec(t, placed + 1)
            starts[task] = None

    rec(0, 0)
    return best


def parse_psplib(text: str, path: str = "<psplib>") -> RcpspInstance:
    """Parse a single-mode PSPLIB .sm file.

    Reads the job count, precedence relations, per-job durations and
    resource requests, and renewable-resource availabilities.  Dummy
    zero-duration jobs (the supersource/sink, and any others) are stripped
    with their precedences contracted through them.
    """
    lines = text.splitlines()
    n_jobs = None
    n_renew = None
    prec_at = None
    req_at = None
    avail_at = None
    for idx, line in enumerate(lines):
        low = line.lower()
        if "jobs (incl." in low:
            try:
                n_jobs = int(line.split(":")[1].strip())
            except (IndexError, ValueError):
                raise ParseError("bad job-count line", path, idx + 1)
        elif "- renewable" in low:
            toks = line.split(":")
            try:
                n_renew = int(toks[1].split()[0])
            except (IndexError, ValueError):
                raise ParseError("bad renewable-resource line", path, idx + 1)
        elif "precedence relations" in low:
            prec_at = idx
        elif "requests/durations" in low:
            req_at = idx
        elif "resourceavailabilities" in low:
            avail_at = idx
    if n_jobs is None or n_renew is None or None in (prec_at, req_at, avail_at):
        raise ParseError("missing a required section", path)

    successors: Dict[int, List[int]] = {}
    for idx in range(prec_at + 1, len(lines)):
        row = all_int_tokens(lines[idx])
        if row is None:
            if lines[idx].startswith("***"):
                break
            continue  # header line
        if len(row) < 3:
            raise ParseError("short precedence row", path, idx + 1)
        job, _mode, nsucc = row[0], row[1], row[2]
        succ = row[3:]
        if len(succ) != nsucc:
            raise ParseError("successor count mismatch", path, idx + 1)
        if job in successors:
            raise ParseError(f"second precedence row for job {job}", path, idx + 1)
        successors[job] = succ

    durations: Dict[int, int] = {}
    usages: Dict[int, List[int]] = {}
    for idx in range(req_at + 1, len(lines)):
        row = all_int_tokens(lines[idx])
        if row is None:
            if lines[idx].startswith("***"):
                break
            continue
        if len(row) < 3 + n_renew:
            raise ParseError("short request/duration row", path, idx + 1)
        job = row[0]
        if job in durations:
            raise ParseError(f"second request/duration row for job {job}", path, idx + 1)
        if row[2] < 0:
            raise ParseError("negative duration", path, idx + 1)
        durations[job] = row[2]
        usages[job] = row[3 : 3 + n_renew]

    capacities: Optional[List[int]] = None
    for idx in range(avail_at + 1, len(lines)):
        if lines[idx].startswith("***"):
            break
        row = all_int_tokens(lines[idx])
        if row is not None:
            capacities = row[:n_renew]
            break
    if capacities is None or len(capacities) < n_renew:
        raise ParseError("missing resource availabilities", path)

    if len(durations) != n_jobs:
        raise ParseError(
            f"expected {n_jobs} request/duration rows, got {len(durations)}", path
        )

    # Contract zero-duration dummies: connect their predecessors to their
    # successors, then drop them.
    preds: Dict[int, Set[int]] = {j: set() for j in durations}
    succs: Dict[int, Set[int]] = {j: set() for j in durations}
    for job, slist in successors.items():
        if job not in durations:
            raise ParseError(f"precedence row for job {job} has no request row", path)
        for s in slist:
            if s not in durations:
                raise ParseError(f"successor {s} of job {job} unknown", path)
            succs[job].add(s)
            preds[s].add(job)
    # Check the whole graph for a cycle first: contracting one through a
    # dummy would drop it silently.  On an acyclic graph the contraction
    # below cannot create a self-loop.
    indegree = {j: len(preds[j]) for j in durations}
    ready = [j for j, d in indegree.items() if d == 0]
    for j in ready:
        for s in succs[j]:
            indegree[s] -= 1
            if indegree[s] == 0:
                ready.append(s)
    if len(ready) != len(durations):
        raise ParseError("precedence relations contain a cycle", path)
    for dummy in sorted(j for j in durations if durations[j] == 0):
        dummy_preds = preds.pop(dummy)
        dummy_succs = succs.pop(dummy)
        for a in dummy_preds:
            succs[a].discard(dummy)
            succs[a].update(dummy_succs)
        for b in dummy_succs:
            preds[b].discard(dummy)
            preds[b].update(dummy_preds)

    real = sorted(j for j in durations if durations[j] > 0)
    if not real:
        raise ParseError("no non-dummy jobs", path)
    index = {job: k for k, job in enumerate(real)}
    edges = sorted(
        (index[a], index[b]) for a in real for b in succs.get(a, ()) if b in index
    )
    try:
        tasks = [RcpspTask(durations[j], tuple(usages[j])) for j in real]
        return RcpspInstance(tasks, tuple(capacities), edges)
    except ValueError as exc:
        raise ParseError(str(exc), path) from exc


def load_instance(path: str) -> RcpspInstance:
    """The JSON or PSPLIB instance at ``path``; see ``parsing.read_instance``."""
    return read_instance(path, RcpspInstance.from_json, parse_psplib)
