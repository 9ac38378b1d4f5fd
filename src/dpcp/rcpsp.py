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
successor rule, dominance, the dual bound and the CP build read those
fields instead of rescanning all n starts.

The dual bound (``RcpspModel.dual``) is the largest of three makespan
floors: critical paths and energy envelopes over one earliest start per
pending task, and a clash sequence of pending tasks that can never overlap
and so run one after another.  It is converted to remaining cost by
subtracting the state's estimate, floored at 0.  ``off`` and the
propagating modes use the same function, the latter with a propagated
store's lower bounds as the floor of each pending task's earliest start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .core import DpModel, iter_bits
from .cost import Cost, check_ceiling
from .cp_engine import Cumulative, DomainStore, PrecedenceLe, PropagationAdapter
from .parsing import ParseError, all_int_tokens, read_instance, require_int, require_list


@dataclass(frozen=True)
class RcpspTask:
    duration: int
    usages: Tuple[int, ...]

    def __post_init__(self):
        require_int("task duration", self.duration, 1)
        for u in self.usages:
            require_int("usage", u, 0)


def topological_order(nodes: Iterable[int], successors) -> Optional[List[int]]:
    """Kahn's order of ``nodes`` under an arc from each ``i`` to each
    ``j`` in ``successors[i]``, sources first in the order of ``nodes``,
    or None if the arcs close a cycle.  A repeated arc orders as one."""
    indegree = dict.fromkeys(nodes, 0)
    for i in indegree:
        for j in successors[i]:
            indegree[j] += 1
    order = [i for i, d in indegree.items() if d == 0]
    for i in order:  # grows while it is walked
        for j in successors[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                order.append(j)
    return order if len(order) == len(indegree) else None


class RcpspInstance:
    """Immutable instance with derived precedence structure.

    Validates that no single task exceeds a resource capacity (such an
    instance could never be scheduled) and that the precedence graph is
    acyclic; ``topo_order`` is the graph's ``topological_order``, which
    the model's tails are computed along.
    """

    def __init__(
        self,
        tasks: Sequence[RcpspTask],
        capacities: Sequence[int],
        precedences: Sequence[Tuple[int, int]],
    ):
        self.tasks: Tuple[RcpspTask, ...] = tuple(tasks)
        self.capacities: Tuple[int, ...] = tuple(capacities)
        n = len(self.tasks)
        if n == 0:
            raise ValueError("tasks must be a non-empty list, got []")
        for c in self.capacities:
            require_int("capacity", c, 1)
        for t in self.tasks:
            require_list("task usages", t.usages, len(self.capacities))
            for u, c in zip(t.usages, self.capacities):
                if u > c:
                    raise ValueError(f"usage must be <= its capacity {c}, got {u}")
        self.predecessors: Tuple[Tuple[int, ...], ...]
        self.successors: Tuple[Tuple[int, ...], ...]
        preds: List[List[int]] = [[] for _ in range(n)]
        succs: List[List[int]] = [[] for _ in range(n)]
        pairs = []
        for pair in precedences:
            i, j = pair if isinstance(pair, (list, tuple)) and len(pair) == 2 else (None, None)
            # Two distinct task ids; a JSON string is no id.
            ids = type(i) is int and type(j) is int
            if not ids or not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"bad precedence pair {pair!r}")
            pairs.append((i, j))
            preds[j].append(i)
            succs[i].append(j)
        self.precedences: Tuple[Tuple[int, int], ...] = tuple(pairs)
        self.predecessors = tuple(tuple(p) for p in preds)
        self.successors = tuple(tuple(s) for s in succs)
        self.horizon = sum(t.duration for t in self.tasks)
        order = topological_order(range(n), self.successors)
        if order is None:
            raise ValueError("precedence graph has a cycle")
        self.topo_order: Tuple[int, ...] = tuple(order)

    @property
    def n(self) -> int:
        return len(self.tasks)

    def to_json(self) -> dict:
        return {
            "tasks": [{"p": t.duration, "u": list(t.usages)} for t in self.tasks],
            "capacities": list(self.capacities),
            "precedences": [[i, j] for i, j in self.precedences],
        }

    @staticmethod
    def from_json(data: dict) -> "RcpspInstance":
        capacities = require_list("capacities", data["capacities"])
        tasks = []
        for t in require_list("tasks", data["tasks"]):
            if not isinstance(t, dict):
                raise ValueError(f"task must be an object, got {t!r}")
            # Checked here too, so that the error shows the JSON list.
            usages = require_list("task usages", t["u"], len(capacities))
            tasks.append(RcpspTask(t["p"], tuple(usages)))
        return RcpspInstance(tasks, capacities, require_list("precedences", data["precedences"]))


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
    ``dual`` takes precomputed tails, energies and clash masks over the
    pending tasks.
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
        self._zeros = (0,) * instance.n
        self._longest_first = tuple(sorted(range(instance.n), key=lambda i: -durations[i]))
        self._clash = None  # built on the first ``dual``, so set-up spends nothing
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

    def dual(self, state: RcpspState, floor: Optional[Sequence[int]] = None) -> Cost:
        """Lower bound on the remaining makespan of ``state``, each pending
        task ``i`` starting no earlier than ``est = max(floor[i], time)``,
        the clock without a floor: starts never decrease along a path, so
        this holds also when ``floor`` is the store of a successor's parent.

        The makespan is at least ``est + tail`` of each pending task, whose
        successors are all pending, and, per resource of capacity ``C``,
        ``est + ceil(E / C)`` of each set of pending tasks, ``est`` its
        smallest and ``E`` its energy.  Only the suffix sets by ``est``
        need evaluating, ties in any order: the suffix from a set's
        smallest ``est`` holds the set and has the same left edge.

        Pending tasks that pairwise clash (``_build_clash``) run one after
        another from the clock, or from the finish of a running task that
        clashes with each of them, as none starts before the clock.  The
        set is chosen greedily, longest first (after Mingozzi et al.'s
        node-packing bound, 1998); this floor ignores ``floor``.
        """
        scheduled, time = state.scheduled, state.time
        tails = self._tails
        latest = 0
        pending = []
        for i, lb in enumerate(floor or self._zeros):
            if not scheduled >> i & 1:
                est = lb if lb > time else time
                if est + tails[i] > latest:
                    latest = est + tails[i]
                pending.append((est, i))
        pending.sort(reverse=True)
        energies = self._energies
        for r, cap in enumerate(self.instance.capacities):
            energy = 0
            for est, i in pending:
                energy += energies[i][r]
                envelope = est - (-energy // cap)
                if envelope > latest:
                    latest = envelope
        clash, order = self._clash or self._build_clash()
        starts, durations = state.starts, self._durations
        todo = self._full & ~scheduled
        anchors = [(time, todo)]
        anchors += [(starts[j] + durations[j], todo & clash[j]) for j in state.running]
        for finish, candidates in anchors:
            # Greedy: after a task is kept, only the tasks it clashes with
            # stay candidates.
            for bit, p, row in order:
                if candidates & bit:
                    finish += p
                    candidates &= row
                    if not candidates:
                        break
            if finish > latest:
                latest = finish
        return max(0, latest - state.estimate)

    def _build_clash(self):
        """``(clash, order)``, built whole before its one write: ``clash[i]``
        masks the tasks that never overlap ``i``, as some resource cannot
        hold both or precedences chain them; ``order`` holds ``(1 << i,
        p_i, clash[i])`` longest first, ties by id."""
        inst = self.instance
        n, usages, succs = inst.n, self._usages, inst.successors
        clash, down, up = [0] * n, [0] * n, [0] * n
        for r, cap in enumerate(inst.capacities):
            # By rising usage the threshold ``cap - u_ir`` falls, so the
            # mask of the tasks above it only grows.
            by_use = sorted(range(n), key=lambda i: usages[i][r])
            above, k = 0, n
            for i in by_use:
                while k and usages[by_use[k - 1]][r] + usages[i][r] > cap:
                    k -= 1
                    above |= 1 << by_use[k]
                clash[i] |= above
        for i in reversed(inst.topo_order):
            for j in succs[i]:
                down[i] |= down[j] | 1 << j
        for i in inst.topo_order:
            for j in succs[i]:
                up[j] |= up[i] | 1 << i
        clash = [c | d | u for c, d, u in zip(clash, down, up)]
        order = tuple((1 << i, self._durations[i], clash[i]) for i in self._longest_first)
        self._clash = table = (tuple(clash), order)
        return table

    def state_signature(self, state: RcpspState):
        return state.scheduled


class RcpspAdapter(PropagationAdapter):
    """CP view: fixed starts for scheduled tasks, and for pending ones
    windows ``[time, horizon - p]``; one capacity propagator per resource
    over all of its users, which skips the finished tasks (the store's
    ``live`` mask holds the pending and running ones), and all precedence
    links, built once.  ``dual_cp`` is the default.

    The default veto drops nothing, and no veto could: a reachable
    state's store is never empty and holds the start each child gives its
    task.  A child starts its task at ``earliest_time``, no later than the
    latest finish of the parent's scheduled tasks.  As each start is at
    most the latest finish before it, those tasks cover ``[0, latest
    finish]`` with no gap, so that finish is at most their total duration.
    Add the remaining tasks to the child's partial schedule one at a time,
    in precedence order, each at the latest finish so far: that schedule
    ends by the horizon, the sum of all durations, so it solves the
    parent's CP model, and sound propagators keep every solution.  So
    propagation acts only through the floors and ``dual_cp``.
    """

    def __init__(self, model: RcpspModel):
        super().__init__(model)
        inst = self.instance
        tasks = inst.tasks
        self._durations = model._durations
        self._props = [
            Cumulative([(i, t.duration, t.usages[r]) for i, t in enumerate(tasks)], cap)
            for r, cap in enumerate(inst.capacities)
        ]
        self._props.append(
            PrecedenceLe((i, tasks[i].duration, j) for i, j in inst.precedences)
        )

    def build(self, state: RcpspState):
        starts, time = state.starts, state.time
        # A pending task must finish by the horizon.
        finish_by = self.instance.horizon
        lbs = [time if s is None else s for s in starts]
        ubs = [finish_by - p if s is None else s for s, p in zip(starts, self._durations)]
        live = ~state.scheduled  # pending tasks, and the running ones below
        for j in state.running:
            live |= 1 << j
        return DomainStore(lbs, ubs, live), self._props


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


# The named lines that every PSPLIB file holds; the nonrenewable and doubly
# constrained resource counts may be missing.
_REQUIRED_LINES = {
    "job-count",
    "renewable-resource",
    "precedence-relations",
    "requests/durations",
    "resource-availabilities",
}


def parse_psplib(text: str, path: str = "<psplib>") -> RcpspInstance:
    """Parse a single-mode PSPLIB .sm file.

    Reads the job count, precedence relations, per-job durations and
    resource requests, and renewable-resource availabilities.  Each of
    the five lines that name them must appear once, and so may the lines
    that count nonrenewable and doubly constrained resources (0 where
    missing).  Every job needs a precedence row and a request row.  Each
    section's rows are its all-integer lines up to the ``***`` line that
    closes it.  A request row holds the job, its mode and its duration,
    then one value per resource of the three kinds, and the availability
    row one value per resource; only the renewable ones are read.
    Zero-duration jobs are dummies, wherever they sit in the graph: the
    supersource and sink, and any others.  They are contracted, so real
    job ``a`` precedes real job ``b`` exactly when a path leads from ``a``
    to ``b`` through dummies alone.  A cycle is a parse error, also one
    through dummies alone, which contraction would drop.
    """
    lines = text.splitlines()
    at: Dict[str, int] = {}  # each named line's index; a second is an error
    resources: Dict[str, int] = {}  # each resource line's count
    for idx, line in enumerate(lines):
        low = line.lower()
        if "jobs (incl." in low:
            kind = "job-count"
        elif "- renewable" in low:
            kind = "renewable-resource"
        elif "- nonrenewable" in low:
            kind = "nonrenewable-resource"
        elif "- doubly constrained" in low:
            kind = "doubly-constrained-resource"
        elif "precedence relations" in low:
            kind = "precedence-relations"
        elif "requests/durations" in low:
            kind = "requests/durations"
        elif "resourceavailabilities" in low:
            kind = "resource-availabilities"
        else:
            continue
        if kind in at:
            raise ParseError(f"second {kind} line", path, idx + 1)
        at[kind] = idx
        try:
            if kind == "job-count":
                n_jobs = int(line.split(":")[1].strip())
            elif kind.endswith("-resource"):
                resources[kind] = int(line.split(":")[1].split()[0])
                if resources[kind] < 0:
                    raise ValueError
        except (IndexError, ValueError):
            raise ParseError(f"bad {kind} line", path, idx + 1)
    if not _REQUIRED_LINES <= at.keys():
        raise ParseError("missing a required section", path)
    n_renew = resources["renewable-resource"]
    width = sum(resources.values())  # values per request and availability row

    def rows(header: int):
        # (line number, integers) for each row of the section under header.
        for idx in range(header + 1, len(lines)):
            row = all_int_tokens(lines[idx])
            if row is not None:
                yield idx + 1, row
            elif lines[idx].startswith("***"):
                return

    successors: Dict[int, List[int]] = {}
    for line, row in rows(at["precedence-relations"]):
        if len(row) < 3:
            raise ParseError("short precedence row", path, line)
        job, _mode, nsucc = row[0], row[1], row[2]
        if len(row) - 3 != nsucc:
            raise ParseError("successor count mismatch", path, line)
        if job in successors:
            raise ParseError(f"second precedence row for job {job}", path, line)
        successors[job] = row[3:]

    durations: Dict[int, int] = {}
    usages: Dict[int, List[int]] = {}
    for line, row in rows(at["requests/durations"]):
        if len(row) != 3 + width:
            raise ParseError(
                f"request/duration row holds {len(row)} integers, not {3 + width}", path, line
            )
        job = row[0]
        if job in durations:
            raise ParseError(f"second request/duration row for job {job}", path, line)
        if row[2] < 0:
            raise ParseError(f"duration must be >= 0, got {row[2]}", path, line)
        durations[job] = row[2]
        usages[job] = row[3 : 3 + n_renew]

    line, available = next(rows(at["resource-availabilities"]), (None, None))
    if available is None:
        raise ParseError("missing resource availabilities", path)
    if len(available) != width:
        raise ParseError(
            f"resource availability row holds {len(available)} integers, not {width}", path, line
        )
    capacities = available[:n_renew]

    if len(durations) != n_jobs:
        raise ParseError(
            f"expected {n_jobs} request/duration rows, got {len(durations)}", path
        )

    for job, slist in successors.items():
        if job not in durations:
            raise ParseError(f"precedence row for job {job} has no request row", path)
        for s in slist:
            if s not in durations:
                raise ParseError(f"successor {s} of job {job} unknown", path)
    for job in durations:
        if job not in successors:
            raise ParseError(f"no precedence row for job {job}", path)
    order = topological_order(durations, successors)
    if order is None:
        raise ParseError("precedence relations contain a cycle", path)
    # The real jobs a job reaches directly or through dummies alone are its
    # real successors and those its dummy successors reach, which walking
    # the order backwards has already collected.
    reach: Dict[int, Set[int]] = {}
    for job in reversed(order):
        jobs = reach[job] = set()
        for s in successors[job]:
            if durations[s]:
                jobs.add(s)
            else:
                jobs |= reach[s]

    real = sorted(j for j in durations if durations[j] > 0)
    index = {job: k for k, job in enumerate(real)}
    edges = sorted((index[a], index[b]) for a in real for b in reach[a])
    try:
        tasks = [RcpspTask(durations[j], tuple(usages[j])) for j in real]
        return RcpspInstance(tasks, tuple(capacities), edges)
    except ValueError as exc:
        raise ParseError(str(exc), path) from exc


def load_instance(path: str) -> RcpspInstance:
    """The JSON or PSPLIB instance at ``path``; see ``parsing.read_instance``."""
    return read_instance(path, RcpspInstance.from_json, parse_psplib)
