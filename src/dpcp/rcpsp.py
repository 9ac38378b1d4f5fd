"""Resource-constrained project scheduling, minimising the makespan.

Tasks have durations and per-resource usages; precedence pairs force one
task to finish before another starts, and each renewable resource has a
capacity that the running tasks may never exceed.  The model schedules one
task at a time at its earliest feasible start no sooner than the current
time, so starts are non-decreasing along a path.  Transition weights are
the increase of a makespan estimate (finished work plus the best possible
completion of pending work); they telescope, so the path cost charged from
the target's estimate equals the final makespan.

Dual bounds, both the model's own (critical path, resource energy) and the
propagation-based ones (completion envelope, and the objective variable,
which its links lift to the latest pending finish), naturally bound the
total makespan; they are converted to remaining cost by subtracting the
state's current estimate, floored at 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .core import DpModel
from .cost import Cost, INFINITY, is_finite
from .cp_engine import (
    Cumulative,
    DomainStore,
    Interval,
    PrecedenceLe,
    PropagationAdapter,
    ect_envelope,
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
    starts: Tuple[Optional[int], ...]  # None while unscheduled
    time: int


def critical_path_length(instance: RcpspInstance, mask: int) -> int:
    """Longest duration sum along precedence chains within ``mask``."""
    best = 0
    longest: Dict[int, int] = {}
    for i in instance.topo_order:
        if not (mask >> i & 1):
            continue
        base = longest.get(i, instance.tasks[i].duration)
        if base > best:
            best = base
        for j in instance.successors[i]:
            if mask >> j & 1:
                cand = base + instance.tasks[j].duration
                if cand > longest.get(j, 0):
                    longest[j] = cand
    return best


def energy_ceiling(instance: RcpspInstance, mask: int) -> int:
    """Resource-energy floor: time to fit the pending work in any order."""
    best = 0
    for r, cap in enumerate(instance.capacities):
        energy = 0
        for i in range(instance.n):
            if mask >> i & 1:
                energy += instance.tasks[i].usages[r] * instance.tasks[i].duration
        cand = -(-energy // cap)
        if cand > best:
            best = cand
    return best


class RcpspModel(DpModel):
    """Schedule one task at a time at its earliest feasible start.

    ``use_left_shift`` and ``use_dominance`` exist so the pruning rules can
    be cross-checked against unpruned search; both default on.
    """

    def __init__(
        self,
        instance: RcpspInstance,
        use_left_shift: bool = True,
        use_dominance: bool = True,
    ):
        self.instance = instance
        self.use_left_shift = use_left_shift
        self.use_dominance = use_dominance

    def target_state(self) -> RcpspState:
        return RcpspState((None,) * self.instance.n, 0)

    def root_cost(self) -> Cost:
        return self.makespan_estimate(self.target_state())

    def is_base(self, state: RcpspState) -> bool:
        return all(s is not None for s in state.starts)

    def base_cost(self, state: RcpspState) -> Cost:
        return 0

    def makespan_estimate(self, state: RcpspState) -> int:
        """Finished-work horizon: scheduled completions and the best-case
        completions of pending tasks started right now."""
        tasks = self.instance.tasks
        best = 0
        for i, s in enumerate(state.starts):
            cand = (state.time if s is None else s) + tasks[i].duration
            if cand > best:
                best = cand
        return best

    def earliest_time(self, state: RcpspState, task: int) -> Optional[int]:
        """Earliest start in [time, horizon] with all predecessors finished
        and no resource conflict against the running scheduled tasks."""
        inst = self.instance
        tasks = inst.tasks
        h = state.time
        for j in inst.predecessors[task]:
            s = state.starts[j]
            if s is None:
                return None
            finish = s + tasks[j].duration
            if finish > h:
                h = finish
        running = []
        for j, s in enumerate(state.starts):
            if s is not None and s + tasks[j].duration > h:
                running.append((j, s + tasks[j].duration))
        need = tasks[task].usages
        candidates = [h] + sorted(f for _j, f in running if f > h)
        for cand in candidates:
            if cand > inst.horizon:
                return None
            ok = True
            for r, u in enumerate(need):
                if u == 0:
                    continue
                load = u
                for j, f in running:
                    if f > cand and state.starts[j] <= cand:
                        load += tasks[j].usages[r]
                if load > inst.capacities[r]:
                    ok = False
                    break
            if ok:
                return cand
        return None

    def successors(self, state: RcpspState):
        inst = self.instance
        tasks = inst.tasks
        candidates = []
        for task in range(inst.n):
            if state.starts[task] is not None:
                continue
            if any(state.starts[j] is None for j in inst.predecessors[task]):
                continue
            slot = self.earliest_time(state, task)
            if slot is not None:
                candidates.append((task, slot))
        if self.use_left_shift:
            # Drop a candidate when another candidate finishes before its
            # slot even starts: scheduling the short one first can only help.
            kept = []
            for task, slot in candidates:
                beaten = any(
                    other != task and oslot + tasks[other].duration <= slot
                    for other, oslot in candidates
                )
                if not beaten:
                    kept.append((task, slot))
            candidates = kept
        mse0 = self.makespan_estimate(state)
        out = []
        for task, slot in candidates:
            starts = list(state.starts)
            starts[task] = slot
            succ = RcpspState(tuple(starts), slot)
            out.append((self.makespan_estimate(succ) - mse0, task, succ))
        return out

    def dominates(self, a: RcpspState, b: RcpspState) -> bool:
        if not self.use_dominance:
            return a == b
        if a.time > b.time:
            return False
        tasks = self.instance.tasks
        tb = b.time
        for i, (sa, sb) in enumerate(zip(a.starts, b.starts)):
            if sa is None:
                continue  # equal signature: sb is None too
            # Tasks still running at the dominated state's clock must have
            # started no later in the dominator.
            if max(sa, sb) + tasks[i].duration > tb and sa > sb:
                return False
        return True

    def dual(self, state: RcpspState) -> Cost:
        return max(self.chain_bound(state), self.energy_bound(state))

    def chain_bound(self, state: RcpspState) -> Cost:
        """Critical-path floor on pending work, as remaining cost."""
        mask = self._unscheduled_mask(state)
        total = state.time + critical_path_length(self.instance, mask)
        return self._remaining(total, state)

    def energy_bound(self, state: RcpspState) -> Cost:
        """Resource-energy floor on pending work, as remaining cost."""
        mask = self._unscheduled_mask(state)
        total = state.time + energy_ceiling(self.instance, mask)
        return self._remaining(total, state)

    def _unscheduled_mask(self, state: RcpspState) -> int:
        mask = 0
        for i, s in enumerate(state.starts):
            if s is None:
                mask |= 1 << i
        return mask

    def _remaining(self, total_bound: int, state: RcpspState) -> int:
        return max(0, total_bound - self.makespan_estimate(state))

    def state_signature(self, state: RcpspState):
        mask = 0
        for i, s in enumerate(state.starts):
            if s is not None:
                mask |= 1 << i
        return mask


class RcpspAdapter(PropagationAdapter):
    """CP view: fixed starts for scheduled tasks, windows for pending ones,
    a makespan variable capped by the incumbent, capacity propagators fed
    with the running tasks as fixed blocks, and all precedence links."""

    def __init__(self, model: RcpspModel):
        self.model = model
        self.instance = model.instance
        self._obj = self.instance.n  # objective variable id

    def build(self, state: RcpspState, g: Cost = 0, primal: Cost = INFINITY):
        inst = self.instance
        tasks = inst.tasks
        horizon = inst.horizon
        domains: List[Interval] = []
        for i, s in enumerate(state.starts):
            if s is not None:
                domains.append(Interval(s, s))
            else:
                domains.append(Interval(state.time, horizon - tasks[i].duration))
        obj_ub = horizon
        if is_finite(primal) and primal < obj_ub:
            obj_ub = primal
        domains.append(Interval(0, obj_ub))
        store = DomainStore(domains)
        props: list = []
        pending = [i for i, s in enumerate(state.starts) if s is None]
        running = [
            i
            for i, s in enumerate(state.starts)
            if s is not None and s + tasks[i].duration > state.time
        ]
        for r, cap in enumerate(inst.capacities):
            members = [
                (i, tasks[i].duration, tasks[i].usages[r])
                for i in pending + running
                if tasks[i].usages[r] > 0
            ]
            props.append(Cumulative(members, cap))
        for i, j in inst.precedences:
            props.append(PrecedenceLe(i, tasks[i].duration, j))
        # The objective links come last: nothing after them moves a task's
        # lower bound, so after a single pass (or a fixed point) lb(obj) is
        # at least lb(i) + p_i for every pending task i.  ``dual_cp``
        # relies on this instead of taking the latest finish itself.
        for i in pending:
            props.append(PrecedenceLe(i, tasks[i].duration, self._obj))
        return store, props

    def envelope_bound(self, state: RcpspState, store: DomainStore) -> Cost:
        """Completion envelope of pending tasks per resource, as remaining
        cost: the tightest left-edge-plus-energy packing argument."""
        inst = self.instance
        pending = [i for i, s in enumerate(state.starts) if s is None]
        total = 0
        for r, cap in enumerate(inst.capacities):
            cand = ect_envelope(
                [(store.lb(i), inst.tasks[i].duration, inst.tasks[i].usages[r]) for i in pending],
                cap,
            )
            if cand > total:
                total = cand
        return self.model._remaining(total, state)

    def dual_cp(self, state: RcpspState, store: DomainStore) -> Cost:
        # The objective links in ``build`` already give lb(obj) >= every
        # pending earliest finish, so no separate finish term is needed.
        return max(
            self.model._remaining(store.lb(self._obj), state),
            self.envelope_bound(state, store),
        )

    def is_succ_infeasible(
        self, label: int, state: RcpspState, succ: RcpspState, store: DomainStore
    ) -> bool:
        return not store.contains(label, succ.starts[label])


def ordering_optimum(instance: RcpspInstance) -> int:
    """Minimum makespan over all precedence-feasible task orderings, each
    scheduled greedily at its earliest feasible start."""
    model = RcpspModel(instance)
    best: Optional[int] = None

    def rec(state: RcpspState):
        nonlocal best
        if all(s is not None for s in state.starts):
            makespan = max(
                s + instance.tasks[i].duration for i, s in enumerate(state.starts)
            )
            if best is None or makespan < best:
                best = makespan
            return
        for task in range(instance.n):
            if state.starts[task] is not None:
                continue
            if any(state.starts[j] is None for j in instance.predecessors[task]):
                continue
            slot = model.earliest_time(state, task)
            if slot is None:
                continue
            starts = list(state.starts)
            starts[task] = slot
            rec(RcpspState(tuple(starts), slot))

    rec(model.target_state())
    if best is None:
        raise ValueError("instance admits no schedule")
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


def load_instance(path: str, fmt: str = "auto") -> RcpspInstance:
    """The JSON or PSPLIB instance at ``path``; see ``parsing.read_instance``."""
    return read_instance(path, fmt, RcpspInstance.from_json, ("psplib", parse_psplib))
