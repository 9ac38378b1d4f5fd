"""Shared test helpers: seeded instance generators and micro-model checks."""

from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

from dpcp import (
    Cumulative,
    Disjunctive,
    DomainStore,
    INFINITY,
    PrecedenceLe,
    PropagationMode,
    SolveLimits,
    astar,
    cabs,
    propagate_fixpoint,
    propagate_once,
)
from dpcp import rcpsp, smswt, tsptw
from dpcp.search import SearchNode, _SolveContext


@lru_cache(maxsize=None)
def load_counts():
    """``repro/counts.py``, the count ledger, loaded by path.  Its
    ``load_perfbench`` loads ``perfbench/``'s generators read-only."""
    path = Path(__file__).resolve().parents[1] / "repro" / "counts.py"
    spec = importlib.util.spec_from_file_location("repro_counts", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SMS_TAUS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
SMS_RHOS = (0.05, 0.25, 0.5)
SMS_PHIS = (0.9, 1.05, 1.2, 1.35, 1.5)


def random_sms_instance(rng: random.Random, n: int) -> smswt.SmsInstance:
    config = smswt.SmsGeneratorConfig(
        n=n,
        tau=rng.choice(SMS_TAUS),
        rho=rng.choice(SMS_RHOS),
        phi=rng.choice(SMS_PHIS),
        seed=rng.randrange(2**30),
        count=1,
    )
    return smswt.generate_instances(config)[0]


def random_tsptw_instance(
    rng: random.Random, n: int, widths: tuple = (8, 30)
) -> tsptw.TsptwInstance:
    # With the default widths, calibrated so that roughly a quarter of
    # sampled instances have no window-feasible tour.  Travel times are
    # strictly positive.
    travel = [[None if i == j else rng.randint(1, 20) for j in range(n)] for i in range(n)]
    windows = [(0, 600)]
    span = 11 * (n - 1)
    for _ in range(1, n):
        r = rng.randint(0, span)
        windows.append((r, r + rng.randint(*widths)))
    return tsptw.TsptwInstance(travel, windows)


def random_rcpsp_instance(
    rng: random.Random, max_tasks: int = 8, min_tasks: int = 2
) -> rcpsp.RcpspInstance:
    n = rng.randint(min_tasks, max_tasks)
    n_res = rng.randint(1, 2)
    capacities = tuple(rng.randint(2, 4) for _ in range(n_res))
    tasks = [
        rcpsp.RcpspTask(
            rng.randint(1, 6),
            tuple(rng.randint(0, capacities[r]) for r in range(n_res)),
        )
        for _ in range(n)
    ]
    precedences = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                precedences.append((i, j))
    return rcpsp.RcpspInstance(tasks, capacities, precedences)


def rcpsp_tails(instance: rcpsp.RcpspInstance):
    """Each task's longest duration sum along a precedence chain starting
    at it, by memoised recursion over ``instance.successors``."""
    tails = {}

    def tail(i):
        if i not in tails:
            after = [tail(j) for j in instance.successors[i]]
            tails[i] = instance.tasks[i].duration + max(after, default=0)
        return tails[i]

    return [tail(i) for i in range(instance.n)]


def rcpsp_clash_floor(instance: rcpsp.RcpspInstance, state) -> int:
    """The clash-sequence makespan floor of ``state``, from its definition.

    Two tasks clash when some resource cannot hold both at once, or when a
    chain of precedences leads from one to the other.  Pending tasks that
    pairwise clash run one after another, each no earlier than the clock,
    and no earlier than the finish of a running task that clashes with all
    of them.  Each set is chosen greedily: the candidates longest first,
    ties by id, each kept if it clashes with every task kept before it.
    The floor is the largest anchor plus its set's durations, over the
    clock with every pending task a candidate, and each running task with
    the pending tasks that clash with it.
    """
    tasks, caps = instance.tasks, instance.capacities

    @lru_cache(maxsize=None)
    def reaches(a, b):
        return any(j == b or reaches(j, b) for j in instance.successors[a])

    def clash(a, b):
        over = any(ua + ub > c for ua, ub, c in zip(tasks[a].usages, tasks[b].usages, caps))
        return over or reaches(a, b) or reaches(b, a)

    pending = sorted(
        (i for i, s in enumerate(state.starts) if s is None),
        key=lambda i: (-tasks[i].duration, i),
    )
    anchors = [(state.time, pending)]
    for j, s in enumerate(state.starts):
        if s is not None and s + tasks[j].duration > state.time:
            anchors.append((s + tasks[j].duration, [i for i in pending if clash(i, j)]))
    best = 0
    for anchor, candidates in anchors:
        kept = []
        for i in candidates:
            if all(clash(i, k) for k in kept):
                kept.append(i)
        best = max(best, anchor + sum(tasks[i].duration for i in kept))
    return best


def rcpsp_fields(instance: rcpsp.RcpspInstance, state):
    """``(scheduled, running, estimate)`` of ``state`` from one scan of its
    starts: the makespan estimate is the latest finish with every pending
    task started at the state's time."""
    scheduled, running, estimate = 0, [], 0
    for i, s in enumerate(state.starts):
        p = instance.tasks[i].duration
        if s is not None:
            scheduled |= 1 << i
            if s + p > state.time:
                running.append(i)
        estimate = max(estimate, (state.time if s is None else s) + p)
    return scheduled, tuple(running), estimate


def reference_rcpsp_dual(instance: rcpsp.RcpspInstance, state, floor=None) -> int:
    """``RcpspModel.dual`` from its definition: each pending task starts
    no earlier than the clock and ``floor[i]``, if given; the makespan is
    at least each such start plus the task's tail, each resource's
    envelope over those starts, and the clash-sequence floor, which
    ignores ``floor``, less the state's makespan estimate."""
    tails = rcpsp_tails(instance)
    floor = floor or [0] * instance.n
    ests = {i: max(floor[i], state.time) for i, s in enumerate(state.starts) if s is None}
    best = max([est + tails[i] for i, est in ests.items()] + [rcpsp_clash_floor(instance, state)])
    for r, cap in enumerate(instance.capacities):
        tasks = [(est, instance.tasks[i].duration, instance.tasks[i].usages[r]) for i, est in ests.items()]
        best = max(best, one_resource_envelope(tasks, cap))
    _scheduled, _running, estimate = rcpsp_fields(instance, state)
    return max(0, best - estimate)


def reference_rcpsp_dominates(instance: rcpsp.RcpspInstance, a, b) -> bool:
    """Dominance by a scan of every scheduled task: ``a`` dominates ``b``
    when its clock is no later and every task still running at ``b``'s
    clock started no later in ``a``."""
    if a.time > b.time:
        return False
    for i, (sa, sb) in enumerate(zip(a.starts, b.starts)):
        if sa is None:
            continue  # equal signature: sb is None too
        if max(sa, sb) + instance.tasks[i].duration > b.time and sa > sb:
            return False
    return True


class ReferenceRcpspModel(rcpsp.RcpspModel):
    """``RcpspModel`` with its pruning rules switchable off, to check them
    against unpruned search.  Without left shift every precedence- and
    resource-feasible task is a successor, so enumeration reaches every
    ordering; without dominance only equal states dominate."""

    def __init__(self, instance, left_shift=True, dominance=True):
        super().__init__(instance)
        self.left_shift = left_shift
        self.dominance = dominance

    def successors(self, state):
        if self.left_shift:
            return super().successors(state)
        out = []
        for task in range(self.instance.n):
            if state.starts[task] is not None:
                continue
            slot = self.earliest_time(state, task)
            if slot is None:
                continue
            starts = list(state.starts)
            starts[task] = slot
            succ = self.make_state(starts, slot)
            out.append((succ.estimate - state.estimate, task, succ))
        return out

    def dominates(self, a, b):
        return super().dominates(a, b) if self.dominance else a == b


def sms_blocked(instance: smswt.SmsInstance, state, deadlines) -> bool:
    """The SMS dead-end rule under ``deadlines``, one per job (a model's
    cut ones): some pending job misses its deadline even if it starts
    now."""
    return any(
        max(state.time, job.r) + job.p > deadlines[i]
        for i, job in enumerate(instance.jobs)
        if state.unscheduled >> i & 1
    )


def reference_sms_bound(instance: smswt.SmsInstance, mask: int, ests, deadlines) -> int:
    """The SMS dual bound written out from its definition: the larger of
    the separable tardiness sum at the earliest starts ``ests[i]`` and
    ``WSPT(t0) - sum w*d``, the pending jobs sorted by ``p / w`` as exact
    fractions (zero weights last) and run back to back from the smallest
    earliest start; ``INFINITY`` when the WSPT sum passes ``sum
    w*deadline`` over ``deadlines`` (a model's cut ones), which no
    feasible completion does."""
    pending = [i for i in range(instance.n) if mask >> i & 1]
    jobs = instance.jobs
    separable = sum(jobs[i].w * max(0, ests[i] + jobs[i].p - jobs[i].d) for i in pending)
    clock = min((ests[i] for i in pending), default=0)
    weighted_completion = 0
    for i in sorted(pending, key=lambda i: (jobs[i].w == 0, Fraction(jobs[i].p, jobs[i].w or 1))):
        clock += jobs[i].p
        weighted_completion += jobs[i].w * clock
    if weighted_completion > sum(jobs[i].w * deadlines[i] for i in pending):
        return INFINITY
    return max(separable, weighted_completion - sum(jobs[i].w * jobs[i].d for i in pending))


@lru_cache(maxsize=1024)
def tsptw_shortest(instance: tsptw.TsptwInstance):
    """``dist[s][k]``, the least travel from ``s`` to ``k`` along any path
    (0 from a location to itself), None where no path leads: every arc is
    relaxed from every source until no distance falls."""
    arcs = [
        (i, j, c)
        for i, row in enumerate(instance.travel)
        for j, c in enumerate(row)
        if c is not None
    ]
    dist = [[0 if s == k else None for k in range(instance.n)] for s in range(instance.n)]
    changed = True
    while changed:
        changed = False
        for row in dist:
            for i, j, c in arcs:
                if row[i] is not None and (row[j] is None or row[i] + c < row[j]):
                    row[j] = row[i] + c
                    changed = True
    return tuple(tuple(row) for row in dist)


@lru_cache(maxsize=1024)
def tsptw_min_to(instance: tsptw.TsptwInstance):
    """Each location's cheapest arc in from any location, ``INFINITY``
    where no arc enters it."""
    best = [INFINITY] * instance.n
    for row in instance.travel:
        for j, c in enumerate(row):
            if c is not None and c < best[j]:
                best[j] = c
    return tuple(best)


def tsptw_blocked(instance: tsptw.TsptwInstance, state) -> bool:
    """The TSPTW dead-end rule: some unvisited location has no path from
    here, or misses its window even along the shortest path."""
    row = tsptw_shortest(instance)[state.location]
    return any(
        row[k] is None or state.time + row[k] > instance.windows[k][1]
        for k in range(instance.n)
        if state.unvisited >> k & 1
    )


class UnfilteredSmsModel(smswt.SmsModel):
    """``SmsModel`` whose transition is written out here without the
    dead-end filter: a blocked state has no successor, and any other state
    has one per pending job, blocked children included.  Blocked reads
    the model's cut deadlines."""

    def successors(self, state):
        if sms_blocked(self.instance, state, self.table()[0]):
            return []
        out = []
        for i, job in enumerate(self.instance.jobs):
            if state.unscheduled >> i & 1:
                f = max(state.time, job.r) + job.p
                succ = smswt.SmsState(state.unscheduled ^ (1 << i), f)
                out.append((job.w * max(0, f - job.d), i, succ))
        return out


class UnfilteredTsptwModel(tsptw.TsptwModel):
    """``TsptwModel`` whose transition is written out here without the
    dead-end filter: a blocked state has no successor, and any other state
    has one per unvisited location its direct arc reaches in time, blocked
    children included."""

    def successors(self, state):
        inst = self.instance
        if tsptw_blocked(inst, state):
            return []
        out = []
        for j in range(inst.n):
            arc = inst.travel[state.location][j]
            r, d = inst.windows[j]
            if state.unvisited >> j & 1 and arc is not None and state.time + arc <= d:
                succ = tsptw.TsptwState(state.unvisited ^ (1 << j), j, max(state.time + arc, r))
                out.append((arc, j, succ))
        return out


def check_dropped_children_dead(model, unfiltered, blocked):
    """Over every state that ``unfiltered``'s transition reaches from the
    target, compare ``model.successors`` with the unfiltered children.

    The model must keep them in order and omit exactly the blocked ones;
    each omitted child must have no feasible completion, by a recursion
    over the unfiltered transition here.  Returns the counts of kept and
    omitted children.
    """
    feasible = {}

    def completes(state) -> bool:
        if state not in feasible:
            if unfiltered.is_base(state):
                feasible[state] = unfiltered.base_cost(state) < INFINITY
            else:
                feasible[state] = any(
                    completes(child) for _w, _l, child in unfiltered.successors(state)
                )
        return feasible[state]

    kept = omitted = 0
    seen = set()
    stack = [unfiltered.target_state()]
    while stack:
        state = stack.pop()
        if state in seen or unfiltered.is_base(state):
            continue
        seen.add(state)
        children = unfiltered.successors(state)
        stack.extend(child for _w, _l, child in children)
        assert model.successors(state) == [
            c for c in children if not blocked(unfiltered.instance, c[2])
        ], state
        for _w, _l, child in children:
            if blocked(unfiltered.instance, child):
                assert not completes(child), (state, child)
                omitted += 1
            else:
                kept += 1
    return kept, omitted


ALL_MODES = (PropagationMode.OFF, PropagationMode.ONCE, PropagationMode.FIXPOINT)


def solve_all_modes(model, adapter, limits=None):
    """All (algo, mode) results for one model, keyed for comparison."""
    out = {}
    for mode in ALL_MODES:
        use = None if mode is PropagationMode.OFF else adapter
        out[("astar", mode)] = astar(model, use, limits=limits, mode=mode)
        out[("cabs", mode)] = cabs(model, use, limits=limits, mode=mode)
    return out


def expand_once(model, adapter, state, g=0, primal=INFINITY):
    """Pop ``state`` as a root node at path cost ``g`` against the
    incumbent ``primal`` through the search's own step, propagating once.

    Returns the successors that survive the veto (empty when the pop is
    pruned), the dual bound the root notes (``g`` plus its CP dual,
    ``INFINITY`` for an infeasible store) and the propagated store (None
    when the pop is pruned).
    """
    ctx = _SolveContext(model, adapter, SolveLimits(), PropagationMode.ONCE)
    ctx.primal = primal
    entry = ctx.expand(SearchNode(state, g, g))
    if entry is None:
        return [], ctx.best_dual, None
    return list(entry.succs), ctx.best_dual, entry.store


def registry_chain(registry, sig) -> list:
    """The nodes a ``Registry`` stores under signature ``sig``, in chain
    order (oldest first); empty if it stores none."""
    chain = []
    node = registry._buckets.get(sig)
    while node is not None:
        chain.append(node)
        node = node.sibling
    return chain


def vetoed(adapter, state, label, store) -> bool:
    """The adapter's veto on the model's transition ``label`` out of
    ``state``, handed the successor state the model produces."""
    succ = next(s for _w, lbl, s in adapter.model.successors(state) if lbl == label)
    return adapter.is_succ_infeasible(label, succ, store)


# --- micro-models for propagator soundness -------------------------------

def domain_values(domain):
    lo, hi = domain
    return list(range(lo, hi + 1))


def random_domain(rng: random.Random, max_value: int = 11, max_size: int = 12):
    """An interval ``(lo, hi)`` inside ``0..max_value``."""
    lo = rng.randint(0, max_value)
    return lo, min(max_value, lo + rng.randint(0, max_size - 1))


def store_of(domains) -> DomainStore:
    """A fresh store over ``(lo, hi)`` intervals, every variable live."""
    return DomainStore([lo for lo, _hi in domains], [hi for _lo, hi in domains], -1)


def store_domains(store: DomainStore):
    """Every ``(lb, ub)`` of ``store``, empty domains included."""
    return list(zip(store.lbs, store.ubs))


def one_resource_envelope(tasks, capacity):
    """The largest ``lb + ceil(E / capacity)`` over ``(lb, duration,
    usage)`` tasks on one resource, ``lb`` the smallest start bound of a
    set and ``E`` its energy, taken over the suffix sets by ``lb`` of its
    own sort; 0 without tasks."""
    best = energy = 0
    for lb, p, u in sorted(tasks, key=lambda t: -t[0]):
        energy += u * p
        best = max(best, lb + -(-energy // capacity))
    return best


def micro_disjunctive(rng: random.Random):
    k = rng.randint(1, 4)
    domains = [random_domain(rng) for _ in range(k)]
    durations = [rng.randint(1, 4) for _ in range(k)]
    props = [Disjunctive([(i, durations[i]) for i in range(k)])]

    def check(vals):
        for i in range(k):
            for j in range(i + 1, k):
                a, b = vals[i], vals[j]
                if not (a + durations[i] <= b or b + durations[j] <= a):
                    return False
        return True

    return domains, props, check


def micro_cumulative(rng: random.Random):
    k = rng.randint(1, 4)
    cap = rng.randint(1, 4)
    domains = [random_domain(rng) for _ in range(k)]
    durations = [rng.randint(1, 4) for _ in range(k)]
    usages = [rng.randint(1, cap + 1) for _ in range(k)]  # may exceed cap
    props = [Cumulative([(i, durations[i], usages[i]) for i in range(k)], cap)]

    def check(vals):
        hi = max(vals[i] + durations[i] for i in range(k))
        for t in range(hi):
            load = sum(
                usages[i] for i in range(k) if vals[i] <= t < vals[i] + durations[i]
            )
            if load > cap:
                return False
        return True

    return domains, props, check


def micro_precedence(rng: random.Random):
    k = rng.randint(2, 5)
    domains = [random_domain(rng) for _ in range(k)]
    pairs = []
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(k), 2)
        pairs.append(PrecedenceLe([(i, rng.randint(0, 4), j)]))

    def check(vals):
        return all(vals[i] + off <= vals[j] for p in pairs for i, off, j in p.arcs)

    return domains, list(pairs), check


MICRO_FAMILIES = {
    "disjunctive": micro_disjunctive,
    "cumulative": micro_cumulative,
    "precedence": micro_precedence,
}


def check_micro_model(domains, props, check) -> None:
    """Assert propagation never prunes a solution value or falsely flags
    infeasibility, for both the single-pass and fixed-point drivers."""
    originals = [domain_values(d) for d in domains]
    solutions = [vals for vals in product(*originals) if check(vals)]
    support = [set(col) for col in zip(*solutions)] if solutions else [set() for _ in domains]
    for driver in (propagate_once, propagate_fixpoint):
        store = driver(store_of(domains), props)
        if store.infeasible:
            assert not solutions, "false infeasibility report"
            continue
        for x, (before, domain) in enumerate(zip(originals, store_domains(store))):
            after = set(domain_values(domain))
            assert after <= set(before), "domain grew"
            removed = set(before) - after
            assert not (removed & support[x]), (
                f"pruned supported values {removed & support[x]} of var {x}"
            )
