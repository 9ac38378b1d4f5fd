import dataclasses
import heapq
import json
import random
from pathlib import Path

import pytest

import dpcp
from dpcp import (
    INFINITY,
    DomainStore,
    PropagationAdapter,
    PropagationMode,
    Registry,
    SolveLimits,
    SolveStatus,
    astar,
    cabs,
)
from dpcp import rcpsp, smswt, tsptw
from dpcp.cli import PROBLEMS, main
from dpcp.search import CHILD_ESTIMATE_BYTES, NODE_ESTIMATE_BYTES, SearchNode, _SolveContext

from conftest import (
    ALL_MODES,
    expand_once,
    random_rcpsp_instance,
    random_sms_instance,
    random_tsptw_instance,
    registry_chain,
    solve_all_modes,
)

DATA = Path(__file__).parent / "data"


def two_job_model():
    inst = smswt.SmsInstance(
        (smswt.SmsJob(2, 0, 2, 10, 1), smswt.SmsJob(3, 0, 3, 10, 2))
    )
    return smswt.SmsModel(inst)


def infeasible_model():
    return smswt.SmsModel(smswt.SmsInstance((smswt.SmsJob(3, 5, 7, 7, 1),)))


def test_astar_two_job_optimal():
    result = astar(two_job_model())
    assert result.status is SolveStatus.OPTIMAL
    assert result.cost == 3
    assert result.solution == (1, 0)


class TieModel(dpcp.DpModel):
    """A hand-built search space: ``SUCC[state]`` lists its children as
    ``(weight, child)`` and ``DUAL[state]`` is its bound.  No state is a
    base state, so A* pops every admitted node.

    The root's children ``a``, ``b`` and ``c`` tie at (f, g) = (5, 1), as
    do ``ae`` and ``bg``, pushed later; ``z`` has f 5 at the smaller g 0.
    ``ad`` has the smaller f 2, so it comes off while ``b`` and ``c`` still
    wait under the key it interrupted, and ``adf``, pushed after ``ad``
    left the open list, ties with ``ad`` and comes off next.
    """

    SUCC = {
        "r": [(1, "a"), (1, "b"), (1, "c"), (0, "z")],
        "a": [(1, "ad"), (0, "ae")],
        "ad": [(0, "adf")],
        "b": [(0, "bg")],
    }
    DUAL = {"r": 5, "a": 4, "b": 4, "c": 4, "z": 5, "ad": 0, "ae": 4, "adf": 0, "bg": 4}

    def __init__(self):
        self.popped = []

    def target_state(self):
        return "r"

    def is_base(self, state):
        return False

    def base_cost(self, state):
        return INFINITY

    def successors(self, state):
        self.popped.append(state)
        return [(w, child, child) for w, child in self.SUCC.get(state, [])]

    def dominates(self, a, b):
        return a == b

    def dual(self, state, floor=None):
        return self.DUAL[state]

    def state_signature(self, state):
        return state


def test_astar_pops_smallest_f_then_larger_g_then_push_order():
    model = TieModel()
    result = astar(model)
    assert result.status is SolveStatus.INFEASIBLE
    assert model.popped == ["r", "a", "ad", "adf", "b", "c", "ae", "bg", "z"]


def reference_astar(model, adapter, mode):
    """A* whose open list is one heap of ``(f, -g, push count, node)``
    entries, the order that ``astar``'s docstring promises, over the same
    ``_SolveContext``."""
    ctx = _SolveContext(model, adapter, None, mode)
    registry = Registry()
    root = ctx.make_root(registry)
    heap = [(root.f, -root.g, 0, root)]
    pushes = 1
    while ctx.status is None:
        if not heap:
            ctx.status = ctx.exhausted()
            break
        node = heapq.heappop(heap)[3]
        if node.stale:
            ctx.metrics.stale_skips += 1
            continue
        if ctx.incumbent is not None and node.f >= ctx.primal:
            ctx.status = SolveStatus.OPTIMAL
            break
        ctx.note_dual(min(ctx.primal, node.f))
        for child in ctx.process(node, registry):
            heapq.heappush(heap, (child.f, -child.g, pushes, child))
            pushes += 1
    return ctx.finish()


def metric_counts(metrics):
    """Every field of a ``RunMetrics`` but its times."""
    out = {f.name: getattr(metrics, f.name) for f in dataclasses.fields(metrics)}
    del out["propagation_time"]
    for name in ("incumbent_trace", "dual_trace"):
        out[name] = [cost for _, cost in out[name]]
    return out


@pytest.mark.parametrize("make, make_adapter", [
    (lambda rng: smswt.SmsModel(random_sms_instance(rng, 12)), smswt.SmsAdapter),
    (lambda rng: tsptw.TsptwModel(random_tsptw_instance(rng, 12)), tsptw.TsptwAdapter),
    (lambda rng: rcpsp.RcpspModel(random_rcpsp_instance(rng, 12)), rcpsp.RcpspAdapter),
], ids=["smswt", "tsptw", "rcpsp"])
def test_astar_pops_as_one_heap_of_push_counts(monkeypatch, make, make_adapter):
    """On seeded draws under ``off`` and ``once``, ``astar`` processes the
    same nodes in the same order as ``reference_astar`` and ends with every
    count equal; some of the draws skip stale nodes."""
    original = _SolveContext.process
    processed = []

    def process(ctx, node, registry):
        processed.append((node.state, node.g, node.f))
        return original(ctx, node, registry)

    monkeypatch.setattr(_SolveContext, "process", process)
    stale = 0
    for seed in range(20):
        for mode in (PropagationMode.OFF, PropagationMode.ONCE):
            runs = []
            for solve in (astar, reference_astar):
                model = make(random.Random(seed))
                adapter = None if mode is PropagationMode.OFF else make_adapter(model)
                processed.clear()
                result = solve(model, adapter, mode=mode)
                runs.append((list(processed), result.status, result.incumbent,
                             metric_counts(result.metrics)))
            assert runs[0] == runs[1], (seed, mode)
            stale += result.metrics.stale_skips
    assert stale > 0


def test_astar_infeasible():
    result = astar(infeasible_model())
    assert result.status is SolveStatus.INFEASIBLE
    assert result.incumbent is None


def test_astar_expansion_cap_zero():
    result = astar(two_job_model(), limits=SolveLimits(expansion_cap=0))
    assert result.status is SolveStatus.EXPANSION_LIMIT
    assert result.incumbent is None


def test_astar_memory_limit():
    result = astar(two_job_model(), limits=SolveLimits(memory_limit=1))
    assert result.status is SolveStatus.MEMORY_LIMIT


def solve_with_peak_registry(monkeypatch, solve):
    """``solve()``, the largest number of nodes its registries held,
    counting each entry of the CABS tables of kept expansions as one, and
    the largest memory estimate it reached: those nodes at
    ``NODE_ESTIMATE_BYTES`` each plus each successor the tables kept at
    ``CHILD_ESTIMATE_BYTES``.

    Sampled after each registration and at each limit check: a pruned pop
    grows a table without registering anything.  The kept successors are
    counted by scanning the tables, and the search's running count must
    agree.
    """
    peak_nodes = peak_bytes = 0
    init, register, limit_status = (
        _SolveContext.__init__, Registry.register, _SolveContext.limit_status
    )
    contexts = []

    def sample(registry):
        nonlocal peak_nodes, peak_bytes
        ctx = contexts[-1]
        entries = [*ctx.last_pass.values(), *(ctx.this_pass or {}).values()]
        kept = sum(len(e.succs) for e in entries if e.succs is not None)
        assert kept == ctx.kept_children
        nodes = registry.size + len(entries)
        peak_nodes = max(peak_nodes, nodes)
        peak_bytes = max(peak_bytes, nodes * NODE_ESTIMATE_BYTES + kept * CHILD_ESTIMATE_BYTES)

    def created(self, *args):
        init(self, *args)
        contexts.append(self)

    def tracked(self, *args):
        node = register(self, *args)
        sample(self)
        return node

    def checked(self, registry):
        sample(registry)
        return limit_status(self, registry)

    with monkeypatch.context() as patch:
        patch.setattr(_SolveContext, "__init__", created)
        patch.setattr(Registry, "register", tracked)
        patch.setattr(_SolveContext, "limit_status", checked)
        result = solve()
    return result, peak_nodes, peak_bytes


def solve_counts(result):
    m = result.metrics
    return (
        result.status, result.incumbent, m.expansions, m.generated,
        m.pruned_by_cp, m.stale_skips, m.beam_widths,
    )


def memory_instance(family, mode):
    """The model and adapter (None under ``off``) of the memory-limit tests:
    sized so that more than 50 nodes are stored at once although dead-end
    children are never generated."""
    rng = random.Random(0)
    if family == "sms":
        model = smswt.SmsModel(random_sms_instance(rng, 11))
        adapter = smswt.SmsAdapter(model)
    else:
        model = tsptw.TsptwModel(random_tsptw_instance(rng, 12, widths=(30, 80)))
        adapter = tsptw.TsptwAdapter(model)
    if mode is PropagationMode.OFF:
        adapter = None
    return model, adapter


@pytest.mark.parametrize("algo", [astar, cabs])
@pytest.mark.parametrize("mode", [PropagationMode.OFF, PropagationMode.ONCE])
@pytest.mark.parametrize("family", ["sms", "tsptw"])
def test_memory_limit_counts_each_stored_node_once(monkeypatch, algo, mode, family):
    # A budget of a solve's own peak estimate, its stored nodes and the
    # successors its CABS tables keep, never stops it; half of it does.
    model, adapter = memory_instance(family, mode)
    unlimited, peak, budget = solve_with_peak_registry(
        monkeypatch, lambda: algo(model, adapter, mode=mode)
    )
    assert unlimited.status is SolveStatus.OPTIMAL and peak > 50
    limited = algo(model, adapter, limits=SolveLimits(memory_limit=budget), mode=mode)
    assert solve_counts(limited) == solve_counts(unlimited)
    halved = algo(model, adapter, limits=SolveLimits(memory_limit=budget // 2), mode=mode)
    assert halved.status is SolveStatus.MEMORY_LIMIT


@pytest.mark.parametrize("mode", [PropagationMode.OFF, PropagationMode.ONCE])
@pytest.mark.parametrize("family", ["sms", "tsptw"])
def test_memory_limit_charges_the_kept_children(monkeypatch, mode, family):
    # The successors that CABS keeps for replay cost memory too: a budget
    # that covers the peak count of stored nodes and table entries alone,
    # and so never stopped a solve that charged only those, stops it.
    model, adapter = memory_instance(family, mode)
    unlimited, peak, _ = solve_with_peak_registry(
        monkeypatch, lambda: cabs(model, adapter, mode=mode)
    )
    assert unlimited.status is SolveStatus.OPTIMAL
    assert unlimited.metrics.peak_kept_children > 0
    limits = SolveLimits(memory_limit=peak * NODE_ESTIMATE_BYTES)
    assert cabs(model, adapter, limits=limits, mode=mode).status is SolveStatus.MEMORY_LIMIT


def test_time_limit_statuses():
    limits = SolveLimits(time_limit=1e-9)
    assert astar(two_job_model(), limits=limits).status is SolveStatus.TIME_LIMIT
    assert cabs(two_job_model(), limits=limits).status is SolveStatus.TIME_LIMIT


def test_limits_validation():
    with pytest.raises(ValueError):
        SolveLimits(time_limit=0)
    with pytest.raises(ValueError):
        SolveLimits(time_limit=float("nan"))  # would never fire
    with pytest.raises(ValueError):
        SolveLimits(memory_limit=0)
    with pytest.raises(ValueError):
        SolveLimits(memory_limit=float("nan"))
    with pytest.raises(ValueError):
        SolveLimits(expansion_cap=-1)
    SolveLimits(expansion_cap=0)  # explicitly allowed: forbids all work


def test_cabs_two_job_optimal_and_width_trace():
    model = two_job_model()
    result = cabs(model)
    assert result.status is SolveStatus.OPTIMAL
    assert result.cost == 3
    widths = result.metrics.beam_widths
    assert widths == [1, 2][: len(widths)] or widths[:4] == [1, 2, 4, 8][: len(widths)]
    for a, b in zip(widths, widths[1:]):
        assert b == 2 * a
    costs = [c for _t, c in result.metrics.incumbent_trace]
    assert all(x > y for x, y in zip(costs, costs[1:]))


class TwinBaseModel(TieModel):
    """The root's children ``x`` and ``y`` are base states that tie at
    cost 2, with bounds of 0 throughout."""

    SUCC = {"r": [(2, "x"), (2, "y")]}
    DUAL = {"r": 0, "x": 0, "y": 0}

    def is_base(self, state):
        return state != "r"

    def base_cost(self, state):
        return 0


def test_cabs_traces_only_the_base_pops_that_improve():
    # The width-1 pass pops ``x`` and makes 2 the incumbent; the width-2
    # pass admits both children at f = 2 and pops each, but neither
    # improves on 2, so the trace keeps its one point.
    result = cabs(TwinBaseModel())
    m = result.metrics
    assert (result.status, result.cost, m.beam_widths) == (SolveStatus.OPTIMAL, 2, [1, 2])
    assert m.base_pops == 3
    assert [c for _t, c in m.incumbent_trace] == [2]


def test_cabs_stops_after_first_pass_without_width_cut():
    # Here the pass at width 4 cuts nothing but still improves the
    # incumbent; it is exhaustive all the same, so no width-8 pass runs.
    rng = random.Random(116)
    inst = random_sms_instance(rng, rng.randint(4, 8))
    model = smswt.SmsModel(inst)
    assert inst.n == 8
    for mode in (PropagationMode.OFF, PropagationMode.ONCE):
        adapter = None if mode is PropagationMode.OFF else smswt.SmsAdapter(model)
        result = cabs(model, adapter, mode=mode)
        assert result.status is SolveStatus.OPTIMAL
        assert result.metrics.beam_widths == [1, 2, 4]
        assert result.cost == smswt.permutation_optimum(inst) == 4


def test_cabs_limit_stopped_dual_from_width_cuts():
    # Every completed pass with width cuts bounds the optimum by its
    # smallest cut f, so a limit-stopped run no longer reports only the
    # root dual (0 here, a gap of 1.0).
    config = smswt.SmsGeneratorConfig(n=20, tau=0.4, rho=0.05, phi=0.9, seed=1, count=3)
    first = smswt.generate_instances(config)[0]
    model = smswt.SmsModel(first)
    adapter = smswt.SmsAdapter(model)
    optimum = astar(model, adapter).cost
    limits = SolveLimits(expansion_cap=3000)
    for mode in (PropagationMode.OFF, PropagationMode.ONCE):
        result = cabs(model, adapter, limits=limits, mode=mode)
        assert result.status is SolveStatus.EXPANSION_LIMIT
        assert result.metrics.final_gap < 1
        assert 0 < result.root_dual <= optimum
        assert all(v <= optimum for _t, v in result.metrics.dual_trace)
    # Without an incumbent the gap stays 1.0, but the bound is still found.
    # Dead-end children are never generated and the root cut proves some
    # draws infeasible at once, so this one (optimum 3737) is one that
    # keeps CABS from any incumbent within the cap.
    other = smswt.SmsGeneratorConfig(n=20, tau=0.4, rho=0.05, phi=0.9, seed=3)
    second = smswt.generate_instances(other)[0]
    result = cabs(smswt.SmsModel(second), limits=limits, mode=PropagationMode.OFF)
    assert result.status is SolveStatus.EXPANSION_LIMIT and result.incumbent is None
    assert result.root_dual > 0


def test_cabs_infeasible():
    result = cabs(infeasible_model())
    assert result.status is SolveStatus.INFEASIBLE
    assert result.incumbent is None


@pytest.mark.parametrize("kind, name", [("tsptw", "dead_root_tsptw.txt"), ("smswt", "dead_root_sms.json")])
def test_proven_infeasible_run_reports_infinite_dual(kind, name):
    # An exhausted search without an incumbent proves that no completion
    # exists, so the dual ends at INFINITY in every mode, also under off,
    # where the root's own bound is finite.
    problem = PROBLEMS[kind]
    model = problem.model(problem.module.load_instance(str(DATA / name)))
    for key, result in solve_all_modes(model, problem.adapter(model)).items():
        assert result.status is SolveStatus.INFEASIBLE and result.cost is None, key
        assert result.root_dual == INFINITY, key
        assert result.metrics.dual_trace[-1][1] == INFINITY, key


def admit(reg, model, state, g):
    """Offer ``state`` at path cost ``g`` as ``process`` offers a child, with
    ``f = g``: its registered node, or None if the dominance test drops it."""
    if reg.dominated(model, state, g):
        return None
    return reg.register(model, SearchNode(state, g, g))


def test_register_admission_cases():
    model = two_job_model()
    reg = Registry()
    any_state = smswt.SmsState(0b01, 4)
    assert admit(reg, model, any_state, 7)

    reg = Registry()
    state = smswt.SmsState(0b01, 4)
    assert admit(reg, model, state, 4)
    assert not admit(reg, model, state, 5)

    reg = Registry()
    assert admit(reg, model, smswt.SmsState(0b10, 3), 2)
    assert not admit(reg, model, smswt.SmsState(0b10, 5), 2)


def test_dominated_has_no_side_effects_and_only_register_stores():
    model = two_job_model()
    reg = Registry()
    old = SearchNode(smswt.SmsState(0b10, 4), 5, 5)
    assert reg.register(model, old) is old
    stored = {sig: registry_chain(reg, sig) for sig in reg._buckets}
    assert reg.dominated(model, smswt.SmsState(0b10, 6), 5)
    # A state that would evict ``old`` passes the test; as long as its node
    # is never registered (a child over the incumbent), it is neither
    # stored nor allowed to evict.
    better = smswt.SmsState(0b10, 2)
    assert not reg.dominated(model, better, 5)
    assert {sig: registry_chain(reg, sig) for sig in reg._buckets} == stored
    assert reg.size == 1 and not old.stale
    # Had ``better`` been stored, it would dominate this state.
    assert not reg.dominated(model, smswt.SmsState(0b10, 3), 5)


def test_register_eviction_marks_stale():
    model = two_job_model()
    reg = Registry()
    old = SearchNode(smswt.SmsState(0b10, 9), 5, 5)
    assert reg.register(model, old) is old
    new = SearchNode(smswt.SmsState(0b10, 4), 5, 5)
    assert not reg.dominated(model, new.state, new.g)
    assert reg.register(model, new) is new
    assert old.stale and not new.stale
    assert reg.size == 1


def test_registry_never_holds_mutually_rejecting_entries():
    rng = random.Random(3)
    model = two_job_model()
    reg = Registry()
    for _ in range(300):
        state = smswt.SmsState(rng.randint(0, 3), rng.randint(0, 12))
        admit(reg, model, state, rng.randint(0, 10))
        # No stored node may dominate another at no larger cost.
        violations = sum(
            1
            for bucket in (registry_chain(reg, sig) for sig in reg._buckets)
            for a in bucket
            for b in bucket
            if a is not b and a.g <= b.g and model.dominates(a.state, b.state)
        )
        assert violations == 0


class ListRegistry:
    """Reference for ``Registry``: each bucket a list of the stored nodes,
    oldest first, rebuilt without the evicted ones at each ``register``."""

    def __init__(self):
        self.buckets = {}
        self.size = 0

    def dominated(self, model, state, g):
        bucket = self.buckets.get(model.state_signature(state), [])
        return any(old.g <= g and model.dominates(old.state, state) for old in bucket)

    def register(self, model, node):
        sig = model.state_signature(node.state)
        kept = []
        for old in self.buckets.get(sig, []):
            if node.g <= old.g and model.dominates(node.state, old.state):
                old.stale = True
                self.size -= 1
            else:
                kept.append(old)
        self.buckets[sig] = kept + [node]
        self.size += 1
        return node


def reachable_states(model, limit):
    """Up to ``limit`` states reachable from the target, breadth first."""
    seen, frontier = [model.target_state()], [model.target_state()]
    while frontier and len(seen) < limit:
        frontier = [s for state in frontier for _w, _l, s in model.successors(state)]
        seen += frontier[: limit - len(seen)]
    return seen


@pytest.mark.parametrize("kind", ["smswt", "tsptw", "rcpsp"])
def test_registry_chains_match_list_buckets(kind):
    """Random ``dominated``/``register`` sequences give the same answers,
    the same ``model.dominates`` calls, the same stored nodes in the same
    order, the same stale marks and the same ``size`` through ``Registry``
    as through the list-based reference; an evicted node leaves its chain."""
    rng = random.Random(f"registry:{kind}")
    for _ in range(12):
        if kind == "smswt":
            model = smswt.SmsModel(random_sms_instance(rng, 5))
        elif kind == "tsptw":
            model = tsptw.TsptwModel(random_tsptw_instance(rng, 5, widths=(20, 60)))
        else:
            model = rcpsp.RcpspModel(random_rcpsp_instance(rng, 5, 4))
        states = reachable_states(model, 40)
        ops = [(rng.choice(states), rng.randint(0, 12), rng.random() < 0.7) for _ in range(120)]
        runs = []
        for registry in (Registry(), ListRegistry()):
            calls, answers, nodes = [], [], []
            inner = model.dominates
            model.dominates = lambda a, b: calls.append((a, b)) or inner(a, b)
            for state, g, test in ops:
                if test:
                    answers.append(registry.dominated(model, state, g))
                else:
                    nodes.append(registry.register(model, SearchNode(state, g, g)))
            del model.dominates
            runs.append((registry, calls, answers, nodes))
        (chain, calls, answers, chain_nodes), (ref, ref_calls, ref_answers, ref_nodes) = runs
        assert answers == ref_answers
        assert calls == ref_calls
        index = {id(node): i for i, node in enumerate(chain_nodes)}
        got = {sig: [index[id(n)] for n in registry_chain(chain, sig)] for sig in chain._buckets}
        ref_index = {id(node): i for i, node in enumerate(ref_nodes)}
        want = {sig: [ref_index[id(n)] for n in bucket] for sig, bucket in ref.buckets.items()}
        assert got == want
        assert [n.stale for n in chain_nodes] == [n.stale for n in ref_nodes]
        assert all(n.sibling is None for n in chain_nodes if n.stale)
        assert chain.size == ref.size == sum(len(b) for b in want.values())


# --- propagation at expansion ------------------------------------------------

def test_expand_prunes_a_pop_whose_store_is_empty():
    # Window [0, -1] is empty: the adapter emits an infeasible store.
    inst = smswt.SmsInstance((smswt.SmsJob(5, 0, 3, 4, 1),))
    model = smswt.SmsModel(inst)
    adapter = smswt.SmsAdapter(model)
    succs, cp_dual, store = expand_once(model, adapter, model.target_state(), 0, INFINITY)
    assert succs == []
    assert cp_dual == INFINITY
    assert store is None


def test_expand_prunes_a_pop_whose_cp_dual_reaches_the_incumbent():
    # One job, tardiness exactly 3; with primal equal to the root dual the
    # bound test fires and reports the CP dual.
    inst = smswt.SmsInstance((smswt.SmsJob(2, 0, 1, 10, 3),))
    model = smswt.SmsModel(inst)
    adapter = smswt.SmsAdapter(model)
    succs, cp_dual, store = expand_once(model, adapter, model.target_state(), 0, 3)
    assert succs == []
    assert cp_dual == 3
    assert store is None


def test_expand_vetoes_a_successor_whose_start_the_store_lifted():
    # Competing tight job lifts the long job's earliest start, so taking
    # the long job first dies; only the tight job survives.
    inst = smswt.SmsInstance(
        (smswt.SmsJob(5, 0, 4, 20, 2), smswt.SmsJob(3, 1, 4, 5, 1))
    )
    model = smswt.SmsModel(inst)
    adapter = smswt.SmsAdapter(model)
    succs, cp_dual, store = expand_once(model, adapter, model.target_state(), 0, INFINITY)
    assert store is not None
    assert [label for _w, label, _s in succs] == [1]
    # CP dual sees job 0 started at its lifted bound: 2 * (4 + 5 - 4) = 10.
    assert cp_dual == 10


def test_public_names_resolve():
    assert [name for name in dpcp.__all__ if not hasattr(dpcp, name)] == []


def test_mode_requires_adapter():
    with pytest.raises(ValueError):
        astar(two_job_model(), None, mode=PropagationMode.ONCE)


def test_mode_given_by_value_is_the_member():
    # A mode's value reads as the member: "off" propagates nothing even with
    # an adapter, and searches as no adapter does.  Any other string is a
    # ValueError, never a silent ``once``.
    model = smswt.SmsModel(random_sms_instance(random.Random(3), 6))
    adapter = smswt.SmsAdapter(model)
    for solver in (astar, cabs):
        for mode in PropagationMode:
            want, got = solver(model, adapter, mode=mode), solver(model, adapter, mode=mode.value)
            assert solve_counts(got) == solve_counts(want), (solver.__name__, mode)
            assert got.metrics.propagation_calls == want.metrics.propagation_calls
        assert solver(model, adapter, mode="once").metrics.propagation_calls > 0
        off = solver(model, adapter, mode="off")
        assert off.metrics.propagation_calls == 0
        assert solve_counts(solver(model, None, mode="off")) == solve_counts(off)
        for bad in ("bogus", "ONCE", 1):
            with pytest.raises(ValueError):
                solver(model, adapter, mode=bad)
        with pytest.raises(ValueError):
            solver(model, None, mode="once")


# --- search counts -----------------------------------------------------------

PINNED_KINDS = {
    "smswt": (lambda rng: smswt.SmsModel(random_sms_instance(rng, 10)), smswt.SmsAdapter),
    "tsptw": (lambda rng: tsptw.TsptwModel(random_tsptw_instance(rng, 10)), tsptw.TsptwAdapter),
    "rcpsp": (lambda rng: rcpsp.RcpspModel(random_rcpsp_instance(rng, 10)), rcpsp.RcpspAdapter),
}


class AddsNothing(PropagationAdapter):
    """An adapter whose propagation adds nothing: a store whose lower
    bounds are a floor of zeros over the model's variables, no
    propagators, a CP dual of 0 and no veto."""

    def build(self, state):
        n = self.instance.n
        return DomainStore([0] * n, [0] * n, -1), []

    def dual_cp(self, state, store):
        return 0


def test_propagation_that_adds_nothing_changes_no_search_count():
    """A pop differs between modes only in what propagation adds.

    Under ``AddsNothing``, each propagating mode must search exactly as
    ``off`` does; only ``pruned_by_cp`` (a pop whose ``g`` alone reaches
    the incumbent), ``propagation_calls`` and ``reused`` may differ.
    """
    def search(result):
        m = result.metrics
        return (
            result.status, result.cost, m.expansions, m.generated, m.stale_skips,
            len(m.beam_widths),
        )

    for kind, (make, _) in sorted(PINNED_KINDS.items()):
        for seed in range(24):
            model = make(random.Random(seed))
            for solver in (astar, cabs):
                want = search(solver(model, None, mode=PropagationMode.OFF))
                for mode in (PropagationMode.ONCE, PropagationMode.FIXPOINT):
                    got = search(solver(model, AddsNothing(model), mode=mode))
                    assert got == want, (kind, seed, solver.__name__, mode)


class DeadChildren(smswt.SmsModel):
    """``two_job_model``'s model, or with ``dead_by_dual`` one whose dual
    proves every child of the target a dead end."""

    def __init__(self, instance, dead_by_dual):
        super().__init__(instance)
        self.dead_by_dual = dead_by_dual

    def dual(self, state, floor=None):
        if self.dead_by_dual and state != self.target_state():
            return INFINITY
        return super().dual(state, floor)


class DeadChildrenCp(AddsNothing):
    """``AddsNothing`` whose store's earliest starts pass every deadline,
    so that the model dual over that floor proves every child a dead
    end; its CP dual of 0 lets the target be expanded."""

    def build(self, state):
        jobs = self.model.instance.jobs
        late = [max(j.deadline for j in jobs) + 1] * len(jobs)
        return DomainStore(late, list(late), -1), []


@pytest.mark.parametrize("algo", [astar, cabs])
@pytest.mark.parametrize(
    "mode, source",
    [(PropagationMode.OFF, "dual"), (PropagationMode.ONCE, "dual"),
     (PropagationMode.ONCE, "dual_cp")],
)
def test_child_with_infinite_bound_is_declined_without_incumbent(algo, mode, source):
    # A child bounded by INFINITY, by the model dual alone or through the
    # floor of its parent's store (the ``dual_cp`` case, named for the CP
    # side the floor comes from), is never stored, so the search ends
    # after popping the root alone, before any incumbent.
    model = DeadChildren(two_job_model().instance, dead_by_dual=source == "dual")
    adapter = {"dual": AddsNothing, "dual_cp": DeadChildrenCp}[source](model)
    result = algo(model, None if mode is PropagationMode.OFF else adapter, mode=mode)
    m = result.metrics
    pops = m.expansions + m.pruned_by_f if mode is PropagationMode.OFF else (
        m.propagation_calls + m.reused
    )
    assert result.status is SolveStatus.INFEASIBLE
    assert (m.generated, pops, m.pruned_by_f, m.pruned_by_cp) == (2, 1, 0, 0)


@pytest.mark.parametrize("kind", sorted(PINNED_KINDS))
def test_cabs_tables_keep_every_entry_at_a_new_incumbent(
    monkeypatch, kind
):
    """No ``build`` reads the incumbent, so no kind's CABS tables are
    emptied when it improves: each table keeps every entry."""
    make, make_adapter = PINNED_KINDS[kind]
    original = _SolveContext.offer_incumbent
    improved = []

    def offer_incumbent(ctx, node):
        primal, before = ctx.primal, (len(ctx.this_pass), len(ctx.last_pass))
        original(ctx, node)
        if ctx.primal < primal:
            improved.append((before, (len(ctx.this_pass), len(ctx.last_pass))))

    monkeypatch.setattr(_SolveContext, "offer_incumbent", offer_incumbent)
    # RCPSP's bound is tight enough that few draws improve an incumbent
    # after a pass with none: of these, seeds 88, 132, 155, 156 and 157.
    for seed in range(160):
        model = make(random.Random(seed))
        cabs(model, make_adapter(model), mode=PropagationMode.ONCE)
    # Some improvements came while both tables held entries.
    assert any(this and last for (this, last), _ in improved), improved
    for before, after in improved:
        assert after == before


def test_peak_stored_is_the_largest_registry_size(monkeypatch, capsys):
    """``peak_stored`` is the largest ``Registry.size`` that any call of
    ``register`` left, over all CABS passes, and ``solve --json`` reports
    it."""
    original = Registry.register
    sizes = []

    def register(reg, model, node):
        out = original(reg, model, node)
        sizes.append(reg.size)
        return out

    monkeypatch.setattr(Registry, "register", register)
    evicted_somewhere = False
    for kind, (make, make_adapter) in sorted(PINNED_KINDS.items()):
        for seed in range(8):
            model = make(random.Random(seed))
            for solver in (astar, cabs):
                for mode in (PropagationMode.OFF, PropagationMode.ONCE):
                    adapter = None if mode is PropagationMode.OFF else make_adapter(model)
                    sizes.clear()
                    m = solver(model, adapter, mode=mode).metrics
                    assert m.peak_stored == max(sizes), (kind, seed, solver.__name__, mode)
                    if solver is astar:
                        evicted_somewhere |= max(sizes) < len(sizes)
    # Some A* registries evicted nodes, so the peak is not the count of stores.
    assert evicted_somewhere
    assert main(["solve", str(DATA / "tiny_sms.json"), "--problem", "smswt", "--algo", "cabs"]) == 0
    report = json.loads(capsys.readouterr().out)
    model = smswt.SmsModel(smswt.load_instance(str(DATA / "tiny_sms.json")))
    sizes.clear()
    cabs(model, smswt.SmsAdapter(model))
    assert report["metrics"]["peak_stored"] == max(sizes) > 1


def test_each_pop_counts_once(monkeypatch):
    """Each non-base pop is an expansion, a pop pruned by its store, or a
    pop pruned on its own ``f``, and counts in exactly one of
    ``expansions``, ``pruned_by_cp`` and ``pruned_by_f``; so ``off``'s pops
    are ``expansions + pruned_by_f``, which the propagating modes count as
    ``propagation_calls + reused``."""
    original = _SolveContext.expand
    seen = {"store": 0, "f": 0}
    tally = {}

    def expand(ctx, node):
        m = ctx.metrics
        before = (m.expansions, m.pruned_by_cp, m.pruned_by_f)
        out = original(ctx, node)
        grew = (m.expansions - before[0], m.pruned_by_cp - before[1], m.pruned_by_f - before[2])
        if out is not None:
            # Vetoed successors add to ``pruned_by_cp`` too.
            assert grew[0] == 1 and grew[2] == 0, grew
            assert out.store is not None or grew[1] == 0, grew
        else:
            assert grew in ((0, 1, 0), (0, 0, 1)), grew
            seen["store" if grew[1] else "f"] += 1
            tally["by_store"] += grew[1]
        tally["pops"] += 1
        return out

    monkeypatch.setattr(_SolveContext, "expand", expand)
    for kind, (make, make_adapter) in sorted(PINNED_KINDS.items()):
        for seed in range(12):
            model = make(random.Random(seed))
            for solver in (astar, cabs):
                for mode in ALL_MODES:
                    adapter = None if mode is PropagationMode.OFF else make_adapter(model)
                    tally.update(pops=0, by_store=0)
                    m = solver(model, adapter, mode=mode).metrics
                    key = (kind, seed, solver.__name__, mode)
                    assert tally["pops"] == m.expansions + m.pruned_by_f + tally["by_store"], key
                    if adapter is None:
                        assert tally["by_store"] == 0, key
                    else:
                        assert tally["pops"] == m.propagation_calls + m.reused, key
    assert min(seen.values()) > 50, seen


def test_pops_counts_each_non_base_pop(monkeypatch, capsys):
    """``RunMetrics.pops`` is the number of pops that reach ``expand``, for
    A* and CABS in every mode on all three models, also where an expansion
    cap stops the solve: the pop at which a limit fires reaches no
    ``expand`` and is not counted.  ``solve`` reports it."""
    original = _SolveContext.expand
    calls = [0]

    def expand(ctx, node):
        calls[0] += 1
        return original(ctx, node)

    monkeypatch.setattr(_SolveContext, "expand", expand)
    capped = 0
    for kind, (make, make_adapter) in sorted(PINNED_KINDS.items()):
        for seed in range(6):
            model = make(random.Random(seed))
            for solver in (astar, cabs):
                for mode in ALL_MODES:
                    for cap in (None, 3):
                        adapter = None if mode is PropagationMode.OFF else make_adapter(model)
                        calls[0] = 0
                        result = solver(model, adapter, SolveLimits(expansion_cap=cap), mode=mode)
                        key = (kind, seed, solver.__name__, mode, cap)
                        assert result.metrics.pops == calls[0] > 0, key
                        capped += result.status is SolveStatus.EXPANSION_LIMIT
    assert capped > 50, capped
    monkeypatch.undo()
    assert main(["solve", str(DATA / "tiny_sms.json"), "--problem", "smswt", "--algo", "cabs"]) == 0
    report = json.loads(capsys.readouterr().out)
    model = smswt.SmsModel(smswt.load_instance(str(DATA / "tiny_sms.json")))
    assert report["metrics"]["pops"] == cabs(model, smswt.SmsAdapter(model)).metrics.pops > 0


def test_astar_keeps_no_expansion_and_bounds_each_child_once(monkeypatch):
    """A* drops each pop's expansion record with the pop: it replays
    nothing and keeps no successor.  Each child is bounded exactly once.
    For TSPTW under propagation, every child is bounded from its parent's
    assignment when the pop is expanded (the adapter's ``child_bounds``),
    and the root's bound is the one ``model.dual`` call.  Otherwise each
    child that passes the registry's dominance test is bounded by exactly
    one ``model.dual`` call before the next child is tested, the root's
    bound is the only other call, and ``child_bounds`` leaves every slot
    to the search."""
    dominated = Registry.dominated
    calls = {"dual": 0, "children": 0, "inherited": 0, "inherits": False}

    def counted_dominated(registry, model, state, g):
        # Every child that passed before this one, and the root, is bounded.
        assert calls["dual"] == (1 if calls["inherits"] else calls["children"] + 1)
        out = dominated(registry, model, state, g)
        calls["children"] += not out
        return out

    monkeypatch.setattr(Registry, "dominated", counted_dominated)
    bounded = inherited = 0
    for kind, (make, make_adapter) in sorted(PINNED_KINDS.items()):
        for seed in range(12):
            for mode in ALL_MODES:
                model = make(random.Random(seed))
                dual = model.dual

                def counted_dual(*args, _dual=dual):
                    calls["dual"] += 1
                    return _dual(*args)

                monkeypatch.setattr(model, "dual", counted_dual)
                # An equal model of its own, so that ``dual_cp``'s calls to
                # the model dual are not counted.
                adapter = None
                if mode is not PropagationMode.OFF:
                    adapter = make_adapter(make(random.Random(seed)))
                    child_bounds = adapter.child_bounds

                    def counted_child_bounds(*args, _child_bounds=child_bounds):
                        out = _child_bounds(*args)
                        calls["inherited"] += sum(h is not None for h in out)
                        return out

                    monkeypatch.setattr(adapter, "child_bounds", counted_child_bounds)
                inherits = kind == "tsptw" and adapter is not None
                calls.update(dual=0, children=0, inherited=0, inherits=inherits)
                m = astar(model, adapter, mode=mode).metrics
                key = (kind, seed, mode)
                assert (m.reused, m.peak_kept_children) == (0, 0), key
                if inherits:
                    assert calls["dual"] == 1, key
                    assert calls["inherited"] == m.generated, key
                else:
                    assert calls["inherited"] == 0, key
                    assert calls["dual"] == calls["children"] + 1, key
                    assert calls["children"] == m.generated - m.dominated, key
                bounded += calls["children"]
                inherited += calls["inherited"]
    assert bounded > 1000 and inherited > 200, (bounded, inherited)
