import random

import pytest

import dpcp
from dpcp import (
    INFINITY,
    PropagationMode,
    Registry,
    SolveLimits,
    SolveStatus,
    astar,
    brute_force_value,
    cabs,
    enumerate_state_values,
    propagate_fixpoint,
    propagate_once,
)
from dpcp import rcpsp, smswt, tsptw
from dpcp.search import NODE_ESTIMATE_BYTES, SearchNode, _SolveContext

from conftest import (
    ALL_MODES,
    expand_once,
    random_rcpsp_instance,
    random_sms_instance,
    random_tsptw_instance,
    solve_all_modes,
)


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
    """``solve()`` and the largest number of nodes its registries held,
    counting each entry of the CABS tables of propagation outcomes as one.

    Sampled after each registration and at each limit check: a pruned pop
    grows a table without registering anything.
    """
    peak = 0
    init, register, limit_status = (
        _SolveContext.__init__, Registry.register, _SolveContext.limit_status
    )
    contexts = []

    def sample(registry):
        nonlocal peak
        ctx = contexts[-1]
        peak = max(peak, registry.size + len(ctx.last_pass) + len(ctx.this_pass or ()))

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
    return result, peak


def solve_counts(result):
    m = result.metrics
    return (
        result.status, result.incumbent, m.expansions, m.generated,
        m.pruned_by_cp, m.stale_skips, m.beam_widths,
    )


@pytest.mark.parametrize("algo", [astar, cabs])
@pytest.mark.parametrize("mode", [PropagationMode.OFF, PropagationMode.ONCE])
@pytest.mark.parametrize("family", ["sms", "tsptw"])
def test_memory_limit_counts_each_stored_node_once(monkeypatch, algo, mode, family):
    # A budget of a solve's own peak stored-node count never stops it;
    # half of it does.  The instances are sized so that more than 50 nodes
    # are stored at once although dead-end children are never generated.
    rng = random.Random(0)
    if family == "sms":
        model = smswt.SmsModel(random_sms_instance(rng, 11))
        adapter = smswt.SmsAdapter(model)
    else:
        model = tsptw.TsptwModel(random_tsptw_instance(rng, 10, widths=(30, 80)))
        adapter = tsptw.TsptwAdapter(model)
    if mode is PropagationMode.OFF:
        adapter = None
    unlimited, peak = solve_with_peak_registry(
        monkeypatch, lambda: algo(model, adapter, mode=mode)
    )
    assert unlimited.status is SolveStatus.OPTIMAL and peak > 50
    budget = peak * NODE_ESTIMATE_BYTES
    limited = algo(model, adapter, limits=SolveLimits(memory_limit=budget), mode=mode)
    assert solve_counts(limited) == solve_counts(unlimited)
    halved = algo(model, adapter, limits=SolveLimits(memory_limit=budget // 2), mode=mode)
    assert halved.status is SolveStatus.MEMORY_LIMIT


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
    # Dead-end children are never generated, so an instance that keeps
    # CABS from any incumbent within the cap is drawn at n = 24.
    larger = smswt.SmsGeneratorConfig(n=24, tau=0.4, rho=0.05, phi=0.9, seed=1, count=2)
    second = smswt.generate_instances(larger)[1]
    result = cabs(smswt.SmsModel(second), limits=limits, mode=PropagationMode.OFF)
    assert result.status is SolveStatus.EXPANSION_LIMIT and result.incumbent is None
    assert result.root_dual > 0


def test_cabs_infeasible():
    result = cabs(infeasible_model())
    assert result.status is SolveStatus.INFEASIBLE
    assert result.incumbent is None


def admit(reg, model, state, g):
    """Register ``state`` with a plain node, as the drivers do for a root."""
    return reg.register(model, state, g, lambda: SearchNode(state, g, g))


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


def test_register_builds_only_after_dominance_and_may_decline():
    model = two_job_model()
    reg = Registry()
    old = SearchNode(smswt.SmsState(0b10, 4), 5, 5)
    assert reg.register(model, old.state, old.g, lambda: old) is old
    built = []
    dominated = smswt.SmsState(0b10, 6)
    assert reg.register(model, dominated, 5, lambda: built.append(1)) is None
    assert built == []
    # A declined state is neither stored nor allowed to evict.
    better = smswt.SmsState(0b10, 2)
    assert reg.register(model, better, 5, lambda: None) is None
    assert reg.size == 1 and not old.stale


def test_register_eviction_marks_stale():
    model = two_job_model()
    reg = Registry()
    old = SearchNode(smswt.SmsState(0b10, 9), 5, 5)
    assert reg.register(model, old.state, old.g, lambda: old)
    new = SearchNode(smswt.SmsState(0b10, 4), 5, 5)
    assert reg.register(model, new.state, new.g, lambda: new)
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
            for bucket in reg._buckets.values()
            for a in bucket
            for b in bucket
            if a is not b and a.g <= b.g and model.dominates(a.state, b.state)
        )
        assert violations == 0


# --- propagation at expansion ------------------------------------------------

def test_gen_succ_infeasible_store_short_circuits():
    # Window [0, -1] is empty: the adapter emits an infeasible store.
    inst = smswt.SmsInstance((smswt.SmsJob(5, 0, 3, 4, 1),))
    model = smswt.SmsModel(inst)
    adapter = smswt.SmsAdapter(model)
    succs, cp_dual, store = expand_once(model, adapter, model.target_state(), 0, INFINITY)
    assert succs == []
    assert cp_dual == INFINITY
    assert store is None


def test_gen_succ_bound_test_short_circuits():
    # One job, tardiness exactly 3; with primal equal to the root dual the
    # bound test fires and reports the CP dual.
    inst = smswt.SmsInstance((smswt.SmsJob(2, 0, 1, 10, 3),))
    model = smswt.SmsModel(inst)
    adapter = smswt.SmsAdapter(model)
    succs, cp_dual, store = expand_once(model, adapter, model.target_state(), 0, 3)
    assert succs == []
    assert cp_dual == 3
    assert store is None


def test_gen_succ_filters_lifted_successor():
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


# --- pinned search counts ------------------------------------------------------

PINNED_KINDS = {
    "smswt": (lambda rng: smswt.SmsModel(random_sms_instance(rng, 10)), smswt.SmsAdapter),
    "tsptw": (lambda rng: tsptw.TsptwModel(random_tsptw_instance(rng, 10)), tsptw.TsptwAdapter),
    "rcpsp": (lambda rng: rcpsp.RcpspModel(random_rcpsp_instance(rng, 10)), rcpsp.RcpspAdapter),
}

# (status, cost, expansions, generated, pruned_by_cp, stale_skips, CABS
# passes) per (kind, seed, algo, mode).  The order of the admission tests
# never changes which children are admitted, so these counts are exact.
PINNED_COUNTS = {
    ("smswt", 0, "astar", "off"): ("Optimal", 406, 39, 120, 0, 1, 0),
    ("smswt", 0, "astar", "once"): ("Optimal", 406, 34, 113, 4, 1, 0),
    ("smswt", 0, "astar", "fixpoint"): ("Optimal", 406, 34, 113, 4, 1, 0),
    ("smswt", 0, "cabs", "off"): ("Optimal", 406, 133, 386, 0, 2, 5),
    ("smswt", 0, "cabs", "once"): ("Optimal", 406, 103, 330, 27, 2, 5),
    ("smswt", 0, "cabs", "fixpoint"): ("Optimal", 406, 103, 330, 27, 2, 5),
    ("smswt", 1, "astar", "off"): ("Optimal", 506, 101, 214, 0, 19, 0),
    ("smswt", 1, "astar", "once"): ("Optimal", 506, 59, 143, 30, 6, 0),
    ("smswt", 1, "astar", "fixpoint"): ("Optimal", 506, 59, 143, 30, 6, 0),
    ("smswt", 1, "cabs", "off"): ("Optimal", 506, 312, 692, 0, 37, 7),
    ("smswt", 1, "cabs", "once"): ("Optimal", 506, 113, 299, 108, 14, 5),
    ("smswt", 1, "cabs", "fixpoint"): ("Optimal", 506, 113, 299, 108, 14, 5),
    ("smswt", 2, "astar", "off"): ("Infeasible", None, 6, 5, 0, 0, 0),
    ("smswt", 2, "astar", "once"): ("Infeasible", None, 0, 0, 1, 0, 0),
    ("smswt", 2, "astar", "fixpoint"): ("Infeasible", None, 0, 0, 1, 0, 0),
    ("smswt", 2, "cabs", "off"): ("Infeasible", None, 16, 20, 0, 0, 4),
    ("smswt", 2, "cabs", "once"): ("Infeasible", None, 0, 0, 1, 0, 1),
    ("smswt", 2, "cabs", "fixpoint"): ("Infeasible", None, 0, 0, 1, 0, 1),
    ("smswt", 4, "astar", "off"): ("Optimal", 472, 389, 1143, 0, 37, 0),
    ("smswt", 4, "astar", "once"): ("Optimal", 472, 174, 549, 186, 29, 0),
    ("smswt", 4, "astar", "fixpoint"): ("Optimal", 472, 174, 549, 186, 29, 0),
    ("smswt", 4, "cabs", "off"): ("Optimal", 472, 1302, 4746, 0, 99, 9),
    ("smswt", 4, "cabs", "once"): ("Optimal", 472, 343, 1622, 623, 67, 8),
    ("smswt", 4, "cabs", "fixpoint"): ("Optimal", 472, 343, 1622, 623, 67, 8),
    ("smswt", 5, "astar", "off"): ("Optimal", 176, 93, 427, 0, 7, 0),
    ("smswt", 5, "astar", "once"): ("Optimal", 176, 93, 427, 0, 7, 0),
    ("smswt", 5, "astar", "fixpoint"): ("Optimal", 176, 93, 427, 0, 7, 0),
    ("smswt", 5, "cabs", "off"): ("Optimal", 176, 292, 1352, 0, 23, 6),
    ("smswt", 5, "cabs", "once"): ("Optimal", 176, 265, 1325, 24, 23, 6),
    ("smswt", 5, "cabs", "fixpoint"): ("Optimal", 176, 265, 1325, 24, 23, 6),
    ("tsptw", 0, "astar", "off"): ("Optimal", 95, 23, 27, 0, 0, 0),
    ("tsptw", 0, "astar", "once"): ("Optimal", 95, 22, 27, 0, 0, 0),
    ("tsptw", 0, "astar", "fixpoint"): ("Optimal", 95, 22, 27, 0, 0, 0),
    ("tsptw", 0, "cabs", "off"): ("Optimal", 95, 47, 60, 0, 0, 3),
    ("tsptw", 0, "cabs", "once"): ("Optimal", 95, 44, 60, 2, 0, 3),
    ("tsptw", 0, "cabs", "fixpoint"): ("Optimal", 95, 44, 60, 2, 0, 3),
    ("tsptw", 2, "astar", "off"): ("Infeasible", None, 10, 10, 0, 0, 0),
    ("tsptw", 2, "astar", "once"): ("Infeasible", None, 10, 10, 0, 0, 0),
    ("tsptw", 2, "astar", "fixpoint"): ("Infeasible", None, 10, 10, 0, 0, 0),
    ("tsptw", 2, "cabs", "off"): ("Infeasible", None, 22, 25, 0, 0, 3),
    ("tsptw", 2, "cabs", "once"): ("Infeasible", None, 23, 27, 0, 0, 3),
    ("tsptw", 2, "cabs", "fixpoint"): ("Infeasible", None, 23, 27, 0, 0, 3),
    ("tsptw", 9, "astar", "off"): ("Optimal", 67, 41, 62, 0, 5, 0),
    ("tsptw", 9, "astar", "once"): ("Optimal", 67, 39, 61, 0, 2, 0),
    ("tsptw", 9, "astar", "fixpoint"): ("Optimal", 67, 39, 61, 0, 2, 0),
    ("tsptw", 9, "cabs", "off"): ("Optimal", 67, 125, 189, 0, 14, 5),
    ("tsptw", 9, "cabs", "once"): ("Optimal", 67, 113, 178, 11, 8, 5),
    ("tsptw", 9, "cabs", "fixpoint"): ("Optimal", 67, 113, 178, 11, 8, 5),
    ("tsptw", 13, "astar", "off"): ("Optimal", 65, 26, 40, 0, 2, 0),
    ("tsptw", 13, "astar", "once"): ("Optimal", 65, 24, 38, 0, 1, 0),
    ("tsptw", 13, "astar", "fixpoint"): ("Optimal", 65, 24, 38, 0, 1, 0),
    ("tsptw", 13, "cabs", "off"): ("Optimal", 65, 75, 117, 0, 3, 4),
    ("tsptw", 13, "cabs", "once"): ("Optimal", 65, 63, 105, 8, 1, 4),
    ("tsptw", 13, "cabs", "fixpoint"): ("Optimal", 65, 63, 105, 8, 1, 4),
    ("rcpsp", 0, "astar", "off"): ("Optimal", 26, 35, 62, 0, 1, 0),
    ("rcpsp", 0, "astar", "once"): ("Optimal", 26, 30, 56, 0, 0, 0),
    ("rcpsp", 0, "astar", "fixpoint"): ("Optimal", 26, 30, 56, 0, 0, 0),
    ("rcpsp", 0, "cabs", "off"): ("Optimal", 26, 87, 156, 0, 1, 4),
    ("rcpsp", 0, "cabs", "once"): ("Optimal", 26, 51, 108, 21, 0, 4),
    ("rcpsp", 0, "cabs", "fixpoint"): ("Optimal", 26, 24, 53, 13, 0, 3),
    ("rcpsp", 8, "astar", "off"): ("Optimal", 9, 40, 73, 0, 0, 0),
    ("rcpsp", 8, "astar", "once"): ("Optimal", 9, 28, 49, 0, 0, 0),
    ("rcpsp", 8, "astar", "fixpoint"): ("Optimal", 9, 28, 49, 0, 0, 0),
    ("rcpsp", 8, "cabs", "off"): ("Optimal", 9, 95, 181, 0, 5, 5),
    ("rcpsp", 8, "cabs", "once"): ("Optimal", 9, 24, 64, 23, 1, 4),
    ("rcpsp", 8, "cabs", "fixpoint"): ("Optimal", 9, 24, 64, 23, 1, 4),
    ("rcpsp", 12, "astar", "off"): ("Optimal", 21, 155, 360, 0, 2, 0),
    ("rcpsp", 12, "astar", "once"): ("Optimal", 21, 97, 255, 0, 5, 0),
    ("rcpsp", 12, "astar", "fixpoint"): ("Optimal", 21, 97, 255, 0, 5, 0),
    ("rcpsp", 12, "cabs", "off"): ("Optimal", 21, 531, 1283, 0, 65, 7),
    ("rcpsp", 12, "cabs", "once"): ("Optimal", 21, 266, 667, 85, 39, 7),
    ("rcpsp", 12, "cabs", "fixpoint"): ("Optimal", 21, 262, 657, 83, 40, 7),
    ("rcpsp", 16, "astar", "off"): ("Optimal", 15, 45, 78, 0, 1, 0),
    ("rcpsp", 16, "astar", "once"): ("Optimal", 15, 43, 76, 0, 0, 0),
    ("rcpsp", 16, "astar", "fixpoint"): ("Optimal", 15, 43, 76, 0, 0, 0),
    ("rcpsp", 16, "cabs", "off"): ("Optimal", 15, 88, 149, 0, 0, 4),
    ("rcpsp", 16, "cabs", "once"): ("Optimal", 15, 82, 171, 32, 8, 5),
    ("rcpsp", 16, "cabs", "fixpoint"): ("Optimal", 15, 82, 171, 32, 8, 5),
    # n = 6.  CABS + once sees the incumbent cap in its single pass, so it
    # equals CABS + fixpoint.
    ("rcpsp", 23, "astar", "off"): ("Optimal", 11, 15, 24, 0, 0, 0),
    ("rcpsp", 23, "astar", "once"): ("Optimal", 11, 14, 23, 0, 0, 0),
    ("rcpsp", 23, "astar", "fixpoint"): ("Optimal", 11, 14, 23, 0, 0, 0),
    ("rcpsp", 23, "cabs", "off"): ("Optimal", 11, 31, 52, 0, 0, 3),
    ("rcpsp", 23, "cabs", "once"): ("Optimal", 11, 20, 38, 5, 0, 3),
    ("rcpsp", 23, "cabs", "fixpoint"): ("Optimal", 11, 20, 38, 5, 0, 3),
}


def pinned_runs():
    """Each pinned (kind, seed, algo, mode) with a fresh model and adapter."""
    for kind, seed, algo, mode in PINNED_COUNTS:
        make, make_adapter = PINNED_KINDS[kind]
        model = make(random.Random(seed))
        adapter = None if mode == "off" else make_adapter(model)
        yield (kind, seed, algo, mode), model, adapter


def test_pinned_search_counts(monkeypatch):
    """Exact counts on the pinned runs, and ``model.dual`` and ``dual_cp``
    run for a child only once the registry's dominance test let it through.

    The dominance test is recounted here from the registry's buckets.  A
    ``dual_cp`` call is a child's unless its state is the one that first
    used its store (the expanded state's own bound, asked again when CABS
    reuses the store); roots are registered and bounded once.
    """
    assert {k[3] for k in PINNED_COUNTS} == {m.value for m in ALL_MODES}
    original = Registry.register
    rejected_somewhere = False
    for key, model, adapter in pinned_runs():
        counts = {"offered": 0, "passed": 0, "dual": 0, "dual_cp": 0}
        stores = {}

        def register(reg, model, state, g, *args, **kwargs):
            counts["offered"] += 1
            bucket = reg._buckets.get(model.state_signature(state), ())
            if not any(e.g <= g and model.dominates(e.state, state) for e in bucket):
                counts["passed"] += 1
            return original(reg, model, state, g, *args, **kwargs)

        def dual(state, inner=model.dual):
            counts["dual"] += 1
            return inner(state)

        def dual_cp(state, store, inner=adapter and adapter.dual_cp):
            # The store is held, so that no id is reused.
            owner = stores.setdefault(id(store), (store, state))[1]
            if state != owner:
                counts["dual_cp"] += 1
            return inner(state, store)

        monkeypatch.setattr(Registry, "register", register)
        model.dual = dual
        if adapter is not None:
            adapter.dual_cp = dual_cp
        solver = astar if key[2] == "astar" else cabs
        result = solver(model, adapter, mode=PropagationMode(key[3]))
        m = result.metrics
        got = (
            result.status.value, result.cost, m.expansions, m.generated,
            m.pruned_by_cp, m.stale_skips, len(m.beam_widths),
        )
        assert got == PINNED_COUNTS[key], key
        assert counts["dual"] <= counts["passed"], (key, counts)
        assert counts["dual_cp"] <= counts["passed"], (key, counts)
        rejected_somewhere |= counts["passed"] < counts["offered"]
    # The registry rejected children on these runs, so the check has teeth.
    assert rejected_somewhere


# --- cross-mode agreement and admissibility ----------------------------------

def test_all_modes_agree_with_oracle_small_sweep():
    rng = random.Random(21)
    for _ in range(25):
        inst = random_sms_instance(rng, rng.randint(2, 6))
        model = smswt.SmsModel(inst)
        adapter = smswt.SmsAdapter(model)
        oracle = brute_force_value(model, model.target_state())
        for (algo, mode), result in solve_all_modes(model, adapter).items():
            if oracle == INFINITY:
                assert result.status is SolveStatus.INFEASIBLE, (algo, mode)
            else:
                assert result.status is SolveStatus.OPTIMAL, (algo, mode)
                assert result.cost == oracle, (algo, mode)


def test_successor_bounds_admissible_under_parent_store():
    """The bound a child gets at admission never exceeds its value.

    Each non-base enumerated state's store is built without an incumbent
    cap and propagated once, and separately to a fixed point; every
    successor the store does not veto must have ``max(model dual, CP dual
    under that store)`` at most its exact value.
    """
    rng = random.Random(31)
    kinds = {
        "smswt": (lambda: smswt.SmsModel(random_sms_instance(rng, rng.randint(2, 7))),
                  smswt.SmsAdapter),
        "tsptw": (lambda: tsptw.TsptwModel(random_tsptw_instance(rng, rng.randint(2, 7))),
                  tsptw.TsptwAdapter),
        "rcpsp": (lambda: rcpsp.RcpspModel(random_rcpsp_instance(rng, 7)),
                  rcpsp.RcpspAdapter),
    }
    for kind, (make, make_adapter) in kinds.items():
        checked = 0
        for _ in range(20):
            model = make()
            adapter = make_adapter(model)
            values = enumerate_state_values(model)
            for state in values:
                if model.is_base(state):
                    continue
                for propagate in (propagate_once, propagate_fixpoint):
                    store, props = adapter.build(state)
                    if not store.infeasible:
                        propagate(store, props)
                    if store.infeasible:
                        continue
                    for _w, label, succ in model.successors(state):
                        if adapter.is_succ_infeasible(label, state, succ, store):
                            continue
                        bound = max(model.dual(succ), adapter.dual_cp(succ, store))
                        assert bound <= values[succ], (kind, state, label)
                        checked += 1
        assert checked > 0, kind


def test_incumbent_trace_strictly_decreasing_everywhere():
    rng = random.Random(41)
    for _ in range(15):
        inst = random_sms_instance(rng, rng.randint(3, 7))
        model = smswt.SmsModel(inst)
        result = cabs(model, smswt.SmsAdapter(model))
        costs = [c for _t, c in result.metrics.incumbent_trace]
        assert all(x > y for x, y in zip(costs, costs[1:]))
