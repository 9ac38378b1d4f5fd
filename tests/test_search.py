import random

import pytest

import dpcp
from dpcp import (
    BeamConfig,
    INFINITY,
    PropagationMode,
    Registry,
    SolveLimits,
    SolveStatus,
    astar,
    brute_force_value,
    cabs,
    enumerate_state_values,
)
from dpcp import smswt
from dpcp.search import SearchNode, _gen_succ_cp

from conftest import random_sms_instance, solve_all_modes


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


def test_time_limit_statuses():
    limits = SolveLimits(time_limit=1e-9)
    assert astar(two_job_model(), limits=limits).status is SolveStatus.TIME_LIMIT
    assert cabs(two_job_model(), limits=limits).status is SolveStatus.TIME_LIMIT


def test_limits_validation():
    with pytest.raises(ValueError):
        SolveLimits(time_limit=0)
    with pytest.raises(ValueError):
        SolveLimits(memory_limit=0)
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


def test_cabs_infeasible():
    result = cabs(infeasible_model())
    assert result.status is SolveStatus.INFEASIBLE
    assert result.incumbent is None


def test_beam_config_validation():
    with pytest.raises(ValueError):
        BeamConfig(initial_width=0)
    with pytest.raises(ValueError):
        BeamConfig(growth_factor=1)


def test_register_admission_cases():
    model = two_job_model()
    reg = Registry()
    any_state = smswt.SmsState(0b01, 4)
    assert reg.register(model, any_state, 7)

    reg = Registry()
    state = smswt.SmsState(0b01, 4)
    assert reg.register(model, state, 4)
    assert not reg.register(model, state, 5)

    reg = Registry()
    assert reg.register(model, smswt.SmsState(0b10, 3), 2)
    assert not reg.register(model, smswt.SmsState(0b10, 5), 2)


def test_register_eviction_marks_stale():
    model = two_job_model()
    reg = Registry()
    old = SearchNode(smswt.SmsState(0b10, 9), 5, 0)
    assert reg.register(model, old.state, old.g, node=old)
    new = SearchNode(smswt.SmsState(0b10, 4), 5, 0)
    assert reg.register(model, new.state, new.g, node=new)
    assert old.stale and not new.stale
    assert reg.size == 1


def test_registry_never_holds_mutually_rejecting_entries():
    rng = random.Random(3)
    model = two_job_model()
    reg = Registry()
    for _ in range(300):
        state = smswt.SmsState(rng.randint(0, 3), rng.randint(0, 12))
        reg.register(model, state, rng.randint(0, 10))
        assert reg.rejection_violations(model) == 0


# --- propagation-wrapped generation ------------------------------------------

def test_gen_succ_infeasible_store_short_circuits():
    # Window [0, -1] is empty: the adapter emits an infeasible store.
    inst = smswt.SmsInstance((smswt.SmsJob(5, 0, 3, 4, 1),))
    model = smswt.SmsModel(inst)
    adapter = smswt.SmsAdapter(model)
    succs, cp_dual, expanded = _gen_succ_cp(
        model, adapter, model.target_state(), 0, INFINITY, PropagationMode.ONCE, None
    )
    assert succs == []
    assert cp_dual is INFINITY
    assert not expanded


def test_gen_succ_bound_test_short_circuits():
    # One job, tardiness exactly 3; with primal equal to the root dual the
    # bound test fires and reports the CP dual.
    inst = smswt.SmsInstance((smswt.SmsJob(2, 0, 1, 10, 3),))
    model = smswt.SmsModel(inst)
    adapter = smswt.SmsAdapter(model)
    succs, cp_dual, expanded = _gen_succ_cp(
        model, adapter, model.target_state(), 0, 3, PropagationMode.ONCE, None
    )
    assert succs == []
    assert cp_dual == 3
    assert not expanded


def test_gen_succ_filters_lifted_successor():
    # Competing tight job lifts the long job's earliest start, so taking
    # the long job first dies; only the tight job survives.
    inst = smswt.SmsInstance(
        (smswt.SmsJob(5, 0, 4, 20, 2), smswt.SmsJob(3, 1, 4, 5, 1))
    )
    model = smswt.SmsModel(inst)
    adapter = smswt.SmsAdapter(model)
    succs, cp_dual, expanded = _gen_succ_cp(
        model, adapter, model.target_state(), 0, INFINITY, PropagationMode.ONCE, None
    )
    assert expanded
    assert [label for _w, label, _s, _h in succs] == [1]
    # CP dual sees job 0 started at its lifted bound: 2 * (4 + 5 - 4) = 10.
    assert cp_dual == 10


def test_public_names_resolve():
    assert [name for name in dpcp.__all__ if not hasattr(dpcp, name)] == []


def test_mode_requires_adapter():
    with pytest.raises(ValueError):
        astar(two_job_model(), None, mode=PropagationMode.ONCE)


# --- cross-mode agreement and admissibility ----------------------------------

def test_all_modes_agree_with_oracle_small_sweep():
    rng = random.Random(21)
    for _ in range(25):
        inst = random_sms_instance(rng, rng.randint(2, 6))
        model = smswt.SmsModel(inst)
        adapter = smswt.SmsAdapter(model)
        oracle = brute_force_value(model, model.target_state())
        for (algo, mode), result in solve_all_modes(model, adapter).items():
            if oracle is INFINITY:
                assert result.status is SolveStatus.INFEASIBLE, (algo, mode)
            else:
                assert result.status is SolveStatus.OPTIMAL, (algo, mode)
                assert result.cost == oracle, (algo, mode)


def test_expanded_heuristics_admissible_under_propagation():
    rng = random.Random(31)
    for _ in range(10):
        inst = random_sms_instance(rng, rng.randint(2, 5))
        model = smswt.SmsModel(inst)
        adapter = smswt.SmsAdapter(model)
        values = enumerate_state_values(model)
        seen = []
        astar(model, adapter, observer=lambda s, g, h: seen.append((s, h)))
        for state, h in seen:
            value = values.get(state, brute_force_value(model, state))
            assert h <= value


def test_incumbent_trace_strictly_decreasing_everywhere():
    rng = random.Random(41)
    for _ in range(15):
        inst = random_sms_instance(rng, rng.randint(3, 7))
        model = smswt.SmsModel(inst)
        result = cabs(model, smswt.SmsAdapter(model))
        costs = [c for _t, c in result.metrics.incumbent_trace]
        assert all(x > y for x, y in zip(costs, costs[1:]))
