import json
import math
import random

import pytest

from dpcp import (
    Disjunctive,
    SolveStatus,
    astar,
    brute_force_value,
    enumerate_state_values,
    is_finite,
    propagate_once,
)
from dpcp.cost import MAX_COST, CostOverflow
from dpcp.smswt import (
    SmsAdapter,
    SmsGeneratorConfig,
    SmsInstance,
    SmsJob,
    SmsModel,
    SmsState,
    generate_instances,
    permutation_optimum,
)

from conftest import (
    UnfilteredSmsModel,
    check_dropped_children_dead,
    expand_once,
    random_sms_instance,
    sms_blocked,
    vetoed,
)


def model_of(*jobs):
    return SmsModel(SmsInstance(tuple(SmsJob(*j) for j in jobs)))


TWO_JOB = ((2, 0, 2, 10, 1), (3, 0, 3, 10, 2))


def test_model_refuses_tardiness_that_could_pass_max_cost():
    # The ceiling starts every job no earlier than the latest deadline, 1,
    # so a job (p, r, d, deadline, w) = (1, 0, 1, 1, w) counts w * 1.
    half = MAX_COST // 2
    model_of((1, 0, 1, 1, MAX_COST))
    model_of((1, 0, 1, 1, half), (1, 0, 1, 1, half + 1))
    with pytest.raises(CostOverflow, match="exceeds"):
        model_of((1, 0, 1, 1, MAX_COST + 1))
    # No one term passes MAX_COST, but their sum does.
    with pytest.raises(CostOverflow, match="exceeds"):
        model_of((1, 0, 1, 1, half + 1), (1, 0, 1, 1, half + 1))


def test_next_time():
    model = model_of((4, 3, 9, 99, 1), (2, 7, 9, 99, 1), (1, 2, 9, 99, 1))

    def next_time(t, i):
        # The machine time after job ``i``, appended at time ``t``.
        [(_w, label, succ)] = model.successors(SmsState(1 << i, t))
        assert label == i
        return succ.time

    assert next_time(5, 0) == 9
    assert next_time(0, 1) == 9
    assert next_time(2, 2) == 3


def test_successors_two_job_target():
    model = model_of(*TWO_JOB)
    succs = model.successors(model.target_state())
    assert [(w, lbl) for w, lbl, _s in succs] == [(0, 0), (0, 1)]
    assert succs[0][2] == SmsState(0b10, 2)
    assert succs[1][2] == SmsState(0b01, 3)


def test_successors_dead_end_when_deadline_unreachable():
    model = model_of((3, 5, 7, 7, 1))
    assert model.successors(model.target_state()) == []


def test_base_state():
    model = model_of(*TWO_JOB)
    state = SmsState(0, 5)
    assert model.is_base(state)
    assert model.base_cost(state) == 0


def test_dominates_by_time():
    model = model_of(*TWO_JOB)
    assert model.dominates(SmsState(0b01, 3), SmsState(0b01, 5))
    assert model.dominates(SmsState(0b01, 5), SmsState(0b01, 5))
    assert not model.dominates(SmsState(0b01, 6), SmsState(0b01, 5))


def test_dual_examples():
    assert model_of(*TWO_JOB).dual(SmsState(0, 9)) == 0
    model = model_of((2, 0, 1, 99, 3))
    assert model.dual(model.target_state()) == 3
    two = model_of(*TWO_JOB)
    assert two.dual(two.target_state()) == 0


def test_build_window():
    model = model_of((4, 3, 10, 20, 1))
    adapter = SmsAdapter(model)
    store, props = adapter.build(SmsState(0b1, 5))
    assert (store.lbs[0], store.ubs[0]) == (5, 16)
    assert len(props) == 1 and isinstance(props[0], Disjunctive)


def test_build_empty_window_is_infeasible():
    model = model_of((4, 0, 10, 8, 1))  # deadline - p = 4
    adapter = SmsAdapter(model)
    store, _props = adapter.build(SmsState(0b1, 5))
    assert store.infeasible


def test_build_two_job_target_counts():
    model = model_of(*TWO_JOB)
    store, props = SmsAdapter(model).build(model.target_state())
    assert len(store.lbs) == 2
    assert len(props) == 1
    assert len(props[0].items) == 2


def test_dual_cp_equals_dual_dp_before_propagation():
    rng = random.Random(2)
    for _ in range(20):
        inst = random_sms_instance(rng, rng.randint(2, 6))
        model = SmsModel(inst)
        adapter = SmsAdapter(model)
        state = model.target_state()
        store, _props = adapter.build(state)
        if store.infeasible:
            continue
        assert adapter.dual_cp(state, store) == model.dual(state)


def test_dual_cp_after_edge_finding_lift():
    # Job 0 is lifted to start at 4; with due date 4 and weight 2 its
    # tardiness contribution becomes 2 * (4 + 5 - 4) = 10.
    model = model_of((5, 0, 4, 20, 2), (3, 1, 4, 5, 1))
    adapter = SmsAdapter(model)
    state = model.target_state()
    store, props = adapter.build(state)
    propagate_once(store, props)
    assert store.lbs[0] == 4
    assert adapter.dual_cp(state, store) == 10
    assert adapter.dual_cp(SmsState(0, 9), store) == 0


def test_succ_infeasible_after_lift():
    # Job 0 first finishes at 5, past job 1's latest start 2, so the model
    # never generates that child; the veto is checked on the unfiltered
    # transition, which does.
    model = model_of((5, 0, 4, 20, 2), (3, 1, 4, 5, 1))
    state = model.target_state()
    assert [label for _w, label, _s in model.successors(state)] == [1]
    adapter = SmsAdapter(UnfilteredSmsModel(model.instance))
    store, props = adapter.build(state)
    propagate_once(store, props)
    assert vetoed(adapter, state, 0, store)
    assert not vetoed(adapter, state, 1, store)


def test_succ_infeasible_false_without_pruning():
    model = model_of(*TWO_JOB)
    adapter = SmsAdapter(model)
    state = model.target_state()
    store, props = adapter.build(state)
    propagate_once(store, props)
    assert not vetoed(adapter, state, 0, store)
    assert not vetoed(adapter, state, 1, store)


def test_generator_determinism_and_ranges():
    config = SmsGeneratorConfig(n=50, tau=0.2, rho=0.25, phi=0.9, seed=11, count=5)
    first = generate_instances(config)
    second = generate_instances(config)
    assert [i.to_json() for i in first] == [i.to_json() for i in second]
    for inst in first:
        total = sum(j.p for j in inst.jobs)
        assert 50 <= total <= 500
        for j in inst.jobs:
            assert 1 <= j.p <= 10
            assert 0 <= j.r <= int(0.2 * total)
            assert j.r + j.p <= j.d <= j.r + j.p + int(0.25 * total)
            assert j.d <= j.deadline <= j.d + int(0.9 * total)
            assert 1 <= j.w <= 10


def test_generator_tau_zero_releases():
    config = SmsGeneratorConfig(n=20, tau=0.0, rho=0.25, phi=1.2, seed=3, count=3)
    for inst in generate_instances(config):
        assert all(j.r == 0 for j in inst.jobs)


def test_generator_config_validation():
    with pytest.raises(ValueError):
        SmsGeneratorConfig(n=5, tau=1.5, rho=0.25, phi=0.9)
    with pytest.raises(ValueError):
        SmsGeneratorConfig(n=5, tau=0.5, rho=0.0, phi=0.9)
    # A span of rho * P or phi * P must be a finite number.
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            SmsGeneratorConfig(n=5, tau=0.5, rho=bad, phi=0.9)
        with pytest.raises(ValueError):
            SmsGeneratorConfig(n=5, tau=0.5, rho=0.25, phi=bad)


def test_json_roundtrip():
    inst = random_sms_instance(random.Random(8), 6)
    again = SmsInstance.from_json(json.loads(json.dumps(inst.to_json())))
    assert again == inst


def test_dead_end_matches_deadline_test():
    # No successor exactly when the state is blocked or every child of the
    # unfiltered transition is.
    rng = random.Random(19)
    for _ in range(40):
        inst = random_sms_instance(rng, rng.randint(2, 6))
        model = SmsModel(inst)
        n = inst.n
        for _ in range(20):
            mask = rng.randint(1, (1 << n) - 1)
            t = rng.randint(0, 60)
            state = SmsState(mask, t)
            blocked = sms_blocked(inst, state) or all(
                sms_blocked(inst, SmsState(mask ^ (1 << i), max(t, job.r) + job.p))
                for i, job in enumerate(inst.jobs)
                if mask >> i & 1
            )
            assert (model.successors(state) == []) == blocked


def test_dropped_children_have_no_completion():
    rng = random.Random(37)
    kept = omitted = 0
    for _ in range(30):
        inst = random_sms_instance(rng, rng.randint(3, 8))
        k, o = check_dropped_children_dead(SmsModel(inst), UnfilteredSmsModel(inst), sms_blocked)
        kept, omitted = kept + k, omitted + o
    assert kept > 12000 and omitted > 3000, (kept, omitted)


def test_oracle_equivalence_and_bound_chain():
    rng = random.Random(23)
    for _ in range(15):
        inst = random_sms_instance(rng, rng.randint(2, 6))
        model = SmsModel(inst)
        adapter = SmsAdapter(model)
        assert permutation_optimum(inst) == brute_force_value(model, model.target_state())
        for state, value in enumerate_state_values(model).items():
            if not is_finite(value) or model.is_base(state):
                continue
            store, props = adapter.build(state)
            propagate_once(store, props)
            if store.infeasible:
                continue
            dp = model.dual(state)
            cp = adapter.dual_cp(state, store)
            assert dp <= cp <= value


def test_propagation_never_filters_optimal_path():
    rng = random.Random(29)
    for _ in range(25):
        inst = random_sms_instance(rng, rng.randint(2, 6))
        model = SmsModel(inst)
        adapter = SmsAdapter(model)
        result = astar(model)
        if result.status is not SolveStatus.OPTIMAL:
            continue
        state = model.target_state()
        g = 0
        for label in result.solution:
            succs, _dual, _store = expand_once(model, adapter, state, g)
            labels = [lbl for _w, lbl, _s in succs]
            assert label in labels
            for w, lbl, s in succs:
                if lbl == label:
                    g += w
                    state = s
                    break
