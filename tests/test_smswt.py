import json
import random

import pytest

from dpcp import (
    INFINITY,
    Disjunctive,
    SolveStatus,
    astar,
    enumerate_state_values,
    propagate_fixpoint,
    propagate_once,
)
from dpcp.cli import main
from dpcp.cost import MAX_COST, CostOverflow
from dpcp.smswt import (
    SmsAdapter,
    SmsGeneratorConfig,
    SmsInstance,
    SmsJob,
    SmsModel,
    SmsState,
    exact_optimum,
    generate_instances,
    permutation_optimum,
)

from conftest import (
    UnfilteredSmsModel,
    check_dropped_children_dead,
    expand_once,
    load_counts,
    random_sms_instance,
    reference_sms_bound,
    sms_blocked,
    solve_all_modes,
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
    # No job can finish before its due date, so tardiness is lateness and
    # the queue term is exact: the WSPT order (job 1, then job 0) costs
    # 2 * (3 - 3) + 1 * (5 - 2) = 3.
    two = model_of(*TWO_JOB)
    assert two.dual(two.target_state()) == 3 == permutation_optimum(two.instance)
    # Three unit jobs due at their duration: the separable sum charges each
    # as if it started at 0, which costs 0, while on one machine the second
    # and third finish 1 and 2 late.  From clock 4, two of them finish at
    # 5 and 6.
    three = model_of((1, 0, 1, 9, 1), (1, 0, 1, 9, 1), (1, 0, 1, 9, 1))
    assert three.dual(three.target_state()) == 3 == permutation_optimum(three.instance)
    assert three.dual(SmsState(0b011, 4)) == 4 + 5
    # A zero-weight job still holds the machine, but WSPT runs it last.
    zero = model_of((5, 0, 1, 20, 0), (1, 0, 1, 20, 2))
    assert zero.dual(zero.target_state()) == 0


def test_wspt_order_compares_exact_ratios():
    # p / w is 1 + 1/k for job 0 and 1 + 1/(k + 1) for job 1, one part in
    # k**2 apart, which a float quotient cannot tell apart.  Job 1 must
    # go first: the other order costs exactly 1 more, and a bound taken
    # over it would pass the optimum.  Every job is late in any order.
    k = 10**8
    assert (k + 1) / k == (k + 2) / (k + 1)
    model = model_of((k + 1, 0, 1, 3 * k, k), (k + 2, 0, 1, 3 * k, k + 1))
    assert [row[1] for row in model.table()[2]] == [1, 0]
    assert model.dual(model.target_state()) == permutation_optimum(model.instance)


def test_root_dual_exact_when_every_job_is_late():
    # With every release 0 and every due date at most the duration, every
    # job is late in any order, so tardiness is lateness and WSPT is
    # optimal: the root dual is the optimum.  Weights of 0 and tied
    # ratios included.
    rng = random.Random(41)
    for _ in range(120):
        jobs = []
        for _ in range(rng.randint(1, 7)):
            p = rng.choice((1, 2, 3, 4, 6))
            jobs.append((p, 0, rng.randint(0, p), 60, rng.randint(0, 3)))
        model = model_of(*jobs)
        assert model.dual(model.target_state()) == permutation_optimum(model.instance), jobs


def tie_prone_instance(rng):
    """An SMS draw with weights 0-3 and durations whose ratios tie often,
    windows from loose to infeasible."""
    jobs = []
    for _ in range(rng.randint(2, 7)):
        p = rng.choice((1, 2, 3, 4, 6))
        r = rng.randint(0, 12)
        d = r + p + rng.randint(-2, 8)
        deadline = max(d, r + p) + rng.randint(0, 20)
        jobs.append(SmsJob(p=p, r=r, d=d, deadline=deadline, w=rng.randint(0, 3)))
    return SmsInstance(tuple(jobs))


def test_bounds_below_oracle_with_zero_weights_and_ties():
    # Both bounds at or below the exhaustive value of every reachable
    # state; the CP one under the state's store after one pass and after
    # a fixed point, for the state and for each successor the store does
    # not veto, as the search bounds it.  Each also equals the bound
    # written out from its definition.
    rng = random.Random(43)
    checked = queue_wins = dead = 0
    for k in range(200):
        inst = random_sms_instance(rng, rng.randint(3, 7)) if k % 2 else tie_prone_instance(rng)
        model = SmsModel(inst)
        adapter = SmsAdapter(model)
        values = enumerate_state_values(model)
        for state, value in values.items():
            dp = model.dual(state)
            ests = [max(j.r, state.time) for j in inst.jobs]
            assert dp == reference_sms_bound(inst, state.unscheduled, ests, model.table()[0])
            assert dp <= value, (inst, state)
            if model.is_base(state):
                continue
            checked += 1
            separable = sum(
                j.w * max(0, max(j.r, state.time) + j.p - j.d)
                for i, j in enumerate(inst.jobs)
                if state.unscheduled >> i & 1
            )
            queue_wins += dp > separable
            dead += dp == INFINITY
            for propagate in (propagate_once, propagate_fixpoint):
                store, props = adapter.build(state)
                if not store.infeasible:
                    propagate(store, props)
                if store.infeasible:
                    assert value == INFINITY, (inst, state)
                    continue
                assert dp <= adapter.dual_cp(state, store) <= value, (inst, state)
                for _w, label, succ in model.successors(state):
                    if not adapter.is_succ_infeasible(label, succ, store):
                        assert adapter.dual_cp(succ, store) <= values[succ], (inst, state, succ)
    # 8,726 states, 5,321 where the queue term wins and 104 that only the
    # bound finds dead.
    assert checked > 8000 and queue_wins > 5000 and dead > 90, (checked, queue_wins, dead)


def test_queue_term_past_the_cost_ceiling_is_a_dead_end(tmp_path, capsys):
    # Six jobs of 5 cannot all finish by 10.  The root cut finds that
    # overload and makes the target a dead end, and the bound reads it as
    # one too: the root's WSPT sum passes the jobs' ``sum w*deadline``,
    # and its queue term, 75 * w, would pass the model's cost ceiling,
    # 60 * w, and MAX_COST with it.  Every algorithm and mode ends
    # Infeasible, also through the command line.
    w = MAX_COST // 60
    job = {"p": 5, "r": 0, "d": 5, "deadline": 10, "w": w}
    model = model_of(*[(5, 0, 5, 10, w)] * 6)
    assert model.dual(model.target_state()) == INFINITY
    for key, result in solve_all_modes(model, SmsAdapter(model)).items():
        assert (result.status, result.cost) == (SolveStatus.INFEASIBLE, None), key
    path = tmp_path / "six.json"
    path.write_text(json.dumps({"n": 6, "jobs": [job] * 6}))
    for algo in ("astar", "cabs"):
        for mode in ("off", "once", "fixpoint"):
            argv = ["solve", str(path), "--problem", "smswt", "--algo", algo]
            assert main(argv + ["--propagation", mode]) == 0
            assert json.loads(capsys.readouterr().out)["status"] == "Infeasible"


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


@pytest.mark.parametrize("knobs", [(14, 0.4, 0.05, 0.9), (16, 0.6, 0.25, 1.05), (6, 0.0, 0.5, 1.5)])
def test_generate_draws_what_the_benchmark_draws(knobs):
    # perfbench/gen.py's ``sms`` makes the same draws as ``dpcp generate``:
    # one instance from ``random.Random(seed)``, and with ``count`` > 1 the
    # k-th instance is the k-th draw from that one generator.
    gen, _workloads = load_counts().load_perfbench()
    for seed in range(30):
        one = generate_instances(SmsGeneratorConfig(*knobs, seed=seed))
        assert one == [SmsInstance.from_json(gen.sms(random.Random(seed), *knobs))], seed
        rng = random.Random(seed)
        draws = [SmsInstance.from_json(gen.sms(rng, *knobs)) for _ in range(3)]
        assert generate_instances(SmsGeneratorConfig(*knobs, seed=seed, count=3)) == draws, seed


def test_json_roundtrip():
    inst = random_sms_instance(random.Random(8), 6)
    again = SmsInstance.from_json(json.loads(json.dumps(inst.to_json())))
    assert again == inst


def test_dead_end_matches_deadline_test():
    # No successor exactly when the state is blocked or every child of the
    # unfiltered transition is, under the model's cut deadlines.
    rng = random.Random(19)
    for _ in range(40):
        inst = random_sms_instance(rng, rng.randint(2, 6))
        model = SmsModel(inst)
        deadlines = model.table()[0]
        n = inst.n
        for _ in range(20):
            mask = rng.randint(1, (1 << n) - 1)
            t = rng.randint(0, 60)
            state = SmsState(mask, t)
            blocked = sms_blocked(inst, state, deadlines) or all(
                sms_blocked(inst, SmsState(mask ^ (1 << i), max(t, job.r) + job.p), deadlines)
                for i, job in enumerate(inst.jobs)
                if mask >> i & 1
            )
            assert (model.successors(state) == []) == blocked


def latest_completions(instance: SmsInstance):
    """Each job's latest completion over every feasible job order, each
    job started at the later of the clock and its release, or None if no
    order is feasible: from the instance alone, by a recursion over order
    prefixes here."""
    jobs = instance.jobs
    latest = [None] * len(jobs)
    feasible = False

    def rec(mask, t, path):
        nonlocal feasible
        if mask == 0:
            feasible = True
            for i, f in path:
                if latest[i] is None or f > latest[i]:
                    latest[i] = f
            return
        for i, job in enumerate(jobs):
            f = max(t, job.r) + job.p
            if mask >> i & 1 and f <= job.deadline:
                rec(mask & ~(1 << i), f, path + [(i, f)])

    rec((1 << len(jobs)) - 1, 0, [])
    return latest if feasible else None


def test_cut_deadlines_hold_for_every_feasible_order():
    # The root cut, made on first use, against every feasible job order of
    # tight draws at n = 4..8: no cut deadline falls below its job's
    # latest completion, and where the cut finds no schedule (every
    # deadline below its job's earliest finish) no order is feasible.  Some
    # cut jobs end exactly at their cut deadline in some order, so a cut
    # one unit deeper on any job it moved fails here.
    cut = tight = overloaded = 0
    for n in range(4, 9):
        for seed in range(40):
            inst = generate_instances(SmsGeneratorConfig(n, 0.4, 0.05, 0.9, seed=seed))[0]
            model = SmsModel(inst)
            SmsAdapter(model)
            assert model._table is None  # set-up does not cut
            deadlines = model.table()[0]
            latest = latest_completions(inst)
            if any(deadline < job.r + job.p for deadline, job in zip(deadlines, inst.jobs)):
                assert latest is None and exact_optimum(inst) is None, inst
                assert model.successors(model.target_state()) == [], inst
                overloaded += 1
            elif latest is not None:
                for deadline, last, job in zip(deadlines, latest, inst.jobs):
                    assert last <= deadline <= job.deadline, inst
                    cut += deadline < job.deadline
                    tight += last == deadline < job.deadline
    # 47 cut jobs, 22 of them tight, and 69 overloaded draws of 200.
    assert cut > 40 and tight > 20 and overloaded > 60, (cut, tight, overloaded)


def test_dropped_children_have_no_completion():
    rng = random.Random(37)
    kept = omitted = 0
    for _ in range(30):
        inst = random_sms_instance(rng, rng.randint(3, 8))
        model = SmsModel(inst)
        deadlines = model.table()[0]

        def blocked(instance, state):
            return sms_blocked(instance, state, deadlines)

        k, o = check_dropped_children_dead(model, UnfilteredSmsModel(inst), blocked)
        kept, omitted = kept + k, omitted + o
    assert kept > 12000 and omitted > 3000, (kept, omitted)


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

