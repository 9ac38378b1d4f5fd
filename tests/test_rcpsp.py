import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from dpcp import (
    SolveStatus,
    astar,
    enumerate_state_values,
    evaluate_solution,
    propagate_fixpoint,
    propagate_once,
)
from dpcp.cost import MAX_COST, CostOverflow
from dpcp.parsing import ParseError
from dpcp.rcpsp import (
    RcpspAdapter,
    RcpspInstance,
    RcpspModel,
    RcpspTask,
    ordering_optimum,
    parse_psplib,
)

from conftest import (
    ReferenceRcpspModel,
    load_counts,
    one_resource_envelope,
    random_rcpsp_instance,
    rcpsp_fields,
    reference_rcpsp_dominates,
    reference_rcpsp_dual,
    solve_all_modes,
)

DATA = Path(__file__).parent / "data"


def instance_of(tasks, capacities, precedences=()):
    return RcpspInstance([RcpspTask(p, tuple(u)) for p, u in tasks], capacities, precedences)


def test_model_refuses_horizons_that_could_pass_max_cost():
    # Every time the model computes is at most twice the horizon.
    half = MAX_COST // 2
    RcpspModel(instance_of([(half - 1, [1]), (1, [1])], [1]))
    with pytest.raises(CostOverflow, match="exceeds"):
        RcpspModel(instance_of([(half, [1]), (1, [1])], [1]))


def test_earliest_time_after_resource_conflict():
    inst = instance_of([(3, (1,)), (2, (1,))], (1,))
    model = RcpspModel(inst)
    state = model.make_state((0, None), 0)
    assert model.earliest_time(state, 1) == 3


def test_earliest_time_waits_for_predecessor():
    inst = instance_of([(5, (0,)), (2, (0,))], (1,), [(0, 1)])
    model = RcpspModel(inst)
    state = model.make_state((2, None), 2)
    assert model.earliest_time(state, 1) == 7


def test_earliest_time_none_when_blocked_through_horizon():
    # Hand-built state: the running task occupies the single unit of
    # capacity past the horizon, leaving no slot for the other task.
    inst = instance_of([(5, (1,)), (3, (1,))], (1,))
    model = RcpspModel(inst)
    state = model.make_state((4, None), 4)
    assert model.earliest_time(state, 1) is None


def test_successors_single_forced_move():
    inst = instance_of([(4, (1,))], (1,))
    model = RcpspModel(inst)
    succs = model.successors(model.target_state())
    assert len(succs) == 1
    weight, label, succ = succs[0]
    assert label == 0 and succ == model.make_state((0,), 0)
    assert weight == succ.estimate - model.target_state().estimate == 0


def test_left_shift_literal_no_prune_for_simultaneous_slots():
    # Serial capacity, both candidates start at 0: neither completes by the
    # other's slot, so the pairwise test keeps both.
    inst = instance_of([(2, (1,)), (6, (1,))], (1,))
    model = RcpspModel(inst)
    labels = [lbl for _w, lbl, _s in model.successors(model.target_state())]
    assert labels == [0, 1]


def test_left_shift_prunes_delayed_candidate():
    # A zero-usage quick task fits entirely before the delayed task's slot.
    inst = instance_of([(4, (1,)), (1, (0,)), (2, (1,))], (1,))
    model = RcpspModel(inst)
    state = model.make_state((0, None, None), 0)
    labels = [lbl for _w, lbl, _s in model.successors(state)]
    assert labels == [1]
    unpruned = ReferenceRcpspModel(inst, left_shift=False)
    assert [lbl for _w, lbl, _s in unpruned.successors(state)] == [1, 2]


def test_dominates_cases():
    inst = instance_of([(3, (1,)), (2, (1,))], (2,))
    model = RcpspModel(inst)
    a = model.make_state((0, None), 4)
    b = model.make_state((0, None), 6)
    assert model.dominates(a, b)
    assert not model.dominates(b, a)
    # A still-running task that started later in the would-be dominator.
    c = model.make_state((2, None), 2)
    d = model.make_state((0, None), 3)
    assert not model.dominates(c, d)


def test_dual_matches_three_floor_reference():
    rng = random.Random(21)
    checked = 0
    for _ in range(20):
        model = ReferenceRcpspModel(random_rcpsp_instance(rng, 7), left_shift=False)
        for state in enumerate_state_values(model):
            assert model.dual(state) == reference_rcpsp_dual(model.instance, state), state
            checked += 1
    assert checked > 2000, checked


def brute_force_envelope(tasks, capacity):
    """The largest ``lb + ceil(E / capacity)`` over every non-empty set of
    ``(lb, duration, usage)`` tasks, ``lb`` its smallest and ``E`` its
    energy; 0 without tasks."""
    best = 0
    for k in range(1, len(tasks) + 1):
        for subset in combinations(tasks, k):
            energy = sum(u * p for _lb, p, u in subset)
            lo = min(lb for lb, _p, _u in subset)
            best = max(best, lo + -(-energy // capacity))
    return best


def test_floored_dual_matches_reference():
    # Precedences run between shuffled task ids, so the topological order
    # is not the id order, and few distinct floors make ties common.
    rng = random.Random(808)
    checked = positive = 0
    for _ in range(400):
        n = rng.randint(1, 7)
        caps = [rng.randint(1, 6) for _ in range(rng.randint(1, 3))]
        tasks = [(rng.randint(1, 8), [rng.randint(0, c) for c in caps]) for _ in range(n)]
        ids = rng.sample(range(n), n)
        precedences = [
            (ids[a], ids[b]) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3
        ]
        inst = instance_of(tasks, caps, precedences)
        model = RcpspModel(inst)
        for _ in range(5):
            time = rng.randint(0, 12)
            starts = [rng.randint(0, time) if rng.random() < 0.4 else None for _ in range(n)]
            state = model.make_state(starts, time)
            floor = [
                rng.randint(0, 20) if rng.random() < 0.5 else rng.choice((0, 4, 8))
                for _ in range(n)
            ]
            want = reference_rcpsp_dual(inst, state, floor)
            assert model.dual(state, floor) == want, (inst.to_json(), starts, time, floor)
            checked += 1
            positive += want > 0
    assert checked == 2000 and positive > 1000, (checked, positive)


def test_path_cost_telescopes_to_makespan():
    rng = random.Random(4)
    for _ in range(20):
        inst = random_rcpsp_instance(rng, 6)
        model = RcpspModel(inst)
        result = astar(model)
        assert result.status is SolveStatus.OPTIMAL
        cost, labels = result.incumbent
        assert evaluate_solution(model, labels) == cost
        # Replay to check the reported cost is the true schedule makespan.
        state = model.target_state()
        for label in labels:
            state = next(s for _w, lbl, s in model.successors(state) if lbl == label)
        makespan = max(
            s + inst.tasks[i].duration for i, s in enumerate(state.starts)
        )
        assert cost == makespan


def test_build_objective_and_fixed_starts():
    inst = instance_of([(3, (1,)), (2, (1,))], (2,))
    model = RcpspModel(inst)
    adapter = RcpspAdapter(model)
    state = model.make_state((3, None), 3)
    latest = inst.horizon - 2
    store, _props = adapter.build(state)
    assert (store.lbs[1], store.ubs[1]) == (3, latest)
    assert (store.lbs[0], store.ubs[0]) == (3, 3)
    assert len(store.lbs) == inst.n


def test_dual_cp_precedence_lift():
    # Unscheduled task 1 must follow the running task 0 (finish 2), so its
    # earliest finish moves to 5; estimate is 3, leaving remaining cost 2.
    inst = instance_of([(2, (0,)), (3, (0,))], (1,), [(0, 1)])
    model = RcpspModel(inst)
    adapter = RcpspAdapter(model)
    state = model.make_state((0, None), 0)
    store, props = adapter.build(state)
    propagate_once(store, props)
    assert store.lbs[1] == 2
    assert adapter.dual_cp(state, store) == 2
    values = enumerate_state_values(model)
    assert values[state] == 2


def test_dual_cp_envelope_component():
    # Envelope of the pending pair under propagated bounds matches the
    # direct computation over start lower bounds.
    inst = instance_of(
        [(4, (0, 0)), (3, (2, 0)), (2, (2, 0))], (2, 1), [(0, 2)]
    )
    model = RcpspModel(inst)
    adapter = RcpspAdapter(model)
    state = model.make_state((0, None, None), 0)
    store, props = adapter.build(state)
    propagate_fixpoint(store, props)
    pending = [1, 2]
    expected = max(
        one_resource_envelope(
            [
                (store.lbs[i], inst.tasks[i].duration, inst.tasks[i].usages[r])
                for i in pending
            ],
            cap,
        )
        for r, cap in enumerate(inst.capacities)
    )
    assert one_resource_envelope([(0, 3, 2), (4, 2, 2)], 2) == 6
    assert adapter.dual_cp(state, store) == max(
        0, expected - state.estimate
    )


def test_one_resource_envelope_examples():
    assert one_resource_envelope([(0, 3, 2)], 2) == 3
    assert one_resource_envelope([(0, 3, 2), (4, 2, 2)], 2) == 6
    assert one_resource_envelope([], 2) == 0


def test_one_resource_envelope_against_subset_brute_force():
    rng = random.Random(5)
    for _ in range(200):
        k = rng.randint(1, 8)
        tasks = [(rng.randint(0, 20), rng.randint(1, 6), rng.randint(0, 4)) for _ in range(k)]
        cap = rng.randint(1, 4)
        assert one_resource_envelope(tasks, cap) == brute_force_envelope(tasks, cap)


def test_parse_psplib_fixture():
    inst = parse_psplib((DATA / "small.sm").read_text(), "small.sm")
    assert inst.n == 4
    assert inst.capacities == (3, 2)
    assert [t.duration for t in inst.tasks] == [4, 3, 5, 2]
    assert [t.usages for t in inst.tasks] == [(2, 0), (1, 2), (1, 1), (2, 1)]
    assert inst.precedences == ((0, 2), (1, 3))


def test_parse_psplib_contracts_interior_dummies():
    text = (DATA / "small.sm").read_text().replace(
        "  4      1     5       1    1", "  4      1     0       0    0"
    )
    inst = parse_psplib(text, "small.sm")
    # Former chain 2 -> 4 -> 6 loses both dummies; 4's edges contract away.
    assert inst.n == 3
    assert [t.duration for t in inst.tasks] == [4, 3, 2]
    assert inst.precedences == ((1, 2),)


def dummy_paths(arcs, durations, a):
    """The jobs reachable from job ``a`` along ``arcs`` through
    zero-duration jobs alone, whatever their own durations, each with the
    fewest zero-duration jobs on such a path."""
    hops = {}
    frontier = [(b, 0) for b in arcs[a]]
    while frontier:
        b, k = frontier.pop()
        if b in hops and hops[b] <= k:
            continue
        hops[b] = k
        if durations[b] == 0:
            frontier.extend((c, k + 1) for c in arcs[b])
    return hops


def test_parse_psplib_contraction_matches_its_definition():
    # Real job a precedes real job b exactly when a path leads from a to b
    # through zero-duration jobs alone.  Benchmark draws, rendered as
    # PSPLIB, with random tasks set to duration 0, put dummies inside the
    # graph and in chains, next to the rendering's source and sink.
    gen, _workloads = load_counts().load_perfbench()
    rng = random.Random(67)
    chained = cycles = 0
    for k in range(150):
        doc = gen.rcpsp(random.Random(f"contraction:{k}"), 20, 2, 0.2)
        n = len(doc["tasks"])
        for i in rng.sample(range(n), rng.randint(n // 2, n - 1)):
            doc["tasks"][i]["p"] = 0
        text = gen.to_psplib_text(doc)
        # The rendering's job ids: 1 is the source, task i is i + 2, and
        # n + 2 is the sink.
        durations = {1: 0, n + 2: 0}
        durations.update((i + 2, t["p"]) for i, t in enumerate(doc["tasks"]))
        arcs = {j: [] for j in durations}
        for i, j in doc["precedences"]:
            arcs[i + 2].append(j + 2)
        for j in range(2, n + 2):
            if not any(j == b for bs in arcs.values() for b in bs):
                arcs[1].append(j)
            arcs[j] = arcs[j] or [n + 2]
        real = sorted(j for j, p in durations.items() if p > 0)
        index = {j: x for x, j in enumerate(real)}
        want = set()
        for a in real:
            for b, k_hops in dummy_paths(arcs, durations, a).items():
                if b in index:
                    want.add((index[a], index[b]))
                    chained += k_hops >= 2
        inst = parse_psplib(text, "contracted.sm")
        assert [t.duration for t in inst.tasks] == [durations[j] for j in real]
        assert set(inst.precedences) == want, k

        # An arc back from a zero-duration task to one that reaches it
        # through zero-duration tasks alone closes a cycle of dummies,
        # which contraction would drop.
        zero = [i for i, t in enumerate(doc["tasks"]) if t["p"] == 0]
        back = [
            (d, e)
            for e in zero
            for d in dummy_paths(arcs, durations, e + 2)
            if d - 2 in zero and d - 2 != e
        ]
        if back:
            d, e = rng.choice(back)
            doc["precedences"].append([d - 2, e])
            with pytest.raises(ParseError, match="precedence relations contain a cycle"):
                parse_psplib(gen.to_psplib_text(doc), "cycle.sm")
            cycles += 1
    # Many precedences pass through two dummies or more in a row, and many
    # draws close a cycle.
    assert chained > 50 and cycles > 50, (chained, cycles)


def test_json_roundtrip_and_equal_solve():
    inst = parse_psplib((DATA / "small.sm").read_text(), "small.sm")
    again = RcpspInstance.from_json(json.loads(json.dumps(inst.to_json())))
    first = astar(RcpspModel(inst))
    second = astar(RcpspModel(again))
    assert first.cost == second.cost == ordering_optimum(inst)


def test_ordering_optimum_uses_no_model_code(monkeypatch):
    inst = parse_psplib((DATA / "small.sm").read_text(), "small.sm")

    def refuse(*_args):
        raise AssertionError("the oracle called the model it checks")

    monkeypatch.setattr(RcpspModel, "earliest_time", refuse)
    monkeypatch.setattr(RcpspModel, "successors", refuse)
    assert ordering_optimum(inst) == 9


def test_repeated_precedence_pair_solves_to_the_oracle():
    # A JSON instance may list a pair twice; the successor rule must still
    # wait for the predecessor once, not read the doubled pair as another task.
    cases = [
        ([(2, [1]), (1, [1])], [[0, 1], [0, 1]]),
        ([(2, [1]), (1, [0]), (3, [1])], [[0, 2], [0, 2]]),
    ]
    for tasks, precedences in cases:
        data = {
            "tasks": [{"p": p, "u": u} for p, u in tasks],
            "capacities": [1],
            "precedences": precedences,
        }
        inst = RcpspInstance.from_json(data)
        assert inst.precedences == tuple(map(tuple, precedences))
        model = RcpspModel(inst)
        oracle = ordering_optimum(inst)
        for (algo, mode), result in solve_all_modes(model, RcpspAdapter(model)).items():
            assert result.status is SolveStatus.OPTIMAL, (algo, mode)
            assert result.cost == oracle, (algo, mode)


def test_pruning_rules_preserve_optimum():
    rng = random.Random(9)
    for _ in range(15):
        inst = random_rcpsp_instance(rng, 6)
        oracle = ordering_optimum(inst)
        for left_shift in (True, False):
            for dominance in (True, False):
                model = ReferenceRcpspModel(inst, left_shift=left_shift, dominance=dominance)
                assert astar(model).cost == oracle


def test_dominance_sound_in_path_cost_form():
    # Weights telescope against the makespan estimate, so dominance is
    # checked against estimate + remaining value rather than value alone.
    rng = random.Random(14)
    for _ in range(25):
        inst = random_rcpsp_instance(rng, 6)
        model = ReferenceRcpspModel(inst, left_shift=False)
        values = enumerate_state_values(model)
        buckets = {}
        for s in values:
            buckets.setdefault(model.state_signature(s), []).append(s)
        for states in buckets.values():
            for a in states:
                for b in states:
                    if a is not b and model.dominates(a, b):
                        assert (
                            a.estimate + values[a] <= b.estimate + values[b]
                        )


def test_dual_admissible_on_every_reachable_state():
    """At every state the unpruned model reaches, the bound is at most the
    state's exact value plain and floored by the state's own ``once`` and
    ``fixpoint`` stores, and each child that the store does not veto is
    bounded at most at its own value under that store, as the search
    bounds it.  Usages near half a capacity and dense precedences make the
    clash floor bind."""
    rng = random.Random(39)
    checked = exact = 0
    for _ in range(60):
        n = rng.randint(2, 6)
        caps = [rng.randint(1, 6) for _ in range(rng.randint(1, 3))]
        tasks = [(rng.randint(1, 6), [rng.randint(0, c) for c in caps]) for _ in range(n)]
        ids = rng.sample(range(n), n)
        density = rng.uniform(0, 0.6)
        precedences = [
            (ids[a], ids[b]) for a in range(n) for b in range(a + 1, n) if rng.random() < density
        ]
        model = ReferenceRcpspModel(instance_of(tasks, caps, precedences), left_shift=False)
        adapter = RcpspAdapter(model)
        values = enumerate_state_values(model)
        for state, value in values.items():
            if model.is_base(state):
                continue
            bound = model.dual(state)
            assert bound <= value, (tasks, caps, precedences, state)
            exact += bound == value
            checked += 1
            for propagate in (propagate_once, propagate_fixpoint):
                store, props = adapter.build(state)
                propagate(store, props)
                if store.infeasible:
                    continue
                assert model.dual(state, store.lbs) <= value, (tasks, caps, precedences, state)
                for _w, label, child in model.successors(state):
                    if not adapter.is_succ_infeasible(label, child, store):
                        assert model.dual(child, store.lbs) <= values[child], (state, child)
    assert checked > 3000 and exact > checked // 2, (checked, exact)


def carried_field_cases(seed, count):
    """``(instance, model, states)`` for random instances of up to 7 tasks,
    each under the search's model and under the unpruned reference, whose
    enumeration reaches every ordering."""
    rng = random.Random(seed)
    for _ in range(count):
        inst = random_rcpsp_instance(rng, 7)
        for model in (RcpspModel(inst), ReferenceRcpspModel(inst, left_shift=False)):
            yield inst, model, list(enumerate_state_values(model))


def test_carried_fields_match_a_scan_of_the_starts():
    checked = 0
    for inst, model, states in carried_field_cases(31, 25):
        for state in states:
            assert (state.scheduled, state.running, state.estimate) == rcpsp_fields(
                inst, state
            ), state
            assert model.state_signature(state) == state.scheduled
            assert model.make_state(state.starts, state.time) == state
            checked += 1
    assert checked > 3000, checked


def test_make_state_refuses_a_start_after_the_clock():
    model = RcpspModel(instance_of([(3, (1,)), (2, (1,))], (2,)))
    with pytest.raises(ValueError, match="after the state's time"):
        model.make_state((4, None), 3)


def test_dominates_matches_full_scan_on_every_same_signature_pair():
    checked = dominated = 0
    for inst, model, states in carried_field_cases(33, 25):
        buckets = {}
        for state in states:
            buckets.setdefault(state.scheduled, []).append(state)
        for bucket in buckets.values():
            for a in bucket:
                for b in bucket:
                    got = model.dominates(a, b)
                    assert got == reference_rcpsp_dominates(inst, a, b), (a, b)
                    checked += 1
                    dominated += got and a != b
    assert checked > 20000 and dominated > 1000, (checked, dominated)


def test_successors_match_pairwise_left_shift():
    # The unpruned successors less every candidate that some other
    # candidate finishes by the time it starts.
    checked = pruned = 0
    for inst, model, states in carried_field_cases(35, 25):
        search_model = RcpspModel(inst)
        unpruned = ReferenceRcpspModel(inst, left_shift=False)
        for state in states:
            every = unpruned.successors(state)
            expected = [
                (w, label, succ)
                for w, label, succ in every
                if not any(
                    other != label and o.time + inst.tasks[other].duration <= succ.time
                    for _w, other, o in every
                )
            ]
            assert search_model.successors(state) == expected, state
            checked += 1
            pruned += len(every) - len(expected)
    assert checked > 2500 and pruned > 250, (checked, pruned)
