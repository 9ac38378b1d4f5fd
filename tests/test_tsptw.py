import json
import random
from pathlib import Path

import pytest

from dpcp import (
    INFINITY,
    SolveStatus,
    enumerate_state_values,
    is_finite,
    propagate_once,
)
from dpcp.parsing import ParseError
from dpcp.tsptw import (
    TsptwAdapter,
    TsptwInstance,
    TsptwModel,
    TsptwState,
    parse_matrix,
    permutation_optimum,
)

from conftest import random_tsptw_instance, solve_all_modes

DATA = Path(__file__).parent / "data"

TRIANGLE = [[0, 2, 3], [2, 0, 4], [3, 4, 0]]
WIDE = [(0, 100)] * 3


def triangle_model():
    return TsptwModel(TsptwInstance(TRIANGLE, WIDE))


def test_successors_from_depot():
    model = triangle_model()
    succs = model.successors(model.target_state())
    assert [(w, lbl, s) for w, lbl, s in succs] == [
        (2, 1, TsptwState(0b100, 1, 2)),
        (3, 2, TsptwState(0b010, 2, 3)),
    ]


def test_dead_end_when_shortest_path_misses_window():
    inst = TsptwInstance(TRIANGLE, [(0, 100), (0, 100), (0, 1)])
    model = TsptwModel(inst)
    assert model.successors(model.target_state()) == []


def test_waiting_for_release():
    inst = TsptwInstance(TRIANGLE, [(0, 100), (7, 100), (0, 100)])
    model = TsptwModel(inst)
    succs = model.successors(model.target_state())
    arrival = next(s for _w, lbl, s in succs if lbl == 1)
    assert arrival.time == 7  # waits from 2 to the release


def test_base_cost_returns_to_depot():
    model = triangle_model()
    assert model.base_cost(TsptwState(0, 1, 9)) == 2
    missing = TsptwInstance([[0, 2], [None, 0]], [(0, 9), (0, 9)])
    assert TsptwModel(missing).base_cost(TsptwState(0, 1, 3)) is INFINITY
    assert model.base_cost(TsptwState(0, 0, 0)) == 0


def test_dominates_requires_smaller_time():
    model = triangle_model()
    assert model.dominates(TsptwState(0b10, 2, 4), TsptwState(0b10, 2, 9))
    assert model.dominates(TsptwState(0b10, 2, 4), TsptwState(0b10, 2, 4))
    assert not model.dominates(TsptwState(0b10, 2, 9), TsptwState(0b10, 2, 4))


def test_dual_examples():
    model = triangle_model()
    assert model.dual(model.target_state()) == 7
    assert permutation_optimum(model.instance) == 9
    # Single remaining leg: both relaxation terms stay below the true arc.
    state = TsptwState(0, 1, 5)
    assert model.dual(state) <= model.base_cost(state)
    # Symmetric matrix: entering and leaving relaxations agree.
    inst = model.instance
    into = inst.min_to[0] + inst.min_to[1] + inst.min_to[2]
    out_of = inst.min_from[0] + inst.min_from[1] + inst.min_from[2]
    assert into == out_of == 7


def test_build_duration_domains():
    model = triangle_model()
    adapter = TsptwAdapter(model)
    store, props = adapter.build(model.target_state())
    n = 3
    assert sorted(store.domain(n + 0).values) == [2, 3]
    assert sorted(store.domain(n + 1).values) == [2, 4]
    assert sorted(store.domain(n + 2).values) == [3, 4]
    assert len(props) == 2
    assert props[1].cap is INFINITY  # no incumbent: the sum cap is vacuous


def test_build_arrival_windows_respect_time():
    inst = TsptwInstance(TRIANGLE, [(0, 100), (7, 50), (0, 60)])
    model = TsptwModel(inst)
    adapter = TsptwAdapter(model)
    store, _props = adapter.build(TsptwState(0b110, 0, 5))
    assert (store.lb(1), store.ub(1)) == (7, 50)
    assert (store.lb(2), store.ub(2)) == (5, 60)


def test_depot_leg_dropped_when_cannot_be_last():
    # Location 2 releases only after location 1's deadline, so the tour
    # cannot end at 1: its travel domain loses the depot leg value.
    inst = TsptwInstance(
        [[0, 4, 9], [7, 0, 2], [9, 3, 0]],
        [(0, 100), (0, 10), (50, 100)],
    )
    model = TsptwModel(inst)
    adapter = TsptwAdapter(model)
    store, _props = adapter.build(model.target_state())
    n = 3
    assert sorted(store.domain(n + 1).values) == [2]  # c(1,0)=7 dropped
    assert sorted(store.domain(n + 2).values) == [3, 9]


def test_depot_leg_kept_for_latest_point_window():
    # Location 2 has the latest release and a point window; nothing else
    # must follow it, so the tour may end there and keep c(2,0)=9.
    inst = TsptwInstance(
        [[0, 4, 9], [7, 0, 2], [9, 3, 0]],
        [(0, 100), (0, 50), (20, 20)],
    )
    model = TsptwModel(inst)
    adapter = TsptwAdapter(model)
    store, _props = adapter.build(model.target_state())
    n = 3
    assert sorted(store.domain(n + 2).values) == [3, 9]
    assert sorted(store.domain(n + 1).values) == [2, 7]


def test_shared_travel_value_survives_depot_drop():
    # The depot leg of location 1 is dropped, but visiting 2 costs the same
    # amount; the value must survive and the successor stays feasible.
    inst = TsptwInstance(
        [[0, 4, 9], [7, 0, 7], [9, 3, 0]],
        [(0, 100), (0, 10), (50, 100)],
    )
    model = TsptwModel(inst)
    adapter = TsptwAdapter(model)
    state = TsptwState(0b100, 1, 4)  # at 1 after visiting it, 2 pending
    store, props = adapter.build(state)
    propagate_once(store, props)
    assert store.contains(3 + 1, 7)
    assert not adapter.is_succ_infeasible(2, state, store)


def test_empty_duration_domain_flags_store():
    # Only the depot remains reachable from 1, and 1 cannot be last.
    inst = TsptwInstance(
        [[0, 4, None], [7, 0, None], [9, 3, 0]],
        [(0, 100), (0, 10), (50, 100)],
    )
    model = TsptwModel(inst)
    adapter = TsptwAdapter(model)
    store, _props = adapter.build(model.target_state())
    assert store.infeasible


def test_dual_cp_target_and_single_leg():
    model = triangle_model()
    adapter = TsptwAdapter(model)
    state = model.target_state()
    store, _props = adapter.build(state)
    assert adapter.dual_cp(state, store) == 7
    solo = TsptwState(0, 1, 5)
    store, _props = adapter.build(solo)
    assert adapter.dual_cp(solo, store) == store.lb(3 + 1)


def test_depot_drop_strictly_raises_travel_bound():
    # Dropping an unshared cheapest depot leg lifts the travel-sum bound.
    inst = TsptwInstance(
        [[0, 4, 9], [1, 0, 6], [9, 3, 0]],
        [(0, 100), (0, 10), (50, 100)],
    )
    model = TsptwModel(inst)
    adapter = TsptwAdapter(model)
    state = model.target_state()
    store, _props = adapter.build(state)
    with_drop = adapter.dual_cp(state, store)
    loose = TsptwInstance(inst.travel, [(0, 100), (0, 100), (0, 100)])
    loose_adapter = TsptwAdapter(TsptwModel(loose))
    store2, _p = loose_adapter.build(TsptwModel(loose).target_state())
    without_drop = loose_adapter.dual_cp(TsptwModel(loose).target_state(), store2)
    assert with_drop > without_drop


def test_sum_cap_prunes_expensive_travel_options():
    model = triangle_model()
    adapter = TsptwAdapter(model)
    state = model.target_state()
    store, props = adapter.build(state, g=0, primal=8)  # below the optimum 9
    propagate_once(store, props)
    # Residual budget 8 against lower bounds 2+2+3: each variable keeps
    # only values within cap minus the sum of the other minima.
    n = 3
    assert sorted(store.domain(n + 1).values) == [2]  # 4 > 8 - (2 + 3)
    assert sorted(store.domain(n + 2).values) == [3, 4]  # 4 <= 8 - (2 + 2)


def test_succ_infeasible_when_arrival_lifted_away():
    # Location 2 is pinned at [1, 1] and occupies [1, 4); location 1 cannot
    # be visited before it, so non-overlap lifts 1's arrival to 4, past the
    # direct arrival time 2: visiting 1 first is filtered.
    inst = TsptwInstance(
        [[0, 2, 1], [2, 0, 2], [3, 3, 0]],
        [(0, 100), (0, 20), (1, 1)],
    )
    model = TsptwModel(inst)
    adapter = TsptwAdapter(model)
    state = model.target_state()
    store, props = adapter.build(state)
    propagate_once(store, props)
    assert store.lb(1) == 4
    assert adapter.is_succ_infeasible(1, state, store)
    assert not adapter.is_succ_infeasible(2, state, store)
    # The filtered move is genuinely useless, the optimum visits 2 first.
    assert permutation_optimum(inst) == 6


def test_succ_infeasible_when_travel_value_pruned():
    model = triangle_model()
    adapter = TsptwAdapter(model)
    state = model.target_state()
    store, props = adapter.build(state, g=0, primal=8)
    propagate_once(store, props)
    # Leaving the depot toward 2 costs 3, pruned by the residual budget:
    # 3 > 8 - (2 + 4)? No: pruned values are per-variable uppers; check
    # the actual filter outcome against the surviving domain.
    filtered = adapter.is_succ_infeasible(2, state, store)
    assert filtered == (not store.contains(3 + 0, 3))


def test_parse_matrix_fixture_three_columns():
    inst = parse_matrix((DATA / "tiny_tsptw.txt").read_text(), "tiny_tsptw.txt")
    assert inst.n == 3
    assert inst.travel[0][1] == 2 and inst.travel[2][1] == 4
    assert inst.windows == ((0, 100), (0, 100), (0, 100))
    assert permutation_optimum(inst) == 9


def test_parse_matrix_two_columns():
    text = "2\n0 5\n5 0\n0 9\n1 8\n"
    inst = parse_matrix(text)
    assert inst.windows == ((0, 9), (1, 8))


def test_parse_matrix_rejects_fractional():
    with pytest.raises(ParseError):
        parse_matrix("2\n0 5.5\n5 0\n0 9\n0 9\n")


def test_parse_matrix_rejects_truncated():
    with pytest.raises(ParseError):
        parse_matrix("3\n0 1 2\n1 0 3\n")


def test_json_roundtrip_with_missing_arc():
    inst = TsptwInstance([[0, 2], [None, 0]], [(0, 9), (0, 9)])
    data = json.loads(json.dumps(inst.to_json()))
    again = TsptwInstance.from_json(data)
    assert again.travel == inst.travel
    assert again.windows == inst.windows


def test_instance_validation():
    with pytest.raises(ValueError):
        TsptwInstance([[0, -1], [1, 0]], [(0, 5), (0, 5)])
    with pytest.raises(ValueError):
        TsptwInstance([[0, 1], [1, 0]], [(5, 2), (0, 5)])


def test_oracle_equivalence_all_modes_small():
    rng = random.Random(33)
    for _ in range(15):
        inst = random_tsptw_instance(rng, rng.randint(3, 7))
        model = TsptwModel(inst)
        adapter = TsptwAdapter(model)
        oracle = permutation_optimum(inst)
        for (algo, mode), result in solve_all_modes(model, adapter).items():
            if is_finite(oracle):
                assert result.status is SolveStatus.OPTIMAL, (algo, mode)
                assert result.cost == oracle, (algo, mode)
            else:
                assert result.status is SolveStatus.INFEASIBLE, (algo, mode)


def test_bounds_below_oracle_values():
    rng = random.Random(37)
    for _ in range(10):
        inst = random_tsptw_instance(rng, rng.randint(3, 6))
        model = TsptwModel(inst)
        adapter = TsptwAdapter(model)
        for state, value in enumerate_state_values(model).items():
            if not is_finite(value) or model.is_base(state):
                continue
            assert model.dual(state) <= value
            store, props = adapter.build(state)
            propagate_once(store, props)
            if store.infeasible:
                continue
            assert adapter.dual_cp(state, store) <= value


def test_propagated_windows_keep_oracle_arrivals():
    # Any arrival time realised by a feasible completion must survive in
    # the propagated window of its location.
    rng = random.Random(41)
    checked = 0
    for _ in range(10):
        inst = random_tsptw_instance(rng, rng.randint(3, 6))
        model = TsptwModel(inst)
        adapter = TsptwAdapter(model)
        values = enumerate_state_values(model)
        for state, value in values.items():
            if not is_finite(value) or model.is_base(state):
                continue
            store, props = adapter.build(state)
            propagate_once(store, props)
            if store.infeasible:
                continue
            for _w, label, succ in model.successors(state):
                if is_finite(values.get(succ, INFINITY)):
                    checked += 1
                    assert store.contains(label, succ.time)
    assert checked > 50
