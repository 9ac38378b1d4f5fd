import json
import random
from pathlib import Path

import pytest

from dpcp import (
    INFINITY,
    PropagationMode,
    Registry,
    SearchNode,
    SolveLimits,
    SolveStatus,
    brute_force_value,
    enumerate_state_values,
    is_finite,
    propagate_fixpoint,
    propagate_once,
)
from dpcp.cli import main
from dpcp.core import iter_bits
from dpcp.cost import MAX_COST, CostOverflow
from dpcp.search import _SolveContext, astar, cabs
from dpcp.tsptw import (
    TsptwAdapter,
    TsptwInstance,
    TsptwModel,
    TsptwState,
    parse_matrix,
    permutation_optimum,
)

from conftest import (
    UnfilteredTsptwModel,
    check_dropped_children_dead,
    random_tsptw_instance,
    solve_all_modes,
    tsptw_blocked,
    tsptw_min_to,
    tsptw_shortest,
    vetoed,
)

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


def test_model_refuses_tours_that_could_pass_max_cost():
    # Seven legs of MAX_COST // 7 reach MAX_COST exactly: 7 divides 2**63 - 1.
    leg = MAX_COST // 7
    assert 7 * leg == MAX_COST
    windows = [(0, 10**30)] * 7
    TsptwModel(TsptwInstance([[leg] * 7 for _ in range(7)], windows))
    longer = [[leg] * 7 for _ in range(7)]
    longer[3][5] = leg + 1
    with pytest.raises(CostOverflow, match="exceeds"):
        TsptwModel(TsptwInstance(longer, windows))


def four_locations(leg):
    """Locations 2 and 3 are entered only from 1, which leaves for the
    depot free of travel; 0, 2 and 3 leave only for 1.  No tour exists,
    yet no location is stranded, and every row and column of the target's
    arcs has an entry."""
    travel = [[None, leg, None, None], [0, None, leg, leg], [None, leg, None, None], [None, leg, None, None]]
    return TsptwInstance(travel, [(0, 10**30)] * 4)


def test_bound_above_the_dearest_completion_proves_none():
    # Rows: u = (leg, 0, leg, leg).  Columns: 1 is entered from 0, 2 or 3
    # at reduced cost 0, 2 and 3 only from 1 at leg - 0, the depot from 1
    # at 0.  So the reduction reads 5 * leg at the target, above the
    # 4 * leg that a completion of its four locations could cost at most:
    # the dual is INFINITY.  Were it 5 * leg, then at leg = MAX_COST // 4,
    # which the ceiling of n times the longest arc accepts, the root's f
    # would pass MAX_COST and the solve would raise CostOverflow; every
    # algorithm and mode proves the instance infeasible instead.
    model = TsptwModel(four_locations(1))
    target = model.target_state()
    assert reference_leave_costs(model.instance, target) == [(0, 1), (1, 0), (2, 1), (3, 1)]
    assert model.dual(target) == reference_dual(model, target) == INFINITY
    assert permutation_optimum(model.instance) == INFINITY
    model = TsptwModel(four_locations(MAX_COST // 4))
    assert model.dual(model.target_state()) == INFINITY
    for key, result in solve_all_modes(model, TsptwAdapter(model)).items():
        assert result.status is SolveStatus.INFEASIBLE, key


def test_base_cost_returns_to_depot():
    model = triangle_model()
    assert model.base_cost(TsptwState(0, 1, 9)) == 2
    missing = TsptwInstance([[0, 2], [None, 0]], [(0, 9), (0, 9)])
    assert TsptwModel(missing).base_cost(TsptwState(0, 1, 3)) == INFINITY
    assert model.base_cost(TsptwState(0, 0, 0)) == 0


def test_dominates_requires_smaller_time():
    model = triangle_model()
    assert model.dominates(TsptwState(0b10, 2, 4), TsptwState(0b10, 2, 9))
    assert model.dominates(TsptwState(0b10, 2, 4), TsptwState(0b10, 2, 4))
    assert not model.dominates(TsptwState(0b10, 2, 9), TsptwState(0b10, 2, 4))


def test_dual_examples():
    # TRIANGLE, wide windows, at the target (U = {1, 2}, here the depot).
    # Rows, the cheapest arc out of each location of M in A: the depot
    # leaves only for U while U is non-empty, u_0 = min(c01, c02) = 2;
    # 1 and 2 may each be last, u_1 = min(c12, c10) = min(4, 2) = 2 and
    # u_2 = min(c21, c20) = min(4, 3) = 3.  Columns, the least c_sj - u_s:
    # v_1 = min(c01 - u_0, c21 - u_2) = min(0, 1) = 0,
    # v_2 = min(c02 - u_0, c12 - u_1) = min(1, 2) = 1, and the depot
    # v_0 = min(c10 - u_1, c20 - u_2) = min(0, 0) = 0.  So the bound is
    # 2 + 2 + 3 + 1 = 8, above the leave sum 7, and below the optimum 9
    # (0 -> 1 -> 2 -> 0).
    model = triangle_model()
    target = model.target_state()
    assert reference_leave_costs(model.instance, target) == [(0, 2), (1, 2), (2, 3)]
    assert model.dual(target) == reference_dual(model, target) == 8
    assert separate_leave_dual(model.instance, target) == 7
    assert permutation_optimum(model.instance) == 9
    # min_to, each location's cheapest arc in from any source: the column
    # minima of the whole matrix, 2 + 2 + 3 = 7, below the reduction.
    inst = model.instance
    assert sum(tsptw_min_to(inst)) == 7
    # At 1 with only 2 left (clock 2): here leaves for U alone, u_1 =
    # c12 = 4 (the depot leg c10 = 2 counted while here could target the
    # depot), and 2 only for the depot, u_2 = c20 = 3.  v_2 = c12 - u_1 =
    # 0 and v_0 = c20 - u_2 = 0, so the bound is 7, the cost of the one
    # completion 1 -> 2 -> 0; the leave terms taken apart, where here may
    # still target the depot, read 2 + 3.
    state = TsptwState(0b100, 1, 2)
    assert reference_leave_costs(inst, state) == [(1, 4), (2, 3)]
    assert model.dual(state) == 7
    assert separate_leave_dual(model.instance, state) == 5
    # Single remaining leg: the bound is that leg, back to the depot.
    state = TsptwState(0, 1, 5)
    assert reference_leave_costs(inst, state) == [(1, 2)]
    assert model.dual(state) == model.base_cost(state) == 2


def test_depot_only_instance_has_zero_dual():
    # The one-location tour is finished at the target: it enters and
    # leaves nothing, and the instance has no arc to take a minimum over.
    # No search asks for its assignment, as the target is a base state.
    model = TsptwModel(TsptwInstance.from_json({"n": 1, "c": [[None]], "windows": [[0, 5]]}))
    target = model.target_state()
    assert model.dual(target) <= brute_force_value(model, target) == 0
    assert model.assignment(target) == (0, [0], [0])
    for key, result in solve_all_modes(model, TsptwAdapter(model)).items():
        assert result.status is SolveStatus.OPTIMAL, key
        assert result.root_dual == result.cost == 0, key


def leave_time(inst, s, t):
    """The earliest time a completion leaves location ``s`` at clock ``t``:
    the depot's release does not hold, as a tour leaves it at time 0."""
    return t if s == 0 else max(t, inst.windows[s][0])


def members(mask, n):
    """The locations whose bits ``mask`` holds, ascending."""
    return [k for k in range(n) if mask >> k & 1]


def completion_arcs(inst, state):
    """A, listed from its definition: ``(s, j, c)`` for each arc that some
    completion of ``state`` may still take.  M is the unvisited set U plus
    the current location, and ``s`` in M is left no earlier than
    ``leave_time``.  An arc into ``j`` in U leaves M and reaches ``j`` by
    its deadline.  An arc into the depot leaves a location that may be
    last: here once U is empty, or a location ``s`` of U that each other
    location of U, reached at its earliest, may precede, its cheapest arc
    in (``min_to[s]``) still in time for ``s``."""
    t = state.time
    unvisited = members(state.unvisited, inst.n)
    arrival = {k: max(t, inst.windows[k][0]) for k in unvisited}
    min_to = tsptw_min_to(inst)
    arcs = []
    for s in unvisited + [state.location]:
        if s == state.location:
            may_be_last = not unvisited
        else:
            d = inst.windows[s][1]
            may_be_last = all(arrival[k] + min_to[s] <= d for k in unvisited if k != s)
        for j, c in enumerate(inst.travel[s]):
            if c is None:
                continue
            if j in arrival and leave_time(inst, s, t) + c <= inst.windows[j][1]:
                arcs.append((s, j, c))
            elif j == 0 and may_be_last:
                arcs.append((s, j, c))
    return arcs


def reference_leave_costs(inst, state):
    """``(s, u_s)`` for each ``s`` in M, ascending, where ``u_s`` is the
    cheapest arc out of ``s`` in A (its row minimum); None if a row of A
    is empty."""
    arcs = completion_arcs(inst, state)
    items = []
    for s in members(state.unvisited | 1 << state.location, inst.n):
        row = [c for tail, _j, c in arcs if tail == s]
        if not row:
            return None
        items.append((s, min(row)))
    return items


def reference_dual(model, state):
    """The bound taken afresh for one state: reduce A's rows, then its
    columns.  ``v_j`` is the least ``c_sj - u_s`` over the arcs into ``j``
    (U and the depot), and the bound is ``sum(u) + sum(v)``; ``INFINITY``
    if a row or a column of A is empty, or if the reduction passes |M|
    times the longest arc, the most a completion can cost."""
    inst = model.instance
    if state.unvisited == 0 and state.location == 0:
        return 0
    items = reference_leave_costs(inst, state)
    if items is None:
        return INFINITY
    u = dict(items)
    arcs = completion_arcs(inst, state)
    reduced = 0
    for j in members(state.unvisited, inst.n) + [0]:
        column = [c - u[s] for s, head, c in arcs if head == j]
        if not column:
            return INFINITY
        reduced += min(column)
    longest = max((c for row in inst.travel for c in row if c is not None), default=0)
    bound = sum(u.values()) + reduced
    return INFINITY if bound > len(u) * longest else bound


def separate_leave_dual(inst, state):
    """The leave sum taken apart, the row half of the bound before the
    reduction: the cheapest arc out of each location in M that stays in
    time, summed, where every location, here included, may target the
    depot when each location of U, reached at its earliest, may precede
    it by its cheapest arc in; ``INFINITY`` if one location has none."""
    if state.unvisited == 0 and state.location == 0:
        return 0
    t = state.time
    arrival = {j: max(t, inst.windows[j][0]) for j in iter_bits(state.unvisited)}
    min_to = tsptw_min_to(inst)
    total = 0
    for i in iter_bits(state.unvisited | 1 << state.location):
        a, d = leave_time(inst, i, t), inst.windows[i][1]
        may_be_last = all(arrival[k] + min_to[i] <= d for k in arrival if k != i)
        costs = [
            c
            for j, c in enumerate(inst.travel[i])
            if c is not None
            and ((j in arrival and a + c <= inst.windows[j][1]) or (j == 0 and may_be_last))
        ]
        if not costs:
            return INFINITY
        total += min(costs)
    return total


def without_arcs(travel, arcs):
    return [[None if (i, j) in arcs else c for j, c in enumerate(row)] for i, row in enumerate(travel)]


def test_dropped_children_have_no_completion():
    # Narrow and wide windows, and an instance where location 4 has no
    # outgoing arc, so no path leads from it to any other location.
    rng = random.Random(41)
    instances = [random_tsptw_instance(rng, rng.randint(3, 8)) for _ in range(25)]
    instances += [random_tsptw_instance(rng, rng.randint(3, 8), widths=(30, 80)) for _ in range(15)]
    travel = [[None, 3, 4, 2, 6], [5, None, 2, 6, 1], [7, 1, None, 3, 2],
              [2, 4, 5, None, 3], [4, 2, 6, 1, None]]
    instances.append(TsptwInstance(without_arcs(travel, {(4, j) for j in range(5)}), [(0, 100)] * 5))
    assert tsptw_shortest(instances[-1])[4][1] is None
    kept = omitted = 0
    for inst in instances:
        k, o = check_dropped_children_dead(TsptwModel(inst), UnfilteredTsptwModel(inst), tsptw_blocked)
        kept, omitted = kept + k, omitted + o
    assert kept > 2500 and omitted > 800, (kept, omitted)


def test_successors_on_hand_built_states():
    # Any valid state, reachable or not: an unvisited set without the depot
    # or the current location, any location and any clock, on instances
    # with missing arcs and on one where no path reaches location 2.  The
    # children must be the unfiltered ones less the blocked, so a blocked
    # state, whose unfiltered transition is empty, has none, also where
    # some direct arc from it reaches its location in time.
    rng = random.Random(34)
    instances = []
    for _ in range(60):
        inst = random_tsptw_instance(rng, rng.randint(2, 9), widths=rng.choice([(8, 30), (30, 80)]))
        cut = {(i, j) for i in range(inst.n) for j in range(inst.n) if rng.random() < 0.15}
        instances.append(TsptwInstance(without_arcs(inst.travel, cut), inst.windows))
    travel = [[None, 3, 4, 2, 6], [5, None, 2, 6, 1], [7, 1, None, 3, 2],
              [2, 4, 5, None, 3], [4, 2, 6, 1, None]]
    instances.append(TsptwInstance(without_arcs(travel, {(i, 2) for i in range(5)}), [(0, 100)] * 5))
    assert tsptw_shortest(instances[-1])[0][2] is None
    blocked = blocked_with_moves = kept = dropped = 0
    for inst in instances:
        model, unfiltered = TsptwModel(inst), UnfilteredTsptwModel(inst)
        horizon = max(d for _r, d in inst.windows[1:])
        for _ in range(400):
            here = rng.randrange(inst.n)
            mask = sum(1 << k for k in range(1, inst.n) if k != here and rng.random() < 0.5)
            state = TsptwState(mask, here, rng.randint(0, horizon))
            children = unfiltered.successors(state)
            expected = [c for c in children if not tsptw_blocked(inst, c[2])]
            assert model.successors(state) == expected, (inst.to_json(), state)
            if tsptw_blocked(inst, state):
                blocked += 1
                arcs = inst.travel[here]
                blocked_with_moves += any(
                    arcs[j] is not None and state.time + arcs[j] <= inst.windows[j][1]
                    for j in iter_bits(mask)
                )
            kept += len(expected)
            dropped += len(children) - len(expected)
    counts = (blocked, blocked_with_moves, kept, dropped)
    assert blocked > 8000 and blocked_with_moves > 3000 and kept > 10000 and dropped > 3500, counts


def test_dual_matches_per_state_sum():
    # Taken in the search's order, a state and then each of its successors
    # (a dual that kept a memo across them would go stale), every value must
    # equal the bound taken afresh, with each leave cost found by scanning
    # its whole row and each column term its whole column, also where a
    # cheapest arc is INFINITY or missing.
    rng = random.Random(131)
    instances = [random_tsptw_instance(rng, rng.randint(3, 7)) for _ in range(30)]
    travel = [[None, 3, 4, 2, 6], [5, None, 2, 6, 1], [7, 1, None, 3, 2],
              [2, 4, 5, None, 3], [4, 2, 6, 1, None]]
    windows = [(0, 100)] * 5
    cut = {
        "location 2 has no incoming arc": {(i, 2) for i in range(5)},
        "the depot has no incoming arc": {(i, 0) for i in range(5)},
        "location 3 has no outgoing arc": {(3, j) for j in range(5)},
    }
    for arcs in cut.values():
        instances.append(TsptwInstance(without_arcs(travel, arcs), windows))
    no_entry, no_depot_entry, no_exit = instances[-3:]
    assert tsptw_min_to(no_entry)[2] == tsptw_min_to(no_depot_entry)[0] == INFINITY
    target = TsptwModel(no_exit).target_state()
    assert reference_leave_costs(no_exit, target) is None
    assert TsptwModel(no_exit).dual(target) == INFINITY
    checked = infinite = 0
    for inst in instances:
        model = TsptwModel(inst)
        for state in enumerate_state_values(model):
            for bounded in [state] + [succ for _w, _l, succ in model.successors(state)]:
                value = model.dual(bounded)
                assert value == reference_dual(model, bounded), bounded
                checked += 1
                infinite += not is_finite(value)
    assert checked > 500 and infinite > 100, (checked, infinite)


def test_dual_and_leave_costs_on_hand_built_states():
    # Any valid state, reachable or not: an unvisited set without the depot
    # or the current location, any location, and a clock up to past the
    # horizon.  The instances have removed and zero-travel arcs, arcs that
    # no arrival can take (``r_i + c > d_j``), arcs that meet their head's
    # deadline exactly from the tail's release (``r_i + c == d_j``), on
    # every fourth a location with no exit, and on every other a depot
    # deadline.  Every dual must equal the one found by scanning whole
    # rows and columns, so a table that keeps out one arc that some arrival
    # can take fails here; the floors make sure that such arcs decide some
    # states' row minima (the reference's leave costs).
    rng = random.Random(38)
    none = late = exact = 0
    for k in range(120):
        n = rng.randint(2, 9)
        inst = random_tsptw_instance(rng, n, widths=rng.choice([(0, 20), (8, 30), (30, 80)]))
        windows = list(inst.windows)
        if k % 2:
            windows[0] = (0, rng.randint(10, 80))
        travel = [list(row) for row in inst.travel]
        for row in travel:  # about 15% of the arcs removed and 10% free
            for j, c in enumerate(row):
                if c is not None and rng.random() < 0.25:
                    row[j] = None if rng.random() < 0.6 else 0
        for _ in range(n * n):
            i, j = rng.sample(range(n), 2)
            if j and 0 <= windows[j][1] - windows[i][0] <= 20:
                travel[i][j] = windows[j][1] - windows[i][0]
        if k % 4 == 0:
            travel[rng.randrange(n)] = [None] * n
        inst = TsptwInstance(travel, windows)
        model = TsptwModel(inst)
        # Locations whose cheapest arc no arrival can take.
        unusable = set()
        for i, row in enumerate(travel):
            c, j = min(((c, j) for j, c in enumerate(row) if c is not None), default=(0, 0))
            if j and windows[i][0] + c > windows[j][1]:
                unusable.add(i)
        horizon = max(d for _r, d in windows)
        for _ in range(300):
            here = rng.randrange(n)
            mask = sum(1 << j for j in range(1, n) if j != here and rng.random() < 0.5)
            state = TsptwState(mask, here, rng.randint(0, horizon + 20))
            items = reference_leave_costs(inst, state)
            assert model.dual(state) == reference_dual(model, state), (inst.to_json(), state)
            if items is None:
                none += 1
                continue
            late += any(i in unusable for i, _c in items)
            exact += any(
                state.time <= windows[i][0] and windows[i][0] + c == windows[j][1]
                for i, c in items
                for j in iter_bits(mask)
                if travel[i][j] == c
            )
    assert none > 15000 and late > 2000 and exact > 1000, (none, late, exact)


def reference_assignment(inst, state):
    """The exact bound from its definition: the least cost of a perfect
    matching of M onto U and the depot over the arcs of A, found by
    assigning M's rows to columns one at a time over every subset of the
    columns used; ``INFINITY`` where there is none, or where it passes
    |M| times the longest arc."""
    if state.unvisited == 0 and state.location == 0:
        return 0
    rows = members(state.unvisited | 1 << state.location, inst.n)
    cols = members(state.unvisited, inst.n) + [0]
    cost = {(s, j): c for s, j, c in completion_arcs(inst, state)}
    best = {0: 0}  # columns used -> least cost of the rows so far
    for s in rows:
        nxt = {}
        for used, acc in best.items():
            for k, j in enumerate(cols):
                if not used >> k & 1 and (s, j) in cost:
                    key, value = used | 1 << k, acc + cost[s, j]
                    if value < nxt.get(key, INFINITY):
                        nxt[key] = value
        best = nxt
    value = best.get((1 << len(cols)) - 1, INFINITY)
    longest = max((c for row in inst.travel for c in row if c is not None), default=0)
    return INFINITY if value > len(rows) * longest else value


def test_assignment_matches_definition():
    # On every enumerated state and each of its successors, ``assignment``
    # is the least-cost matching, never below ``dual`` and never above the
    # exhaustive value.  The draws have missing and free arcs, so the
    # exact solve finds no matching on some states and passes the dual's
    # reduction on others.
    rng = random.Random(45)
    checked = above = infinite = 0
    for _ in range(120):
        inst = with_zero_arcs(rng, random_tsptw_instance(rng, rng.randint(3, 7)))
        model = TsptwModel(inst)
        exhaustive = enumerate_state_values(model)
        for state in exhaustive:
            for bounded in [state] + [succ for _w, _l, succ in model.successors(state)]:
                plain = model.dual(bounded)
                value = model.assignment(bounded)[0]
                assert value == reference_assignment(inst, bounded), bounded
                assert plain <= value <= exhaustive[bounded], bounded
                checked += 1
                above += value > plain
                infinite += not is_finite(value)
    assert checked > 3000 and above > 300 and infinite > 300, (checked, above, infinite)


def test_depot_leg_dropped_when_cannot_be_last():
    # Location 2 releases only after location 1's deadline, so the tour
    # cannot end at 1: its leave cost skips the cheaper depot leg.
    inst = TsptwInstance(
        [[0, 4, 9], [1, 0, 2], [1, 3, 0]],
        [(0, 100), (0, 10), (50, 100)],
    )
    model = TsptwModel(inst)
    target = model.target_state()
    costs = dict(reference_leave_costs(inst, target))
    assert costs[1] == 2  # c(1,0)=1 dropped
    assert costs[2] == 1  # c(2,0)=1 kept
    assert model.dual(target) == reference_dual(model, target)
    # Without the arc 1 -> 2, 1's row is empty: the dual and the CP dual
    # prove the target dead, where a kept depot leg would read finite.
    cut = TsptwModel(TsptwInstance(without_arcs(inst.travel, {(1, 2)}), inst.windows))
    assert reference_leave_costs(cut.instance, target) is None
    assert cut.dual(target) == INFINITY
    store, _props = TsptwAdapter(cut).build(target)
    assert TsptwAdapter(cut).dual_cp(target, store) == INFINITY


def test_depot_leg_kept_for_latest_point_window():
    # Location 2 has the latest release and a point window; nothing else
    # must follow it, so the tour may end there and keep c(2,0)=1.
    inst = TsptwInstance(
        [[0, 4, 9], [1, 0, 2], [1, 3, 0]],
        [(0, 100), (0, 50), (20, 20)],
    )
    model = TsptwModel(inst)
    target = model.target_state()
    costs = dict(reference_leave_costs(inst, target))
    assert costs[2] == 1
    assert costs[1] == 1
    assert model.dual(target) == reference_dual(model, target)
    # Without the arc 2 -> 1, the depot leg is 2's one arc, and the tour
    # 0 -> 1 -> 2 -> 0 (4 + 2 + 1) remains: a dropped leg would read INFINITY.
    cut = TsptwModel(TsptwInstance(without_arcs(inst.travel, {(2, 1)}), inst.windows))
    assert reference_leave_costs(cut.instance, target) == [(0, 4), (1, 1), (2, 1)]
    assert cut.dual(target) == reference_dual(cut, target) <= permutation_optimum(cut.instance) == 7


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
    assert dict(reference_leave_costs(inst, state))[1] == 7
    assert model.dual(state) == reference_dual(model, state)
    store, props = adapter.build(state)
    propagate_once(store, props)
    assert not store.infeasible
    assert not vetoed(adapter, state, 2, store)


def test_dual_cp_target_and_single_leg():
    # The CP dual solves the model's relaxation exactly.  At the target,
    # A (test_dual_examples) has no arc from a location to itself and none
    # from the depot to the depot, so the only perfect matchings of
    # M = {0, 1, 2} onto {1, 2, depot} are 0 -> 1, 1 -> 2, 2 -> 0
    # (2 + 4 + 3) and 0 -> 2, 2 -> 1, 1 -> 0 (3 + 4 + 2): 9, the optimum,
    # above the reduction's 8.  On a single remaining leg, both bounds are
    # that leg.
    model = triangle_model()
    adapter = TsptwAdapter(model)
    for state, bound, exact in ((model.target_state(), 8, 9), (TsptwState(0, 1, 5), 2, 2)):
        store, props = adapter.build(state)
        assert model.dual(state) == bound
        assert adapter.dual_cp(state, store) == exact


def test_depot_drop_strictly_raises_travel_bound():
    # Dropping an unshared cheapest depot leg lifts the leave sum, and so
    # the dual, above the sum of each location's cheapest arc in: location
    # 1 must leave by c(1,2)=6, not by the depot leg c(1,0)=1.  With wide
    # windows both legs count.
    inst = TsptwInstance(
        [[0, 4, 9], [1, 0, 6], [9, 3, 0]],
        [(0, 100), (0, 10), (50, 100)],
    )
    model = TsptwModel(inst)
    target = model.target_state()
    assert dict(reference_leave_costs(inst, target))[1] == 6
    assert model.dual(target) == 4 + 6 + 9 > sum(tsptw_min_to(inst)) == 10
    loose = TsptwModel(TsptwInstance(inst.travel, [(0, 100), (0, 100), (0, 100)]))
    assert dict(reference_leave_costs(loose.instance, target))[1] == 1
    assert model.dual(target) > loose.dual(target)


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


def test_json_roundtrip_with_missing_arc():
    inst = TsptwInstance([[0, 2], [None, 0]], [(0, 9), (0, 9)])
    data = json.loads(json.dumps(inst.to_json()))
    again = TsptwInstance.from_json(data)
    assert again.travel == inst.travel
    assert again.windows == inst.windows


def test_state_signature_is_one_int_per_unvisited_set_and_location():
    model = TsptwModel(random_tsptw_instance(random.Random(5), 6, widths=(40, 90)))
    states, frontier = set(), [model.target_state()]
    while frontier:
        states.update(frontier)
        frontier = [s for state in frontier for _w, _l, s in model.successors(state)]
    pairs = {}
    for state in states:
        pairs.setdefault(model.state_signature(state), set()).add((state.unvisited, state.location))
    assert all(type(sig) is int and len(p) == 1 for sig, p in pairs.items())
    assert len(pairs) == len({(s.unvisited, s.location) for s in states}) > 20


def test_instance_numbers_must_be_integers():
    # JSON text and the matrix format reject a fraction before the instance
    # sees it (the rejection tables in test_cli.py); a Python caller's float
    # reaches it.
    with pytest.raises(ValueError, match="travel time must be an integer, got 1.5"):
        TsptwInstance([[0, 1.5], [1, 0]], [(0, 5), (0, 5)])


def varied_tsptw_instances(rng, count):
    """Instances at n = 3-8 with narrow, mid and wide windows; every other
    one has a depot deadline of 20-80, which the tour's last leg may
    pass: neither the cost nor the oracles test it."""
    out = []
    for k in range(count):
        widths = ((2, 10), (8, 30), (30, 90))[k % 3]
        inst = random_tsptw_instance(rng, rng.randint(3, 8), widths=widths)
        if k % 2:
            windows = [(0, rng.randint(20, 80))] + list(inst.windows[1:])
            inst = TsptwInstance(inst.travel, windows)
        out.append(inst)
    return out


def with_zero_arcs(rng, inst, share=0.3):
    """``inst`` with about ``share`` of its arcs made free of travel."""
    travel = [[c if c is None or rng.random() >= share else 0 for c in row] for row in inst.travel]
    return TsptwInstance(travel, inst.windows)


# Zero travel lets location 1 follow location 2 at 2's release, which is
# 1's deadline: the tour 0 -> 2 -> 1 -> 0 costs 6, and 1 may be last.
ZERO_TRAVEL_LAST = TsptwInstance(
    [[None, 0, 5], [1, None, 50], [100, 0, None]],
    [(0, 600), (0, 5), (5, 10)],
)


def test_dual_admissible_on_every_state():
    rng = random.Random(71)
    instances = varied_tsptw_instances(rng, 150)
    zeros = [ZERO_TRAVEL_LAST] + [with_zero_arcs(rng, i) for i in varied_tsptw_instances(rng, 60)]
    checked = late = 0
    for inst in instances + zeros:
        model = TsptwModel(inst)
        values = enumerate_state_values(model)
        for state, value in values.items():
            if model.is_base(state):
                continue
            assert model.dual(state) <= value, (inst.to_json(), state)
            checked += 1
        best = permutation_optimum(inst)
        late += is_finite(best) and any(
            is_finite(v) and model.is_base(s) and s.time + v > inst.windows[0][1]
            for s, v in values.items()
        )
    # Tours that return after the depot's deadline still count.
    assert checked > 8000 and late > 20, (checked, late)
    model = TsptwModel(ZERO_TRAVEL_LAST)
    assert model.dual(model.target_state()) <= permutation_optimum(ZERO_TRAVEL_LAST) == 6
    for key, result in solve_all_modes(model, TsptwAdapter(model)).items():
        assert result.cost == result.root_dual == 6, key


def test_dual_dominates_separate_leave_bound():
    # Each row term is at least its location's separate leave term, as A
    # keeps no arc that the separate leave terms drop (here no longer
    # targets the depot while U is non-empty), and each column term is
    # at least 0.  So the dual is never below the leave sum taken apart,
    # and above it on over a quarter of the states checked (8,453 of
    # 12,474 here): the enumerated states and copies of them at later
    # clocks, where fewer arcs stay in time.
    rng = random.Random(89)
    checked = above = 0
    for inst in varied_tsptw_instances(rng, 120):
        model = TsptwModel(inst)
        states = [s for s in enumerate_state_values(model) if not model.is_base(s)]
        for state in states + [s._replace(time=s.time + rng.randint(0, 30)) for s in states]:
            old = separate_leave_dual(inst, state)
            value = model.dual(state)
            assert value >= old, (inst.to_json(), state)
            checked += 1
            above += value > old
    assert checked > 12000 and above > checked // 4, (checked, above)


def depot_release_instances(rng, count):
    """``varied_tsptw_instances`` with the depot released at 1-60."""
    out = []
    for inst in varied_tsptw_instances(rng, count):
        d = inst.windows[0][1]
        windows = [(rng.randint(1, min(60, d)), d)] + list(inst.windows[1:])
        out.append(TsptwInstance(inst.travel, windows))
    return out


def test_depot_release_does_not_delay_the_tour():
    # A tour leaves the depot at time 0, whatever the depot's release.
    # Every algorithm and mode must agree with the oracle on draws whose
    # depot release keeps out of time some arc from the depot that a tour
    # leaving at 0 takes in time (depot_release_tsptw.txt is a row of the
    # fixture table in test_cli.py).  Below, the depot, released at 50 and
    # due at 52, is left at 0 for location 1, reached at 45.  A tour that
    # started at the depot's release would reach location 1 at 95, past
    # its deadline 60, and read the root infeasible.
    model = TsptwModel(TsptwInstance([[None, 45], [10, None]], [(50, 52), (45, 60)]))
    for key, result in solve_all_modes(model, TsptwAdapter(model)).items():
        assert (result.status, result.cost, result.root_dual) == (SolveStatus.OPTIMAL, 55, 55), key
    rng = random.Random(83)
    solved = late = 0
    for inst in depot_release_instances(rng, 80):
        model = TsptwModel(inst)
        oracle = permutation_optimum(inst)
        for key, result in solve_all_modes(model, TsptwAdapter(model)).items():
            if is_finite(oracle):
                assert (result.status, result.cost) == (SolveStatus.OPTIMAL, oracle), (inst.to_json(), key)
            else:
                assert result.status is SolveStatus.INFEASIBLE, (inst.to_json(), key)
        for state in enumerate_state_values(model):
            assert model.dual(state) == reference_dual(model, state), (inst.to_json(), state)
        solved += is_finite(oracle)
        r0 = inst.windows[0][0]
        late += any(
            c is not None and c <= d < r0 + c for c, (_r, d) in zip(inst.travel[0][1:], inst.windows[1:])
        )
    assert solved > 40 and late > 25, (solved, late)


def test_one_empty_store_adds_nothing_to_the_state():
    # ``build`` returns one shared store with no variable and no
    # propagator, which neither ``propagate_once`` nor
    # ``propagate_fixpoint`` moves or empties.  Each arc of A leaves in
    # time from the clock and from its tail's release, so no window would
    # drop one: the CP dual is the assignment.  Each child's arrival is in
    # its window, so the veto drops none.  A state with an empty row of A
    # (the reference's leave costs are None) reads INFINITY, the one pop
    # prune it gets without an incumbent.  On every enumerated state and
    # on copies at later clocks, of draws with narrow and wide windows and
    # missing and free arcs; every third has a depot release.
    rng = random.Random(149)
    checked = empty = infinite = children = 0
    for k in range(60):
        inst = random_tsptw_instance(rng, rng.randint(3, 7), widths=rng.choice([(8, 30), (30, 80)]))
        cut = {(i, j) for i in range(inst.n) for j in range(inst.n) if rng.random() < 0.15}
        windows = list(inst.windows)
        if k % 3 == 0:
            windows[0] = (rng.randint(1, 40), windows[0][1])
        inst = with_zero_arcs(rng, TsptwInstance(without_arcs(inst.travel, cut), windows))
        model = TsptwModel(inst)
        adapter = TsptwAdapter(model)
        first, _props = adapter.build(model.target_state())
        states = [s for s in enumerate_state_values(model) if not model.is_base(s)]
        states += [s._replace(time=s.time + rng.randint(1, 40)) for s in states]
        for state in states:
            for propagate in (propagate_once, propagate_fixpoint):
                store, props = adapter.build(state)
                assert store is first and props == [], state
                propagate(store, props)
                assert (store.lbs, store.ubs, store.live) == ([], [], 0), state
                assert (store.infeasible, store.revision) == (False, 0), state
            value = adapter.dual_cp(state, store)
            assert value == model.assignment(state)[0], state
            if reference_leave_costs(inst, state) is None:
                assert value == INFINITY, state
                empty += 1
            for _w, label, succ in model.successors(state):
                assert not adapter.is_succ_infeasible(label, succ, store), (state, label)
                children += 1
            checked += 1
            infinite += not is_finite(value)
    counts = (checked, empty, infinite, children)
    assert checked > 2000 and empty > 250 and infinite > 450 and children > 3000, counts


class OfferLog(Registry):
    """A registry that records the states offered to its dominance test."""

    def __init__(self):
        super().__init__()
        self.offered = []

    def dominated(self, model, state, g):
        self.offered.append(state)
        return super().dominated(model, state, g)


def inherited_bound(model, state, assigned, j):
    """Child ``j``'s bound from its parent's assignment ``(AP, u, v)``, as
    defined: ``AP - u_here - v_j``, 0 where that is negative, ``INFINITY``
    where it passes the child's ``|M|`` (the parent's ``|U|``) longest
    arcs."""
    value, u, v = assigned
    h = value - u[state.location] - v[j]
    longest = max(c for row in model.instance.travel for c in row if c is not None)
    return 0 if h < 0 else INFINITY if h > bin(state.unvisited).count("1") * longest else h


def test_admission_rejects_children_over_the_travel_budget():
    # The CP model caps no travel sum and vetoes no child for its cost, so
    # a child ``here -> j`` whose ``g + c(here, j)`` plus its bound is
    # above the incumbent is offered to the registry, and its bound must
    # reject it there: the model dual under ``off``, and under ``once`` the
    # bound from the parent's assignment duals.
    rng = random.Random(61)
    over = {PropagationMode.OFF: 0, PropagationMode.ONCE: 0}
    for _ in range(200):
        inst = random_tsptw_instance(rng, rng.randint(3, 7))
        model = TsptwModel(inst)
        adapter = TsptwAdapter(model)
        for state, value in enumerate_state_values(model).items():
            if model.is_base(state) or not is_finite(value):
                continue
            g = rng.randint(0, 30)
            primal = g + value + rng.randint(-5, 10)
            assigned = model.assignment(state)
            bounds = {
                PropagationMode.OFF: lambda succ: reference_dual(model, succ),
                PropagationMode.ONCE: lambda succ: inherited_bound(model, state, assigned, succ.location),
            }
            for mode, bound in bounds.items():
                use = adapter if mode is PropagationMode.ONCE else None
                ctx = _SolveContext(model, use, SolveLimits(), mode)
                ctx.primal = primal
                registry = OfferLog()
                admitted = {child.state for child in ctx.process(SearchNode(state, g, g), registry)}
                for succ in registry.offered:
                    arc = inst.travel[state.location][succ.location]
                    if g + arc + bound(succ) > primal:
                        assert succ not in admitted, (mode, state, succ, primal)
                        over[mode] += 1
    assert over[PropagationMode.OFF] > 100 and over[PropagationMode.ONCE] > 50, over


def test_children_bounds_from_the_assignment_duals_are_admissible():
    # On every state of drawn instances at n <= 8 (narrow and wide
    # windows, every third with its depot released late), the assignment's
    # duals are feasible on every arc of A, by A's definition, and sum to
    # its value.  Each successor's bound from them is exactly its
    # definition, never above the child's own assignment, and that never
    # above the child's exact value.  Half the states go through
    # ``dual_cp`` first, as a pop does, and the rest ask ``child_bounds``
    # alone, as a CABS replay of a pruned pop does.
    rng = random.Random(59)
    states = children = tight = below = 0
    for k in range(36):
        widths = ((8, 30), (30, 90))[k % 2]
        inst = random_tsptw_instance(rng, rng.randint(3, 8), widths=widths)
        if k % 3 == 0:
            windows = [(rng.randint(1, 40), inst.windows[0][1])] + list(inst.windows[1:])
            inst = TsptwInstance(inst.travel, windows)
        model = TsptwModel(inst)
        adapter = TsptwAdapter(model)
        values = enumerate_state_values(model)
        for state in values:
            if model.is_base(state):
                continue
            assigned = value, u, v = model.assignment(state)
            if not is_finite(value):
                continue
            for s, j, c in completion_arcs(inst, state):
                assert c >= u[s] + v[j], (inst.to_json(), state, s, j)
            assert sum(u) + sum(v) == value, (inst.to_json(), state)
            store, _props = adapter.build(state)
            if states % 2:
                assert adapter.dual_cp(state, store) == value
            succs = model.successors(state)
            bounds = adapter.child_bounds(state, store, succs)
            assert len(bounds) == len(succs)
            for (_w, j, child), h in zip(succs, bounds):
                exact = model.assignment(child)[0]
                assert h == inherited_bound(model, state, assigned, j), (state, j)
                assert h <= exact <= values[child], (inst.to_json(), state, j, h, exact)
                tight += h == exact
                children += 1
            states += 1
    counts = (states, children, tight)
    assert states > 1500 and children > 3000 and tight > 1000, counts


def test_children_bounds_clamp_to_zero_and_the_ceiling(monkeypatch):
    # No state of the draws above gives a negative ``AP - u_here - v_j``
    # or one above the child's ceiling, so the two clamps are checked on duals
    # made up for the target of the triangle: its children 1 and 2 have
    # ``|M|`` = 2 and a ceiling of 2 * 4.
    model = triangle_model()
    target = model.target_state()
    adapter = TsptwAdapter(model)
    succs = model.successors(target)
    assert [j for _w, j, _child in succs] == [1, 2]
    for v1, v2, want in ((4, -2, [0, 5]), (-6, 1, [INFINITY, 2]), (-5, 3, [8, 0])):
        monkeypatch.setattr(model, "assignment", lambda state: (6, [3, 0, 0], [0, v1, v2]))
        assert adapter.child_bounds(target, adapter.build(target)[0], succs) == want


def test_off_solves_no_assignment_and_asks_for_no_child_bounds(monkeypatch):
    # Under ``off`` neither A* nor CABS solves an assignment or asks the
    # adapter for its children's bounds, even when handed the adapter;
    # under ``once`` both do.
    calls = {"assignment": 0, "child_bounds": 0}

    def counted(cls, name):
        inner = getattr(cls, name)

        def call(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(cls, name, call)

    counted(TsptwModel, "assignment")
    counted(TsptwAdapter, "child_bounds")
    rng = random.Random(62)
    for _ in range(6):
        model = TsptwModel(random_tsptw_instance(rng, 9, widths=(30, 80)))
        for solver in (astar, cabs):
            for adapter in (None, TsptwAdapter(model)):
                result = solver(model, adapter, mode=PropagationMode.OFF)
                assert result.status is not None and calls == {"assignment": 0, "child_bounds": 0}
            solver(model, TsptwAdapter(model), mode=PropagationMode.ONCE)
            assert min(calls.values()) > 0, calls
            calls.update(assignment=0, child_bounds=0)


CALLS = ("dual", "assignment", "successors")


def test_dual_memo_consistent_under_interleaved_calls():
    # A model may be shared by concurrent solves, so another solve's call
    # may run between any two attribute writes of this one.  The only
    # write the model makes after set-up is the first call's build of its
    # table, whether ``dual`` or ``successors`` makes that call; the probe
    # model runs ``dual``, ``assignment`` and ``successors`` on a drawn
    # state right after it.  Every value, the
    # probe's and the callers', must equal a fresh model's.
    rng = random.Random(67)
    for _ in range(20):
        inst = random_tsptw_instance(rng, rng.randint(4, 7))
        fresh = TsptwModel(inst)
        states = list(enumerate_state_values(fresh))

        def outputs(model, state, order):
            got = {}
            for name in order:
                got[name] = getattr(model, name)(state)
            return tuple(got[name] for name in CALLS)

        for first in ("dual", "successors"):
            order = (first,) + tuple(name for name in CALLS if name != first)
            values = []
            probes = []

            class Probing(TsptwModel):
                def __setattr__(self, name, value):
                    object.__setattr__(self, name, value)
                    if name == "_table" and value is not None:
                        state = rng.choice(states)
                        probes.append(state)
                        values.append((state, outputs(self, state, order)))

            model = Probing(inst)
            for state in states:
                values.append((state, outputs(model, state, order)))
            assert len(probes) == 1, (order, probes)
            for state, value in values:
                assert value == outputs(fresh, state, order), (order, state)
