"""The adapter contract: the SMS veto is a lower-bound lookup on the
successor state that agrees with a lookup in the whole domain, an RCPSP
store of a reachable state is never empty and holds every child's start, the RCPSP CP dual equals its tails and
envelopes over the propagated earliest starts taken separately, the SMS
CP dual equals its bound written out from the definition in any call
order, ``build`` reads the state alone, a model's dual never falls as its
floor rises and stays admissible under a parent's store, and the SMS and
RCPSP propagators, built once and told by the store's ``live`` mask which
variables to skip, propagate as the per-state ones built over the live
variables alone would, and an adapter that supplies only ``build`` gets a
veto that drops nothing and the model's floored dual as its ``dual_cp``,
and solves.

The reference functions below recompute each transition from the parent
state, the way the vetoes did before they were handed the successor; the
differential tests check that both readings agree on every successor of
every enumerated state, under single-pass and fixed-point propagation.
The SMS and TSPTW vetoes are checked on the transitions of the unfiltered
models in ``conftest``, a superset of the children the models generate:
a veto is a bound lookup, whether or not the child is a dead end.
"""

import random

import pytest

from dpcp import (
    INFINITY,
    Cumulative,
    Disjunctive,
    DomainStore,
    PrecedenceLe,
    PropagationAdapter,
    PropagationMode,
    SolveStatus,
    astar,
    cabs,
    enumerate_state_values,
    propagate_fixpoint,
    propagate_once,
)
from dpcp import rcpsp, smswt, tsptw
from dpcp.core import iter_bits

from conftest import (
    ReferenceRcpspModel,
    UnfilteredSmsModel,
    UnfilteredTsptwModel,
    load_counts,
    random_rcpsp_instance,
    random_sms_instance,
    random_tsptw_instance,
    rcpsp_fields,
    reference_rcpsp_dual,
    reference_sms_bound,
    store_domains,
)

MODES = (propagate_once, propagate_fixpoint)


def reference_sms_veto(adapter, label, state, store):
    # Both halves of the domain: a veto that ever needed the upper half
    # would disagree here.
    start = max(state.time, adapter.instance.jobs[label].r)
    return not store.lbs[label] <= start <= store.ubs[label]


def reference_tsptw_veto(adapter, label, state, store):
    # The TSPTW store has no variable: the reference reads the window.
    inst = adapter.instance
    arc = inst.travel[state.location][label]
    return max(state.time + arc, inst.windows[label][0]) > inst.windows[label][1]


def reference_sms_dual_cp(adapter, state, store):
    # A successor is bounded under its parent's store, whose lower bounds
    # may lie before the successor's clock.
    ests = [max(lb, state.time) for lb in store.lbs]
    return reference_sms_bound(adapter.instance, state.unscheduled, ests, adapter.model.table()[0])


def propagated_stores(model, adapter, deadline_of=None):
    """``(state, store)`` for every non-base enumerated state and
    propagation mode.  Given ``deadline_of(state, value)``, each store is
    also yielded with every pending task's window cut to finish by that
    deadline before it is propagated, for stores tighter than ``build``
    gives.  Propagation lifts lower bounds alone, so every store leaves
    with the upper bounds ``build``, or the cut, gave it."""
    for state, value in enumerate_state_values(model).items():
        if model.is_base(state):
            continue
        deadlines = (None,) if deadline_of is None else (None, deadline_of(state, value))
        for deadline in deadlines:
            for propagate in MODES:
                store, props = adapter.build(state)
                if deadline is not None:
                    store = finish_by(store, state, adapter.instance, deadline)
                if store.infeasible:
                    continue
                entry_ubs = list(store.ubs)
                propagate(store, props)
                assert store.ubs == entry_ubs, state
                if not store.infeasible:
                    yield state, store


def finish_by(store, state, inst, deadline):
    """``store`` with each pending RCPSP task's latest start cut so that it
    finishes by ``deadline``, as a new store over the same lower bounds."""
    cut_ubs = [
        min(ub, deadline - task.duration) if s is None else ub
        for s, ub, task in zip(state.starts, store.ubs, inst.tasks)
    ]
    return DomainStore(store.lbs, cut_ubs, store.live)


def assert_vetoes_agree(model, adapter, reference):
    checked = vetoed = 0
    for state, store in propagated_stores(model, adapter):
        for _w, label, succ in model.successors(state):
            new = adapter.is_succ_infeasible(label, succ, store)
            assert new == reference(adapter, label, state, store), (state, label)
            checked += 1
            vetoed += new
    return checked, vetoed


def test_sms_veto_matches_transition_reference():
    rng = random.Random(101)
    checked = vetoed = 0
    for _ in range(30):
        model = UnfilteredSmsModel(random_sms_instance(rng, rng.randint(3, 7)))
        c, v = assert_vetoes_agree(model, smswt.SmsAdapter(model), reference_sms_veto)
        checked, vetoed = checked + c, vetoed + v
    assert checked > 3000 and vetoed > 1000, (checked, vetoed)


def test_tsptw_veto_matches_transition_reference():
    rng = random.Random(103)
    checked = vetoed = 0
    for _ in range(120):
        model = UnfilteredTsptwModel(random_tsptw_instance(rng, rng.randint(3, 7)))
        c, v = assert_vetoes_agree(model, tsptw.TsptwAdapter(model), reference_tsptw_veto)
        checked, vetoed = checked + c, vetoed + v
    # Every child's arrival is in its window, and the adapter vetoes none.
    assert checked > 1500 and vetoed == 0, (checked, vetoed)


def rcpsp_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        inst = random_rcpsp_instance(rng, 7)
        # Without left-shift pruning every reachable order is enumerated.
        yield inst, ReferenceRcpspModel(inst, left_shift=False)


def rcpsp_best_makespan(state, value):
    # The best makespan below the state: the path cost to a state equals
    # its makespan estimate.
    return state.estimate + value


def test_rcpsp_stores_hold_every_child_start():
    """No RCPSP veto could fire: propagated once or to a fixed point, the
    store of every enumerated state is feasible and holds the start each
    child gives its task (the proof is in ``RcpspAdapter``'s docstring).  A cap on the
    latest starts below ``horizon - p`` would break it."""
    stores = children = 0
    for _inst, model in rcpsp_cases(107, 80):
        adapter = rcpsp.RcpspAdapter(model)
        for state in enumerate_state_values(model):
            if model.is_base(state):
                continue
            succs = model.successors(state)
            for propagate in MODES:
                store, props = adapter.build(state)
                propagate(store, props)
                assert not store.infeasible, state
                for _w, label, succ in succs:
                    start = succ.starts[label]
                    assert store.lbs[label] <= start <= store.ubs[label], (state, label)
                    children += 1
                stores += 1
    assert stores > 10000 and children > 15000, (stores, children)


class CheckedRcpspAdapter(rcpsp.RcpspAdapter):
    """``RcpspAdapter`` that asserts, at each veto the search asks for,
    that the parent's store holds the child's start, and counts its
    ``dual_cp`` calls, one per feasible store."""

    checks = dual_cps = 0

    def dual_cp(self, state, store):
        self.dual_cps += 1
        return super().dual_cp(state, store)

    def is_succ_infeasible(self, label, succ, store):
        assert store.lbs[label] <= succ.starts[label] <= store.ubs[label], (succ, label)
        self.checks += 1
        return False


@pytest.mark.parametrize("index", range(3))
def test_rcpsp_search_stores_hold_every_child_start(index):
    # On the benchmark's ``rcpsp-sparse`` pool instances (n = 12), where
    # enumeration is out of reach, A* ``fixpoint`` finds every store it
    # builds feasible and holding each child's start.
    gen, _workloads = load_counts().load_perfbench()
    doc = gen.rcpsp(random.Random(f"rcpsp-sparse:{index}"), 12, 3, 0.1)
    model = rcpsp.RcpspModel(rcpsp.RcpspInstance.from_json(doc))
    adapter = CheckedRcpspAdapter(model)
    result = astar(model, adapter, mode=PropagationMode.FIXPOINT)
    assert result.status is SolveStatus.OPTIMAL
    assert adapter.dual_cps == result.metrics.propagation_calls > 0
    assert adapter.checks > 0


def test_rcpsp_dual_cp_matches_reference():
    # After any single pass or fixed point, with and without the windows
    # cut to the best makespan, dual_cp equals the reference bound, also
    # for successors evaluated under their parent's store, the floor the
    # search bounds them with.
    checked = 0
    for _inst, model in rcpsp_cases(109, 30):
        adapter = rcpsp.RcpspAdapter(model)
        for state, store in propagated_stores(model, adapter, rcpsp_best_makespan):
            for bounded in [state] + [succ for _w, _l, succ in model.successors(state)]:
                want = reference_rcpsp_dual(adapter.instance, bounded, store.lbs)
                assert adapter.dual_cp(bounded, store) == want
            checked += 1
    assert checked > 3000, checked


def raise_one_lower_bound(store, ids):
    """Lift the first variable of ``ids`` whose domain is wider than a
    point to its upper bound; the store stays feasible and its revision
    moves.  Returns False when every domain is a point."""
    for x in ids:
        if store.lbs[x] < store.ubs[x]:
            before = store.revision
            store.set_lb(x, store.ubs[x])
            assert store.revision > before and not store.infeasible
            return True
    return False


def assert_sibling_sums_fresh(model, adapter, reference, term_ids, seed):
    """``dual_cp`` against a from-scratch reference: on the parent, then on
    each successor it does not veto, under the parent's store (the bound
    the search gives a successor, ``model.dual`` over that store's lower
    bounds, is the same call), shuffled among the previous store's calls,
    and again after a lower bound moves."""
    rng = random.Random(seed)
    checked = lifted = 0
    previous = []

    def check(calls):
        nonlocal checked
        for state, store in calls:
            assert adapter.dual_cp(state, store) == reference(adapter, state, store), state
            checked += 1

    for state, store in propagated_stores(model, adapter):
        family = [state] + [
            succ
            for _w, label, succ in model.successors(state)
            if not adapter.is_succ_infeasible(label, succ, store)
        ]
        calls = [(bounded, store) for bounded in family]
        check(calls)
        mixed = calls + previous
        rng.shuffle(mixed)
        check(mixed)
        if raise_one_lower_bound(store, term_ids(state)):
            lifted += 1
            check(calls)
        previous = calls
    return checked, lifted


def test_sms_sibling_dual_cp_matches_fresh_sum():
    rng = random.Random(113)
    checked = lifted = 0
    for k in range(24):
        model = smswt.SmsModel(random_sms_instance(rng, rng.randint(3, 7)))
        adapter = smswt.SmsAdapter(model)
        # Lifting a pending job's start moves its separable term once the
        # job would finish past its due date, and the queue term when it
        # was the smallest earliest start.
        c, v = assert_sibling_sums_fresh(
            model,
            adapter,
            reference_sms_dual_cp,
            lambda state: list(iter_bits(state.unscheduled)),
            k,
        )
        checked, lifted = checked + c, lifted + v
    assert checked > 5000 and lifted > 500, (checked, lifted)


ADAPTERS = {
    "smswt": (
        lambda rng: smswt.SmsModel(random_sms_instance(rng, rng.randint(3, 7))),
        smswt.SmsAdapter,
    ),
    "tsptw": (
        lambda rng: tsptw.TsptwModel(random_tsptw_instance(rng, rng.randint(3, 7))),
        tsptw.TsptwAdapter,
    ),
    "rcpsp": (lambda rng: rcpsp.RcpspModel(random_rcpsp_instance(rng, 7)), rcpsp.RcpspAdapter),
}


@pytest.mark.parametrize("family", sorted(ADAPTERS))
def test_dual_floor_contract(family):
    """``model.dual(state, floor)``, the one bound the search gives a child.

    SMS and RCPSP: an all-zero floor gives ``dual(state)``, and raising
    any ``floor[i]`` never lowers the bound.  TSPTW ignores the floor.
    Every model: with the propagated store of each enumerated state (n <=
    7), once and to a fixed point, as the floor, each successor the store
    does not veto, and the state itself, is bounded at or below its
    exhaustive value.
    """
    draw, make_adapter = ADAPTERS[family]
    rng = random.Random(f"floor:{family}")
    monotone = raised = admissible = 0
    for _ in range(25):
        model = draw(rng)
        adapter = make_adapter(model)
        n = model.instance.n
        values = enumerate_state_values(model)
        states = [s for s in values if not model.is_base(s)]
        for state in rng.sample(states, min(10, len(states))):
            plain = model.dual(state)
            assert model.dual(state, [0] * n) == plain, state
            floor = [rng.randint(0, 40) for _ in range(n)]
            for _ in range(4):
                before = model.dual(state, floor)
                floor[rng.randrange(n)] += rng.randint(1, 15)
                after = model.dual(state, floor)
                if family == "tsptw":
                    assert before == after == plain, (state, floor)
                else:
                    assert plain <= before <= after, (state, floor)
                    raised += after > before
                monotone += 1
        for state in states:
            for propagate in MODES:
                store, props = adapter.build(state)
                if not store.infeasible:
                    propagate(store, props)
                if store.infeasible:
                    continue
                family_states = [state] + [
                    succ
                    for _w, label, succ in model.successors(state)
                    if not adapter.is_succ_infeasible(label, succ, store)
                ]
                for bounded in family_states:
                    assert model.dual(bounded, store.lbs) <= values[bounded], (state, bounded)
                    admissible += 1
    assert monotone > 500 and admissible > 750, (monotone, admissible)
    # A raised floor moves the SMS and RCPSP bounds often enough to test.
    assert family == "tsptw" or raised > 150, raised


@pytest.mark.parametrize("family", sorted(ADAPTERS))
def test_build_reads_the_state_alone(family):
    # CABS replays a state's store under any later incumbent, so two
    # builds of equal states must give the same store, built and
    # propagated.
    draw, make_adapter = ADAPTERS[family]
    rng = random.Random(family)
    checked = 0
    for _ in range(30):
        model = draw(rng)
        adapter = make_adapter(model)
        states = [s for s in enumerate_state_values(model) if not model.is_base(s)]
        for state in rng.sample(states, min(8, len(states))):
            for propagate in (None,) + MODES:
                keys = []
                for copy in (state, type(state)(*state), state):
                    store, props = adapter.build(copy)
                    if propagate is not None:
                        propagate(store, props)
                    keys.append((store_domains(store), store.infeasible))
                assert keys.count(keys[0]) == len(keys), (state, propagate)
            checked += 1
    assert checked > 150, checked


def reference_sms_build(adapter, state):
    """The SMS store, each window closed by the model's cut deadline, and a
    ``Disjunctive`` over the pending jobs alone, every variable live."""
    jobs = adapter.instance.jobs
    deadlines = adapter.model.table()[0]
    lbs, ubs, items = [0] * len(jobs), [0] * len(jobs), []
    for i in iter_bits(state.unscheduled):
        lbs[i], ubs[i] = max(jobs[i].r, state.time), deadlines[i] - jobs[i].p
        items.append((i, jobs[i].p))
    return DomainStore(lbs, ubs, -1), [Disjunctive(items)]


def reference_tsptw_build(adapter, state):
    """A TSPTW store, a window for the unvisited locations and the current
    one, every variable live, and no propagator."""
    windows = adapter.instance.windows
    lbs, ubs = [0] * len(windows), [0] * len(windows)
    for i in iter_bits(state.unvisited | 1 << state.location):
        lbs[i], ubs[i] = max(windows[i][0], state.time), windows[i][1]
    return DomainStore(lbs, ubs, -1), []


def reference_rcpsp_build(adapter, state):
    """The RCPSP store and one ``Cumulative`` per resource over its pending
    and running users alone, every variable live, then the precedences."""
    inst = adapter.instance
    _scheduled, running, _estimate = rcpsp_fields(inst, state)
    lbs, ubs, present = [], [], []
    for i, (s, task) in enumerate(zip(state.starts, inst.tasks)):
        lbs.append(state.time if s is None else s)
        ubs.append(inst.horizon - task.duration if s is None else s)
        if s is None or i in running:
            present.append(i)
    props = [
        Cumulative([(i, inst.tasks[i].duration, inst.tasks[i].usages[r]) for i in present], cap)
        for r, cap in enumerate(inst.capacities)
    ]
    props.append(PrecedenceLe((i, inst.tasks[i].duration, j) for i, j in inst.precedences))
    return DomainStore(lbs, ubs, -1), props


def assert_masked_build_matches_reference(model, adapter, reference, deadlines=(None,)):
    """On every reachable state under each driver, ``build`` returns the
    adapter's one propagator list, and propagating it gives the
    reference's bounds and flag, also with both stores' pending windows
    first cut to finish by each given deadline (RCPSP).  Returns the
    counts of tightened and infeasible outcomes."""
    props_once = adapter.build(model.target_state())[1]
    tightened = infeasible = 0
    for state in enumerate_state_values(model):
        for deadline in deadlines:
            for propagate in MODES:
                store, props = adapter.build(state)
                assert props is props_once
                expected, reference_props = reference(adapter, state)
                if deadline is not None:
                    store = finish_by(store, state, adapter.instance, deadline)
                    expected = finish_by(expected, state, adapter.instance, deadline)
                entry = store_domains(expected)
                assert store_domains(store) == entry, state
                if not store.infeasible:
                    propagate(store, props)
                if not expected.infeasible:
                    propagate(expected, reference_props)
                assert store_domains(store) == store_domains(expected), (state, deadline)
                assert store.infeasible == expected.infeasible, (state, deadline)
                infeasible += expected.infeasible
                tightened += not expected.infeasible and store_domains(expected) != entry
    return tightened, infeasible


def test_sms_masked_disjunctive_matches_per_state_build():
    rng = random.Random(127)
    tightened = infeasible = 0
    for _ in range(20):
        model = smswt.SmsModel(random_sms_instance(rng, rng.randint(3, 9)))
        t, i = assert_masked_build_matches_reference(
            model, smswt.SmsAdapter(model), reference_sms_build
        )
        tightened, infeasible = tightened + t, infeasible + i
    assert tightened > 1500 and infeasible > 100, (tightened, infeasible)


def test_rcpsp_masked_cumulative_matches_per_state_build():
    # A finished task's fixed block ends by the state's clock, where every
    # live window starts, so on reachable states skipping it saves time
    # without moving a bound.  What this catches is a mask that leaves out
    # a running task.
    rng = random.Random(131)
    tightened = infeasible = 0
    for _ in range(30):
        model = rcpsp.RcpspModel(random_rcpsp_instance(rng, 9, 5))
        optimum = enumerate_state_values(model)[model.target_state()]
        t, i = assert_masked_build_matches_reference(
            model,
            rcpsp.RcpspAdapter(model),
            reference_rcpsp_build,
            (None, optimum, optimum - 1),
        )
        tightened, infeasible = tightened + t, infeasible + i
    assert tightened > 4000 and infeasible > 10000, (tightened, infeasible)


class MinimalSmsAdapter(PropagationAdapter):
    """Only what a model's adapter must supply: the per-state reference
    build."""

    def build(self, state):
        return reference_sms_build(self, state)


class MinimalTsptwAdapter(PropagationAdapter):
    """The per-state reference build alone, a window store, with the
    default veto and ``dual_cp``, the model's floored dual, in place of
    the shipped adapter's exact assignment."""

    def build(self, state):
        return reference_tsptw_build(self, state)


class MinimalRcpspAdapter(PropagationAdapter):
    """Only what a model's adapter must supply: the per-state reference
    build."""

    def build(self, state):
        return reference_rcpsp_build(self, state)


MINIMAL = {
    "smswt": (
        lambda rng: smswt.SmsModel(random_sms_instance(rng, rng.randint(3, 8))),
        MinimalSmsAdapter,
        smswt.SmsAdapter,
        smswt.permutation_optimum,
    ),
    "tsptw": (
        lambda rng: tsptw.TsptwModel(random_tsptw_instance(rng, rng.randint(3, 7))),
        MinimalTsptwAdapter,
        tsptw.TsptwAdapter,
        tsptw.permutation_optimum,
    ),
    "rcpsp": (
        lambda rng: rcpsp.RcpspModel(random_rcpsp_instance(rng, 8, 3)),
        MinimalRcpspAdapter,
        rcpsp.RcpspAdapter,
        rcpsp.ordering_optimum,
    ),
}


@pytest.mark.parametrize("family", sorted(MINIMAL))
def test_minimal_adapter_needs_only_build(family):
    """``build`` is the one abstract method.  ``dual_cp`` defaults to the
    model's ``dual`` floored by the store's lower bounds: an adapter with
    only ``build`` gets it on sampled states, and CABS ``once`` with it and
    the default veto, which drops nothing, reaches the oracle.  SMS's
    adapter alone overrides the veto, which
    ``test_sms_veto_matches_transition_reference`` checks; TSPTW's alone
    overrides ``dual_cp``, solving its model's relaxation exactly."""
    draw, minimal, shipped, oracle = MINIMAL[family]
    assert PropagationAdapter.__abstractmethods__ == {"build"}
    assert ("is_succ_infeasible" in vars(shipped)) == (family == "smswt")
    assert (shipped.dual_cp is PropagationAdapter.dual_cp) == (family != "tsptw")
    rng = random.Random(f"minimal:{family}")
    compared = 0
    for _ in range(10):
        model = draw(rng)
        adapter = minimal(model)
        assert adapter.instance is model.instance
        states = [s for s in enumerate_state_values(model) if not model.is_base(s)]
        for state in rng.sample(states, min(20, len(states))):
            store, props = adapter.build(state)
            if not store.infeasible:
                propagate_once(store, props)
            if store.infeasible:
                continue
            assert adapter.dual_cp(state, store) == model.dual(state, store.lbs), state
            compared += 1
        want = oracle(model.instance)
        result = cabs(model, adapter, mode=PropagationMode.ONCE)
        if want == INFINITY:
            assert result.status is SolveStatus.INFEASIBLE
        else:
            assert (result.status, result.cost) == (SolveStatus.OPTIMAL, want)
    assert compared > 50, compared
