"""The adapter contract: successor vetoes are domain lookups on the
successor state, the RCPSP CP dual equals its latest pending finish and
envelopes taken separately, a CP dual reused across siblings equals the
one summed afresh, an adapter that declares ``reads_primal = False``
builds and propagates the same store under every primal, and the SMS and
RCPSP propagators, built once and told by the store's ``live`` mask which
variables to skip, propagate as the per-state ones built over the live
variables alone would.

The reference functions below recompute each transition from the parent
state, the way the vetoes did before they were handed the successor; the
differential tests check that both readings agree on every successor of
every enumerated state, under single-pass and fixed-point propagation.
The SMS and TSPTW vetoes are checked on the transitions of the unfiltered
models in ``conftest``, a superset of the children the models generate:
a veto is a domain lookup, whether or not the child is a dead end.
"""

import random

import pytest

from dpcp import (
    INFINITY,
    Cumulative,
    Disjunctive,
    DomainStore,
    PrecedenceLe,
    enumerate_state_values,
    is_finite,
    propagate_fixpoint,
    propagate_once,
)
from dpcp import rcpsp, smswt, tsptw
from dpcp.core import iter_bits

from conftest import (
    ReferenceRcpspModel,
    UnfilteredSmsModel,
    UnfilteredTsptwModel,
    one_resource_envelope,
    random_rcpsp_instance,
    random_sms_instance,
    random_tsptw_instance,
    rcpsp_fields,
    store_domains,
)

MODES = (propagate_once, propagate_fixpoint)


def reference_sms_veto(adapter, label, state, store):
    job = adapter.instance.jobs[label]
    return not store.contains(label, max(state.time, job.r))


def reference_tsptw_veto(adapter, label, state, store):
    inst = adapter.instance
    arc = inst.travel[state.location][label]
    return not store.contains(label, max(state.time + arc, inst.windows[label][0]))


def reference_rcpsp_veto(adapter, label, state, store):
    slot = adapter.model.earliest_time(state, label)
    if slot is None:
        return True
    return not store.contains(label, slot)


def reference_rcpsp_dual_cp(adapter, state, store):
    """Latest pending finish and each resource's envelope, taken
    separately."""
    inst = adapter.instance
    pending = [i for i, s in enumerate(state.starts) if s is None]
    total = 0
    for i in pending:
        total = max(total, store.lbs[i] + inst.tasks[i].duration)
    for r, cap in enumerate(inst.capacities):
        tasks = [(store.lbs[i], inst.tasks[i].duration, inst.tasks[i].usages[r]) for i in pending]
        total = max(total, one_resource_envelope(tasks, cap))
    _scheduled, _running, estimate = rcpsp_fields(inst, state)
    return max(0, total - estimate)


def reference_sms_dual_cp(adapter, state, store):
    jobs = adapter.instance.jobs
    return sum(
        jobs[i].w * max(0, store.lbs[i] + jobs[i].p - jobs[i].d)
        for i in iter_bits(state.unscheduled)
    )


def propagated_stores(model, adapter, primal_of):
    """``(state, store)`` for every non-base enumerated state and
    propagation mode, built once without and once with an incumbent cap."""
    for state, value in enumerate_state_values(model).items():
        if model.is_base(state):
            continue
        for primal in (INFINITY, primal_of(state, value)):
            for propagate in MODES:
                store, props = adapter.build(state, primal)
                if store.infeasible:
                    continue
                propagate(store, props)
                if not store.infeasible:
                    yield state, store


def assert_vetoes_agree(model, adapter, reference, primal_of):
    checked = vetoed = 0
    for state, store in propagated_stores(model, adapter, primal_of):
        for _w, label, succ in model.successors(state):
            new = adapter.is_succ_infeasible(label, succ, store)
            assert new == reference(adapter, label, state, store), (state, label)
            checked += 1
            vetoed += new
    return checked, vetoed


def tight_total(state, value):
    # An incumbent equal to the best completion at path cost 0.
    return value if is_finite(value) else INFINITY


def test_sms_veto_matches_transition_reference():
    rng = random.Random(101)
    checked = vetoed = 0
    for _ in range(12):
        model = UnfilteredSmsModel(random_sms_instance(rng, rng.randint(3, 7)))
        c, v = assert_vetoes_agree(
            model, smswt.SmsAdapter(model), reference_sms_veto, tight_total
        )
        checked, vetoed = checked + c, vetoed + v
    assert checked > 3000 and vetoed > 1000, (checked, vetoed)


def test_tsptw_veto_matches_transition_reference():
    rng = random.Random(103)
    checked = vetoed = 0
    for _ in range(120):
        model = UnfilteredTsptwModel(random_tsptw_instance(rng, rng.randint(3, 7)))
        c, v = assert_vetoes_agree(
            model, tsptw.TsptwAdapter(model), reference_tsptw_veto, tight_total
        )
        checked, vetoed = checked + c, vetoed + v
    assert checked > 1500 and vetoed > 150, (checked, vetoed)


def rcpsp_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        inst = random_rcpsp_instance(rng, 7)
        # Without left-shift pruning every reachable order is enumerated.
        yield inst, ReferenceRcpspModel(inst, left_shift=False)


def rcpsp_makespan_cap(state, value):
    # An incumbent equal to the best makespan below the state: the path
    # cost to a state equals its makespan estimate.
    return state.estimate + value


def test_rcpsp_veto_matches_transition_reference():
    checked = vetoed = 0
    for _inst, model in rcpsp_cases(107, 30):
        c, v = assert_vetoes_agree(
            model, rcpsp.RcpspAdapter(model), reference_rcpsp_veto, rcpsp_makespan_cap
        )
        checked, vetoed = checked + c, vetoed + v
    assert checked > 8000 and vetoed > 80, (checked, vetoed)


def test_rcpsp_dual_cp_matches_reference():
    # After any single pass or fixed point, with and without an incumbent
    # cap, dual_cp equals the reference bound, also for successors
    # evaluated under their parent's store, as the search does.
    checked = 0
    for _inst, model in rcpsp_cases(109, 30):
        adapter = rcpsp.RcpspAdapter(model)
        for state, store in propagated_stores(model, adapter, rcpsp_makespan_cap):
            for bounded in [state] + [succ for _w, _l, succ in model.successors(state)]:
                assert adapter.dual_cp(bounded, store) == reference_rcpsp_dual_cp(
                    adapter, bounded, store
                )
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
    """``dual_cp`` against a from-scratch sum: in the search's order (the
    parent, then each successor it does not veto, under the parent's
    store), shuffled among the previous store's calls, and again after a
    lower bound moves."""
    rng = random.Random(seed)
    checked = lifted = 0
    previous = []

    def check(calls):
        nonlocal checked
        for state, store in calls:
            assert adapter.dual_cp(state, store) == reference(adapter, state, store), state
            checked += 1

    for state, store in propagated_stores(model, adapter, tight_total):
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
    for k in range(12):
        model = smswt.SmsModel(random_sms_instance(rng, rng.randint(3, 7)))
        adapter = smswt.SmsAdapter(model)
        # Lifting a pending job's start moves its tardiness term once the
        # job would finish past its due date.
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


@pytest.mark.parametrize(
    "family", sorted(f for f, (_, adapter) in ADAPTERS.items() if not adapter.reads_primal)
)
def test_primal_free_build_ignores_the_primal(family):
    # CABS reuses such an adapter's store under a later primal, so the
    # store built and propagated under any primal must be the same one.
    draw, make_adapter = ADAPTERS[family]
    rng = random.Random(family)
    checked = 0
    for _ in range(30):
        model = draw(rng)
        adapter = make_adapter(model)
        values = enumerate_state_values(model)
        optimum = values[model.target_state()]
        states = [s for s in values if not model.is_base(s)]
        for state in rng.sample(states, min(8, len(states))):
            primals = (INFINITY, optimum, model.dual(state), 0)
            for propagate in (None,) + MODES:
                keys = []
                for primal in primals:
                    store, props = adapter.build(state, primal)
                    if propagate is not None:
                        propagate(store, props)
                    keys.append((store_domains(store), store.infeasible))
                assert keys.count(keys[0]) == len(keys), (state, propagate)
            checked += 1
    assert checked > 150, checked


def test_rcpsp_build_reads_the_primal():
    # Each pending task must finish by the incumbent, so a small primal
    # moves the latest starts.
    assert rcpsp.RcpspAdapter.reads_primal is True
    draw, make_adapter = ADAPTERS["rcpsp"]
    model = draw(random.Random(0))
    adapter = make_adapter(model)
    root = model.target_state()
    free, _props = adapter.build(root, INFINITY)
    capped, _props = adapter.build(root, 1)
    assert store_domains(free) != store_domains(capped)


def reference_sms_build(adapter, state):
    """The SMS store and a ``Disjunctive`` over the pending jobs alone,
    every variable live."""
    jobs = adapter.instance.jobs
    lbs, ubs, items = [0] * len(jobs), [0] * len(jobs), []
    for i in iter_bits(state.unscheduled):
        lbs[i], ubs[i] = max(jobs[i].r, state.time), jobs[i].deadline - jobs[i].p
        items.append((i, jobs[i].p))
    return DomainStore(lbs, ubs), [Disjunctive(items)]


def reference_rcpsp_build(adapter, state, primal):
    """The RCPSP store and one ``Cumulative`` per resource over its pending
    and running users alone, every variable live, then the precedences."""
    inst = adapter.instance
    _scheduled, running, _estimate = rcpsp_fields(inst, state)
    finish_by = min(inst.horizon, primal)
    lbs, ubs, present = [], [], []
    for i, (s, task) in enumerate(zip(state.starts, inst.tasks)):
        lbs.append(state.time if s is None else s)
        ubs.append(finish_by - task.duration if s is None else s)
        if s is None or i in running:
            present.append(i)
    props = [
        Cumulative([(i, inst.tasks[i].duration, inst.tasks[i].usages[r]) for i in present], cap)
        for r, cap in enumerate(inst.capacities)
    ]
    props.append(PrecedenceLe((i, inst.tasks[i].duration, j) for i, j in inst.precedences))
    return DomainStore(lbs, ubs), props


def assert_masked_build_matches_reference(model, adapter, reference, primals):
    """On every reachable state under each primal and driver, ``build``
    returns the adapter's one propagator list, and propagating it gives
    the reference's bounds and flag.  Returns the counts of tightened and
    infeasible outcomes."""
    props_once = adapter.build(model.target_state())[1]
    tightened = infeasible = 0
    for state in enumerate_state_values(model):
        for primal in primals:
            for propagate in MODES:
                store, props = adapter.build(state, primal)
                assert props is props_once
                expected, reference_props = reference(adapter, state, primal)
                entry = store_domains(expected)
                assert store_domains(store) == entry, state
                if not store.infeasible:
                    propagate(store, props)
                if not expected.infeasible:
                    propagate(expected, reference_props)
                assert store_domains(store) == store_domains(expected), (state, primal)
                assert store.infeasible == expected.infeasible, (state, primal)
                infeasible += expected.infeasible
                tightened += not expected.infeasible and store_domains(expected) != entry
    return tightened, infeasible


def test_sms_masked_disjunctive_matches_per_state_build():
    rng = random.Random(127)
    tightened = infeasible = 0
    for _ in range(20):
        model = smswt.SmsModel(random_sms_instance(rng, rng.randint(3, 9)))
        t, i = assert_masked_build_matches_reference(
            model,
            smswt.SmsAdapter(model),
            lambda adapter, state, _primal: reference_sms_build(adapter, state),
            (INFINITY,),
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
            (INFINITY, optimum, optimum - 1),
        )
        tightened, infeasible = tightened + t, infeasible + i
    assert tightened > 4000 and infeasible > 10000, (tightened, infeasible)
