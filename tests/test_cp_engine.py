import random
from itertools import combinations

import pytest

from dpcp import (
    AdapterFailure,
    Disjunctive,
    DomainStore,
    FiniteSet,
    INFINITY,
    Interval,
    PrecedenceLe,
    VarDuration,
    ect_envelope,
    edge_finding_disjunctive,
    propagate_fixpoint,
    propagate_once,
    sum_le,
    time_table_cumulative,
)

from dpcp import cp_engine
from dpcp.cp_engine import _edge_find_lower

from conftest import MICRO_FAMILIES, check_micro_model, domain_values


# --- domains ---------------------------------------------------------------

def test_interval_basics():
    store = DomainStore([Interval(2, 9)])
    assert store.lb(0) == 2 and store.ub(0) == 9
    store.set_lb(0, 4)
    store.set_ub(0, 7)
    assert (store.lb(0), store.ub(0)) == (4, 7)
    store.set_lb(0, 3)  # weaker: no-op
    assert store.lb(0) == 4
    store.set_lb(0, 7)
    assert not store.infeasible
    store.set_lb(0, 8)
    assert store.infeasible


def test_finite_set_ops():
    store = DomainStore([FiniteSet([7, 1, 4, 4])])
    assert domain_values(store.domain(0)) == [1, 4, 7]
    assert store.contains(0, 4) and not store.contains(0, 5)
    store.remove_value(0, 4)
    assert domain_values(store.domain(0)) == [1, 7]
    store.set_lb(0, 2)
    assert domain_values(store.domain(0)) == [7]
    store.set_ub(0, 6)
    assert store.infeasible


def test_interval_interior_removal_is_dropped():
    store = DomainStore([Interval(0, 5)])
    store.remove_value(0, 3)
    assert (store.lb(0), store.ub(0)) == (0, 5)
    store.remove_value(0, 0)
    store.remove_value(0, 5)
    assert (store.lb(0), store.ub(0)) == (1, 4)


def test_empty_domain_at_construction_flags_store():
    assert DomainStore([Interval(4, 3)]).infeasible
    assert DomainStore([FiniteSet([])]).infeasible


def test_infeasibility_is_sticky():
    store = DomainStore([Interval(0, 1), Interval(0, 9)])
    store.set_lb(0, 5)
    assert store.infeasible
    store.set_ub(1, 3)  # ignored once infeasible
    assert store.domain(1).ub == 9


def test_bad_variable_id_raises_adapter_failure():
    store = DomainStore([Interval(0, 1)])
    with pytest.raises(AdapterFailure):
        store.lb(3)


# --- propagators: pinned examples -------------------------------------------

def test_propagate_once_empty_list_identity():
    store = DomainStore([Interval(0, 9)])
    before = store.revision
    propagate_once(store, [])
    assert store.revision == before


def test_precedence_single_application():
    store = DomainStore([Interval(0, 10), Interval(0, 10)])
    propagate_once(store, [PrecedenceLe(0, 4, 1)])
    assert (store.lb(1), store.ub(1)) == (4, 10)
    assert (store.lb(0), store.ub(0)) == (0, 6)


def test_precedence_infeasible():
    store = DomainStore([Interval(8, 10), Interval(0, 5)])
    propagate_once(store, [PrecedenceLe(0, 4, 1)])
    assert store.infeasible


def test_precedence_chain_fixpoint():
    store = DomainStore([Interval(0, 10) for _ in range(3)])
    propagate_fixpoint(store, [PrecedenceLe(0, 1, 1), PrecedenceLe(1, 1, 2)])
    assert (store.lb(0), store.ub(0)) == (0, 8)
    assert (store.lb(1), store.ub(1)) == (1, 9)
    assert (store.lb(2), store.ub(2)) == (2, 10)


def test_fixpoint_noop_when_already_stable():
    store = DomainStore([Interval(0, 8), Interval(1, 9), Interval(2, 10)])
    props = [PrecedenceLe(0, 1, 1), PrecedenceLe(1, 1, 2)]
    propagate_fixpoint(store, props)
    rev = store.revision
    propagate_fixpoint(store, props)
    assert store.revision == rev


def test_edge_finding_lifts_competing_job():
    store = DomainStore([Interval(0, 10), Interval(1, 2)])
    edge_finding_disjunctive(store, [(0, 5), (1, 3)])
    assert store.lb(0) == 4
    assert (store.lb(1), store.ub(1)) == (1, 2)


def test_edge_finding_single_job_unchanged():
    store = DomainStore([Interval(3, 7)])
    edge_finding_disjunctive(store, [(0, 2)])
    assert (store.lb(0), store.ub(0)) == (3, 7)


def test_edge_finding_overload_infeasible():
    store = DomainStore([Interval(0, 0), Interval(0, 0)])
    edge_finding_disjunctive(store, [(0, 5), (1, 3)])
    assert store.infeasible


def test_edge_finding_matches_once_and_fixpoint():
    def fresh():
        return DomainStore([Interval(0, 10), Interval(1, 2)])

    props = [Disjunctive([(0, 5), (1, 3)])]
    once = propagate_once(fresh(), props)
    fixed = propagate_fixpoint(fresh(), props)
    for x in range(2):
        assert (once.lb(x), once.ub(x)) == (fixed.lb(x), fixed.ub(x))


def test_edge_finding_variable_durations_use_lower_bound():
    # Duration of job 1 is a variable in {3, 6}; only the 3 is assumed.
    store = DomainStore([Interval(0, 10), Interval(1, 2), FiniteSet([3, 6])])
    edge_finding_disjunctive(store, [(0, 5), (1, VarDuration(2))])
    assert store.lb(0) == 4


def reference_edge_find_lower(jobs):
    """Cubic edge-finder kept as the oracle for ``_edge_find_lower``.

    For every job and every lct edge it rescans the descending-est order,
    so it follows the rule directly with no shortcuts.
    """
    by_est_desc = sorted(jobs, key=lambda j: (-j[0], j[2]))
    lcts = sorted({j[2] for j in jobs})
    # Overload check: some window [a, b] packed beyond its span.
    for b in lcts:
        energy = 0
        for est, p, lct, _key in by_est_desc:
            if lct > b:
                continue
            energy += p
            if est + energy > b:
                return None
    lifts = {}
    for est_i, p_i, lct_i, key_i in jobs:
        best = None
        for b in lcts:
            energy = 0
            ect = None  # earliest completion of the current suffix set
            seen_member = False
            for est, p, lct, key in by_est_desc:
                if key == key_i or lct > b:
                    continue
                seen_member = True
                energy += p
                cand = est + energy
                if ect is None or cand > ect:
                    ect = cand
                # i cannot fit inside [min(est_i, est), b] with this set.
                if min(est_i, est) + energy + p_i > b and ect > est_i:
                    if best is None or ect > best:
                        best = ect
            # i alone cannot finish by b: it runs after every member.
            if seen_member and est_i + p_i > b and ect > est_i:
                if best is None or ect > best:
                    best = ect
        if best is not None:
            lifts[key_i] = best
    return lifts


def random_job_set(rng):
    """``(est, p, lct, key)`` jobs; a third of the sets draw est and lct
    from three values each so ties are common."""
    n = rng.randint(1, 9)
    horizon = rng.randint(10, 80)
    tied = rng.random() < 1 / 3
    jobs = []
    for key in range(n):
        p = rng.randint(1, max(1, horizon // 4))
        if tied:
            est = rng.choice((0, horizon // 4, horizon // 2))
            lct = rng.choice((horizon // 2, 3 * horizon // 4, horizon)) + p
        else:
            est = rng.randint(0, horizon)
            lct = rng.randint(est, horizon) + p
        jobs.append((est, p, lct, key))
    return jobs


def test_edge_finder_matches_cubic_reference():
    rng = random.Random(2004)
    outcomes = {"overload": 0, "lifted": 0, "unchanged": 0}
    for _ in range(3000):
        jobs = random_job_set(rng)
        # The mirrored copy is what Disjunctive passes for upper bounds.
        mirrored = [(-lct, p, -est, key) for est, p, lct, key in jobs]
        for js in (jobs, mirrored):
            expected = reference_edge_find_lower(js)
            got = _edge_find_lower(js)
            assert got == expected, js
            if expected is None:
                outcomes["overload"] += 1
            else:
                assert list(got) == list(expected), js  # same application order
                outcomes["lifted" if expected else "unchanged"] += 1
    assert min(outcomes.values()) >= 300, outcomes


def test_disjunctive_vardur_finite_sets_match_reference(monkeypatch):
    # The TSPTW shape: durations are variables over FiniteSets (the start
    # domains here are FiniteSets with holes as well).
    rng = random.Random(77)
    changed = infeasible = 0
    for _ in range(600):
        k = rng.randint(1, 7)
        horizon = rng.randint(10, 80)
        domains = []
        for _ in range(k):
            lo = rng.randint(0, horizon)
            hi = rng.randint(lo, horizon)
            values = rng.sample(range(lo, hi + 1), rng.randint(1, min(4, hi - lo + 1)))
            domains.append(FiniteSet(values + [lo, hi]))
        for _ in range(k):
            domains.append(FiniteSet(rng.sample(range(1, 12), rng.randint(1, 3))))
        props = [Disjunctive([(i, VarDuration(k + i)) for i in range(k)])]
        results = []
        for finder in (reference_edge_find_lower, _edge_find_lower):
            monkeypatch.setattr(cp_engine, "_edge_find_lower", finder)
            store = propagate_once(DomainStore([d.copy() for d in domains]), props)
            results.append(
                (
                    store.infeasible,
                    store.revision,
                    [domain_values(store.domain(x)) for x in range(len(store))],
                )
            )
        assert results[0] == results[1]
        infeasible += results[1][0]
        changed += results[1][1] > 0 and not results[1][0]
    assert changed >= 50 and infeasible >= 50, (changed, infeasible)


def test_time_table_lifts_past_compulsory_block():
    store = DomainStore([Interval(2, 2), Interval(0, 8)])
    time_table_cumulative(store, [(0, 4, 2), (1, 3, 1)], 2)
    assert (store.lb(1), store.ub(1)) == (6, 8)


def test_time_table_usage_exceeds_capacity():
    store = DomainStore([Interval(0, 5)])
    time_table_cumulative(store, [(0, 2, 3)], 2)
    assert store.infeasible


def test_time_table_no_compulsory_parts_unchanged():
    store = DomainStore([Interval(0, 20), Interval(0, 20)])
    time_table_cumulative(store, [(0, 3, 2), (1, 4, 2)], 2)
    assert (store.lb(0), store.ub(0)) == (0, 20)
    assert (store.lb(1), store.ub(1)) == (0, 20)


def test_sum_le_examples():
    store = DomainStore([FiniteSet([2, 5, 9]), FiniteSet([3, 4])])
    sum_le(store, [0, 1], 9)
    assert domain_values(store.domain(0)) == [2, 5]
    assert domain_values(store.domain(1)) == [3, 4]

    store = DomainStore([Interval(4, 9), Interval(6, 9)])
    sum_le(store, [0, 1], 9)
    assert store.infeasible

    store = DomainStore([FiniteSet([2, 5, 9])])
    sum_le(store, [0], INFINITY)
    assert domain_values(store.domain(0)) == [2, 5, 9]


def test_ect_envelope_examples():
    assert ect_envelope([(0, 3, 2)], 2) == 3
    assert ect_envelope([(0, 3, 2), (4, 2, 2)], 2) == 6
    assert ect_envelope([], 2) == 0


def brute_force_envelope(tasks, capacity):
    best = 0
    for k in range(1, len(tasks) + 1):
        for subset in combinations(tasks, k):
            energy = sum(u * p for _lb, p, u in subset)
            lo = min(lb for lb, _p, _u in subset)
            best = max(best, lo + -(-energy // capacity))
    return best


def test_ect_envelope_against_subset_brute_force():
    rng = random.Random(5)
    for _ in range(200):
        k = rng.randint(1, 8)
        tasks = [(rng.randint(0, 20), rng.randint(1, 6), rng.randint(0, 4)) for _ in range(k)]
        cap = rng.randint(1, 4)
        assert ect_envelope(tasks, cap) == brute_force_envelope(tasks, cap)


# --- propagator soundness & drivers -----------------------------------------

@pytest.mark.parametrize("family", sorted(MICRO_FAMILIES))
def test_micro_model_soundness(family):
    rng = random.Random(hash(family) % (2**32))
    build = MICRO_FAMILIES[family]
    for _ in range(120):
        check_micro_model(*build(rng))


def test_fixpoint_is_idempotent_for_every_propagator():
    rng = random.Random(99)
    for family, build in sorted(MICRO_FAMILIES.items()):
        for _ in range(40):
            domains, props, _check = build(rng)
            store = DomainStore([d.copy() for d in domains])
            propagate_fixpoint(store, props)
            if store.infeasible:
                continue
            rev = store.revision
            for p in props:
                p.propagate(store)
            assert store.revision == rev, f"{family} not at fixed point"


def test_monotone_shrink_under_all_propagators():
    rng = random.Random(123)
    for _family, build in sorted(MICRO_FAMILIES.items()):
        for _ in range(40):
            domains, props, _check = build(rng)
            before = [set(domain_values(d)) for d in domains]
            store = DomainStore([d.copy() for d in domains])
            propagate_once(store, props)
            if store.infeasible:
                continue
            for x, prior in enumerate(before):
                assert set(domain_values(store.domain(x))) <= prior
