import random
from itertools import combinations

import pytest

from dpcp import (
    AdapterFailure,
    Cumulative,
    Disjunctive,
    DomainStore,
    FiniteSet,
    INFINITY,
    Interval,
    PrecedenceLe,
    SumLe,
    VarDuration,
    ect_envelope,
    propagate_fixpoint,
    propagate_once,
)

from dpcp import cp_engine
from dpcp.cp_engine import _edge_find_lower, ect_envelope_max

from conftest import MICRO_FAMILIES, check_micro_model, domain_values, random_domain


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
    store.set_lb(0, 2)
    assert domain_values(store.domain(0)) == [4, 7]
    store.set_lb(0, 5)
    assert domain_values(store.domain(0)) == [7]
    store.set_ub(0, 6)
    assert store.infeasible


def test_empty_domain_at_construction_flags_store():
    assert DomainStore([Interval(4, 3)]).infeasible
    assert DomainStore([FiniteSet([])]).infeasible


def test_infeasibility_is_sticky():
    store = DomainStore([Interval(0, 1), Interval(0, 9)])
    store.set_lb(0, 5)
    assert store.infeasible
    store.set_ub(1, 3)  # ignored once infeasible
    assert store.domain(1).ub == 9


@pytest.mark.parametrize("x", [3, -1])
def test_bad_variable_id_raises_adapter_failure(x):
    store = DomainStore([Interval(0, 1), Interval(5, 9)])
    with pytest.raises(AdapterFailure):
        store.lb(x)


# --- propagators: pinned examples -------------------------------------------

def test_propagate_once_empty_list_identity():
    store = DomainStore([Interval(0, 9)])
    before = store.revision
    propagate_once(store, [])
    assert store.revision == before


def test_precedence_single_application():
    store = DomainStore([Interval(0, 10), Interval(0, 10)])
    propagate_once(store, [PrecedenceLe([(0, 4, 1)])])
    assert (store.lb(1), store.ub(1)) == (4, 10)
    assert (store.lb(0), store.ub(0)) == (0, 6)


def test_precedence_infeasible():
    store = DomainStore([Interval(8, 10), Interval(0, 5)])
    propagate_once(store, [PrecedenceLe([(0, 4, 1)])])
    assert store.infeasible


def test_precedence_chain_fixpoint():
    store = DomainStore([Interval(0, 10) for _ in range(3)])
    propagate_fixpoint(store, [PrecedenceLe([(0, 1, 1)]), PrecedenceLe([(1, 1, 2)])])
    assert (store.lb(0), store.ub(0)) == (0, 8)
    assert (store.lb(1), store.ub(1)) == (1, 9)
    assert (store.lb(2), store.ub(2)) == (2, 10)


def test_fixpoint_noop_when_already_stable():
    store = DomainStore([Interval(0, 8), Interval(1, 9), Interval(2, 10)])
    props = [PrecedenceLe([(0, 1, 1)]), PrecedenceLe([(1, 1, 2)])]
    propagate_fixpoint(store, props)
    rev = store.revision
    propagate_fixpoint(store, props)
    assert store.revision == rev


def reference_precedence(store, arcs):
    """One single-arc propagator per arc, run in sequence, with guarded
    reads and unconditional writes: the oracle for ``PrecedenceLe``."""
    for i, offset, j in arcs:
        if store.infeasible:
            return
        store.set_lb(j, store.lb(i) + offset)
        if store.infeasible:
            return
        store.set_ub(i, store.ub(j) - offset)


def snapshot(store):
    return (
        store.infeasible,
        store.revision,
        [domain_values(store.domain(x)) for x in range(len(store))],
    )


def random_store_domains(rng, k, max_value=30):
    """Interval and FiniteSet domains; about one store in twenty starts
    with an empty domain, so it is infeasible on entry."""
    domains = [random_domain(rng, max_value, max_size=max_value) for _ in range(k)]
    if rng.random() < 0.05:
        domains[rng.randrange(k)] = Interval(5, 4)
    return domains


def test_precedence_arc_list_matches_per_arc_reference():
    rng = random.Random(31)
    outcomes = {"infeasible": 0, "tightened": 0, "unchanged": 0}
    for _ in range(3000):
        k = rng.randint(2, 7)
        domains = random_store_domains(rng, k)
        arcs = []
        for _ in range(rng.randint(1, 6)):
            i, j = rng.sample(range(k), 2)
            arcs.append((i, rng.randint(-4, 5), j))
        expected = DomainStore([d.copy() for d in domains])
        reference_precedence(expected, arcs)
        got = DomainStore([d.copy() for d in domains])
        PrecedenceLe(arcs).propagate(got)
        assert snapshot(got) == snapshot(expected), (domains, arcs)
        if expected.infeasible:
            outcomes["infeasible"] += 1
        else:
            outcomes["tightened" if expected.revision else "unchanged"] += 1
    assert min(outcomes.values()) >= 150, outcomes


@pytest.mark.parametrize("bad", [5, -1])
def test_precedence_out_of_range_id_raises(bad):
    arcs = [(0, 1, bad), (0, 1, 1)]
    for apply in (reference_precedence, lambda store, a: PrecedenceLe(a).propagate(store)):
        store = DomainStore([Interval(0, 9), Interval(0, 9)])
        with pytest.raises(AdapterFailure):
            apply(store, arcs)


def test_edge_finding_lifts_competing_job():
    store = DomainStore([Interval(0, 10), Interval(1, 2)])
    Disjunctive([(0, 5), (1, 3)]).propagate(store)
    assert store.lb(0) == 4
    assert (store.lb(1), store.ub(1)) == (1, 2)


def test_edge_finding_lowers_latest_start_of_competing_job():
    # The time-reversed case: job 0 cannot follow job 1, so it ends by 9.
    store = DomainStore([Interval(0, 10), Interval(8, 9)])
    Disjunctive([(0, 5), (1, 3)]).propagate(store)
    assert store.ub(0) == 4
    assert (store.lb(1), store.ub(1)) == (8, 9)


def test_edge_finding_single_job_unchanged():
    store = DomainStore([Interval(3, 7)])
    Disjunctive([(0, 2)]).propagate(store)
    assert (store.lb(0), store.ub(0)) == (3, 7)


def test_edge_finding_overload_infeasible():
    store = DomainStore([Interval(0, 0), Interval(0, 0)])
    Disjunctive([(0, 5), (1, 3)]).propagate(store)
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
    Disjunctive([(0, 5), (1, VarDuration(2))]).propagate(store)
    assert store.lb(0) == 4


@pytest.mark.parametrize("bad", [4, -1])
def test_disjunctive_out_of_range_id_raises(bad):
    for items in ([(0, 2), (bad, 2)], [(0, 2), (1, VarDuration(bad))]):
        store = DomainStore([Interval(0, 9), Interval(0, 9)])
        with pytest.raises(AdapterFailure):
            Disjunctive(items).propagate(store)


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


def random_job_set(rng, n, p_share):
    """``n`` jobs ``(est, p, lct, key)`` with ``p`` up to ``1/p_share`` of
    the horizon; a third of the sets draw est and lct from three values
    each so ties are common."""
    horizon = rng.randint(10, 80)
    tied = rng.random() < 1 / 3
    jobs = []
    for key in range(n):
        p = rng.randint(1, max(1, horizon // p_share))
        if tied:
            est = rng.choice((0, horizon // 4, horizon // 2))
            lct = rng.choice((horizon // 2, 3 * horizon // 4, horizon)) + p
        else:
            est = rng.randint(0, horizon)
            lct = rng.randint(est, horizon) + p
        jobs.append((est, p, lct, key))
    return jobs


def assert_matches_cubic_reference(job_sets):
    outcomes = {"overload": 0, "lifted": 0, "unchanged": 0}
    for jobs in job_sets:
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


def test_edge_finder_matches_cubic_reference():
    rng = random.Random(2004)
    assert_matches_cubic_reference(
        random_job_set(rng, rng.randint(1, 9), 4) for _ in range(3000)
    )


def test_edge_finder_matches_cubic_reference_at_workload_sizes():
    # SMS and TSPTW nodes pass up to 16 jobs.  Shorter jobs keep overloads
    # from crowding out the other outcomes at these sizes.
    rng = random.Random(2004)
    assert_matches_cubic_reference(
        random_job_set(rng, rng.randint(10, 16), 16) for _ in range(1000)
    )


def test_disjunctive_vardur_finite_sets_match_reference(monkeypatch):
    # The TSPTW shape: durations are variables over FiniteSets (the start
    # domains here are FiniteSets with holes as well).
    rng = random.Random(77)
    changed = infeasible = 0
    for _ in range(600):
        k = rng.randint(1, 14)
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
    Cumulative([(0, 4, 2), (1, 3, 1)], 2).propagate(store)
    assert (store.lb(1), store.ub(1)) == (6, 8)


def test_time_table_usage_exceeds_capacity():
    store = DomainStore([Interval(0, 5)])
    Cumulative([(0, 2, 3)], 2).propagate(store)
    assert store.infeasible


def test_time_table_no_compulsory_parts_unchanged():
    store = DomainStore([Interval(0, 20), Interval(0, 20)])
    Cumulative([(0, 3, 2), (1, 4, 2)], 2).propagate(store)
    assert (store.lb(0), store.ub(0)) == (0, 20)
    assert (store.lb(1), store.ub(1)) == (0, 20)


class ReferenceCumulative:
    """Time-table filtering with guarded reads and an unconditional write
    of every new bound: the oracle for ``Cumulative``."""

    def __init__(self, tasks, capacity):
        self.tasks = list(tasks)
        self.capacity = capacity

    def propagate(self, store):
        if store.infeasible:
            return
        live = [(v, p, u) for v, p, u in self.tasks if p > 0 and u > 0]
        for _v, _p, u in live:
            if u > self.capacity:
                store.mark_infeasible()
                return
        if not live:
            return
        bounds = {v: (store.lb(v), store.ub(v)) for v, _p, _u in live}
        events = {}
        for v, p, u in live:
            lb, ub = bounds[v]
            if ub < lb + p:
                events[ub] = events.get(ub, 0) + u
                events[lb + p] = events.get(lb + p, 0) - u
        points = sorted(events)
        segments = []
        height = 0
        for a, b in zip(points, points[1:]):
            height += events[a]
            if height > self.capacity:
                store.mark_infeasible()
                return
            if height > 0:
                segments.append((a, b, height))
        if not segments:
            return
        new_bounds = []
        for v, p, u in live:
            lb, ub = bounds[v]
            cp = (ub, lb + p) if ub < lb + p else None

            def overflows(a, b, h):
                own = u if cp is not None and cp[0] <= a and cp[1] >= b else 0
                return h - own + u > self.capacity

            new_lb = lb
            for a, b, h in segments:
                if a >= new_lb + p:
                    break
                if b > new_lb and overflows(a, b, h):
                    new_lb = b
            new_ub = ub
            for a, b, h in reversed(segments):
                if b <= new_ub:
                    break
                if a < new_ub + p and overflows(a, b, h):
                    new_ub = a - p
            new_bounds.append((v, new_lb, new_ub))
        for v, new_lb, new_ub in new_bounds:
            store.set_lb(v, new_lb)
            if store.infeasible:
                return
            store.set_ub(v, new_ub)
            if store.infeasible:
                return


def test_cumulative_matches_reference():
    rng = random.Random(4242)
    outcomes = {"infeasible": 0, "tightened": 0, "unchanged": 0}
    for _ in range(3000):
        k = rng.randint(1, 7)
        cap = rng.randint(1, 5)
        # Mostly narrow windows, so compulsory parts are common.
        domains = []
        for _ in range(k):
            lo = rng.randint(0, 20)
            domains.append(Interval(lo, lo + rng.randint(0, 6)))
        if rng.random() < 0.05:
            domains[rng.randrange(k)] = Interval(5, 4)
        tasks = [
            (rng.randrange(k), rng.randint(0, 6), rng.randint(0, cap + (rng.random() < 0.05)))
            for _ in range(rng.randint(1, 6))
        ]
        results = []
        for cls in (ReferenceCumulative, Cumulative):
            store = DomainStore([d.copy() for d in domains])
            cls(tasks, cap).propagate(store)
            results.append(snapshot(store))
        assert results[0] == results[1], (domains, tasks, cap)
        if results[0][0]:
            outcomes["infeasible"] += 1
        else:
            outcomes["tightened" if results[0][1] else "unchanged"] += 1
    assert min(outcomes.values()) >= 300, outcomes


@pytest.mark.parametrize("bad", [4, -1])
def test_cumulative_out_of_range_id_raises(bad):
    for cls in (ReferenceCumulative, Cumulative):
        store = DomainStore([Interval(0, 9), Interval(0, 9)])
        with pytest.raises(AdapterFailure):
            cls([(0, 2, 1), (bad, 2, 1)], 2).propagate(store)


def test_sum_le_examples():
    store = DomainStore([FiniteSet([2, 5, 9]), FiniteSet([3, 4])])
    SumLe((0, 1), 9).propagate(store)
    assert domain_values(store.domain(0)) == [2, 5]
    assert domain_values(store.domain(1)) == [3, 4]

    store = DomainStore([Interval(4, 9), Interval(6, 9)])
    SumLe((0, 1), 9).propagate(store)
    assert store.infeasible

    store = DomainStore([FiniteSet([2, 5, 9])])
    SumLe((0,), INFINITY).propagate(store)
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


def reference_ect_envelope(tasks, capacity):
    """Per-resource envelope with its own sort: the oracle for one
    resource of ``ect_envelope_max``."""
    best = 0
    energy = 0
    for lb, p, u in sorted(tasks, key=lambda t: -t[0]):
        energy += u * p
        best = max(best, lb + -(-energy // capacity))
    return best


def test_ect_envelope_max_matches_per_resource_reference():
    rng = random.Random(808)
    for _ in range(3000):
        caps = [rng.randint(1, 6) for _ in range(rng.randint(0, 3))]
        tasks = []
        for _ in range(rng.randint(0, 9)):
            # Few distinct lower bounds, so ties are common.
            lb = rng.randint(0, 12) if rng.random() < 0.5 else rng.choice((0, 4, 8))
            tasks.append((lb, rng.randint(1, 8), [rng.randint(0, c) for c in caps]))
        per_resource = [
            reference_ect_envelope([(lb, p, us[r]) for lb, p, us in tasks], cap)
            for r, cap in enumerate(caps)
        ]
        expected = max(per_resource, default=0)
        got = ect_envelope_max([(lb, tuple(u * p for u in us)) for lb, p, us in tasks], caps)
        assert got == expected, (tasks, caps)


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
