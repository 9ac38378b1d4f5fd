import random
from itertools import combinations

import pytest

from dpcp import (
    AdapterFailure,
    Cumulative,
    Disjunctive,
    DomainStore,
    PrecedenceLe,
    propagate_fixpoint,
    propagate_once,
)

from dpcp import cp_engine
from dpcp.cp_engine import _edge_find_lower, ect_envelope_max

from conftest import (
    MICRO_FAMILIES,
    check_micro_model,
    domain_values,
    one_resource_envelope,
    random_domain,
    store_domains,
    store_of,
)


# --- domains ---------------------------------------------------------------

def test_interval_basics():
    store = store_of([(2, 9)])
    assert store.lbs[0] == 2 and store.ubs[0] == 9
    store.set_lb(0, 4)
    store.set_ub(0, 7)
    assert (store.lbs[0], store.ubs[0]) == (4, 7)
    assert store.contains(0, 4) and store.contains(0, 7)
    assert not store.contains(0, 3) and not store.contains(0, 8)
    store.set_lb(0, 3)  # weaker: no-op
    assert store.lbs[0] == 4
    store.set_lb(0, 7)
    assert not store.infeasible
    store.set_lb(0, 8)
    assert store.infeasible


def test_empty_domain_at_construction_flags_store():
    assert store_of([(4, 3)]).infeasible
    assert store_of([(0, 9), (1, 0)]).infeasible  # an empty second domain
    assert not store_of([(0, 0)]).infeasible


def test_unequal_bound_lists_raise_adapter_failure():
    with pytest.raises(AdapterFailure):
        DomainStore([0, 1], [5])


def test_infeasibility_is_sticky():
    store = store_of([(0, 1), (0, 9)])
    store.set_lb(0, 5)
    assert store.infeasible
    store.set_ub(1, 3)  # ignored once infeasible
    assert store_domains(store)[1] == (0, 9)


@pytest.mark.parametrize("x", [3, -1])
def test_bad_variable_id_raises_adapter_failure(x):
    # 3 is the variable count; -1 must not wrap around to the last variable.
    store = store_of([(0, 1), (5, 9), (2, 4)])
    calls = {
        "contains": lambda: store.contains(x, 3),
        "set_lb": lambda: store.set_lb(x, 3),
        "set_ub": lambda: store.set_ub(x, 3),
    }
    for name, call in calls.items():
        with pytest.raises(AdapterFailure):
            call()
            pytest.fail(f"{name}({x}) did not raise")
    assert store_domains(store) == [(0, 1), (5, 9), (2, 4)]
    assert store.revision == 0 and not store.infeasible


# --- propagators: pinned examples -------------------------------------------

def test_propagate_once_empty_list_identity():
    store = store_of([(0, 9)])
    before = store.revision
    propagate_once(store, [])
    assert store.revision == before


def test_precedence_single_application():
    store = store_of([(0, 10), (0, 10)])
    propagate_once(store, [PrecedenceLe([(0, 4, 1)])])
    assert (store.lbs[1], store.ubs[1]) == (4, 10)
    assert (store.lbs[0], store.ubs[0]) == (0, 6)


def test_precedence_infeasible():
    store = store_of([(8, 10), (0, 5)])
    propagate_once(store, [PrecedenceLe([(0, 4, 1)])])
    assert store.infeasible


def test_precedence_chain_fixpoint():
    store = store_of([(0, 10) for _ in range(3)])
    propagate_fixpoint(store, [PrecedenceLe([(0, 1, 1)]), PrecedenceLe([(1, 1, 2)])])
    assert (store.lbs[0], store.ubs[0]) == (0, 8)
    assert (store.lbs[1], store.ubs[1]) == (1, 9)
    assert (store.lbs[2], store.ubs[2]) == (2, 10)


def test_fixpoint_noop_when_already_stable():
    store = store_of([(0, 8), (1, 9), (2, 10)])
    props = [PrecedenceLe([(0, 1, 1)]), PrecedenceLe([(1, 1, 2)])]
    propagate_fixpoint(store, props)
    rev = store.revision
    propagate_fixpoint(store, props)
    assert store.revision == rev


def reference_precedence(store, arcs):
    """One single-arc propagator per arc, run in sequence, with range-checked
    reads and unconditional writes: the oracle for ``PrecedenceLe``."""
    for i, offset, j in arcs:
        if store.infeasible:
            return
        lbs, ubs = store.bounds(min(i, j), max(i, j))
        store.set_lb(j, lbs[i] + offset)
        if store.infeasible:
            return
        store.set_ub(i, ubs[j] - offset)


def snapshot(store):
    return (
        store.infeasible,
        store.revision,
        store_domains(store),
    )


def random_store_domains(rng, k, max_value=30):
    """Interval domains; about one store in twenty starts with an empty
    domain, so it is infeasible on entry."""
    domains = [random_domain(rng, max_value, max_size=max_value) for _ in range(k)]
    if rng.random() < 0.05:
        domains[rng.randrange(k)] = (5, 4)
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
        expected = store_of(domains)
        reference_precedence(expected, arcs)
        got = store_of(domains)
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
        store = store_of([(0, 9), (0, 9)])
        with pytest.raises(AdapterFailure):
            apply(store, arcs)


def test_edge_finding_lifts_competing_job():
    store = store_of([(0, 10), (1, 2)])
    Disjunctive([(0, 5), (1, 3)]).propagate(store)
    assert store.lbs[0] == 4
    assert (store.lbs[1], store.ubs[1]) == (1, 2)


def test_edge_finding_lowers_latest_start_of_competing_job():
    # The time-reversed case: job 0 cannot follow job 1, so it ends by 9.
    store = store_of([(0, 10), (8, 9)])
    Disjunctive([(0, 5), (1, 3)]).propagate(store)
    assert store.ubs[0] == 4
    assert (store.lbs[1], store.ubs[1]) == (8, 9)


def test_edge_finding_single_job_unchanged():
    store = store_of([(3, 7)])
    Disjunctive([(0, 2)]).propagate(store)
    assert (store.lbs[0], store.ubs[0]) == (3, 7)


def test_edge_finding_overload_infeasible():
    store = store_of([(0, 0), (0, 0)])
    Disjunctive([(0, 5), (1, 3)]).propagate(store)
    assert store.infeasible


def test_edge_finding_matches_once_and_fixpoint():
    def fresh():
        return store_of([(0, 10), (1, 2)])

    props = [Disjunctive([(0, 5), (1, 3)])]
    once = propagate_once(fresh(), props)
    fixed = propagate_fixpoint(fresh(), props)
    assert store_domains(once) == store_domains(fixed)


@pytest.mark.parametrize("bad", [4, -1])
def test_disjunctive_out_of_range_id_raises(bad):
    store = store_of([(0, 9), (0, 9)])
    with pytest.raises(AdapterFailure):
        Disjunctive([(0, 2), (bad, 2)]).propagate(store)


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


def test_disjunctive_vardur_matches_reference(monkeypatch):
    # Starts at ids 0..k-1 next to k more variables, each job's duration
    # being the lower bound of its partner at k..2k-1.  The upper bounds
    # are drawn but unused, keeping the draws of every set.
    rng = random.Random(77)
    changed = infeasible = 0
    for _ in range(600):
        k = rng.randint(1, 14)
        horizon = rng.randint(10, 80)
        domains = []
        for _ in range(k):
            lo = rng.randint(0, horizon)
            domains.append((lo, rng.randint(lo, horizon)))
        for _ in range(k):
            lo = rng.randint(1, 11)
            domains.append((lo, rng.randint(lo, 11)))
        props = [Disjunctive([(i, domains[k + i][0]) for i in range(k)])]
        results = []
        for finder in (reference_edge_find_lower, _edge_find_lower):
            monkeypatch.setattr(cp_engine, "_edge_find_lower", finder)
            results.append(snapshot(propagate_once(store_of(domains), props)))
        assert results[0] == results[1]
        infeasible += results[1][0]
        changed += results[1][1] > 0 and not results[1][0]
    assert changed >= 50 and infeasible >= 50, (changed, infeasible)


def test_time_table_lifts_past_compulsory_block():
    store = store_of([(2, 2), (0, 8)])
    Cumulative([(0, 4, 2), (1, 3, 1)], 2).propagate(store)
    assert (store.lbs[1], store.ubs[1]) == (6, 8)


def test_time_table_usage_exceeds_capacity():
    store = store_of([(0, 5)])
    Cumulative([(0, 2, 3)], 2).propagate(store)
    assert store.infeasible


def test_time_table_no_compulsory_parts_unchanged():
    store = store_of([(0, 20), (0, 20)])
    Cumulative([(0, 3, 2), (1, 4, 2)], 2).propagate(store)
    assert (store.lbs[0], store.ubs[0]) == (0, 20)
    assert (store.lbs[1], store.ubs[1]) == (0, 20)


class ReferenceCumulative:
    """Time-table filtering with range-checked reads and an unconditional
    write of every new bound: the oracle for ``Cumulative``."""

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
        ids = [v for v, _p, _u in live]
        lbs, ubs = store.bounds(min(ids), max(ids))
        bounds = {v: (lbs[v], ubs[v]) for v in ids}
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
            domains.append((lo, lo + rng.randint(0, 6)))
        if rng.random() < 0.05:
            domains[rng.randrange(k)] = (5, 4)
        tasks = [
            (rng.randrange(k), rng.randint(0, 6), rng.randint(0, cap + (rng.random() < 0.05)))
            for _ in range(rng.randint(1, 6))
        ]
        results = []
        for cls in (ReferenceCumulative, Cumulative):
            store = store_of(domains)
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
        store = store_of([(0, 9), (0, 9)])
        with pytest.raises(AdapterFailure):
            cls([(0, 2, 1), (bad, 2, 1)], 2).propagate(store)


def test_cumulative_repeated_variable_uses_entry_bounds():
    # Tasks 1 and 2 share variable 0.  Both sweeps start from its entry
    # window [3, 4]: task 1 is lifted to 4, and task 2, which would then run
    # on [4, 5) next to task 1's compulsory part, is lifted to 5, emptying
    # the domain.  A sweep that read the bounds task 1 had just written
    # would leave [4, 4] feasible.
    tasks = [(1, 1, 1), (0, 2, 1), (0, 1, 1)]
    for cls in (ReferenceCumulative, Cumulative):
        store = store_of([(3, 4), (3, 3)])
        cls(tasks, 1).propagate(store)
        assert store.infeasible, cls


# --- the live mask ------------------------------------------------------------

def store_with_live(domains, live):
    store = store_of(domains)
    store.live = live
    return store


def test_store_defaults_to_every_variable_live():
    store = store_of([(0, 1), (0, 1)])
    assert store.live == -1
    assert DomainStore([0], [1], 0b1).live == 0b1


def test_disjunctive_skips_dead_variables():
    # Both jobs pinned at 0 overload, and job 1 lifts job 0 to 4; with
    # variable 1 dead neither happens.
    props = [Disjunctive([(0, 5), (1, 3)])]
    for domains, live in (([(0, 0), (0, 0)], 0b01), ([(0, 10), (1, 2)], 0b01)):
        store = propagate_once(store_with_live(domains, live), props)
        assert not store.infeasible and store.revision == 0
        assert store_domains(store) == domains
    # With variable 0 dead, job 1 alone is unchanged as well.
    store = propagate_once(store_with_live([(0, 0), (0, 0)], 0b10), props)
    assert not store.infeasible and store.revision == 0


def test_cumulative_skips_dead_variables():
    # Task 0's compulsory block lifts task 1 to 6; dead, it lifts nothing.
    store = store_with_live([(2, 2), (0, 8)], 0b10)
    Cumulative([(0, 4, 2), (1, 3, 1)], 2).propagate(store)
    assert store_domains(store) == [(2, 2), (0, 8)] and store.revision == 0
    # Two pinned blocks of usage 2 overload capacity 2 only while both live.
    tasks = [(0, 3, 2), (1, 3, 2)]
    for live, infeasible in ((-1, True), (0b11, True), (0b01, False), (0b10, False), (0, False)):
        store = store_with_live([(0, 0), (0, 0)], live)
        Cumulative(tasks, 2).propagate(store)
        assert store.infeasible is infeasible, live


def test_cumulative_overfull_task_empties_only_a_store_where_it_is_live():
    # Task 0 alone uses 3 of capacity 2: one object over both tasks fails
    # a store exactly when variable 0 is live.
    prop = Cumulative([(0, 2, 3), (1, 2, 1)], 2)
    for live, infeasible in ((-1, True), (0b01, True), (0b11, True), (0b10, False), (0, False)):
        store = store_with_live([(0, 5), (0, 5)], live)
        prop.propagate(store)
        assert store.infeasible is infeasible, live
        assert store_domains(store) == [(0, 5), (0, 5)]


def test_live_mask_matches_propagators_over_the_live_items():
    # A propagator over every item, on a store with a random live mask,
    # does what one built over the live items alone does on a store where
    # every variable is live; dead domains are never touched.
    rng = random.Random(2323)
    outcomes = {"infeasible": 0, "tightened": 0, "unchanged": 0}
    for _ in range(3000):
        k = rng.randint(1, 7)
        cap = rng.randint(1, 4)
        domains = []
        for _ in range(k):
            lo = rng.randint(0, 12)
            domains.append((lo, lo + rng.randint(0, 5)))
        live = rng.getrandbits(k)
        if rng.random() < 0.5:
            items = [(v, rng.randint(0, 6)) for v in range(k)]
            full, alive = Disjunctive(items), Disjunctive(
                [item for item in items if live >> item[0] & 1]
            )
        else:
            items = [(v, rng.randint(0, 6), rng.randint(0, cap)) for v in range(k)]
            full, alive = Cumulative(items, cap), Cumulative(
                [item for item in items if live >> item[0] & 1], cap
            )
        got = store_with_live(domains, live)
        full.propagate(got)
        expected = store_of(domains)
        alive.propagate(expected)
        assert snapshot(got) == snapshot(expected), (domains, items, live)
        for v in range(k):
            if not live >> v & 1:
                assert (got.lbs[v], got.ubs[v]) == domains[v]
        if expected.infeasible:
            outcomes["infeasible"] += 1
        else:
            outcomes["tightened" if expected.revision else "unchanged"] += 1
    assert min(outcomes.values()) >= 200, outcomes


def test_ect_envelope_examples():
    assert one_resource_envelope([(0, 3, 2)], 2) == 3
    assert one_resource_envelope([(0, 3, 2), (4, 2, 2)], 2) == 6
    assert one_resource_envelope([], 2) == 0


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
        assert one_resource_envelope(tasks, cap) == brute_force_envelope(tasks, cap)


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
    # A string seed goes through SHA-512, not the per-process salted hash.
    rng = random.Random(f"micro:{family}")
    build = MICRO_FAMILIES[family]
    for _ in range(120):
        check_micro_model(*build(rng))


def test_fixpoint_is_idempotent_for_every_propagator():
    rng = random.Random(99)
    for family, build in sorted(MICRO_FAMILIES.items()):
        for _ in range(40):
            domains, props, _check = build(rng)
            store = propagate_fixpoint(store_of(domains), props)
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
            store = propagate_once(store_of(domains), props)
            if store.infeasible:
                continue
            for prior, domain in zip(before, store_domains(store)):
                assert set(domain_values(domain)) <= prior
