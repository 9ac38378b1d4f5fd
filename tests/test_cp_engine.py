import random

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
from dpcp.cp_engine import _edge_find_lower

from conftest import (
    MICRO_FAMILIES,
    check_micro_model,
    domain_values,
    random_domain,
    store_domains,
    store_of,
)


# --- domains ---------------------------------------------------------------

def test_set_lb_only_raises_and_empties_the_domain_past_ub():
    store = store_of([(2, 9)])
    assert store.lbs[0] == 2 and store.ubs[0] == 9
    store.set_lb(0, 4)
    assert (store.lbs[0], store.ubs[0]) == (4, 9)
    store.set_lb(0, 3)  # weaker: no-op
    assert store.lbs[0] == 4
    store.set_lb(0, 9)
    assert not store.infeasible
    store.set_lb(0, 10)
    assert store.infeasible


def test_empty_domain_at_construction_flags_store():
    assert store_of([(4, 3)]).infeasible
    assert store_of([(0, 9), (1, 0)]).infeasible  # an empty second domain
    assert not store_of([(0, 0)]).infeasible


def test_unequal_bound_lists_raise_adapter_failure():
    with pytest.raises(AdapterFailure):
        DomainStore([0, 1], [5], -1)


def test_infeasibility_is_sticky():
    store = store_of([(0, 1), (0, 9)])
    store.set_lb(0, 5)
    assert store.infeasible
    store.set_lb(1, 3)  # ignored once infeasible
    assert store_domains(store)[1] == (0, 9)


@pytest.mark.parametrize("x", [3, -1])
def test_bad_variable_id_raises_adapter_failure(x):
    # 3 is the variable count; -1 must not wrap around to the last variable.
    store = store_of([(0, 1), (5, 9), (2, 4)])
    with pytest.raises(AdapterFailure):
        store.set_lb(x, 3)
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
    assert (store.lbs[0], store.ubs[0]) == (0, 10)


def test_precedence_infeasible():
    store = store_of([(8, 10), (0, 5)])
    propagate_once(store, [PrecedenceLe([(0, 4, 1)])])
    assert store.infeasible


def test_precedence_chain_fixpoint():
    store = store_of([(0, 10) for _ in range(3)])
    propagate_fixpoint(store, [PrecedenceLe([(0, 1, 1)]), PrecedenceLe([(1, 1, 2)])])
    assert (store.lbs[0], store.ubs[0]) == (0, 10)
    assert (store.lbs[1], store.ubs[1]) == (1, 10)
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
        lbs, _ubs = store.bounds(min(i, j), max(i, j))
        store.set_lb(j, lbs[i] + offset)


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


@pytest.mark.parametrize(
    "est_i, expected",
    [
        # i packs with A and B in [0, 10]: B from 5, A from 0, then i.
        (1, {}),
        # i from 6 and B from 5 overrun [5, 10]: i follows T_10 = {A, B}.
        (6, {"i": 7}),
    ],
)
def test_edge_finder_exact_test_outcomes(est_i, expected):
    # At b = 10, ECT(T_b) is 7 and the slack 3.  Job i starts before 7, is
    # longer than the slack and could finish alone by 10, so only the exact
    # test over T_b decides it.
    jobs = [(0, 2, 10, "A"), (5, 2, 10, "B"), (est_i, 4, 20, "i")]
    assert _edge_find_lower(jobs) == reference_edge_find_lower(jobs) == expected


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
        # Mirrored sets are not what Disjunctive passes; they are kept only
        # as more inputs for the finder.
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


def common_est_job_set(rng, n):
    """``n`` jobs that share one est, as the pending jobs of an SMS state
    do once all are released.  Windows are drawn about as wide as the
    total duration, so overloads, lifts and unchanged sets are all
    common."""
    est = rng.randint(0, 40)
    ps = [rng.randint(1, 10) for _ in range(n)]
    span = int(sum(ps) * rng.uniform(0.7, 1.3))
    return [
        (est, p, est + p + rng.randint(0, span), key) for key, p in enumerate(ps)
    ]


def test_edge_finder_common_est_matches_cubic_reference():
    rng = random.Random(2025)
    job_sets = [common_est_job_set(rng, rng.randint(1, 16)) for _ in range(1500)]
    assert all(cp_engine._common_est(js) == js[0][0] for js in job_sets)
    assert_matches_cubic_reference(job_sets)


def disjunctive_jobs(store, items):
    """The ``(est, p, lct, v)`` jobs ``Disjunctive`` filters on ``store``."""
    lbs, ubs, live = store.lbs, store.ubs, store.live
    return [(lbs[v], p, ubs[v] + p, v) for v, p in items if p > 0 and live >> v & 1]


def reference_disjunctive(store, items):
    """``Disjunctive``'s one pass over earliest starts through the cubic
    reference finder."""
    jobs = disjunctive_jobs(store, items)
    if not jobs:
        return
    lifts = reference_edge_find_lower(jobs)
    if lifts is None:
        store.mark_infeasible()
        return
    for v, new_est in lifts.items():
        store.set_lb(v, new_est)


def test_disjunctive_common_est_store_matches_both_reference_passes():
    # Live jobs with a duration share one est; dead variables and
    # zero-duration items get any window, so they must be skipped both in
    # the edge-finding and in the test that picks its common-est case.
    rng = random.Random(1604)
    outcomes = {"infeasible": 0, "tightened": 0, "unchanged": 0}
    for _ in range(1500):
        k = rng.randint(1, 16)
        est = rng.randint(0, 40)
        ps = [0 if rng.random() < 0.1 else rng.randint(1, 10) for _ in range(k)]
        span = int(sum(ps) * rng.uniform(0.7, 1.3))
        live = rng.getrandbits(k)
        domains = []
        for v, p in enumerate(ps):
            if p and live >> v & 1:
                domains.append((est, est + rng.randint(0, span)))
            else:
                lo = rng.randint(0, 60)
                domains.append((lo, lo + rng.randint(0, 20)))
        items = list(enumerate(ps))
        expected = store_with_live(domains, live)
        reference_disjunctive(expected, items)
        got = store_with_live(domains, live)
        Disjunctive(items).propagate(got)
        assert snapshot(got) == snapshot(expected), (domains, live, items)
        if expected.infeasible:
            outcomes["infeasible"] += 1
        else:
            outcomes["tightened" if expected.revision else "unchanged"] += 1
    assert min(outcomes.values()) >= 150, outcomes


def test_disjunctive_never_lowers_latest_starts():
    # Ests come from three values, so ties are common, next to random live
    # masks and zero durations.  Disjunctive does the forward reference
    # pass alone: it writes no upper bound, also on the stores where edge-
    # finding over the time-reversed jobs would lower a latest start.
    # About one store in twenty starts with an empty domain, drawn from a
    # generator of its own so that the other draws stay as they were: such
    # a store must come out exactly as it went in.
    rng, empty_rng = random.Random(2904), random.Random(2905)
    outcomes = {"infeasible": 0, "tightened": 0, "unchanged": 0, "reversed_lowers": 0}
    for _ in range(1500):
        k = rng.randint(1, 12)
        horizon = rng.randint(10, 60)
        ps = [0 if rng.random() < 0.1 else rng.randint(1, horizon // 4) for _ in range(k)]
        domains = []
        for _ in range(k):
            lo = rng.choice((0, horizon // 4, horizon // 2))
            domains.append((lo, lo + rng.randint(0, horizon // 2)))
        if empty_rng.random() < 0.05:
            domains[empty_rng.randrange(k)] = (5, 4)
        live = rng.getrandbits(k)
        items = list(enumerate(ps))
        expected = store_with_live(domains, live)
        reference_disjunctive(expected, items)
        got = store_with_live(domains, live)
        Disjunctive(items).propagate(got)
        assert snapshot(got) == snapshot(expected), (domains, live, items)
        if got.infeasible:
            outcomes["infeasible"] += 1
            continue
        assert got.ubs == [ub for _lb, ub in domains], (domains, live, items)
        outcomes["tightened" if got.revision else "unchanged"] += 1
        jobs = disjunctive_jobs(store_with_live(domains, live), items)
        if jobs and reference_edge_find_lower(
            [(-lct, p, -est, v) for est, p, lct, v in jobs]
        ):
            outcomes["reversed_lowers"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_disjunctive_matches_reference_finder(monkeypatch):
    # Starts at ids 0..k-1 next to k more variables, each job's constant
    # duration being the lower bound of its partner at k..2k-1.  The upper
    # bounds are drawn but unused, keeping the draws of every set.  The patch
    # replaces the whole finder, its common-est case included.
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
    write of every new lower bound: the oracle for ``Cumulative``."""

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
        new_lbs = []
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
            new_lbs.append((v, new_lb))
        for v, new_lb in new_lbs:
            store.set_lb(v, new_lb)
            if store.infeasible:
                return


def test_cumulative_matches_reference():
    rng = random.Random(4242)
    outcomes = {"infeasible": 0, "tightened": 0, "unchanged": 0}
    for _ in range(7000):
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
    # Propagators lift lower bounds alone: every upper bound leaves as it
    # entered, on an emptied store too.
    rng = random.Random(123)
    for family, build in sorted(MICRO_FAMILIES.items()):
        for _ in range(40):
            domains, props, _check = build(rng)
            before = [set(domain_values(d)) for d in domains]
            store = propagate_once(store_of(domains), props)
            assert store.ubs == [hi for _lo, hi in domains], (family, domains)
            if store.infeasible:
                continue
            for prior, domain in zip(before, store_domains(store)):
                assert set(domain_values(domain)) <= prior
