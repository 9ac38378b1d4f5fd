"""Differential and metamorphic checks at sizes the exhaustive oracles
refuse (n = 12-16, and n = 20 for SMS).

With no oracle to compare against, the answers are checked against each
other: both algorithms reach one status and cost in every propagation
mode, relabelling the jobs, locations (the depot stays 0) or tasks leaves
the optimum unchanged, and scaling every SMS weight by k scales it by k.
CABS's replay of kept expansions across passes is checked against the
same search with the replay switched off.
"""

import random
from collections import Counter
from pathlib import Path

import pytest

from dpcp import (
    PropagationMode,
    Registry,
    SolveStatus,
    astar,
    cabs,
    evaluate_solution,
    rcpsp,
    smswt,
    tsptw,
)
from dpcp.cli import PROBLEMS
from dpcp.search import _SolveContext

from conftest import random_rcpsp_instance, random_tsptw_instance, solve_all_modes

DATA = Path(__file__).parent / "data"


def sms_instances():
    rng = random.Random(5)
    for n in (12, 13, 14, 15, 16):
        config = smswt.SmsGeneratorConfig(
            n=n, tau=0.4, rho=0.05, phi=0.9, seed=rng.randrange(2**30)
        )
        yield smswt.generate_instances(config)[0]


def sms20_instances():
    # n = 20, as tight as ``sms_instances``: two infeasible draws and three
    # optimal ones, seeds taken from ``random.Random(20)``.
    for seed in (557975189, 363736680, 57939200, 883739050, 161078798):
        config = smswt.SmsGeneratorConfig(n=20, tau=0.4, rho=0.05, phi=0.9, seed=seed)
        yield smswt.generate_instances(config)[0]


def tsptw_instances():
    rng = random.Random(6)
    for n in (12, 13, 14, 15, 16):
        yield random_tsptw_instance(rng, n, widths=(20, 60))
    for n in (12, 14):
        yield random_tsptw_instance(rng, n)


def rcpsp_instances():
    rng = random.Random(7)
    for _ in range(4):
        yield random_rcpsp_instance(rng, 12, 12)


def sms_relabel(inst, perm):
    return smswt.SmsInstance(tuple(inst.jobs[i] for i in perm))


def tsptw_relabel(inst, perm):
    # New location a is old location perm[a].
    travel = [[inst.travel[i][j] for j in perm] for i in perm]
    return tsptw.TsptwInstance(travel, [inst.windows[i] for i in perm])


def rcpsp_relabel(inst, perm):
    new_of = {old: new for new, old in enumerate(perm)}
    return rcpsp.RcpspInstance(
        [inst.tasks[i] for i in perm],
        inst.capacities,
        [(new_of[i], new_of[j]) for i, j in inst.precedences],
    )


FAMILIES = {
    "smswt": (sms_instances, smswt.SmsModel, smswt.SmsAdapter, sms_relabel),
    "smswt-n20": (sms20_instances, smswt.SmsModel, smswt.SmsAdapter, sms_relabel),
    "tsptw": (tsptw_instances, tsptw.TsptwModel, tsptw.TsptwAdapter, tsptw_relabel),
    "rcpsp": (rcpsp_instances, rcpsp.RcpspModel, rcpsp.RcpspAdapter, rcpsp_relabel),
}


def agreed_answer(model, adapter):
    """The one ``(status, cost)`` of every algorithm and mode; each
    incumbent replays to its cost."""
    answers = {}
    for key, result in solve_all_modes(model, adapter).items():
        answers[key] = (result.status, result.cost)
        if result.incumbent is not None:
            assert evaluate_solution(model, result.solution) == result.cost, key
    assert len(set(answers.values())) == 1, answers
    answer = answers[("astar", PropagationMode.OFF)]
    assert answer[0] in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE)
    return answer


def answer_of(model, adapter, algo, mode):
    result = algo(model, adapter, mode=mode)
    return result.status, result.cost


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_algorithms_modes_and_labels_agree(family):
    draw, make_model, make_adapter, relabel = FAMILIES[family]
    rng = random.Random(family)
    statuses = set()
    for inst in draw():
        model = make_model(inst)
        answer = agreed_answer(model, make_adapter(model))
        statuses.add(answer[0])
        first = 1 if family == "tsptw" else 0  # the depot keeps its label
        perm = list(range(first, inst.n))
        rng.shuffle(perm)
        moved = make_model(relabel(inst, list(range(first)) + perm))
        assert answer_of(moved, None, astar, PropagationMode.OFF) == answer
        assert answer_of(moved, make_adapter(moved), cabs, PropagationMode.ONCE) == answer
    # Both outcomes are drawn where the families have infeasible instances.
    if family != "rcpsp":
        assert statuses == {SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE}


@pytest.mark.parametrize("k", [2, 7])
def test_sms_weight_scaling_scales_the_optimum(k):
    for inst in sms_instances():
        model = smswt.SmsModel(inst)
        status, cost = answer_of(model, None, astar, PropagationMode.OFF)
        jobs = tuple(
            smswt.SmsJob(p=j.p, r=j.r, d=j.d, deadline=j.deadline, w=k * j.w) for j in inst.jobs
        )
        scaled = smswt.SmsModel(smswt.SmsInstance(jobs))
        want = (status, None if cost is None else k * cost)
        assert answer_of(scaled, smswt.SmsAdapter(scaled), astar, PropagationMode.ONCE) == want
        assert answer_of(scaled, None, cabs, PropagationMode.OFF) == want


class Forgetful(dict):
    """A CABS table of kept expansions that never returns an entry."""

    def get(self, key, default=None):
        return default

    def pop(self, key, default=None):
        return default


def trajectory(result):
    """Everything a solve decides, without its wall-clock offsets."""
    m = result.metrics
    return (
        result.status, result.incumbent,
        [c for _, c in m.incumbent_trace], [c for _, c in m.dual_trace],
        m.beam_widths, m.expansions, m.generated, m.pruned_by_cp, m.stale_skips,
    )


def pops(result, mode):
    """The non-base pops of a solve, as its counters split them."""
    m = result.metrics
    if mode is PropagationMode.OFF:
        return m.expansions + m.pruned_by_f
    return m.propagation_calls + m.reused


def traced_cabs(patch, model, adapter, mode):
    """``cabs``'s result, the children it admitted in order as
    ``(parent state, label, state, g, f)``, and its model's calls to
    ``successors``, ``dual`` and, for TSPTW, ``assignment``."""
    admitted, calls = [], {"successors": 0, "dual": 0}
    if hasattr(model, "assignment"):
        calls["assignment"] = 0
    register = Registry.register

    def recorded(registry, *args):
        node = register(registry, *args)
        if node is not None and node.parent is not None:
            admitted.append((node.parent.state, node.label, node.state, node.g, node.f))
        return node

    def counted(name):
        inner = getattr(type(model), name).__get__(model)

        def call(*args):
            calls[name] += 1
            return inner(*args)

        return call

    patch.setattr(Registry, "register", recorded)
    for name in calls:
        patch.setattr(model, name, counted(name))
    return cabs(model, adapter, mode=mode), admitted, calls


@pytest.mark.parametrize("mode", list(PropagationMode))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cabs_reuse_leaves_the_search_unchanged(monkeypatch, family, mode):
    """Replaying a state's expansion from this pass or the last, whatever
    it decided at the earlier pop, changes no decision, in any propagation
    mode: every trajectory and every admitted child is that of the search
    without the tables, which calls the model's ``successors`` strictly
    more often, bounds strictly more often (the model's ``dual``, plus, for
    TSPTW, the ``assignment`` whose duals bound a propagated pop's
    children) and, with propagation on, propagates at every pop."""
    draw, make_model, make_adapter, _ = FAMILIES[family]
    reused = 0
    shipped_calls, fresh_calls = Counter(), Counter()
    for inst in draw():
        model = make_model(inst)

        def adapter():
            return None if mode is PropagationMode.OFF else make_adapter(model)

        with monkeypatch.context() as patch:
            shipped, shipped_admitted, calls = traced_cabs(patch, model, adapter(), mode)
            shipped_calls.update(calls)
        with monkeypatch.context() as patch:
            patch.setattr(
                _SolveContext, "start_pass",
                lambda ctx: setattr(ctx, "this_pass", Forgetful()),
            )
            fresh, fresh_admitted, calls = traced_cabs(patch, model, adapter(), mode)
            fresh_calls.update(calls)
        assert fresh.metrics.reused == 0
        assert trajectory(shipped) == trajectory(fresh)
        assert shipped_admitted == fresh_admitted
        assert pops(shipped, mode) == pops(fresh, mode)
        if mode is not PropagationMode.OFF:
            assert fresh.metrics.propagation_calls == pops(fresh, mode)
        reused += shipped.metrics.reused
    bounding = ("dual", "assignment")
    assert shipped_calls["successors"] < fresh_calls["successors"], (shipped_calls, fresh_calls)
    assert all(shipped_calls[name] <= fresh_calls[name] for name in bounding)
    assert sum(shipped_calls[name] for name in bounding) < sum(fresh_calls[name] for name in bounding)
    assert reused > 0


@pytest.mark.parametrize("mode", list(PropagationMode))
@pytest.mark.parametrize(
    "kind, name", [("smswt", "tiny_sms.json"), ("tsptw", "tiny_tsptw.txt"), ("rcpsp", "small.sm")]
)
def test_cabs_replays_kept_expansions_on_the_fixtures(kind, name, mode):
    """CABS replays some kept expansion on each fixture, in every mode, off
    included.  On tiny_tsptw.txt and small.sm every replay under once and
    fixpoint comes after the incumbent has improved, so a search that
    reuses stores only under an unchanged incumbent replays nothing there.
    One instance cannot take ``test_cabs_reuse_leaves_the_search_unchanged``'s
    check of fewer model calls: a replay of a pruned pop saves none."""
    problem = PROBLEMS[kind]
    model = problem.model(problem.module.load_instance(str(DATA / name)))
    assert cabs(model, problem.adapter(model), mode=mode).metrics.reused > 0


@pytest.mark.parametrize("mode", [PropagationMode.ONCE, PropagationMode.FIXPOINT])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cabs_builds_a_state_at_most_once_per_two_passes(monkeypatch, family, mode):
    """A state popped again in the same CABS pass or the next reuses its
    kept store, whatever that store decided at the earlier pop and under
    any later incumbent: its CP model is never built twice within two
    consecutive passes.  The fourth ``sms_instances`` draw has a state
    whose store pruned its pop and that is popped again, at a smaller path
    cost, in the next pass."""
    draw, make_model, make_adapter, _ = FAMILIES[family]
    start_pass = _SolveContext.start_pass
    passes = 0

    def counted(ctx):
        nonlocal passes
        passes += 1
        start_pass(ctx)

    monkeypatch.setattr(_SolveContext, "start_pass", counted)
    reused = 0
    for inst in draw():
        model = make_model(inst)
        adapter = make_adapter(model)
        built = {}  # state -> the pass of its latest build

        def build(state, inner=adapter.build, built=built):
            assert built.get(state, -2) < passes - 1, state
            built[state] = passes
            return inner(state)

        adapter.build = build
        reused += cabs(model, adapter, mode=mode).metrics.reused
    assert reused > 0
