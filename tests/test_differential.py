"""Differential and metamorphic checks at sizes the exhaustive oracles
refuse (n = 12-16).

With no oracle to compare against, the answers are checked against each
other: both algorithms reach one status and cost in every propagation
mode, relabelling the jobs, locations (the depot stays 0) or tasks leaves
the optimum unchanged, and scaling every SMS weight by k scales it by k.
CABS's reuse of propagation outcomes across passes is checked against
the same search with reuse switched off.
"""

import random

import pytest

from dpcp import (
    PropagationMode,
    SolveStatus,
    astar,
    cabs,
    evaluate_solution,
    rcpsp,
    smswt,
    tsptw,
)
from dpcp.search import _SolveContext

from conftest import random_rcpsp_instance, random_tsptw_instance, solve_all_modes


def sms_instances():
    rng = random.Random(5)
    for n in (12, 13, 14, 15, 16):
        config = smswt.SmsGeneratorConfig(
            n=n, tau=0.4, rho=0.05, phi=0.9, seed=rng.randrange(2**30)
        )
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
    """A table of propagation outcomes that never returns an entry."""

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


@pytest.mark.parametrize("mode", [PropagationMode.ONCE, PropagationMode.FIXPOINT])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cabs_reuse_leaves_the_search_unchanged(monkeypatch, family, mode):
    """Reusing a state's propagated store or prune from this pass or the
    last changes no decision; it only replaces propagation calls."""
    draw, make_model, make_adapter, _ = FAMILIES[family]
    reused = 0
    for inst in draw():
        model = make_model(inst)
        shipped = cabs(model, make_adapter(model), mode=mode)
        with monkeypatch.context() as patch:
            patch.setattr(
                _SolveContext, "start_pass",
                lambda ctx: setattr(ctx, "this_pass", Forgetful()),
            )
            fresh = cabs(model, make_adapter(model), mode=mode)
        assert fresh.metrics.reused == 0
        assert trajectory(shipped) == trajectory(fresh)
        calls = shipped.metrics.propagation_calls + shipped.metrics.reused
        assert calls == fresh.metrics.propagation_calls
        reused += shipped.metrics.reused
    assert reused > 0
