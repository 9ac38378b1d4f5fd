import pytest

from dpcp import INFINITY, NegativeGap, RunMetrics, optimality_gap


def test_gap_examples():
    assert optimality_gap(100, 75) == 0.25
    assert optimality_gap(0, 0) == 0.0
    assert optimality_gap(None, 0) == 1.0
    assert optimality_gap(None, INFINITY) == 1.0


def test_gap_negative_raises():
    with pytest.raises(NegativeGap):
        optimality_gap(10, 11)
    with pytest.raises(NegativeGap):
        optimality_gap(10, INFINITY)


def test_gap_small_primal_guard():
    assert optimality_gap(1, 0) == 1.0
    assert optimality_gap(2, 1) == 0.5


def test_metrics_json_shape():
    m = RunMetrics()
    m.incumbent_trace.append((0.5, 9))
    m.dual_trace.append((0.1, INFINITY))
    data = m.to_json()
    assert data["incumbent_trace"] == [[0.5, 9]]
    assert data["dual_trace"] == [[0.1, "inf"]]
    assert data["final_gap"] == 1.0


def test_final_gap_recomputable_from_last_traces():
    from dpcp import SolveLimits, SolveStatus, cabs
    from dpcp.smswt import SmsInstance, SmsJob, SmsModel

    # With every release 0 the root dual would equal the optimum, and CABS
    # would end before the expansion cap; releases keep the cap firing.
    jobs = tuple(
        SmsJob(p, r, p + r, 60, 2) for p, r in zip((2, 3, 4, 2, 3, 4), (4, 0, 0, 4, 4, 0))
    )
    model = SmsModel(SmsInstance(jobs))

    optimal = cabs(model)
    assert optimal.status is SolveStatus.OPTIMAL
    assert optimal.metrics.dual_trace[-1][1] == optimal.cost
    assert optimal.metrics.final_gap == optimality_gap(
        optimal.cost, optimal.metrics.dual_trace[-1][1]
    ) == 0.0

    capped = cabs(model, limits=SolveLimits(expansion_cap=8))
    assert capped.status is SolveStatus.EXPANSION_LIMIT
    assert capped.incumbent is not None
    assert capped.metrics.final_gap == optimality_gap(
        capped.cost, capped.metrics.dual_trace[-1][1]
    ) > 0

    starved = cabs(model, limits=SolveLimits(expansion_cap=0))
    assert starved.incumbent is None
    assert starved.metrics.final_gap == 1.0

    infeasible = cabs(SmsModel(SmsInstance((SmsJob(3, 5, 7, 7, 1),))))
    assert infeasible.status is SolveStatus.INFEASIBLE
    assert infeasible.metrics.final_gap == 0.0
