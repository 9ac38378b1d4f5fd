"""Acceptance suite.

Every criterion runs at exact (zero) tolerance unless stated otherwise and
prints one line with its verdict; run with ``pytest tests/test_acceptance.py -v -s``
to see the lines for passing criteria too.
"""

import random
import statistics
from contextlib import contextmanager
from pathlib import Path

import pytest

from dpcp import (
    NegativeGap,
    PropagationMode,
    SolveLimits,
    SolveStatus,
    astar,
    brute_force_value,
    cabs,
    enumerate_state_values,
    evaluate_solution,
    is_finite,
    optimality_gap,
    propagate_once,
)
from dpcp import rcpsp, smswt, tsptw

from conftest import (
    MICRO_FAMILIES,
    ReferenceRcpspModel,
    check_micro_model,
    random_rcpsp_instance,
    random_sms_instance,
    random_tsptw_instance,
    rcpsp_clash_floor,
    solve_all_modes,
)
from test_rcpsp import brute_force_envelope

DATA = Path(__file__).parent / "data"

SMS_SEED = 1001
TSPTW_SEED = 42
RCPSP_SEED = 7


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {description}")
        raise
    print(f"criterion {num}: PASS - {description}")


def assert_dual_trace_admissible(result, oracle, key):
    """Every dual bound the run reported, at any time, is at most the
    oracle's optimum (trivially so when the oracle finds no solution)."""
    assert result.metrics.dual_trace, key
    for _t, value in result.metrics.dual_trace:
        assert value <= oracle, (key, value, oracle)


def sms_stream(count=200):
    rng = random.Random(SMS_SEED)
    for _ in range(count):
        yield random_sms_instance(rng, rng.randint(2, 8))


def tsptw_stream(count=200):
    rng = random.Random(TSPTW_SEED)
    for _ in range(count):
        yield random_tsptw_instance(rng, rng.randint(3, 9))


def rcpsp_stream(count=100):
    rng = random.Random(RCPSP_SEED)
    for _ in range(count):
        yield random_rcpsp_instance(rng, 8)


def test_criterion_1_sms_oracle_equivalence():
    with criterion(1, "SMS: 200 random instances match the exhaustive oracle in every mode, and every dual trace stays below it"):
        for inst in sms_stream():
            model = smswt.SmsModel(inst)
            adapter = smswt.SmsAdapter(model)
            oracle = brute_force_value(model, model.target_state())
            assert oracle == smswt.permutation_optimum(inst)
            for (algo, mode), result in solve_all_modes(model, adapter).items():
                assert_dual_trace_admissible(result, oracle, (algo, mode))
                if is_finite(oracle):
                    assert result.status is SolveStatus.OPTIMAL, (algo, mode)
                    assert result.cost == oracle, (algo, mode)
                else:
                    assert result.status is SolveStatus.INFEASIBLE, (algo, mode)


def test_criterion_2_tsptw_oracle_equivalence():
    with criterion(2, "TSPTW: 200 random instances match the permutation oracle in every mode, and every dual trace stays below it"):
        feasible = infeasible = 0
        for inst in tsptw_stream():
            model = tsptw.TsptwModel(inst)
            adapter = tsptw.TsptwAdapter(model)
            oracle = tsptw.permutation_optimum(inst)
            if is_finite(oracle):
                feasible += 1
            else:
                infeasible += 1
            for (algo, mode), result in solve_all_modes(model, adapter).items():
                assert_dual_trace_admissible(result, oracle, (algo, mode))
                if is_finite(oracle):
                    assert result.status is SolveStatus.OPTIMAL, (algo, mode)
                    assert result.cost == oracle, (algo, mode)
                else:
                    assert result.status is SolveStatus.INFEASIBLE, (algo, mode)
        # The suite is calibrated to contain about a quarter infeasible
        # instances (observed: 50 of 200 with this seed).
        assert 40 <= infeasible <= 60
        assert feasible >= 100


def test_criterion_3_rcpsp_oracle_equivalence():
    with criterion(3, "RCPSP: 100 random instances match the ordering oracle in every mode, and every dual trace stays below it"):
        for inst in rcpsp_stream():
            model = rcpsp.RcpspModel(inst)
            adapter = rcpsp.RcpspAdapter(model)
            oracle = rcpsp.ordering_optimum(inst)
            for (algo, mode), result in solve_all_modes(model, adapter).items():
                assert_dual_trace_admissible(result, oracle, (algo, mode))
                assert result.status is SolveStatus.OPTIMAL, (algo, mode)
                assert result.cost == oracle, (algo, mode)


def test_criterion_4_propagator_soundness():
    with criterion(4, "propagators: 1000 random micro-models each, no over-pruning or false infeasibility"):
        for family, build in sorted(MICRO_FAMILIES.items()):
            rng = random.Random(len(family) * 7919 + 13)
            for _ in range(1000):
                check_micro_model(*build(rng))


def test_criterion_5_bound_admissibility():
    with criterion(5, "every dual bound is at most the oracle value on every enumerated state"):
        for inst in sms_stream():
            model = smswt.SmsModel(inst)
            adapter = smswt.SmsAdapter(model)
            for state, value in enumerate_state_values(model).items():
                if model.is_base(state):
                    assert model.dual(state) == value == 0
                    continue
                assert model.dual(state) <= value
                if not is_finite(value):
                    continue
                store, props = adapter.build(state)
                propagate_once(store, props)
                if not store.infeasible:
                    assert adapter.dual_cp(state, store) <= value
        for inst in tsptw_stream():
            model = tsptw.TsptwModel(inst)
            adapter = tsptw.TsptwAdapter(model)
            for state, value in enumerate_state_values(model).items():
                if model.is_base(state) or not is_finite(value):
                    continue
                assert model.dual(state) <= value
                store, props = adapter.build(state)
                propagate_once(store, props)
                if not store.infeasible:
                    assert adapter.dual_cp(state, store) <= value
        for inst in rcpsp_stream():
            # Enumerate without transition pruning so values are the plain
            # Bellman optima of every reachable state.
            model = ReferenceRcpspModel(inst, left_shift=False)
            adapter = rcpsp.RcpspAdapter(model)
            for state, value in enumerate_state_values(model).items():
                if model.is_base(state):
                    continue
                assert model.dual(state) <= value
                store, props = adapter.build(state)
                propagate_once(store, props)
                if not store.infeasible:
                    finish = max(
                        store.lbs[i] + inst.tasks[i].duration
                        for i, s in enumerate(state.starts)
                        if s is None
                    )
                    assert finish - state.estimate <= value
                    assert adapter.dual_cp(state, store) <= value


def test_criterion_6_propagation_reduces_expansions():
    with criterion(6, "tight SMS family: propagation lowers median CABS expansions; root-infeasible runs expand nothing"):
        config = smswt.SmsGeneratorConfig(
            n=12, tau=0.4, rho=0.05, phi=0.9, seed=606, count=50
        )
        limits = SolveLimits(expansion_cap=300_000)
        off_expansions = []
        once_expansions = []
        for inst in smswt.generate_instances(config):
            model = smswt.SmsModel(inst)
            adapter = smswt.SmsAdapter(model)
            off = cabs(model, None, limits=limits, mode=PropagationMode.OFF)
            once = cabs(model, adapter, limits=limits, mode=PropagationMode.ONCE)
            off_expansions.append(off.metrics.expansions)
            once_expansions.append(once.metrics.expansions)
            store, props = adapter.build(model.target_state())
            propagate_once(store, props)
            if store.infeasible:
                assert once.status is SolveStatus.INFEASIBLE
                assert once.metrics.expansions == 0
        assert statistics.median(once_expansions) <= statistics.median(off_expansions)


def test_criterion_7_optimality_gap_units():
    with criterion(7, "optimality gap unit cases are exact and negative gaps abort"):
        assert optimality_gap(100, 75) == 0.25
        assert optimality_gap(0, 0) == 0.0
        assert optimality_gap(None, 0) == 1.0
        with pytest.raises(NegativeGap):
            optimality_gap(75, 100)


def test_criterion_8_cabs_anytime_and_completeness():
    with criterion(8, "CABS traces strictly improve and final answers equal best-first search"):
        for inst in sms_stream():
            model = smswt.SmsModel(inst)
            adapter = smswt.SmsAdapter(model)
            for mode in (PropagationMode.OFF, PropagationMode.ONCE):
                use = None if mode is PropagationMode.OFF else adapter
                beam = cabs(model, use, mode=mode)
                best_first = astar(model, use, mode=mode)
                costs = [c for _t, c in beam.metrics.incumbent_trace]
                assert all(a > b for a, b in zip(costs, costs[1:]))
                assert beam.status is best_first.status
                assert beam.cost == best_first.cost


def test_criterion_9_envelope_matches_subset_brute_force():
    with criterion(9, "RCPSP completion envelope equals subset brute force on 1000 random inputs"):
        rng = random.Random(5)
        binding = 0
        for _ in range(1000):
            k = rng.randint(1, 10)
            cap = rng.randint(1, 5)
            tasks = [
                (rng.randint(0, 30), rng.randint(1, 8), rng.randint(0, cap))
                for _ in range(k)
            ]
            # One resource and no precedences: each task's tail is its
            # duration, and at the root the start floors are the ``lb``s.
            inst = rcpsp.RcpspInstance(
                [rcpsp.RcpspTask(p, (u,)) for _lb, p, u in tasks], (cap,), ()
            )
            model = rcpsp.RcpspModel(inst)
            root = model.target_state()
            got = root.estimate + model.dual(root, [lb for lb, _p, _u in tasks])
            envelope = brute_force_envelope(tasks, cap)
            tails = max(lb + p for lb, p, _u in tasks)
            clash = rcpsp_clash_floor(inst, root)
            assert got == max(envelope, tails, clash), (tasks, cap)
            binding += envelope > max(tails, clash)
        # The envelope, not a tail or the clash floor, is the bound on many
        # of the inputs.
        assert binding > 150, binding


def test_criterion_10_format_round_trips():
    with criterion(10, "PSPLIB and matrix fixtures reparse through canonical JSON to identical costs"):
        inst = rcpsp.parse_psplib((DATA / "small.sm").read_text(), "small.sm")
        again = rcpsp.RcpspInstance.from_json(inst.to_json())
        direct = astar(rcpsp.RcpspModel(inst))
        reparsed = astar(rcpsp.RcpspModel(again))
        assert direct.status is reparsed.status is SolveStatus.OPTIMAL
        assert direct.cost == reparsed.cost
        assert evaluate_solution(rcpsp.RcpspModel(again), reparsed.solution) == direct.cost

        tiny = tsptw.parse_matrix((DATA / "tiny_tsptw.txt").read_text(), "tiny_tsptw.txt")
        tiny_again = tsptw.TsptwInstance.from_json(tiny.to_json())
        direct = astar(tsptw.TsptwModel(tiny))
        reparsed = astar(tsptw.TsptwModel(tiny_again))
        assert direct.status is reparsed.status is SolveStatus.OPTIMAL
        assert direct.cost == reparsed.cost == 9
