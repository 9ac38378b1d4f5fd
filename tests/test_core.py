import random

import pytest

from dpcp import (
    DepthExceeded,
    DpModel,
    INFINITY,
    InvalidTransition,
    NotBase,
    SolveLimits,
    astar,
    brute_force_value,
    enumerate_state_values,
    evaluate_solution,
)
from dpcp import smswt

from conftest import random_sms_instance


def two_job_model():
    inst = smswt.SmsInstance(
        (smswt.SmsJob(2, 0, 2, 10, 1), smswt.SmsJob(3, 0, 3, 10, 2))
    )
    return smswt.SmsModel(inst)


def test_evaluate_solution_two_job():
    assert evaluate_solution(two_job_model(), [1, 0]) == 3
    assert evaluate_solution(two_job_model(), [0, 1]) == 4


def test_evaluate_solution_empty_on_base_target():
    model = smswt.SmsModel(smswt.SmsInstance(()))
    assert evaluate_solution(model, []) == 0


# A label that is no successor's, and a label after the base state.
@pytest.mark.parametrize("labels, step", [([0, 0], 1), ([1, 0, 1], 2)])
def test_evaluate_solution_invalid_transition(labels, step):
    with pytest.raises(InvalidTransition) as exc:
        evaluate_solution(two_job_model(), labels)
    assert exc.value.step == step


class OnwardBaseModel(DpModel):
    """The target ``"r"`` leads to the base state ``"b"``, which has a
    successor of its own, the base state ``"c"``."""

    def target_state(self):
        return "r"

    def is_base(self, state):
        return state != "r"

    def base_cost(self, state):
        return 0

    def successors(self, state):
        return {"r": [(1, 0, "b")], "b": [(1, 1, "c")]}.get(state, [])

    def dominates(self, a, b):
        return a == b

    def dual(self, state, floor=None):
        return 0

    def state_signature(self, state):
        return state


def test_evaluate_solution_stops_at_the_first_base_state():
    # The search never expands a base node, so a replay may not either,
    # even where the model offers a successor there.
    model = OnwardBaseModel()
    assert evaluate_solution(model, [0]) == 1
    with pytest.raises(InvalidTransition) as exc:
        evaluate_solution(model, [0, 1])
    assert (exc.value.step, exc.value.label) == (1, 1)


def test_evaluate_solution_not_base():
    with pytest.raises(NotBase):
        evaluate_solution(two_job_model(), [1])


def test_brute_force_two_job():
    model = two_job_model()
    assert brute_force_value(model, model.target_state()) == 3


def test_brute_force_base_state():
    model = two_job_model()
    assert brute_force_value(model, smswt.SmsState(0, 17)) == 0


def test_brute_force_infeasible_single_job():
    inst = smswt.SmsInstance((smswt.SmsJob(3, 5, 7, 7, 1),))
    model = smswt.SmsModel(inst)
    assert brute_force_value(model, model.target_state()) == INFINITY


def test_brute_force_depth_cap():
    model = two_job_model()
    with pytest.raises(DepthExceeded):
        brute_force_value(model, model.target_state(), depth_cap=1)


def test_dominance_implies_cheaper_oracle_value():
    rng = random.Random(11)
    for _ in range(30):
        inst = random_sms_instance(rng, rng.randint(2, 6))
        model = smswt.SmsModel(inst)
        values = enumerate_state_values(model)
        buckets = {}
        for state in values:
            buckets.setdefault(model.state_signature(state), []).append(state)
        for states in buckets.values():
            for a in states:
                for b in states:
                    if model.dominates(a, b):
                        assert values[a] <= values[b]


def test_replay_matches_reported_cost():
    rng = random.Random(13)
    for _ in range(20):
        inst = random_sms_instance(rng, rng.randint(2, 6))
        model = smswt.SmsModel(inst)
        result = astar(model)
        if result.incumbent is not None:
            cost, labels = result.incumbent
            assert evaluate_solution(model, labels) == cost


@pytest.mark.parametrize("name", ["time_limit", "memory_limit", "expansion_cap"])
@pytest.mark.parametrize("flag", [True, False])
def test_limits_reject_booleans(name, flag):
    with pytest.raises(ValueError, match=name):
        SolveLimits(**{name: flag})


@pytest.mark.parametrize("name", ["time_limit", "memory_limit"])
@pytest.mark.parametrize("value", ["5", [1], float("inf"), -float("inf")])
def test_limits_reject_non_numbers_and_infinity(name, value):
    # The one validator for every caller: no limit is compared with a string,
    # and an infinite one is refused as ``dpcp solve`` refuses it.
    with pytest.raises(ValueError, match=name):
        SolveLimits(**{name: value})


@pytest.mark.parametrize("cap", [1.5, 2.0, "3"])
def test_expansion_cap_must_be_an_integer(cap):
    with pytest.raises(ValueError, match="expansion_cap"):
        SolveLimits(expansion_cap=cap)
