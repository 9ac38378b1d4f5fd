import pytest

from dpcp import CostOverflow, INFINITY, add, is_finite
from dpcp.cost import MAX_COST, check_ceiling, cost_to_json


def test_infinity_ordering():
    assert INFINITY > 10**18
    assert not (INFINITY < 0)
    assert 5 < INFINITY
    assert 5 <= INFINITY
    assert not (5 >= INFINITY)
    assert INFINITY >= INFINITY
    assert INFINITY <= INFINITY
    assert INFINITY == INFINITY
    assert INFINITY != 7


def test_infinity_absorbs_addition():
    assert add(INFINITY, 3) == INFINITY
    assert add(3, INFINITY) == INFINITY
    for x in (0, MAX_COST, INFINITY):
        assert add(INFINITY, x) == INFINITY
        assert add(x, INFINITY) == INFINITY
    assert add(MAX_COST, 0) == MAX_COST
    # Only an INFINITY operand saturates: a finite operand above MAX_COST
    # still overflows.
    with pytest.raises(CostOverflow):
        add(MAX_COST, 1)
    with pytest.raises(CostOverflow):
        add(INFINITY + 1, 0)


def test_finite_addition_exact():
    assert add(2, 3) == 5
    assert add(MAX_COST - 1, 1) == MAX_COST


def test_overflow_detected():
    with pytest.raises(CostOverflow):
        add(MAX_COST, 1)


def test_check_ceiling_refuses_only_above_max_cost():
    check_ceiling(0)
    check_ceiling(MAX_COST)
    with pytest.raises(CostOverflow, match="exceeds"):
        check_ceiling(INFINITY)


def test_min_max_mix():
    assert min(3, INFINITY) == 3
    assert max(3, INFINITY) == INFINITY
    assert sorted([INFINITY, 2, 9, INFINITY, 0])[:3] == [0, 2, 9]


def test_is_finite_and_json():
    assert is_finite(0) and not is_finite(INFINITY)
    assert cost_to_json(4) == 4
    assert cost_to_json(INFINITY) == "inf"
    assert cost_to_json(None) is None
