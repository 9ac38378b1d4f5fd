"""Integer cost values with a saturating infinity.

A cost is a plain ``int``; there is no floating point.  Finite costs lie in
``0..MAX_COST``, and ``INFINITY`` is ``MAX_COST + 1``, so it compares above
every finite cost.  ``add`` saturates: a sum with an ``INFINITY`` operand
is ``INFINITY``, while a finite sum above ``MAX_COST`` raises
``CostOverflow``, which the CLI reports as ``dpcp: error``.

A cost of exactly ``INFINITY`` would read as a dead end, so each model
refuses, through ``check_ceiling``, an instance whose costs could pass
``MAX_COST``.
"""

from __future__ import annotations

MAX_COST = 2**63 - 1
INFINITY = MAX_COST + 1

Cost = int


class CostOverflow(ArithmeticError):
    """A finite cost, or a model's cost ceiling, above ``MAX_COST``."""


def is_finite(c: Cost) -> bool:
    return c != INFINITY


def add(a: Cost, b: Cost) -> Cost:
    """Add two costs; infinity absorbs, finite overflow raises."""
    s = a + b
    if s > MAX_COST:
        if a == INFINITY or b == INFINITY:
            return INFINITY
        raise CostOverflow(f"cost sum {s} exceeds {MAX_COST}")
    return s


def check_ceiling(ceiling: int) -> None:
    """Refuse a model when ``ceiling``, a bound on every cost term and plain
    sum it and its adapter compute, is above ``MAX_COST``."""
    if ceiling > MAX_COST:
        raise CostOverflow(f"instance costs may reach {ceiling}, which exceeds {MAX_COST}")


def cost_to_json(c: Cost | None):
    """JSON encoding: finite ints stay ints, infinity becomes the string 'inf'."""
    return "inf" if c == INFINITY else c
