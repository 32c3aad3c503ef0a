"""Unit tests for the query budget and its guard.

:mod:`repro.engine.estimator` holds the per-query limits
(:class:`QueryBudget`) and their enforcement (:class:`QueryGuard`): what
validates, when a guard trips, and what it reports.  What the matcher
charges it, and what a trip leaves, is ``tests/test_query_bombs.py``'s.
"""

from __future__ import annotations

import pytest

from repro.engine.estimator import (
    GUARD_NODE_BUDGET,
    GUARD_TIME_LIMIT,
    QueryBudget,
    QueryGuard,
)
from repro.errors import BudgetExceededError, EvaluationError


# ----------------------------------------------------------------------
# QueryBudget / QueryGuard units
# ----------------------------------------------------------------------

def test_budget_validation_rules():
    QueryBudget(node_visits=1, seconds=0.5).validate()
    QueryBudget().validate()  # unlimited budgets are legal (and ignored)
    assert not QueryBudget().is_limited
    assert QueryBudget(seconds=1.0).is_limited
    with pytest.raises(EvaluationError, match="node_visits"):
        QueryBudget(node_visits=0).validate()
    with pytest.raises(EvaluationError, match="node_visits"):
        QueryBudget(node_visits=True).validate()
    with pytest.raises(EvaluationError, match="seconds"):
        QueryBudget(seconds=0.0).validate()


def test_guard_trips_on_visits_and_raises_without_allow_partial():
    guard = QueryGuard(QueryBudget(node_visits=10, allow_partial=True))
    guard.charge(10)
    assert not guard.should_stop()  # exactly at the limit is still legal
    guard.charge(1)
    assert guard.tripped == GUARD_NODE_BUDGET
    assert guard.should_stop()
    assert guard.stats() == {
        "partial": True,
        "visits": 11,
        "guard": GUARD_NODE_BUDGET,
    }

    hard = QueryGuard(QueryBudget(node_visits=10))
    with pytest.raises(BudgetExceededError, match=GUARD_NODE_BUDGET):
        hard.charge(11)


def test_guard_time_limit_uses_injected_clock():
    now = [0.0]
    guard = QueryGuard(
        QueryBudget(seconds=5.0, allow_partial=True), clock=lambda: now[0]
    )
    assert not guard.should_stop()
    now[0] = 5.1
    assert guard.should_stop()
    assert guard.tripped == GUARD_TIME_LIMIT
    assert "within budget" not in repr(guard)


def test_guard_ignores_nonpositive_charges():
    guard = QueryGuard(QueryBudget(node_visits=5, allow_partial=True))
    guard.charge(0)
    guard.charge(-3)
    assert guard.visits == 0
    assert not guard.should_stop()
