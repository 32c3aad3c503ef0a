"""Runaway-query guards for the bounded matcher.

ExpFinder's bounded matcher is cubic in the worst case (Fan et al., PVLDB
2010): a pattern of unconstrained nodes joined by ``'*'`` bounds — a
*query bomb* — can make one evaluation walk the whole graph once per
candidate.  A :class:`QueryBudget` (node-visit and wall-clock limits)
puts a bound on that one evaluation, enforced by a :class:`QueryGuard`
that the matcher charges as it works; it never switches the query to
another algorithm.

Over a frozen snapshot a visit is a backward BFS arrival of the
membership pass, plus, for a relation that finished within budget, a
row arrival when its rows are read (its result graph, a ranking).  A
trip either raises :class:`~repro.errors.BudgetExceededError`
(``allow_partial=False``) or returns the empty relation flagged
``stats["partial"] = True`` — a *sound* answer: ``M(Q,G)`` is empty
whenever a pattern node is unmatched, so the empty relation is a subset
of the exact one (``tests/test_query_bombs.py`` asserts soundness
against unguarded twins).  A trip while rows of an exact relation are
read always raises.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import BudgetExceededError, EvaluationError

#: Re-pass limit of a cyclic pattern: once re-running stale pattern
#: edges has cost this many times the first backward pass's BFS arrivals,
#: the matcher stops re-running and finishes with rows and the removal
#: cascade, which are linear (a long path matched against ``A <-> B``
#: sheds one node per re-pass round).
REPASS_FACTOR = 4

#: Guard-trip reasons, surfaced in ``MatchResult.stats["guard"]``.
GUARD_NODE_BUDGET = "node-budget"
GUARD_TIME_LIMIT = "time-limit"


@dataclass(frozen=True)
class QueryBudget:
    """Per-query limits for the bounded matcher.

    ``node_visits`` bounds the node arrivals the evaluation charges: over
    a snapshot, the membership pass's backward BFS arrivals, plus the row
    arrivals of any later read of the rows; over the dict graph, the
    reached nodes of each candidate's ball.  ``seconds`` is a wall-clock
    limit on the evaluation, and again on a later read of its rows.  With ``allow_partial=True`` a guard that
    trips during evaluation returns a *sound subset* of the exact answer
    (over a snapshot, the empty relation) flagged
    ``stats["partial"] = True``; otherwise the trip raises
    :class:`~repro.errors.BudgetExceededError`, as a trip in a later read
    of an exact relation's rows always does.

    >>> QueryBudget(node_visits=10_000).validate()
    >>> QueryBudget(node_visits=0).validate()
    Traceback (most recent call last):
    ...
    repro.errors.EvaluationError: node_visits must be a positive integer (got 0)
    """

    node_visits: int | None = None
    seconds: float | None = None
    allow_partial: bool = False

    def validate(self) -> None:
        if self.node_visits is not None and (
            isinstance(self.node_visits, bool)
            or not isinstance(self.node_visits, int)
            or self.node_visits < 1
        ):
            raise EvaluationError(
                f"node_visits must be a positive integer (got {self.node_visits!r})"
            )
        if self.seconds is not None and not self.seconds > 0:
            raise EvaluationError(
                f"seconds must be positive (got {self.seconds!r})"
            )

    @property
    def is_limited(self) -> bool:
        return self.node_visits is not None or self.seconds is not None


class QueryGuard:
    """Mutable per-evaluation enforcement of a :class:`QueryBudget`.

    The matcher calls :meth:`charge` after each unit of work (a backward
    BFS level's arrivals, a source's ball, a bitset level's arrivals, a
    filled oracle row) and consults :meth:`should_stop` before starting
    the next.

    >>> guard = QueryGuard(QueryBudget(node_visits=10, allow_partial=True))
    >>> guard.charge(4); guard.should_stop()
    False
    >>> guard.charge(7); guard.should_stop()
    True
    >>> guard.tripped
    'node-budget'
    """

    __slots__ = ("budget", "visits", "tripped", "_deadline", "_clock")

    def __init__(
        self,
        budget: QueryBudget,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        budget.validate()
        self.budget = budget
        self.visits = 0
        self.tripped: str | None = None
        self._clock = clock
        self._deadline = (
            None if budget.seconds is None else clock() + budget.seconds
        )

    def charge(self, visits: int) -> None:
        """Account ``visits`` units of work; trip when the budget is blown."""
        if visits <= 0:
            return
        self.visits += visits
        limit = self.budget.node_visits
        if limit is not None and self.visits > limit:
            self._trip(GUARD_NODE_BUDGET)

    def should_stop(self) -> bool:
        """True once any limit tripped (checks the clock)."""
        if self.tripped is not None:
            return True
        if self._deadline is not None and self._clock() > self._deadline:
            self._trip(GUARD_TIME_LIMIT)
            return True
        return False

    def restart_clock(self) -> None:
        """Re-arm the wall-clock limit from now, for a later phase of the
        query (a lazy read of its rows): each phase gets ``seconds`` of
        its own, while node visits add up across phases."""
        if self.budget.seconds is not None:
            self._deadline = self._clock() + self.budget.seconds

    def _trip(self, reason: str) -> None:
        if self.tripped is None:
            self.tripped = reason
        if not self.budget.allow_partial:
            raise BudgetExceededError(
                f"query exceeded its {reason} "
                f"(visits={self.visits}, budget={self.budget}); pass "
                "allow_partial=True for a bounded partial result instead"
            )

    def stats(self) -> dict[str, Any]:
        """The guard's contribution to ``MatchResult.stats``."""
        info: dict[str, Any] = {
            "partial": self.tripped is not None,
            "visits": self.visits,
        }
        if self.tripped is not None:
            info["guard"] = self.tripped
        return info

    def __repr__(self) -> str:
        state = self.tripped or "within budget"
        return f"<QueryGuard visits={self.visits} ({state})>"
