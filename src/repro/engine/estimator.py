"""Sampling-based cardinality estimation and runaway-query guards.

ExpFinder's bounded matcher is cubic in the worst case, and until now the
planner's cost model trusted an *analytic* frontier formula
(``avg_degree ** depth``) that a hub-heavy graph demolishes: a pattern of
unconstrained nodes joined by ``'*'`` bounds — a *query bomb* — looks
merely expensive on paper and is catastrophic in practice.  This module is
the layer that makes the engine safe to expose to untrusted query traffic:

* **the estimator** — :func:`sample_frontier` probes a deterministic
  sample of a pattern edge's source candidates with truncated BFS over the
  frozen CSR adjacency and returns a *measured* per-source ball volume and
  edge-scan count, with a confidence score that says how much of the
  candidate set the sample covered.  :func:`estimate_pattern` assembles the
  per-edge estimates (and the planner routes from them instead of the
  analytic formula — see ``route_edge``'s ``ball_edges_estimate``);
* **the guards** — a :class:`QueryBudget` (node-visit and wall-clock
  limits) enforced by a :class:`QueryGuard` that every successor-row
  kernel charges as it works.  A tripped guard either raises
  :class:`~repro.errors.BudgetExceededError` (``allow_partial=False``) or
  stops row construction early, which is *sound*: partially built rows
  contain only true bounded-reachability entries, so the removal fixpoint
  computes a valid (smaller) simulation relation — always a subset of the
  exact answer (``tests/test_query_bombs.py`` asserts it against
  unguarded twins);
* **adaptive re-planning** — when a kernel's measured work exceeds its
  estimate by :data:`REPLAN_FACTOR`, the remaining pattern
  edges are re-routed with the estimates scaled by the observed ratio
  (the cost model self-corrects mid-query instead of riding a bad sample
  into the ground).

Estimates are deterministic for a fixed seed, bounded (a probe never
visits more than ``probe_cap`` nodes, so estimating cannot itself become
the bomb), and degrade gracefully: confidence shrinks with the sampled
fraction and with probe truncation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from random import Random
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import BudgetExceededError, EvaluationError
from repro.pattern.pattern import Bound, Pattern

#: Default number of source candidates probed per pattern edge group.
DEFAULT_SAMPLE = 8

#: A single probe never visits more nodes than this — the estimator's own
#: cost is bounded even when the query it sizes up is a bomb.
DEFAULT_PROBE_CAP = 4096

#: Fixed default sampling seed: estimates are reproducible run to run.
DEFAULT_SEED = 0x5EED

#: Adaptive re-planning threshold: when a source group's measured work
#: exceeds its estimate by this factor, the remaining groups' estimates are
#: scaled by the observed ratio before they are routed.
REPLAN_FACTOR = 8.0

#: Re-pass limit of an unguarded cyclic pattern: once re-running stale
#: pattern edges has cost this many times the first backward pass's BFS
#: arrivals, the matcher stops re-running and finishes with rows and the
#: removal cascade, which are linear (a long path matched against
#: ``A <-> B`` sheds one node per re-pass round).
REPASS_FACTOR = 4

#: Guard-trip reasons, surfaced in ``MatchResult.stats["guard"]``.
GUARD_NODE_BUDGET = "node-budget"
GUARD_TIME_LIMIT = "time-limit"


# ----------------------------------------------------------------------
# frontier sampling
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FrontierEstimate:
    """Measured frontier growth for one group of sources at one depth.

    ``frontier`` and ``ball_edges`` are per-source means over the sample:
    nodes reached within ``depth`` (nonempty paths) and adjacency entries
    scanned getting there.  ``confidence`` is in ``(0, 1]``: the sampled
    fraction of the source set, discounted when probes hit the cap (a
    truncated probe reports a lower bound, not a measurement).
    """

    depth: Bound
    num_sources: int
    frontier: float
    ball_edges: float
    sample_size: int
    truncated: int
    confidence: float

    def describe(self) -> str:
        bound = "*" if self.depth is None else str(self.depth)
        return (
            f"~{self.frontier:.0f} nodes/source within {bound} "
            f"(sampled {self.sample_size}/{self.num_sources}, "
            f"confidence {self.confidence:.2f})"
        )


def _probe(
    adjacency: Sequence[frozenset[int]],
    source: int,
    depth: Bound,
    probe_cap: int,
) -> tuple[int, int, bool]:
    """``(nodes reached, edges scanned, truncated)`` for one truncated BFS.

    Mirrors :func:`repro.graph.distance.frozen_reach_levels` semantics
    (nonempty paths: the source counts only if a cycle re-reaches it) but
    stops dead at ``probe_cap`` visited nodes, which keeps every probe —
    and therefore the whole estimate — bounded-cost by construction.
    """
    frontier: Iterable[int] = adjacency[source]
    seen: set[int] = set(frontier)
    visited = len(seen)
    scanned = len(adjacency[source])
    level = 1
    while frontier and (depth is None or level < depth):
        if visited >= probe_cap:
            return visited, scanned, True
        grown: set[int] = set()
        for node in frontier:
            row = adjacency[node]
            scanned += len(row)
            grown |= row
        frontier = grown - seen
        seen |= frontier
        visited += len(frontier)
        level += 1
    return visited, scanned, visited >= probe_cap


def sample_frontier(
    adjacency: Sequence[frozenset[int]],
    sources: Sequence[int],
    depth: Bound,
    sample_size: int = DEFAULT_SAMPLE,
    probe_cap: int = DEFAULT_PROBE_CAP,
    seed: int = DEFAULT_SEED,
) -> FrontierEstimate:
    """Estimate per-source ball volume by probing a sample of ``sources``.

    Deterministic for a fixed ``seed`` (the sample is drawn from the
    sorted source list with :class:`random.Random`); when the sample
    covers every source and no probe hits ``probe_cap``, the estimate is
    exact — the mean ball size — with confidence 1.0.  The estimate is
    always bounded by the graph size.

    >>> adjacency = (frozenset({1}), frozenset({2}), frozenset())
    >>> estimate = sample_frontier(adjacency, [0], depth=2)
    >>> estimate.frontier, estimate.confidence
    (2.0, 1.0)
    """
    if sample_size < 1:
        raise EvaluationError(f"sample_size must be >= 1 (got {sample_size})")
    if probe_cap < 1:
        raise EvaluationError(f"probe_cap must be >= 1 (got {probe_cap})")
    num_sources = len(sources)
    if num_sources == 0:
        return FrontierEstimate(depth, 0, 0.0, 0.0, 0, 0, 1.0)
    ordered = sorted(sources)
    if sample_size >= num_sources:
        sample = ordered
    else:
        sample = Random(seed).sample(ordered, sample_size)
    num_nodes = len(adjacency)
    reached_total = 0
    scanned_total = 0
    truncated = 0
    for source in sample:
        reached, scanned, hit_cap = _probe(adjacency, source, depth, probe_cap)
        reached_total += reached
        scanned_total += scanned
        truncated += int(hit_cap)
    taken = len(sample)
    frontier = min(float(num_nodes), reached_total / taken)
    ball_edges = scanned_total / taken
    coverage = taken / num_sources
    confidence = coverage * (1.0 - truncated / taken / 2.0)
    return FrontierEstimate(
        depth=depth,
        num_sources=num_sources,
        frontier=frontier,
        ball_edges=ball_edges,
        sample_size=taken,
        truncated=truncated,
        confidence=max(confidence, 1e-3),
    )


@dataclass(frozen=True)
class EdgeEstimate:
    """One pattern edge's sampled estimate plus the cost it implies."""

    edge: tuple[str, str]
    bound: Bound
    num_sources: int
    num_children: int
    frontier: FrontierEstimate
    cost: float
    visits: float  # estimated guard charge: sources x per-source frontier

    def describe(self) -> str:
        return (
            f"edge {self.edge[0]}->{self.edge[1]}: "
            f"{self.num_sources}x{self.num_children} candidates, "
            f"{self.frontier.describe()}, est cost {self.cost:.3g}"
        )


@dataclass(frozen=True)
class PatternEstimate:
    """Per-edge estimates for a whole pattern, plus the totals explain shows."""

    edges: tuple[EdgeEstimate, ...]

    @property
    def total_cost(self) -> float:
        return sum(edge.cost for edge in self.edges)

    @property
    def total_visits(self) -> float:
        return sum(edge.visits for edge in self.edges)

    def describe_lines(self) -> list[str]:
        lines = [edge.describe() for edge in self.edges]
        lines.append(
            f"estimated total: ~{self.total_visits:.0f} node visits, "
            f"cost {self.total_cost:.3g}"
        )
        return lines


def estimate_pattern(
    frozen: Any,
    pattern: Pattern,
    candidate_ids: Mapping[str, frozenset[int]],
    sample_size: int = DEFAULT_SAMPLE,
    probe_cap: int = DEFAULT_PROBE_CAP,
    seed: int = DEFAULT_SEED,
) -> PatternEstimate:
    """Sampled per-edge estimates for ``pattern`` over a frozen snapshot.

    One frontier sample is taken per pattern node with out-edges (at the
    deepest bound its edges need — exactly the traversal the enumeration
    kernels share), then each edge's kernel cost comes from the planner's
    cost model with the *measured* ball replacing the analytic formula.
    This is what ``explain(budget=...)`` prints and what guarded
    evaluation routes from.
    """
    from repro.engine.planner import route_edge
    from repro.matching.bounded import BoundedState, FROZEN_BULK_DEPTH

    adjacency = frozen.successor_sets()
    num_nodes = len(adjacency)
    num_edges = frozen.num_edges
    estimates: list[EdgeEstimate] = []
    for source_pattern in pattern.nodes():
        out_edges = list(pattern.out_edges(source_pattern))
        if not out_edges:
            continue
        sources = sorted(candidate_ids[source_pattern])
        depth = BoundedState._bfs_depth(bound for _, bound in out_edges)
        sampled = sample_frontier(
            adjacency, sources, depth,
            sample_size=sample_size, probe_cap=probe_cap, seed=seed,
        )
        for edge_target, bound in out_edges:
            children = candidate_ids[edge_target]
            route = route_edge(
                (source_pattern, edge_target),
                bound,
                len(sources),
                len(children),
                num_nodes,
                num_edges,
                bulk_depth=FROZEN_BULK_DEPTH,
                ball_edges_estimate=sampled.ball_edges,
            )
            cost = dict(route.costs)[route.kernel]
            estimates.append(
                EdgeEstimate(
                    edge=(source_pattern, edge_target),
                    bound=bound,
                    num_sources=len(sources),
                    num_children=len(children),
                    frontier=sampled,
                    cost=cost,
                    visits=len(sources) * sampled.frontier,
                )
            )
    return PatternEstimate(edges=tuple(estimates))


# ----------------------------------------------------------------------
# budgets and guards
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class QueryBudget:
    """Per-query limits for the bounded matcher.

    ``node_visits`` bounds the total successor-row work (one visit = one
    node arrival during row construction — the unit every kernel charges);
    ``seconds`` is a wall-clock limit.  With ``allow_partial=True`` a
    tripped guard degrades gracefully: evaluation stops admitting work and
    returns a *sound subset* of the exact answer flagged
    ``stats["partial"] = True``; otherwise the trip raises
    :class:`~repro.errors.BudgetExceededError`.

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

    Kernels call :meth:`charge` after each unit of work (a source's ball,
    a bitset level's arrivals, a filled oracle row) and consult
    :meth:`should_stop` before starting the next.

    >>> guard = QueryGuard(QueryBudget(node_visits=10, allow_partial=True))
    >>> guard.charge(4); guard.should_stop()
    False
    >>> guard.charge(7); guard.should_stop()
    True
    >>> guard.tripped
    'node-budget'
    """

    __slots__ = ("budget", "visits", "tripped", "replans", "_deadline", "_clock")

    def __init__(
        self,
        budget: QueryBudget,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        budget.validate()
        self.budget = budget
        self.visits = 0
        self.replans = 0
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
        if self.replans:
            info["replans"] = self.replans
        return info

    def __repr__(self) -> str:
        state = self.tripped or "within budget"
        return f"<QueryGuard visits={self.visits} ({state})>"
