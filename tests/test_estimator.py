"""Property-based tests for the cardinality estimator (hypothesis).

The estimator's contract (module docstring of :mod:`repro.engine.estimator`)
is three-fold: estimates are *bounded* by the exact counts they sample,
*deterministic* for a fixed seed, and *degrade gracefully* — confidence
grows monotonically with sample coverage and shrinks under probe
truncation.  Each clause gets a property here, checked against a naive
exact-ball reference; the guard/budget classes get direct unit coverage.
"""

from __future__ import annotations


import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from repro.engine.estimator import (
    GUARD_NODE_BUDGET,
    GUARD_TIME_LIMIT,
    FrontierEstimate,
    QueryBudget,
    QueryGuard,
    estimate_pattern,
    sample_frontier,
)
from repro.errors import BudgetExceededError, EvaluationError
from repro.graph.frozen import FrozenGraph
from repro.graph.generators import random_digraph
from repro.matching.simulation import simulation_candidates
from repro.pattern.pattern import Pattern


@st.composite
def adjacencies(draw, max_nodes=12):
    """A frozen-style adjacency: one frozenset of successors per node."""
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    rows = []
    for _ in range(num_nodes):
        successors = draw(
            st.frozensets(
                st.integers(min_value=0, max_value=num_nodes - 1), max_size=5
            )
        )
        rows.append(successors)
    return tuple(rows)


def exact_ball(adjacency, source, depth):
    """Reference ball: nodes reachable within ``depth`` via nonempty paths."""
    frontier = set(adjacency[source])
    seen = set(frontier)
    level = 1
    while frontier and (depth is None or level < depth):
        grown = set()
        for node in frontier:
            grown |= adjacency[node]
        frontier = grown - seen
        seen |= frontier
        level += 1
    return seen


DEPTHS = st.one_of(st.none(), st.integers(min_value=1, max_value=4))


@settings(max_examples=60, deadline=None)
@given(adjacency=adjacencies(), depth=DEPTHS, data=st.data())
def test_full_sample_equals_exact_mean(adjacency, depth, data):
    """Sampling every source with no truncation *is* the exact mean ball."""
    sources = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(adjacency) - 1),
            min_size=1,
            max_size=len(adjacency),
            unique=True,
        )
    )
    estimate = sample_frontier(
        adjacency, sources, depth, sample_size=len(sources), probe_cap=10**6
    )
    exact_sizes = [len(exact_ball(adjacency, s, depth)) for s in sources]
    assert estimate.frontier == pytest.approx(
        sum(exact_sizes) / len(exact_sizes)
    )
    assert estimate.truncated == 0
    assert estimate.confidence == pytest.approx(1.0)


@settings(max_examples=60, deadline=None)
@given(
    adjacency=adjacencies(),
    depth=DEPTHS,
    sample_size=st.integers(min_value=1, max_value=12),
    probe_cap=st.integers(min_value=1, max_value=64),
    data=st.data(),
)
def test_estimates_stay_within_exact_bounds(
    adjacency, depth, sample_size, probe_cap, data
):
    """Any sample, any cap: the estimate is bracketed by the exact balls.

    A probe reports at most its source's true ball (truncation only ever
    *under*-counts), so the sampled mean can never exceed the largest
    exact ball — nor the graph size — and never goes negative.
    """
    sources = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(adjacency) - 1),
            min_size=1,
            max_size=len(adjacency),
            unique=True,
        )
    )
    estimate = sample_frontier(
        adjacency, sources, depth, sample_size=sample_size, probe_cap=probe_cap
    )
    exact_sizes = [len(exact_ball(adjacency, s, depth)) for s in sources]
    assert 0.0 <= estimate.frontier <= max(exact_sizes) + 1e-9
    assert estimate.frontier <= len(adjacency)
    assert 0.0 < estimate.confidence <= 1.0
    if estimate.truncated == 0 and estimate.sample_size == len(sources):
        assert estimate.frontier >= min(exact_sizes) - 1e-9


@settings(max_examples=40, deadline=None)
@given(
    adjacency=adjacencies(),
    depth=DEPTHS,
    sample_size=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
def test_deterministic_for_fixed_seed(adjacency, depth, sample_size, data):
    """Same inputs, same seed: the whole estimate is reproducible."""
    sources = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(adjacency) - 1),
            min_size=1,
            max_size=len(adjacency),
            unique=True,
        )
    )
    first = sample_frontier(adjacency, sources, depth, sample_size=sample_size)
    second = sample_frontier(adjacency, sources, depth, sample_size=sample_size)
    assert first == second  # frozen dataclass: field-for-field identity


@settings(max_examples=40, deadline=None)
@given(adjacency=adjacencies(), depth=DEPTHS, data=st.data())
def test_confidence_degrades_monotonically_with_sample_size(
    adjacency, depth, data
):
    """Fewer probes never claim *more* confidence (no truncation in play)."""
    assume(len(adjacency) >= 2)
    sources = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(adjacency) - 1),
            min_size=2,
            max_size=len(adjacency),
            unique=True,
        )
    )
    confidences = [
        sample_frontier(
            adjacency, sources, depth, sample_size=k, probe_cap=10**6
        ).confidence
        for k in range(1, len(sources) + 1)
    ]
    assert all(a <= b + 1e-12 for a, b in zip(confidences, confidences[1:]))


def test_truncation_discounts_confidence():
    """A capped probe is a lower bound, and the confidence must say so."""
    # One long chain: depth-None probe from node 0 visits every other node.
    chain = tuple(
        frozenset({i + 1}) if i + 1 < 64 else frozenset() for i in range(64)
    )
    free = sample_frontier(chain, [0], None, probe_cap=10**6)
    capped = sample_frontier(chain, [0], None, probe_cap=4)
    assert free.truncated == 0
    assert capped.truncated == 1
    assert capped.confidence < free.confidence
    assert capped.frontier <= free.frontier


def test_sample_frontier_rejects_bad_knobs():
    adjacency = (frozenset({0}),)
    with pytest.raises(EvaluationError, match="sample_size"):
        sample_frontier(adjacency, [0], 1, sample_size=0)
    with pytest.raises(EvaluationError, match="probe_cap"):
        sample_frontier(adjacency, [0], 1, probe_cap=0)


def test_empty_sources_estimate_is_trivially_confident():
    estimate = sample_frontier((frozenset(),), [], 2)
    assert estimate == FrontierEstimate(2, 0, 0.0, 0.0, 0, 0, 1.0)


# ----------------------------------------------------------------------
# estimate_pattern: the explain()/routing assembly
# ----------------------------------------------------------------------

def test_estimate_pattern_covers_every_edge_and_is_deterministic():
    graph = random_digraph(40, 120, seed=7)
    pattern = Pattern("p")
    pattern.add_node("A", None)
    pattern.add_node("B", None)
    pattern.add_node("C", None)
    pattern.add_edge("A", "B", 2)
    pattern.add_edge("A", "C", None)
    pattern.add_edge("B", "C", 3)
    frozen = FrozenGraph.freeze(graph)
    ids = frozen.ids()
    candidate_ids = {
        u: frozenset(ids[v] for v in vs)
        for u, vs in simulation_candidates(graph, pattern).items()
    }
    first = estimate_pattern(frozen, pattern, candidate_ids)
    second = estimate_pattern(frozen, pattern, candidate_ids)
    assert first == second
    assert {e.edge for e in first.edges} == {("A", "B"), ("A", "C"), ("B", "C")}
    assert first.total_visits >= 0.0
    assert first.total_cost == pytest.approx(sum(e.cost for e in first.edges))
    lines = first.describe_lines()
    assert len(lines) == 4 and lines[-1].startswith("estimated total:")


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
