"""Adversarial query bombs: the guards must defuse what the planner cannot.

A *query bomb* is a legal query whose evaluation cost explodes on the
wrong graph: unconstrained pattern nodes joined by ``'*'`` bounds over
hub-heavy, star, or self-loop-dense topologies, where every candidate's
reachability ball is the whole graph.  This suite drives each bomb shape
through the guarded paths and asserts the three promises
:mod:`repro.engine.estimator` makes:

* guards trip **deterministically** (same bomb, same budget, same visit
  count and same partial relation — run to run);
* a partial result is a **sound subset**: every pair it reports is in the
  exact relation, verified against unguarded evaluation on small twins of
  each bomb;
* sequential runs and batch workers **agree on the partial flag** (a
  budget applies per query wherever the query runs), and with a generous
  budget both are byte-identical to the unguarded answer.
"""

from __future__ import annotations

import pytest

from repro.engine.engine import QueryEngine
from repro.engine.estimator import (
    GUARD_NODE_BUDGET,
    GUARD_TIME_LIMIT,
    QueryBudget,
)
from repro.errors import BudgetExceededError
from repro.graph.digraph import Graph
from repro.graph.generators import twitter_like_graph
from repro.matching.bounded import match_bounded
from repro.pattern.pattern import Pattern


# ----------------------------------------------------------------------
# bomb construction: three graph topologies x wildcard-clique patterns
# ----------------------------------------------------------------------

def wildcard_cycle(k: int = 3) -> Pattern:
    """``k`` unconstrained nodes in a ``'*'``-bound cycle: every candidate
    set is the whole graph and no bound truncates any traversal."""
    pattern = Pattern(f"bomb-cycle{k}")
    names = [f"Q{i}" for i in range(k)]
    for name in names:
        pattern.add_node(name, None)
    for index, name in enumerate(names):
        pattern.add_edge(name, names[(index + 1) % k], None)
    return pattern


def hub_graph(n: int, seed: int = 3) -> Graph:
    """Hub-heavy preferential-attachment graph (the Twitter stand-in)."""
    return twitter_like_graph(n, seed=seed)


def star_graph(arms: int, arm_length: int = 2) -> Graph:
    """High-fanout star with return edges: the hub reaches everything in
    one hop and everything reaches the hub back, so every ball is the
    whole graph."""
    graph = Graph()
    graph.add_node("hub", kind="hub")
    for arm in range(arms):
        previous = "hub"
        for step in range(arm_length):
            node = f"a{arm}.{step}"
            graph.add_node(node, kind="leaf")
            graph.add_edge(previous, node)
            previous = node
        graph.add_edge(previous, "hub")
    return graph


def loop_cycle_graph(n: int) -> Graph:
    """A directed cycle where every node also carries a self loop —
    self loops keep every frontier alive at every level, the worst case
    for ``'*'`` traversals that only stop at frontier death."""
    graph = Graph()
    for index in range(n):
        graph.add_node(index, kind="ring")
    for index in range(n):
        graph.add_edge(index, index)
        graph.add_edge(index, (index + 1) % n)
    return graph


#: (id, big graph for guard tests, small twin for exact comparison)
BOMB_CASES = [
    ("hub-heavy", lambda: hub_graph(400), lambda: hub_graph(120)),
    ("fanout-star", lambda: star_graph(150), lambda: star_graph(40)),
    ("self-loop-cycle", lambda: loop_cycle_graph(250), lambda: loop_cycle_graph(60)),
]
BOMB_IDS = [case_id for case_id, _, _ in BOMB_CASES]

TIGHT = QueryBudget(node_visits=500, allow_partial=True)
GENEROUS = QueryBudget(node_visits=10**9, allow_partial=True)


@pytest.mark.parametrize(("case_id", "big", "_small"), BOMB_CASES, ids=BOMB_IDS)
def test_guard_trips_deterministically(case_id, big, _small):
    """Same bomb + same budget = same trip, same visits, same relation."""
    graph = big()
    pattern = wildcard_cycle()
    first = match_bounded(graph, pattern, budget=TIGHT)
    second = match_bounded(graph, pattern, budget=TIGHT)
    for result in (first, second):
        assert result.stats["partial"] is True, (case_id, result.stats)
        assert result.stats["guard"] == GUARD_NODE_BUDGET, (case_id, result.stats)
    assert first.stats["visits"] == second.stats["visits"], case_id
    assert first.relation == second.relation, case_id
    assert first.relation.to_dict() == second.relation.to_dict(), case_id


@pytest.mark.parametrize(("case_id", "_big", "small"), BOMB_CASES, ids=BOMB_IDS)
def test_partial_result_is_sound_subset(case_id, _big, small):
    """Every pair a guarded run reports is in the exact relation.

    Verified on small twins of each bomb topology, where the unguarded
    cubic evaluation is still feasible; budgets are swept so the subset
    property holds at *every* truncation point, not just one.
    """
    graph = small()
    pattern = wildcard_cycle()
    exact = match_bounded(graph, pattern)
    exact_pairs = set(exact.relation.pairs())
    for visits in (50, 200, 1000, 5000):
        budget = QueryBudget(node_visits=visits, allow_partial=True)
        partial = match_bounded(graph, pattern, budget=budget)
        assert set(partial.relation.pairs()) <= exact_pairs, (
            f"{case_id}: budget {visits} produced pairs outside the exact "
            f"relation"
        )
        if not partial.stats["partial"]:
            # Budget high enough to finish: must be the exact answer.
            assert partial.relation == exact.relation, (case_id, visits)


def chain_graph(n: int) -> Graph:
    """One long directed path: every traversal runs as deep as it can."""
    graph = Graph()
    for index in range(n):
        graph.add_node(index, kind="chain")
    for index in range(n - 1):
        graph.add_edge(index, index + 1)
    return graph


def deep_chain() -> Pattern:
    """Unconstrained ``Q0 -*-> Q1 -6-> Q2``: deep and unbounded edges."""
    pattern = Pattern("deep-chain")
    for name in ("Q0", "Q1", "Q2"):
        pattern.add_node(name, None)
    pattern.add_edge("Q0", "Q1", None)
    pattern.add_edge("Q1", "Q2", 6)
    return pattern


SWEEP_CASES = [
    ("hub-heavy-cycle", lambda: hub_graph(200), wildcard_cycle),
    ("deep-chain", lambda: chain_graph(300), deep_chain),
]


@pytest.mark.parametrize(
    ("case_id", "make_graph", "make_pattern"), SWEEP_CASES,
    ids=[case_id for case_id, _, _ in SWEEP_CASES],
)
def test_relation_first_partial_results_are_valid_subsets(
    case_id, make_graph, make_pattern
):
    """A guard that trips anywhere in the snapshot evaluation — the
    backward-BFS membership pass or the rows between matches — leaves a
    valid bounded simulation (every reported pair satisfies each of its
    out-edges against the reported sets), hence a subset of the exact
    relation; ``partial`` is set exactly when the budget was exceeded."""
    from repro.graph.frozen import FrozenGraph
    from repro.matching.reference import is_valid_bounded_relation

    graph, pattern = make_graph(), make_pattern()
    frozen = FrozenGraph.freeze(graph)
    exact = match_bounded(graph, pattern, frozen=frozen)
    assert not exact.relation.is_empty, case_id
    exact_pairs = set(exact.relation.pairs())
    exact_edges = set(exact.result_graph().edges())
    for visits in (1, 10, 100, 300, 1000, 3000, 10_000, 100_000, 10**7):
        budget = QueryBudget(node_visits=visits, allow_partial=True)
        partial = match_bounded(graph, pattern, frozen=frozen, budget=budget)
        where = (case_id, visits)
        assert partial.stats["partial"] == (partial.stats["visits"] > visits), where
        assert set(partial.relation.pairs()) <= exact_pairs, where
        sets = {u: set(partial.relation.matches_of(u)) for u in pattern.nodes()}
        assert is_valid_bounded_relation(graph, pattern, sets), where
        assert set(partial.result_graph().edges()) <= exact_edges, where
        if not partial.stats["partial"]:
            assert partial.relation == exact.relation, where
    assert partial.stats["partial"] is False, f"{case_id}: largest budget tripped"


@pytest.mark.parametrize(("case_id", "big", "_small"), BOMB_CASES, ids=BOMB_IDS)
def test_hard_budget_raises_without_allow_partial(case_id, big, _small):
    graph = big()
    pattern = wildcard_cycle()
    with pytest.raises(BudgetExceededError, match="node-budget"):
        match_bounded(graph, pattern, budget=QueryBudget(node_visits=500))


def test_time_limit_trips_and_reports():
    """An (effectively) elapsed wall-clock limit stops the traversal.

    Soundness of the truncated relation is covered by the subset sweep
    above; what a time trip must additionally report is *which* guard
    fired, so operators can tell a slow query from a big one.
    """
    graph = hub_graph(400)
    pattern = wildcard_cycle()
    budget = QueryBudget(seconds=1e-9, allow_partial=True)
    result = match_bounded(graph, pattern, budget=budget)
    assert result.stats["partial"] is True
    assert result.stats["guard"] == GUARD_TIME_LIMIT

    # Through the engine under a 0.1 ms limit, call after call: the
    # cooperative guard stops the one process the query runs in, and the
    # truncated answer never reaches the cache.
    engine = QueryEngine()
    engine.register_graph("g", graph)
    limited = QueryBudget(seconds=1e-4, allow_partial=True)
    for _ in range(5):
        result = engine.evaluate("g", pattern, budget=limited)
        assert result.stats["route"] == "direct"
        assert result.stats["partial"] is True
        assert result.stats["guard"] == GUARD_TIME_LIMIT
    assert engine.cache_stats()["size"] == 0


@pytest.mark.parametrize(("case_id", "big", "_small"), BOMB_CASES, ids=BOMB_IDS)
def test_sequential_and_parallel_agree_on_partial(case_id, big, _small):
    """One budget, any worker count: the partial flag is a query property.

    A batch budget applies per query, in a worker exactly as inline, so a
    bomb farmed out with a second bomb trips it as it does sequentially,
    at the same visit count — and with a generous budget both paths
    return the identical exact relation with ``partial=False``.
    """
    graph = big()
    patterns = [wildcard_cycle(), wildcard_cycle(2)]
    engine = QueryEngine()
    engine.register_graph("g", graph)
    kwargs = dict(use_cache=False, cache_result=False)

    for budget in (TIGHT, GENEROUS):
        sequential = [
            engine.evaluate("g", pattern, budget=budget, **kwargs)
            for pattern in patterns
        ]
        parallel = engine.evaluate_many(
            "g", patterns, budget=budget, workers=2, **kwargs
        )
        for seq, par in zip(sequential, parallel):
            assert seq.stats["partial"] is par.stats["partial"] is (
                budget is TIGHT
            ), (case_id, seq.stats, par.stats)
            assert seq.stats["visits"] == par.stats["visits"], case_id
    unguarded = engine.evaluate_many("g", patterns, **kwargs)
    for exact, result in zip(unguarded, parallel):
        assert result.relation == exact.relation, case_id
        assert result.relation.to_dict() == exact.relation.to_dict(), case_id


def test_partial_results_are_never_cached():
    """A truncated answer must not poison the query cache.

    After a guarded partial evaluation, an unbudgeted evaluation of the
    same query must route direct (not cache), return the exact relation,
    and only *that* result may be cached.
    """
    graph = hub_graph(120)
    pattern = wildcard_cycle()
    engine = QueryEngine()
    engine.register_graph("g", graph)

    partial = engine.evaluate("g", pattern, budget=TIGHT)
    assert partial.stats["partial"] is True

    exact = engine.evaluate("g", pattern)
    assert exact.stats["route"] == "direct", exact.stats
    assert exact.relation == match_bounded(graph, pattern).relation

    cached = engine.evaluate("g", pattern)
    assert cached.stats["route"] == "cache", cached.stats
    assert cached.relation == exact.relation


def test_guard_tripping_between_the_two_checks_leaves_sound_rows():
    """The wall clock can run out between a source group's two
    ``should_stop()`` checks (group admitted, enumeration refused).
    That used to raise ``UnboundLocalError: kernel`` in the route relabel;
    the group must instead keep its empty rows and its estimated routes."""
    from repro.engine.estimator import QueryGuard
    from repro.graph.frozen import FrozenGraph
    from repro.matching.bounded import frozen_successor_rows

    class ScriptedGuard(QueryGuard):
        """``should_stop()`` answers from a script; no clock, no counter."""

        def __init__(self, answers):
            super().__init__(QueryBudget(node_visits=10**9, allow_partial=True))
            self.answers = list(answers)

        def should_stop(self):
            return self.answers.pop(0)

    frozen = FrozenGraph.freeze(star_graph(6))
    everyone = frozenset(range(frozen.num_nodes))
    out_edges = {"Q0": [("Q1", None)]}
    candidates = {"Q0": everyone, "Q1": everyone}

    guard = ScriptedGuard([False, True])
    log: dict = {}
    rows = frozen_successor_rows(
        frozen, out_edges, candidates, kernel_log=log, guard=guard
    )
    assert guard.answers == []  # both checks were consulted, in order
    assert rows == {("Q0", "Q1"): {source: {} for source in everyone}}
    assert set(log) == {("Q0", "Q1")}

    # The same call with the guard never tripping fills every row, so the
    # empty rows above were the guard's doing, not the input's.
    filled = frozen_successor_rows(
        frozen, out_edges, candidates, guard=ScriptedGuard([False] * 10_000)
    )
    assert all(filled[("Q0", "Q1")].values())


def test_simulation_patterns_are_never_guarded():
    """Guards cover the bounded matcher only; all-bounds-1 queries run the
    quadratic simulation matcher, which cannot bomb — and must not report
    guard stats (sequential and batch-worker modes agree by construction)."""
    graph = hub_graph(200)
    patterns = []
    for name in ("unit", "unit-back"):
        pattern = Pattern(name)
        pattern.add_node("A", None)
        pattern.add_node("B", None)
        patterns.append(pattern)
    patterns[0].add_edge("A", "B", 1)
    patterns[1].add_edge("B", "A", 1)
    patterns[1].add_edge("A", "A", 1)
    engine = QueryEngine()
    engine.register_graph("g", graph)
    tight = QueryBudget(node_visits=1, allow_partial=True)
    kwargs = dict(use_cache=False, cache_result=False)
    sequential = [
        engine.evaluate("g", pattern, budget=tight, **kwargs) for pattern in patterns
    ]
    parallel = engine.evaluate_many(
        "g", patterns, budget=tight, workers=2, **kwargs
    )
    for result in (*sequential, *parallel):
        assert "partial" not in result.stats or not result.stats["partial"]
    assert [r.relation for r in sequential] == [r.relation for r in parallel]
