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
  each bomb (over a snapshot a trip leaves the empty relation; the dict
  state a smaller valid simulation);
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
#: Below the membership pass of every bomb here, big or small, so the
#: snapshot evaluation trips too (the pass of the two-node cycle on the
#: 250-node self-loop ring costs exactly TIGHT's 500 arrivals).
BELOW_PASS = QueryBudget(node_visits=100, allow_partial=True)


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
    """A guard that trips anywhere in the snapshot evaluation's membership
    pass leaves the empty relation — valid, hence a subset of the exact
    one; ``partial`` is set exactly when the budget was exceeded.  A pass
    within budget is exact, and reading its rows either gives the exact
    result graph or, once the rows outgrow the budget, raises."""
    from repro.graph.frozen import FrozenGraph
    from repro.matching.reference import is_valid_bounded_relation

    graph, pattern = make_graph(), make_pattern()
    frozen = FrozenGraph.freeze(graph)
    exact = match_bounded(graph, pattern, frozen=frozen)
    assert not exact.relation.is_empty, case_id
    exact_pairs = set(exact.relation.pairs())
    exact_edges = set(exact.result_graph().edges())
    read = []
    for visits in (1, 10, 100, 300, 1000, 3000, 10_000, 100_000, 10**7):
        budget = QueryBudget(node_visits=visits, allow_partial=True)
        partial = match_bounded(graph, pattern, frozen=frozen, budget=budget)
        where = (case_id, visits)
        assert partial.stats["partial"] == (partial.stats["visits"] > visits), where
        assert set(partial.relation.pairs()) <= exact_pairs, where
        sets = {u: set(partial.relation.matches_of(u)) for u in pattern.nodes()}
        assert is_valid_bounded_relation(graph, pattern, sets), where
        if partial.stats["partial"]:
            assert partial.relation.is_empty, where
            assert partial.result_graph().num_edges == 0, where
            continue
        assert partial.relation == exact.relation, where
        try:
            edges = set(partial.result_graph().edges())
        except BudgetExceededError:
            read.append(False)
        else:
            assert edges == exact_edges, where
            read.append(True)
    assert partial.stats["partial"] is False, f"{case_id}: largest budget tripped"
    # some exact relation's rows outgrew its budget, and the largest fit
    assert read[-1] and not all(read), (case_id, read)


def ping_pong(bound: int) -> Pattern:
    """Unconstrained ``A`` and ``B``, each reaching the other within
    ``bound``: on a path no node qualifies, but only after the removals
    have walked the whole path."""
    pattern = Pattern(f"ping-pong{bound}")
    pattern.add_node("A", None)
    pattern.add_node("B", None)
    pattern.add_edge("A", "B", bound)
    pattern.add_edge("B", "A", bound)
    return pattern


@pytest.mark.parametrize("bound", [1, 2])
def test_relation_first_is_linear_on_a_chain(bound):
    """A cyclic pattern over a 1,000-edge path empties one node per round
    of its fixpoint; relation-first evaluation must still charge work
    linear in the graph, finish without a trip and agree with the dict
    state (both say: empty).  The guard is charged what the unguarded
    evaluation does: the pass and its capped re-passes (the unguarded
    twin's bound below), then rows of at most ``bound`` ids per member."""
    from repro.engine.estimator import REPASS_FACTOR
    from repro.graph.frozen import FrozenGraph

    graph, pattern = chain_graph(1001), ping_pong(bound)
    budget = QueryBudget(node_visits=10**12, allow_partial=True)
    result = match_bounded(
        graph, pattern, frozen=FrozenGraph.freeze(graph), budget=budget
    )
    size = graph.num_nodes + graph.num_edges
    assert result.stats["visits"] <= (REPASS_FACTOR + 2 + bound) * size, result.stats
    assert result.stats["partial"] is False
    assert result.relation == match_bounded(graph, pattern).relation
    assert result.relation.is_empty


@pytest.mark.parametrize("bound", [1, 2])
def test_unguarded_relation_first_is_linear_on_a_chain(bound, monkeypatch):
    """The unguarded twin: re-running stale edges would take one round
    per node of the path, so the re-pass cap hands the rest to the rows
    and the cascade; backward-BFS arrivals stay linear in the graph."""
    from repro.engine.estimator import REPASS_FACTOR
    from repro.graph.frozen import FrozenGraph
    from repro.matching import bounded as bounded_module

    arrivals = []
    original = bounded_module._reaching

    def counting(*args, **kwargs):
        found, reached = original(*args, **kwargs)
        arrivals.append(reached)
        return found, reached

    monkeypatch.setattr(bounded_module, "_reaching", counting)
    graph, pattern = chain_graph(1001), ping_pong(bound)
    result = match_bounded(graph, pattern, frozen=FrozenGraph.freeze(graph))
    size = graph.num_nodes + graph.num_edges
    assert sum(arrivals) <= (REPASS_FACTOR + 2) * size, sum(arrivals)
    assert result.relation.is_empty
    assert result.relation == match_bounded(graph, pattern).relation


def test_a_pattern_deeper_than_the_recursion_limit_evaluates():
    """The sinks-first order is an iterative DFS: a chain pattern twice as
    deep as the interpreter's recursion limit still evaluates exactly."""
    import sys

    from repro.graph.frozen import FrozenGraph

    graph = Graph.from_edges([("a", "b"), ("b", "a")])
    depth = 2 * sys.getrecursionlimit()
    pattern = Pattern("deep")
    for index in range(depth):
        pattern.add_node(f"Q{index}", None)
    for index in range(depth - 1):
        pattern.add_edge(f"Q{index}", f"Q{index + 1}", 2)
    result = match_bounded(graph, pattern, frozen=FrozenGraph.freeze(graph))
    assert result.relation.num_pairs == 2 * depth
    assert result.relation == match_bounded(graph, pattern).relation


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

    for budget in (BELOW_PASS, GENEROUS):
        sequential = [
            engine.evaluate("g", pattern, budget=budget, **kwargs)
            for pattern in patterns
        ]
        parallel = engine.evaluate_many(
            "g", patterns, budget=budget, workers=2, **kwargs
        )
        for seq, par in zip(sequential, parallel):
            assert seq.stats["partial"] is par.stats["partial"] is (
                budget is BELOW_PASS
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

    partial = engine.evaluate("g", pattern, budget=BELOW_PASS)
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
    The group must keep its empty rows and its logged routes."""
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
    """Guards cover bounded patterns only; an all-bounds-1 query runs the
    same matcher with no budget (a bound-1 edge reaches one hop, so it
    cannot bomb) and must not report guard stats (sequential and
    batch-worker modes agree by construction)."""
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
