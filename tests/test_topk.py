"""Tests for the bulk top-K ranking subsystem (`repro.ranking.topk`).

Covers the ranking edge cases the naive path never had tests for (empty
result graphs, weighted cycles, oversized ``k``, metric-name errors), the
engine's ranked-result cache and its `Graph.version` invalidation, the
pinned-query incremental re-ranking in ``update_graph``, and — most
importantly — differential identity: bulk ranking (sequential and
``workers=N``) must match the naive per-match ``rank_detail`` path
exactly, on seeded random graphs, for every metric.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.datasets.paper_example import paper_graph, paper_pattern
from repro.engine.cache import cache_key
from repro.engine.engine import QueryEngine
from repro.errors import RankingError
from repro.expfinder import ExpFinder
from repro.graph.digraph import Graph
from repro.graph.generators import random_digraph
from repro.incremental.updates import EdgeInsertion, NodeInsertion
from repro.matching.bounded import match_bounded
from repro.pattern.builder import PatternBuilder
from repro.pattern.pattern import Pattern
from repro.ranking.metrics import METRICS, get_metric
from repro.ranking.social_impact import rank_detail, rank_matches
from repro.ranking.topk import (
    RankingContext,
    bulk_top_k_detail,
    bulk_top_k_scores,
    validate_k,
)

DIFFERENTIAL_SEEDS = range(25)


def two_team_graph() -> Graph:
    """Two disjoint SA->SD teams (update tests touch exactly one of them)."""
    graph = Graph()
    for team in (1, 2):
        graph.add_node(f"a{team}", field="SA", experience=9)
        graph.add_node(f"b{team}", field="SD", experience=5)
        graph.add_edge(f"a{team}", f"b{team}")
    return graph


def team_pattern(bound: int = 2) -> Pattern:
    return (
        PatternBuilder("team")
        .node("SA", "experience >= 5", field="SA", output=True)
        .node("SD", "experience >= 2", field="SD")
        .edge("SA", "SD", bound)
        .build(require_output=True)
    )


def random_ranked_case(seed: int) -> tuple[Graph, Pattern]:
    """A seeded (graph, pattern-with-output) pair that usually matches."""
    rng = random.Random(seed)
    num_nodes = rng.randint(10, 36)
    num_edges = rng.randint(num_nodes, 3 * num_nodes)
    graph = random_digraph(num_nodes, num_edges, seed=seed)
    pattern = Pattern(f"ranked-s{seed}")
    pattern.add_node("OUT", rng.choice(['label == "L0"', "x >= 2", None]), output=True)
    names = ["OUT"]
    for index in range(rng.randint(0, 2)):
        name = f"Q{index}"
        pattern.add_node(name, rng.choice(['label == "L1"', "x >= 1", None]))
        names.append(name)
    pairs = [(a, b) for a in names for b in names if a != b]
    rng.shuffle(pairs)
    for source, target in pairs[: rng.randint(0, len(pairs))]:
        pattern.add_edge(source, target, rng.choice([1, 2, 3, None]))
    return graph, pattern


# ----------------------------------------------------------------------
# k validation — every metric, every entry point
# ----------------------------------------------------------------------
class TestValidateK:
    @pytest.mark.parametrize("bad", [0, -1, -7, True, 2.5, "3", None])
    def test_validate_k_rejects(self, bad):
        with pytest.raises(RankingError, match="positive integer"):
            validate_k(bad)

    def test_validate_k_accepts_positive_ints(self):
        assert validate_k(1) == 1
        assert validate_k(10) == 10

    @pytest.mark.parametrize("metric", sorted(METRICS))
    @pytest.mark.parametrize("bad", [0, -1])
    def test_engine_rejects_bad_k_for_every_metric(self, metric, bad):
        engine = QueryEngine()
        engine.register_graph("fig1", paper_graph())
        with pytest.raises(RankingError, match="positive integer"):
            engine.top_k("fig1", paper_pattern(), bad, metric=metric)

    def test_engine_rejects_bad_k_for_metric_objects(self):
        engine = QueryEngine()
        engine.register_graph("fig1", paper_graph())
        with pytest.raises(RankingError):
            engine.top_k("fig1", paper_pattern(), 0, metric=get_metric("harmonic"))

    def test_facade_rejects_bad_k(self):
        finder = ExpFinder()
        finder.add_graph("fig1", paper_graph())
        with pytest.raises(RankingError):
            finder.find_experts("fig1", paper_pattern(), k=0)

    def test_unknown_metric_name_raises_before_evaluation(self):
        engine = QueryEngine()
        engine.register_graph("fig1", paper_graph())
        with pytest.raises(RankingError, match="unknown metric"):
            engine.top_k("fig1", paper_pattern(), 1, metric="page-rank")


# ----------------------------------------------------------------------
# context + edge cases
# ----------------------------------------------------------------------
class TestRankingEdgeCases:
    def test_no_match_returns_empty(self):
        engine = QueryEngine()
        engine.register_graph("fig1", paper_graph())
        pattern = (
            PatternBuilder()
            .node("Z", 'field == "NOPE"', output=True)
            .build(require_output=True)
        )
        assert engine.top_k("fig1", pattern, 3) == []
        assert engine.top_k("fig1", pattern, 3, metric="degree") == []

    def test_edgeless_result_graph_ranks_infinite(self):
        graph = Graph()
        for name in ("b", "a", "c"):
            graph.add_node(name, field="SA", experience=9)
        pattern = (
            PatternBuilder()
            .node("SA", "experience >= 5", field="SA", output=True)
            .build(require_output=True)
        )
        context = RankingContext(match_bounded(graph, pattern).result_graph())
        ranked = bulk_top_k_detail(context, 10)
        assert [match.node for match in ranked] == ["a", "b", "c"]  # id tie-break
        assert all(match.rank == math.inf for match in ranked)
        assert all(match.impact_set_size == 0 for match in ranked)
        detail = ranked[0]
        assert detail.ancestors == {} and detail.descendants == {}

    def test_match_on_weighted_cycle_sees_itself(self):
        # a -> b -> a: each match reaches itself through the cycle, so the
        # source appears in its own impact set at its cycle length.
        graph = Graph()
        graph.add_node("a", field="SA", experience=9)
        graph.add_node("b", field="SD", experience=5)
        graph.add_edge("a", "b")
        graph.add_edge("b", "a")
        pattern = (
            PatternBuilder()
            .node("SA", "experience >= 5", field="SA", output=True)
            .node("SD", "experience >= 2", field="SD")
            .edge("SA", "SD", 1)
            .edge("SD", "SA", 1)
            .build(require_output=True)
        )
        result_graph = match_bounded(graph, pattern).result_graph()
        context = RankingContext(result_graph)
        [best] = bulk_top_k_detail(context, 1)
        assert best.node == "a"
        assert best.descendants["a"] == 2  # around the cycle and back
        assert "a" in best.ancestors
        assert best == rank_detail(result_graph, "a")

    def test_k_larger_than_match_count_returns_all(self):
        engine = QueryEngine()
        engine.register_graph("fig1", paper_graph())
        ranked = engine.top_k("fig1", paper_pattern(), 99)
        assert [match.node for match in ranked] == ["Bob", "Walt"]
        scored = engine.top_k("fig1", paper_pattern(), 99, metric="closeness")
        assert len(scored) == 2

    def test_unknown_pattern_node_raises(self):
        context = RankingContext(
            match_bounded(paper_graph(), paper_pattern()).result_graph()
        )
        with pytest.raises(RankingError, match="unknown pattern node"):
            bulk_top_k_detail(context, 1, pattern_node="XX")

    def test_context_detail_rejects_non_member(self):
        context = RankingContext(
            match_bounded(paper_graph(), paper_pattern()).result_graph()
        )
        with pytest.raises(RankingError, match="not a node"):
            context.detail("Nobody")

    def test_bounds_are_admissible(self):
        # The cheap bound must never exceed the true score — the lazy
        # top-K's exactness hangs on this.
        for seed in range(8):
            graph, pattern = random_ranked_case(seed)
            result = match_bounded(graph, pattern)
            context = RankingContext(result.result_graph())
            for node in context.matches():
                for metric in METRICS.values():
                    assert metric.bound(context, node) <= metric.score_bulk(
                        context, node
                    ), f"inadmissible bound: seed={seed} node={node!r} {metric.name}"


# ----------------------------------------------------------------------
# differential identity: naive ≡ bulk ≡ parallel
# ----------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS, ids=lambda s: f"seed{s}")
    def test_bulk_identical_to_naive_rank_detail(self, seed):
        graph, pattern = random_ranked_case(seed)
        result_graph = match_bounded(graph, pattern).result_graph()
        naive = rank_matches(result_graph)
        bulk_all = bulk_top_k_detail(RankingContext(result_graph), None)
        assert bulk_all == naive, f"seed={seed}: bulk rank-all diverged"
        for k in (1, 2, 5):
            lazy = bulk_top_k_detail(RankingContext(result_graph), k)
            assert lazy == naive[:k], f"seed={seed} k={k}: lazy top-K diverged"

    @pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS, ids=lambda s: f"seed{s}")
    def test_bulk_identical_to_rank_all_for_every_metric(self, seed):
        graph, pattern = random_ranked_case(seed)
        result_graph = match_bounded(graph, pattern).result_graph()
        for metric in METRICS.values():
            naive = metric.rank_all(result_graph)
            context = RankingContext(result_graph)
            assert bulk_top_k_scores(context, None, metric) == naive, (
                f"seed={seed} metric={metric.name}: bulk rank-all diverged"
            )
            for k in (1, 3):
                fresh = RankingContext(result_graph)
                assert bulk_top_k_scores(fresh, k, metric) == naive[:k], (
                    f"seed={seed} metric={metric.name} k={k}: lazy top-K diverged"
                )

    def test_parallel_identical_to_sequential(self):
        engine = QueryEngine()
        try:
            for seed in range(6):
                graph, pattern = random_ranked_case(seed)
                engine.register_graph(f"g{seed}", graph)
                sequential = engine.top_k(
                    f"g{seed}", pattern, 5, use_rank_cache=False
                )
                parallel = engine.top_k(
                    f"g{seed}", pattern, 5, workers=2, use_rank_cache=False
                )
                assert parallel == sequential, f"seed={seed}: workers=2 diverged"
        finally:
            engine.close()

    def test_parallel_pool_fanout_identical_on_large_match_set(self):
        # Enough matches to cross the executor's inline threshold, so the
        # scoring genuinely crosses the process boundary.
        graph = random_digraph(240, 720, seed=11)
        pattern = Pattern("broad")
        pattern.add_node("OUT", None, output=True)
        pattern.add_node("B", "x >= 1")
        pattern.add_edge("OUT", "B", 2)
        engine = QueryEngine()
        try:
            engine.register_graph("big", graph)
            sequential = engine.top_k("big", pattern, 500, use_rank_cache=False)
            assert len(sequential) >= 100  # the fan-out threshold is 64
            parallel = engine.top_k(
                "big", pattern, 500, workers=2, use_rank_cache=False
            )
            assert parallel == sequential
            naive = rank_matches(match_bounded(graph, pattern).result_graph())
            assert sequential == naive[:500]
        finally:
            engine.close()


# ----------------------------------------------------------------------
# ranked-result caching
# ----------------------------------------------------------------------
class TestRankCache:
    def test_repeat_top_k_hits_rank_cache(self):
        engine = QueryEngine()
        engine.register_graph("fig1", paper_graph())
        first = engine.top_k("fig1", paper_pattern(), 2)
        stats = engine.rank_cache_stats()
        assert stats["size"] == 1 and stats["misses"] == 1
        second = engine.top_k("fig1", paper_pattern(), 2)
        assert second == first
        assert engine.rank_cache_stats()["hits"] == 1

    def test_cached_context_shares_dijkstra_work_across_metrics(self):
        engine = QueryEngine()
        engine.register_graph("fig1", paper_graph())
        engine.top_k("fig1", paper_pattern(), 2)  # warms detail memos
        key = cache_key("fig1", paper_pattern())
        context = engine._rank_cache.peek(key).context
        runs_before = context.stats["dijkstra_runs"]
        engine.top_k("fig1", paper_pattern(), 2, metric="harmonic")
        # Harmonic needs the same out/in distances social impact memoized.
        assert context.stats["dijkstra_runs"] == runs_before

    def test_out_of_band_mutation_invalidates_by_graph_version(self):
        graph = two_team_graph()
        engine = QueryEngine()
        engine.register_graph("teams", graph)
        pattern = team_pattern()
        before = engine.top_k("teams", pattern, 10)
        assert {match.node for match in before} == {"a1", "a2"}
        # Mutate behind the engine's back: Graph.version still bumps.
        graph.add_node("b1x", field="SD", experience=5)
        graph.add_edge("b1x", "a1")
        after = engine.top_k("teams", pattern, 10)
        assert engine.rank_cache_stats()["invalidations"] == 1
        assert engine.stats()["resyncs"] == 1
        fresh = rank_matches(match_bounded(graph, pattern).result_graph())
        assert after == fresh[:10]

    def test_custom_metrics_sharing_a_name_do_not_share_scores(self):
        # Two distinct custom metrics with the default name must not serve
        # each other's memoized scores off a cached context.
        from repro.ranking.metrics import RankingMetric

        class ConstMetric(RankingMetric):
            def __init__(self, value):
                self.value = value

            def score(self, result_graph, node):
                return self.value

        engine = QueryEngine()
        engine.register_graph("fig1", paper_graph())
        first = engine.top_k("fig1", paper_pattern(), 2, metric=ConstMetric(1.0))
        second = engine.top_k("fig1", paper_pattern(), 2, metric=ConstMetric(2.0))
        assert {score for _n, score in first} == {1.0}
        assert {score for _n, score in second} == {2.0}

    def test_use_rank_cache_false_skips_the_cache(self):
        engine = QueryEngine()
        engine.register_graph("fig1", paper_graph())
        engine.top_k("fig1", paper_pattern(), 1, use_rank_cache=False)
        assert engine.rank_cache_stats()["size"] == 0

    def test_reregistering_a_graph_drops_its_rank_entries(self):
        engine = QueryEngine()
        engine.register_graph("fig1", paper_graph())
        engine.top_k("fig1", paper_pattern(), 1)
        engine.register_graph("fig1", paper_graph(), replace=True)
        assert engine.rank_cache_stats()["size"] == 0


# ----------------------------------------------------------------------
# incremental re-ranking of pinned queries
# ----------------------------------------------------------------------
class TestIncrementalRerank:
    def test_update_reranks_only_touched_matches(self):
        graph = two_team_graph()
        engine = QueryEngine()
        engine.register_graph("teams", graph)
        pattern = team_pattern()
        engine.pin("teams", pattern)
        before = engine.top_k("teams", pattern, 10)
        assert {match.node for match in before} == {"a1", "a2"}
        key = cache_key("teams", pattern)
        untouched_before = engine._rank_cache.peek(key).context._details["a1"]

        # Grow team 2 only: a new SD within reach of a2.
        summary = engine.update_graph(
            "teams",
            [
                NodeInsertion.with_attrs("x2", field="SD", experience=5),
                EdgeInsertion("a2", "x2"),
            ],
        )
        maintenance = summary["rank_maintenance"][pattern.canonical_key()]
        assert maintenance["reused"] >= 1  # a1's ranking survived untouched
        assert maintenance["rescored"] >= 1  # a2 was re-ranked

        after = engine.top_k("teams", pattern, 10)
        fresh = rank_matches(match_bounded(graph, pattern).result_graph())
        assert after == fresh[:10]
        # The untouched match was *not* re-ranked: same object, not a copy.
        untouched_after = engine._rank_cache.peek(key).context._details["a1"]
        assert untouched_after is untouched_before
        # And the refreshed entry serves reads: a hit, nothing dropped.
        stats = engine.rank_cache_stats()
        assert stats["hits"] == 1 and stats["invalidations"] == 0
        assert engine.stats()["resyncs"] == 0

    def test_update_reranks_against_recompute_on_random_graphs(self):
        for seed in range(4):
            rng = random.Random(seed + 100)
            graph = random_digraph(30, 90, seed=seed)
            pattern = Pattern("pinned")
            pattern.add_node("OUT", 'label == "L0"', output=True)
            pattern.add_node("B", 'label == "L1"')
            pattern.add_edge("OUT", "B", 2)
            engine = QueryEngine()
            engine.register_graph("net", graph)
            engine.pin("net", pattern)
            engine.top_k("net", pattern, 5)
            nodes = sorted(graph.nodes(), key=repr)
            for _round in range(3):
                source, target = rng.sample(nodes, 2)
                if graph.has_edge(source, target):
                    continue
                engine.update_graph("net", [EdgeInsertion(source, target)])
                maintained = engine.top_k("net", pattern, 5)
                recomputed = rank_matches(
                    match_bounded(graph, pattern).result_graph()
                )[:5]
                assert maintained == recomputed, (
                    f"seed={seed}: maintained ranking diverged after update"
                )

    def test_unpinned_queries_lose_rank_entries_on_update(self):
        graph = two_team_graph()
        engine = QueryEngine()
        engine.register_graph("teams", graph)
        pattern = team_pattern()
        engine.top_k("teams", pattern, 10)  # cached but not pinned
        assert engine.rank_cache_stats()["size"] == 1
        engine.update_graph(
            "teams",
            [
                NodeInsertion.with_attrs("x2", field="SD", experience=5),
                EdgeInsertion("a2", "x2"),
            ],
        )
        assert engine.rank_cache_stats()["size"] == 0


# ----------------------------------------------------------------------
# facade forwarding
# ----------------------------------------------------------------------
class TestFacadeForwarding:
    def test_find_experts_forwards_workers(self):
        finder = ExpFinder()
        finder.add_graph("fig1", paper_graph())
        try:
            sequential = finder.find_experts("fig1", paper_pattern(), k=2)
            parallel = finder.find_experts(
                "fig1", paper_pattern(), k=2, workers=2, use_rank_cache=False
            )
            assert parallel == sequential
        finally:
            finder.engine.close()

    def test_find_experts_forwards_evaluate_kwargs(self):
        finder = ExpFinder()
        finder.add_graph("fig1", paper_graph())
        ranked = finder.find_experts(
            "fig1", paper_pattern(), k=1, use_cache=False, cache_result=False
        )
        assert [match.node for match in ranked] == ["Bob"]
        # The kwargs really reached evaluate: nothing was cached.
        assert finder.engine.cache_stats()["size"] == 0
