"""Tests for the bulk top-K ranking subsystem (`repro.ranking.topk`).

Covers the ranking edge cases the naive path never had tests for (empty
result graphs, weighted cycles, oversized ``k``, metric-name errors), the
engine's ranked-result cache and its `Graph.version` invalidation, the
pinned-query incremental re-ranking in ``update_graph``, and — most
importantly — differential identity: bulk ranking (over a relation
computed inline or farmed out by ``evaluate_many(workers=N)``) must match
the naive per-match ``rank_detail`` path exactly, on seeded random graphs,
for every metric.
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
from repro.graph.frozen import FrozenGraph
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


def rows_ranked_case(seed: int) -> tuple[Graph, Pattern]:
    """:func:`random_ranked_case` plus what the rows constructor must read
    exactly: a cycle of ``str`` labels beside the ``int`` ones, an isolated
    node, and by seed either an output node with two pattern edges whose
    targets overlap (a node matching both; a cycle back through it) or an
    output node with no pattern edge at all (isolated matches, rank inf)."""
    graph, pattern = random_ranked_case(seed)
    for index, label in enumerate(("L0", "L1", "L0")):
        graph.add_node(f"c{index}", label=label, x=5)
    for source, target in (("c0", "c1"), ("c1", "c2"), ("c2", "c0"), ("c0", 0), (1, "c2")):
        graph.add_edge(source, target)
    graph.add_node("lonely", label="L0", x=9)
    shape = seed % 3
    if shape == 1:
        pattern = Pattern(f"overlap-s{seed}")
        pattern.add_node("OUT", None, output=True)
        pattern.add_node("Q0", "x >= 1")
        pattern.add_node("Q1", None)
        pattern.add_edge("OUT", "Q0", 2)
        pattern.add_edge("OUT", "Q1", 3)
        pattern.add_edge("Q1", "OUT", 2)
    elif shape == 2:
        pattern = Pattern(f"apart-s{seed}")
        pattern.add_node("OUT", 'label == "L0"', output=True)
        pattern.add_node("Q0", None)
        pattern.add_node("Q1", "x >= 1")
        pattern.add_edge("Q0", "Q1", 1)
    return graph, pattern


def evidence(ranked) -> str:
    """Everything a ranked list carries, dict insertion order and float
    bits included (``repr`` of a float round-trips)."""
    return repr([
        (m.node, m.rank, list(m.ancestors.items()), list(m.descendants.items()), m.attrs)
        for m in ranked
    ])


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

    def test_rows_context_needs_rows_over_the_snapshot(self):
        graph = paper_graph()
        frozen = FrozenGraph.freeze(graph)
        for result in (
            match_bounded(graph, paper_pattern()),  # dict state, no rows
            match_bounded(graph, paper_pattern(), frozen=FrozenGraph.freeze(graph)),
        ):
            with pytest.raises(RankingError, match="relation-first"):
                RankingContext.from_rows(result, frozen)

    def test_custom_metric_scores_labels_over_a_rows_context(self):
        # A metric without score_bulk scores the result graph by label; the
        # engine's unpinned context is built from rows (ids).
        from repro.ranking.metrics import RankingMetric

        class LabelLength(RankingMetric):
            def score(self, result_graph, node):
                assert node in result_graph
                return float(len(str(node)))

        engine = QueryEngine()
        engine.register_graph("fig1", paper_graph())
        ranked = engine.top_k("fig1", paper_pattern(), 2, metric=LabelLength())
        key = cache_key("fig1", paper_pattern())
        assert engine._rank_cache.peek(key).context.rows is not None
        result_graph = match_bounded(paper_graph(), paper_pattern()).result_graph()
        assert ranked == LabelLength().rank_all(result_graph)[:2]

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

    @pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS, ids=lambda s: f"seed{s}")
    def test_rows_constructor_identical_to_label_constructor(self, seed):
        graph, pattern = rows_ranked_case(seed)
        frozen = FrozenGraph.freeze(graph)
        result = match_bounded(graph, pattern, frozen=frozen)
        result_graph = result.result_graph()
        for pattern_node in pattern.nodes():
            naive = rank_matches(result_graph, pattern_node)
            for k in (1, 3, None):
                label = bulk_top_k_detail(RankingContext(result_graph), k, pattern_node)
                rows = bulk_top_k_detail(
                    RankingContext.from_rows(result, frozen), k, pattern_node
                )
                assert evidence(rows) == evidence(label) == evidence(naive[:k]), (
                    f"seed={seed} node={pattern_node} k={k}: ranking diverged"
                )
            for metric in METRICS.values():
                naive_scores = metric.rank_all(result_graph, pattern_node)
                for k in (1, 3, None):
                    label_scores = bulk_top_k_scores(
                        RankingContext(result_graph), k, metric, pattern_node
                    )
                    rows_scores = bulk_top_k_scores(
                        RankingContext.from_rows(result, frozen), k, metric, pattern_node
                    )
                    assert repr(rows_scores) == repr(label_scores) == repr(
                        naive_scores[:k]
                    ), f"seed={seed} node={pattern_node} {metric.name} k={k}: diverged"

    def test_rows_cases_cover_what_the_rows_constructor_merges(self):
        """The inputs above are not vacuous: across the seeds some match
        reaches itself around a cycle, some node holds two rows reaching
        one target, and some match ranks ``inf``."""
        cyclic = overlapping = isolated = 0
        for seed in DIFFERENTIAL_SEEDS:
            graph, pattern = rows_ranked_case(seed)
            frozen = FrozenGraph.freeze(graph)
            result = match_bounded(graph, pattern, frozen=frozen)
            context = RankingContext.from_rows(result, frozen)
            for node in context.matched_by:
                rows = context.out_rows(node)
                overlapping += len(rows) > 1 and bool(set(rows[0]) & set(rows[1]))
                cyclic += node in context.distances_from(node)
            isolated += sum(
                match.rank == math.inf for match in bulk_top_k_detail(context, None)
            )
        assert cyclic and overlapping and isolated

    @staticmethod
    def farmed_top_k(engine, name, pattern, k):
        """Top-K over the relation a two-query worker batch cached: the
        ranking reads a relation that crossed a process boundary without
        its refinement state, so the result graph recomputes witnesses."""
        twin = Pattern.from_dict(pattern.to_dict())
        twin.add_node("EXTRA", None)
        farmed = engine.evaluate_many(name, [pattern, twin], workers=2)
        assert farmed[0]._state is None  # the relation crossed a process
        return engine.top_k(name, pattern, k, use_rank_cache=False)

    def test_parallel_identical_to_sequential(self):
        engine = QueryEngine()
        try:
            for seed in range(6):
                graph, pattern = random_ranked_case(seed)
                engine.register_graph(f"g{seed}", graph)
                sequential = engine.top_k(
                    f"g{seed}", pattern, 5, use_rank_cache=False, use_cache=False,
                    cache_result=False,
                )
                parallel = self.farmed_top_k(engine, f"g{seed}", pattern, 5)
                assert parallel == sequential, f"seed={seed}: workers=2 diverged"
        finally:
            engine.close()

    def test_parallel_pool_fanout_identical_on_large_match_set(self):
        # Enough matches that witness recomputation over the farmed
        # relation covers a large result graph.
        graph = random_digraph(240, 720, seed=11)
        pattern = Pattern("broad")
        pattern.add_node("OUT", None, output=True)
        pattern.add_node("B", "x >= 1")
        pattern.add_edge("OUT", "B", 2)
        engine = QueryEngine()
        try:
            engine.register_graph("big", graph)
            sequential = engine.top_k(
                "big", pattern, 500, use_rank_cache=False, use_cache=False,
                cache_result=False,
            )
            assert len(sequential) >= 100
            parallel = self.farmed_top_k(engine, "big", pattern, 500)
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
        context_before = engine._rank_cache.peek(key).context
        untouched_before = (
            context_before._impact["a1"],
            context_before._dist_in["a1"],
            context_before._dist_out["a1"],
        )

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
        # The untouched match was *not* re-ranked: its score and both
        # distance sets are the same objects, not recomputed copies.
        context_after = engine._rank_cache.peek(key).context
        assert context_after is not context_before
        untouched_after = (
            context_after._impact["a1"],
            context_after._dist_in["a1"],
            context_after._dist_out["a1"],
        )
        assert all(a is b for a, b in zip(untouched_after, untouched_before))
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

    def test_pinning_after_an_unpinned_top_k_rebuilds_the_rows_context(self):
        """An unpinned top-K ranks from the matcher's rows, keyed by snapshot
        ids; pinning the query leaves that context cached.  The first update
        takes the full-rebuild branch: there is no result graph to patch and
        nothing keyed by ids carries over."""
        graph = two_team_graph()
        engine = QueryEngine()
        engine.register_graph("teams", graph)
        pattern = team_pattern()
        engine.top_k("teams", pattern, 10)
        key = cache_key("teams", pattern)
        old = engine._rank_cache.peek(key).context
        assert old.rows is not None and len(old._impact) == 2
        engine.pin("teams", pattern)
        summary = engine.update_graph(
            "teams",
            [
                NodeInsertion.with_attrs("x2", field="SD", experience=5),
                EdgeInsertion("a2", "x2"),
            ],
        )
        refreshed = engine._rank_cache.peek(key).context
        assert refreshed.rows is None
        assert old._result_graph is None  # rebuilt from the maintainer alone
        assert summary["rank_maintenance"][pattern.canonical_key()] == {
            "reused": 0,
            "rescored": 2,
            "changed_nodes": 5,  # a1 b1 a2 b2, and x2 joined
        }
        after = engine.top_k("teams", pattern, 10)
        assert engine._rank_cache.peek(key).context is refreshed
        assert after == rank_matches(match_bounded(graph, pattern).result_graph())
        assert engine.rank_cache_stats()["hits"] == 1

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
        """``workers`` reaches the engine, which splits no single query."""
        finder = ExpFinder()
        finder.add_graph("fig1", paper_graph())
        with pytest.raises(TypeError):
            finder.find_experts(
                "fig1", paper_pattern(), k=2, workers=2, use_rank_cache=False
            )

    def test_find_experts_forwards_evaluate_kwargs(self):
        finder = ExpFinder()
        finder.add_graph("fig1", paper_graph())
        ranked = finder.find_experts(
            "fig1", paper_pattern(), k=1, use_cache=False, cache_result=False
        )
        assert [match.node for match in ranked] == ["Bob"]
        # The kwargs really reached evaluate: nothing was cached.
        assert finder.engine.cache_stats()["size"] == 0


# ----------------------------------------------------------------------
# lazy reverse rows: a context over rows builds in_adj on first need
# ----------------------------------------------------------------------
LAZY_SHAPES = {
    "star": ("SA -> SD : 2", "SA -> ST : 3", "SA -> BA : 2"),
    "chain": ("SA -> SD : 2", "SD -> ST : 2", "ST -> BA : 3"),
    "diamond": ("SA -> SD : 2", "SA -> BA : 3", "SD -> ST : 1", "BA -> ST : 2"),
}


def lazy_case(shape: str, seed: int):
    from repro.graph.generators import collaboration_graph
    from repro.pattern.parser import parse_pattern

    graph = collaboration_graph(160, seed=seed)
    text = "\n".join(
        ['node SA* : field == "SA"']
        + [f'node {u} : field == "{u}"' for u in ("SD", "ST", "BA")]
        + [f"edge {edge}" for edge in LAZY_SHAPES[shape]]
    )
    frozen = FrozenGraph.freeze(graph)
    result = match_bounded(graph, parse_pattern(text, name=shape), frozen=frozen)
    assert not result.relation.is_empty
    return result, frozen


class TestLazyReverseRows:
    @pytest.mark.parametrize("seed", range(4))
    def test_a_star_ranks_without_building_reverse_rows(self, seed):
        result, frozen = lazy_case("star", seed)
        context = RankingContext.from_rows(result, frozen)
        label_context = RankingContext(result.result_graph())
        for k in (1, 3, None):
            assert evidence(bulk_top_k_detail(context, k)) == evidence(
                bulk_top_k_detail(label_context, k)
            )
        for metric in METRICS.values():
            assert repr(bulk_top_k_scores(context, 3, metric)) == repr(
                bulk_top_k_scores(label_context, 3, metric)
            )
        assert context.stats["details_scored"] > 0
        assert context._in_adj is None

    @pytest.mark.parametrize("shape", ["chain", "diamond"])
    @pytest.mark.parametrize("seed", range(4))
    def test_entered_nodes_build_the_reverse_rows_once(self, shape, seed):
        result, frozen = lazy_case(shape, seed)
        lazy = RankingContext.from_rows(result, frozen)
        eager = RankingContext.from_rows(result, frozen)
        built = eager.in_adj  # read up front: what the eager build held
        entered = [
            node for node, matched in lazy.matched_by.items() if matched - {"SA"}
        ]
        assert entered and lazy._in_adj is None
        for node in lazy.matched_by:
            assert lazy.impact_bound(node) == eager.impact_bound(node)
            assert lazy.degree(node) == eager.degree(node)
        assert lazy._in_adj is not None  # some entered node asked
        first = lazy._in_adj
        for node in lazy.matched_by:
            assert list(lazy.distances_to(node).items()) == list(
                eager.distances_to(node).items()
            )
            assert lazy.in_row(node) == built.get(node, {})
        assert lazy._in_adj is first and lazy.in_adj == built
        assert evidence(bulk_top_k_detail(lazy, None)) == evidence(
            bulk_top_k_detail(RankingContext(result.result_graph()), None)
        )


# ----------------------------------------------------------------------
# the first hop is a merge: every way it can meet the rest of the graph
# ----------------------------------------------------------------------
def both_contexts(result, frozen):
    return (RankingContext(result.result_graph()), RankingContext.from_rows(result, frozen))


def assert_reference(result, frozen) -> None:
    """Every match's detail equals ``rank_detail``'s over both
    constructors: rank, and both distance sets as ``weighted_distances``
    gives them (values, float type, order)."""
    result_graph = result.result_graph()
    for context in both_contexts(result, frozen):
        for node in context.matched_by:
            label = context.label_of(node)
            assert evidence([context.detail(node)]) == evidence(
                [rank_detail(result_graph, label)]
            ), f"{label!r} diverged"


def small_case(nodes, edges, pattern_edges, predicates):
    """A graph of ``(name, label, x)`` nodes and a pattern whose output
    node is ``OUT``, matched relation-first over a fresh snapshot."""
    graph = Graph()
    for name, label, x in nodes:
        graph.add_node(name, label=label, x=x)
    graph.add_edges(edges)
    pattern = Pattern("first-hop")
    for name, predicate in predicates.items():
        pattern.add_node(name, predicate, output=name == "OUT")
    for source, target, bound in pattern_edges:
        pattern.add_edge(source, target, bound)
    frozen = FrozenGraph.freeze(graph)
    result = match_bounded(graph, pattern, frozen=frozen)
    assert not result.relation.is_empty
    return result, frozen


class TestFirstHopMerge:
    def test_one_target_of_two_pattern_edges_at_different_depths(self):
        # t is a P1 match one hop out and a P2 match within three; u only
        # a P2 match, three hops out.  s holds two rows that both reach t.
        result, frozen = small_case(
            [("s", "A", 9), ("t", "B", 5), ("u", "B", 2), ("w", "C", 0)],
            [("s", "t"), ("t", "w"), ("w", "u")],
            [("OUT", "P1", 1), ("OUT", "P2", 3)],
            {"OUT": 'label == "A"', "P1": "x >= 5", "P2": 'label == "B"'},
        )
        rows = RankingContext.from_rows(result, frozen)
        [source] = rows.matches()
        first, second = rows.out_rows(source)
        assert set(first) & set(second)
        assert_reference(result, frozen)

    def test_overlapping_rows_keep_the_shorter_weight(self):
        # The matcher's overlapping rows agree on a pair's weight (its
        # data-graph distance); the merge must still keep the minimum
        # whichever row comes first.
        result, frozen = small_case(
            [("s", "A", 9), ("t", "B", 5), ("u", "B", 2)],
            [("s", "t"), ("s", "u")],
            [("OUT", "P1", 1), ("OUT", "P2", 1)],
            {"OUT": 'label == "A"', "P1": 'label == "B"', "P2": 'label == "B"'},
        )
        ids = frozen.ids()
        s, t, u = ids["s"], ids["t"], ids["u"]
        for rows in (({t: 4, u: 1}, {t: 2}), ({t: 2}, {t: 4, u: 1})):
            context = RankingContext.from_rows(result, frozen)
            context.out_adj[s] = rows
            assert context.distances_from(s) == {u: 1.0, t: 2.0}
            assert context.impact(s) == 1.5

    @pytest.mark.parametrize("shape", ["chain", "diamond"])
    @pytest.mark.parametrize("seed", range(2))
    def test_first_hop_nodes_with_rows_of_their_own(self, shape, seed):
        result, frozen = lazy_case(shape, seed)
        context = RankingContext.from_rows(result, frozen)
        assert any(
            context.out_adj.get(nxt)
            for node in context.matches()
            for row in context.out_rows(node)
            for nxt in row
        )
        assert_reference(result, frozen)

    def test_a_source_that_reaches_itself_over_a_self_loop(self):
        # a matches both pattern nodes and has an edge to itself.
        result, frozen = small_case(
            [("a", "A", 3), ("b", "B", 1)],
            [("a", "a"), ("a", "b"), ("b", "a")],
            [("OUT", "P", 1)],
            {"OUT": 'label == "A"', "P": "x >= 1"},
        )
        rows = RankingContext.from_rows(result, frozen)
        a = frozen.ids()["a"]
        assert a in rows.distances_from(a)
        assert_reference(result, frozen)

    def test_a_source_that_reaches_itself_around_a_cycle(self):
        result, frozen = small_case(
            [("a", "A", 3), ("b", "B", 1), ("c", "B", 1)],
            [("a", "b"), ("b", "c"), ("c", "a")],
            [("OUT", "P", 2), ("P", "OUT", 1)],
            {"OUT": 'label == "A"', "P": 'label == "B"'},
        )
        rows = RankingContext.from_rows(result, frozen)
        a = frozen.ids()["a"]
        assert rows.distances_from(a)[a] == 3.0
        assert_reference(result, frozen)

    @pytest.mark.parametrize(
        "pattern_edges", [[("P", "OUT", 2)], []], ids=["entered-only", "isolated"]
    )
    def test_a_match_with_no_rows(self, pattern_edges):
        result, frozen = small_case(
            [("a", "A", 3), ("b", "B", 1), ("z", "A", 0)],
            [("b", "a")],
            pattern_edges,
            {"OUT": 'label == "A"', "P": 'label == "B"'},
        )
        for context in both_contexts(result, frozen):
            assert all(context.distances_from(node) == {} for node in context.matches())
        assert_reference(result, frozen)

    def test_a_star_centre_settles_without_the_bucket_queue(self, monkeypatch):
        # The stop test fires over both constructors, though the label
        # constructor keeps an empty row for every leaf: the bucket loop's
        # ``min(buckets)`` is never reached.
        result, frozen = lazy_case("star", 0)
        contexts = both_contexts(result, frozen)
        import repro.ranking.topk as topk

        def no_buckets(*args, **kwargs):
            raise AssertionError("the bucket queue ran")

        monkeypatch.setattr(topk, "min", no_buckets, raising=False)
        for context in contexts:
            for node in context.matches():
                assert context.distances_from(node)
        monkeypatch.undo()
        assert_reference(result, frozen)
