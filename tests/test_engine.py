"""Unit tests for the assembled query engine."""

import pytest

from repro.datasets.paper_example import EDGE_E1, paper_graph, paper_pattern
from repro.engine.engine import QueryEngine
from repro.engine.storage import GraphStore
from repro.errors import CompressionError, EvaluationError
from repro.graph.generators import collaboration_graph, random_digraph
from repro.incremental.updates import EdgeInsertion, random_updates
from repro.matching.bounded import match_bounded
from repro.pattern.builder import PatternBuilder


@pytest.fixture
def engine() -> QueryEngine:
    e = QueryEngine()
    e.register_graph("fig1", paper_graph())
    return e


def label_pattern(bound=2, label_attr="field"):
    return (
        PatternBuilder()
        .node("SA", f'{label_attr} == "SA"', output=True)
        .node("SD", f'{label_attr} == "SD"')
        .edge("SA", "SD", bound)
        .build(require_output=True)
    )


class TestGraphManagement:
    def test_register_and_fetch(self, engine):
        assert engine.graph("fig1").num_nodes == 9
        assert engine.graphs() == ["fig1"]

    def test_double_register_raises(self, engine):
        with pytest.raises(EvaluationError, match="already registered"):
            engine.register_graph("fig1", paper_graph())

    def test_replace_allowed(self, engine):
        engine.register_graph("fig1", paper_graph(include_e1=True), replace=True)
        assert engine.graph("fig1").has_edge("Fred", "Eva")

    def test_unknown_graph_raises(self, engine):
        with pytest.raises(EvaluationError, match="unknown graph"):
            engine.graph("nope")

    def test_store_load_and_persist(self, tmp_path):
        store = GraphStore(tmp_path)
        store.save_graph("fig1", paper_graph())
        engine = QueryEngine(store=store)
        graph = engine.load_graph("fig1")
        assert graph.num_nodes == 9
        engine.update_graph("fig1", [EdgeInsertion(*EDGE_E1)])
        engine.persist_graph("fig1")
        assert store.load_graph("fig1").has_edge("Fred", "Eva")

    def test_no_store_errors(self):
        engine = QueryEngine()
        with pytest.raises(EvaluationError, match="no file store"):
            engine.load_graph("x")


class TestEvaluationRoutes:
    def test_direct_evaluation(self, engine):
        result = engine.evaluate("fig1", paper_pattern())
        assert result.stats["route"] == "direct"
        assert result.stats["algorithm"] == "bounded-simulation"
        assert sorted(result.relation.matches_of("SA")) == ["Bob", "Walt"]

    def test_cache_route_on_second_evaluation(self, engine):
        first = engine.evaluate("fig1", paper_pattern())
        second = engine.evaluate("fig1", paper_pattern())
        assert second.stats["route"] == "cache"
        assert second.relation == first.relation

    def test_use_cache_false_bypasses(self, engine):
        engine.evaluate("fig1", paper_pattern())
        result = engine.evaluate("fig1", paper_pattern(), use_cache=False)
        assert result.stats["route"] == "direct"

    def test_simulation_algorithm_for_unit_pattern(self, engine):
        result = engine.evaluate("fig1", label_pattern(bound=1))
        # two distinct tasks, so the batch is farmed to the workers
        batched, _bounded = engine.evaluate_many(
            "fig1", [label_pattern(bound=1), paper_pattern()], use_cache=False,
            workers=2,
        )
        for evaluated in (result, batched):
            assert evaluated.stats["algorithm"] == "simulation"
            assert evaluated.relation == result.relation

    def test_compressed_route(self):
        engine = QueryEngine()
        graph = collaboration_graph(120, seed=3)
        engine.register_graph("team", graph)
        engine.compress_graph("team", attrs=("field",))
        pattern = label_pattern(bound=2)
        result = engine.evaluate("team", pattern)
        assert result.stats["route"] == "compressed"
        direct = engine.evaluate("team", pattern, use_compression=False,
                                 use_cache=False)
        assert result.relation == direct.relation

    def test_incompatible_pattern_falls_back_to_direct(self):
        engine = QueryEngine()
        engine.register_graph("team", collaboration_graph(60, seed=4))
        engine.compress_graph("team", attrs=("field",))
        pattern = (
            PatternBuilder()
            .node("SA", 'field == "SA", experience >= 5', output=True)
            .build(require_output=True)
        )
        result = engine.evaluate("team", pattern)
        assert result.stats["route"] == "direct"

    def test_explain_matches_execution(self, engine):
        plan = engine.explain("fig1", paper_pattern())
        result = engine.evaluate("fig1", paper_pattern())
        assert plan.route == result.stats["route"] == "direct"
        plan_after = engine.explain("fig1", paper_pattern())
        assert plan_after.route == "cache"

    def test_compressed_route_equals_direct_on_random_graphs(self):
        for seed in range(3):
            engine = QueryEngine()
            graph = random_digraph(40, 90, num_labels=2, seed=seed)
            engine.register_graph("g", graph)
            engine.compress_graph("g", attrs=("label",))
            pattern = (
                PatternBuilder()
                .node("A", 'label == "L0"')
                .node("B", 'label == "L1"')
                .edge("A", "B", 2)
                .build()
            )
            via_compressed = engine.evaluate("g", pattern, cache_result=False)
            direct = match_bounded(graph, pattern)
            assert via_compressed.stats["route"] == "compressed"
            assert via_compressed.relation == direct.relation


class TestOutOfBandStaleness:
    """The engine compares Graph.version where it resolves the graph: a
    mutation that bypasses ``update_graph`` (any direct write through the
    counting graph APIs) must never let it serve a stale cached relation."""

    def test_direct_mutation_invalidates_cached_result(self, engine):
        engine.evaluate("fig1", paper_pattern())
        # Write to the live graph directly, bypassing engine.update_graph:
        # the version counter moves, so the cached relation is stale.
        engine.graph("fig1").add_edge(*EDGE_E1)
        second = engine.evaluate("fig1", paper_pattern())
        assert second.stats["route"] == "direct"  # recomputed, not cached
        assert engine.stats()["resyncs"] == 1
        # The recomputed answer reflects the mutated graph (inserting e1
        # promotes Bob's SA sponsorship per the paper's Example 5).
        reference = engine.evaluate(
            "fig1", paper_pattern(), use_cache=False, cache_result=False
        )
        assert second.relation == reference.relation
        assert second.relation == match_bounded(
            paper_graph(include_e1=True), paper_pattern()
        ).relation

    def test_explain_agrees_after_out_of_band_mutation(self, engine):
        engine.evaluate("fig1", paper_pattern())
        assert engine.explain("fig1", paper_pattern()).route == "cache"
        engine.graph("fig1").add_edge(*EDGE_E1)
        # explain() resolves the graph through the same check evaluate()
        # does, so it must not promise a cache route evaluate() would miss.
        assert engine.explain("fig1", paper_pattern()).route == "direct"
        assert engine.evaluate("fig1", paper_pattern()).stats["route"] == "direct"
        assert engine.stats()["resyncs"] == 1

    def test_attribute_write_invalidates_cached_result(self, engine):
        engine.evaluate("fig1", paper_pattern())
        engine.graph("fig1").set("Bob", "field", "BIO")
        second = engine.evaluate("fig1", paper_pattern())
        assert second.stats["route"] == "direct"
        assert "Bob" not in second.relation.matches_of("SA")
        assert second.relation == match_bounded(
            engine.graph("fig1"), paper_pattern()
        ).relation
        assert engine.stats()["resyncs"] == 1


class TestCompressionManagement:
    def test_maintained_requires_bisimulation(self, engine):
        with pytest.raises(CompressionError, match="bisimulation"):
            engine.compress_graph("fig1", attrs=("field",), method="simulation")

    def test_static_simulation_compression_allowed(self, engine):
        compressed = engine.compress_graph(
            "fig1", attrs=("field",), method="simulation", maintained=False
        )
        assert compressed.quotient.num_nodes <= 9

    def test_drop_compression(self, engine):
        engine.compress_graph("fig1", attrs=("field",))
        engine.drop_compression("fig1")
        assert engine.explain("fig1", label_pattern()).route == "direct"

    def test_static_compression_invalidated_by_update(self, engine):
        engine.compress_graph("fig1", attrs=("field",), maintained=False)
        engine.update_graph("fig1", [EdgeInsertion(*EDGE_E1)])
        assert engine.explain("fig1", label_pattern()).route == "direct"

    def test_maintained_compression_survives_update(self, engine):
        engine.compress_graph("fig1", attrs=("field",))
        engine.update_graph("fig1", [EdgeInsertion(*EDGE_E1)])
        plan = engine.explain("fig1", label_pattern())
        assert plan.route == "compressed"


class TestUpdatesAndPinning:
    def test_update_invalidates_unpinned_cache(self, engine):
        engine.evaluate("fig1", paper_pattern())
        summary = engine.update_graph("fig1", [EdgeInsertion(*EDGE_E1)])
        assert summary["invalidated_cache_entries"] == 1
        result = engine.evaluate("fig1", paper_pattern())
        assert result.stats["route"] == "direct"
        assert "Fred" in result.relation.matches_of("SD")

    def test_pinned_query_maintained_incrementally(self, engine):
        engine.pin("fig1", paper_pattern())
        summary = engine.update_graph("fig1", [EdgeInsertion(*EDGE_E1)])
        delta = summary["pinned_deltas"][paper_pattern().canonical_key()]
        assert delta["added"] == {("SD", "Fred")}
        assert delta["removed"] == set()
        # The refreshed result is served from cache.
        result = engine.evaluate("fig1", paper_pattern())
        assert result.stats["route"] == "cache"
        assert "Fred" in result.relation.matches_of("SD")

    def test_pin_simulation_pattern_uses_simulation_maintainer(self, engine):
        pattern = label_pattern(bound=1)
        engine.pin("fig1", pattern)
        summary = engine.update_graph("fig1", [EdgeInsertion(*EDGE_E1)])
        assert pattern.canonical_key() in summary["pinned_deltas"]

    def test_pin_twice_is_idempotent(self, engine):
        engine.pin("fig1", paper_pattern())
        engine.pin("fig1", paper_pattern())
        assert engine.cache_stats()["pinned"] == 1

    def test_unpin(self, engine):
        engine.pin("fig1", paper_pattern())
        engine.unpin("fig1", paper_pattern())
        assert engine.cache_stats()["pinned"] == 0

    def test_version_bumps_per_batch(self, engine):
        before = engine.graph("fig1").version
        summary = engine.update_graph("fig1", [EdgeInsertion(*EDGE_E1)])
        result = engine.evaluate("fig1", paper_pattern())
        # One meaning: the graph's own version, as the service reports it.
        assert result.stats["graph_version"] == engine.graph("fig1").version
        assert summary["graph_version"] == before + 1

    def test_pinned_query_agrees_with_recompute_under_random_updates(self):
        engine = QueryEngine()
        graph = collaboration_graph(150, seed=8)
        engine.register_graph("net", graph)
        pattern = label_pattern(bound=2)
        engine.pin("net", pattern)
        engine.compress_graph("net", attrs=("field",))
        for round_seed in range(3):
            batch = random_updates(graph, 10, seed=round_seed)
            engine.update_graph("net", batch)
            cached = engine.evaluate("net", pattern)
            assert cached.stats["route"] == "cache"
            recomputed = match_bounded(graph, pattern)
            assert cached.relation == recomputed.relation


class TestTopK:
    def test_top_k_default_metric(self, engine):
        ranked = engine.top_k("fig1", paper_pattern(), 2)
        assert [match.node for match in ranked] == ["Bob", "Walt"]

    def test_top_k_alternative_metric(self, engine):
        scored = engine.top_k("fig1", paper_pattern(), 2, metric="degree")
        assert scored[0][0] == "Bob"

    def test_top_k_requires_output_node(self, engine):
        pattern = PatternBuilder().node("A", 'field == "SA"').build()
        with pytest.raises(Exception):
            engine.top_k("fig1", pattern, 1)

    def test_top_k_metric_object(self, engine):
        from repro.ranking.metrics import HarmonicMetric

        scored = engine.top_k("fig1", paper_pattern(), 1, metric=HarmonicMetric())
        assert scored[0][0] == "Bob"


class TestOracleManagement:
    """enable_oracle / oracle_stats / invalidation-vs-survival semantics."""

    def test_disabled_by_default(self, engine):
        assert engine.oracle_stats("fig1") is None
        result = engine.evaluate("fig1", paper_pattern())
        assert engine.oracle_cache_stats()["builds"] == 0
        assert result.is_match

    def test_enable_builds_lazily_and_warms(self, engine):
        engine.enable_oracle("fig1")
        assert engine.oracle_stats("fig1")["state"] == "cold"
        first = engine.evaluate("fig1", paper_pattern(), use_cache=False,
                                cache_result=False)
        stats = engine.oracle_stats("fig1")
        assert stats["state"] == "warm"
        assert stats["nodes"] == paper_graph().num_nodes
        assert engine.oracle_cache_stats()["builds"] == 1
        second = engine.evaluate("fig1", paper_pattern(), use_cache=False,
                                 cache_result=False)
        assert engine.oracle_cache_stats()["builds"] == 1  # reused
        assert second.relation == first.relation
        plain = QueryEngine()
        plain.register_graph("fig1", paper_graph())
        reference = plain.evaluate("fig1", paper_pattern())
        assert first.relation == reference.relation
        assert first.relation.to_dict() == reference.relation.to_dict()

    def test_disable_drops_the_cached_labels(self, engine):
        engine.enable_oracle("fig1")
        engine.evaluate("fig1", paper_pattern(), use_cache=False,
                        cache_result=False)
        engine.disable_oracle("fig1")
        assert engine.oracle_stats("fig1") is None
        assert engine.oracle_cache_stats()["invalidations"] >= 1

    def test_reconfigure_invalidates(self, engine):
        engine.enable_oracle("fig1")
        engine.evaluate("fig1", paper_pattern(), use_cache=False,
                        cache_result=False)
        engine.enable_oracle("fig1", cap=2)
        assert engine.oracle_stats("fig1") == {"state": "cold", "cap": 2, "top": None}
        engine.enable_oracle("fig1", cap=2)  # same config: no extra drop
        assert engine.oracle_stats("fig1")["state"] == "cold"

    def test_structural_update_invalidates(self, engine):
        engine.enable_oracle("fig1")
        engine.evaluate("fig1", paper_pattern(), use_cache=False,
                        cache_result=False)
        engine.update_graph("fig1", [EdgeInsertion(*EDGE_E1)])
        assert engine.oracle_stats("fig1")["state"] == "cold"
        assert engine.oracle_cache_stats()["invalidations"] == 1
        # The next evaluation rebuilds against the post-update graph.
        result = engine.evaluate("fig1", paper_pattern(), use_cache=False,
                                 cache_result=False)
        assert engine.oracle_stats("fig1")["state"] == "warm"
        plain = QueryEngine()
        updated = paper_graph()
        updated.add_edge(*EDGE_E1)
        plain.register_graph("g", updated)
        assert result.relation == plain.evaluate("g", paper_pattern()).relation

    def test_distance_preserving_batch_survives(self, engine):
        from repro.incremental.updates import AttributeUpdate, NodeInsertion

        engine.enable_oracle("fig1")
        engine.evaluate("fig1", paper_pattern(), use_cache=False,
                        cache_result=False)
        engine.update_graph("fig1", [
            AttributeUpdate("Bob", "experience", 9),
            NodeInsertion.with_attrs("Newcomer", field="SA", experience=1),
        ])
        stats = engine.oracle_stats("fig1")
        assert stats["state"] == "warm"  # refreshed in place, no rebuild
        assert engine.oracle_cache_stats()["refreshes"] == 1
        assert engine.oracle_cache_stats()["builds"] == 1
        # And the surviving labels still answer correctly for the new graph.
        result = engine.evaluate("fig1", paper_pattern(), use_cache=False,
                                 cache_result=False)
        assert engine.oracle_cache_stats()["builds"] == 1
        plain = QueryEngine()
        plain.register_graph("g", engine.graph("fig1"))
        assert result.relation == plain.evaluate("g", paper_pattern()).relation

    def test_explain_reports_oracle_state_and_edge_routes(self, engine):
        engine.enable_oracle("fig1")
        for pattern in (paper_pattern(), label_pattern(bound=1)):
            cold = engine.explain("fig1", pattern)
            assert any("distance oracle: cold" in r for r in cold.reasons)
            assert cold.edge_routes  # every pattern edge has a route
            assert {route.edge for route in cold.edge_routes} == {
                (s, t) for s, t, _b in pattern.edges()
            }
        engine.evaluate("fig1", paper_pattern(), use_cache=False,
                        cache_result=False)
        warm = engine.explain("fig1", paper_pattern())
        assert any("distance oracle: warm" in r for r in warm.reasons)
        assert "edge" in warm.explain()

    def test_explain_without_oracle_mentions_enablement(self, engine):
        plan = engine.explain("fig1", paper_pattern())
        assert any("distance oracle: disabled" in r for r in plan.reasons)

    def test_register_replace_drops_oracle(self, engine):
        engine.enable_oracle("fig1")
        engine.evaluate("fig1", paper_pattern(), use_cache=False,
                        cache_result=False)
        engine.register_graph("fig1", paper_graph(), replace=True)
        assert engine.oracle_cache_stats()["invalidations"] >= 1

    def test_unknown_graph_raises(self, engine):
        with pytest.raises(EvaluationError, match="unknown graph"):
            engine.enable_oracle("nope")
        with pytest.raises(EvaluationError, match="unknown graph"):
            engine.oracle_stats("nope")

    def test_batch_evaluation_uses_the_oracle(self, engine):
        engine.enable_oracle("fig1")
        results = engine.evaluate_many(
            "fig1", [paper_pattern(), label_pattern()], use_cache=False,
            cache_result=False,
        )
        assert engine.oracle_stats("fig1")["state"] == "warm"
        plain = QueryEngine()
        plain.register_graph("fig1", paper_graph())
        reference = plain.evaluate_many(
            "fig1", [paper_pattern(), label_pattern()], use_cache=False,
            cache_result=False,
        )
        for mine, theirs in zip(results, reference):
            assert mine.relation == theirs.relation

    def test_cache_stats_carry_oracle_counters(self, engine):
        stats = engine.cache_stats()
        assert "oracles" in stats and stats["oracles"]["size"] == 0

    def test_warm_oracle_builds_eagerly(self, engine):
        with pytest.raises(EvaluationError, match="not enabled"):
            engine.warm_oracle("fig1")
        engine.enable_oracle("fig1")
        stats = engine.warm_oracle("fig1")
        assert stats["state"] == "warm"
        assert engine.oracle_cache_stats()["builds"] == 1
        engine.warm_oracle("fig1")  # idempotent: cached labels reused
        assert engine.oracle_cache_stats()["builds"] == 1
