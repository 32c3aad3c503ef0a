"""Error-hierarchy guarantees and miscellaneous engine edge cases."""

import pytest

import repro.errors as errors
from repro.datasets.paper_example import EDGE_E1, paper_graph, paper_pattern
from repro.engine.engine import QueryEngine
from repro.incremental.updates import EdgeInsertion
from repro.pattern.builder import PatternBuilder


class TestErrorHierarchy:
    def test_every_error_derives_from_repro_error(self):
        error_types = [
            getattr(errors, name)
            for name in dir(errors)
            if isinstance(getattr(errors, name), type)
            and issubclass(getattr(errors, name), Exception)
        ]
        assert len(error_types) >= 10
        for error_type in error_types:
            assert issubclass(error_type, errors.ReproError)

    def test_one_except_clause_catches_everything(self):
        from repro.graph.digraph import Graph

        try:
            Graph().remove_node("missing")
        except errors.ReproError:
            pass
        else:  # pragma: no cover
            pytest.fail("GraphError escaped the ReproError umbrella")

    def test_errors_are_not_each_other(self):
        assert not issubclass(errors.GraphError, errors.PatternError)
        assert not issubclass(errors.CacheError, errors.StorageError)


class TestEngineEdges:
    def test_cache_result_false_leaves_cache_cold(self):
        engine = QueryEngine()
        engine.register_graph("fig1", paper_graph())
        engine.evaluate("fig1", paper_pattern(), cache_result=False)
        result = engine.evaluate("fig1", paper_pattern())
        assert result.stats["route"] == "direct"  # nothing was cached

    def test_pin_upgrades_existing_unpinned_entry(self):
        engine = QueryEngine()
        engine.register_graph("fig1", paper_graph())
        engine.evaluate("fig1", paper_pattern())   # cached, unpinned
        engine.pin("fig1", paper_pattern())
        assert engine.cache_stats()["pinned"] == 1
        # The pinned entry survives an update and stays correct.
        engine.update_graph("fig1", [EdgeInsertion(*EDGE_E1)])
        result = engine.evaluate("fig1", paper_pattern())
        assert result.stats["route"] == "cache"
        assert "Fred" in result.relation.matches_of("SD")

    def test_update_with_empty_batch_is_a_version_bump(self):
        engine = QueryEngine()
        engine.register_graph("fig1", paper_graph())
        before = engine.graph("fig1").version
        summary = engine.update_graph("fig1", [])
        assert summary["applied"] == 0
        # graph_version is the graph's own version: nothing was written.
        assert summary["graph_version"] == engine.graph("fig1").version == before

    def test_register_replace_clears_stale_cache(self):
        engine = QueryEngine()
        engine.register_graph("g", paper_graph())
        engine.evaluate("g", paper_pattern())
        engine.register_graph("g", paper_graph(include_e1=True), replace=True)
        result = engine.evaluate("g", paper_pattern())
        assert result.stats["route"] == "direct"  # old cache entry dropped
        assert "Fred" in result.relation.matches_of("SD")

    def test_evaluate_validates_pattern(self):
        engine = QueryEngine()
        engine.register_graph("fig1", paper_graph())
        from repro.errors import PatternError
        from repro.pattern.pattern import Pattern

        with pytest.raises(PatternError):
            engine.evaluate("fig1", Pattern())

    def test_same_pattern_different_graphs_cached_separately(self):
        engine = QueryEngine()
        engine.register_graph("without", paper_graph())
        engine.register_graph("with", paper_graph(include_e1=True))
        first = engine.evaluate("without", paper_pattern())
        second = engine.evaluate("with", paper_pattern())
        assert first.relation != second.relation
        assert engine.evaluate("without", paper_pattern()).relation == first.relation

    def test_unbounded_pattern_goes_through_bounded_algorithm(self):
        engine = QueryEngine()
        engine.register_graph("fig1", paper_graph())
        pattern = (
            PatternBuilder()
            .node("SA", field="SA", output=True)
            .node("ST", field="ST")
            .edge("SA", "ST", None)
            .build()
        )
        result = engine.evaluate("fig1", pattern)
        assert result.stats["algorithm"] == "bounded-simulation"
        assert result.relation.matches_of("SA") == {"Bob", "Walt"}
