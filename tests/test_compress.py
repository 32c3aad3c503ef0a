"""Unit tests for compression construction and decompression."""

import pytest

from repro.compression.compress import CompressionSpec, compress
from repro.compression.decompress import decompress_relation, decompress_result
from repro.errors import CompressionError
from repro.graph.generators import collaboration_graph, random_digraph, twitter_like_graph
from repro.matching.base import MatchRelation
from repro.matching.bounded import match_bounded
from repro.matching.simulation import match_simulation
from repro.pattern.builder import PatternBuilder

from tests.conftest import make_labelled_graph


def label_query(bound=2):
    return (
        PatternBuilder()
        .node("A", 'label == "A"')
        .node("B", 'label == "B"')
        .edge("A", "B", bound)
        .build()
    )


class TestSpec:
    def test_empty_attrs_rejected(self):
        with pytest.raises(CompressionError):
            CompressionSpec(attrs=(), method="bisimulation")

    def test_unknown_method_rejected(self):
        with pytest.raises(CompressionError):
            CompressionSpec(attrs=("label",), method="magic")


class TestQuotientStructure:
    def test_members_partition_nodes(self):
        g = collaboration_graph(80, seed=1)
        compressed = compress(g, attrs=("field",))
        seen = [node for members in compressed.members.values() for node in members]
        assert sorted(seen) == sorted(g.nodes())

    def test_class_of_every_node(self):
        g = collaboration_graph(50, seed=2)
        compressed = compress(g, attrs=("field",))
        for node in g.nodes():
            assert node in compressed.members[compressed.class_of(node)]

    def test_class_of_unknown_raises(self):
        compressed = compress(collaboration_graph(20, seed=3), attrs=("field",))
        with pytest.raises(CompressionError):
            compressed.class_of("nobody")

    def test_quotient_carries_label_attrs_and_size(self):
        g = make_labelled_graph([], {"x": "A", "y": "A", "z": "B"})
        compressed = compress(g, attrs=("label",))
        cls = compressed.class_of("x")
        assert compressed.quotient.get(cls, "label") == "A"
        assert compressed.quotient.get(cls, "_size") == 2

    def test_quotient_edges_projected(self):
        g = make_labelled_graph(
            [("x", "c"), ("y", "c")], {"x": "A", "y": "A", "c": "C"}
        )
        compressed = compress(g, attrs=("label",))
        assert compressed.quotient.num_edges == 1

    def test_never_larger_than_original(self):
        for seed in range(4):
            g = random_digraph(40, 90, num_labels=2, seed=seed)
            compressed = compress(g, attrs=("label",))
            assert compressed.quotient.num_nodes <= g.num_nodes
            assert compressed.quotient.num_edges <= g.num_edges

    def test_reduction_metrics_bounds(self):
        g = twitter_like_graph(400, seed=4)
        compressed = compress(g, attrs=("field",))
        assert 0 <= compressed.node_reduction < 1
        assert 0 <= compressed.edge_reduction <= 1
        assert 0 <= compressed.size_reduction < 1

    def test_twitter_graph_compresses_substantially(self):
        """The E7 shape: a social graph loses a large fraction of its size."""
        g = twitter_like_graph(1500, seed=5)
        compressed = compress(g, attrs=("field",))
        assert compressed.size_reduction > 0.4

    def test_simulation_method_never_finer(self):
        g = random_digraph(40, 80, num_labels=2, seed=6)
        bis = compress(g, attrs=("label",), method="bisimulation")
        sim = compress(g, attrs=("label",), method="simulation")
        assert sim.quotient.num_nodes <= bis.quotient.num_nodes

    def test_frozen_quotient_cached_until_stale(self):
        g = random_digraph(30, 70, num_labels=2, seed=3)
        compressed = compress(g, attrs=("label",))
        frozen = compressed.frozen()
        assert frozen.matches(compressed.quotient)
        assert compressed.frozen() is frozen
        compressed.quotient.set(next(compressed.quotient.nodes()), "_size", 0)
        rebuilt = compressed.frozen()
        assert rebuilt is not frozen and rebuilt.matches(compressed.quotient)


class TestCompatibility:
    def test_compatible_when_attrs_covered(self):
        g = collaboration_graph(30, seed=7)
        compressed = compress(g, attrs=("field", "experience"))
        q = PatternBuilder().node("A", 'field == "SA", experience >= 5').build()
        assert compressed.is_compatible(q)

    def test_incompatible_when_pattern_reads_more(self):
        g = collaboration_graph(30, seed=8)
        compressed = compress(g, attrs=("field",))
        q = PatternBuilder().node("A", 'field == "SA", experience >= 5').build()
        assert not compressed.is_compatible(q)
        with pytest.raises(CompressionError, match="experience"):
            compressed.require_compatible(q)


class TestQueryPreservation:
    @pytest.mark.parametrize("method", ["bisimulation", "simulation"])
    @pytest.mark.parametrize("seed", range(5))
    def test_bounded_results_identical(self, method, seed):
        g = random_digraph(25, 60, num_labels=2, seed=seed)
        q = label_query_for_random(bound=2)
        compressed = compress(g, attrs=("label",), method=method)
        direct = match_bounded(g, q).relation
        on_quotient = match_bounded(compressed.quotient, q).relation
        assert decompress_relation(on_quotient, compressed) == direct

    @pytest.mark.parametrize("method", ["bisimulation", "simulation"])
    def test_plain_simulation_results_identical(self, method):
        g = random_digraph(30, 70, num_labels=3, seed=11)
        q = (
            PatternBuilder()
            .node("A", 'label == "L0"')
            .node("B", 'label == "L1"')
            .edge("A", "B", 1)
            .build()
        )
        compressed = compress(g, attrs=("label",), method=method)
        direct = match_simulation(g, q).relation
        on_quotient = match_simulation(compressed.quotient, q).relation
        assert decompress_relation(on_quotient, compressed) == direct

    def test_unbounded_pattern_preserved(self):
        g = random_digraph(25, 55, num_labels=2, seed=12)
        q = label_query_for_random(bound=None)
        compressed = compress(g, attrs=("label",))
        direct = match_bounded(g, q).relation
        on_quotient = match_bounded(compressed.quotient, q).relation
        assert decompress_relation(on_quotient, compressed) == direct

    def test_decompress_result_retargets_original(self):
        g = random_digraph(20, 45, num_labels=2, seed=13)
        q = label_query_for_random(bound=2)
        compressed = compress(g, attrs=("label",))
        on_quotient = match_bounded(compressed.quotient, q)
        full = decompress_result(on_quotient, compressed)
        assert full.graph is g
        assert full.stats["route"] == "compressed"
        # The result graph built from the decompressed result must use true
        # distances of the original graph.
        for source, target, weight in full.result_graph().edges():
            from repro.graph.distance import distance

            assert distance(g, source, target) == weight

    def test_decompress_unknown_class_raises(self):
        g = make_labelled_graph([], {"x": "A"})
        compressed = compress(g, attrs=("label",))
        bogus = MatchRelation({"A": {"not-a-class"}})
        with pytest.raises(CompressionError):
            decompress_relation(bogus, compressed)


def label_query_for_random(bound):
    return (
        PatternBuilder()
        .node("A", 'label == "L0"')
        .node("B", 'label == "L1"')
        .edge("A", "B", bound)
        .build()
    )
