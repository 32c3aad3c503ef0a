"""Unit tests for incremental compression maintenance."""

import pytest

from repro.compression.compress import compress
from repro.compression.decompress import decompress_relation
from repro.compression.maintain import MaintainedCompression
from repro.errors import CompressionError
from repro.graph.generators import collaboration_graph, random_digraph
from repro.incremental.updates import EdgeDeletion, EdgeInsertion, random_updates
from repro.matching.bounded import match_bounded
from repro.pattern.builder import PatternBuilder

from tests.conftest import make_labelled_graph


class TestBasics:
    def test_initial_partition_matches_batch_compression(self):
        g = collaboration_graph(60, seed=1)
        maintained = MaintainedCompression(g.copy(), attrs=("field",))
        batch = compress(g, attrs=("field",), method="bisimulation")
        assert maintained.compressed().quotient.num_nodes == batch.quotient.num_nodes
        assert maintained.compressed().quotient.num_edges == batch.quotient.num_edges

    def test_insertion_splits_class(self):
        g = make_labelled_graph([], {"x": "A", "y": "A", "c": "C"})
        maintained = MaintainedCompression(g, attrs=("label",))
        assert maintained.num_classes == 2  # {x,y}, {c}
        maintained.apply(EdgeInsertion("x", "c"))
        assert maintained.num_classes == 3  # x split away from y
        maintained.check_partition()

    def test_deletion_keeps_partition_stable(self):
        g = make_labelled_graph(
            [("x", "c"), ("y", "c")], {"x": "A", "y": "A", "c": "C"}
        )
        maintained = MaintainedCompression(g, attrs=("label",))
        assert maintained.num_classes == 2
        maintained.apply(EdgeDeletion("x", "c"))
        maintained.check_partition()
        assert maintained.num_classes == 3

    def test_split_propagates_to_predecessors(self):
        # p1 -> x, p2 -> y; x,y start merged, so p1,p2 start merged.
        # Splitting x/y must split p1/p2 too.
        g = make_labelled_graph(
            [("p1", "x"), ("p2", "y")],
            {"p1": "P", "p2": "P", "x": "A", "y": "A", "c": "C"},
        )
        maintained = MaintainedCompression(g, attrs=("label",))
        assert maintained.num_classes == 3
        maintained.apply(EdgeInsertion("x", "c"))
        maintained.check_partition()
        node_class = maintained.compressed().node_to_class
        assert node_class["p1"] != node_class["p2"]

    def test_staleness_counter_and_recompress(self):
        g = make_labelled_graph([], {"x": "A", "y": "A", "c": "C"})
        maintained = MaintainedCompression(g, attrs=("label",))
        maintained.apply(EdgeInsertion("x", "c"))
        maintained.apply(EdgeDeletion("x", "c"))
        assert maintained.staleness == 2
        # After deleting the edge again, x and y are structurally identical,
        # but local splitting never re-merges; recompress restores coarseness.
        assert maintained.num_classes == 3
        maintained.recompress()
        assert maintained.staleness == 0
        assert maintained.num_classes == 2

    def test_unknown_update_type(self):
        maintained = MaintainedCompression(
            make_labelled_graph([], {"x": "A"}), attrs=("label",)
        )
        with pytest.raises(CompressionError):
            maintained.apply("nope")  # type: ignore[arg-type]


class TestQueryPreservationUnderUpdates:
    @pytest.mark.parametrize("seed", range(6))
    def test_maintained_quotient_stays_query_preserving(self, seed):
        g = random_digraph(20, 45, num_labels=2, seed=seed)
        maintained = MaintainedCompression(g, attrs=("label",))
        q = (
            PatternBuilder()
            .node("A", 'label == "L0"')
            .node("B", 'label == "L1"')
            .edge("A", "B", 2)
            .build()
        )
        for update in random_updates(g, 15, seed=seed + 40):
            maintained.apply(update)
            maintained.check_partition()
            compressed = maintained.compressed()
            direct = match_bounded(g, q).relation
            on_quotient = match_bounded(compressed.quotient, q).relation
            assert decompress_relation(on_quotient, compressed) == direct

    def test_partition_never_coarser_than_fresh_bisimulation(self):
        g = random_digraph(25, 50, num_labels=2, seed=9)
        maintained = MaintainedCompression(g, attrs=("label",))
        for update in random_updates(g, 20, seed=10):
            maintained.apply(update)
        fresh = compress(g, attrs=("label",), method="bisimulation")
        assert maintained.num_classes >= fresh.quotient.num_nodes

    def test_apply_to_graph_false(self):
        g = make_labelled_graph([], {"x": "A", "y": "A", "c": "C"})
        maintained = MaintainedCompression(g, attrs=("label",))
        g.add_edge("x", "c")
        maintained.apply(EdgeInsertion("x", "c"), apply_to_graph=False)
        maintained.check_partition()
        assert maintained.num_classes == 3

    def test_unsound_for_simulation_partitions_documented(self):
        """The counterexample from the maintenance module docstring.

        With a *simulation-equivalence* partition ({x,y} merged because the
        leaf n is simulated by m), an update far from any dirty class makes
        the merge wrong.  This test pins the reason maintenance refuses
        simulation partitions: local splitting would not catch this.
        """
        g = make_labelled_graph(
            [("x", "m"), ("y", "m"), ("y", "n"), ("m", "c")],
            {"x": "A", "y": "A", "m": "B", "n": "B", "c": "C", "d": "D"},
        )
        label_of = lambda v: g.get(v, "label")
        from repro.compression.equivalence import mutually_similar

        assert mutually_similar(g, label_of, "x", "y")
        g.add_edge("n", "d")  # n can now move where m cannot follow
        assert not mutually_similar(g, label_of, "x", "y")
