"""Unit tests for incremental compression maintenance."""

import pytest

from repro.compression.compress import compress
from repro.compression.decompress import decompress_relation
from repro.compression.maintain import MaintainedCompression
from repro.engine.engine import QueryEngine
from repro.errors import UpdateError
from repro.graph.frozen import FrozenGraph
from repro.graph.generators import collaboration_graph, random_digraph
from repro.incremental.updates import (
    AttributeUpdate,
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    apply_updates,
    random_updates,
)
from repro.matching.bounded import match_bounded
from repro.pattern.builder import PatternBuilder

from tests.conftest import drive, make_labelled_graph


class TestBasics:
    def test_initial_partition_matches_batch_compression(self):
        g = collaboration_graph(60, seed=1)
        maintained = MaintainedCompression(g.copy(), attrs=("field",))
        batch = compress(g, attrs=("field",), method="bisimulation")
        assert maintained.compressed().quotient.num_nodes == batch.quotient.num_nodes
        assert maintained.compressed().quotient.num_edges == batch.quotient.num_edges

    def test_members_listed_in_graph_order_as_batch_compression(self):
        g = collaboration_graph(60, seed=1)
        maintained = MaintainedCompression(g, attrs=("field",))
        batch = compress(g, attrs=("field",), method="bisimulation")
        assert maintained.compressed().members == batch.members
        drive(maintained, *random_updates(g, 6, seed=2))
        compressed = maintained.compressed()
        order = {node: i for i, node in enumerate(g.nodes())}
        for members in compressed.members.values():
            assert members == sorted(members, key=order.__getitem__)

    def test_insertion_splits_class(self):
        g = make_labelled_graph([], {"x": "A", "y": "A", "c": "C"})
        maintained = MaintainedCompression(g, attrs=("label",))
        assert maintained.num_classes == 2  # {x,y}, {c}
        drive(maintained, EdgeInsertion("x", "c"))
        assert maintained.num_classes == 3  # x split away from y
        maintained.check_partition()

    def test_deletion_keeps_partition_stable(self):
        g = make_labelled_graph(
            [("x", "c"), ("y", "c")], {"x": "A", "y": "A", "c": "C"}
        )
        maintained = MaintainedCompression(g, attrs=("label",))
        assert maintained.num_classes == 2
        drive(maintained, EdgeDeletion("x", "c"))
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
        drive(maintained, EdgeInsertion("x", "c"))
        maintained.check_partition()
        node_class = maintained.compressed().node_to_class
        assert node_class["p1"] != node_class["p2"]

    def test_staleness_counter_and_recompress(self):
        g = make_labelled_graph([], {"x": "A", "y": "A", "c": "C"})
        maintained = MaintainedCompression(g, attrs=("label",))
        drive(maintained, EdgeInsertion("x", "c"))
        drive(maintained, EdgeDeletion("x", "c"))
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
        with pytest.raises(UpdateError):
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
            drive(maintained, update)
            maintained.check_partition()
            compressed = maintained.compressed()
            direct = match_bounded(g, q).relation
            on_quotient = match_bounded(compressed.quotient, q).relation
            assert decompress_relation(on_quotient, compressed) == direct

    def test_partition_never_coarser_than_fresh_bisimulation(self):
        g = random_digraph(25, 50, num_labels=2, seed=9)
        maintained = MaintainedCompression(g, attrs=("label",))
        for update in random_updates(g, 20, seed=10):
            drive(maintained, update)
        fresh = compress(g, attrs=("label",), method="bisimulation")
        assert maintained.num_classes >= fresh.quotient.num_nodes

    def test_follows_a_write_made_by_the_caller(self):
        g = make_labelled_graph([], {"x": "A", "y": "A", "c": "C"})
        maintained = MaintainedCompression(g, attrs=("label",))
        g.add_edge("x", "c")
        maintained.apply(EdgeInsertion("x", "c"))
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


def readable(frozen):
    """What a reader sees of a snapshot: labels, rows, attributes."""
    return (
        tuple(frozen.labels),
        [list(frozen.successors(v)) for v in frozen.labels],
        [list(frozen.predecessors(v)) for v in frozen.labels],
        [frozen.node_attrs(v) for v in frozen.labels],
    )


class TestLiveQuotient:
    """The quotient is one live graph written through update primitives;
    its snapshot is patched from them."""

    def test_view_is_valid_until_the_next_update_and_its_snapshot_is_immutable(self):
        g = collaboration_graph(60, seed=1)
        maintained = MaintainedCompression(g, attrs=("field",))
        view = maintained.compressed()
        snapshot = view.frozen()
        shown = readable(snapshot)
        assert maintained.compressed() is view  # one view per version
        drive(maintained, *random_updates(g, 8, seed=2))
        current = maintained.compressed()
        assert current is not view
        assert current.quotient is view.quotient  # the live quotient
        assert not snapshot.matches(current.quotient)
        assert current.frozen() is not snapshot
        assert current.frozen().matches(current.quotient)
        assert readable(snapshot) == shown

    def test_label_write_on_a_singleton_class_rewrites_its_class_node(self):
        g = make_labelled_graph([("x", "c")], {"x": "A", "c": "C"})
        maintained = MaintainedCompression(g, attrs=("label",))
        maintained.compressed()
        drive(maintained, AttributeUpdate("x", "label", "B"))
        maintained.check_partition()
        compressed = maintained.compressed()
        cid = compressed.class_of("x")
        assert compressed.quotient.attrs(cid)["label"] == "B"
        assert compressed.frozen().node_attrs(cid)["label"] == "B"

    def test_refused_primitive_leaves_the_quotient_untouched(self):
        g = make_labelled_graph([("x", "c")], {"x": "A", "y": "A", "c": "C"})
        maintained = MaintainedCompression(g, attrs=("label",))
        view = maintained.compressed()
        version = view.quotient.version
        with pytest.raises(UpdateError, match="does not reflect"):
            maintained.apply(EdgeInsertion("y", "c"))
        assert view.quotient.version == version
        assert maintained.compressed() is view

    def test_error_mid_batch_leaves_the_applied_prefix_exact(self):
        g = make_labelled_graph([("x", "c")], {"x": "A", "y": "A", "c": "C"})
        maintained = MaintainedCompression(g, attrs=("label",))
        maintained.compressed()
        batch = [EdgeInsertion("y", "c"), EdgeDeletion("x", "c"), EdgeDeletion("x", "c")]
        with pytest.raises(UpdateError):
            apply_updates(g, batch, [maintained.apply])
        maintained.check_partition()
        compressed = maintained.compressed()
        assert readable(compressed.frozen()) == readable(
            FrozenGraph.freeze(compressed.quotient)
        )


class TestQuotientWork:
    """After the first build, single-edge updates patch the quotient
    snapshot: the only full freezes are ``patched``'s fallbacks (a class
    deletion) and ``recompress``."""

    FIELD_ONLY = (
        PatternBuilder()
        .node("A", 'field == "SA"')
        .node("B", 'field == "SD"')
        .edge("A", "B", 2)
        .build()
    )

    @staticmethod
    def quotient_freezes(monkeypatch, graph):
        frozen_graphs = []
        freeze = FrozenGraph.freeze

        def counting(cls, frozen_graph):
            frozen_graphs.append(frozen_graph)
            return freeze(frozen_graph)

        monkeypatch.setattr(FrozenGraph, "freeze", classmethod(counting))
        return lambda: sum(1 for seen in frozen_graphs if seen is not graph)

    def evaluate(self, engine, graph):
        result = engine.evaluate("g", self.FIELD_ONLY, use_cache=False)
        assert result.stats["route"] == "compressed"
        assert result.stats["candidate_source"] == "index"
        assert result.relation == match_bounded(graph, self.FIELD_ONLY).relation

    def test_freezes_only_on_a_class_deletion_and_after_recompress(self, monkeypatch):
        g = collaboration_graph(300, seed=1)
        engine = QueryEngine()
        engine.register_graph("g", g)
        engine.compress_graph("g", ("field",))
        self.evaluate(engine, g)
        count = self.quotient_freezes(monkeypatch, g)
        for update in random_updates(g, 30, seed=5):
            engine.update_graph("g", [update])
            self.evaluate(engine, g)
        assert count() == 0

        engine._registered["g"].compression.recompress()
        self.evaluate(engine, g)
        self.evaluate(engine, g)
        assert count() == 1

        members = engine._registered["g"].compressed().members
        singleton = next(nodes[0] for nodes in members.values() if len(nodes) == 1)
        engine.update_graph("g", [NodeDeletion(singleton)])
        self.evaluate(engine, g)
        self.evaluate(engine, g)
        assert count() == 2
