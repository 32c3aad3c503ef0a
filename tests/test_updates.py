"""Unit tests for edge updates and random update generation."""

import pytest

from repro.errors import UpdateError
from repro.graph.digraph import Graph
from repro.graph.generators import random_digraph
from repro.incremental.updates import (
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    apply_updates,
    invert_batch,
    random_deletions,
    random_insertions,
    random_updates,
)


@pytest.fixture
def triangle() -> Graph:
    return Graph.from_edges([("a", "b"), ("b", "c"), ("c", "a")])


class TestUnitUpdates:
    def test_insertion_applies(self, triangle: Graph):
        EdgeInsertion("a", "c").apply(triangle)
        assert triangle.has_edge("a", "c")

    def test_insertion_of_existing_edge_raises(self, triangle: Graph):
        with pytest.raises(UpdateError, match="already present"):
            EdgeInsertion("a", "b").apply(triangle)

    def test_insertion_with_unknown_endpoint_raises(self, triangle: Graph):
        with pytest.raises(UpdateError, match="missing"):
            EdgeInsertion("a", "zzz").apply(triangle)

    def test_deletion_applies(self, triangle: Graph):
        EdgeDeletion("a", "b").apply(triangle)
        assert not triangle.has_edge("a", "b")

    def test_deletion_of_missing_edge_raises(self, triangle: Graph):
        with pytest.raises(UpdateError, match="not present"):
            EdgeDeletion("a", "c").apply(triangle)

    def test_inversion(self):
        insertion = EdgeInsertion("a", "b")
        assert insertion.inverted() == EdgeDeletion("a", "b")
        assert insertion.inverted().inverted() == insertion

    def test_updates_are_hashable_values(self):
        assert EdgeInsertion("a", "b") == EdgeInsertion("a", "b")
        assert len({EdgeInsertion("a", "b"), EdgeInsertion("a", "b")}) == 1


class TestBatches:
    def test_apply_updates_in_order(self, triangle: Graph):
        batch = [EdgeDeletion("a", "b"), EdgeInsertion("a", "b")]  # delete then re-add
        assert apply_updates(triangle, batch) == batch
        assert triangle.has_edge("a", "b")

    def test_observers_see_each_primitive_after_the_graph_took_it(self, triangle: Graph):
        seen = []

        def first(primitive):
            seen.append(("first", primitive, triangle.has_node("a")))

        def second(primitive):
            seen.append(("second", primitive, triangle.has_node("a")))

        applied = apply_updates(triangle, [NodeDeletion("a")], [first, second])
        assert applied == [EdgeDeletion("a", "b"), EdgeDeletion("c", "a"), NodeDeletion("a")]
        assert [entry[:2] for entry in seen] == [
            (name, primitive) for primitive in applied for name in ("first", "second")
        ]
        # the node is still there for its edge deletions, gone for its own
        assert [present for _, _, present in seen] == [True] * 4 + [False] * 2

    def test_failing_observer_leaves_the_graph_ahead_by_that_primitive(
        self, triangle: Graph
    ):
        applied: list = []

        def refuse(primitive):
            raise UpdateError("observer refused")

        with pytest.raises(UpdateError, match="observer refused"):
            apply_updates(
                triangle,
                [EdgeDeletion("a", "b"), EdgeDeletion("b", "c")],
                [applied.append, refuse],
            )
        assert applied == [EdgeDeletion("a", "b")]
        assert not triangle.has_edge("a", "b") and triangle.has_edge("b", "c")

    def test_invert_batch_round_trips(self, triangle: Graph):
        snapshot = triangle.copy()
        batch = [EdgeDeletion("a", "b"), EdgeInsertion("b", "a")]
        apply_updates(triangle, batch)
        apply_updates(triangle, invert_batch(batch))
        assert triangle == snapshot

    def test_failed_update_stops_mid_batch(self, triangle: Graph):
        with pytest.raises(UpdateError):
            apply_updates(
                triangle,
                [EdgeDeletion("a", "b"), EdgeDeletion("a", "b")],  # second fails
            )
        assert not triangle.has_edge("a", "b")  # first applied


class TestRandomGeneration:
    def test_random_insertions_are_valid_and_distinct(self):
        g = random_digraph(20, 40, seed=1)
        batch = random_insertions(g, 15, seed=2)
        assert len(set(batch)) == 15
        apply_updates(g, batch)  # no exception: all were valid

    def test_random_insertions_capacity_check(self):
        g = Graph.from_edges([("a", "b"), ("b", "a")])
        with pytest.raises(UpdateError, match="free node pairs"):
            random_insertions(g, 1, seed=0)

    def test_random_deletions_from_existing_edges(self):
        g = random_digraph(20, 40, seed=3)
        batch = random_deletions(g, 10, seed=4)
        assert len(set(batch)) == 10
        apply_updates(g, batch)

    def test_random_deletions_capacity_check(self):
        g = random_digraph(5, 2, seed=5)
        with pytest.raises(UpdateError, match="only 2 edges"):
            random_deletions(g, 3, seed=6)

    def test_random_updates_valid_in_sequence(self):
        g = random_digraph(15, 30, seed=7)
        batch = random_updates(g, 40, seed=8)
        assert len(batch) == 40
        apply_updates(g, batch)  # validity is order-sensitive: must not raise

    def test_random_updates_deterministic(self):
        g = random_digraph(15, 30, seed=9)
        assert random_updates(g, 10, seed=1) == random_updates(g, 10, seed=1)

    def test_random_updates_does_not_mutate_input(self):
        g = random_digraph(15, 30, seed=10)
        snapshot = g.copy()
        random_updates(g, 10, seed=2)
        assert g == snapshot

    def test_insert_ratio_extremes(self):
        g = random_digraph(15, 30, seed=11)
        only_inserts = random_updates(g, 10, seed=3, insert_ratio=1.0)
        assert all(isinstance(u, EdgeInsertion) for u in only_inserts)
        only_deletes = random_updates(g, 10, seed=4, insert_ratio=0.0)
        assert all(isinstance(u, EdgeDeletion) for u in only_deletes)

    def test_bad_insert_ratio_raises(self):
        g = random_digraph(5, 5, seed=12)
        with pytest.raises(UpdateError):
            random_updates(g, 3, insert_ratio=1.5)

    def test_too_small_graph_raises(self):
        g = Graph()
        g.add_node("a")
        with pytest.raises(UpdateError):
            random_updates(g, 3)
