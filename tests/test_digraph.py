"""Unit tests for the directed attributed graph."""

import pytest

from repro.errors import GraphError
from repro.graph.digraph import Graph
from repro.graph.frozen import FrozenGraph
from repro.graph.generators import collaboration_graph
from repro.incremental.updates import random_updates


@pytest.fixture
def small() -> Graph:
    g = Graph(name="small")
    g.add_node("a", kind="x")
    g.add_node("b", kind="y")
    g.add_node("c")
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    return g


class TestConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert g.size == 0
        assert list(g.nodes()) == []
        assert list(g.edges()) == []

    def test_add_node_with_attrs(self):
        g = Graph()
        g.add_node("a", field="SA", experience=7)
        assert g.attrs("a") == {"field": "SA", "experience": 7}

    def test_re_adding_node_merges_attrs(self):
        g = Graph()
        g.add_node("a", x=1)
        g.add_node("a", y=2)
        assert g.attrs("a") == {"x": 1, "y": 2}

    def test_re_adding_node_keeps_edges(self):
        g = Graph()
        g.add_node("a")
        g.add_node("b")
        g.add_edge("a", "b")
        g.add_node("a", x=1)
        assert g.has_edge("a", "b")

    def test_add_nodes_bulk(self):
        g = Graph()
        g.add_nodes(["a", "b", "c"])
        assert g.num_nodes == 3

    def test_add_edge_requires_source(self):
        g = Graph()
        g.add_node("b")
        with pytest.raises(GraphError, match="unknown source"):
            g.add_edge("a", "b")

    def test_add_edge_requires_target(self):
        g = Graph()
        g.add_node("a")
        with pytest.raises(GraphError, match="unknown target"):
            g.add_edge("a", "b")

    def test_duplicate_edge_not_stored(self):
        g = Graph()
        g.add_nodes(["a", "b"])
        assert g.add_edge("a", "b") is True
        assert g.add_edge("a", "b") is False
        assert g.num_edges == 1

    def test_self_loop_allowed(self):
        g = Graph()
        g.add_node("a")
        g.add_edge("a", "a")
        assert g.has_edge("a", "a")
        assert g.out_degree("a") == 1
        assert g.in_degree("a") == 1

    def test_add_edges_returns_new_count(self):
        g = Graph()
        g.add_nodes(["a", "b", "c"])
        assert g.add_edges([("a", "b"), ("a", "b"), ("b", "c")]) == 2

    def test_from_edges_with_attr_mapping(self):
        g = Graph.from_edges(
            [("a", "b")], nodes={"a": {"f": 1}, "b": {"f": 2}, "c": {"f": 3}}
        )
        assert g.num_nodes == 3
        assert g.get("c", "f") == 3
        assert g.has_edge("a", "b")

    def test_from_edges_creates_bare_nodes(self):
        g = Graph.from_edges([("a", "b"), ("b", "c")])
        assert g.num_nodes == 3
        assert g.attrs("a") == {}

    def test_from_edges_with_iterable_nodes(self):
        g = Graph.from_edges([("a", "b")], nodes=["a", "b", "isolated"])
        assert "isolated" in g
        assert g.out_degree("isolated") == 0

    def test_integer_node_ids(self):
        g = Graph.from_edges([(1, 2), (2, 3)])
        assert g.has_edge(1, 2)
        assert g.num_nodes == 3


class TestRemoval:
    def test_remove_edge(self, small: Graph):
        small.remove_edge("a", "b")
        assert not small.has_edge("a", "b")
        assert small.num_edges == 1

    def test_remove_missing_edge_raises(self, small: Graph):
        with pytest.raises(GraphError, match="no such edge"):
            small.remove_edge("a", "c")

    def test_remove_node_drops_incident_edges(self, small: Graph):
        small.remove_node("b")
        assert "b" not in small
        assert small.num_edges == 0
        assert list(small.successors("a")) == []

    def test_remove_missing_node_raises(self, small: Graph):
        with pytest.raises(GraphError, match="unknown node"):
            small.remove_node("zzz")

    def test_remove_node_with_self_loop(self):
        g = Graph()
        g.add_node("a")
        g.add_edge("a", "a")
        g.remove_node("a")
        assert g.num_edges == 0
        assert g.num_nodes == 0


class TestInspection:
    def test_contains(self, small: Graph):
        assert "a" in small
        assert "zzz" not in small

    def test_len(self, small: Graph):
        assert len(small) == 3

    def test_size_counts_nodes_plus_edges(self, small: Graph):
        assert small.size == 5

    def test_successors_and_predecessors(self, small: Graph):
        assert list(small.successors("a")) == ["b"]
        assert list(small.predecessors("c")) == ["b"]
        assert list(small.predecessors("a")) == []

    def test_degrees(self, small: Graph):
        assert small.out_degree("a") == 1
        assert small.in_degree("b") == 1
        assert small.out_degree("c") == 0

    def test_unknown_node_accessors_raise(self, small: Graph):
        for accessor in (
            small.successors,
            small.predecessors,
            small.out_degree,
            small.in_degree,
            small.attrs,
        ):
            with pytest.raises(GraphError):
                accessor("zzz")

    def test_get_with_default(self, small: Graph):
        assert small.get("a", "kind") == "x"
        assert small.get("a", "missing", 42) == 42

    def test_set_attribute(self, small: Graph):
        small.set("a", "kind", "z")
        assert small.get("a", "kind") == "z"

    def test_edges_iteration_order_is_insertion(self):
        g = Graph()
        g.add_nodes(["a", "b", "c"])
        g.add_edge("b", "c")
        g.add_edge("a", "b")
        assert list(g.edges()) == [("a", "b"), ("b", "c")] or list(g.edges()) == [
            ("b", "c"),
            ("a", "b"),
        ]
        # Precisely: grouped by source insertion order.
        assert list(g.edges()) == [("a", "b"), ("b", "c")]

    def test_repr_mentions_counts(self, small: Graph):
        assert "3 nodes" in repr(small)
        assert "2 edges" in repr(small)


class TestDerivation:
    def test_copy_is_independent(self, small: Graph):
        clone = small.copy()
        clone.add_node("d")
        clone.add_edge("c", "d")
        clone.set("a", "kind", "changed")
        assert "d" not in small
        assert small.get("a", "kind") == "x"

    def test_copy_equals_original(self, small: Graph):
        assert small.copy() == small

    def test_copy_rename(self, small: Graph):
        assert small.copy(name="other").name == "other"

    def test_copy_preserves_successor_and_predecessor_order(self):
        graph = Graph()
        graph.add_nodes("abcd")
        # pred(a) is [d, c, b]: re-inserting the edges in source order
        # (what copy() used to do) would give [b, c, d]
        for source, target in [("d", "a"), ("c", "a"), ("b", "a"), ("a", "d"), ("a", "b")]:
            graph.add_edge(source, target)
        graph.remove_edge("c", "a")
        graph.add_edge("c", "a")  # now [d, b, c]
        clone = graph.copy()
        assert list(clone.nodes()) == list(graph.nodes())
        for node in graph.nodes():
            assert list(clone.successors(node)) == list(graph.successors(node))
            assert list(clone.predecessors(node)) == list(graph.predecessors(node))
        assert list(clone.predecessors("a")) == ["d", "b", "c"]
        assert clone.num_edges == graph.num_edges and clone.version == graph.version

    @pytest.mark.parametrize("seed", range(4))
    def test_freeze_of_a_copy_equals_freeze_of_the_original(self, seed):
        graph = collaboration_graph(120, seed=seed)
        for update in random_updates(graph, 40, seed=seed):
            update.apply(graph)  # deletions + re-insertions scramble row order
        ours, theirs = FrozenGraph.freeze(graph), FrozenGraph.freeze(graph.copy())
        assert theirs.labels == ours.labels
        for field in ("out_offsets", "out_targets", "in_offsets", "in_targets"):
            assert getattr(theirs, field) == getattr(ours, field), field

    def test_copy_shares_no_row_with_the_original(self, small: Graph):
        clone = small.copy()
        clone.remove_edge("a", "b")
        clone.update_attrs("a", kind="changed")
        assert small.has_edge("a", "b") and "a" in set(small.predecessors("b"))
        assert small.get("a", "kind") == "x"
        assert small.num_edges == clone.num_edges + 1

    def test_subgraph_induced(self, small: Graph):
        sub = small.subgraph(["a", "b"])
        assert sub.num_nodes == 2
        assert sub.has_edge("a", "b")
        assert sub.num_edges == 1

    def test_subgraph_unknown_node_raises(self, small: Graph):
        with pytest.raises(GraphError):
            small.subgraph(["a", "zzz"])

    def test_reversed_flips_edges(self, small: Graph):
        rev = small.reversed()
        assert rev.has_edge("b", "a")
        assert rev.has_edge("c", "b")
        assert not rev.has_edge("a", "b")
        assert rev.attrs("a") == small.attrs("a")

    def test_equality_considers_attrs(self):
        g1 = Graph()
        g1.add_node("a", x=1)
        g2 = Graph()
        g2.add_node("a", x=2)
        assert g1 != g2

    def test_equality_considers_edges(self):
        g1 = Graph.from_edges([("a", "b")])
        g2 = Graph.from_edges([("b", "a")])
        assert g1 != g2

    def test_graphs_are_unhashable(self, small: Graph):
        with pytest.raises(TypeError):
            hash(small)
