"""Unit tests for the directed attributed graph."""

import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import GraphError
from repro.graph.digraph import Graph
from repro.graph.frozen import FrozenGraph
from repro.graph.generators import collaboration_graph
from repro.graph.io import graph_from_dict, graph_to_dict
from repro.incremental.updates import random_updates
from tests.test_frozen_patch import ARRAYS


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

    def test_copy_writes_never_reach_the_original(self, small: Graph):
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


# ----------------------------------------------------------------------
# copy-on-write rows: a copy shares every row neither side has written
# ----------------------------------------------------------------------


def twin_of(graph: Graph) -> Graph:
    """An independent rebuild sharing no row: every row copied, order kept."""
    twin = Graph(name=graph.name)
    twin._attrs = {node: dict(graph.attrs(node)) for node in graph.nodes()}
    twin._succ = {node: dict.fromkeys(graph.successors(node)) for node in graph.nodes()}
    twin._pred = {node: dict.fromkeys(graph.predecessors(node)) for node in graph.nodes()}
    twin._num_edges = graph.num_edges
    return twin.carry_version(graph.version)


def view(graph: Graph) -> dict:
    """Everything a reader can observe of a graph, as owned values."""
    return {
        "nodes": list(graph.nodes()),
        "succ": {node: list(graph.successors(node)) for node in graph.nodes()},
        "pred": {node: list(graph.predecessors(node)) for node in graph.nodes()},
        "attrs": {node: dict(graph.attrs(node)) for node in graph.nodes()},
        "edges": graph.num_edges,
        "version": graph.version,
    }


def assert_same_graph(graph: Graph, twin: Graph) -> None:
    assert graph == twin
    assert view(graph) == view(twin)
    ours, theirs = FrozenGraph.freeze(graph), FrozenGraph.freeze(twin)
    assert ours.labels == theirs.labels
    for field in ARRAYS:
        assert getattr(ours, field) == getattr(theirs, field), field


def mutate(graph: Graph, code: int, a: int, b: int, fresh: str) -> None:
    """One call of one of the six mutators, valid against ``graph``."""
    nodes = list(graph.nodes())
    if not nodes or code == 0:
        graph.add_node(fresh, **({"x": a % 5} if b % 2 else {}))
        return
    source, target = nodes[a % len(nodes)], nodes[b % len(nodes)]
    if code == 1:
        graph.add_node(source, y=b % 7)  # existing node: merges attributes
    elif code == 2:
        if graph.has_edge(source, target):
            graph.remove_edge(source, target)
        else:
            graph.add_edge(source, target)
    elif code == 3:
        graph.remove_node(source)
    elif code == 4:
        graph.set(source, "x", b % 5)
    else:
        graph.update_attrs(source, x=a % 5, z=b % 3)


def small_graph() -> Graph:
    graph = Graph(name="cow")
    for index in range(6):
        graph.add_node(f"n{index}", x=index % 3)
    for source, target in [(0, 1), (1, 2), (2, 0), (3, 3), (4, 1), (1, 4), (5, 2)]:
        graph.add_edge(f"n{source}", f"n{target}")
    return graph


STEPS = st.lists(
    st.tuples(
        st.integers(0, 6),  # which live graph (6: take a copy of one)
        st.integers(0, 5),  # which mutator
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    ),
    min_size=1,
    max_size=40,
)


class TestCopyOnWrite:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(steps=STEPS)
    def test_cow_generations_never_see_each_others_writes(self, steps):
        original = small_graph()
        child = original.copy()
        grandchild = child.copy()  # a copy of a copy: three generations alive
        graphs = [original, child, grandchild]
        twins = [twin_of(graph) for graph in graphs]
        for step, (which, code, a, b) in enumerate(steps):
            if which == 6:
                parent = graphs[a % len(graphs)]
                graphs.append(parent.copy())
                twins.append(twin_of(parent))
            else:
                index = which % len(graphs)
                mutate(graphs[index], code, a, b, f"new{step}")
                mutate(twins[index], code, a, b, f"new{step}")
            for graph, twin in zip(graphs, twins):
                assert_same_graph(graph, twin)

    def test_cow_copy_shares_rows_until_a_write(self):
        graph = small_graph()
        clone = graph.copy()
        assert graph._own == set() and clone._own == set()
        for table in ("_attrs", "_succ", "_pred"):
            ours, theirs = getattr(graph, table), getattr(clone, table)
            assert ours is not theirs
            assert all(ours[node] is theirs[node] for node in graph.nodes())
        clone.set("n5", "x", 9)
        clone.add_edge("n0", "n3")
        assert clone._succ["n5"] is not graph._succ["n5"]
        assert clone._pred["n3"] is not graph._pred["n3"]
        assert clone._attrs["n1"] is graph._attrs["n1"]  # untouched: still shared

    def test_cow_own_holds_only_touched_or_new_nodes(self):
        graph = small_graph()
        clone = graph.copy()
        clone.add_edge("n0", "n3")  # touches both endpoints
        clone.update_attrs("n5", x=7)
        clone.add_node("fresh")  # born owned
        clone.add_node("n1")  # re-adding without attributes writes nothing
        clone.update_attrs("n2")  # an empty write writes nothing
        assert clone._own == {"n0", "n3", "n5", "fresh"}
        clone.remove_node("fresh")  # a removed node leaves _own
        clone.remove_node("n4")  # ... and its neighbours' rows were written
        assert clone._own == {"n0", "n3", "n5", "n1"}
        assert graph._own == set()

    def test_cow_copy_resets_ownership_on_both_sides(self):
        graph = small_graph()
        clone = graph.copy()
        clone.set("n0", "x", 1)
        grandchild = clone.copy()  # n0's private rows are now shared again
        assert clone._own == set() and grandchild._own == set()
        grandchild.set("n0", "x", 2)
        assert clone.get("n0", "x") == 1 and graph.get("n0", "x") == 0

    def test_graph_never_copied_owns_every_row(self):
        assert small_graph()._own is None
        assert collaboration_graph(30, seed=1)._own is None

    def test_pickled_json_loaded_and_thawed_copies_own_all_rows(self):
        graph = small_graph()
        clone = graph.copy()
        clone.set("n0", "x", 8)
        for rebuilt in (
            pickle.loads(pickle.dumps(clone)),
            graph_from_dict(graph_to_dict(clone)),
            FrozenGraph.freeze(clone).to_graph(),
        ):
            assert rebuilt._own is None
            assert rebuilt == clone and rebuilt.version == clone.version
        # pickled together, rows shared in memory must not stay shared
        thawed, thawed_clone = pickle.loads(pickle.dumps([graph, clone]))
        assert view(thawed_clone) == view(clone) and view(thawed) == view(graph)
        assert thawed._own is None and thawed_clone._own is None
        for table in ("_attrs", "_succ", "_pred"):
            ours, theirs = getattr(thawed, table), getattr(thawed_clone, table)
            assert not any(ours[node] is theirs[node] for node in ours)
        thawed_clone.add_edge("n5", "n5")
        assert not thawed.has_edge("n5", "n5")

    @pytest.mark.parametrize(
        "write",
        [
            lambda g: g.add_node("n1", y=1),
            lambda g: g.add_edge("n0", "n3"),
            lambda g: g.remove_edge("n0", "n1"),
            lambda g: g.remove_node("n1"),
            lambda g: g.set("n1", "x", 9),
            lambda g: g.update_attrs("n1", x=9, z=1),
        ],
        ids=["add_node", "add_edge", "remove_edge", "remove_node", "set", "update_attrs"],
    )
    def test_cow_each_mutator_writes_only_its_own_graph(self, write):
        # both directions: the copy's write must not reach the original,
        # nor the original's write the copy
        for written_side in (0, 1):
            graph = small_graph()
            clone = graph.copy()
            pair = [graph, clone]
            other = pair[1 - written_side]
            before = view(other)
            write(pair[written_side])
            assert view(other) == before
            assert view(pair[written_side]) != before
