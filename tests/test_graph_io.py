"""Unit tests for graph (de)serialization."""

import json
import random

import pytest

from repro.errors import GraphError, StorageError
from repro.graph.digraph import Graph
from repro.graph.frozen import FrozenGraph
from repro.graph.generators import collaboration_graph
from repro.graph.io import (
    graph_from_dict,
    graph_to_dict,
    load_edgelist,
    load_graph,
    save_edgelist,
    save_graph,
)
from repro.incremental.updates import (
    AttributeUpdate,
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
    apply_updates,
)


class TestJsonRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        original = collaboration_graph(50, seed=1)
        path = save_graph(original, tmp_path / "g.json")
        assert load_graph(path) == original

    def test_round_trip_preserves_name(self, tmp_path):
        g = Graph(name="hello")
        g.add_node("a")
        path = save_graph(g, tmp_path / "g.json")
        assert load_graph(path).name == "hello"

    def test_integer_node_ids_round_trip(self, tmp_path):
        g = Graph.from_edges([(1, 2)])
        path = save_graph(g, tmp_path / "g.json")
        loaded = load_graph(path)
        assert loaded.has_edge(1, 2)

    def test_creates_parent_directories(self, tmp_path):
        g = Graph()
        g.add_node("a")
        path = save_graph(g, tmp_path / "deep" / "nested" / "g.json")
        assert path.exists()

    def test_unserializable_node_id_raises(self):
        g = Graph()
        g.add_node(("tuple", "id"))
        with pytest.raises(StorageError, match="JSON-serializable"):
            graph_to_dict(g)

    @pytest.mark.parametrize("node", [True, False])
    def test_bool_node_id_rejected(self, node):
        """bool is an int subclass but round-trips as 1/0 — refuse it.

        A graph with nodes ``True`` and ``1`` would otherwise serialize to
        JSON ``true`` and ``1`` and silently collide (or shadow each other)
        on load.
        """
        g = Graph()
        g.add_node(node)
        with pytest.raises(StorageError, match="JSON-serializable"):
            graph_to_dict(g)

    def test_int_node_ids_still_serialize(self, tmp_path):
        g = Graph.from_edges([(0, 1)])
        path = save_graph(g, tmp_path / "ints.json")
        assert load_graph(path) == g

    def test_attribute_named_node_round_trips(self, tmp_path):
        """An attribute literally named "node" must survive the round trip.

        ``graph_from_dict`` rebuilds via ``add_node(id, **attrs)``; with a
        non-positional-only node parameter the load crashed with a kwarg
        collision after the save had succeeded.
        """
        g = Graph()
        g.add_node("a", node="hub", self="yes")
        path = save_graph(g, tmp_path / "node_attr.json")
        assert load_graph(path) == g

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(StorageError, match="not found"):
            load_graph(tmp_path / "missing.json")

    def test_load_invalid_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(StorageError, match="invalid JSON"):
            load_graph(path)

    def test_from_dict_rejects_wrong_format(self):
        with pytest.raises(StorageError, match="not a repro.graph"):
            graph_from_dict({"format": "something-else"})

    def test_from_dict_rejects_wrong_version(self):
        payload = {"format": "repro.graph", "version": 99, "nodes": [], "edges": []}
        with pytest.raises(StorageError, match="version"):
            graph_from_dict(payload)

    def test_from_dict_rejects_malformed_nodes(self):
        payload = {"format": "repro.graph", "version": 1, "nodes": [{}], "edges": []}
        with pytest.raises(StorageError, match="malformed"):
            graph_from_dict(payload)

    def test_dict_shape_is_documented(self):
        g = Graph.from_edges([("a", "b")], nodes={"a": {"f": 1}, "b": {}})
        payload = graph_to_dict(g)
        assert payload["format"] == "repro.graph"
        assert payload["nodes"][0] == {"id": "a", "attrs": {"f": 1}}
        assert payload["edges"] == [["a", "b"]]
        json.dumps(payload)  # must be JSON-ready


def _seeded_stream(graph: Graph, seed: int, count: int = 40):
    """Updates of all five kinds, each valid against ``graph`` when drawn."""
    rng = random.Random(seed)
    for step in range(count):
        nodes = list(graph.nodes())
        edges = list(graph.edges())
        kind = step % 5 if step < 5 else rng.randrange(5)
        if kind == 0:
            source, target = rng.sample(nodes, 2)
            if graph.has_edge(source, target):
                update = EdgeDeletion(source, target)
            else:
                update = EdgeInsertion(source, target)
        elif kind == 1 and edges:
            update = EdgeDeletion(*rng.choice(edges))
        elif kind == 2:
            update = NodeInsertion.with_attrs(
                f"new{seed}_{step}", field=rng.choice(["SA", "SD"])
            )
        elif kind == 3 and len(nodes) > 4:
            update = NodeDeletion(rng.choice(nodes))
        else:
            update = AttributeUpdate(rng.choice(nodes), "experience", rng.randrange(9))
        apply_updates(graph, [update])
        yield update


class TestVersionLineage:
    """``Graph.version`` travels with the content through every rebuild."""

    @pytest.mark.parametrize("seed", range(6))
    def test_every_rebuild_reports_the_source_version(self, seed):
        graph = collaboration_graph(30, seed=seed)
        kinds = set()
        seen = {graph.version}
        for update in _seeded_stream(graph, seed):
            kinds.add(type(update))
            assert graph.version not in seen  # every state has its own count
            seen.add(graph.version)
            frozen = FrozenGraph.freeze(graph)
            rebuilds = [
                graph.copy(),
                graph_from_dict(json.loads(json.dumps(graph_to_dict(graph)))),
                frozen.to_graph(),
            ]
            for rebuilt in rebuilds:
                assert rebuilt == graph
                assert rebuilt.version == graph.version
                assert frozen.matches(rebuilt)
        assert len(kinds) == 5

    def test_a_copy_counts_on_from_the_carried_version(self):
        g = Graph.from_edges([("a", "b")])
        g.set("a", "field", "SA")
        g.set("a", "field", "SD")  # the rebuild folds both writes into one
        clone = g.copy()
        assert clone.version == g.version == 5
        clone.add_edge("b", "a")
        assert (clone.version, g.version) == (6, 5)

    def test_same_size_states_are_told_apart_after_a_reload(self, tmp_path):
        g = Graph.from_edges([("a", "b"), ("c", "b")], nodes=["a", "b", "c", "d"])
        before = FrozenGraph.freeze(g)
        g.remove_edge("c", "b")
        g.add_edge("d", "b")  # same node and edge counts, other content
        reloaded = load_graph(save_graph(g, tmp_path / "g.json"))
        assert reloaded.version == g.version
        assert not before.matches(reloaded)
        assert FrozenGraph.freeze(g).matches(reloaded)

    def test_payload_without_a_stamp_loads_as_before(self):
        g = Graph.from_edges([("a", "b")], nodes={"a": {"f": 1}, "b": {}})
        g.set("a", "f", 2)
        payload = graph_to_dict(g)
        assert payload.pop("graph_version") == g.version == 5
        old_format = graph_from_dict(payload)
        assert old_format == g
        assert old_format.version == 4  # what add_node/add_edge counted

    @pytest.mark.parametrize("stamp", [True, -1, 1.5, "7", None, [3]])
    def test_malformed_stamp_is_a_storage_error(self, stamp):
        payload = graph_to_dict(Graph.from_edges([("a", "b")]))
        payload["graph_version"] = stamp
        with pytest.raises(StorageError, match="graph version"):
            graph_from_dict(payload)

    @pytest.mark.parametrize("stamp", [False, -3, 2.0, "2"])
    def test_carry_version_rejects_non_counts(self, stamp):
        with pytest.raises(GraphError, match="non-negative integer"):
            Graph().carry_version(stamp)


class TestEdgeList:
    def test_round_trip_structure(self, tmp_path):
        g = Graph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])
        path = save_edgelist(g, tmp_path / "g.tsv")
        loaded = load_edgelist(path)
        assert set(loaded.edges()) == set(g.edges())

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("# header\n\na b\nb c\n")
        g = load_edgelist(path)
        assert g.num_edges == 2

    def test_malformed_line_raises_with_lineno(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("a b\nonly-one-token\n")
        with pytest.raises(StorageError, match=":2:"):
            load_edgelist(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(StorageError):
            load_edgelist(tmp_path / "missing.tsv")

    def test_empty_graph_writes_empty_file(self, tmp_path):
        path = save_edgelist(Graph(), tmp_path / "empty.tsv")
        assert path.read_text() == ""
        assert load_edgelist(path).num_nodes == 0

    def test_default_name_is_stem(self, tmp_path):
        path = tmp_path / "social.tsv"
        path.write_text("a b\n")
        assert load_edgelist(path).name == "social"
