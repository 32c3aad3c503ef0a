"""Delta-freeze differential: ``prior.patched(g2, prims)`` ≡ ``freeze(g2)``.

``FrozenGraph.patched`` builds the post-batch snapshot from the prior one
by re-reading only what the batch touched.  The oracle is the full build:
inside one lineage (``Graph.copy`` is order-exact) the patched snapshot
must equal ``FrozenGraph.freeze`` of the same graph array for array, and
the snapshot it was built *from* must not change by a single bit — pinned
readers are still traversing it.
"""

import random
from array import array

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, Phase, given, settings

from repro.engine.storage import GraphStore
from repro.graph.digraph import Graph
from repro.graph.frozen import FrozenGraph
from repro.graph.generators import collaboration_graph
from repro.graph.io import graph_from_dict, graph_to_dict
from repro.incremental.updates import (
    AttributeUpdate,
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
    decompose,
)

ARRAYS = ("out_offsets", "out_targets", "in_offsets", "in_targets")


def observed(frozen: FrozenGraph) -> dict:
    """Everything a reader can see of a snapshot, as owned copies."""
    return {
        "name": frozen.name,
        "version": frozen.source_version,
        "labels": tuple(frozen.labels),
        **{field: array("q", getattr(frozen, field)) for field in ARRAYS},
        "succ": tuple(frozen.successor_sets()),
        "pred": tuple(frozen.predecessor_sets()),
        "attrs": {node: frozen.node_attrs(node) for node in frozen.labels},
        "types": {
            node: {attr: type(value) for attr, value in frozen.node_attrs(node).items()}
            for node in frozen.labels
        },
    }


def assert_equals_full_freeze(patched: FrozenGraph, graph: Graph) -> None:
    assert observed(patched) == observed(FrozenGraph.freeze(graph))
    assert patched.ids() == {label: index for index, label in enumerate(patched.labels)}
    assert patched.matches(graph)
    rebuilt = patched.to_graph()
    assert rebuilt == graph and rebuilt.version == graph.version
    assert list(rebuilt.edges()) == list(graph.edges())


def apply_batch(graph: Graph, updates) -> tuple[Graph, list]:
    """What ``SnapshotRegistry.publish`` does: copy, decompose, apply, collect."""
    scratch = graph.copy()
    primitives = []
    for update in updates:
        for primitive in decompose(scratch, update):
            primitive.apply(scratch)
            primitives.append(primitive)
    return scratch, primitives


#: Attribute values a batch may write: pooled ones, new ones, equal-but-
#: differently-typed ones (1 / 1.0 / True must not collapse), unhashable ones.
VALUES = [0, 1, 1.0, True, None, "x", "fresh", 2.5, ("t", 1), [1, 2], {"k": "v"}, ("t", [3])]


def batch_from_codes(graph: Graph, codes) -> list:
    """Integer soup -> a batch that is valid, in sequence, against ``graph``."""
    scratch = graph.copy()
    updates = []

    def emit(update):
        for primitive in decompose(scratch, update):
            primitive.apply(scratch)
        updates.append(update)

    for kind, a, b in codes:
        nodes = list(scratch.nodes())
        if not nodes or kind == 0:
            attrs = {"a": VALUES[a % len(VALUES)]} if b % 2 else {}
            emit(NodeInsertion(f"new{scratch.version}", tuple(attrs.items())))
            continue
        source, target = nodes[a % len(nodes)], nodes[b % len(nodes)]
        if kind == 1:  # toggle one edge (self-loops included)
            toggle = EdgeDeletion if scratch.has_edge(source, target) else EdgeInsertion
            emit(toggle(source, target))
        elif kind == 2:  # add then remove (or remove then add) within the batch
            first, second = (
                (EdgeDeletion, EdgeInsertion)
                if scratch.has_edge(source, target)
                else (EdgeInsertion, EdgeDeletion)
            )
            emit(first(source, target))
            emit(second(source, target))
        elif kind == 3:
            emit(AttributeUpdate(source, "abc"[b % 3], VALUES[a % len(VALUES)]))
        elif kind == 4:  # a write of the value already there (or a new column)
            emit(AttributeUpdate(source, "a", scratch.get(source, "a", "unset")))
        elif kind == 5:
            emit(EdgeInsertion(source, source) if not scratch.has_edge(source, source)
                 else AttributeUpdate(source, "loop", b))
        else:
            emit(NodeDeletion(source))
    return updates


@st.composite
def graphs(draw):
    graph = Graph(name="prop")
    for index in range(draw(st.integers(0, 8))):
        graph.add_node(
            f"n{index}",
            **draw(st.dictionaries(st.sampled_from("abc"), st.sampled_from(VALUES[:6]), max_size=2)),
        )
    nodes = list(graph.nodes())
    if nodes:
        for source, target in draw(
            st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)), max_size=20)
        ):
            graph.add_edge(source, target)
    return graph


CODES = st.tuples(st.integers(0, 6), st.integers(0, 10**6), st.integers(0, 10**6))


class TestPatchedEqualsFreeze:
    # No shrink phase: minimising 20+ dependent batches takes minutes, and
    # the CI step runs under `timeout 120` — a failure is reported as drawn.
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        phases=[Phase.explicit, Phase.reuse, Phase.generate],
    )
    @given(
        graph=graphs(),
        soup=st.lists(st.lists(CODES, min_size=1, max_size=5), min_size=20, max_size=24),
    )
    def test_chained_batches_of_every_update_kind(self, graph, soup):
        prior = FrozenGraph.freeze(graph)
        prior.successor_sets(), prior.predecessor_sets()
        for codes in soup:
            updates = batch_from_codes(graph, codes)
            before = observed(prior)
            pool_before = list(prior._values)
            graph, primitives = apply_batch(graph, updates)
            patched = prior.patched(graph, primitives)
            # the pinned reader's view: not one bit of the prior moved
            assert observed(prior) == before
            assert prior._values == pool_before
            if any(isinstance(p, NodeDeletion) for p in primitives):
                assert patched is None
                patched = FrozenGraph.freeze(graph)  # the registry's fallback
            elif patched is None:  # pool grew past its bound: also a full build
                patched = FrozenGraph.freeze(graph)
            else:
                assert_equals_full_freeze(patched, graph)
                if not any(
                    isinstance(p, (EdgeInsertion, EdgeDeletion, NodeInsertion))
                    for p in primitives
                ):
                    for field in ARRAYS:
                        assert getattr(patched, field) is getattr(prior, field)
            prior = patched

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_stream_on_a_collaboration_graph(self, seed):
        rng = random.Random(seed)
        graph = collaboration_graph(300, seed=seed)
        prior = FrozenGraph.freeze(graph)
        prior.successor_sets(), prior.predecessor_sets()
        patches = 0
        for _ in range(25):
            codes = [
                (rng.randint(0, 5), rng.randrange(10**6), rng.randrange(10**6))
                for _ in range(rng.randint(1, 6))
            ]
            graph, primitives = apply_batch(graph, batch_from_codes(graph, codes))
            patched = prior.patched(graph, primitives)
            assert patched is not None
            patches += 1
            assert_equals_full_freeze(patched, graph)
            # the carried views are the built ones: no lazy rebuild on read
            assert patched._succ_sets is not None and patched._pred_sets is not None
            prior = patched
        assert patches == 25


class TestWhatIsShared:
    def setup_method(self):
        self.graph = Graph.from_edges(
            [("a", "b"), ("b", "c"), ("c", "a")],
            nodes={"a": {"f": "X", "n": 1}, "b": {"f": "Y"}, "c": {"f": "X"}},
            name="g",
        )
        self.prior = FrozenGraph.freeze(self.graph)
        self.prior.successor_sets(), self.prior.predecessor_sets()

    def patch(self, *updates):
        graph, primitives = apply_batch(self.graph, updates)
        return graph, self.prior.patched(graph, primitives)

    def test_attribute_only_batch_shares_structure_by_identity(self):
        graph, patched = self.patch(AttributeUpdate("b", "f", "X"))
        for field in ARRAYS + ("labels", "_succ_sets", "_pred_sets", "_ids", "_values"):
            assert getattr(patched, field) is getattr(self.prior, field), field
        # only the written column is a new dict
        assert patched._columns["n"] is self.prior._columns["n"]
        assert patched._columns["f"] is not self.prior._columns["f"]
        assert patched.node_attrs("b") == {"f": "X"}
        assert self.prior.node_attrs("b") == {"f": "Y"}
        assert_equals_full_freeze(patched, graph)

    def test_noop_write_shares_the_columns_too(self):
        graph, patched = self.patch(AttributeUpdate("a", "f", "X"))
        assert patched._columns is self.prior._columns
        assert patched.source_version == graph.version == self.graph.version + 1
        assert_equals_full_freeze(patched, graph)

    def test_new_and_unhashable_values_extend_a_copy_of_the_pool(self):
        pool = list(self.prior._values)
        graph, patched = self.patch(
            AttributeUpdate("a", "tags", ["x", "y"]),
            AttributeUpdate("b", "f", "brand-new"),
            AttributeUpdate("c", "n", 1.0),  # equal to the pooled 1, another type
        )
        assert self.prior._values == pool
        assert patched._values[: len(pool)] == pool and len(patched._values) == len(pool) + 3
        assert type(patched.node_attrs("c")["n"]) is float
        assert type(patched.node_attrs("a")["n"]) is int
        assert_equals_full_freeze(patched, graph)

    def test_structural_batch_replaces_only_the_endpoints_rows(self):
        self.graph.add_node("far")
        self.prior = FrozenGraph.freeze(self.graph)
        self.prior.successor_sets(), self.prior.predecessor_sets()
        graph, patched = self.patch(EdgeInsertion("a", "c"), EdgeDeletion("b", "c"))
        far = patched.ids()["far"]
        assert patched.successor_sets()[far] is self.prior.successor_sets()[far]
        assert patched.predecessor_sets()[far] is self.prior.predecessor_sets()[far]
        assert patched.successor_sets() is not self.prior.successor_sets()
        assert_equals_full_freeze(patched, graph)

    def test_node_insertion_extends_labels_and_ids(self):
        graph, patched = self.patch(
            NodeInsertion.with_attrs("d", f="Z"), EdgeInsertion("d", "a"), EdgeInsertion("a", "d")
        )
        assert patched.labels == ("a", "b", "c", "d")
        assert "d" not in self.prior.ids() and self.prior.labels == ("a", "b", "c")
        assert_equals_full_freeze(patched, graph)

    def test_node_deletion_is_a_full_build(self):
        graph, patched = self.patch(NodeDeletion("b"))
        assert patched is None

    def test_empty_batch(self):
        graph, patched = self.patch()
        assert_equals_full_freeze(patched, graph)


class TestPoolBound:
    def test_dead_values_are_bounded_by_a_full_build(self):
        graph = Graph.from_edges([(0, 1)], nodes={0: {"v": "a"}, 1: {"v": "b"}})
        prior = FrozenGraph.freeze(graph)
        floor = len(prior._values)
        for step in range(100):
            graph, primitives = apply_batch(
                graph, [AttributeUpdate(0, "v", f"novel{step}")]
            )
            patched = prior.patched(graph, primitives)
            if patched is None:
                break
            assert_equals_full_freeze(patched, graph)
            prior = patched
        else:
            pytest.fail("the value pool grew without bound")
        # every overwrite orphaned one value; the bound is 'doubled + one per node'
        assert len(prior._values) == 2 * floor + graph.num_nodes + 1
        assert len(FrozenGraph.freeze(graph)._values) == floor

    def test_repeated_values_never_grow_the_pool(self):
        graph = Graph.from_edges([(0, 1)], nodes={0: {"v": "a"}, 1: {"v": "b"}})
        prior = FrozenGraph.freeze(graph)
        for step in range(50):
            graph, primitives = apply_batch(graph, [AttributeUpdate(0, "v", "ab"[step % 2])])
            prior = prior.patched(graph, primitives)
            assert prior is not None and len(prior._values) == 2


class TestAcrossASaveAndLoad:
    """A reload re-derives predecessor order: rows are equal as sets."""

    def graph(self):
        graph = Graph(name="g")
        for node in "abc":
            graph.add_node(node, f=node.upper())
        graph.add_edge("c", "a")
        graph.add_edge("b", "a")  # pred(a) == [c, b]; a reload gives [b, c]
        graph.add_edge("a", "b")
        return graph

    def test_rows_are_equal_as_sets_after_a_json_round_trip(self):
        graph = self.graph()
        prior = FrozenGraph.freeze(graph)
        loaded = graph_from_dict(graph_to_dict(graph))
        assert list(loaded.predecessors("a")) != list(graph.predecessors("a"))
        after, primitives = apply_batch(
            loaded, [EdgeInsertion("c", "b"), AttributeUpdate("a", "f", "Q")]
        )
        patched = prior.patched(after, primitives)
        fresh = FrozenGraph.freeze(after)
        assert patched.labels == fresh.labels
        assert patched.out_offsets == fresh.out_offsets
        assert patched.out_targets == fresh.out_targets
        assert patched.in_offsets == fresh.in_offsets
        assert patched.in_targets != fresh.in_targets  # the weaker guarantee is real
        assert patched.successor_sets() == fresh.successor_sets()
        assert patched.predecessor_sets() == fresh.predecessor_sets()
        assert patched.to_graph() == after
        assert patched.matches(after)

    def test_mmap_backed_prior_yields_owned_arrays_and_is_never_written(self, tmp_path):
        graph = self.graph()
        store = GraphStore(tmp_path)
        store.save_graph("g", graph)
        path = store.save_snapshot("g", FrozenGraph.freeze(graph))
        stored = path.read_bytes()
        loaded = store.load_graph("g")
        prior = store.load_snapshot("g", expected_version=loaded.version)
        assert prior.path is not None and not isinstance(prior.out_targets, array)
        for updates in (
            [EdgeInsertion("c", "b"), NodeInsertion.with_attrs("d", f="D")],
            [AttributeUpdate("a", "f", "Q")],  # attribute-only: still owned
        ):
            after, primitives = apply_batch(loaded, updates)
            patched = prior.patched(after, primitives)
            assert patched.path is None
            for field in ARRAYS:
                assert isinstance(getattr(patched, field), array), field
            assert patched.successor_sets() == FrozenGraph.freeze(after).successor_sets()
            assert patched.predecessor_sets() == FrozenGraph.freeze(after).predecessor_sets()
            assert patched.to_graph() == after
        assert path.read_bytes() == stored
        assert prior.to_graph() == loaded
