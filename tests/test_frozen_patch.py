"""Delta-freeze differential: ``prior.patched(g2, prims)`` ≡ ``freeze(g2)``.

``FrozenGraph.patched`` builds the post-batch snapshot from the prior one
by re-reading only what the batch touched, appending each changed row to
copies of the target arrays.  The oracle is the full build: inside one
lineage (``Graph.copy`` is order-exact) every node's out- and in-row of
the patched snapshot must equal ``FrozenGraph.freeze``'s as an ordered
label list, the arrays must equal array for array whenever the rows tile
them (after a compaction), a saved or pickled patched snapshot must carry
the compact arrays, and the snapshot it was built *from* must not change
by a single bit — pinned readers are still traversing it.
"""

import pickle
import random
from array import array

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, Phase, given, settings

from repro.engine.storage import GraphStore, write_frozen_file
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

ARRAYS = ("out_starts", "out_ends", "out_targets", "in_starts", "in_ends", "in_targets")
DIRECTIONS = (("out_starts", "out_ends", "out_targets"), ("in_starts", "in_ends", "in_targets"))


def arrays(frozen: FrozenGraph) -> dict:
    """The six CSR buffers, as owned copies."""
    return {field: array("q", getattr(frozen, field)) for field in ARRAYS}


def rows(frozen: FrozenGraph) -> dict:
    """Every node's out-row and in-row, as ordered label lists."""
    return {
        node: (list(frozen.successors(node)), list(frozen.predecessors(node)))
        for node in frozen.labels
    }


def readable(frozen: FrozenGraph) -> dict:
    """Everything a reader can see of a snapshot through its methods."""
    return {
        "name": frozen.name,
        "version": frozen.source_version,
        "labels": tuple(frozen.labels),
        "edges": frozen.num_edges,
        "edge_list": list(frozen.edges()),
        "rows": rows(frozen),
        "degrees": [(frozen.out_degree(v), frozen.in_degree(v)) for v in frozen.labels],
        "succ": tuple(frozen.successor_sets()),
        "pred": tuple(frozen.predecessor_sets()),
        "attrs": {node: frozen.node_attrs(node) for node in frozen.labels},
        "types": {
            node: {attr: type(value) for attr, value in frozen.node_attrs(node).items()}
            for node in frozen.labels
        },
    }


def observed(frozen: FrozenGraph) -> dict:
    """What a reader can see plus the raw buffers: bit-for-bit identity."""
    return {**readable(frozen), **arrays(frozen)}


def dead(frozen: FrozenGraph) -> list[int]:
    """Per direction, the target entries no row points at."""
    return [len(getattr(frozen, targets)) - frozen.num_edges for _s, _e, targets in DIRECTIONS]


def tiled(frozen: FrozenGraph, direction: tuple[str, str, str]) -> bool:
    """The direction's rows tile its targets in node order (no dead entries)."""
    starts, ends, targets = (getattr(frozen, field) for field in direction)
    bounds = [0] + list(ends)
    return list(starts) == bounds[:-1] and bounds[-1] == len(targets)


def compact(frozen: FrozenGraph) -> bool:
    return all(tiled(frozen, direction) for direction in DIRECTIONS)


def assert_equals_full_freeze(patched: FrozenGraph, graph: Graph) -> None:
    fresh = FrozenGraph.freeze(graph)
    assert compact(fresh) and dead(fresh) == [0, 0]
    # row for row, always; array for array wherever the rows tile the arrays
    assert readable(patched) == readable(fresh)
    for direction in DIRECTIONS:
        if tiled(patched, direction):
            for field in direction:
                assert array("q", getattr(patched, field)) == getattr(fresh, field), field
    # dead entries never outnumber the live ones: a patch compacts first
    assert all(0 <= count <= patched.num_edges for count in dead(patched))
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

    def test_unwritten_columns_keep_their_packed_pair(self):
        """A checkpoint packs a column once per lineage: a patch keeps the
        pair of every column it did not write, and the buffers stay those
        of an unpacked copy."""
        self.prior.to_buffers()
        packed = self.prior._columns_packed
        _graph, patched = self.patch(
            AttributeUpdate("b", "f", "X"), EdgeInsertion("a", "c"), NodeInsertion.with_attrs("d", m=2)
        )
        assert set(patched._columns_packed) == {"n"}
        assert patched._columns_packed["n"] is packed["n"]
        assert patched.to_buffers() == pickle.loads(pickle.dumps(patched)).to_buffers()
        assert patched._columns_packed["n"] is packed["n"]
        assert list(patched._columns_packed) == ["f", "n", "m"]  # column order
        assert self.prior._columns_packed is packed  # the prior is never written

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
        outs, ins = zip(*rows(patched).values())
        fresh_outs, fresh_ins = zip(*rows(fresh).values())
        assert outs == fresh_outs  # out-rows in order
        assert ins != fresh_ins  # the weaker guarantee is real
        assert list(map(sorted, ins)) == list(map(sorted, fresh_ins))
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
        before = observed(prior)
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
        assert observed(prior) == before
        assert prior.to_graph() == loaded


def edge_toggles(graph: Graph, rng: random.Random, steps: int, arrivals: int = 0):
    """A single-edge update stream: each step inserts or deletes one edge;
    every ``arrivals``-th step a node with attributes and an edge arrives too."""
    nodes = list(graph.nodes())
    for step in range(1, steps + 1):
        source, target = rng.sample(nodes, 2)
        toggle = EdgeDeletion if graph.has_edge(source, target) else EdgeInsertion
        updates = [toggle(source, target)]
        if arrivals and step % arrivals == 0:
            updates += [
                NodeInsertion.with_attrs(f"late{step}", field="SA", experience=step),
                EdgeInsertion(f"late{step}", source),
            ]
        graph, primitives = apply_batch(graph, updates)
        yield graph, primitives


class TestAppendOnlyRows:
    """Replaced rows go to the end of the target copies; dead entries are
    compacted away once they outnumber the live ones."""

    def test_single_edge_chain_compacts_and_stays_bounded(self):
        graph = collaboration_graph(60, seed=3)
        prior = FrozenGraph.freeze(graph)
        prior.successor_sets(), prior.predecessor_sets()
        compactions = [0, 0]
        for graph, primitives in edge_toggles(graph, random.Random(3), 400):
            patched = prior.patched(graph, primitives)
            for direction, (was, now) in enumerate(zip(dead(prior), dead(patched))):
                # tighter than "live + one batch's rows": the patch appends,
                # then compacts when dead entries outnumber live ones
                assert now <= patched.num_edges
                if was and not now:
                    compactions[direction] += 1
            assert_equals_full_freeze(patched, graph)  # arrays too, once compacted
            prior = patched
        assert min(compactions) >= 2, compactions

    def test_a_touched_row_is_appended_and_the_rest_stay_put(self):
        graph = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "a")], name="g")
        prior = FrozenGraph.freeze(graph)
        after, primitives = apply_batch(graph, [EdgeInsertion("a", "c")])
        patched = prior.patched(after, primitives)
        # a's out-row and c's in-row moved to the end; b's rows did not
        assert list(patched.out_targets) == [1, 2, 0, 1, 2]
        assert (patched.out_starts[0], patched.out_ends[0]) == (3, 5)
        assert list(patched.in_targets) == [2, 0, 1, 1, 0]
        assert (patched.in_starts[2], patched.in_ends[2]) == (3, 5)
        assert (patched.out_starts[1], patched.out_ends[1]) == (1, 2)
        assert dead(patched) == [1, 1] and patched.num_edges == 4
        assert_equals_full_freeze(patched, after)

    @pytest.mark.parametrize("seed", range(3))
    def test_saved_patched_chain_is_byte_identical_to_a_saved_freeze(self, seed, tmp_path):
        rng = random.Random(seed)
        graph = collaboration_graph(80, seed=seed)
        prior = FrozenGraph.freeze(graph)
        compactions = 0
        for graph, primitives in edge_toggles(graph, rng, 240, arrivals=40):
            patched = prior.patched(graph, primitives)
            compactions += any(was and not now for was, now in zip(dead(prior), dead(patched)))
            written = write_frozen_file(tmp_path / "patched.snap", patched).read_bytes()
            fresh = write_frozen_file(tmp_path / "fresh.snap", FrozenGraph.freeze(graph))
            assert written == fresh.read_bytes()
            prior = patched
        assert "late240" in graph and compactions >= 2  # both layouts were written

    def test_a_pickled_patched_snapshot_carries_compact_arrays(self):
        graph = collaboration_graph(50, seed=1)
        prior = FrozenGraph.freeze(graph)
        for graph, primitives in edge_toggles(graph, random.Random(1), 5):
            prior = prior.patched(graph, primitives)
        assert not compact(prior) and dead(prior) != [0, 0]
        before = observed(prior)
        clone = pickle.loads(pickle.dumps(prior))
        assert observed(prior) == before  # pickling compacts a copy, never in place
        assert compact(clone) and dead(clone) == [0, 0]
        assert arrays(clone) == arrays(FrozenGraph.freeze(graph))
        assert readable(clone) == readable(prior)
        assert all(isinstance(getattr(clone, field), array) for field in ARRAYS)

    def test_an_mmap_backed_prior_is_never_written(self, tmp_path):
        graph = collaboration_graph(50, seed=2)
        path = write_frozen_file(tmp_path / "g.snap", FrozenGraph.freeze(graph))
        stored = path.read_bytes()
        store = GraphStore(tmp_path / "store")
        store.save_graph("g", graph)
        store.save_snapshot("g", FrozenGraph.freeze(graph))
        prior = store.load_snapshot("g", expected_version=graph.version)
        assert all(not isinstance(getattr(prior, field), array) for field in ARRAYS)
        before = observed(prior)
        chained = prior
        for after, primitives in edge_toggles(graph, random.Random(2), 120):
            assert prior.patched(after, primitives) is not None  # from the mapped one
            chained = chained.patched(after, primitives)
            assert_equals_full_freeze(chained, after)
            graph = after
        assert observed(prior) == before
        assert (store.root / "snapshots" / "g.frozen.snap").read_bytes() == stored
