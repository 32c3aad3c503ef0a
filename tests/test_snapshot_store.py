"""Binary snapshot persistence: format, corruption, fault-in, shipping.

The byte-identity of store-served evaluation lives in
tests/test_differential.py; this module covers the persistence machinery
itself — the on-disk format and its validation failures, the catalogue
CRUD, the engine's fault-in accounting, atomic writes, and path shipping into
spawn-started pool workers.
"""

from __future__ import annotations

import json
import pickle
import zlib

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.engine.engine import QueryEngine
from repro.engine.estimator import QueryBudget
from repro.engine.parallel import ParallelExecutor
from repro.engine.storage import (
    _HEADER,
    SNAPSHOT_FORMAT_VERSION,
    SNAPSHOT_KIND_FROZEN,
    SNAPSHOT_MAGIC,
    GraphStore,
    load_frozen_file,
    load_oracle_file,
    snapshot_file_info,
    write_frozen_file,
    write_snapshot_file,
)
from repro.errors import EvaluationError, StorageError
from repro.graph.digraph import Graph
from repro.graph.frozen import FrozenGraph
from repro.graph.io import atomic_write_bytes
from repro.graph.oracle import DistanceOracle
from repro.incremental.updates import EdgeDeletion, EdgeInsertion
from repro.matching.bounded import match_bounded
from repro.matching.reference import naive_bounded
from repro.matching.simulation import simulation_candidates
from repro.pattern.pattern import Pattern


@pytest.fixture
def store(tmp_path) -> GraphStore:
    return GraphStore(tmp_path / "catalog")


@pytest.fixture
def frozen(fig1) -> FrozenGraph:
    return FrozenGraph.freeze(fig1)


@pytest.fixture
def oracle(frozen) -> DistanceOracle:
    return DistanceOracle.build(frozen, cap=4)


def _patch_header(path, **fields) -> None:
    """Rewrite header fields in place (the checksum does not cover them)."""
    raw = bytearray(path.read_bytes())
    names = (
        "magic", "version", "kind", "flags",
        "source_version", "meta_length", "checksum",
    )
    values = dict(zip(names, _HEADER.unpack_from(raw)))
    values.update(fields)
    raw[: _HEADER.size] = _HEADER.pack(*(values[name] for name in names))
    path.write_bytes(bytes(raw))


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------

class TestFrozenRoundTrip:
    def test_graph_and_buffers_survive(self, store, fig1, frozen):
        store.save_snapshot("team", frozen)
        loaded = store.load_snapshot("team", expected_version=fig1.version)
        assert loaded.source_version == frozen.source_version
        assert loaded.matches(fig1)
        assert loaded.to_graph() == fig1
        assert list(loaded.out_offsets) == list(frozen.out_offsets)
        assert list(loaded.out_targets) == list(frozen.out_targets)
        assert list(loaded.in_offsets) == list(frozen.in_offsets)
        assert list(loaded.in_targets) == list(frozen.in_targets)
        assert loaded.labels == frozen.labels

    def test_load_is_zero_copy(self, store, frozen):
        store.save_snapshot("team", frozen)
        loaded = store.load_snapshot("team")
        # The CSR buffers are casts over the shared mmap, not copies.
        assert isinstance(loaded.out_targets, memoryview)
        assert isinstance(loaded.in_offsets, memoryview)
        assert loaded.path == store.root / "snapshots" / "team.frozen.snap"

    def test_attributes_survive(self, store, fig1, frozen):
        store.save_snapshot("team", frozen)
        loaded = store.load_snapshot("team")
        for node in fig1.nodes():
            assert loaded.node_attrs(node) == fig1.attrs(node)

    def test_kernel_parity_from_disk(self, store, fig1, fig1_query, frozen):
        store.save_snapshot("team", frozen)
        loaded = store.load_snapshot("team", expected_version=fig1.version)
        expected = match_bounded(fig1, fig1_query)
        got = match_bounded(fig1, fig1_query, frozen=loaded)
        assert got.relation == expected.relation


class TestOracleRoundTrip:
    def test_labels_and_distances_survive(self, store, fig1, frozen, oracle):
        store.save_oracle("team", oracle)
        loaded = store.load_oracle("team", expected_version=fig1.version)
        assert loaded.source_version == oracle.source_version
        assert loaded.cap == oracle.cap
        assert loaded.compatible_with(frozen)
        n = len(frozen.labels)
        for source in range(n):
            for target in range(n):
                if source != target:
                    assert loaded.distance(source, target) == oracle.distance(
                        source, target
                    )

    def test_reach_sets_materialize_lazily(self, store, frozen, oracle):
        store.save_oracle("team", oracle)
        loaded = store.load_oracle("team")
        # stats() must not force materialization, but report the entries.
        assert loaded.stats()["reach_entries"] == oracle.stats()["reach_entries"]
        assert loaded.reach_out == oracle.reach_out
        assert loaded.reach_in == oracle.reach_in

    def test_uncapped_oracle_round_trips(self, store, frozen):
        full = DistanceOracle.build(frozen)
        store.save_oracle("full", full)
        loaded = store.load_oracle("full")
        assert loaded.cap is None
        assert loaded.distance(0, 1) == full.distance(0, 1)


@st.composite
def json_safe_graphs(draw):
    """Random digraphs whose attributes survive a JSON round trip."""
    num_nodes = draw(st.integers(min_value=0, max_value=12))
    graph = Graph(name="prop")
    values = st.one_of(
        st.integers(-3, 3), st.booleans(), st.text(max_size=3), st.none()
    )
    for index in range(num_nodes):
        attrs = draw(
            st.dictionaries(st.sampled_from(["a", "b", "c"]), values, max_size=3)
        )
        graph.add_node(index, **attrs)
    if num_nodes:
        pairs = st.tuples(
            st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1)
        )
        for source, target in draw(st.lists(pairs, max_size=3 * num_nodes)):
            if not graph.has_edge(source, target):
                graph.add_edge(source, target)
    return graph


@settings(max_examples=80, deadline=None)
@given(json_safe_graphs())
def test_snapshot_file_round_trip_property(tmp_path_factory, graph):
    """``FrozenGraph -> file -> mmap -> to_graph()`` is exact."""
    path = tmp_path_factory.mktemp("prop") / "g.frozen.snap"
    frozen = FrozenGraph.freeze(graph)
    write_frozen_file(path, frozen)
    loaded = load_frozen_file(path, expected_version=graph.version)
    rebuilt = loaded.to_graph()
    assert rebuilt == graph
    assert list(rebuilt.nodes()) == list(graph.nodes())
    assert list(rebuilt.edges()) == list(graph.edges())


# ----------------------------------------------------------------------
# corruption: every failure is a distinct StorageError
# ----------------------------------------------------------------------

class TestCorruption:
    @pytest.fixture
    def snap(self, store, frozen):
        store.save_snapshot("team", frozen)
        return store.root / "snapshots" / "team.frozen.snap"

    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError, match="snapshot file not found"):
            load_frozen_file(tmp_path / "nope.snap")
        with pytest.raises(StorageError, match="snapshot file not found"):
            snapshot_file_info(tmp_path / "nope.snap")

    def test_missing_store_names(self, store):
        with pytest.raises(StorageError, match="no stored snapshot named 'x'"):
            store.load_snapshot("x")
        with pytest.raises(StorageError, match="no stored oracle named 'x'"):
            store.load_oracle("x")

    def test_empty_file(self, snap):
        # A zero-length file is a torn header write, not an mmap quirk:
        # the distinct "truncated header" error fires before mmap would
        # fail with its own "cannot mmap an empty file" ValueError.
        snap.write_bytes(b"")
        with pytest.raises(StorageError, match="truncated header"):
            load_frozen_file(snap)
        with pytest.raises(StorageError, match="truncated header"):
            snapshot_file_info(snap)

    def test_truncated_header(self, snap):
        snap.write_bytes(snap.read_bytes()[:16])
        with pytest.raises(
            StorageError, match="truncated header.*smaller than the 40-byte header"
        ):
            load_frozen_file(snap)
        with pytest.raises(StorageError, match="truncated header"):
            snapshot_file_info(snap)

    @pytest.mark.parametrize("size", [1, 8, 39])
    def test_every_sub_header_size_is_distinct(self, snap, size):
        snap.write_bytes(snap.read_bytes()[:size])
        with pytest.raises(StorageError, match="truncated header"):
            load_frozen_file(snap)

    def test_bad_magic(self, snap):
        _patch_header(snap, magic=b"NOTASNAP")
        with pytest.raises(StorageError, match="not a snapshot file"):
            load_frozen_file(snap)

    def test_unsupported_format_version(self, snap):
        _patch_header(snap, version=SNAPSHOT_FORMAT_VERSION + 41)
        with pytest.raises(StorageError, match="unsupported snapshot format version"):
            load_frozen_file(snap)

    def test_unknown_kind(self, snap):
        _patch_header(snap, kind=7)
        with pytest.raises(StorageError, match="unknown snapshot kind 7"):
            load_frozen_file(snap)

    def test_wrong_kind(self, store, oracle):
        store.save_oracle("team", oracle)
        path = store.root / "snapshots" / "team.oracle.snap"
        with pytest.raises(
            StorageError,
            match="holds a distance-oracle snapshot, not a frozen-graph",
        ):
            load_frozen_file(path)

    def test_checksum_mismatch(self, snap):
        raw = bytearray(snap.read_bytes())
        raw[-1] ^= 0xFF  # flip one payload bit
        snap.write_bytes(bytes(raw))
        with pytest.raises(StorageError, match="checksum mismatch"):
            load_frozen_file(snap)

    def test_source_version_skew(self, store, fig1, frozen, snap):
        with pytest.raises(StorageError, match="stale snapshot"):
            load_frozen_file(snap, expected_version=fig1.version + 1)
        with pytest.raises(
            StorageError,
            match=rf"taken at graph version {frozen.source_version}",
        ):
            store.load_snapshot("team", expected_version=fig1.version + 1)

    def test_metadata_past_end_of_file(self, snap):
        _patch_header(snap, meta_length=10**9)
        with pytest.raises(StorageError, match="metadata runs past end"):
            load_frozen_file(snap)
        with pytest.raises(StorageError, match="metadata runs past end"):
            snapshot_file_info(snap)

    def test_section_past_end_of_file(self, tmp_path):
        # A checksum-valid file whose section table promises more payload
        # than the file holds.
        path = tmp_path / "lying.frozen.snap"
        meta = json.dumps({"sections": [["out_offsets", 1 << 20]]}).encode()
        header = _HEADER.pack(
            SNAPSHOT_MAGIC, SNAPSHOT_FORMAT_VERSION, SNAPSHOT_KIND_FROZEN,
            0, 0, len(meta), zlib.crc32(meta),
        )
        path.write_bytes(header + meta)
        with pytest.raises(
            StorageError, match="section 'out_offsets' runs past end"
        ):
            from repro.engine.storage import load_snapshot_file

            load_snapshot_file(path, SNAPSHOT_KIND_FROZEN)

    def test_info_corrupt_metadata(self, tmp_path):
        path = tmp_path / "bad-meta.frozen.snap"
        meta = b"{]{]"
        header = _HEADER.pack(
            SNAPSHOT_MAGIC, SNAPSHOT_FORMAT_VERSION, SNAPSHOT_KIND_FROZEN,
            0, 0, len(meta), zlib.crc32(meta),
        )
        path.write_bytes(header + meta)
        with pytest.raises(StorageError, match="corrupt snapshot metadata"):
            snapshot_file_info(path)

    def test_unserializable_metadata_rejected_at_write(self, tmp_path):
        with pytest.raises(StorageError, match="not JSON-serializable"):
            write_snapshot_file(
                tmp_path / "x.snap", SNAPSHOT_KIND_FROZEN, 0, {"bad": {1, 2}}, []
            )

    def test_non_json_node_id_rejected(self, tmp_path):
        graph = Graph(name="bools")
        graph.add_node(True)
        with pytest.raises(StorageError, match="node id True is not JSON"):
            write_frozen_file(tmp_path / "x.snap", FrozenGraph.freeze(graph))

    def test_non_json_attribute_value_rejected(self, tmp_path):
        graph = Graph(name="blobs")
        graph.add_node("a", blob=b"\x00\x01")
        with pytest.raises(StorageError, match="does not survive a JSON round"):
            write_frozen_file(tmp_path / "x.snap", FrozenGraph.freeze(graph))

    def test_atomic_resave_never_disturbs_live_mapping(
        self, store, fig1, fig1_with_e1, snap
    ):
        good = store.load_snapshot("team", expected_version=fig1.version)
        # Saving a newer snapshot under the same name replaces the inode
        # (temp file + os.replace); the live mapping keeps the old pages.
        store.save_snapshot("team", FrozenGraph.freeze(fig1_with_e1))
        assert good.to_graph() == fig1
        assert store.load_snapshot("team").to_graph() == fig1_with_e1


# ----------------------------------------------------------------------
# catalogue CRUD
# ----------------------------------------------------------------------

class TestCatalogue:
    def test_snapshot_crud(self, store, frozen):
        assert not store.has_snapshot("team")
        assert store.list_snapshots() == []
        path = store.save_snapshot("team", frozen)
        assert path.name == "team.frozen.snap"
        assert store.has_snapshot("team")
        assert store.list_snapshots() == ["team"]
        store.delete_snapshot("team")
        assert store.list_snapshots() == []
        with pytest.raises(StorageError, match="no stored snapshot"):
            store.delete_snapshot("team")

    def test_oracle_crud(self, store, oracle):
        assert not store.has_oracle("team")
        store.save_oracle("team", oracle)
        assert store.has_oracle("team")
        assert store.list_oracles() == ["team"]
        # Frozen and oracle namespaces are distinct.
        assert store.list_snapshots() == []
        store.delete_oracle("team")
        assert store.list_oracles() == []
        with pytest.raises(StorageError, match="no stored oracle"):
            store.delete_oracle("team")

    def test_snapshot_info(self, store, fig1, frozen, oracle):
        store.save_snapshot("team", frozen)
        store.save_oracle("team", oracle)
        info = store.snapshot_info("team")
        assert info["kind"] == "frozen-graph"
        assert info["source_version"] == fig1.version
        assert info["name"] == fig1.name
        assert len(info["checksum"]) == 8
        section_names = [name for name, _length in info["sections"]]
        assert section_names[:4] == [
            "out_offsets", "out_targets", "in_offsets", "in_targets"
        ]
        # fig1 attributes ride as packed column sections.
        assert all(name.startswith("col") for name in section_names[4:])
        assert section_names[4:]  # fig1 has attributes
        assert info["file_bytes"] == (
            store.root / "snapshots" / "team.frozen.snap"
        ).stat().st_size
        oracle_info = store.snapshot_info("team", kind="oracle")
        assert oracle_info["kind"] == "distance-oracle"
        assert len(oracle_info["sections"]) == 10

    def test_snapshot_info_bad_kind(self, store):
        with pytest.raises(StorageError, match="unknown snapshot kind 'zip'"):
            store.snapshot_info("team", kind="zip")
        with pytest.raises(StorageError, match="no stored frozen snapshot"):
            store.snapshot_info("team")

    def test_invalid_names_rejected(self, store, frozen):
        with pytest.raises(StorageError, match="invalid store name"):
            store.save_snapshot("../evil", frozen)
        with pytest.raises(StorageError, match="invalid store name"):
            store.load_oracle("a/b")


# ----------------------------------------------------------------------
# cache fault-in
# ----------------------------------------------------------------------

def _cold_engine(store, graph) -> QueryEngine:
    """A fresh engine over ``store`` with ``graph`` registered as "team"."""
    engine = QueryEngine(store=store)
    engine.register_graph("team", graph)
    return engine


COLD = dict(use_cache=False, cache_result=False)


class TestSnapshotFaultIn:
    def test_no_store_is_a_plain_miss(self, fig1, fig1_query):
        engine = _cold_engine(None, fig1)
        engine.evaluate("team", fig1_query, **COLD)
        stats = engine.snapshot_stats()
        assert stats["misses"] == 1 and stats["builds"] == 1
        assert stats["fault_ins"] == 0
        assert stats["fault_in_errors"] == 0

    def test_miss_faults_in_from_disk(self, store, fig1, fig1_query, frozen):
        store.save_snapshot("team", frozen)
        engine = _cold_engine(store, fig1)
        result = engine.evaluate("team", fig1_query, **COLD)
        loaded = engine._registered["team"].frozen
        assert loaded.path is not None and loaded.matches(fig1)
        assert result.relation == match_bounded(fig1, fig1_query).relation
        stats = engine.snapshot_stats()
        assert stats["fault_ins"] == 1
        assert stats["builds"] == 0
        assert stats["misses"] == 1
        # Second read is a warm in-memory hit, not another mmap.
        engine.evaluate("team", fig1_query, **COLD)
        assert engine._registered["team"].frozen is loaded
        assert engine.snapshot_stats()["hits"] == 1

    def test_absent_file_is_not_an_error(self, store, fig1, fig1_query):
        engine = _cold_engine(store, fig1)
        engine.evaluate("team", fig1_query, **COLD)
        stats = engine.snapshot_stats()
        assert stats["fault_in_errors"] == 0 and stats["builds"] == 1

    def test_stale_file_falls_back_to_rebuild(self, store, fig1, fig1_query, frozen):
        store.save_snapshot("team", frozen)
        fig1.remove_edge("Dan", "Eva")  # the file now describes another graph
        engine = _cold_engine(store, fig1)
        result = engine.evaluate("team", fig1_query, **COLD)
        stats = engine.snapshot_stats()
        assert stats["fault_in_errors"] == 1
        assert stats["fault_ins"] == 0 and stats["builds"] == 1
        assert result.relation == match_bounded(fig1, fig1_query).relation

    def test_corrupt_file_falls_back_to_rebuild(self, store, fig1, fig1_query, frozen):
        store.save_snapshot("team", frozen)
        path = store.root / "snapshots" / "team.frozen.snap"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        engine = _cold_engine(store, fig1)
        result = engine.evaluate("team", fig1_query, **COLD)
        stats = engine.snapshot_stats()
        assert stats["fault_in_errors"] == 1 and stats["builds"] == 1
        assert result.relation == match_bounded(fig1, fig1_query).relation

    def test_put_counts_builds_not_fault_ins(self, store, fig1, fig1_query):
        engine = _cold_engine(store, fig1)
        engine.persist_snapshot("team")  # freezes, then writes the file
        stats = engine.snapshot_stats()
        assert stats["builds"] == 1
        assert stats["fault_ins"] == 0


class TestOracleFaultIn:
    def _enabled(self, store, graph, cap) -> QueryEngine:
        engine = _cold_engine(store, graph)
        engine.enable_oracle("team", cap=cap)
        return engine

    def test_miss_faults_in_from_disk(self, store, fig1, fig1_query, oracle):
        store.save_oracle("team", oracle)
        engine = self._enabled(store, fig1, oracle.cap)
        result = engine.evaluate("team", fig1_query, **COLD)
        loaded = engine._registered["team"].oracle
        assert loaded.path is not None and loaded.cap == oracle.cap
        assert engine.oracle_cache_stats()["fault_ins"] == 1
        assert engine.oracle_cache_stats()["builds"] == 0
        assert engine.oracle_stats("team")["state"] == "warm"
        assert result.relation == match_bounded(fig1, fig1_query).relation

    def test_cap_mismatch_skips_the_file(self, store, fig1, fig1_query, oracle):
        store.save_oracle("team", oracle)
        engine = self._enabled(store, fig1, 9)
        engine.evaluate("team", fig1_query, **COLD)
        assert engine._registered["team"].oracle.cap == 9  # rebuilt as asked
        stats = engine.oracle_cache_stats()
        # A cap mismatch is a config decision, not a corrupt file.
        assert stats["fault_ins"] == 0
        assert stats["fault_in_errors"] == 0
        assert stats["builds"] == 1

    def test_matching_cap_faults_in(self, store, fig1, oracle):
        store.save_oracle("team", oracle)
        engine = self._enabled(store, fig1, oracle.cap)
        assert engine.warm_oracle("team")["state"] == "warm"
        assert engine.oracle_cache_stats()["fault_ins"] == 1

    def test_stale_file_falls_back_to_rebuild(self, store, fig1, fig1_query, oracle):
        store.save_oracle("team", oracle)
        fig1.remove_edge("Dan", "Eva")
        engine = self._enabled(store, fig1, oracle.cap)
        result = engine.evaluate("team", fig1_query, **COLD)
        stats = engine.oracle_cache_stats()
        assert stats["fault_in_errors"] == 1 and stats["builds"] == 1
        assert result.relation == match_bounded(fig1, fig1_query).relation


class TestStaleFileAfterAReload:
    """A stored snapshot/oracle of an *earlier* same-size state is refused.

    Engine one persists graph + artefact; engine two loads the graph, swaps
    one edge for another (node and edge counts unchanged) and persists the
    graph only; engine three loads that graph.  A version rebuilt from the
    file's size made the old artefact look current and the third engine
    answered with the pre-update relation.
    """

    @pytest.fixture
    def swap(self):
        graph = Graph("g")
        for node, label in [("a", "A"), ("c", "A"), ("m", "M"), ("n", "M"), ("b", "B")]:
            graph.add_node(node, label=label)
        graph.add_edges([("a", "m"), ("c", "n"), ("m", "b")])
        query = Pattern("q")
        query.add_node("X", "label = A", output=True)
        query.add_node("Y", "label = B")
        query.add_edge("X", "Y", 2)
        return graph, query

    def _third_engine(self, store, graph, oracle_cap=None) -> QueryEngine:
        first = QueryEngine(store=store)
        first.register_graph("g", graph)
        if oracle_cap is not None:
            first.enable_oracle("g", cap=oracle_cap)
        first.persist_graph("g")
        first.persist_snapshot("g", include_oracle=oracle_cap is not None)
        second = QueryEngine(store=store)
        second.load_graph("g")
        second.update_graph("g", [EdgeDeletion("m", "b"), EdgeInsertion("n", "b")])
        second.persist_graph("g")
        third = QueryEngine(store=store)
        third.load_graph("g")
        if oracle_cap is not None:
            third.enable_oracle("g", cap=oracle_cap)
        return third

    def test_stale_snapshot_is_rebuilt_not_served(self, store, swap):
        graph, query = swap
        third = self._third_engine(store, graph)
        result = third.evaluate("g", query, **COLD)
        stats = third.snapshot_stats()
        assert stats["fault_in_errors"] == 1
        assert stats["builds"] == 1 and stats["fault_ins"] == 0
        reloaded = third._registered["g"].graph
        assert result.relation == naive_bounded(reloaded, query)
        assert result.relation.matches_of("X") == {"c"}  # was {"a"} before the swap

    def test_stale_oracle_is_rebuilt_not_served(self, store, swap):
        graph, query = swap
        third = self._third_engine(store, graph, oracle_cap=4)
        result = third.evaluate("g", query, **COLD)
        stats = third.oracle_cache_stats()
        assert stats["fault_in_errors"] == 1
        assert stats["builds"] == 1 and stats["fault_ins"] == 0
        reloaded = third._registered["g"].graph
        assert result.relation == naive_bounded(reloaded, query)


# ----------------------------------------------------------------------
# engine persistence API
# ----------------------------------------------------------------------

class TestEnginePersistSnapshot:
    def test_requires_a_store(self, fig1):
        engine = QueryEngine()
        engine.register_graph("team", fig1)
        with pytest.raises(EvaluationError, match="no file store"):
            engine.persist_snapshot("team")

    def test_persists_snapshot_and_oracle(self, store, fig1):
        engine = QueryEngine(store=store)
        engine.register_graph("team", fig1)
        paths = engine.persist_snapshot("team")
        assert set(paths) == {"snapshot"}
        assert store.has_snapshot("team")
        with pytest.raises(EvaluationError, match="oracle not enabled"):
            engine.persist_snapshot("team", include_oracle=True)
        engine.enable_oracle("team", cap=4)
        paths = engine.persist_snapshot("team", include_oracle=True)
        assert set(paths) == {"snapshot", "oracle"}
        assert store.has_oracle("team")
        loaded = store.load_oracle("team", expected_version=fig1.version)
        assert loaded.cap == 4


# ----------------------------------------------------------------------
# pickling and spawn-pool shipping
# ----------------------------------------------------------------------

class TestPickleMmapBacked:
    def test_frozen_pickle_materializes_views(self, store, fig1, frozen):
        store.save_snapshot("team", frozen)
        loaded = store.load_snapshot("team")
        clone = pickle.loads(pickle.dumps(loaded))
        assert clone.path is None  # the copy owns its buffers
        assert clone.to_graph() == fig1
        assert list(clone.out_targets) == list(loaded.out_targets)

    def test_oracle_pickle_materializes_views(self, store, fig1, oracle):
        store.save_oracle("team", oracle)
        loaded = store.load_oracle("team")
        clone = pickle.loads(pickle.dumps(loaded))
        assert clone.path is None
        assert clone.reach_out == oracle.reach_out
        n = len(oracle.reach_out)
        for source in range(n):
            for target in range(n):
                if source != target:
                    assert clone.distance(source, target) == oracle.distance(
                        source, target
                    )

    def test_without_attrs_keeps_backing_path(self, store, frozen):
        store.save_snapshot("team", frozen)
        loaded = store.load_snapshot("team")
        assert loaded.without_attrs().path == loaded.path


class TestSpawnShipping:
    """Store-loaded snapshots ship as file paths into spawn workers."""

    @pytest.fixture
    def served(self, store, fig1, frozen, oracle):
        store.save_snapshot("team", frozen)
        store.save_oracle("team", oracle)
        return (
            store.load_snapshot("team", expected_version=fig1.version),
            store.load_oracle("team", expected_version=fig1.version),
        )

    def test_shared_snapshot_match(self, fig1, fig1_query, served):
        loaded_frozen, loaded_oracle = served
        expected = match_bounded(fig1, fig1_query).relation
        with ParallelExecutor(workers=2, start_method="spawn") as executor:
            result = executor.match(
                fig1, fig1_query, frozen=loaded_frozen, oracle=loaded_oracle
            )
        assert result.stats["parallel"]["shipping"] == "shared-graph"
        assert result.relation == expected

    def test_guarded_match(self, fig1, fig1_query, served):
        loaded_frozen, loaded_oracle = served
        expected = match_bounded(fig1, fig1_query).relation
        budget = QueryBudget(node_visits=1_000_000)
        with ParallelExecutor(workers=2, start_method="spawn") as executor:
            result = executor.match(
                fig1, fig1_query,
                frozen=loaded_frozen, oracle=loaded_oracle, budget=budget,
            )
        assert result.relation == expected
        assert result.stats["partial"] is False

    def test_match_many(self, fig1, fig1_query, served):
        from repro.graph.index import predicate_key

        loaded_frozen, loaded_oracle = served
        candidates = simulation_candidates(fig1, fig1_query)
        keys = {
            u: predicate_key(fig1_query.predicate(u)) for u in fig1_query.nodes()
        }
        table = {keys[u]: candidates[u] for u in fig1_query.nodes()}
        tasks = [(fig1_query, keys)] * 3
        expected = match_bounded(fig1, fig1_query).relation
        with ParallelExecutor(workers=2, start_method="spawn") as executor:
            outcomes = executor.match_many(
                fig1, tasks, table, frozen=loaded_frozen, oracle=loaded_oracle
            )
        assert [relation for relation, _stats in outcomes] == [expected] * 3

    def test_in_process_snapshot_still_ships(self, fig1, fig1_query, frozen):
        # No backing file: the snapshot pickles as attribute-less buffers.
        assert frozen.path is None
        expected = match_bounded(fig1, fig1_query).relation
        with ParallelExecutor(workers=2, start_method="spawn") as executor:
            result = executor.match(fig1, fig1_query, frozen=frozen)
        assert result.relation == expected

    def test_shipment_round_trip(self, frozen, served):
        # The worker-side inverse maps shipped paths back to live objects.
        from repro.engine.parallel import _resolve_shipped, _shipment

        loaded_frozen, loaded_oracle = served
        shipped = _shipment(loaded_frozen, loaded_oracle)
        assert shipped == (loaded_frozen.path, loaded_oracle.path)
        back_frozen, back_oracle = _resolve_shipped(*shipped)
        assert back_frozen.labels == loaded_frozen.labels
        assert back_frozen.out_targets.tobytes() == loaded_frozen.out_targets.tobytes()
        assert back_oracle.cap == loaded_oracle.cap
        assert back_oracle.compatible_with(back_frozen)

        # In-process objects have no path: they ship as pickled buffers
        # (attribute-less for the frozen graph) and resolve to themselves.
        twin, none_oracle = _shipment(frozen, None)
        assert twin.labels == frozen.labels and none_oracle is None
        assert _resolve_shipped(twin, None) == (twin, None)


# ----------------------------------------------------------------------
# atomic writes
# ----------------------------------------------------------------------

class TestAtomicWrites:
    def test_failed_write_preserves_previous_file(self, tmp_path):
        path = tmp_path / "data.bin"
        atomic_write_bytes(path, [b"good bytes"])

        def exploding_chunks():
            yield b"partial "
            raise RuntimeError("disk died mid-write")

        with pytest.raises(RuntimeError, match="disk died"):
            atomic_write_bytes(path, exploding_chunks())
        assert path.read_bytes() == b"good bytes"
        # The orphaned temp file is cleaned up, not littered.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.bin"]

    def test_snapshot_save_failure_keeps_old_snapshot(self, store, fig1, frozen):
        store.save_snapshot("team", frozen)
        good = (store.root / "snapshots" / "team.frozen.snap").read_bytes()
        bad_graph = Graph(name=fig1.name)
        bad_graph.add_node("a", blob=b"\x00")
        with pytest.raises(StorageError, match="JSON"):
            store.save_snapshot("team", FrozenGraph.freeze(bad_graph))
        assert (store.root / "snapshots" / "team.frozen.snap").read_bytes() == good

    def test_no_temp_litter_after_saves(self, store, fig1, frozen, oracle):
        store.save_snapshot("team", frozen)
        store.save_oracle("team", oracle)
        store.save_graph("team", fig1)
        names = [p.name for p in (store.root / "snapshots").iterdir()]
        assert sorted(names) == ["team.frozen.snap", "team.oracle.snap"]
        assert [p.name for p in (store.root / "graphs").iterdir()] == ["team.json"]
