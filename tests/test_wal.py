"""The write-ahead changelog: framing, rotation, torn tails, checkpoints.

Companion to ``tests/test_crash_recovery.py`` (which owns the fault
sweep and the hypothesis property); this file pins the WAL's file-format
and lifecycle contracts in isolation — every corruption a distinct
``WalError``, every policy observable through ``stats()``.
"""

from __future__ import annotations

import json
import struct
from array import array

import pytest

from repro.engine.storage import GraphStore
from repro.errors import StorageError, WalError
from repro.graph.digraph import Graph
from repro.graph.frozen import FrozenGraph
from repro.incremental.updates import (
    AttributeUpdate,
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
)
from repro.server import ExpFinderService, ServiceConfig
from repro.server.registry import SnapshotRegistry
from repro.server.wal import (
    RECORD_BATCH,
    SEGMENT_MAGIC,
    Checkpointer,
    WriteAheadLog,
    checkpoint_artifact,
)
from repro.server.wire import decode_updates, encode_update
from repro.testing.chaos import GRAPH_NAME, base_graph, build_stack, canonical_form
from repro.testing.faults import InjectedCrash, armed
from tests.test_frozen_patch import ARRAYS

BATCH = [{"op": "add-node", "node": "x", "attrs": {}}]


@pytest.fixture
def wal(tmp_path):
    log = WriteAheadLog(tmp_path / "wal")
    yield log
    log.close()


def small_graph(name: str = "g", nodes: int = 4) -> Graph:
    graph = Graph(name)
    for index in range(nodes):
        graph.add_node(f"n{index}", index=index)
    for index in range(nodes - 1):
        graph.add_edge(f"n{index}", f"n{index + 1}")
    return graph


# ----------------------------------------------------------------------
# framing + append
# ----------------------------------------------------------------------

class TestAppend:
    def test_lsns_are_monotonic_from_one(self, wal):
        assert [wal.append("g", BATCH, 0) for _ in range(3)] == [1, 2, 3]
        assert wal.last_lsn == 3

    def test_records_round_trip(self, wal):
        wal.append("g", BATCH, base_version=7)
        [record] = wal.records()
        assert record.graph == "g"
        assert record.base_version == 7
        assert record.updates == BATCH
        assert record.type == RECORD_BATCH

    def test_records_filters_by_graph_and_lsn(self, wal):
        wal.append("a", BATCH, 0)
        wal.append("b", BATCH, 0)
        wal.append("a", BATCH, 0)
        assert [r.lsn for r in wal.records(graph="a")] == [1, 3]
        assert [r.lsn for r in wal.records(after_lsn=2)] == [3]

    def test_unserializable_batch_rejected_before_append(self, wal):
        with pytest.raises(WalError, match="not JSON-serializable"):
            wal.append("g", [{"op": "add-node", "node": object()}], 0)
        assert wal.records() == []  # nothing half-written

    def test_append_after_close_raises(self, tmp_path):
        log = WriteAheadLog(tmp_path / "wal")
        log.close()
        with pytest.raises(WalError, match="closed"):
            log.append("g", BATCH, 0)

    def test_close_is_idempotent(self, tmp_path):
        log = WriteAheadLog(tmp_path / "wal")
        log.close()
        log.close()

    def test_wal_error_is_a_storage_error(self):
        assert issubclass(WalError, StorageError)


class TestConfigValidation:
    def test_unknown_fsync_policy(self, tmp_path):
        with pytest.raises(WalError, match="unknown fsync policy"):
            WriteAheadLog(tmp_path / "wal", fsync="every-full-moon")

    def test_tiny_segment_bytes(self, tmp_path):
        with pytest.raises(WalError, match="segment_bytes too small"):
            WriteAheadLog(tmp_path / "wal", segment_bytes=8)

    def test_bad_fsync_interval(self, tmp_path):
        with pytest.raises(WalError, match="fsync_interval"):
            WriteAheadLog(tmp_path / "wal", fsync_interval=0)


# ----------------------------------------------------------------------
# fsync policies
# ----------------------------------------------------------------------

class TestFsyncPolicies:
    def test_always_syncs_every_append(self, tmp_path):
        log = WriteAheadLog(tmp_path / "wal", fsync="always")
        for _ in range(3):
            log.append("g", BATCH, 0)
        assert log.stats()["fsyncs"] == 3
        log.close()

    def test_batch_amortizes(self, tmp_path):
        log = WriteAheadLog(tmp_path / "wal", fsync="batch", fsync_interval=4)
        for _ in range(8):
            log.append("g", BATCH, 0)
        assert log.stats()["fsyncs"] == 2
        log.close()

    def test_none_never_syncs_on_append(self, tmp_path):
        log = WriteAheadLog(tmp_path / "wal", fsync="none")
        for _ in range(5):
            log.append("g", BATCH, 0)
        assert log.stats()["fsyncs"] == 0
        log.close()

    def test_explicit_sync_works_under_any_policy(self, tmp_path):
        log = WriteAheadLog(tmp_path / "wal", fsync="none")
        log.append("g", BATCH, 0)
        log.sync()
        assert log.stats()["fsyncs"] == 1
        log.close()


# ----------------------------------------------------------------------
# rotation + sealing + reopen
# ----------------------------------------------------------------------

class TestRotation:
    def test_small_segments_rotate_and_seal(self, tmp_path):
        log = WriteAheadLog(tmp_path / "wal", segment_bytes=256)
        for _ in range(6):
            log.append("g", BATCH, 0)
        stats = log.stats()
        assert stats["rotations"] >= 1
        assert stats["seals"] == stats["rotations"]
        assert stats["segments"] == stats["rotations"] + 1
        log.close()

    def test_rotation_preserves_every_record(self, tmp_path):
        log = WriteAheadLog(tmp_path / "wal", segment_bytes=256)
        lsns = [log.append("g", BATCH, 0) for _ in range(6)]
        # seal records consume LSNs too, so batch LSNs are strictly
        # increasing but not consecutive across a rotation
        assert [r.lsn for r in log.records()] == lsns
        assert lsns == sorted(set(lsns))
        log.close()

    def test_reopen_continues_lsn_sequence(self, tmp_path):
        log = WriteAheadLog(tmp_path / "wal")
        log.append("g", BATCH, 0)
        log.close()
        reopened = WriteAheadLog(tmp_path / "wal")
        # close() wrote a seal record (lsn 2); appends continue after it.
        assert reopened.append("g", BATCH, 0) == 3
        assert [r.lsn for r in reopened.records()] == [1, 3]
        reopened.close()

    def test_reopen_starts_a_fresh_segment(self, tmp_path):
        log = WriteAheadLog(tmp_path / "wal")
        log.append("g", BATCH, 0)
        log.close()
        reopened = WriteAheadLog(tmp_path / "wal")
        assert reopened.stats()["segments"] == 2
        reopened.close()

    def test_reopen_after_crash_before_first_record(self, tmp_path):
        # drop the handle without sealing: the directory holds exactly one
        # header-only segment — what a crash between segment creation and
        # the first append leaves behind.  Reopening must not collide with
        # it (regression: FileExistsError permanently blocked startup).
        WriteAheadLog(tmp_path / "wal", fsync="none")
        reopened = WriteAheadLog(tmp_path / "wal")
        assert reopened.append("g", BATCH, 0) == 1
        assert [r.lsn for r in reopened.records()] == [1]
        reopened.close()

    def test_header_only_next_segment_is_a_tolerated_crash_artifact(self, tmp_path):
        log = WriteAheadLog(tmp_path / "wal", fsync="none")
        for _ in range(3):
            log.append("g", BATCH, 0)
        # a crash after writing the next segment's header, before any record
        (tmp_path / "wal" / "00000002.wal").write_bytes(
            struct.pack("<8sHH4x", SEGMENT_MAGIC, 1, 0)
        )
        reopened = WriteAheadLog(tmp_path / "wal")
        assert [r.lsn for r in reopened.records()] == [1, 2, 3]
        assert reopened.append("g", BATCH, 0) == 4
        reopened.close()

    def test_record_less_torn_segment_does_not_collide_on_reopen(self, tmp_path):
        log = WriteAheadLog(tmp_path / "wal", fsync="none")
        for _ in range(3):
            log.append("g", BATCH, 0)
        # a crash mid-way through the *first* record of the next segment:
        # bigger than a bare header, but record-less — it survives the scan
        # (torn tail) without ever entering the LSN index
        (tmp_path / "wal" / "00000002.wal").write_bytes(
            struct.pack("<8sHH4x", SEGMENT_MAGIC, 1, 0) + b"\x01"
        )
        reopened = WriteAheadLog(tmp_path / "wal")
        assert reopened.stats()["active_segment"] == 3
        assert [r.lsn for r in reopened.records()] == [1, 2, 3]
        assert reopened.append("g", BATCH, 0) == 4
        reopened.close()

    def test_alien_file_in_wal_dir_rejected(self, tmp_path):
        (tmp_path / "wal").mkdir()
        (tmp_path / "wal" / "notes.wal").write_bytes(b"hello")
        with pytest.raises(WalError, match="alien file"):
            WriteAheadLog(tmp_path / "wal")


# ----------------------------------------------------------------------
# torn tails vs mid-log corruption
# ----------------------------------------------------------------------

def _segment_paths(directory):
    return sorted(directory.glob("*.wal"))


class TestCorruption:
    def _filled(self, tmp_path, count=3):
        log = WriteAheadLog(tmp_path / "wal", fsync="none")
        for _ in range(count):
            log.append("g", BATCH, 0)
        # simulate a crash: no close(), no seal record
        return tmp_path / "wal"

    def test_torn_tail_is_tolerated_and_measured(self, tmp_path):
        directory = self._filled(tmp_path)
        [segment] = _segment_paths(directory)
        raw = segment.read_bytes()
        segment.write_bytes(raw[:-5])  # tear the last record mid-payload
        reopened = WriteAheadLog(directory)
        assert [r.lsn for r in reopened.records()] == [1, 2]
        assert reopened.torn_tail_bytes > 0
        # the torn lsn is reused by the fresh segment, keeping continuity
        assert reopened.append("g", BATCH, 0) == 3
        reopened.close()

    def test_mid_log_corruption_raises(self, tmp_path):
        directory = self._filled(tmp_path)
        [segment] = _segment_paths(directory)
        raw = bytearray(segment.read_bytes())
        # flip a byte inside the *first* record's payload: records after
        # it are still valid, so this cannot be a torn tail
        raw[30] ^= 0xFF
        segment.write_bytes(bytes(raw))
        with pytest.raises(WalError, match="corrupt record mid-log"):
            WriteAheadLog(directory)

    def test_lsn_gap_raises(self, tmp_path):
        log = WriteAheadLog(tmp_path / "wal", segment_bytes=256, fsync="none")
        for _ in range(8):
            log.append("g", BATCH, 0)
        log.close()
        segments = _segment_paths(tmp_path / "wal")
        assert len(segments) >= 3
        segments[1].unlink()  # a middle segment vanishes
        with pytest.raises(WalError, match="LSN gap"):
            WriteAheadLog(tmp_path / "wal")

    def test_truncated_segment_header(self, tmp_path):
        directory = self._filled(tmp_path)
        [segment] = _segment_paths(directory)
        segment.write_bytes(segment.read_bytes()[:7])
        with pytest.raises(WalError, match="truncated header"):
            WriteAheadLog(directory)

    def test_bad_segment_magic(self, tmp_path):
        directory = self._filled(tmp_path)
        [segment] = _segment_paths(directory)
        raw = bytearray(segment.read_bytes())
        raw[:8] = b"NOTAWAL!"
        segment.write_bytes(bytes(raw))
        with pytest.raises(WalError, match="bad magic"):
            WriteAheadLog(directory)

    def test_unsupported_format_version(self, tmp_path):
        directory = self._filled(tmp_path)
        [segment] = _segment_paths(directory)
        raw = bytearray(segment.read_bytes())
        struct.pack_into("<H", raw, 8, 99)
        segment.write_bytes(bytes(raw))
        with pytest.raises(WalError, match="unsupported WAL format version"):
            WriteAheadLog(directory)

    def test_empty_segment_file_is_a_tolerated_crash_artifact(self, tmp_path):
        directory = self._filled(tmp_path)
        # a crash between creating the next segment and writing its header
        (directory / "00000002.wal").write_bytes(b"")
        reopened = WriteAheadLog(directory)
        assert [r.lsn for r in reopened.records()] == [1, 2, 3]
        reopened.close()

    def test_segment_magic_constant(self):
        assert SEGMENT_MAGIC == b"EXPFWALS"
        assert len(SEGMENT_MAGIC) == 8


# ----------------------------------------------------------------------
# checkpoints + truncation
# ----------------------------------------------------------------------

class TestCheckpoints:
    def test_checkpoint_metadata_round_trip(self, wal):
        wal.write_checkpoint("g", lsn=5, graph_version=17, artifact="g.ckpt-000000000005")
        assert wal.read_checkpoints() == {
            "g": {
                "format": "repro.wal-checkpoint",
                "version": 1,
                "graph": "g",
                "lsn": 5,
                "graph_version": 17,
                "artifact": "g.ckpt-000000000005",
            }
        }
        assert wal.checkpoint_floor() == 5

    def test_floor_is_min_across_graphs(self, wal):
        wal.write_checkpoint("a", 9, 0, "a.ckpt-000000000009")
        wal.write_checkpoint("b", 4, 0, "b.ckpt-000000000004")
        assert wal.checkpoint_floor() == 4

    def test_no_checkpoints_no_floor(self, wal):
        assert wal.checkpoint_floor() is None

    def test_corrupt_checkpoint_metadata_raises(self, wal):
        (wal.directory / "checkpoint.g.json").write_text("{]")
        with pytest.raises(WalError, match="corrupt checkpoint metadata"):
            wal.read_checkpoints()

    def test_malformed_checkpoint_metadata_raises(self, wal):
        (wal.directory / "checkpoint.g.json").write_text(
            json.dumps({"format": "something-else"})
        )
        with pytest.raises(WalError, match="malformed checkpoint metadata"):
            wal.read_checkpoints()

    def test_truncate_deletes_only_covered_sealed_segments(self, tmp_path):
        log = WriteAheadLog(tmp_path / "wal", segment_bytes=256, fsync="none")
        for _ in range(8):
            log.append("g", BATCH, 0)
        before = log.stats()["segments"]
        assert before >= 3
        removed = log.truncate(log.last_lsn)  # active segment must survive
        assert removed == before - 1
        assert log.stats()["segments"] == 1
        # only records living in the (never-truncated) active segment remain
        assert len(log.records()) < 8
        log.close()

    def test_truncate_keeps_segments_above_floor(self, tmp_path):
        log = WriteAheadLog(tmp_path / "wal", segment_bytes=256, fsync="none")
        for _ in range(8):
            log.append("g", BATCH, 0)
        survivors = [r.lsn for r in log.records(after_lsn=3)]
        log.truncate(3)
        remaining = [r.lsn for r in log.records()]
        assert set(survivors) <= set(remaining)
        log.close()

    def test_checkpoint_artifact_name_is_lsn_stamped(self):
        assert checkpoint_artifact("team", 42) == "team.ckpt-000000000042"


class TestCheckpointer:
    @pytest.fixture
    def stack(self, tmp_path):
        store = GraphStore(tmp_path / "store")
        wal = WriteAheadLog(tmp_path / "wal", fsync="none")
        registry = SnapshotRegistry(store=store, wal=wal)
        checkpointer = Checkpointer(
            registry, wal, store, every_batches=2, background=False
        )
        registry.attach_checkpointer(checkpointer)
        yield registry, wal, store, checkpointer
        wal.close()

    def test_register_writes_a_baseline_checkpoint(self, stack):
        registry, wal, store, _cp = stack
        registry.register("g", small_graph())
        meta = wal.read_checkpoints()["g"]
        assert meta["lsn"] == 0
        # a checkpoint is one binary snapshot: no JSON graph beside it
        assert store.has_snapshot(meta["artifact"])
        assert not store.has_graph(meta["artifact"])
        info = store.snapshot_info(meta["artifact"])
        assert info["source_version"] == meta["graph_version"]

    def test_debounce_checkpoints_every_n_batches(self, stack):
        registry, wal, _store, cp = stack
        registry.register("g", small_graph())
        for index in range(4):
            registry.publish(
                "g", [NodeInsertion.with_attrs(f"x{index}")]
            )
        assert cp.stats()["checkpoints"] == 1 + 2  # baseline + two debounced
        assert wal.read_checkpoints()["g"]["lsn"] == 4

    def test_old_artifact_generations_are_garbage_collected(self, stack):
        registry, _wal, store, _cp = stack
        registry.register("g", small_graph())
        for index in range(4):
            registry.publish("g", [NodeInsertion.with_attrs(f"x{index}")])
        generations = [
            name for name in store.list_snapshots() if name.startswith("g.ckpt-")
        ]
        assert generations == [checkpoint_artifact("g", 4)]
        assert store.list_graphs() == []

    def test_checkpoint_skips_when_nothing_new(self, stack):
        registry, _wal, _store, cp = stack
        registry.register("g", small_graph())
        assert cp.checkpoint("g") is None  # baseline already covers lsn 0

    def test_checkpoint_of_unknown_graph_is_none(self, stack):
        _registry, _wal, _store, cp = stack
        assert cp.checkpoint("ghost") is None

    def test_checkpoint_truncates_sealed_segments(self, tmp_path):
        store = GraphStore(tmp_path / "store")
        wal = WriteAheadLog(tmp_path / "wal", fsync="none", segment_bytes=256)
        registry = SnapshotRegistry(store=store, wal=wal)
        checkpointer = Checkpointer(
            registry, wal, store, every_batches=100, background=False
        )
        registry.attach_checkpointer(checkpointer)
        registry.register("g", small_graph())
        for index in range(8):
            registry.publish("g", [NodeInsertion.with_attrs(f"x{index}")])
        assert wal.stats()["segments"] > 1
        result = checkpointer.checkpoint("g")
        assert result["truncated_segments"] >= 1
        wal.close()

    def test_background_thread_checkpoints(self, tmp_path):
        import time

        store = GraphStore(tmp_path / "store")
        wal = WriteAheadLog(tmp_path / "wal", fsync="none")
        registry = SnapshotRegistry(store=store, wal=wal)
        checkpointer = Checkpointer(
            registry, wal, store, every_batches=2, background=True
        )
        registry.attach_checkpointer(checkpointer)
        registry.register("g", small_graph())
        for index in range(2):
            registry.publish("g", [NodeInsertion.with_attrs(f"x{index}")])
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if wal.read_checkpoints()["g"]["lsn"] == 2:
                break
            time.sleep(0.01)
        assert wal.read_checkpoints()["g"]["lsn"] == 2
        checkpointer.close(final_checkpoint=False)
        wal.close()

    def test_close_writes_a_final_checkpoint(self, stack):
        registry, wal, _store, cp = stack
        registry.register("g", small_graph())
        registry.publish("g", [NodeInsertion.with_attrs("only")])
        cp.close(final_checkpoint=True)
        assert wal.read_checkpoints()["g"]["lsn"] == 1

    def test_inline_storage_error_is_recorded_not_raised(self, stack):
        # regression: a plain StorageError from the store (not a WalError)
        # escaped _drain_dirty and failed an already-committed publish
        registry, wal, _store, cp = stack
        registry.register("g", small_graph())
        with armed("checkpoint.snapshot", action="storage-error"):
            for index in range(2):  # every_batches=2 → inline checkpoint
                registry.publish("g", [NodeInsertion.with_attrs(f"x{index}")])
        stats = cp.stats()
        assert stats["failures"] == 1
        assert "StorageError" in stats["last_error"]
        # durability held: the baseline checkpoint + WAL suffix still
        # cover both batches, and the next window checkpoints normally
        assert wal.read_checkpoints()["g"]["lsn"] == 0
        registry.publish("g", [NodeInsertion.with_attrs("x2")])
        assert wal.read_checkpoints()["g"]["lsn"] == 3

    def test_background_storage_error_keeps_the_thread_alive(self, tmp_path):
        # regression: an uncaught StorageError killed the checkpointer
        # thread, silently stopping checkpoints/truncation forever
        import time

        store = GraphStore(tmp_path / "store")
        wal = WriteAheadLog(tmp_path / "wal", fsync="none")
        registry = SnapshotRegistry(store=store, wal=wal)
        checkpointer = Checkpointer(
            registry, wal, store, every_batches=1, background=True
        )
        registry.attach_checkpointer(checkpointer)
        registry.register("g", small_graph())
        with armed("checkpoint.snapshot", action="storage-error"):
            registry.publish("g", [NodeInsertion.with_attrs("bad")])
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if checkpointer.stats()["failures"] == 1:
                    break
                time.sleep(0.01)
        assert checkpointer.stats()["failures"] == 1
        # the thread survived: once the fault clears, the next publish is
        # checkpointed as usual
        registry.publish("g", [NodeInsertion.with_attrs("good")])
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if wal.read_checkpoints()["g"]["lsn"] == 2:
                break
            time.sleep(0.01)
        assert wal.read_checkpoints()["g"]["lsn"] == 2
        checkpointer.close(final_checkpoint=False)
        wal.close()

    def test_inline_memory_error_is_recorded_not_raised(self, tmp_path):
        # regression: a MemoryError escaped _drain_dirty and failed the
        # publish whose epoch was already installed
        store = GraphStore(tmp_path / "store")
        wal = WriteAheadLog(tmp_path / "wal", fsync="none", segment_bytes=256)
        registry = SnapshotRegistry(store=store, wal=wal)
        cp = Checkpointer(registry, wal, store, every_batches=2, background=False)
        registry.attach_checkpointer(cp)
        registry.register("g", small_graph())
        with armed("checkpoint.snapshot", action="memory-error"):
            registry.publish("g", [NodeInsertion.with_attrs("x0")])
            epoch = registry.publish("g", [NodeInsertion.with_attrs("x1")])  # due
        assert epoch is registry.current_epoch("g") and epoch.graph.has_node("x1")
        stats = cp.stats()
        assert stats["failures"] == 1
        assert stats["last_error"].startswith("MemoryError")
        assert wal.read_checkpoints()["g"]["lsn"] == 0
        # the next due checkpoint succeeds and truncates the log behind it
        # (256-byte segments: the first one is sealed by now)
        registry.publish("g", [NodeInsertion.with_attrs("x2")])
        applied = registry.wal_status()["graphs"]["g"]["applied_lsn"]
        assert wal.read_checkpoints()["g"]["lsn"] == applied
        assert cp.stats()["pending"] == {}
        assert wal.stats()["truncated_segments"] >= 1
        wal.close()

    def test_background_memory_error_keeps_the_thread_alive(self, tmp_path):
        # regression: a MemoryError killed the checkpointer thread; pending
        # then grew without bound and the WAL was never truncated again
        import time

        store = GraphStore(tmp_path / "store")
        wal = WriteAheadLog(tmp_path / "wal", fsync="none", segment_bytes=256)
        registry = SnapshotRegistry(store=store, wal=wal)
        cp = Checkpointer(registry, wal, store, every_batches=1, background=True)
        registry.attach_checkpointer(cp)
        registry.register("g", small_graph())
        with armed("checkpoint.snapshot", action="memory-error"):
            registry.publish("g", [NodeInsertion.with_attrs("bad")])
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and cp.stats()["failures"] == 0:
                time.sleep(0.01)
        stats = cp.stats()
        assert stats["failures"] == 1
        assert stats["last_error"].startswith("MemoryError")
        assert cp._thread is not None and cp._thread.is_alive()
        for node in ("good", "more"):  # the second seals the first segment
            registry.publish("g", [NodeInsertion.with_attrs(node)])
        applied = registry.wal_status()["graphs"]["g"]["applied_lsn"]
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not wal.stats()["truncated_segments"]:
            time.sleep(0.01)
        assert wal.stats()["truncated_segments"] >= 1
        assert wal.read_checkpoints()["g"]["lsn"] == applied
        cp.close(final_checkpoint=False)
        wal.close()

    def test_validation(self, stack):
        registry, wal, store, _cp = stack
        with pytest.raises(WalError, match="every_batches"):
            Checkpointer(registry, wal, store, every_batches=0, background=False)


# ----------------------------------------------------------------------
# a checkpoint is one binary snapshot
# ----------------------------------------------------------------------

def _crashed_stack(root, batches: int = 3):
    """Register + ``batches`` publishes (a checkpoint every 2), then no close().

    With the default three batches the last checkpoint covers two of them
    and the third is a WAL tail recovery must replay.  ``n2``'s
    predecessors arrive out of node order (n1, x0, n5, x1, n4, ...), which
    re-adding the edges in source order would not reproduce.
    """
    registry, _wal, _cp = build_stack(root)
    registry.register(GRAPH_NAME, base_graph())
    for index in range(batches):
        node = f"x{index}"
        registry.publish(
            GRAPH_NAME,
            [
                NodeInsertion.with_attrs(node, zero=0.0, w=-0.0, big=2**70),
                EdgeInsertion(node, "n2"),
                EdgeInsertion(f"n{5 - index}", "n2"),
            ],
        )
    return registry


def _restarted(root):
    """What a restarted process does, checkpointer attached."""
    registry, wal, _cp = build_stack(root)
    return registry, registry.recover(), wal


def _checkpoint_meta_path(root):
    return root / "wal" / f"checkpoint.{GRAPH_NAME}.json"


def _checkpoint_snapshot(root):
    """The store and the checkpoint metadata, read without opening the WAL."""
    return GraphStore(root / "store"), json.loads(_checkpoint_meta_path(root).read_text())


class TestSnapshotCheckpoints:
    def test_recovered_master_freezes_to_the_checkpoint_snapshot(self, tmp_path):
        crashed = _crashed_stack(tmp_path, batches=2)  # no tail
        expected = crashed.current_epoch(GRAPH_NAME).graph
        registry, report, wal = _restarted(tmp_path)
        assert report[GRAPH_NAME]["replayed"] == 0
        store, meta = _checkpoint_snapshot(tmp_path)
        stored = store.load_snapshot(meta["artifact"])
        master = registry.current_epoch(GRAPH_NAME).graph
        assert canonical_form(master) == canonical_form(expected)
        refrozen = FrozenGraph.freeze(master)
        assert refrozen.labels == stored.labels
        for field in ARRAYS:
            assert array("q", getattr(refrozen, field)) == array("q", getattr(stored, field))
        for node in master.nodes():
            assert list(master.predecessors(node)) == list(expected.predecessors(node))
        assert repr(master.get("x0", "w")) == "-0.0"
        assert master.get("x1", "big") == 2**70
        wal.close()

    def test_checkpoint_in_the_older_json_layout_recovers_and_is_collected(
        self, tmp_path
    ):
        crashed = _crashed_stack(tmp_path)
        expected = crashed.current_epoch(GRAPH_NAME).graph
        store, meta = _checkpoint_snapshot(tmp_path)
        # the layout an older binary wrote: a JSON graph beside the snapshot
        store.save_graph(meta["artifact"], store.load_snapshot(meta["artifact"]).to_graph())
        registry, report, wal = _restarted(tmp_path)
        assert report[GRAPH_NAME]["graph_version"] == expected.version
        master = registry.current_epoch(GRAPH_NAME).graph
        assert canonical_form(master) == canonical_form(expected)
        for index in range(2):  # every_batches=2: the next checkpoint is due
            registry.publish(GRAPH_NAME, [NodeInsertion.with_attrs(f"y{index}")])
        newest = wal.read_checkpoints()[GRAPH_NAME]["artifact"]
        assert newest != meta["artifact"]
        assert store.list_snapshots() == [newest]
        assert store.list_graphs() == []
        wal.close()

    def test_missing_checkpoint_snapshot_is_a_storage_error(self, tmp_path):
        _crashed_stack(tmp_path)
        store, meta = _checkpoint_snapshot(tmp_path)
        store.delete_snapshot(meta["artifact"])
        with pytest.raises(StorageError, match="no stored snapshot"):
            _restarted(tmp_path)

    def test_crc_flipped_checkpoint_snapshot_is_a_storage_error(self, tmp_path):
        _crashed_stack(tmp_path)
        store, meta = _checkpoint_snapshot(tmp_path)
        path = store.root / "snapshots" / f"{meta['artifact']}.frozen.snap"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # a payload byte: the header still parses
        path.write_bytes(bytes(raw))
        with pytest.raises(StorageError, match="checksum mismatch"):
            _restarted(tmp_path)

    def test_checkpoint_version_skew_is_a_storage_error(self, tmp_path):
        _crashed_stack(tmp_path)
        _store, meta = _checkpoint_snapshot(tmp_path)
        meta["graph_version"] += 1
        _checkpoint_meta_path(tmp_path).write_text(json.dumps(meta))
        with pytest.raises(StorageError, match="stale snapshot"):
            _restarted(tmp_path)

    def test_crash_at_checkpoint_snapshot_leaves_an_orphan_gc_removes(self, tmp_path):
        registry, _wal, _cp = build_stack(tmp_path)
        registry.register(GRAPH_NAME, base_graph())
        with armed("checkpoint.snapshot"):
            registry.publish(GRAPH_NAME, [NodeInsertion.with_attrs("a")])
            with pytest.raises(InjectedCrash):
                registry.publish(GRAPH_NAME, [NodeInsertion.with_attrs("b")])
        store, meta = _checkpoint_snapshot(tmp_path)
        orphans = [name for name in store.list_snapshots() if name != meta["artifact"]]
        assert len(orphans) == 1  # written, never named by the metadata
        registry, report, wal = _restarted(tmp_path)
        assert report[GRAPH_NAME]["replayed"] == 2
        for index in range(2):
            registry.publish(GRAPH_NAME, [NodeInsertion.with_attrs(f"c{index}")])
        assert store.list_snapshots() == [wal.read_checkpoints()[GRAPH_NAME]["artifact"]]
        wal.close()

    def test_restart_keeps_the_oracle(self, tmp_path, fig1, fig1_query):
        def config(root):
            return ServiceConfig(
                wal_dir=str(root), oracle={"cap": 4}, checkpoint_background=False
            )

        batch = {"updates": [{"op": "add-edge", "source": "Fred", "target": "Eva"}]}
        twin = ExpFinderService(ServiceConfig(oracle={"cap": 4}))
        twin.register_graph("fig1", fig1)
        twin.update_graph("fig1", batch)
        expected = twin.registry.current_epoch("fig1").evaluate(fig1_query).relation

        clean, killed = tmp_path / "clean", tmp_path / "killed"
        for root in (clean, killed):
            service = ExpFinderService(config(root))
            service.register_graph("fig1", fig1)
            service.update_graph("fig1", batch)
            if root is clean:
                service.close()
            del service  # the killed one: no close(), the batch is a WAL tail
        for root in (clean, killed):
            with ExpFinderService(config(root)) as revived:
                epoch = revived.registry.current_epoch("fig1")
                assert epoch.oracle is not None
                assert revived.registry.stats()["graphs"]["fig1"]["oracle"] is True
                assert epoch.evaluate(fig1_query).relation == expected
                revived.update_graph(
                    "fig1", {"updates": [{"op": "remove-edge", "source": "Fred", "target": "Eva"}]}
                )
                assert revived.registry.current_epoch("fig1").oracle is not None
        twin.close()


# ----------------------------------------------------------------------
# the wire codec the WAL stores batches in
# ----------------------------------------------------------------------

class TestEncodeUpdate:
    @pytest.mark.parametrize(
        "update",
        [
            EdgeInsertion("a", "b"),
            EdgeDeletion("a", "b"),
            NodeInsertion.with_attrs("n", kind="expert", score=3),
            NodeDeletion("n"),
            AttributeUpdate("n", "kind", "reviewer"),
        ],
    )
    def test_round_trip(self, update):
        [decoded] = decode_updates({"updates": [encode_update(update)]})
        assert decoded == update

    def test_unknown_type_rejected(self):
        from repro.errors import ServerError

        with pytest.raises(ServerError, match="cannot encode update"):
            encode_update("not an update")  # type: ignore[arg-type]
