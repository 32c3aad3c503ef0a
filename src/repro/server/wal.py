"""Durable write-ahead changelog for the query service.

PR 9's registry made update batches *atomic* (scratch-copy apply, one
pointer swap) but not *durable*: a crash between ``publish()`` and the
next snapshot persist silently lost every committed batch.  This module
closes that gap with the classic discipline, built from the same
primitives as :mod:`repro.engine.storage` (magic/version headers, CRC-32
framing, atomic ``os.replace`` for metadata):

* :class:`WriteAheadLog` — an append-only, segment-rotated changelog.
  Every update batch is one CRC-framed record appended (and, per the
  fsync policy, synced) **before** the batch touches the master graph,
  so an acknowledged publish is on disk by construction.
* :class:`Checkpointer` — debounced snapshot persistence: every N
  batches it captures the current epoch (immutable, so the work
  happens off the write lock), persists the graph + frozen snapshot into
  the :class:`~repro.engine.storage.GraphStore` under an LSN-stamped
  artifact name, atomically replaces the checkpoint metadata, and
  truncates sealed segments the checkpoint floor has passed.
* :meth:`SnapshotRegistry.recover` (in :mod:`repro.server.registry`)
  replays the unapplied WAL suffix over the last checkpoint at startup.

On-disk layout (``wal_dir/``)::

    00000001.wal                 segment: 16-byte header + records
    00000002.wal                 ... rotated at segment_bytes
    checkpoint.<graph>.json      atomic checkpoint metadata per graph

Record framing: ``<QII`` (lsn, type, payload length) + CRC-32 over that
prefix and the payload + the JSON payload.  A torn tail — a crash mid
``write(2)`` — fails the length or CRC check and replay stops there;
valid records *after* an invalid one mean real corruption and raise
:class:`~repro.errors.WalError` instead of being silently dropped, as do
LSN gaps (a deleted or reordered segment).

Fsync policy decision table (``fsync=``):

============  =========================================  ==============
policy        loss window after OS/power failure          relative cost
============  =========================================  ==============
``always``    nothing acknowledged is ever lost          one fsync/batch
``batch``     at most ``fsync_interval``-1 latest        amortized
              batches (process crash alone loses none)
``none``      the OS page cache (seconds)                write+flush only
============  =========================================  ==============

A *process* crash (the common case, and what the fault-injection sweep
simulates) loses nothing under any policy: every append is flushed to
the OS before ``publish`` proceeds.  The policy only sizes the loss
window of a machine-level failure.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import StorageError, WalError
from repro.graph.io import atomic_write_text
from repro.testing.faults import fault_point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.server.registry import SnapshotRegistry

SEGMENT_MAGIC = b"EXPFWALS"
WAL_FORMAT_VERSION = 1
#: magic, format version, 2 reserved + 4 pad bytes.
_SEGMENT_HEADER = struct.Struct("<8sHH4x")
#: lsn, record type, payload byte length (CRC-32 follows as one ``<I``).
_RECORD_PREFIX = struct.Struct("<QII")
_CRC = struct.Struct("<I")

RECORD_BATCH = 1
RECORD_SEAL = 2

_FSYNC_POLICIES = ("always", "batch", "none")

_SEGMENT_SUFFIX = ".wal"
_CHECKPOINT_PREFIX = "checkpoint."

#: Separator between a graph name and the LSN stamp in checkpoint
#: artifact names inside the GraphStore: ``<name>.ckpt-000000000042``.
CHECKPOINT_ARTIFACT_SEP = ".ckpt-"


@dataclass(frozen=True)
class WalRecord:
    """One decoded changelog record."""

    lsn: int
    type: int
    graph: str
    base_version: int
    updates: list[dict[str, Any]]


def checkpoint_artifact(graph: str, lsn: int) -> str:
    """The store name a checkpoint of ``graph`` at ``lsn`` persists under."""
    return f"{graph}{CHECKPOINT_ARTIFACT_SEP}{lsn:012d}"


class WriteAheadLog:
    """Append-only, CRC-framed, segment-rotated update changelog.

    One instance per service process.  Opening an existing directory
    scans every segment (validating framing and LSN continuity), learns
    the last LSN and any torn tail, and starts a *fresh* active segment
    — an unsealed predecessor is exactly what a crash leaves behind, and
    appending to it would turn its torn tail into mid-log corruption.

    >>> import tempfile
    >>> wal = WriteAheadLog(tempfile.mkdtemp())
    >>> wal.append("g", [{"op": "add-node", "node": "n"}], base_version=0)
    1
    >>> [record.graph for record in wal.records()]
    ['g']
    >>> wal.close()
    """

    def __init__(
        self,
        directory: str | Path,
        fsync: str = "batch",
        segment_bytes: int = 4 * 1024 * 1024,
        fsync_interval: int = 16,
    ) -> None:
        if fsync not in _FSYNC_POLICIES:
            raise WalError(
                f"unknown fsync policy {fsync!r} (one of {', '.join(_FSYNC_POLICIES)})"
            )
        if segment_bytes < _SEGMENT_HEADER.size + _RECORD_PREFIX.size + _CRC.size:
            raise WalError(f"segment_bytes too small: {segment_bytes}")
        if fsync_interval < 1:
            raise WalError(f"fsync_interval must be >= 1: {fsync_interval}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_policy = fsync
        self.segment_bytes = segment_bytes
        self.fsync_interval = fsync_interval
        self._lock = threading.RLock()
        self._closed = False
        self._active: Any = None
        self._active_seq = 0
        self._active_size = 0
        self._appends_since_fsync = 0
        self.counters = {
            "appends": 0,
            "fsyncs": 0,
            "rotations": 0,
            "seals": 0,
            "truncated_segments": 0,
        }
        # Scan what a previous process left behind: last LSN, per-segment
        # LSN ranges (for truncation) and the torn-tail diagnosis.
        self._segment_index: dict[int, tuple[int, int]] = {}
        #: highest segment number kept on disk by the startup scan —
        #: includes record-less segments (header + torn first record)
        #: that never enter ``_segment_index``, so the next segment this
        #: process opens can never collide with a crash artifact.
        self._max_disk_seq = 0
        #: byte size of the most recent batch frame (checkpoint debounce)
        self.last_frame_bytes = 0
        self.torn_tail_bytes = 0
        last_lsn: int | None = None
        for seq, path in self._segment_paths():
            size = path.stat().st_size
            if size == 0 or size == _SEGMENT_HEADER.size:
                # A crash between creating the segment and writing its
                # first record (empty: before the header reached the OS;
                # header-sized: after).  It holds nothing, and leaving it
                # would collide with the next segment this process opens.
                path.unlink()
                continue
            self._max_disk_seq = max(self._max_disk_seq, seq)
            lsns = [record.lsn for record, _ in self._read_segment(path, last_lsn)]
            if lsns:
                self._segment_index[seq] = (min(lsns), max(lsns))
                last_lsn = max(lsns)
        self._next_lsn = (last_lsn or 0) + 1
        self._open_next_segment()

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def append(
        self, graph: str, updates: list[dict[str, Any]], base_version: int
    ) -> int:
        """Durably frame one update batch; returns its LSN.

        Called by :meth:`SnapshotRegistry.publish` *before* the batch is
        applied — write-ahead.  The frame reaches the OS in a single
        unbuffered ``write(2)``; the fsync policy decides whether the
        kernel is also forced to media before this returns.
        """
        try:
            payload = json.dumps(
                {"graph": graph, "base_version": base_version, "updates": updates},
                sort_keys=True,
                separators=(",", ":"),
            ).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise WalError(f"update batch is not JSON-serializable: {exc}") from exc
        with self._lock:
            self._check_open()
            return self._append_locked(RECORD_BATCH, payload)

    def _append_locked(self, record_type: int, payload: bytes) -> int:
        frame_size = _RECORD_PREFIX.size + _CRC.size + len(payload)
        if (
            record_type == RECORD_BATCH
            and self._active_size > _SEGMENT_HEADER.size
            and self._active_size + frame_size > self.segment_bytes
        ):
            self._rotate_locked()
        lsn = self._next_lsn
        self._next_lsn += 1
        prefix = _RECORD_PREFIX.pack(lsn, record_type, len(payload))
        crc = zlib.crc32(payload, zlib.crc32(prefix))
        self._active.write(prefix + _CRC.pack(crc) + payload)
        fault_point("wal.append")
        self._active_size += frame_size
        low, high = self._segment_index.get(self._active_seq, (lsn, lsn))
        self._segment_index[self._active_seq] = (min(low, lsn), max(high, lsn))
        if record_type == RECORD_BATCH:
            self.counters["appends"] += 1
            self.last_frame_bytes = frame_size
            self._appends_since_fsync += 1
            if self.fsync_policy == "always" or (
                self.fsync_policy == "batch"
                and self._appends_since_fsync >= self.fsync_interval
            ):
                self._fsync_locked()
        return lsn

    def _fsync_locked(self) -> None:
        fault_point("wal.fsync")
        os.fsync(self._active.fileno())
        self.counters["fsyncs"] += 1
        self._appends_since_fsync = 0

    # ------------------------------------------------------------------
    # sealing / rotation / close
    # ------------------------------------------------------------------
    def _seal_locked(self) -> None:
        """End the active segment with a seal record and force it down.

        A sealed segment is durably complete regardless of fsync policy:
        truncation only ever deletes sealed segments, and deleting one
        whose records were still in the page cache would destroy the only
        copy of an acknowledged batch.
        """
        fault_point("wal.seal")
        payload = json.dumps({"graph": "", "sealed": self._active_seq}).encode("utf-8")
        lsn = self._next_lsn
        self._next_lsn += 1
        prefix = _RECORD_PREFIX.pack(lsn, RECORD_SEAL, len(payload))
        crc = zlib.crc32(payload, zlib.crc32(prefix))
        self._active.write(prefix + _CRC.pack(crc) + payload)
        os.fsync(self._active.fileno())
        low, high = self._segment_index.get(self._active_seq, (lsn, lsn))
        self._segment_index[self._active_seq] = (min(low, lsn), max(high, lsn))
        self.counters["seals"] += 1
        self._appends_since_fsync = 0

    def _rotate_locked(self) -> None:
        self._seal_locked()
        self._active.close()
        self._active = None
        fault_point("wal.rotate")
        self.counters["rotations"] += 1
        self._open_next_segment()

    def _open_next_segment(self) -> None:
        seq = max(self._segment_index, default=0)
        seq = max(seq, self._active_seq, self._max_disk_seq) + 1
        path = self.directory / f"{seq:08d}{_SEGMENT_SUFFIX}"
        # Unbuffered on purpose: every frame reaches the OS in the append
        # call itself, so a *process* crash (the fault-injection model)
        # loses nothing ever acknowledged — no userspace buffer whose
        # flush-on-GC timing could make crash simulations nondeterministic.
        try:
            handle = open(path, "xb", buffering=0)
        except OSError as exc:
            raise WalError(f"cannot create WAL segment {path}: {exc}") from exc
        handle.write(_SEGMENT_HEADER.pack(SEGMENT_MAGIC, WAL_FORMAT_VERSION, 0))
        self._active = handle
        self._active_seq = seq
        self._active_size = _SEGMENT_HEADER.size
        fault_point("wal.open-segment")

    def sync(self) -> None:
        """Force everything appended so far to media (any policy)."""
        with self._lock:
            self._check_open()
            self._fsync_locked()

    def close(self) -> None:
        """Seal the active segment and close the log (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._active is not None:
                self._seal_locked()
                self._active.close()
                self._active = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise WalError("write-ahead log is closed")

    # ------------------------------------------------------------------
    # reading / replay
    # ------------------------------------------------------------------
    def _segment_paths(self) -> list[tuple[int, Path]]:
        out = []
        for path in sorted(self.directory.glob(f"*{_SEGMENT_SUFFIX}")):
            try:
                out.append((int(path.name[: -len(_SEGMENT_SUFFIX)]), path))
            except ValueError:
                raise WalError(f"alien file in WAL directory: {path}") from None
        return out

    def _read_segment(
        self, path: Path, last_lsn: int | None
    ) -> Iterator[tuple[WalRecord, int]]:
        """Yield ``(record, end_offset)`` pairs; stop at a torn tail.

        ``last_lsn`` is the LSN of the last record of the *previous*
        segment — or ``None`` before the first record of the log, which
        may start past LSN 1 once truncation has deleted segments below
        the checkpoint floor.  From the anchor on, continuity across the
        whole log is enforced (a gap means a segment went missing *above*
        the floor — corruption, not a tail).
        """
        raw = path.read_bytes()
        if len(raw) == 0:
            # A crash between creating the file and writing its header.
            self.torn_tail_bytes += 0
            return
        if len(raw) < _SEGMENT_HEADER.size:
            raise WalError(
                f"truncated header in WAL segment {path}: {len(raw)} bytes is "
                f"smaller than the {_SEGMENT_HEADER.size}-byte header"
            )
        magic, version, _reserved = _SEGMENT_HEADER.unpack_from(raw)
        if magic != SEGMENT_MAGIC:
            raise WalError(f"{path} is not a WAL segment (bad magic {magic!r})")
        if version != WAL_FORMAT_VERSION:
            raise WalError(
                f"unsupported WAL format version {version} in {path} "
                f"(this build reads version {WAL_FORMAT_VERSION})"
            )
        offset = _SEGMENT_HEADER.size
        while offset < len(raw):
            frame = self._decode_frame(raw, offset, path)
            if frame is None:
                # Torn tail: remember how much was dropped, then make
                # sure nothing valid follows (that would be corruption).
                self.torn_tail_bytes = len(raw) - offset
                remainder = raw[offset + 1 :]
                if self._contains_valid_frame(remainder):
                    raise WalError(
                        f"corrupt record mid-log in {path} at byte {offset}: "
                        f"valid records follow an invalid one"
                    )
                return
            record, end = frame
            if last_lsn is not None and record.lsn != last_lsn + 1:
                raise WalError(
                    f"LSN gap in {path}: expected {last_lsn + 1}, found "
                    f"{record.lsn} (a segment above the checkpoint floor "
                    f"is missing or reordered)"
                )
            last_lsn = record.lsn
            yield record, end
            offset = end

    def _decode_frame(
        self, raw: bytes, offset: int, path: Path
    ) -> tuple[WalRecord, int] | None:
        if offset + _RECORD_PREFIX.size + _CRC.size > len(raw):
            return None
        lsn, record_type, length = _RECORD_PREFIX.unpack_from(raw, offset)
        body_start = offset + _RECORD_PREFIX.size + _CRC.size
        if record_type not in (RECORD_BATCH, RECORD_SEAL):
            return None
        if body_start + length > len(raw):
            return None
        (crc,) = _CRC.unpack_from(raw, offset + _RECORD_PREFIX.size)
        payload = raw[body_start : body_start + length]
        expected = zlib.crc32(payload, zlib.crc32(raw[offset : offset + _RECORD_PREFIX.size]))
        if crc != expected:
            return None
        try:
            decoded = json.loads(payload)
        except json.JSONDecodeError:
            return None
        record = WalRecord(
            lsn=lsn,
            type=record_type,
            graph=decoded.get("graph", ""),
            base_version=decoded.get("base_version", 0),
            updates=decoded.get("updates", []),
        )
        return record, body_start + length

    def _contains_valid_frame(self, raw: bytes) -> bool:
        """Whether any byte offset in ``raw`` decodes as a valid frame."""
        for offset in range(len(raw)):
            lsn_ok = len(raw) - offset >= _RECORD_PREFIX.size + _CRC.size
            if lsn_ok and self._decode_frame(raw, offset, Path("<scan>")) is not None:
                return True
        return False

    def records(
        self, after_lsn: int = 0, graph: str | None = None
    ) -> list[WalRecord]:
        """All batch records with ``lsn > after_lsn`` (optionally one graph).

        Re-reads the segment files, so it sees exactly what a recovering
        process would; a torn tail is tolerated (and measured), mid-log
        corruption raises :class:`WalError`.
        """
        with self._lock:
            self.torn_tail_bytes = 0
            out: list[WalRecord] = []
            last_lsn: int | None = None
            for _seq, path in self._segment_paths():
                for record, _end in self._read_segment(path, last_lsn):
                    last_lsn = record.lsn
                    if record.type != RECORD_BATCH or record.lsn <= after_lsn:
                        continue
                    if graph is not None and record.graph != graph:
                        continue
                    out.append(record)
            return out

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------
    def _checkpoint_path(self, graph: str) -> Path:
        return self.directory / f"{_CHECKPOINT_PREFIX}{graph}.json"

    def write_checkpoint(
        self, graph: str, lsn: int, graph_version: int, artifact: str
    ) -> None:
        """Atomically replace the checkpoint metadata for ``graph``.

        The artifacts named here are already on disk (and fsynced by the
        store's atomic-write discipline) before this runs, so a crash on
        either side of the ``os.replace`` leaves a *consistent* pair:
        old meta + old artifacts, or new meta + new artifacts.
        """
        atomic_write_text(
            self._checkpoint_path(graph),
            json.dumps(
                {
                    "format": "repro.wal-checkpoint",
                    "version": WAL_FORMAT_VERSION,
                    "graph": graph,
                    "lsn": lsn,
                    "graph_version": graph_version,
                    "artifact": artifact,
                },
                indent=2,
                sort_keys=True,
            ),
        )

    def read_checkpoints(self) -> dict[str, dict[str, Any]]:
        """graph name → checkpoint metadata, for every checkpointed graph."""
        out: dict[str, dict[str, Any]] = {}
        for path in sorted(self.directory.glob(f"{_CHECKPOINT_PREFIX}*.json")):
            try:
                meta = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise WalError(f"corrupt checkpoint metadata {path}: {exc}") from exc
            if (
                not isinstance(meta, dict)
                or meta.get("format") != "repro.wal-checkpoint"
                or not isinstance(meta.get("lsn"), int)
            ):
                raise WalError(f"malformed checkpoint metadata {path}")
            out[meta["graph"]] = meta
        return out

    def checkpoint_floor(self) -> int | None:
        """The lowest checkpoint LSN across graphs (truncation bound)."""
        checkpoints = self.read_checkpoints()
        if not checkpoints:
            return None
        return min(meta["lsn"] for meta in checkpoints.values())

    def truncate(self, upto_lsn: int) -> int:
        """Delete sealed segments fully covered by ``upto_lsn``.

        Only non-active segments whose *highest* LSN is ``<= upto_lsn``
        go; the active segment and anything with a newer record stay.
        Returns how many segments were removed.
        """
        removed = 0
        with self._lock:
            for seq, path in self._segment_paths():
                if seq == self._active_seq:
                    continue
                bounds = self._segment_index.get(seq)
                if bounds is None or bounds[1] > upto_lsn:
                    continue
                path.unlink()
                self._segment_index.pop(seq, None)
                removed += 1
                self.counters["truncated_segments"] += 1
        return removed

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def last_lsn(self) -> int:
        with self._lock:
            return self._next_lsn - 1

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "directory": str(self.directory),
                "fsync_policy": self.fsync_policy,
                "segment_bytes": self.segment_bytes,
                "fsync_interval": self.fsync_interval,
                "last_lsn": self._next_lsn - 1,
                "active_segment": self._active_seq,
                "segments": len(self._segment_paths()),
                "torn_tail_bytes": self.torn_tail_bytes,
                "closed": self._closed,
                **self.counters,
            }

    def __repr__(self) -> str:
        return f"<WriteAheadLog {self.directory} fsync={self.fsync_policy}>"


class Checkpointer:
    """Debounced snapshot persistence + WAL truncation.

    ``notify(graph)`` is cheap bookkeeping on the publish path; when a
    graph crosses ``every_batches`` the actual checkpoint runs — on the
    background thread by default, inline in ``background=False`` mode
    (deterministic tests and the crash sweep).  The work never holds the
    registry write lock: it captures the current epoch (immutable by
    construction) plus its applied LSN under the registry mutex, then
    persists off-lock.
    """

    def __init__(
        self,
        registry: "SnapshotRegistry",
        wal: WriteAheadLog,
        store: Any,
        every_batches: int = 64,
        background: bool = True,
    ) -> None:
        if every_batches < 1:
            raise WalError(f"checkpoint every_batches must be >= 1: {every_batches}")
        self.registry = registry
        self.wal = wal
        self.store = store
        self.every_batches = every_batches
        self.background = background
        self._lock = threading.Lock()
        self._pending: dict[str, int] = {}
        self._checkpointed_lsn: dict[str, int] = {
            name: meta["lsn"] for name, meta in wal.read_checkpoints().items()
        }
        self.counters = {"checkpoints": 0, "failures": 0}
        self.last_error: str | None = None
        self._dirty: set[str] = set()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        if background:
            self._thread = threading.Thread(
                target=self._run, name="expfinder-checkpointer", daemon=True
            )
            self._thread.start()

    # ------------------------------------------------------------------
    def notify(self, graph: str) -> None:
        """Record one published batch; trigger a checkpoint past threshold."""
        with self._lock:
            self._pending[graph] = self._pending.get(graph, 0) + 1
            due = self._pending[graph] >= self.every_batches
            if due:
                self._dirty.add(graph)
        if due:
            if self.background:
                self._wake.set()
            else:
                self._drain_dirty()

    def _run(self) -> None:  # pragma: no cover - exercised via events/join
        while not self._stop.is_set():
            self._wake.wait(timeout=0.5)
            self._wake.clear()
            self._drain_dirty()

    def _drain_dirty(self) -> None:
        while True:
            with self._lock:
                if not self._dirty:
                    return
                graph = sorted(self._dirty)[0]
                self._dirty.discard(graph)
            try:
                self.checkpoint(graph)
            except (StorageError, OSError) as exc:
                # A failed checkpoint must not take the service down: the
                # WAL suffix still covers everything since the last good
                # one, so durability holds — only replay gets longer.
                # StorageError covers WalError *and* a plain store failure
                # from save_graph/save_snapshot — in background mode an
                # escape here kills the checkpointer thread for good, in
                # inline mode it fails an already-committed publish.
                with self._lock:
                    self.counters["failures"] += 1
                    self.last_error = f"{type(exc).__name__}: {exc}"

    # ------------------------------------------------------------------
    def checkpoint(self, graph: str) -> dict[str, Any] | None:
        """Persist ``graph``'s current epoch and advance the WAL floor."""
        capture = self.registry.checkpoint_capture(graph)
        if capture is None:
            return None
        epoch, applied_lsn = capture
        with self._lock:
            already = self._checkpointed_lsn.get(graph)
        if already is not None and already >= applied_lsn:
            return None  # nothing new since the last checkpoint
        artifact = checkpoint_artifact(graph, applied_lsn)
        self.store.save_graph(artifact, epoch.graph)
        self.store.save_snapshot(artifact, epoch.frozen)
        fault_point("checkpoint.snapshot")
        self.wal.write_checkpoint(graph, applied_lsn, epoch.graph.version, artifact)
        fault_point("checkpoint.meta")
        with self._lock:
            self._checkpointed_lsn[graph] = applied_lsn
            self._pending.pop(graph, None)
            self.counters["checkpoints"] += 1
        self._gc_artifacts(graph, keep_lsn=applied_lsn)
        floor = self.wal.checkpoint_floor()
        fault_point("checkpoint.truncate")
        truncated = self.wal.truncate(floor) if floor is not None else 0
        return {
            "graph": graph,
            "lsn": applied_lsn,
            "artifact": artifact,
            "truncated_segments": truncated,
        }

    def checkpoint_all(self) -> list[dict[str, Any]]:
        """Checkpoint every registered graph (shutdown / drain path)."""
        out = []
        for name in self.registry.graphs():
            result = self.checkpoint(name)
            if result is not None:
                out.append(result)
        return out

    def _gc_artifacts(self, graph: str, keep_lsn: int) -> None:
        """Drop checkpoint artifacts older than the one just written.

        A crash mid-GC merely leaves orphans; the next checkpoint sweeps
        them, so this needs no atomicity of its own.
        """
        prefix = f"{graph}{CHECKPOINT_ARTIFACT_SEP}"
        for name in self.store.list_graphs():
            if not name.startswith(prefix):
                continue
            try:
                lsn = int(name[len(prefix) :])
            except ValueError:
                continue
            if lsn >= keep_lsn:
                continue
            self.store.delete_graph(name)
            if self.store.has_snapshot(name):
                self.store.delete_snapshot(name)

    # ------------------------------------------------------------------
    def close(self, final_checkpoint: bool = True) -> None:
        """Stop the background thread; optionally checkpoint everything."""
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        if final_checkpoint:
            self.checkpoint_all()

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "every_batches": self.every_batches,
                "background": self.background,
                "checkpointed_lsn": dict(self._checkpointed_lsn),
                "pending": dict(self._pending),
                "last_error": self.last_error,
                **self.counters,
            }
