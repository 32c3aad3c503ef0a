"""File-backed storage — "all the graphs and query results are stored and
managed as files".

A :class:`GraphStore` owns a directory with five sub-catalogues::

    <root>/graphs/<name>.json               data graphs
    <root>/patterns/<name>.pattern          pattern queries (text syntax)
    <root>/results/<name>.json              match relations
    <root>/result_graphs/<name>.json        weighted result graphs
    <root>/snapshots/<name>.frozen.snap     binary FrozenGraph snapshots
    <root>/snapshots/<name>.oracle.snap     binary DistanceOracle labelings

Names are restricted to a safe character set so stored artefacts stay
portable and path traversal is impossible.  Result graphs live in their
own directory: the old scheme suffixed them ``.rg.json`` inside
``results/``, so ``save_relation("foo.rg", ...)`` collided with result
graph ``foo`` — same file, two namespaces.

Binary snapshot format
----------------------
``FrozenGraph`` and ``DistanceOracle`` are already flat ``array('q')``
buffers, so persistence is a matter of laying those buffers out in a file
such that reload is an ``mmap`` plus a header check — zero copy, O(1) in
graph size — instead of seconds of freeze/label rebuild.  The layout::

    [ 40-byte header ][ metadata JSON ][ pad ][ buffer 0 ][ pad ][ buffer 1 ] ...

* the fixed header packs (little-endian) an 8-byte magic ``EXPFSNAP``,
  the format version, the snapshot kind (frozen graph vs distance
  oracle), the ``source_version`` the snapshot was built from, the
  metadata length, and a CRC-32 checksum over everything after the
  header;
* the metadata JSON carries what is not a flat buffer (name, value pool
  / oracle parameters, and string node labels for graphs that have them
  — int labels and attribute columns ride as int64 sections, decoded
  lazily) plus the section table ``[[section name, byte length], ...]``;
* each buffer starts at the next ``mmap.ALLOCATIONGRANULARITY``-aligned
  offset — computable from the section table alone — and holds raw
  little-endian int64s, so a loaded section is just
  ``memoryview(mapping)[offset:offset + length].cast("q")`` and pool
  workers mapping the same file share physical pages.

Every load validates magic, format version, kind and checksum, and — when
the caller knows the graph — ``source_version``, each failure a distinct
:class:`~repro.errors.StorageError`; a corrupt or stale file can never
produce a silently wrong answer.
"""

from __future__ import annotations

import json
import mmap
import re
import struct
import sys
import zlib
from array import array
from pathlib import Path
from typing import Any

from repro.errors import EvaluationError, StorageError
from repro.graph.digraph import Graph
from repro.graph.frozen import FrozenGraph
from repro.graph.io import atomic_write_bytes, atomic_write_text, load_graph, save_graph
from repro.graph.oracle import DistanceOracle
from repro.matching.base import MatchRelation
from repro.pattern.parser import load_pattern, save_pattern
from repro.pattern.pattern import Pattern

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise StorageError(
            f"invalid store name {name!r} (letters, digits, '._-', max 128 chars)"
        )
    return name


# ----------------------------------------------------------------------
# binary snapshot files
# ----------------------------------------------------------------------
SNAPSHOT_MAGIC = b"EXPFSNAP"
SNAPSHOT_FORMAT_VERSION = 1
SNAPSHOT_KIND_FROZEN = 1
SNAPSHOT_KIND_ORACLE = 2
_KIND_NAMES = {
    SNAPSHOT_KIND_FROZEN: "frozen-graph",
    SNAPSHOT_KIND_ORACLE: "distance-oracle",
}

# magic, format version, kind, flags (reserved), source_version,
# metadata length, CRC-32 of file[header:], 4 pad bytes.
_HEADER = struct.Struct("<8sHHIqqI4x")

#: Buffer sections start on allocation-granularity boundaries so a loaded
#: view could be re-mapped individually and stays page-shareable.
_ALIGN = mmap.ALLOCATIONGRANULARITY

def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def _buffer_bytes(buffer: Any) -> bytes:
    """``buffer`` as raw little-endian int64 bytes (the on-disk format)."""
    if sys.byteorder == "little":
        return buffer.tobytes()
    swapped = array("q", buffer)  # pragma: no cover - big-endian hosts
    swapped.byteswap()  # pragma: no cover
    return swapped.tobytes()  # pragma: no cover


def _json_safe(value: Any) -> bool:
    """True iff ``value`` survives a JSON round trip unchanged (type included)."""
    if value is None or isinstance(value, (str, bool, float)):
        return True
    if isinstance(value, int):
        return True
    if isinstance(value, list):
        return all(_json_safe(item) for item in value)
    if isinstance(value, dict):
        return all(
            isinstance(key, str) and _json_safe(item) for key, item in value.items()
        )
    return False


def write_snapshot_file(
    path: str | Path,
    kind: int,
    source_version: int,
    meta: dict[str, Any],
    buffers: list[tuple[str, Any]],
) -> Path:
    """Write one snapshot (header + metadata + aligned buffers), atomically."""
    # Unsorted keys: a dict-valued attribute keeps its order, as in JSON.
    try:
        meta_blob = json.dumps(
            {**meta, "sections": [[name, len(buffer) * 8] for name, buffer in buffers]}
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise StorageError(f"snapshot metadata is not JSON-serializable: {exc}") from exc

    chunks: list[bytes] = [meta_blob]
    position = _HEADER.size + len(meta_blob)
    for _name, buffer in buffers:
        padding = _aligned(position) - position
        data = _buffer_bytes(buffer)
        chunks.append(b"\x00" * padding)
        chunks.append(data)
        position += padding + len(data)

    checksum = 0
    for chunk in chunks:
        checksum = zlib.crc32(chunk, checksum)
    header = _HEADER.pack(
        SNAPSHOT_MAGIC,
        SNAPSHOT_FORMAT_VERSION,
        kind,
        0,
        source_version,
        len(meta_blob),
        checksum,
    )
    return atomic_write_bytes(Path(path), [header, *chunks])


def _read_header(raw: bytes, path: Path, kind: int | None) -> tuple:
    if len(raw) < _HEADER.size:
        raise StorageError(
            f"truncated header in snapshot file {path}: {len(raw)} bytes is "
            f"smaller than the {_HEADER.size}-byte header"
        )
    magic, version, file_kind, _flags, source_version, meta_length, checksum = (
        _HEADER.unpack_from(raw)
    )
    if magic != SNAPSHOT_MAGIC:
        raise StorageError(f"{path} is not a snapshot file (bad magic {magic!r})")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise StorageError(
            f"unsupported snapshot format version {version} in {path} "
            f"(this build reads version {SNAPSHOT_FORMAT_VERSION})"
        )
    if file_kind not in _KIND_NAMES:
        raise StorageError(f"unknown snapshot kind {file_kind} in {path}")
    if kind is not None and file_kind != kind:
        raise StorageError(
            f"{path} holds a {_KIND_NAMES[file_kind]} snapshot, "
            f"not a {_KIND_NAMES[kind]} snapshot"
        )
    return file_kind, source_version, meta_length, checksum


def load_snapshot_file(
    path: str | Path,
    kind: int,
    expected_version: int | None = None,
) -> tuple[int, dict[str, Any], dict[str, Any]]:
    """Map a snapshot file and return ``(source_version, meta, views)``.

    ``views`` maps section names to zero-copy int64 ``memoryview`` casts
    over the shared mapping (which the views keep alive).  Raises a
    distinct :class:`StorageError` for a missing file, a truncated file,
    a bad magic, an unsupported format version, a wrong kind, a checksum
    mismatch, and — when ``expected_version`` is given — a
    ``source_version`` skew.
    """
    path = Path(path)
    if not path.exists():
        raise StorageError(f"snapshot file not found: {path}")
    # Checked up front: a zero-length file would otherwise surface as
    # mmap's own ValueError ("cannot mmap an empty file") and a sub-header
    # file would fail only at header unpack — both are the same defect (a
    # torn write of the header) and deserve the same distinct error.
    size = path.stat().st_size
    if size < _HEADER.size:
        raise StorageError(
            f"truncated header in snapshot file {path}: {size} bytes is "
            f"smaller than the {_HEADER.size}-byte header"
        )
    with open(path, "rb") as handle:
        try:
            mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as exc:  # pragma: no cover - raced truncation
            raise StorageError(f"truncated snapshot file {path}: {exc}") from exc
    view = memoryview(mapping)
    _file_kind, source_version, meta_length, checksum = _read_header(
        bytes(view[: _HEADER.size]), path, kind
    )
    size = len(view)
    if _HEADER.size + meta_length > size:
        raise StorageError(
            f"truncated snapshot file {path}: metadata runs past end of file"
        )
    if zlib.crc32(view[_HEADER.size :]) != checksum:
        raise StorageError(f"checksum mismatch in {path}: the file is corrupt")
    try:
        meta = json.loads(bytes(view[_HEADER.size : _HEADER.size + meta_length]))
    except json.JSONDecodeError as exc:  # pragma: no cover - caught by checksum
        raise StorageError(f"corrupt snapshot metadata in {path}: {exc}") from exc
    if expected_version is not None and source_version != expected_version:
        raise StorageError(
            f"stale snapshot {path}: taken at graph version {source_version}, "
            f"but the graph is now at version {expected_version}"
        )

    views: dict[str, Any] = {}
    position = _HEADER.size + meta_length
    for name, byte_length in meta["sections"]:
        offset = _aligned(position)
        if offset + byte_length > size:
            raise StorageError(
                f"truncated snapshot file {path}: section {name!r} runs "
                f"past end of file"
            )
        section = view[offset : offset + byte_length]
        if sys.byteorder == "little":
            views[name] = section.cast("q")
        else:  # pragma: no cover - big-endian hosts
            swapped = array("q", section.tobytes())
            swapped.byteswap()
            views[name] = swapped
        position = offset + byte_length
    return source_version, meta, views


def snapshot_file_info(path: str | Path) -> dict[str, Any]:
    """Header + metadata summary of a snapshot file (no payload verify)."""
    path = Path(path)
    if not path.exists():
        raise StorageError(f"snapshot file not found: {path}")
    with open(path, "rb") as handle:
        file_kind, source_version, meta_length, checksum = _read_header(
            handle.read(_HEADER.size), path, None
        )
        meta_raw = handle.read(meta_length)
    if len(meta_raw) < meta_length:
        raise StorageError(
            f"truncated snapshot file {path}: metadata runs past end of file"
        )
    try:
        meta = json.loads(meta_raw)
    except json.JSONDecodeError as exc:
        raise StorageError(f"corrupt snapshot metadata in {path}: {exc}") from exc
    return {
        "path": str(path),
        "kind": _KIND_NAMES[file_kind],
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "source_version": source_version,
        "checksum": f"{checksum:08x}",
        "file_bytes": path.stat().st_size,
        "name": meta.get("name", ""),
        "sections": [tuple(entry) for entry in meta["sections"]],
    }


def write_frozen_file(path: str | Path, frozen: FrozenGraph) -> Path:
    """Persist ``frozen`` as a binary snapshot file."""
    meta, buffers = frozen.to_buffers()
    # Purely-int label sets ride as an int64 section; anything else must
    # survive the metadata JSON round trip.
    for label in meta["labels"] or ():
        if isinstance(label, bool) or not isinstance(label, (str, int)):
            raise StorageError(
                f"node id {label!r} is not JSON-serializable (use str or int)"
            )
    for value in meta["values"]:
        if not _json_safe(value):
            raise StorageError(
                f"attribute value {value!r} does not survive a JSON round "
                f"trip; snapshot files require JSON-safe attribute values"
            )
    return write_snapshot_file(
        Path(path), SNAPSHOT_KIND_FROZEN, frozen.source_version, meta, buffers
    )


def load_frozen_file(
    path: str | Path, expected_version: int | None = None
) -> FrozenGraph:
    """Load a :class:`FrozenGraph` zero-copy from a snapshot file."""
    source_version, meta, views = load_snapshot_file(
        path, SNAPSHOT_KIND_FROZEN, expected_version
    )
    frozen = FrozenGraph.from_buffers(source_version, meta, views)
    frozen.path = Path(path)  # repro-lint: disable=frozen-immutability -- provenance stamp before the snapshot is published; no reader exists yet
    return frozen


def write_oracle_file(path: str | Path, oracle: DistanceOracle) -> Path:
    """Persist ``oracle`` as a binary snapshot file."""
    meta, buffers = oracle.to_buffers()
    return write_snapshot_file(
        Path(path), SNAPSHOT_KIND_ORACLE, oracle.source_version, meta, buffers
    )


def load_oracle_file(
    path: str | Path, expected_version: int | None = None
) -> DistanceOracle:
    """Load a :class:`DistanceOracle` zero-copy from a snapshot file."""
    source_version, meta, views = load_snapshot_file(
        path, SNAPSHOT_KIND_ORACLE, expected_version
    )
    oracle = DistanceOracle.from_buffers(source_version, meta, views)
    oracle.path = Path(path)  # repro-lint: disable=frozen-immutability -- provenance stamp before the oracle is published; no reader exists yet
    return oracle


class GraphStore:
    """A directory of graphs, patterns, results and binary snapshots.

    >>> import tempfile
    >>> from repro.graph.generators import collaboration_graph
    >>> store = GraphStore(tempfile.mkdtemp())
    >>> _ = store.save_graph("team", collaboration_graph(30, seed=1))
    >>> store.list_graphs()
    ['team']
    >>> store.load_graph("team").num_nodes
    30
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._graphs = self.root / "graphs"
        self._patterns = self.root / "patterns"
        self._results = self.root / "results"
        self._result_graphs = self.root / "result_graphs"
        self._snapshots = self.root / "snapshots"
        for directory in (
            self._graphs,
            self._patterns,
            self._results,
            self._result_graphs,
            self._snapshots,
        ):
            directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # graphs
    # ------------------------------------------------------------------
    def save_graph(self, name: str, graph: Graph) -> Path:
        return save_graph(graph, self._graphs / f"{_check_name(name)}.json")

    def load_graph(self, name: str) -> Graph:
        path = self._graphs / f"{_check_name(name)}.json"
        if not path.exists():
            raise StorageError(f"no stored graph named {name!r}")
        return load_graph(path)

    def has_graph(self, name: str) -> bool:
        return (self._graphs / f"{_check_name(name)}.json").exists()

    def delete_graph(self, name: str) -> None:
        path = self._graphs / f"{_check_name(name)}.json"
        if not path.exists():
            raise StorageError(f"no stored graph named {name!r}")
        path.unlink()

    def list_graphs(self) -> list[str]:
        return sorted(p.stem for p in self._graphs.glob("*.json"))

    # ------------------------------------------------------------------
    # patterns
    # ------------------------------------------------------------------
    def save_pattern(self, name: str, pattern: Pattern) -> Path:
        return save_pattern(pattern, self._patterns / f"{_check_name(name)}.pattern")

    def load_pattern(self, name: str) -> Pattern:
        path = self._patterns / f"{_check_name(name)}.pattern"
        if not path.exists():
            raise StorageError(f"no stored pattern named {name!r}")
        return load_pattern(path)

    def delete_pattern(self, name: str) -> None:
        path = self._patterns / f"{_check_name(name)}.pattern"
        if not path.exists():
            raise StorageError(f"no stored pattern named {name!r}")
        path.unlink()

    def list_patterns(self) -> list[str]:
        return sorted(p.stem for p in self._patterns.glob("*.pattern"))

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def save_relation(self, name: str, relation: MatchRelation) -> Path:
        path = self._results / f"{_check_name(name)}.json"
        return atomic_write_text(path, json.dumps(relation.to_dict(), indent=2))

    def load_relation(self, name: str) -> MatchRelation:
        path = self._results / f"{_check_name(name)}.json"
        if not path.exists():
            raise StorageError(f"no stored result named {name!r}")
        try:
            return MatchRelation.from_dict(json.loads(path.read_text()))
        except (json.JSONDecodeError, KeyError, TypeError, EvaluationError) as exc:
            raise StorageError(f"malformed result file {path}: {exc}") from exc

    def delete_relation(self, name: str) -> None:
        path = self._results / f"{_check_name(name)}.json"
        if not path.exists():
            raise StorageError(f"no stored result named {name!r}")
        path.unlink()

    def list_relations(self) -> list[str]:
        # Result graphs live in their own directory, so every *.json here
        # is a relation — including names that end in ".rg", which the old
        # suffix-filter scheme silently hid.
        return sorted(p.stem for p in self._results.glob("*.json"))

    # ------------------------------------------------------------------
    # result graphs (own directory — see the module docstring)
    # ------------------------------------------------------------------
    def save_result_graph(self, name: str, result_graph: Any) -> Path:
        """Persist a weighted result graph in its own namespace."""
        path = self._result_graphs / f"{_check_name(name)}.json"
        return atomic_write_text(path, json.dumps(result_graph.to_dict(), indent=2))

    def load_result_graph(self, name: str, graph: Graph, pattern: Pattern) -> Any:
        """Load a result graph back against its graph and pattern."""
        from repro.matching.result_graph import ResultGraph

        path = self._result_graphs / f"{_check_name(name)}.json"
        if not path.exists():
            raise StorageError(f"no stored result graph named {name!r}")
        try:
            payload = json.loads(path.read_text())
            return ResultGraph.from_dict(payload, graph, pattern)
        except (json.JSONDecodeError, KeyError, TypeError, EvaluationError) as exc:
            raise StorageError(f"malformed result-graph file {path}: {exc}") from exc

    def delete_result_graph(self, name: str) -> None:
        path = self._result_graphs / f"{_check_name(name)}.json"
        if not path.exists():
            raise StorageError(f"no stored result graph named {name!r}")
        path.unlink()

    def list_result_graphs(self) -> list[str]:
        return sorted(p.stem for p in self._result_graphs.glob("*.json"))

    # ------------------------------------------------------------------
    # binary snapshots (FrozenGraph + DistanceOracle)
    # ------------------------------------------------------------------
    def save_snapshot(self, name: str, frozen: FrozenGraph) -> Path:
        """Persist a frozen snapshot under ``snapshots/<name>.frozen.snap``."""
        return write_frozen_file(
            self._snapshots / f"{_check_name(name)}.frozen.snap", frozen
        )

    def load_snapshot(
        self, name: str, expected_version: int | None = None
    ) -> FrozenGraph:
        """Mmap a stored snapshot (validated against ``expected_version``)."""
        path = self._snapshots / f"{_check_name(name)}.frozen.snap"
        if not path.exists():
            raise StorageError(f"no stored snapshot named {name!r}")
        return load_frozen_file(path, expected_version)

    def has_snapshot(self, name: str) -> bool:
        return (self._snapshots / f"{_check_name(name)}.frozen.snap").exists()

    def delete_snapshot(self, name: str) -> None:
        path = self._snapshots / f"{_check_name(name)}.frozen.snap"
        if not path.exists():
            raise StorageError(f"no stored snapshot named {name!r}")
        path.unlink()

    def list_snapshots(self) -> list[str]:
        suffix = ".frozen.snap"
        return sorted(
            p.name[: -len(suffix)] for p in self._snapshots.glob(f"*{suffix}")
        )

    def save_oracle(self, name: str, oracle: DistanceOracle) -> Path:
        """Persist an oracle labeling under ``snapshots/<name>.oracle.snap``."""
        return write_oracle_file(
            self._snapshots / f"{_check_name(name)}.oracle.snap", oracle
        )

    def load_oracle(
        self, name: str, expected_version: int | None = None
    ) -> DistanceOracle:
        """Mmap a stored oracle (validated against ``expected_version``)."""
        path = self._snapshots / f"{_check_name(name)}.oracle.snap"
        if not path.exists():
            raise StorageError(f"no stored oracle named {name!r}")
        return load_oracle_file(path, expected_version)

    def has_oracle(self, name: str) -> bool:
        return (self._snapshots / f"{_check_name(name)}.oracle.snap").exists()

    def delete_oracle(self, name: str) -> None:
        path = self._snapshots / f"{_check_name(name)}.oracle.snap"
        if not path.exists():
            raise StorageError(f"no stored oracle named {name!r}")
        path.unlink()

    def list_oracles(self) -> list[str]:
        suffix = ".oracle.snap"
        return sorted(
            p.name[: -len(suffix)] for p in self._snapshots.glob(f"*{suffix}")
        )

    def artifacts(self, name: str) -> dict[str, bool]:
        """Which persisted artifacts exist for ``name``.

        The query service's preload path uses this one call to decide how
        warm a start it can offer: a graph alone means load-and-freeze, a
        snapshot means mmap fault-in, an oracle means no label build.
        """
        return {
            "graph": self.has_graph(name),
            "snapshot": self.has_snapshot(name),
            "oracle": self.has_oracle(name),
        }

    def snapshot_info(self, name: str, kind: str = "frozen") -> dict[str, Any]:
        """Header/metadata summary of a stored snapshot or oracle file."""
        if kind not in ("frozen", "oracle"):
            raise StorageError(f"unknown snapshot kind {kind!r} (frozen or oracle)")
        path = self._snapshots / f"{_check_name(name)}.{kind}.snap"
        if not path.exists():
            raise StorageError(f"no stored {kind} snapshot named {name!r}")
        return snapshot_file_info(path)

    def __repr__(self) -> str:
        return f"<GraphStore {self.root}>"
