"""Graph (de)serialization — "graphs ... are stored and managed as files".

Two interchange formats:

* JSON (canonical): keeps node attributes, round-trips exactly;
* tab-separated edge lists: lowest-common-denominator interop with other
  graph tooling (attributes are not carried).

Node identifiers must be JSON scalars (``str`` / ``int``) to be storable;
in-memory graphs may use any hashable id.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable

from repro.errors import GraphError, StorageError
from repro.graph.digraph import Graph

FORMAT_VERSION = 1


def _atomic_write(path: Path, mode: str, write: Any) -> Path:
    """Durable write: temp file in the target directory, then ``os.replace``.

    A crash (or raised exception) mid-write can never leave a truncated
    file under the final name — the previously-good file, if any, stays
    untouched until the replace, and the replace is atomic because the
    temp file lives on the same filesystem.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode) as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    return path


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Atomically replace ``path`` with ``text`` (see :func:`_atomic_write`)."""
    return _atomic_write(Path(path), "w", lambda handle: handle.write(text))


def atomic_write_bytes(path: str | Path, chunks: Iterable[bytes]) -> Path:
    """Atomically replace ``path`` with the concatenation of ``chunks``."""

    def write(handle: Any) -> None:
        for chunk in chunks:
            handle.write(chunk)

    return _atomic_write(Path(path), "wb", write)


def graph_to_dict(graph: Graph) -> dict[str, Any]:
    """A JSON-ready dictionary representation of ``graph``, version included."""
    for node in graph.nodes():
        # bool is an int subclass, but True/False serialize as JSON
        # true/false and would load back as 1/0 — silently colliding with
        # any real 1/0 node.  Reject rather than corrupt.
        if isinstance(node, bool) or not isinstance(node, (str, int)):
            raise StorageError(
                f"node id {node!r} is not JSON-serializable (use str or int)"
            )
    return {
        "format": "repro.graph",
        "version": FORMAT_VERSION,
        "name": graph.name,
        "graph_version": graph.version,
        "nodes": [{"id": node, "attrs": dict(graph.attrs(node))} for node in graph.nodes()],
        "edges": [[source, target] for source, target in graph.edges()],
    }


def graph_from_dict(payload: dict[str, Any]) -> Graph:
    """Rebuild a :class:`Graph` from :func:`graph_to_dict` output."""
    if not isinstance(payload, dict) or payload.get("format") != "repro.graph":
        raise StorageError("not a repro.graph payload")
    if payload.get("version") != FORMAT_VERSION:
        raise StorageError(f"unsupported graph format version: {payload.get('version')!r}")
    graph = Graph(name=payload.get("name", ""))
    try:
        for entry in payload["nodes"]:
            graph.add_node(entry["id"], **entry.get("attrs", {}))
        for source, target in payload["edges"]:
            graph.add_edge(source, target)
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"malformed graph payload: {exc}") from exc
    # Optional: a payload written without the key keeps the rebuild's count.
    if "graph_version" in payload:
        try:
            graph.carry_version(payload["graph_version"])
        except GraphError as exc:
            raise StorageError(f"malformed graph payload: {exc}") from exc
    return graph


def save_graph(graph: Graph, path: str | Path) -> Path:
    """Write ``graph`` as JSON to ``path``; returns the path written."""
    return atomic_write_text(
        Path(path), json.dumps(graph_to_dict(graph), indent=2, sort_keys=False)
    )


def load_graph(path: str | Path) -> Graph:
    """Read a JSON graph written by :func:`save_graph`."""
    source = Path(path)
    if not source.exists():
        raise StorageError(f"graph file not found: {source}")
    try:
        payload = json.loads(source.read_text())
    except json.JSONDecodeError as exc:
        raise StorageError(f"invalid JSON in {source}: {exc}") from exc
    return graph_from_dict(payload)


def save_edgelist(graph: Graph, path: str | Path) -> Path:
    """Write a tab-separated ``source<TAB>target`` edge list."""
    lines = [f"{source}\t{dest}" for source, dest in graph.edges()]
    return atomic_write_text(Path(path), "\n".join(lines) + ("\n" if lines else ""))


def load_edgelist(path: str | Path, name: str = "") -> Graph:
    """Read a tab- or whitespace-separated edge list into an attr-less graph."""
    source = Path(path)
    if not source.exists():
        raise StorageError(f"edge list not found: {source}")
    graph = Graph(name=name or source.stem)
    for lineno, raw in enumerate(source.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise StorageError(f"{source}:{lineno}: expected 'source target', got {raw!r}")
        head, tail = parts
        if head not in graph:
            graph.add_node(head)
        if tail not in graph:
            graph.add_node(tail)
        graph.add_edge(head, tail)
    return graph
