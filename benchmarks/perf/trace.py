"""Outside-in span tracing for the per-layer breakdown.

Nothing under ``src/`` knows about this module.  :class:`Tracer` replaces
the public callables at each layer boundary (module attributes and class
attributes, see :data:`PATCHES`) with wrappers that record one span per
call — ``[name, start, end, parent, request, measures]`` — on a per-thread
list, kept in memory and written out once, when the run ends.  A span's
*self time* is its duration minus the part its child spans cover, which
is what :func:`aggregate` reports per span name.

Spans without a parent start a request: every span below inherits its
request id, so the spans of one HTTP request (or one engine call) can be
read together.  End-to-end metrics never come from a traced process.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

#: A probe is called with the wrapped call's positional arguments before
#: the call and returns a function of the result yielding ``{measure: n}``.
Probe = Callable[[tuple], Callable[[Any], dict[str, float]]]


def _hit(args: tuple) -> Callable[[Any], dict[str, float]]:
    return lambda result: {"hits": 0 if result is None else 1}


def _candidates(args: tuple) -> Callable[[Any], dict[str, float]]:
    return lambda result: {"candidates": sum(len(nodes) for nodes in result.values())}


def _row_entries(args: tuple) -> Callable[[Any], dict[str, float]]:
    return lambda rows: {
        "entries": sum(len(row) for by_source in rows.values() for row in by_source.values())
    }


def _ranking(args: tuple) -> Callable[[Any], dict[str, float]]:
    stats = args[0].stats
    scored, pruned = stats["details_scored"], stats["pruned_by_bound"]
    return lambda result: {
        "scored": stats["details_scored"] - scored,
        "pruned": stats["pruned_by_bound"] - pruned,
    }


def _frame_bytes(args: tuple) -> Callable[[Any], dict[str, float]]:
    return lambda lsn: {"bytes": args[0].last_frame_bytes}


def _label_entries(args: tuple) -> Callable[[Any], dict[str, float]]:
    return lambda oracle: {"labels": len(oracle.out_hubs) + len(oracle.in_hubs)}


def _delta_pairs(args: tuple) -> Callable[[Any], dict[str, float]]:
    return lambda summary: {
        "pairs": sum(
            len(delta["added"]) + len(delta["removed"])
            for delta in summary["pinned_deltas"].values()
        )
    }


#: ``(module, class or None, attribute, span name, probe or None)``.  A name
#: imported with ``from x import f`` is patched where it is *looked up*
#: (``repro.server.registry.match_bounded``), not where it is defined.
PATCHES: tuple[tuple[str, str | None, str, str, Probe | None], ...] = (
    # server.app: the HTTP handler and the service facade behind it
    ("repro.server.app", "_Handler", "do_POST", "app.do_post", None),
    ("repro.server.app", "ExpFinderService", "evaluate", "app.service", None),
    ("repro.server.app", "ExpFinderService", "topk", "app.service", None),
    ("repro.server.app", "ExpFinderService", "update_graph", "app.service", None),
    # server.wire (+ pattern.parser behind decode_pattern)
    ("repro.server.app", None, "decode_pattern", "wire.decode_pattern", None),
    ("repro.server.app", None, "decode_updates", "wire.decode_updates", None),
    ("repro.server.app", None, "encode_relation", "wire.encode_relation", None),
    ("repro.server.app", None, "encode_ranked", "wire.encode_ranked", None),
    ("repro.server.wire", None, "encode_update", "wire.encode_update", None),
    ("repro.server.wire", None, "decode_updates", "wire.decode_updates", None),
    # server.admission
    ("repro.server.admission", "AdmissionController", "acquire", "admission.acquire", None),
    # server.registry
    ("repro.server.registry", "SnapshotRegistry", "pin", "registry.pin", None),
    ("repro.server.registry", "SnapshotRegistry", "publish", "registry.publish", None),
    ("repro.server.registry", "SnapshotRegistry", "recover", "wal.recover", None),
    ("repro.server.registry", "Epoch", "evaluate", "registry.epoch_evaluate", None),
    ("repro.server.registry", "Epoch", "top_k", "registry.epoch_top_k", None),
    ("repro.server.registry", "Epoch", "candidates", "index.candidates", _candidates),
    ("repro.graph.digraph", "Graph", "copy", "registry.graph_copy", None),
    # engine.cache
    ("repro.server.registry", None, "cache_key", "cache.key", None),
    ("repro.engine.engine", None, "cache_key", "cache.key", None),
    ("repro.engine.cache", "QueryCache", "get", "cache.query_get", _hit),
    ("repro.engine.cache", "RankCache", "get", "cache.rank_get", _hit),
    # graph.frozen / graph.oracle
    ("repro.graph.frozen", "FrozenGraph", "freeze", "frozen.freeze", None),
    ("repro.graph.frozen", "FrozenGraph", "successor_sets", "frozen.prewarm", None),
    ("repro.graph.frozen", "FrozenGraph", "predecessor_sets", "frozen.prewarm", None),
    ("repro.graph.oracle", "DistanceOracle", "build", "oracle.build", _label_entries),
    ("repro.graph.oracle", "DistanceOracle", "fill_rows", "oracle.fill_rows", None),
    # matching
    ("repro.server.registry", None, "match_bounded", "bounded.match", None),
    ("repro.engine.engine", None, "match_bounded", "bounded.match", None),
    ("repro.matching.bounded", None, "frozen_successor_rows", "bounded.rows", _row_entries),
    ("repro.server.registry", None, "match_simulation", "simulation.match", None),
    ("repro.engine.engine", None, "match_simulation", "simulation.match", None),
    # ranking.topk
    ("repro.matching.base", "MatchResult", "result_graph", "topk.result_graph", None),
    ("repro.engine.engine", None, "build_result_graph", "topk.result_graph", None),
    ("repro.ranking.topk", "RankingContext", "__init__", "topk.context", None),
    ("repro.ranking.topk", "RankingContext", "diff_nodes", "topk.refresh", None),
    ("repro.ranking.topk", "RankingContext", "carry_over_from", "topk.refresh", None),
    ("repro.server.registry", None, "bulk_top_k_detail", "topk.select", _ranking),
    ("repro.engine.engine", None, "bulk_top_k_detail", "topk.select", _ranking),
    # server.wal + engine.storage
    ("repro.server.wal", "WriteAheadLog", "append", "wal.append", _frame_bytes),
    ("repro.server.wal", "Checkpointer", "checkpoint", "wal.checkpoint", None),
    ("repro.engine.storage", "GraphStore", "load_graph", "storage.load", None),
    ("repro.engine.storage", "GraphStore", "load_snapshot", "storage.load", None),
    ("repro.graph.io", None, "load_graph", "storage.load", None),
    # engine.engine, incremental, compression (the embedded stack)
    ("repro.engine.engine", "QueryEngine", "update_graph", "engine.update_graph", _delta_pairs),
    ("repro.engine.engine", "QueryEngine", "evaluate_many", "engine.evaluate_many", None),
    ("repro.engine.engine", "QueryEngine", "top_k", "engine.top_k", None),
    ("repro.engine.engine", "QueryEngine", "pin", "engine.pin", None),
    ("repro.engine.engine", "QueryEngine", "compress_graph", "compression.build", None),
    ("repro.engine.engine", None, "decompress_result", "compression.decompress", None),
    (
        "repro.incremental.inc_bounded",
        "IncrementalBoundedSimulation",
        "apply",
        "incremental.apply",
        None,
    ),
    ("repro.incremental.inc_simulation", "IncrementalSimulation", "apply", "incremental.apply", None),
    ("repro.compression.maintain", "MaintainedCompression", "apply", "compression.maintain", None),
)


class Tracer:
    """Install/uninstall the span wrappers and hold the recorded spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: every thread's span list, in first-use order
        self._threads: list[list[list[Any]]] = []
        self._requests = itertools.count(1)
        self._originals: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _state(self) -> tuple[list[list[Any]], list[int]]:
        try:
            return self._local.state  # type: ignore[no-any-return]
        except AttributeError:
            state: tuple[list[list[Any]], list[int]] = ([], [])
            self._local.state = state
            with self._lock:
                self._threads.append(state[0])
            return state

    def wrap(self, name: str, function: Callable[..., Any], probe: Probe | None) -> Callable[..., Any]:
        """``function`` recording one span named ``name`` per call."""
        tracer = self
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            spans, stack = tracer._state()
            parent = stack[-1] if stack else -1
            request = spans[parent][4] if parent >= 0 else next(tracer._requests)
            finish = probe(args) if probe is not None else None
            span = [name, 0.0, 0.0, parent, request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if finish is not None:
                span[5] = finish(result)
            return result

        traced.__name__ = getattr(function, "__name__", name)
        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def install(self) -> None:
        """Patch every target of :data:`PATCHES` (idempotent)."""
        if self._originals:
            return
        for module_name, class_name, attribute, span, probe in PATCHES:
            owner: Any = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            # vars() keeps classmethod objects intact (getattr would bind them)
            original = vars(owner)[attribute]
            if isinstance(original, classmethod):
                patched: Any = classmethod(self.wrap(span, original.__func__, probe))
            else:
                patched = self.wrap(span, original, probe)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, patched)

    def uninstall(self) -> None:
        """Restore every patched attribute; recorded spans are kept."""
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def obey(self, commands: dict[str, Callable[[str], None]]) -> None:
        """The children's command loop: one line in, ``ok`` out.

        ``trace on``, ``trace off`` and ``dump <path>`` are handled here,
        ``commands`` adds the child's own; ``quit`` or end-of-file (the
        benchmark is gone) ends the loop.
        """
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if command == "quit":
                break
            if command == "trace" and argument == "on":
                self.install()
            elif command == "trace":
                self.uninstall()
            elif command == "dump":
                self.dump(argument)
            else:
                commands[command](argument)
            print("ok", flush=True)

    def dump(self, path: str | Path) -> None:
        """Write every thread's spans as JSON (open spans included)."""
        with self._lock:
            threads = [list(spans) for spans in self._threads]
        Path(path).write_text(json.dumps({"threads": threads}))


def load(path: str | Path) -> dict[str, Any]:
    return json.loads(Path(path).read_text())  # type: ignore[no-any-return]


#: Spans that start a request of the measured phase (as opposed to the
#: set-up, checkpointer and recovery spans, which have other roots).
REQUEST_ROOTS = ("app.do_post", "engine.update_graph", "engine.evaluate_many", "engine.top_k")


def aggregate(*traces: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """Per span name: count, total and self time (ms) and summed measures.

    Only closed spans count (a dump taken while the checkpointer thread
    is mid-checkpoint holds an open one).  ``self_ms`` is the duration
    minus the closed children; ``request_self_ms`` is the part of it
    spent below one of :data:`REQUEST_ROOTS`, i.e. inside a request.
    Several dumps (the serving process and the recovered one) aggregate
    into one summary.
    """
    summary: dict[str, dict[str, Any]] = {}
    for spans in (spans for trace in traces for spans in trace["threads"]):
        covered = [0.0] * len(spans)
        roots: list[str] = []
        for name, begin, finish, parent, _request, _measures in spans:
            roots.append(name if parent < 0 else roots[parent])
            if finish and parent >= 0:
                covered[parent] += finish - begin
        for index, (name, begin, finish, _parent, _request, measures) in enumerate(spans):
            if not finish:
                continue
            entry = summary.setdefault(
                name,
                {"count": 0, "total_ms": 0.0, "self_ms": 0.0, "request_self_ms": 0.0, "measures": {}},
            )
            own = (finish - begin - covered[index]) * 1e3
            entry["count"] += 1
            entry["total_ms"] += (finish - begin) * 1e3
            entry["self_ms"] += own
            if roots[index] in REQUEST_ROOTS:
                entry["request_self_ms"] += own
            for key, value in (measures or {}).items():
                entry["measures"][key] = entry["measures"].get(key, 0) + value
    return summary
