"""The query service: epochs + admission + a stdlib HTTP front end.

Layering (each usable on its own):

* :class:`ExpFinderService` — the in-process facade: graph registration,
  epoch-pinned reads, atomic update publishing and admission control.
  Tests and benchmarks drive this
  object directly; its read path is relation-identical to
  :class:`~repro.engine.engine.QueryEngine`.
* :class:`QueryServer` — ``ThreadingHTTPServer`` + JSON around the
  service; one daemon thread per connection, HTTP/1.1 keep-alive.

Endpoints::

    GET  /health                          liveness + graph inventory
    GET  /stats                           registry/admission/request counters
    POST /graphs                          {"name", "graph"} register a graph
    POST /graphs/<name>/evaluate          {"pattern", "budget"?}
    POST /graphs/<name>/batch             {"patterns": [...], "budget"?}
    POST /graphs/<name>/topk              {"pattern", "k", "budget"?}
    POST /graphs/<name>/explain           {"pattern"}
    POST /graphs/<name>/update            {"updates": [...]}

Error mapping: :class:`~repro.errors.AdmissionError` → 429,
:class:`~repro.errors.AdmissionTimeoutError` and
:class:`~repro.errors.BudgetExceededError` → 408,
:class:`~repro.errors.ServiceDegradedError` → 503, any other
:class:`~repro.errors.ReproError` → 400, everything else → 500.
A body that cannot be read as a JSON object is a 400 naming the problem
(bad ``Content-Length`` or one above :data:`MAX_BODY_BYTES` — which also
close the connection, since the unread body would be parsed as the next
request — non-UTF-8 bytes, JSON nested too deeply to parse), and so is an update whose node ids or
attribute names are not JSON scalars: it is refused before the WAL sees it.

Every reply is ``json.dumps`` of the dict the matching
:class:`ExpFinderService` method returned, sent with its status line and
headers in one socket write.

With ``wal_dir`` configured the service is **durable**: every update
batch is appended to a :class:`~repro.server.wal.WriteAheadLog` before
it applies, a debounced :class:`~repro.server.wal.Checkpointer` persists
snapshots behind the publish path, and construction replays any
unapplied WAL suffix over the last checkpoint
(:meth:`SnapshotRegistry.recover`) before the first request is accepted.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

from repro.engine.estimator import QueryBudget
from repro.errors import ReproError, ServerError
from repro.graph.digraph import Graph
from repro.graph.io import graph_from_dict
from repro.server.admission import AdmissionController
from repro.server.registry import SnapshotRegistry
from repro.server.wal import Checkpointer, WriteAheadLog
from repro.server.wire import (
    decode_budget,
    decode_pattern,
    decode_updates,
    encode_ranked,
    encode_relation,
    error_payload,
    error_status,
)


#: Largest request body the handler will buffer.  A registered graph is the
#: biggest legitimate payload (a 20,000-node collaboration graph is ~3 MB
#: of JSON); anything above this is refused before a byte of it is read.
MAX_BODY_BYTES = 64 * 1024 * 1024


@dataclass
class ServiceConfig:
    """Tunables of one service instance (all have serving-safe defaults)."""

    max_inflight: int = 8
    max_queue: int = 16
    queue_timeout: float = 5.0
    cache_capacity: int = 64
    default_budget: QueryBudget | None = None
    oracle: dict[str, Any] | None = field(default=None)
    # Durability plane (all inert while wal_dir is None):
    wal_dir: str | None = None
    fsync: str = "batch"
    checkpoint_every: int = 64
    wal_segment_bytes: int = 4 * 1024 * 1024
    # Inline (synchronous) checkpointing for deterministic tests/sweeps;
    # production keeps the background thread so publishes never block.
    checkpoint_background: bool = True

    def validated(self) -> "ServiceConfig":
        # the same checks the controller applies, surfaced at config time
        # so the CLI can name the offending flag
        AdmissionController(
            max_inflight=self.max_inflight,
            max_queue=self.max_queue,
            queue_timeout=self.queue_timeout,
        )
        if self.default_budget is not None:
            self.default_budget.validate()
        if self.fsync not in ("always", "batch", "none"):
            raise ServerError(
                f"fsync policy must be always, batch or none: {self.fsync!r}"
            )
        if self.checkpoint_every < 1:
            raise ServerError(
                f"checkpoint_every must be >= 1: {self.checkpoint_every}"
            )
        return self


class ExpFinderService:
    """Registry + admission behind one facade.

    Every request evaluates in the request's own thread, against the
    epoch it pinned.
    """

    def __init__(self, config: ServiceConfig | None = None, store: Any = None) -> None:
        self.config = (config or ServiceConfig()).validated()
        self.wal: WriteAheadLog | None = None
        self.checkpointer: Checkpointer | None = None
        self.recovered: dict[str, dict[str, Any]] = {}
        if self.config.wal_dir is not None:
            if store is None:
                # Checkpoints need somewhere to live; co-locate a store
                # under the WAL directory unless the caller brought one.
                from repro.engine.storage import GraphStore

                store = GraphStore(Path(self.config.wal_dir) / "store")
            self.wal = WriteAheadLog(
                self.config.wal_dir,
                fsync=self.config.fsync,
                segment_bytes=self.config.wal_segment_bytes,
            )
        self.registry = SnapshotRegistry(
            store=store, cache_capacity=self.config.cache_capacity, wal=self.wal
        )
        if self.wal is not None:
            self.checkpointer = Checkpointer(
                self.registry,
                self.wal,
                store,
                every_batches=self.config.checkpoint_every,
                background=self.config.checkpoint_background,
            )
            self.registry.attach_checkpointer(self.checkpointer)
            # Crash recovery happens *before* the first request can pin an
            # epoch: replay the unapplied WAL suffix over the last
            # checkpoint of every graph the previous process served.
            self.recovered = self.registry.recover()
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            max_queue=self.config.max_queue,
            queue_timeout=self.config.queue_timeout,
        )
        self._requests_lock = threading.Lock()
        self._requests: dict[str, int] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout: float = 10.0) -> bool:
        """Wait for in-flight and queued requests to finish (SIGTERM path).

        Returns whether the service went quiet within ``timeout``; either
        way the caller proceeds to :meth:`close`, which checkpoints and
        seals the WAL — nothing acknowledged is lost even on a hard exit.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            stats = self.admission.stats()
            if stats["inflight"] == 0 and stats["waiting"] == 0:
                return True
            time.sleep(0.02)
        stats = self.admission.stats()
        return stats["inflight"] == 0 and stats["waiting"] == 0

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            if self.checkpointer is not None:
                # Final checkpoint: recovery after a clean shutdown replays
                # nothing (the WAL suffix past the checkpoint is empty).
                self.checkpointer.close(final_checkpoint=True)
            if self.wal is not None:
                self.wal.close()

    def __enter__(self) -> "ExpFinderService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _count(self, endpoint: str) -> None:
        with self._requests_lock:
            self._requests[endpoint] = self._requests.get(endpoint, 0) + 1

    # ------------------------------------------------------------------
    # graph management
    # ------------------------------------------------------------------
    def register_graph(
        self,
        name: str,
        graph: Graph,
        oracle: dict[str, Any] | None = None,
        replace: bool = False,
    ) -> dict[str, Any]:
        self._count("register")
        epoch = self.registry.register(
            name, graph, oracle=oracle or self.config.oracle, replace=replace
        )
        return {
            "graph": name,
            "epoch": epoch.epoch_id,
            "nodes": epoch.graph.num_nodes,
            "edges": epoch.graph.num_edges,
            "oracle": epoch.oracle is not None,
        }

    def preload(self, name: str) -> dict[str, Any]:
        """Warm-start ``name`` from the store (mmap snapshots, no freeze)."""
        self._count("preload")
        epoch = self.registry.preload(name, oracle=self.config.oracle)
        return {
            "graph": name,
            "epoch": epoch.epoch_id,
            "nodes": epoch.graph.num_nodes,
            "edges": epoch.graph.num_edges,
            "oracle": epoch.oracle is not None,
            "fault_ins": self.registry.counters["fault_ins"],
        }

    def update_graph(self, name: str, payload: dict[str, Any]) -> dict[str, Any]:
        """Apply a wire-format update batch; publish the next epoch."""
        self._count("update")
        updates = decode_updates(payload)
        epoch = self.registry.publish(name, updates)
        return {
            "graph": name,
            "epoch": epoch.epoch_id,
            "graph_version": epoch.graph.version,
            "applied": len(updates),
        }

    # ------------------------------------------------------------------
    # reads (admission-gated, epoch-pinned)
    # ------------------------------------------------------------------
    def evaluate(self, name: str, payload: dict[str, Any]) -> dict[str, Any]:
        self._count("evaluate")
        pattern = decode_pattern(payload)
        budget = decode_budget(payload, default=self.config.default_budget)
        with self.admission.slot():
            with self.registry.pin(name) as epoch:
                result = epoch.evaluate(pattern, budget=budget)
                return {
                    "graph": name,
                    "epoch": epoch.epoch_id,
                    "graph_version": epoch.graph.version,
                    "relation": encode_relation(result.relation),
                    "stats": _json_stats(result.stats),
                }

    def batch(self, name: str, payload: dict[str, Any]) -> dict[str, Any]:
        """Evaluate several patterns against ONE pinned epoch.

        The whole batch sees a single consistent graph version even if
        updates publish mid-batch — that is the point of the pin.
        """
        self._count("batch")
        raw = payload.get("patterns")
        if not isinstance(raw, list) or not raw:
            raise ServerError("request needs a non-empty 'patterns' array")
        patterns = [
            decode_pattern({"pattern": text}, field="pattern") for text in raw
        ]
        budget = decode_budget(payload, default=self.config.default_budget)
        with self.admission.slot():
            with self.registry.pin(name) as epoch:
                results = [
                    epoch.evaluate(pattern, budget=budget) for pattern in patterns
                ]
                return {
                    "graph": name,
                    "epoch": epoch.epoch_id,
                    "graph_version": epoch.graph.version,
                    "results": [
                        {
                            "relation": encode_relation(result.relation),
                            "stats": _json_stats(result.stats),
                        }
                        for result in results
                    ],
                }

    def topk(self, name: str, payload: dict[str, Any]) -> dict[str, Any]:
        self._count("topk")
        pattern = decode_pattern(payload)
        k = payload.get("k", 10)
        if not isinstance(k, int) or k < 1:
            raise ServerError(f"k must be a positive integer (got {k!r})")
        budget = decode_budget(payload, default=self.config.default_budget)
        with self.admission.slot():
            with self.registry.pin(name) as epoch:
                ranked = epoch.top_k(pattern, k, budget=budget)
                return {
                    "graph": name,
                    "epoch": epoch.epoch_id,
                    "graph_version": epoch.graph.version,
                    "experts": encode_ranked(ranked),
                }

    def explain(self, name: str, payload: dict[str, Any]) -> dict[str, Any]:
        self._count("explain")
        pattern = decode_pattern(payload)
        with self.registry.pin(name) as epoch:
            return {"graph": name, **epoch.explain(pattern)}

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def health(self) -> dict[str, Any]:
        """Liveness + durability posture.

        ``status`` flips to ``"degraded"`` when any graph serves a stale
        epoch after a failed rebuild; with a WAL attached the payload
        carries per-graph replay lag (``appended_lsn - applied_lsn``) so
        operators can see exactly how far serving trails durability.
        """
        degraded = self.registry.degraded
        payload: dict[str, Any] = {
            "status": "degraded" if degraded else "ok",
            "graphs": self.registry.graphs(),
        }
        if self.wal is not None:
            wal_status = self.registry.wal_status()
            payload["wal"] = {
                "last_lsn": wal_status["wal"]["last_lsn"],
                "graphs": wal_status["graphs"],
            }
        return payload

    def stats(self) -> dict[str, Any]:
        with self._requests_lock:
            requests = dict(self._requests)
        stats: dict[str, Any] = {
            "registry": self.registry.stats(),
            "admission": self.admission.stats(),
            "requests": requests,
        }
        if self.wal is not None:
            stats["wal"] = self.registry.wal_status()
        return stats


def _json_stats(stats: dict[str, Any]) -> dict[str, Any]:
    """Evaluation stats restricted to JSON-serializable values."""
    safe: dict[str, Any] = {}
    for key, value in stats.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            safe[key] = value
        elif isinstance(value, dict):
            safe[key] = _json_stats(value)
    return safe


class _Handler(BaseHTTPRequestHandler):
    """Thin JSON adapter; all logic lives in :class:`ExpFinderService`."""

    protocol_version = "HTTP/1.1"
    # A reply is one write, but a body of several segments would still
    # hold its last partial segment back until the earlier ones are ACKed.
    disable_nagle_algorithm = True
    service: ExpFinderService  # installed by QueryServer on the class

    # The default handler logs every request to stderr; a load benchmark
    # issuing thousands of requests must not pay terminal I/O for each.
    def log_message(self, format: str, *args: Any) -> None:
        pass

    # ------------------------------------------------------------------
    def do_GET(self) -> None:
        try:
            if self.path == "/health":
                self._reply(200, self.service.health())
            elif self.path == "/stats":
                self._reply(200, self.service.stats())
            else:
                self._reply(404, {"error": "NotFound", "message": self.path})
        except Exception as exc:
            self._reply(error_status(exc), error_payload(exc))

    def do_POST(self) -> None:
        try:
            payload = self._read_json()
            self._reply(200, self._route_post(payload))
        except Exception as exc:
            self._reply(error_status(exc), error_payload(exc))

    # ------------------------------------------------------------------
    def _route_post(self, payload: dict[str, Any]) -> dict[str, Any]:
        parts = [part for part in self.path.split("/") if part]
        if parts == ["graphs"]:
            return self._register(payload)
        if len(parts) == 3 and parts[0] == "graphs":
            name, action = parts[1], parts[2]
            service = self.service
            if action == "evaluate":
                return service.evaluate(name, payload)
            if action == "batch":
                return service.batch(name, payload)
            if action == "topk":
                return service.topk(name, payload)
            if action == "explain":
                return service.explain(name, payload)
            if action == "update":
                return service.update_graph(name, payload)
        raise ServerError(f"no such endpoint: POST {self.path}")

    def _register(self, payload: dict[str, Any]) -> dict[str, Any]:
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise ServerError("request needs a non-empty string field 'name'")
        if "graph" in payload:
            try:
                graph = graph_from_dict(payload["graph"])
            except ReproError:
                raise
            except Exception as exc:
                raise ServerError(f"malformed graph payload: {exc}") from exc
            return self.service.register_graph(
                name, graph, replace=bool(payload.get("replace", False))
            )
        if payload.get("preload"):
            return self.service.preload(name)
        raise ServerError(
            "register needs either a 'graph' object or 'preload': true"
        )

    # ------------------------------------------------------------------
    def _read_json(self) -> dict[str, Any]:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
            if length < 0:
                raise ValueError(header)
        except ValueError:
            # However long the body really is, it is still on the socket.
            self.close_connection = True
            raise ServerError(
                f"Content-Length must be a non-negative integer (got {header!r})"
            ) from None
        if length > MAX_BODY_BYTES:
            # Refused unread: buffering it is the harm, and what is left on
            # the socket would otherwise be parsed as the next request.
            self.close_connection = True
            raise ServerError(
                f"request body too large: Content-Length {length} exceeds "
                f"the {MAX_BODY_BYTES}-byte limit"
            )
        if length == 0:
            raise ServerError("request body must be a JSON object")
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except UnicodeDecodeError as exc:
            raise ServerError(f"request body is not UTF-8: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ServerError(f"request body is not valid JSON: {exc}") from exc
        except RecursionError:
            raise ServerError("request body is nested too deeply to parse") from None
        if not isinstance(payload, dict):
            raise ServerError("request body must be a JSON object")
        return payload

    def _reply(self, status: int, payload: dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        # Explicit length keeps HTTP/1.1 keep-alive working (no chunking),
        # which the load generator relies on for steady connections.
        lines = [
            f"{self.protocol_version} {status} {self.responses[status][0]}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        if self.close_connection:
            lines.append("Connection: close")
        head = "\r\n".join(lines) + "\r\n\r\n"
        # Status line, headers and body leave in one write: one syscall,
        # and the peer never waits on a second segment for a small reply.
        self.wfile.write(head.encode("latin-1") + body)


class QueryServer:
    """``ThreadingHTTPServer`` wrapper with a background serve thread.

    ``port=0`` binds an ephemeral port (tests); :attr:`address` reports
    the bound ``(host, port)``.  ``close()`` shuts the socket down and
    closes the service (idempotent).
    """

    def __init__(
        self,
        service: ExpFinderService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        handler = type("BoundHandler", (_Handler,), {"service": service})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None
        self._serving = False
        self._closed = False

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "QueryServer":
        """Serve in a daemon thread; returns immediately."""
        if self._thread is None:
            self._serving = True
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="expfinder-serve",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI foreground path)."""
        self._serving = True
        self._httpd.serve_forever()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            # shutdown() blocks on the serve loop's exit handshake; if the
            # loop never started there is nothing to hand-shake with.
            if self._serving:
                self._httpd.shutdown()
            self._httpd.server_close()
            if self._thread is not None:
                self._thread.join(timeout=5)
            self.service.close()

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
