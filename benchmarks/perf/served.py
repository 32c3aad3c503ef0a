"""Drive one served workload: set-ups, warm-up, measured phase, recovery, checks.

The service runs in a child process (:mod:`.server_main`); this process
generates the load over at most ``nproc`` closed-loop keep-alive
connections, one thread each.  Every loop is closed — a connection sends
its next request only after the previous reply — and issues a fixed list
of operations, so work counts repeat exactly.  Replies are checked after
the measured phase, never inside a timed window.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from . import trace as tracing
from . import verify
from .calibrate import SETUP_SAMPLES, Calibrator
from .client import Connection, HarnessError, ServerProcess
from .metrics import kernel_edges, latency_summary, percentile, span_metrics
from .workloads import GRAPH_NAME, Workload

_RELATION = b'"relation": '
_STATS = b', "stats": '
#: A timed phase runs as this many back-to-back segments, with the speed
#: reference sampled between them (see :mod:`.calibrate`).
SEGMENTS = 24


@dataclass
class Reply:
    """One completed request, parsed outside the timed window."""

    op: dict[str, Any]
    connection: int
    status: int
    seconds: float
    size: int
    #: the reply object without its relation
    head: dict[str, Any]
    #: SHA-256 of the raw relation bytes (evaluate replies only)
    relation: str | None = None
    #: latency at the reference speed (set once its segment's speed is known)
    scaled: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == 200


def request_of(op: dict[str, Any]) -> bytes:
    """The encoded HTTP request for one operation."""
    if op["op"] == "evaluate":
        payload: dict[str, Any] = {"pattern": op["pattern"]}
    elif op["op"] == "topk":
        payload = {"pattern": op["pattern"], "k": op["k"]}
    else:
        payload = {"updates": op["updates"]}
    action = "update" if op["op"] == "update" else op["op"]
    return Connection.encode("POST", f"/graphs/{GRAPH_NAME}/{action}", payload)


def parse_reply(
    op: dict[str, Any], body: bytes, relations: dict[str, bytes]
) -> tuple[dict[str, Any], str | None]:
    """``(reply without relation, raw relation digest)``.

    An evaluate reply is mostly relation (up to ~120 KB).  Decoding it
    holds this process's interpreter lock while the *other* connection
    may be waiting to read its own reply, which would leak generator
    time into that connection's latency.  So the relation bytes are only
    hashed (hashlib releases the lock) and kept once per distinct digest
    for the canonical check later; the small head and ``stats`` tail are
    decoded now.  A reply laid out differently falls back to a full parse.
    """
    if op["op"] != "evaluate":
        return json.loads(body), None
    start, end = body.find(_RELATION), body.rfind(_STATS)
    try:
        if start < 0 or end < start:
            raise ValueError("unexpected reply layout")
        head = json.loads(body[:start].rstrip(b", ") + b"}")
        head["stats"] = json.loads(b"{" + body[end + 2 :])["stats"]
        raw = body[start + len(_RELATION) : end]
    except ValueError:
        head = json.loads(body)
        raw = json.dumps(head.pop("relation", None)).encode("utf-8")
    digest = hashlib.sha256(raw).hexdigest()
    relations.setdefault(digest, raw)
    return head, digest


class Phase:
    """One closed-loop phase: a thread and a connection per stream."""

    def __init__(self, port: int, relations: dict[str, bytes], recovered: bool = False) -> None:
        self.port = port
        self.relations = relations
        #: replies of the service restarted after the crash (epochs restart at 0)
        self.recovered = recovered
        self.replies: list[Reply] = []
        #: wall time of the phase, as measured and at the reference speed
        self.wall = 0.0
        self.wall_scaled = 0.0
        self.speed = Calibrator()
        self._errors: list[BaseException] = []

    def _drive(
        self,
        index: int,
        ops: list[dict[str, Any]],
        barrier: threading.Barrier,
        stop: threading.Event,
        out: list[Reply],
    ) -> None:
        connection = Connection(self.port)
        try:
            encoded: dict[int, bytes] = {}
            for op in ops:
                if id(op) not in encoded:
                    encoded[id(op)] = request_of(op)
            # connect before the start line so no request pays the handshake
            connection.request("GET", "/health")
            barrier.wait()
            for op in ops:
                if stop.is_set():  # another connection failed, or Ctrl-C
                    break
                status, body, seconds = connection.send(encoded[id(op)])
                if status == 200:
                    head, digest = parse_reply(op, body, self.relations)
                else:
                    head, digest = {"error": body.decode("utf-8", "replace")[:200]}, None
                out.append(Reply(op, index, status, seconds, len(body), head, digest))
        except BaseException as exc:  # re-raised by run() on the main thread
            self._errors.append(exc)
            barrier.abort()
        finally:
            connection.close()

    def run_segments(self, streams: list[list[dict[str, Any]]]) -> "Phase":
        """:meth:`run` over contiguous slices of every stream.

        All connections stop at a segment's end, the speed reference is
        sampled, and the next segment starts them together again.
        """
        self.speed.sample()
        segments: list[tuple[int, float]] = []  # first reply and wall time of each
        for index in range(SEGMENTS):
            part = [
                ops[len(ops) * index // SEGMENTS : len(ops) * (index + 1) // SEGMENTS]
                for ops in streams
            ]
            if any(part):
                before = self.wall
                segments.append((len(self.replies), 0.0))
                self.run(part)
                segments[-1] = (segments[-1][0], self.wall - before)
                self.speed.sample()
        for segment, (first, wall) in enumerate(segments):
            factor = self.speed.factor(segment)
            last = segments[segment + 1][0] if segment + 1 < len(segments) else len(self.replies)
            for reply in self.replies[first:last]:
                reply.scaled = reply.seconds * factor
            self.wall_scaled += wall * factor
        return self

    def run(self, streams: list[list[dict[str, Any]]]) -> "Phase":
        """Run one closed loop per stream, started together; wall time is
        from the common start to the last reply."""
        barrier = threading.Barrier(len(streams) + 1)
        stop = threading.Event()
        outs: list[list[Reply]] = [[] for _ in streams]
        threads = [
            threading.Thread(target=self._drive, args=(index, ops, barrier, stop, outs[index]))
            for index, ops in enumerate(streams)
        ]
        for thread in threads:
            thread.start()
        try:
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                pass
            started = time.perf_counter()
            for thread in threads:
                thread.join()
            self.wall += time.perf_counter() - started
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        if self._errors:
            raise self._errors[0]
        self.replies.extend(reply for out in outs for reply in out)
        return self

    def latencies(
        self, kind: str, route: str | None = None, scaled: bool = False
    ) -> list[float]:
        """Latencies of the OK replies of one kind, raw or at the reference speed."""
        return [
            reply.scaled if scaled else reply.seconds
            for reply in self.replies
            if reply.ok
            and reply.op["op"] == kind
            and (route is None or reply.head["stats"]["route"] == route)
        ]


def _get_json(port: int, path: str) -> dict[str, Any]:
    connection = Connection(port)
    try:
        status, body, _seconds = connection.request("GET", path)
    finally:
        connection.close()
    if status != 200:
        raise HarnessError(f"GET {path} answered {status}")
    return json.loads(body)  # type: ignore[no-any-return]


class ServedRun:
    """One run of one served workload (see :func:`run`)."""

    def __init__(self, workload: Workload, workdir: Path, trace: bool, repeats: int) -> None:
        self.workload = workload
        self.workdir = workdir
        self.trace = trace
        #: set-ups per run, and crash restarts (two more: a restart is the
        #: whole of the mixed workload's secondary metric); medians are reported
        self.repeats = repeats
        self.restarts = repeats + 2 if repeats > 1 else 1
        self.check = verify.Checker()
        self.relations: dict[str, bytes] = {}
        self._canonical: dict[str, str] = {}
        self._pairs: dict[str, int] = {}
        self.graph_file = workdir / "graph.json"
        self.server: ServerProcess | None = None
        self.dumps: list[Path] = []
        self.detail: dict[str, Any] = {}

    @property
    def durable(self) -> bool:
        return bool(self.workload.options.get("wal"))

    # ------------------------------------------------------------------
    # process lifecycle
    # ------------------------------------------------------------------
    def _start(self, wal_dir: Path | None, trace: bool = False) -> float:
        self.server = ServerProcess(self.graph_file, self.workload.options, wal_dir, trace)
        return self.server.start()

    def _stop(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    def _dump_trace(self) -> None:
        assert self.server is not None
        path = self.workdir / f"trace{len(self.dumps)}.json"
        self.server.command(f"dump {path}")
        self.dumps.append(path)

    # ------------------------------------------------------------------
    def run(self) -> dict[str, Any]:
        try:
            return self._run()
        finally:
            self._stop()

    def _run(self) -> dict[str, Any]:
        workload = self.workload
        workload.save_graph(self.graph_file)
        setups = []
        setup_speed = Calibrator()
        wal_dir = None
        for attempt in range(self.repeats):
            self._stop()
            wal_dir = self.workdir / f"wal{attempt}" if self.durable else None
            setup_speed.sample(SETUP_SAMPLES)
            setups.append(self._start(wal_dir, self.trace))
        setup_speed.sample(SETUP_SAMPLES)
        setup_s = statistics.median(setup_speed.scaled(setups))
        server = self.server
        assert server is not None
        if self.trace:
            # the set-up spans are recorded; warm-up and the untraced half
            # of the measured phase run with the wrappers removed
            server.command("trace off")
        if workload.warmup:
            warm = Phase(server.port, self.relations).run([workload.warmup])
            for reply in warm.replies:
                self.check.expect(reply.ok, f"warm-up {reply.op['op']} answered {reply.status}")

        streams = workload.streams
        untraced = None
        if self.trace:
            # contiguous halves: update batches are only valid in order
            untraced = Phase(server.port, self.relations).run_segments(
                [ops[: len(ops) // 2] for ops in streams]
            )
            server.command("trace on")
            measured = Phase(server.port, self.relations).run_segments(
                [ops[len(ops) // 2 :] for ops in streams]
            )
        else:
            measured = Phase(server.port, self.relations).run_segments(streams)
        stats = _get_json(server.port, "/stats")
        peak_rss = server.peak_rss_mb()
        if self.trace:
            self._dump_trace()

        phases = [phase for phase in (untraced, measured) if phase is not None]
        recoveries: list[float] = []
        recovery_speed = Calibrator()
        if self.durable:
            assert wal_dir is not None
            recoveries = self._crash_and_recover(wal_dir, phases, recovery_speed)
        self._stop()
        self._check_replies(phases)
        self._check_answers(phases)

        # every reported time is at the reference speed (see calibrate.py)
        primary_kind = "update" if self.durable else "evaluate"
        primary = measured.latencies(primary_kind, scaled=True)
        if self.durable:
            secondary_p50 = statistics.median(recovery_speed.scaled(recoveries)) * 1e3
        else:
            topk = measured.latencies("topk", scaled=True)
            secondary_p50 = statistics.median(topk) * 1e3 if topk else 0.0
        reads = [
            reply for reply in measured.replies if reply.ok and reply.op["op"] != "update"
        ]
        self.detail.update(
            {
                "setup_s": setups,
                "recovery_s": recoveries,
                "speed_factor": {
                    "setup": setup_speed.factor(),
                    "measured": measured.speed.factor(),
                    "recovery": recovery_speed.factor() if recoveries else None,
                },
                "measured_wall_s": measured.wall,
                "connections": len(streams),
                "latency": {
                    f"{kind}{'.' + route if route else ''}": latency_summary(
                        measured.latencies(kind, route)
                    )
                    for kind, route in (
                        ("evaluate", None),
                        ("evaluate", "cache"),
                        ("evaluate", "direct"),
                        ("topk", None),
                        ("update", None),
                    )
                },
                "registry": stats["registry"]["counters"],
                "admission": stats["admission"],
            }
        )
        result: dict[str, Any] = {
            "attempted": self.check.attempted,
            "failed": self.check.failed,
            "problems": self.check.problems,
            "detail": self.detail,
        }
        if not self.trace:
            result["metrics"] = {
                "primary_p50_ms": statistics.median(primary) * 1e3 if primary else 0.0,
                "primary_p90_ms": percentile(primary, 0.90) * 1e3 if primary else 0.0,
                "secondary_p50_ms": secondary_p50,
                "read_qps": len(reads) / measured.wall_scaled,
                "peak_rss_mb": peak_rss,
                "setup_s": setup_s,
            }
            return result
        assert untraced is not None
        summary = tracing.aggregate(*(tracing.load(path) for path in self.dumps))
        result["spans"] = summary
        result["metrics"] = self._layer_metrics(summary, stats, untraced, measured, primary_kind)
        return result

    # ------------------------------------------------------------------
    # durability: clean restart, fixed tail, SIGKILL, timed restarts
    # ------------------------------------------------------------------
    def _crash_and_recover(
        self, wal_dir: Path, phases: list[Phase], speed: Calibrator
    ) -> list[float]:
        """Median-able ``SIGKILL`` → ``/health`` times over a fixed WAL suffix.

        The background checkpointer debounces against a busy writer, so
        how much of the measured phase is checkpointed when it ends
        depends on timing.  A clean shutdown writes the final checkpoint;
        the restarted service then takes the fixed tail (shorter than a
        checkpoint interval) and is killed, which leaves every recovery
        exactly the tail to replay.
        """
        workload = self.workload
        self._stop()
        self._start(wal_dir)
        assert self.server is not None
        tail = Phase(self.server.port, self.relations).run([workload.tail])
        for reply in tail.replies:
            self.check.expect(reply.ok, f"tail publish answered {reply.status}")
        recoveries = []
        for attempt in range(self.restarts):
            self.server.kill()
            last = attempt == self.restarts - 1
            speed.sample(SETUP_SAMPLES)
            recoveries.append(self._start(wal_dir, trace=self.trace and last))
            speed.sample(SETUP_SAMPLES)
            self.check.expect(
                self.server.replayed == len(workload.tail),
                f"recovery replayed {self.server.replayed} batches, "
                f"expected {len(workload.tail)}",
            )
        # what the recovered service answers belongs to the last epoch
        phases.append(
            Phase(self.server.port, self.relations, recovered=True).run([workload.warmup])
        )
        self.detail["replayed_batches"] = self.server.replayed
        if self.trace:
            self._dump_trace()
        return recoveries

    # ------------------------------------------------------------------
    # checks (all untimed)
    # ------------------------------------------------------------------
    def _check_replies(self, phases: list[Phase]) -> None:
        """Status, route, one digest per (epoch, pattern), monotone epochs."""
        name = self.workload.name
        want_route = {"serve_cold": "direct", "serve_hot": "cache"}.get(name)
        seen: dict[tuple[bool, int, str], str] = {}
        for phase in phases:
            last_epoch: dict[int, int] = {}
            for reply in phase.replies:
                kind = reply.op["op"]
                ok = reply.ok
                why = f"{kind} answered {reply.status}: {reply.head.get('error', '')}"
                if ok and kind == "evaluate":
                    route = reply.head["stats"]["route"]
                    if want_route is not None and route != want_route:
                        ok, why = False, f"evaluate took route {route!r}, not {want_route!r}"
                    key = (phase.recovered, reply.head["epoch"], reply.op["pattern"])
                    assert reply.relation is not None
                    if seen.setdefault(key, reply.relation) != reply.relation:
                        ok, why = False, f"two relations for one pattern at epoch {key[1]}"
                if ok and "epoch" in reply.head:
                    epoch = reply.head["epoch"]
                    if epoch < last_epoch.get(reply.connection, epoch):
                        ok, why = False, f"epoch went backwards on connection {reply.connection}"
                    last_epoch[reply.connection] = epoch
                self.check.expect(ok, why)

    def canonical(self, digest: str) -> str:
        """Canonical digest (and pair count) of a relation kept by raw digest."""
        if digest not in self._canonical:
            relation = json.loads(self.relations[digest])
            self._canonical[digest] = verify.canonical_digest(relation)
            self._pairs[digest] = sum(len(nodes) for nodes in relation["sets"].values())
        return self._canonical[digest]

    def _check_answers(self, phases: list[Phase]) -> None:
        """A seeded >= 10% sample of distinct queries against the twin graph."""
        workload = self.workload
        smoke = workload.scale == "smoke"
        rng = random.Random(f"verify:{workload.name}:{workload.seed}")
        twin = workload.graph.copy()
        if self.durable:
            self._check_epochs(twin, phases, rng, smoke)
            return
        replies = [reply for phase in phases for reply in phase.replies if reply.ok]
        distinct: dict[tuple[str, str], Reply] = {}
        for reply in replies:
            distinct.setdefault((reply.op["op"], reply.op["pattern"]), reply)
        for kind in ("evaluate", "topk"):
            pool = sorted(key for key in distinct if key[0] == kind)
            if not pool:
                continue
            sample = pool if smoke else rng.sample(pool, math.ceil(len(pool) / 10))
            for key in sample:
                self._check_one(twin, distinct[key], smoke)

    def _check_one(self, twin: Any, reply: Reply, reference: bool) -> None:
        text = reply.op["pattern"]
        if reply.op["op"] == "evaluate":
            assert reply.relation is not None
            got = self.canonical(reply.relation)
            want = verify.expected_relation(twin, text, reference)
        else:
            got = verify.canonical_digest(reply.head["experts"])
            want = verify.expected_ranking(twin, text, reply.op["k"])
        self.check.expect(got == want, f"wrong {reply.op['op']} answer for {reply.op['stratum']}")

    def _check_epochs(
        self, twin: Any, phases: list[Phase], rng: random.Random, smoke: bool
    ) -> None:
        """Twin replay: sampled epochs, the recovered state, graph_version.

        Epoch ``e`` of the first service is the graph after ``e`` batches.
        The recovered service numbers its epochs from 0 again, so its
        replies are matched by content: the twin after every batch.
        """
        workload = self.workload
        batches = [
            op["updates"] for op in workload.streams[0] + workload.tail if op["op"] == "update"
        ]
        by_epoch: dict[int, list[Reply]] = {}
        recovered = []
        for phase in phases:
            for reply in phase.replies:
                if not reply.ok or reply.op["op"] != "evaluate":
                    continue
                if phase.recovered:
                    recovered.append(reply)
                else:
                    by_epoch.setdefault(reply.head["epoch"], []).append(reply)
        in_run = sorted(by_epoch)
        sample = in_run if smoke else rng.sample(in_run, math.ceil(len(in_run) / 10))
        applied = 0
        for epoch in sorted(sample):
            verify.apply_batches(twin, batches[applied:epoch])
            applied = epoch
            checked = set()
            for reply in by_epoch[epoch]:
                if reply.op["pattern"] in checked or reply.relation is None:
                    continue
                checked.add(reply.op["pattern"])
                self._check_one(twin, reply, smoke)
        verify.apply_batches(twin, batches[applied:])
        version = twin.copy().version
        self.check.expect(bool(recovered), "no reply from the recovered service")
        for reply in recovered:
            self.check.expect(
                reply.head["graph_version"] == version,
                f"recovered graph_version {reply.head['graph_version']} != twin {version}",
            )
            self._check_one(twin, reply, smoke)

    # ------------------------------------------------------------------
    def _layer_metrics(
        self,
        summary: dict[str, dict[str, Any]],
        stats: dict[str, Any],
        untraced: Phase,
        traced: Phase,
        primary_kind: str,
    ) -> dict[str, float]:
        values = span_metrics(summary, traced.speed.factor())
        ok = [reply for reply in traced.replies if reply.ok]
        values["app.reply_bytes"] = statistics.fmean(r.size for r in ok) if ok else 0.0
        values["admission.rejected"] = stats["admission"]["rejected"]
        values["admission.peak_inflight"] = stats["admission"]["peak_inflight"]
        for counter in ("epochs_published", "freezes", "epochs_retired"):
            values[f"registry.{counter}"] = stats["registry"]["counters"][counter]
        evaluated = [reply for reply in ok if reply.op["op"] == "evaluate"]
        values.update(
            kernel_edges(
                kernel
                for reply in evaluated
                for kernel in reply.head["stats"].get("kernels", {}).values()
            )
        )
        pairs = 0
        for reply in evaluated:
            assert reply.relation is not None
            self.canonical(reply.relation)
            pairs += self._pairs[reply.relation]
        values["bounded.relation_pairs"] = pairs
        wal = stats.get("wal", {})
        values["wal.fsyncs"] = wal.get("wal", {}).get("fsyncs", 0)
        values["wal.checkpoints"] = wal.get("checkpointer", {}).get("checkpoints", 0)
        values["wal.replay_batches"] = self.detail.get("replayed_batches", 0)
        before = untraced.latencies(primary_kind, scaled=True)
        after = traced.latencies(primary_kind, scaled=True)
        values["trace.overhead_ratio"] = (
            statistics.median(after) / statistics.median(before) if before and after else 0.0
        )
        return values


def run(workload: Workload, workdir: Path, trace: bool, repeats: int) -> dict[str, Any]:
    """Run a served workload once; returns metrics, detail and check counts."""
    return ServedRun(workload, workdir, trace, repeats).run()
