"""Drive ``embedded_dynamic``: the in-process engine in a child of its own.

The child (:mod:`.embedded_main`) is the program under test — it receives
the graph file and the operation plan, nothing else — so its peak RSS is
the engine's and not the verifier's.  This side launches it (several
times, for the set-up median), tells it which operations to run, and
checks the digests it reports against a twin graph.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time
from pathlib import Path
from typing import Any

from . import trace as tracing
from . import verify
from .calibrate import SETUP_SAMPLES, Calibrator
from .client import ChildProcess, HarnessError
from .metrics import kernel_edges, latency_summary, percentile, span_metrics
from .workloads import Workload

#: operations per round (10 updates, the batch, the top-K); a round is
#: also a segment: the speed reference is sampled between rounds (see
#: :mod:`.calibrate`)
ROUND = 12
#: the routes the three pairs of every 6-query batch must take
BATCH_ROUTES = ["cache", "cache", "compressed", "compressed", "direct", "direct"]


class EngineProcess(ChildProcess):
    """The ``embedded_main`` child."""

    command_timeout = 170.0  # a ``run`` command executes a whole segment

    def __init__(self, graph_file: Path, plan_file: Path, trace: bool) -> None:
        arguments = ["--graph-file", str(graph_file), "--plan-file", str(plan_file)]
        super().__init__("embedded_main", arguments + (["--trace"] if trace else []))

    def start(self) -> float:
        """Seconds from process start to ``READY`` (load, register, pin, compress)."""
        started = time.perf_counter()
        answer = self.launch()
        if answer != "READY":
            raise HarnessError(f"embedded driver said {answer!r}, not READY")
        return time.perf_counter() - started

    def run_ops(self, first: int, last: int) -> Calibrator:
        """Have the child execute operations ``first..last``, round by round."""
        speed = Calibrator()
        speed.sample()
        for start in range(first, last, ROUND):
            self.command(f"run {start} {min(start + ROUND, last)}")
            speed.sample()
        return speed


def run(workload: Workload, workdir: Path, trace: bool, repeats: int) -> dict[str, Any]:
    """Run ``embedded_dynamic`` once; returns metrics, detail and check counts."""
    graph_file = workdir / "graph.json"
    plan_file = workdir / "plan.json"
    report_file = workdir / "report.json"
    trace_file = workdir / "trace.json"
    ops = workload.streams[0]
    workload.save_graph(graph_file)
    plan_file.write_text(json.dumps({"options": workload.options, "ops": ops}))
    engine = EngineProcess(graph_file, plan_file, trace)
    setups = []
    setup_speed = Calibrator()
    untraced_speed = None
    try:
        for _attempt in range(repeats):
            engine.close()
            setup_speed.sample(SETUP_SAMPLES)
            setups.append(engine.start())
        setup_speed.sample(SETUP_SAMPLES)
        half = len(ops) // 2 if trace else 0
        if trace:
            half -= half % ROUND  # split on a round boundary
            engine.command("trace off")
            untraced_speed = engine.run_ops(0, half)
            engine.command("trace on")
        speed = engine.run_ops(half, len(ops))
        if trace:
            engine.command(f"dump {trace_file}")
        engine.command(f"report {report_file}")
    finally:
        engine.close()
    report = json.loads(report_file.read_text())
    records = report["records"]
    check = verify.Checker()
    _check(workload, records, report["final"], check)

    # every reported time is at the reference speed of its segment (calibrate.py)
    if untraced_speed is not None:
        _scale(records, 0, half, untraced_speed)
    _scale(records, half, len(records), speed)
    measured = records[half:]

    def seconds(kind: str, key: str = "seconds") -> list[float]:
        return [record[key] for record in measured if record["op"] == kind]

    reads = 6 * len(seconds("batch")) + len(seconds("topk"))
    # one caller, no wire: the measured phase is the sum of the API calls
    wall = sum(record["seconds"] for record in measured)
    wall_scaled = sum(record["scaled"] for record in measured)
    updates = seconds("update", "scaled")
    result: dict[str, Any] = {
        "attempted": check.attempted,
        "failed": check.failed,
        "problems": check.problems,
        "detail": {
            "setup_s": setups,
            "speed_factor": {"setup": setup_speed.factor(), "measured": speed.factor()},
            "measured_wall_s": wall,
            "connections": 1,
            "latency": {kind: latency_summary(seconds(kind)) for kind in ("update", "batch", "topk")},
            "compression_ratio": report["compression_ratio"],
        },
    }
    if not trace:
        result["metrics"] = {
            "primary_p50_ms": statistics.median(updates) * 1e3,
            "primary_p90_ms": percentile(updates, 0.90) * 1e3,
            "secondary_p50_ms": statistics.median(seconds("batch", "scaled")) * 1e3,
            "read_qps": reads / wall_scaled,
            "peak_rss_mb": report["peak_rss_mb"],
            "setup_s": statistics.median(setup_speed.scaled(setups)),
        }
        return result
    summary = tracing.aggregate(tracing.load(trace_file))
    values = span_metrics(summary, speed.factor())
    # every freeze here follows an update burst: the engine dropped its snapshot
    values["engine.refreeze_ms"] = values["frozen.freeze_ms"]
    values["compression.ratio"] = report["compression_ratio"]
    for route in ("cache", "compressed", "direct"):
        values[f"engine.route.{route}"] = sum(
            r["routes"].count(route) for r in measured if r["op"] == "batch"
        )
    values.update(
        kernel_edges(kernel for record in measured for kernel in record.get("kernels", ()))
    )
    before = [record["scaled"] for record in records[:half] if record["op"] == "update"]
    values["trace.overhead_ratio"] = (
        statistics.median(updates) / statistics.median(before) if before and updates else 0.0
    )
    result["spans"] = summary
    result["metrics"] = values
    return result


def _scale(records: list[dict[str, Any]], first: int, last: int, speed: Calibrator) -> None:
    """Add ``scaled`` seconds to the records :meth:`EngineProcess.run_ops` produced."""
    for position in range(first, last):
        record = records[position]
        record["scaled"] = record["seconds"] * speed.factor((position - first) // ROUND)


def _check(
    workload: Workload,
    records: list[dict[str, Any]],
    final: dict[str, list[str]],
    check: verify.Checker,
) -> None:
    """Routes of every batch; sampled rounds and the final state against the twin."""
    ops = workload.streams[0]
    smoke = workload.scale == "smoke"
    rng = random.Random(f"verify:{workload.name}:{workload.seed}")
    check.expect(len(records) == len(ops), f"{len(records)} records for {len(ops)} operations")
    batch_positions = [index for index, op in enumerate(ops) if op["op"] == "batch"]
    sample = set(
        batch_positions
        if smoke
        else rng.sample(batch_positions, math.ceil(len(batch_positions) / 10))
    )
    twin = workload.graph.copy()
    for position, (op, record) in enumerate(zip(ops, records)):
        if op["op"] == "update":
            verify.apply_batches(twin, [op["updates"]])
            check.expect(record["seconds"] > 0, "update without a latency")
        elif op["op"] == "batch":
            check.expect(
                record["routes"] == BATCH_ROUTES,
                f"batch took routes {record['routes']}",
            )
            if position in sample:
                for text, got in zip(op["patterns"], record["relations"]):
                    want = verify.expected_relation(twin, text, reference=smoke)
                    check.expect(got == want, "wrong relation in a sampled batch")
        else:
            wanted = position - 1 in sample
            check.expect(
                not wanted or record["ranking"] == verify.expected_ranking(twin, op["pattern"], op["k"]),
                "wrong top-K after a sampled batch",
            )
    # incremental maintenance == recomputation on the final graph
    for text, got in zip(workload.options["pinned"], final["pinned"]):
        check.expect(
            got == verify.expected_relation(twin, text),
            "pinned relation differs from recomputation on the final graph",
        )
    check.expect(
        final["compressed"] == final["direct"],
        "compressed route differs from the direct route",
    )
