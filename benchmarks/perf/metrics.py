"""Metric names, units and bounds — the single table ``BENCHMARK.json`` mirrors.

The driver's contract wants every end-to-end metric on every workload and
never zero, so the gated names are *roles*; :data:`ROLES` says which
operation fills each role on each workload.  Everything else a workload
measures (the other operation kinds, p95/p99, counts) is printed and
stored under ``detail`` without a bound.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Any, Iterable, Sequence

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = ROOT / "BENCHMARK.json"

#: ``(name, unit, better, bound)``.  The bound is the share of the
#: parent's median by which the metric may worsen before ``compare`` (and
#: the driver) call it a regression.  The bounds are what the reference
#: box allows, not what one would wish: across ten seeds the scaled times
#: spread 5-15% (interquartile range over median; 15-25% unscaled) and the
#: mixed workload's peak RSS, a transient of copies and checkpoint buffers,
#: up to 13%, so every bound sits at the contract's ceiling.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("primary_p50_ms", "ms", "lower", 0.25),
    ("primary_p90_ms", "ms", "lower", 0.25),
    ("secondary_p50_ms", "ms", "lower", 0.25),
    ("read_qps", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
)

#: What each role measures per workload (latency is request send to last
#: reply byte for served workloads, the API call for the embedded one).
ROLES: dict[str, dict[str, str]] = {
    "serve_cold": {
        "primary": "POST /evaluate, stats.route == direct (epoch-cache miss)",
        "secondary": "POST /topk, rank-cache miss",
    },
    "serve_hot": {
        "primary": "POST /evaluate, stats.route == cache (epoch-cache hit)",
        "secondary": "POST /topk, rank-cache hit",
    },
    "serve_mixed_durable": {
        "primary": "POST /update send to ack (new epoch visible on ack)",
        "secondary": "SIGKILL, restart on the same wal_dir, first /health 200 "
        "(median of the restarts of one run)",
    },
    "embedded_dynamic": {
        "primary": "QueryEngine.update_graph of one edge primitive",
        "secondary": "QueryEngine.evaluate_many of the 6-query batch after each burst",
    },
}

WORKLOAD_WHY: dict[str, str] = {
    "serve_cold": (
        "Every pattern is distinct, so each request misses the epoch caches: index, "
        "row kernels, oracle and ranking do the work; HTTP, wire and cache must not "
        "show. primary=evaluate miss, secondary=topk miss."
    ),
    "serve_hot": (
        "A 10-pattern working set served from the epoch caches: evaluation is "
        "bypassed, so HTTP, JSON, wire, admission, pin and cache lookup are the "
        "request. primary=evaluate hit, secondary=topk hit."
    ),
    "serve_mixed_durable": (
        "WAL-backed publishes, each followed by 4 misses and 4 hits on the new epoch: "
        "registry publish, WAL, checkpoints, cache invalidation, recovery. "
        "primary=publish ack, secondary=crash recovery."
    ),
    "embedded_dynamic": (
        "The in-process QueryEngine under single-edge updates with pinned queries and "
        "maintained compression: the paper's incremental path. primary=update_graph, "
        "secondary=evaluate_many batch."
    ),
}

#: ``(name, unit, better)`` of every per-layer metric of a ``--trace`` run.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("app.http_self_ms", "ms", "lower"),
    ("app.service_self_ms", "ms", "lower"),
    ("app.reply_bytes", "count", "lower"),
    ("wire.decode_pattern_ms", "ms", "lower"),
    ("wire.encode_relation_ms", "ms", "lower"),
    ("wire.encode_ranked_ms", "ms", "lower"),
    ("wire.decode_updates_ms", "ms", "lower"),
    ("wire.encode_update_ms", "ms", "lower"),
    ("admission.acquire_ms", "ms", "lower"),
    ("admission.rejected", "count", "lower"),
    ("admission.peak_inflight", "count", "lower"),
    ("registry.pin_ms", "ms", "lower"),
    ("registry.epoch_evaluate_self_ms", "ms", "lower"),
    ("registry.publish_ms", "ms", "lower"),
    ("registry.publish_self_ms", "ms", "lower"),
    ("registry.graph_copy_ms", "ms", "lower"),
    ("registry.epochs_published", "count", "lower"),
    ("registry.freezes", "count", "lower"),
    ("registry.epochs_retired", "count", "higher"),
    ("cache.key_ms", "ms", "lower"),
    ("cache.query_get_ms", "ms", "lower"),
    ("cache.query_hit_ratio", "ratio", "higher"),
    ("cache.rank_hit_ratio", "ratio", "higher"),
    ("index.candidates_ms", "ms", "lower"),
    ("index.candidates_per_query", "count", "lower"),
    ("frozen.freeze_ms", "ms", "lower"),
    ("frozen.prewarm_ms", "ms", "lower"),
    ("oracle.build_ms", "ms", "lower"),
    ("oracle.fill_rows_ms", "ms", "lower"),
    ("oracle.label_entries", "count", "lower"),
    ("bounded.match_ms", "ms", "lower"),
    ("bounded.rows_ms", "ms", "lower"),
    ("bounded.refine_self_ms", "ms", "lower"),
    ("simulation.match_ms", "ms", "lower"),
    ("bounded.kernel_edges.per_source", "count", "lower"),
    ("bounded.kernel_edges.bitset", "count", "lower"),
    ("bounded.kernel_edges.oracle", "count", "lower"),
    ("bounded.row_entries", "count", "lower"),
    ("bounded.relation_pairs", "count", "lower"),
    ("topk.context_ms", "ms", "lower"),
    ("topk.select_ms", "ms", "lower"),
    ("topk.refresh_ms", "ms", "lower"),
    ("topk.details_scored", "count", "lower"),
    ("topk.pruned_by_bound", "count", "higher"),
    ("wal.append_ms", "ms", "lower"),
    ("wal.bytes_per_batch", "count", "lower"),
    ("wal.fsyncs", "count", "lower"),
    ("wal.checkpoints", "count", "lower"),
    ("wal.checkpoint_ms", "ms", "lower"),
    ("wal.recover_ms", "ms", "lower"),
    ("wal.replay_batches", "count", "lower"),
    ("storage.load_ms", "ms", "lower"),
    ("engine.update_graph_ms", "ms", "lower"),
    ("engine.evaluate_many_ms", "ms", "lower"),
    ("engine.refreeze_ms", "ms", "lower"),
    ("engine.route.cache", "count", "higher"),
    ("engine.route.compressed", "count", "higher"),
    ("engine.route.direct", "count", "lower"),
    ("incremental.apply_ms", "ms", "lower"),
    ("incremental.delta_pairs", "count", "lower"),
    ("compression.build_ms", "ms", "lower"),
    ("compression.maintain_ms", "ms", "lower"),
    ("compression.ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)

#: Per-layer metrics read straight off the span summary:
#: ``metric -> (kind, span names..., [measure])``.  ``mean``/``self`` divide
#: the summed (self) time of the named spans by the count of the *last*
#: one (``total`` does not divide); ``sum`` adds a probe's measure; ``per``
#: divides it by the count.
SPAN_METRICS: dict[str, tuple[str, ...]] = {
    "app.http_self_ms": ("self", "app.do_post"),
    "app.service_self_ms": ("self", "app.service"),
    "wire.decode_pattern_ms": ("mean", "wire.decode_pattern"),
    "wire.encode_relation_ms": ("mean", "wire.encode_relation"),
    "wire.encode_ranked_ms": ("mean", "wire.encode_ranked"),
    "wire.decode_updates_ms": ("mean", "wire.decode_updates"),
    "wire.encode_update_ms": ("mean", "wire.encode_update"),
    "admission.acquire_ms": ("mean", "admission.acquire"),
    "registry.pin_ms": ("mean", "registry.pin"),
    "registry.epoch_evaluate_self_ms": ("self", "registry.epoch_evaluate"),
    "registry.publish_ms": ("mean", "registry.publish"),
    "registry.publish_self_ms": ("self", "registry.publish"),
    "registry.graph_copy_ms": ("mean", "registry.graph_copy"),
    "cache.key_ms": ("mean", "cache.key"),
    "cache.query_get_ms": ("mean", "cache.query_get"),
    "cache.query_hit_ratio": ("per", "cache.query_get", "hits"),
    "cache.rank_hit_ratio": ("per", "cache.rank_get", "hits"),
    "index.candidates_ms": ("mean", "index.candidates"),
    "index.candidates_per_query": ("per", "index.candidates", "candidates"),
    "frozen.freeze_ms": ("mean", "frozen.freeze"),
    # adjacency views are built once per snapshot, on the first call
    "frozen.prewarm_ms": ("mean", "frozen.prewarm", "frozen.freeze"),
    "oracle.build_ms": ("mean", "oracle.build"),
    "oracle.fill_rows_ms": ("mean", "oracle.fill_rows"),
    "oracle.label_entries": ("sum", "oracle.build", "labels"),
    "bounded.match_ms": ("mean", "bounded.match"),
    "bounded.rows_ms": ("mean", "bounded.rows"),
    "bounded.refine_self_ms": ("self", "bounded.match"),
    "simulation.match_ms": ("mean", "simulation.match"),
    "bounded.row_entries": ("sum", "bounded.rows", "entries"),
    "topk.context_ms": ("mean", "topk.result_graph", "topk.context"),
    "topk.select_ms": ("mean", "topk.select"),
    # pinned rankings re-derived inside update_graph (diff + carry-over)
    "topk.refresh_ms": ("mean", "topk.refresh"),
    "topk.details_scored": ("sum", "topk.select", "scored"),
    "topk.pruned_by_bound": ("sum", "topk.select", "pruned"),
    "wal.append_ms": ("mean", "wal.append"),
    "wal.bytes_per_batch": ("per", "wal.append", "bytes"),
    "wal.checkpoint_ms": ("mean", "wal.checkpoint"),
    # every start of a durable service calls recover(); only the restart
    # after the crash has work to do, so the runs are summed, not averaged
    "wal.recover_ms": ("total", "wal.recover"),
    "storage.load_ms": ("mean", "storage.load"),
    "engine.update_graph_ms": ("mean", "engine.update_graph"),
    "engine.evaluate_many_ms": ("mean", "engine.evaluate_many"),
    "incremental.apply_ms": ("mean", "incremental.apply"),
    "incremental.delta_pairs": ("sum", "engine.update_graph", "pairs"),
    "compression.build_ms": ("mean", "compression.build"),
    "compression.maintain_ms": ("mean", "compression.maintain"),
}


#: ``stats.kernels`` value -> suffix of ``bounded.kernel_edges.*``
KERNELS = {"bfs-enumeration": "per_source", "bitset": "bitset", "oracle-pairwise": "oracle"}


def kernel_edges(kernels: Iterable[str]) -> dict[str, int]:
    """``bounded.kernel_edges.*`` from the kernels named in ``stats.kernels``."""
    counts = {f"bounded.kernel_edges.{suffix}": 0 for suffix in KERNELS.values()}
    for kernel in kernels:
        counts[f"bounded.kernel_edges.{KERNELS[kernel]}"] += 1
    return counts


def span_metrics(summary: dict[str, dict[str, Any]], factor: float) -> dict[str, float]:
    """Evaluate :data:`SPAN_METRICS` over a :func:`trace.aggregate` summary.

    A layer the workload bypasses has no spans and reads 0.  Span times
    come from the child's clock; ``factor`` brings them to the reference
    speed (one factor for the traced phase, see :mod:`.calibrate`).
    """
    empty: dict[str, Any] = {"count": 0, "total_ms": 0.0, "self_ms": 0.0, "measures": {}}
    values: dict[str, float] = {}
    for metric, (kind, *names) in SPAN_METRICS.items():
        if kind in ("sum", "per"):
            entry = summary.get(names[0], empty)
            total = float(entry["measures"].get(names[1], 0))
            count = entry["count"] if kind == "per" else 1
        else:
            field = "self_ms" if kind == "self" else "total_ms"
            total = sum(summary.get(name, empty)[field] for name in names)
            count = 1 if kind == "total" else summary.get(names[-1], empty)["count"]
        values[metric] = total / count if count else 0.0
        if metric.endswith("_ms"):
            values[metric] *= factor
    values["trace.spans"] = sum(entry["count"] for entry in summary.values())
    return values


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (the sample at rank ``ceil(fraction * n)``)."""
    ranked = sorted(samples)
    if not ranked:
        raise ValueError("percentile of no samples")
    return ranked[max(0, math.ceil(fraction * len(ranked)) - 1)]


def latency_summary(samples_s: Sequence[float]) -> dict[str, float]:
    """Count, p50/p90/p95/p99 and mean of latencies, in milliseconds."""
    if not samples_s:
        return {"n": 0}
    return {
        "n": len(samples_s),
        "p50_ms": statistics.median(samples_s) * 1e3,
        "p90_ms": percentile(samples_s, 0.90) * 1e3,
        "p95_ms": percentile(samples_s, 0.95) * 1e3,
        "p99_ms": percentile(samples_s, 0.99) * 1e3,
        "mean_ms": statistics.fmean(samples_s) * 1e3,
    }


def manifest(run_seconds: int = 12) -> dict[str, Any]:
    """The content ``BENCHMARK.json`` must have (the smoke test compares)."""
    return {
        "command": ["python3", "-m", "benchmarks.perf", "run"],
        "paths": ["benchmarks/perf"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
        ],
    }


def load_manifest() -> dict[str, Any]:
    return json.loads(MANIFEST.read_text())  # type: ignore[no-any-return]
