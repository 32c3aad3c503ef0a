"""``python -m benchmarks.perf compare A.json B.json``: bounds applied per row.

Each file holds the results of one or more runs (the JSON lines that
``run --out`` appends, or the single object under ``results/``).  For
every ``(workload, end-to-end metric)`` row the medians of the two sets
are compared under the metric's bound from ``BENCHMARK.json``:

``ok``          B's median is no worse than A's by more than the bound
``regressed``   it is worse by more than the bound
``unresolved``  a set's own spread (interquartile range over its median)
                is wider than the bound, so the row cannot be called

The counts a traced run reports as exact must be identical in every run
of both sets, or the row reads ``differs``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any

from .metrics import load_manifest

_KERNEL_EDGES = (
    "bounded.kernel_edges.per_source",
    "bounded.kernel_edges.bitset",
    "bounded.kernel_edges.oracle",
)
#: Per-layer counts that depend only on the seeded inputs, per workload.
EXACT: dict[str, tuple[str, ...]] = {
    "serve_cold": (*_KERNEL_EDGES, "registry.epochs_published"),
    "serve_hot": (*_KERNEL_EDGES, "registry.epochs_published"),
    "serve_mixed_durable": (*_KERNEL_EDGES, "registry.epochs_published"),
    "embedded_dynamic": (
        *_KERNEL_EDGES,
        "engine.route.cache",
        "engine.route.compressed",
        "engine.route.direct",
        "incremental.delta_pairs",
    ),
}


def load_runs(path: str | Path) -> list[dict[str, Any]]:
    """Run results from a JSON object, a JSON list or JSON lines."""
    text = Path(path).read_text().strip()
    try:
        loaded = json.loads(text)
    except json.JSONDecodeError:
        loaded = [json.loads(line) for line in text.splitlines() if line.strip()]
    return loaded if isinstance(loaded, list) else [loaded]


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for fewer than 2 runs)."""
    if len(values) < 2:
        return 0.0
    first, _second, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def _values(runs: list[dict[str, Any]], workload: str, metric: str, trace: bool) -> list[float]:
    return [
        run["metrics"][metric]["value"]
        for run in runs
        if run["workload"] == workload and bool(run.get("trace")) == trace
        and metric in run["metrics"]
    ]


def compare(path_a: str | Path, path_b: str | Path) -> tuple[list[dict[str, Any]], bool]:
    """Rows for every ``(workload, metric)`` both sets measured, and pass/fail."""
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    manifest = load_manifest()
    rows = []
    for workload in (entry["name"] for entry in manifest["workloads"]):
        for metric in manifest["end_to_end"]:
            a = _values(runs_a, workload, metric["name"], trace=False)
            b = _values(runs_b, workload, metric["name"], trace=False)
            if not a or not b:
                continue
            median_a, median_b = statistics.median(a), statistics.median(b)
            change = (median_b - median_a) / median_a
            worse = change if metric["better"] == "lower" else -change
            widest = max(spread(a), spread(b))
            if widest > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "regressed" if worse > metric["bound"] else "ok"
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "a": median_a,
                    "b": median_b,
                    "runs": (len(a), len(b)),
                    "change": change,
                    "spread": widest,
                    "bound": metric["bound"],
                    "verdict": verdict,
                }
            )
        for name in EXACT[workload]:
            counts = _values(runs_a + runs_b, workload, name, trace=True)
            if counts:
                rows.append(
                    {
                        "workload": workload,
                        "metric": name,
                        "unit": "count",
                        "a": counts[0],
                        "b": counts[-1],
                        "runs": (len(counts), 0),
                        "change": 0.0,
                        "spread": 0.0,
                        "bound": 0.0,
                        "verdict": "ok" if len(set(counts)) == 1 else "differs",
                    }
                )
    passed = all(row["verdict"] not in ("regressed", "differs") for row in rows)
    return rows, passed


def render(rows: list[dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<20} {'metric':<32} {'A':>11} {'B':>11} {'change':>8} "
        f"{'spread':>7} {'bound':>6}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<20} {row['metric']:<32} {row['a']:>11.4g} {row['b']:>11.4g} "
            f"{row['change']:>+8.1%} {row['spread']:>7.1%} {row['bound']:>6.0%}  "
            f"{row['verdict']}"
        )
    return "\n".join(lines)
