"""Render the experiment series from benchmark output.

Usage::

    pytest benchmarks/ --benchmark-only --benchmark-json=bench.json
    python benchmarks/report.py bench.json

    # assertion-style benchmarks write BENCH_<experiment>.json summaries:
    pytest benchmarks/bench_distance_oracle.py -s
    python benchmarks/report.py BENCH_E15.json            # one summary
    python benchmarks/report.py .                         # every BENCH_*.json

Prints, per experiment id (E4-E10 and the ablations), the series the
paper's evaluation section describes — runtime scaling, incremental-vs-
batch comparisons with crossovers, compression ratios and speed-ups — as
tables and ASCII charts, and renders the machine-readable
``BENCH_<experiment>.json`` summaries the assertion-style benchmarks emit
(the perf trajectory CI uploads as artifacts).  This completes deliverable
(d): the harness that regenerates the paper's reported rows from a
benchmark run.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from repro.viz.charts import ascii_bar_chart, comparison_chart


def load_benchmarks(path: str | Path) -> dict[str, list[dict]]:
    """Group benchmark entries by group name."""
    payload = json.loads(Path(path).read_text())
    groups: dict[str, list[dict]] = defaultdict(list)
    for bench in payload.get("benchmarks", []):
        groups[bench.get("group") or "ungrouped"].append(bench)
    return dict(groups)


def mean_ms(bench: dict) -> float:
    return bench["stats"]["mean"] * 1000.0


def _param(bench: dict, key: str, default=None):
    extra = bench.get("extra_info", {})
    if key in extra:
        return extra[key]
    return (bench.get("params") or {}).get(key, default)


def report_scaling(groups: dict, out) -> None:
    """E4: matcher runtime vs graph size, one chart per algorithm."""
    print("== E4: query evaluation cost vs graph size ==", file=out)
    for group, label in (
        ("E4-simulation", "graph simulation (quadratic)"),
        ("E4-bounded", "bounded simulation (cubic)"),
        ("E4-isomorphism", "subgraph isomorphism"),
    ):
        entries = groups.get(group, [])
        series = sorted(
            (
                (str(_param(bench, "size", bench["name"])), mean_ms(bench))
                for bench in entries
                if _param(bench, "size") is not None
            ),
            key=lambda pair: int(pair[0]),
        )
        if series:
            print(ascii_bar_chart(series, title=label), file=out)
            print(file=out)


def _crossover_pairs(groups: dict, incremental_group: str, batch_group: str):
    incremental = {
        _param(bench, "percent_changed"): mean_ms(bench)
        for bench in groups.get(incremental_group, [])
    }
    batch = {
        _param(bench, "percent_changed"): mean_ms(bench)
        for bench in groups.get(batch_group, [])
    }
    return [
        (f"{percent}%", incremental[percent], batch[percent])
        for percent in sorted(set(incremental) & set(batch), key=float)
    ]


def report_incremental(groups: dict, out) -> None:
    """E5/E6: incremental vs batch with the crossover visible."""
    for title, inc_group, batch_group in (
        ("E5: incremental vs batch (simulation)", "E5-incremental-sim", "E5-batch-sim"),
        ("E6: incremental vs batch (bounded simulation)",
         "E6-incremental-bounded", "E6-batch-bounded"),
    ):
        pairs = _crossover_pairs(groups, inc_group, batch_group)
        if not pairs:
            continue
        print(f"== {title} ==", file=out)
        print(comparison_chart(pairs, "incremental", "batch"), file=out)
        crossover = next(
            (label for label, left, right in pairs if left >= right), None
        )
        if crossover is None:
            print("crossover: beyond the tested range (incremental always wins)",
                  file=out)
        else:
            print(f"crossover: at or before ΔG = {crossover}", file=out)
        print(file=out)


def report_compression(groups: dict, out) -> None:
    """E7/E8/E9: ratios, query speed-up, maintenance."""
    builds = groups.get("E7-compress", [])
    if builds:
        print("== E7: compression ratio (size reduction) ==", file=out)
        series = [
            (
                f"{_param(bench, 'dataset')}/{_param(bench, 'method', '?')}"
                if _param(bench, "method") is not None
                else f"{_param(bench, 'dataset')}/{bench['name'].split('[')[-1].rstrip(']')}",
                float(_param(bench, "size_reduction_pct", 0.0)),
            )
            for bench in builds
        ]
        print(ascii_bar_chart(series, unit="%"), file=out)
        values = [value for _, value in series]
        print(f"average: {sum(values) / len(values):.1f}% (paper: 57%)", file=out)
        print(file=out)

    direct = {
        _param(bench, "dataset"): mean_ms(bench)
        for bench in groups.get("E8-direct", [])
    }
    compressed = {
        _param(bench, "dataset"): mean_ms(bench)
        for bench in groups.get("E8-compressed", [])
    }
    shared = sorted(set(direct) & set(compressed))
    if shared:
        print("== E8: query time, original vs compressed graph ==", file=out)
        pairs = [(dataset, compressed[dataset], direct[dataset]) for dataset in shared]
        print(comparison_chart(pairs, "compressed", "direct"), file=out)
        for dataset in shared:
            reduction = 100.0 * (1 - compressed[dataset] / direct[dataset])
            print(f"{dataset}: evaluation time reduced by {reduction:.0f}% (paper: ~70%)",
                  file=out)
        print(file=out)

    pairs = _crossover_pairs(groups, "E9-maintain", "E9-recompress")
    if pairs:
        print("== E9: maintain compression vs recompress ==", file=out)
        print(comparison_chart(pairs, "maintain", "recompress"), file=out)
        print(file=out)


def report_topk(groups: dict, out) -> None:
    entries = groups.get("E10-topk", [])
    if not entries:
        return
    print("== E10: top-K selection cost vs K ==", file=out)
    series = sorted(
        ((f"K={_param(bench, 'k')}", mean_ms(bench)) for bench in entries),
        key=lambda pair: int(pair[0][2:]),
    )
    print(ascii_bar_chart(series), file=out)
    print(file=out)


def report_ablations(groups: dict, out) -> None:
    printed = False
    for group, title in (
        ("ABL1-indexed-matcher", "ABL-1 indexed matcher"),
        ("ABL1-naive-matcher", "ABL-1 naive matcher"),
        ("ABL2-routes", "ABL-2 evaluation routes"),
    ):
        entries = groups.get(group, [])
        if not entries:
            continue
        if not printed:
            print("== Ablations ==", file=out)
            printed = True
        series = [(bench["name"].split("[")[0].replace("test_", ""), mean_ms(bench))
                  for bench in entries]
        print(ascii_bar_chart(series, title=title), file=out)
        print(file=out)


def load_summaries(path: str | Path) -> list[dict]:
    """``BENCH_<experiment>.json`` payloads from a file or directory."""
    path = Path(path)
    files = sorted(path.glob("BENCH_*.json")) if path.is_dir() else [path]
    summaries = []
    for file in files:
        payload = json.loads(file.read_text())
        if isinstance(payload, dict) and "experiment" in payload:
            summaries.append(payload)
    return summaries


def _summary_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, list):
        return ", ".join(str(item) for item in value)
    return str(value)


def report_summaries(summaries: list[dict], out) -> None:
    """Render the perf trajectory the assertion-style benchmarks record.

    Each experiment section lists its measurement groups; speedup/ratio
    entries additionally feed a small comparison chart so the trajectory
    is scannable without reading raw numbers.
    """
    for payload in summaries:
        print(f"== {payload['experiment']}: recorded summary ==", file=out)
        speedups = []
        for group, values in sorted(payload.get("metrics", {}).items()):
            rendered = ", ".join(
                f"{key}={_summary_value(value)}"
                for key, value in sorted(values.items())
            )
            print(f"{group}: {rendered}", file=out)
            for key in ("speedup", "ratio"):
                if isinstance(values.get(key), (int, float)):
                    speedups.append((f"{group}/{key}", float(values[key])))
        if speedups:
            print(file=out)
            print(ascii_bar_chart(speedups, unit="x"), file=out)
        print(file=out)


def render_report(path: str | Path, out=None) -> None:
    """Render every experiment section found at ``path``.

    A pytest-benchmark JSON renders the classic experiment series; a
    ``BENCH_*.json`` summary (or a directory of them) renders the
    recorded perf trajectory.
    """
    out = out or sys.stdout
    path = Path(path)
    summaries = load_summaries(path)
    if summaries:
        report_summaries(summaries, out)
    if path.is_dir():
        return
    if summaries:
        return
    groups = load_benchmarks(path)
    report_scaling(groups, out)
    report_incremental(groups, out)
    report_compression(groups, out)
    report_topk(groups, out)
    report_ablations(groups, out)


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    if len(args) != 1:
        print(
            "usage: python benchmarks/report.py "
            "<benchmark.json | BENCH_*.json | directory>",
            file=sys.stderr,
        )
        return 2
    if not Path(args[0]).exists():
        print(f"no such file: {args[0]}", file=sys.stderr)
        return 2
    render_report(args[0])
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
