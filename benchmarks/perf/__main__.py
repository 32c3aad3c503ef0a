"""Command line of the perf harness: ``run`` and ``compare``."""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any

from .metrics import ROOT

HERE = Path(__file__).resolve().parent
# The program under test lives in the checkout this file is part of.
if (ROOT / "src").is_dir() and str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

#: A run that is still going after this many seconds is abandoned
#: (children reaped, no result line): the driver allows 180.
WATCHDOG_SECONDS = 170


def _host_stamp(seed: int, scale: str, seconds: float) -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_commit": commit or None,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
    }


def run_workload(name: str, seed: int, seconds: float, scale: str, trace: bool) -> dict[str, Any]:
    """Generate, drive and verify one workload; the full result object."""
    from . import embedded, served, workloads
    from .metrics import END_TO_END, PER_LAYER

    workload = workloads.build(name, seed, seconds, scale)
    # three set-ups (and crash restarts) per run for their medians; one
    # where set-up time is not reported
    repeats = 1 if trace or scale == "smoke" else 3
    workdir = HERE / ".work" / f"{os.getpid()}-{name}"
    workdir.mkdir(parents=True)
    try:
        driver = embedded if name == "embedded_dynamic" else served
        result = driver.run(workload, workdir, trace, repeats)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = {metric: unit for metric, unit, *_ in (PER_LAYER if trace else END_TO_END)}
    values = result["metrics"]
    result["metrics"] = {
        metric: {"value": values.get(metric, 0), "unit": unit} for metric, unit in units.items()
    }
    result.update(
        workload=name,
        trace=trace,
        digest=workload.digest(),
        correct=result["failed"] == 0,
        host=_host_stamp(seed, scale, seconds),
    )
    return result


def _print_result(result: dict[str, Any]) -> None:
    from .metrics import ROLES

    name = result["workload"]
    mode = "per-layer (traced run)" if result["trace"] else "end-to-end (untraced run)"
    print(f"== {name}: {mode}, seed {result['host']['seed']}, scale {result['host']['scale']}")
    print(f"   op-sequence digest {result['digest'][:16]}")
    if not result["trace"]:
        for role, meaning in ROLES[name].items():
            print(f"   {role:<10}= {meaning}")
    for metric, entry in result["metrics"].items():
        print(f"   {metric:<34} {entry['value']:>14.4f} {entry['unit']}")
    detail = result["detail"]
    print(f"   speed factors (reference / measured kernel time) {detail['speed_factor']}")
    # the latency lines below are as measured, before that scaling
    for kind, summary in detail.get("latency", {}).items():
        if summary["n"]:
            print(
                f"   latency {kind:<18} n={summary['n']:<6} p50={summary['p50_ms']:.3f} "
                f"p90={summary['p90_ms']:.3f} p95={summary['p95_ms']:.3f} "
                f"p99={summary['p99_ms']:.3f} ms"
            )
    for key in ("setup_s", "recovery_s"):
        if detail.get(key):
            print(f"   {key:<34} samples {[round(v, 4) for v in detail[key]]}")
    print(f"   measured phase {detail['measured_wall_s']:.2f} s, "
          f"{detail['connections']} closed-loop connection(s)")
    if result["trace"]:
        _print_spans(result["spans"])
    print(f"   checks attempted {result['attempted']}, failed {result['failed']}")
    for problem in result["problems"]:
        print(f"   FAILED: {problem}")


def _print_spans(spans: dict[str, dict[str, Any]]) -> None:
    """Span table: where the traced requests spent their time.

    ``share`` is a span's self time *inside requests* over the summed
    request time; set-up, checkpointer and recovery spans show 0 there.
    """
    request_ms = sum(entry["request_self_ms"] for entry in spans.values()) or 1.0
    print(f"   {'span':<28} {'count':>7} {'total ms':>11} {'self ms':>11} {'share':>7}")
    for span, entry in sorted(spans.items(), key=lambda item: -item[1]["self_ms"]):
        print(
            f"   {span:<28} {entry['count']:>7} {entry['total_ms']:>11.1f} "
            f"{entry['self_ms']:>11.1f} {entry['request_self_ms'] / request_ms:>7.1%}"
        )


def _write_result(result: dict[str, Any], out: str | None) -> None:
    """``results/<workload>[.trace].json``, plus one appended line in ``out``."""
    suffix = ".trace.json" if result["trace"] else ".json"
    directory = HERE / "results"
    directory.mkdir(exist_ok=True)
    (directory / f"{result['workload']}{suffix}").write_text(json.dumps(result, indent=1) + "\n")
    if out:
        with open(out, "a") as handle:
            handle.write(json.dumps(result) + "\n")


def _cmd_run(args: argparse.Namespace) -> int:
    from .metrics import load_manifest
    from .workloads import WORKLOADS

    def _abandon(signum: int, frame: object) -> None:
        # unwinds through every ``finally``: children are reaped, files removed
        raise SystemExit(f"perf harness: stopped by signal {signum}")

    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = args.seconds if args.seconds is not None else load_manifest()["run_seconds"]
    results = []
    previous = {
        number: signal.signal(number, _abandon) for number in (signal.SIGTERM, signal.SIGALRM)
    }
    try:
        for name in names:
            signal.alarm(WATCHDOG_SECONDS)
            result = run_workload(name, args.seed, seconds, args.scale, bool(args.trace))
            signal.alarm(0)
            results.append(result)
            _print_result(result)
            _write_result(result, args.out)
    finally:
        signal.alarm(0)
        for number, handler in previous.items():
            signal.signal(number, handler)
    metrics = (
        results[0]["metrics"]
        if args.workload
        else {f"{r['workload']}.{m}": v for r in results for m, v in r["metrics"].items()}
    )
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    from .compare import compare, render

    rows, passed = compare(args.a, args.b)
    print(render(rows))
    return 0 if passed else 1


def _pin_hash_seed() -> None:
    """Re-execute once with ``PYTHONHASHSEED=0`` (as pyperf does for its workers).

    String hashing is randomised per process, and set iteration order
    follows it: the seeded twitter-like generator iterates a set of node
    names, and the matchers walk sets of them, so without this neither
    the generated graph nor the work done repeats from run to run (the
    same request stream measured 12-16% apart).  Children inherit it.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, "-m", "benchmarks.perf", *sys.argv[1:]])


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        _pin_hash_seed()
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run one workload (or all four) and print its metrics")
    run.add_argument("--workload", default=None)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=None,
                     help="scales the operation counts; the measured phase lasts about this long")
    run.add_argument("--scale", choices=("full", "smoke"), default="full")
    run.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
                     help="1: traced run printing the per-layer metrics")
    run.add_argument("--out", default=None, help="append the result as one JSON line to this file")
    run.set_defaults(handler=_cmd_run)
    compare = commands.add_parser("compare", help="apply each metric's bound to two sets of runs")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.set_defaults(handler=_cmd_compare)
    args = parser.parse_args(argv)
    try:
        import repro  # noqa: F401
    except ModuleNotFoundError:
        print(
            f"perf harness: the program under test is not in this checkout ({ROOT / 'src'})",
            file=sys.stderr,
        )
        return 2
    return int(args.handler(args))


if __name__ == "__main__":
    raise SystemExit(main())
