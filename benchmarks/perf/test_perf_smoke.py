"""Tier-1 smoke test of the perf harness (all four workloads, smoke scale).

Every workload runs once untraced and once traced through the real
command line, on graphs of at most 400 nodes, with every reply checked
against the naive reference matcher.  The assertions are about the
harness — names, units, counts that must repeat, checks that must fire —
never about how fast anything is.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.perf import __main__ as cli  # noqa: E402
from benchmarks.perf import compare, metrics, trace, verify, workloads  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


@functools.lru_cache(maxsize=None)
def run_cli(workload: str, seed: int, traced: int, attempt: int = 0) -> tuple[str, dict]:
    """``(stdout, last-line JSON)`` of one smoke run (cached per argument set)."""
    done = subprocess.run(
        [
            sys.executable, "-m", "benchmarks.perf", "run",
            "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--scale", "smoke", "--trace", str(traced),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1])


def test_manifest_mirrors_the_metric_tables():
    assert MANIFEST == metrics.manifest()
    assert [entry["name"] for entry in MANIFEST["workloads"]] == list(workloads.WORKLOADS)
    assert set(metrics.SPAN_METRICS) <= {name for name, _unit, _better in metrics.PER_LAYER}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_end_to_end_metric_is_printed(workload):
    stdout, line = run_cli(workload, 1, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [entry["name"] for entry in MANIFEST["end_to_end"]]
    for entry in MANIFEST["end_to_end"]:
        reported = line["metrics"][entry["name"]]
        assert reported["unit"] == entry["unit"]
        assert reported["value"] > 0, entry["name"]
        assert f"{entry['name']} " in stdout
    assert "checks attempted" in stdout and "closed-loop connection" in stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_per_layer_metric_is_printed(workload):
    stdout, line = run_cli(workload, 1, 1)
    assert line["correct"] is True
    assert list(line["metrics"]) == [entry["name"] for entry in MANIFEST["per_layer"]]
    for entry in MANIFEST["per_layer"]:
        assert line["metrics"][entry["name"]]["unit"] == entry["unit"]
        assert f"{entry['name']} " in stdout
    assert line["metrics"]["trace.spans"]["value"] > 0
    assert line["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_each_workload_exercises_what_it_claims():
    cold = run_cli("serve_cold", 1, 1)[1]["metrics"]
    hot = run_cli("serve_hot", 1, 1)[1]["metrics"]
    mixed = run_cli("serve_mixed_durable", 1, 1)[1]["metrics"]
    embedded = run_cli("embedded_dynamic", 1, 1)[1]["metrics"]
    assert cold["cache.query_hit_ratio"]["value"] == 0.0
    assert hot["cache.query_hit_ratio"]["value"] == 1.0
    assert hot["cache.rank_hit_ratio"]["value"] == 1.0
    for kernel in ("per_source", "bitset", "oracle"):
        assert cold[f"bounded.kernel_edges.{kernel}"]["value"] > 0, kernel
    # the hot path bypasses evaluation: no matcher or index span at all
    for absent in ("bounded.match_ms", "index.candidates_ms", "simulation.match_ms"):
        assert hot[absent]["value"] == 0
    assert hot["app.http_self_ms"]["value"] > 0 and hot["wire.encode_relation_ms"]["value"] > 0
    assert cold["oracle.build_ms"]["value"] > 0 and cold["topk.select_ms"]["value"] > 0
    assert mixed["registry.publish_ms"]["value"] > 0 and mixed["wal.append_ms"]["value"] > 0
    assert mixed["wal.recover_ms"]["value"] > 0 and mixed["wal.replay_batches"]["value"] > 0
    assert mixed["wal.checkpoints"]["value"] >= 2
    assert mixed["admission.rejected"]["value"] == 0
    for route in ("cache", "compressed", "direct"):
        assert embedded[f"engine.route.{route}"]["value"] > 0, route
    assert embedded["incremental.apply_ms"]["value"] > 0
    assert embedded["compression.maintain_ms"]["value"] > 0
    assert 0 < embedded["compression.ratio"]["value"] < 1


@pytest.mark.parametrize("workload", ["serve_cold", "serve_mixed_durable", "embedded_dynamic"])
def test_same_seed_repeats_digest_and_exact_counts(workload):
    first_out, first = run_cli(workload, 1, 1)
    second_out, second = run_cli(workload, 1, 1, attempt=1)
    other_out, _other = run_cli(workload, 2, 0)

    def digest(stdout: str) -> str:
        return next(line for line in stdout.splitlines() if "op-sequence digest" in line)

    assert digest(first_out) == digest(second_out)
    assert digest(first_out) != digest(other_out)
    for name in compare.EXACT[workload]:
        assert first["metrics"][name] == second["metrics"][name], name


def test_seed_is_the_only_randomness_in_the_request_stream():
    for name in workloads.WORKLOADS:
        one = workloads.build(name, 5, 1.0, "smoke")
        again = workloads.build(name, 5, 1.0, "smoke")
        other = workloads.build(name, 6, 1.0, "smoke")
        assert (one.warmup, one.streams, one.tail) == (again.warmup, again.streams, again.tail)
        assert one.streams != other.streams, name


def test_self_time_plus_children_is_the_span_duration(tmp_path):
    tracer = trace.Tracer()

    def leaf(n):
        return sum(range(n))

    inner = tracer.wrap("inner", leaf, lambda args: lambda result: {"calls": 1})

    def middle(n):
        return inner(n) + inner(n * 2)

    outer = tracer.wrap("outer", tracer.wrap("middle", middle, None), None)
    for n in (2000, 4000, 8000):
        outer(n)
    tracer.dump(tmp_path / "trace.json")
    dump = trace.load(tmp_path / "trace.json")
    (spans,) = dump["threads"]
    assert [span[0] for span in spans[:4]] == ["outer", "middle", "inner", "inner"]
    for index, (_name, begin, end, parent, request, _measures) in enumerate(spans):
        children = [child for child in spans if child[3] == index]
        assert all(begin <= child[1] and child[2] <= end for child in children)
        if parent >= 0:
            assert request == spans[parent][4]
    assert len({span[4] for span in spans}) == 3  # one request id per outer call
    summary = trace.aggregate(dump)
    assert summary["inner"]["count"] == 6 and summary["inner"]["measures"] == {"calls": 6}
    # self time + children == duration, level by level
    assert summary["outer"]["self_ms"] + summary["middle"]["total_ms"] == pytest.approx(
        summary["outer"]["total_ms"]
    )
    assert summary["middle"]["self_ms"] + summary["inner"]["total_ms"] == pytest.approx(
        summary["middle"]["total_ms"]
    )
    assert summary["inner"]["self_ms"] == pytest.approx(summary["inner"]["total_ms"])
    assert all(entry["self_ms"] >= 0 for entry in summary.values())


def test_tracer_restores_what_it_patched():
    from repro.server import registry

    before = (registry.match_bounded, vars(registry.Epoch)["evaluate"])
    tracer = trace.Tracer()
    tracer.install()
    assert registry.match_bounded is not before[0]
    tracer.uninstall()
    assert (registry.match_bounded, vars(registry.Epoch)["evaluate"]) == before


def test_a_wrong_expected_digest_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(verify, "expected_relation", lambda graph, text, reference=False: "0" * 64)
    monkeypatch.setattr(cli, "_write_result", lambda result, out: None)
    status = cli.main(
        ["run", "--workload", "serve_hot", "--seed", "1", "--seconds", "1", "--scale", "smoke"]
    )
    stdout = capsys.readouterr().out
    line = json.loads(stdout.strip().splitlines()[-1])
    assert status == 1
    assert line["correct"] is False and line["failed"] > 0
    assert "FAILED: wrong evaluate answer" in stdout


def _runs(path: Path, workload: str, values: list[float], metric: str = "primary_p50_ms") -> Path:
    path.write_text(
        "\n".join(
            json.dumps({"workload": workload, "trace": False,
                        "metrics": {metric: {"value": value, "unit": "ms"}}})
            for value in values
        )
    )
    return path


def test_compare_applies_the_bound_per_row(tmp_path):
    bound = next(e["bound"] for e in MANIFEST["end_to_end"] if e["name"] == "primary_p50_ms")
    base = _runs(tmp_path / "a.json", "serve_hot", [10.0, 10.1, 9.9, 10.0, 10.2])
    same = _runs(tmp_path / "b.json", "serve_hot", [10.1, 10.0, 10.2, 9.9, 10.0])
    slow = _runs(tmp_path / "c.json", "serve_hot", [v * (1 + 2 * bound) for v in (10.0, 10.1, 9.9)])
    wild = _runs(tmp_path / "d.json", "serve_hot", [5.0, 10.0, 20.0, 40.0, 10.0])
    rows, passed = compare.compare(base, same)
    assert passed and [row["verdict"] for row in rows] == ["ok"]
    rows, passed = compare.compare(base, slow)
    assert not passed and rows[0]["verdict"] == "regressed"
    rows, passed = compare.compare(base, wild)
    assert passed and rows[0]["verdict"] == "unresolved"
    assert cli.main(["compare", str(base), str(slow)]) == 1
    assert cli.main(["compare", str(base), str(same)]) == 0
