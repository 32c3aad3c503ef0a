"""Benchmark-owned driver for ``embedded_dynamic``: the engine used in-process.

``python -m benchmarks.perf.embedded_main --graph-file F --plan-file P``
loads the graph, registers it with a :class:`QueryEngine`, pins the
plan's queries (incrementally maintained from then on), builds the
maintained compression and prints ``READY``.  It then obeys one-line
commands on stdin, answering each with ``ok``:

``run A B``        execute operations ``A..B`` of the plan, timing each API call
``trace on|off``   install / remove the span wrappers
``dump PATH``      write the recorded spans
``report PATH``    write the per-operation records, peak RSS and final checks
``quit``           exit (as does end-of-file)

There is no wire here, so the clock brackets the API call itself; digests
of the returned relations are computed after the clock stops.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path
from typing import Any

from repro.engine.engine import QueryEngine
from repro.graph import io
from repro.incremental.updates import Update
from repro.pattern.parser import parse_pattern
from repro.server.wire import decode_updates, encode_ranked, encode_relation

from .client import vm_hwm_mb
from .trace import Tracer
from .verify import canonical_digest
from .workloads import GRAPH_NAME


def _relation_digest(result: Any) -> str:
    return canonical_digest(encode_relation(result.relation))


def run_ops(engine: QueryEngine, ops: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Execute ``ops`` in order; one record per operation."""
    clock = time.perf_counter
    records: list[dict[str, Any]] = []
    for op in ops:
        record: dict[str, Any] = {"op": op["op"]}
        if op["op"] == "update":
            updates: list[Update] = decode_updates({"updates": op["updates"]})
            started = clock()
            summary = engine.update_graph(GRAPH_NAME, updates)
            record["seconds"] = clock() - started
            record["delta_pairs"] = sum(
                len(delta["added"]) + len(delta["removed"])
                for delta in summary["pinned_deltas"].values()
            )
        elif op["op"] == "batch":
            patterns = [parse_pattern(text) for text in op["patterns"]]
            started = clock()
            results = engine.evaluate_many(GRAPH_NAME, patterns)
            record["seconds"] = clock() - started
            record["routes"] = [result.stats["route"] for result in results]
            record["kernels"] = [
                kernel
                for result in results
                for kernel in result.stats.get("kernels", {}).values()
            ]
            record["relations"] = [_relation_digest(result) for result in results]
        else:
            pattern = parse_pattern(op["pattern"])
            started = clock()
            ranked = engine.top_k(GRAPH_NAME, pattern, op["k"])
            record["seconds"] = clock() - started
            record["ranking"] = canonical_digest(encode_ranked(ranked))
        records.append(record)
    return records


def final_checks(engine: QueryEngine, plan: dict[str, Any]) -> dict[str, Any]:
    """Digests for the parent's last checks, taken after the measured ops.

    The pinned relations as maintained incrementally, and each field-only
    pattern through the compressed and through the direct route.
    """
    pinned = [
        _relation_digest(engine.evaluate(GRAPH_NAME, parse_pattern(text)))
        for text in plan["options"]["pinned"]
    ]
    compressed, direct = [], []
    for text in plan["options"]["field_only"]:
        pattern = parse_pattern(text)
        compressed.append(
            _relation_digest(engine.evaluate(GRAPH_NAME, pattern, use_cache=False))
        )
        direct.append(
            _relation_digest(
                engine.evaluate(GRAPH_NAME, pattern, use_cache=False, use_compression=False)
            )
        )
    return {"pinned": pinned, "compressed": compressed, "direct": direct}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--graph-file", required=True)
    parser.add_argument("--plan-file", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer()
    if args.trace:
        tracer.install()
    plan = json.loads(Path(args.plan_file).read_text())
    engine = QueryEngine()
    # attribute lookup at call time, so a traced run sees the load
    graph = io.load_graph(args.graph_file)
    engine.register_graph(GRAPH_NAME, graph)
    for text in plan["options"]["pinned"]:
        engine.pin(GRAPH_NAME, parse_pattern(text))
    compressed = engine.compress_graph(GRAPH_NAME, plan["options"]["compress"])
    ratio = compressed.quotient.num_nodes / graph.num_nodes
    print("READY", flush=True)

    records: list[dict[str, Any]] = []

    def run(argument: str) -> None:
        first, last = (int(word) for word in argument.split())
        records.extend(run_ops(engine, plan["ops"][first:last]))

    def report(path: str) -> None:
        payload = {
            "records": records,
            # read before the final checks add their own allocations
            "peak_rss_mb": vm_hwm_mb(os.getpid()),
            "compression_ratio": ratio,
            "final": final_checks(engine, plan),
        }
        Path(path).write_text(json.dumps(payload))

    tracer.obey({"run": run, "report": report})
    engine.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
