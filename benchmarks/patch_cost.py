"""In-process cost of ``FrozenGraph.patched`` on the harness's publish streams.

Replays, without a server or an engine, the update streams two workloads
of ``benchmarks.perf`` send at seed 0 (full scale):

* ``serve_mixed_durable``: its 4-update publish batches on the
  10,000-node collaboration graph;
* ``embedded_dynamic``: its single-edge updates on the 4,000-node graph.

Each step does what a publish does — copy the graph, decompose and apply
the batch — and times only ``prior.patched(graph, primitives)`` over the
prior step's snapshot (adjacency views built, as a served epoch's are);
the last snapshot is checked against ``freeze`` of the last graph.  Then
the same batches go through ``SnapshotRegistry.publish`` (no WAL), timed
whole.  Prints one JSON object: per workload, the batch count and the
p50 / p90 of ``patched`` and of ``publish`` in milliseconds.

Run from the repository root::

    PYTHONHASHSEED=0 PYTHONPATH=src:. python benchmarks/patch_cost.py
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from benchmarks.perf.workloads import build
from repro.graph.frozen import FrozenGraph
from repro.incremental.updates import decompose
from repro.server import SnapshotRegistry
from repro.server.wire import decode_updates


def _p50_p90(times: list[float]) -> tuple[float, float]:
    return (
        round(statistics.median(times) * 1e3, 4),
        round(statistics.quantiles(times, n=10)[8] * 1e3, 4),
    )


def measure(name: str) -> dict[str, float]:
    workload = build(name, seed=0)
    batches = [
        decode_updates({"updates": op["updates"]})
        for stream in workload.streams
        for op in stream
        if op["op"] == "update"
    ]
    graph = workload.graph
    prior = FrozenGraph.freeze(graph)
    prior.successor_sets(), prior.predecessor_sets()
    patches = []
    for batch in batches:
        scratch = graph.copy()
        primitives = []
        for update in batch:
            for primitive in decompose(scratch, update):
                primitive.apply(scratch)
                primitives.append(primitive)
        start = time.perf_counter()
        patched = prior.patched(scratch, primitives)
        patches.append(time.perf_counter() - start)
        assert patched is not None
        graph, prior = scratch, patched
    fresh = FrozenGraph.freeze(graph)
    assert prior.successor_sets() == fresh.successor_sets()
    assert prior.predecessor_sets() == fresh.predecessor_sets()
    assert prior.to_graph() == graph

    # the same batches through the served write path (no WAL)
    registry = SnapshotRegistry()
    registry.register(name, workload.graph)
    publishes = []
    for batch in batches:
        start = time.perf_counter()
        registry.publish(name, batch)
        publishes.append(time.perf_counter() - start)
    assert registry.counters["patches"] == len(batches)
    patch_p50, patch_p90 = _p50_p90(patches)
    publish_p50, publish_p90 = _p50_p90(publishes)
    return {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "batches": len(batches),
        "patched_p50_ms": patch_p50,
        "patched_p90_ms": patch_p90,
        "publish_p50_ms": publish_p50,
        "publish_p90_ms": publish_p90,
    }


if __name__ == "__main__":
    names = sys.argv[1:] or ["serve_mixed_durable", "embedded_dynamic"]
    print(json.dumps({name: measure(name) for name in names}, indent=2))
