"""E12 — parallel sharded evaluation vs. sequential bounded simulation.

Two workloads on a seeded 50k-node collaboration graph, both asserting
(always) that the parallel relation is *identical* to the sequential one,
and asserting wall-clock wins where the hardware can physically deliver
them:

* **per-batch parallelism** — 12 distinct bounded hiring queries farmed
  whole to a 4-worker pool (`QueryEngine.evaluate_many(workers=4)`).  The
  per-query serial fraction is tiny (planning plus shared candidate
  generation), so this is the near-embarrassingly-parallel case: with >= 4
  cores it must beat sequential evaluation by >= 1.5x (asserted).
* **per-query sharding** — one big query's candidates partitioned into pivot shards
  (`ParallelExecutor.match`).  Amdahl bites harder here: partitioning, row
  merging and the removal fixpoint stay serial, so on >= 4 cores the bar
  is only a catastrophic-regression floor (asserted >= 0.5x — contended
  shared runners hover around break-even, and a hard "must win" assert
  would be flaky there) and the measured number is reported either way.

Worker processes cannot speed anything up without spare cores; on a
single-core host both speedup assertions are skipped (the skip message
carries the measured numbers, and the correctness assertions still run).
Everything is seeded — the graph is ``collaboration_graph(50_000, seed=0)``
— so failures reproduce exactly.
"""

import os
import time

import pytest

from benchmarks.conftest import cached_collab, summary_recorder, team_pattern
from repro.engine.engine import QueryEngine
from repro.engine.parallel import ParallelExecutor
from repro.graph.index import AttributeIndex
from repro.matching.bounded import match_bounded

SIZE = 50_000
WORKERS = 4
CORES = os.cpu_count() or 1

summary = summary_recorder("E12", workers=WORKERS, graph_nodes=SIZE)


@pytest.fixture(scope="module")
def graph():
    return cached_collab(SIZE)


def _warm_index(graph) -> AttributeIndex:
    index = AttributeIndex(graph)
    index.lookup("field", "SA")  # force the lazy build outside the timers
    return index


def _require_cores(speedup: float, label: str) -> None:
    """Skip the wall-clock assertion when the host cannot parallelise."""
    if CORES < WORKERS:
        pytest.skip(
            f"{label}: host has {CORES} core(s); {WORKERS} workers cannot win "
            f"wall-clock here (measured {speedup:.2f}x; results identical)"
        )


def test_batch_parallel_beats_sequential(graph, summary):
    """12 distinct bounded queries, sequential engine vs. 4-worker batch."""
    patterns = [
        team_pattern(bound=bound, senior=senior)
        for bound in (2, 3)
        for senior in (2, 3, 4, 5, 6, 7)
    ]
    engine = QueryEngine()
    engine.register_graph("bench", graph)
    engine.attr_index_stats("bench")  # attach cost is nil; warm via first run

    # Fair baseline: the single-process batch evaluator, so the measured
    # speedup isolates worker parallelism from PR 1's shared-candidate
    # batching (which both sides get).
    start = time.perf_counter()
    sequential = engine.evaluate_many(
        "bench", patterns, use_cache=False, cache_result=False
    )
    t_seq = time.perf_counter() - start

    start = time.perf_counter()
    parallel = engine.evaluate_many(
        "bench", patterns, use_cache=False, cache_result=False, workers=WORKERS
    )
    t_par = time.perf_counter() - start

    for seq_result, par_result in zip(sequential, parallel):
        assert par_result.relation == seq_result.relation  # always, any host

    speedup = t_seq / t_par
    print(
        f"\n[E12/batch] {len(patterns)} bounded queries on {SIZE} nodes: "
        f"sequential {t_seq:.2f}s, {WORKERS}-worker batch {t_par:.2f}s "
        f"-> {speedup:.2f}x ({CORES} cores)"
    )
    summary.record(
        "batch",
        seconds_sequential=t_seq,
        seconds_parallel=t_par,
        speedup=speedup,
        workers=WORKERS,
        cores=CORES,
    )
    _require_cores(speedup, "batch")
    assert speedup >= 1.5, (
        f"expected >= 1.5x from {WORKERS}-worker batching on {CORES} cores, "
        f"got {speedup:.2f}x"
    )


def test_sharded_query_parallelism(graph, summary):
    """One heavy query, sequential matcher vs. pivot-sharded 4-worker pool."""
    pattern = team_pattern(bound=3)
    index = _warm_index(graph)

    start = time.perf_counter()
    sequential = match_bounded(graph, pattern, index=index)
    t_seq = time.perf_counter() - start

    with ParallelExecutor(WORKERS) as executor:
        start = time.perf_counter()
        parallel = executor.match(graph, pattern, index=index)
        t_par = time.perf_counter() - start

    assert parallel.relation == sequential.relation  # always, any host
    info = parallel.stats["parallel"]
    assert info["shards"] == WORKERS

    speedup = t_seq / t_par
    print(
        f"\n[E12/sharded] bound-3 team query on {SIZE} nodes: "
        f"sequential {t_seq:.2f}s, {info['shards']} shards / {WORKERS} workers "
        f"{t_par:.2f}s -> {speedup:.2f}x "
        f"(shipping={info['shipping']}, {info['pivots']} pivots, {CORES} cores)"
    )
    summary.record(
        "sharded",
        seconds_sequential=t_seq,
        seconds_parallel=t_par,
        speedup=speedup,
        shipping=info["shipping"],
        cores=CORES,
    )
    _require_cores(speedup, "sharded")
    assert speedup >= 0.5, (
        f"sharded evaluation regressed catastrophically on {CORES} cores: "
        f"{speedup:.2f}x"
    )
