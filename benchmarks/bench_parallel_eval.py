"""E12 — parallel batch evaluation vs. sequential bounded simulation.

One workload on a seeded 50k-node collaboration graph, asserting (always)
that the parallel relations are *identical* to the sequential ones, and
asserting the wall-clock win where the hardware can physically deliver it:
12 distinct bounded hiring queries farmed whole to a 4-worker pool
(`QueryEngine.evaluate_many(workers=4)`).  The per-query serial fraction
is tiny (planning plus shared candidate generation), so this is the
near-embarrassingly-parallel case: with >= 4 cores it must beat sequential
evaluation by >= 1.5x (asserted).  A single query always runs in one
process; there is no per-query split to measure.

Worker processes cannot speed anything up without spare cores; on a host
with fewer cores than workers the speedup assertion is skipped (the skip
message carries the measured numbers, and the correctness assertions
still run).
Everything is seeded — the graph is ``collaboration_graph(50_000, seed=0)``
— so failures reproduce exactly.
"""

import os
import time

import pytest

from benchmarks.conftest import cached_collab, summary_recorder, team_pattern
from repro.engine.engine import QueryEngine

SIZE = 50_000
WORKERS = 4
CORES = os.cpu_count() or 1

summary = summary_recorder("E12", workers=WORKERS, graph_nodes=SIZE)


@pytest.fixture(scope="module")
def graph():
    return cached_collab(SIZE)


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
