"""E5 — incremental vs batch evaluation, plain simulation.

The paper: "our incremental module performs significantly better than their
batch counterparts, when data graphs are changed up to 30% for simulation".

This bench varies the batch size ΔG as a percentage of |E| and times
(a) maintaining the match through the incremental module versus
(b) applying the updates and recomputing from scratch.

Expected shape: incremental wins comfortably at small ΔG; the advantage
shrinks as ΔG grows and inverts somewhere past tens of percent.
"""

import time

import pytest

from benchmarks.conftest import cached_collab, unit_pattern
from repro.incremental.inc_simulation import IncrementalSimulation
from repro.incremental.updates import apply_updates, random_updates
from repro.matching.simulation import match_simulation

GRAPH_NODES = 1500
PERCENTS = (1, 5, 10, 30, 50)


def _make_batch(graph, percent, seed=123):
    count = max(1, graph.num_edges * percent // 100)
    return random_updates(graph, count, seed=seed)


@pytest.mark.parametrize("percent", PERCENTS)
@pytest.mark.benchmark(group="E5-incremental-sim")
def test_incremental_simulation(benchmark, percent):
    base = cached_collab(GRAPH_NODES)
    pattern = unit_pattern()

    def setup():
        graph = base.copy()
        maintainer = IncrementalSimulation(graph, pattern)
        batch = _make_batch(graph, percent)
        return (maintainer, batch), {}

    def run(maintainer, batch):
        apply_updates(maintainer.graph, batch, [maintainer.apply])

    benchmark.pedantic(run, setup=setup, rounds=5, iterations=1)
    benchmark.extra_info["percent_changed"] = percent
    benchmark.extra_info["updates"] = max(1, base.num_edges * percent // 100)


@pytest.mark.parametrize("percent", PERCENTS)
@pytest.mark.benchmark(group="E5-batch-sim")
def test_batch_recompute_simulation(benchmark, percent):
    base = cached_collab(GRAPH_NODES)
    pattern = unit_pattern()

    def setup():
        graph = base.copy()
        for update in _make_batch(graph, percent):
            update.apply(graph)
        return (graph,), {}

    benchmark.pedantic(
        lambda graph: match_simulation(graph, pattern),
        setup=setup, rounds=5, iterations=1,
    )
    benchmark.extra_info["percent_changed"] = percent


@pytest.mark.benchmark(group="E5-shape")
def test_shape_incremental_wins_at_small_delta(benchmark):
    """Shape check: at ΔG = 1% the incremental module beats recomputation,
    and the two agree on the final relation."""
    base = cached_collab(GRAPH_NODES)
    pattern = unit_pattern()

    def measure():
        graph = base.copy()
        maintainer = IncrementalSimulation(graph, pattern)
        batch = _make_batch(graph, 1)
        started = time.perf_counter()
        apply_updates(maintainer.graph, batch, [maintainer.apply])
        incremental_seconds = time.perf_counter() - started

        fresh = base.copy()
        for update in batch:
            update.apply(fresh)
        started = time.perf_counter()
        recomputed = match_simulation(fresh, pattern)
        batch_seconds = time.perf_counter() - started
        assert maintainer.relation() == recomputed.relation
        return incremental_seconds, batch_seconds

    incremental_seconds, batch_seconds = benchmark.pedantic(
        measure, rounds=3, iterations=1
    )
    benchmark.extra_info["incremental_seconds"] = round(incremental_seconds, 5)
    benchmark.extra_info["batch_seconds"] = round(batch_seconds, 5)
    assert incremental_seconds < batch_seconds
