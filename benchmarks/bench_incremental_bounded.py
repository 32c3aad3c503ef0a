"""E6 — incremental vs batch evaluation, bounded simulation.

The paper: incremental beats batch "up to ... 10% for bounded simulation"
— a smaller crossover than the simulation case, because each unit update
triggers bounded-BFS work over its neighbourhood rather than one counter
touch.

Expected shape: incremental wins clearly at 1%, the margin narrows faster
than in E5, and batch recomputation overtakes at a smaller ΔG.
"""

import time

import pytest

from benchmarks.conftest import cached_collab, team_pattern
from repro.incremental.inc_bounded import IncrementalBoundedSimulation
from repro.incremental.updates import apply_updates, random_updates
from repro.matching.bounded import match_bounded

GRAPH_NODES = 800
PERCENTS = (1, 5, 10, 20)


def _make_batch(graph, percent, seed=321):
    count = max(1, graph.num_edges * percent // 100)
    return random_updates(graph, count, seed=seed)


@pytest.mark.parametrize("percent", PERCENTS)
@pytest.mark.benchmark(group="E6-incremental-bounded")
def test_incremental_bounded(benchmark, percent):
    base = cached_collab(GRAPH_NODES)
    pattern = team_pattern()

    def setup():
        graph = base.copy()
        maintainer = IncrementalBoundedSimulation(graph, pattern)
        batch = _make_batch(graph, percent)
        return (maintainer, batch), {}

    benchmark.pedantic(
        lambda maintainer, batch: apply_updates(maintainer.graph, batch, [maintainer.apply]),
        setup=setup, rounds=5, iterations=1,
    )
    benchmark.extra_info["percent_changed"] = percent
    benchmark.extra_info["updates"] = max(1, base.num_edges * percent // 100)


@pytest.mark.parametrize("percent", PERCENTS)
@pytest.mark.benchmark(group="E6-batch-bounded")
def test_batch_recompute_bounded(benchmark, percent):
    base = cached_collab(GRAPH_NODES)
    pattern = team_pattern()

    def setup():
        graph = base.copy()
        for update in _make_batch(graph, percent):
            update.apply(graph)
        return (graph,), {}

    benchmark.pedantic(
        lambda graph: match_bounded(graph, pattern),
        setup=setup, rounds=5, iterations=1,
    )
    benchmark.extra_info["percent_changed"] = percent


@pytest.mark.benchmark(group="E6-shape")
def test_shape_crossover_is_tighter_than_simulation(benchmark):
    """Shape check: incremental wins at 1% and the incremental/batch time
    ratio degrades as ΔG grows (the crossover mechanism)."""
    base = cached_collab(GRAPH_NODES)
    pattern = team_pattern()

    def ratio_for(count: int) -> float:
        graph = base.copy()
        maintainer = IncrementalBoundedSimulation(graph, pattern)
        batch = random_updates(graph, count, seed=321)
        started = time.perf_counter()
        apply_updates(maintainer.graph, batch, [maintainer.apply])
        incremental_seconds = time.perf_counter() - started

        fresh = base.copy()
        for update in batch:
            update.apply(fresh)
        started = time.perf_counter()
        recomputed = match_bounded(fresh, pattern)
        batch_seconds = time.perf_counter() - started
        assert maintainer.relation() == recomputed.relation
        return incremental_seconds / batch_seconds

    def measure():
        unit = ratio_for(1)  # the paper's "unit update" case
        large = ratio_for(max(1, base.num_edges * 20 // 100))
        return unit, large

    unit_ratio, large_ratio = benchmark.pedantic(measure, rounds=3, iterations=1)
    benchmark.extra_info["ratio_unit_update"] = round(unit_ratio, 3)
    benchmark.extra_info["ratio_at_20pct"] = round(large_ratio, 3)
    assert unit_ratio < 1.0          # a unit update clearly beats recomputation
    assert large_ratio > unit_ratio  # the advantage erodes with ΔG
