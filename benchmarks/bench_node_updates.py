"""E11 (extension) — node-level update maintenance vs recomputation.

The paper's ΔG covers edge updates only; this repository extends the
incremental module to attribute changes and node insertions/deletions
(DESIGN.md §4b).  This bench shows the extension preserves the E5/E6
economics: small node-level changes are far cheaper to maintain than to
recompute, with attribute flips (pure candidacy changes) cheapest of all.
"""

import pytest

from benchmarks.conftest import cached_collab, team_pattern
from repro.incremental.inc_bounded import IncrementalBoundedSimulation
from repro.incremental.updates import (
    AttributeUpdate,
    EdgeInsertion,
    NodeInsertion,
    apply_updates,
)
from repro.matching.bounded import match_bounded

GRAPH_NODES = 800


def _attribute_flips(graph, count, seed=11):
    import random

    rng = random.Random(seed)
    nodes = list(graph.nodes())
    return [
        AttributeUpdate(rng.choice(nodes), "experience", rng.randint(1, 12))
        for _ in range(count)
    ]


@pytest.mark.parametrize("count", (1, 10, 50))
@pytest.mark.benchmark(group="E11-attr-incremental")
def test_attribute_updates_incremental(benchmark, count):
    base = cached_collab(GRAPH_NODES)
    pattern = team_pattern(senior=4)

    def setup():
        graph = base.copy()
        maintainer = IncrementalBoundedSimulation(graph, pattern)
        return (maintainer, _attribute_flips(graph, count)), {}

    benchmark.pedantic(
        lambda maintainer, batch: apply_updates(maintainer.graph, batch, [maintainer.apply]),
        setup=setup, rounds=5, iterations=1,
    )
    benchmark.extra_info["updates"] = count


@pytest.mark.parametrize("count", (1, 10, 50))
@pytest.mark.benchmark(group="E11-attr-batch")
def test_attribute_updates_recompute(benchmark, count):
    base = cached_collab(GRAPH_NODES)
    pattern = team_pattern(senior=4)

    def setup():
        graph = base.copy()
        for update in _attribute_flips(graph, count):
            update.apply(graph)
        return (graph,), {}

    benchmark.pedantic(
        lambda graph: match_bounded(graph, pattern),
        setup=setup, rounds=5, iterations=1,
    )
    benchmark.extra_info["updates"] = count


@pytest.mark.benchmark(group="E11-hire")
def test_hire_scenario_incremental(benchmark):
    """The graph-editor scenario: hire one person and wire three edges."""
    base = cached_collab(GRAPH_NODES)
    pattern = team_pattern(senior=4)

    def setup():
        graph = base.copy()
        maintainer = IncrementalBoundedSimulation(graph, pattern)
        nodes = list(graph.nodes())
        batch = [
            NodeInsertion.with_attrs(
                "hire", field="SA", specialty="system architect", experience=9
            ),
            EdgeInsertion("hire", nodes[10]),
            EdgeInsertion("hire", nodes[20]),
            EdgeInsertion("hire", nodes[30]),
        ]
        return (maintainer, batch), {}

    benchmark.pedantic(
        lambda maintainer, batch: apply_updates(maintainer.graph, batch, [maintainer.apply]),
        setup=setup, rounds=5, iterations=1,
    )


@pytest.mark.benchmark(group="E11-shape")
def test_shape_attribute_maintenance_beats_recompute(benchmark):
    import time

    base = cached_collab(GRAPH_NODES)
    pattern = team_pattern(senior=4)

    def measure():
        graph = base.copy()
        maintainer = IncrementalBoundedSimulation(graph, pattern)
        batch = _attribute_flips(graph, 10)
        started = time.perf_counter()
        apply_updates(maintainer.graph, batch, [maintainer.apply])
        incremental_seconds = time.perf_counter() - started

        fresh = base.copy()
        for update in batch:
            update.apply(fresh)
        started = time.perf_counter()
        recomputed = match_bounded(fresh, pattern)
        recompute_seconds = time.perf_counter() - started
        assert maintainer.relation() == recomputed.relation
        return incremental_seconds, recompute_seconds

    incremental_seconds, recompute_seconds = benchmark.pedantic(
        measure, rounds=3, iterations=1
    )
    benchmark.extra_info["incremental_ms"] = round(incremental_seconds * 1e3, 2)
    benchmark.extra_info["recompute_ms"] = round(recompute_seconds * 1e3, 2)
    assert incremental_seconds < recompute_seconds