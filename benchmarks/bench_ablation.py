"""Ablation benchmarks for the design choices DESIGN.md calls out.

ABL-1  The bounded matcher's materialized successor index (S/R/cnt with a
       removal worklist) versus the naive fixpoint that re-runs truncated
       BFS on every refinement round — why the cubic algorithm is
       implemented the way it is.
ABL-2  The engine's route ladder: the same query served from the cache,
       from the compressed graph, and directly — quantifying what each
       §II mechanism buys.
ABL-3  Result-graph construction from matcher state versus fresh BFS —
       the payoff of keeping the matcher's S-index alive.
"""

import pytest

from benchmarks.conftest import cached_collab, cached_twitter, team_pattern
from repro.engine.engine import QueryEngine
from repro.matching.bounded import match_bounded
from repro.matching.reference import naive_bounded
from repro.matching.result_graph import build_result_graph


@pytest.mark.parametrize("size", (300, 800))
@pytest.mark.benchmark(group="ABL1-indexed-matcher")
def test_indexed_bounded_matcher(benchmark, size):
    graph = cached_collab(size)
    pattern = team_pattern()
    result = benchmark(lambda: match_bounded(graph, pattern))
    benchmark.extra_info["match_pairs"] = result.relation.num_pairs


@pytest.mark.parametrize("size", (300, 800))
@pytest.mark.benchmark(group="ABL1-naive-matcher")
def test_naive_bounded_matcher(benchmark, size):
    graph = cached_collab(size)
    pattern = team_pattern()
    relation = benchmark.pedantic(
        lambda: naive_bounded(graph, pattern), rounds=3, iterations=1
    )
    benchmark.extra_info["match_pairs"] = relation.num_pairs


@pytest.mark.benchmark(group="ABL1-shape")
def test_shape_index_beats_naive(benchmark):
    """The indexed matcher must clearly beat the executable specification
    (they agree on the answer; only cost differs)."""
    import time

    graph = cached_collab(800)
    pattern = team_pattern()

    def measure():
        started = time.perf_counter()
        fast = match_bounded(graph, pattern).relation
        fast_seconds = time.perf_counter() - started
        started = time.perf_counter()
        slow = naive_bounded(graph, pattern)
        slow_seconds = time.perf_counter() - started
        assert fast == slow
        return fast_seconds, slow_seconds

    fast_seconds, slow_seconds = benchmark.pedantic(measure, rounds=3, iterations=1)
    benchmark.extra_info["indexed_ms"] = round(fast_seconds * 1e3, 2)
    benchmark.extra_info["naive_ms"] = round(slow_seconds * 1e3, 2)
    assert fast_seconds < slow_seconds


@pytest.fixture(scope="module")
def routed_engine():
    engine = QueryEngine()
    engine.register_graph("tw", cached_twitter(3000).copy())
    engine.compress_graph("tw", attrs=("field", "experience"))
    return engine


@pytest.mark.benchmark(group="ABL2-routes")
def test_route_direct(benchmark, routed_engine):
    pattern = team_pattern()
    result = benchmark(
        lambda: routed_engine.evaluate(
            "tw", pattern, use_cache=False, use_compression=False, cache_result=False
        )
    )
    assert result.stats["route"] == "direct"


@pytest.mark.benchmark(group="ABL2-routes")
def test_route_compressed(benchmark, routed_engine):
    pattern = team_pattern()
    result = benchmark(
        lambda: routed_engine.evaluate(
            "tw", pattern, use_cache=False, cache_result=False
        )
    )
    assert result.stats["route"] == "compressed"


@pytest.mark.benchmark(group="ABL2-routes")
def test_route_cache(benchmark, routed_engine):
    pattern = team_pattern()
    routed_engine.evaluate("tw", pattern)  # warm the cache
    result = benchmark(lambda: routed_engine.evaluate("tw", pattern))
    assert result.stats["route"] == "cache"


@pytest.mark.parametrize("size", (500, 1500))
@pytest.mark.benchmark(group="ABL3-result-graph-from-state")
def test_result_graph_from_state(benchmark, size):
    result = match_bounded(cached_collab(size), team_pattern(senior=4))
    benchmark(
        lambda: build_result_graph(
            result.graph, result.pattern, result.relation, state=result._state
        )
    )


@pytest.mark.parametrize("size", (500, 1500))
@pytest.mark.benchmark(group="ABL3-result-graph-fresh-bfs")
def test_result_graph_fresh_bfs(benchmark, size):
    result = match_bounded(cached_collab(size), team_pattern(senior=4))
    benchmark(
        lambda: build_result_graph(
            result.graph, result.pattern, result.relation, state=None
        )
    )
