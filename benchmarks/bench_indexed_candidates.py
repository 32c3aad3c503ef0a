"""E11 — indexed candidate generation and batched query evaluation.

Three comparisons on generator graphs:

* **scan vs. index** — :func:`simulation_candidates` re-evaluates every
  pattern predicate on every node; :func:`candidates_from_index` answers
  the whole ``field == X and experience >= N`` conjunction from attribute
  postings: the ``field`` posting bounds the answer, and the range is one
  comparison per distinct ``experience`` value plus a set intersection of
  each passing posting with it — no predicate call per node.  On a
  10k-node collaboration graph the indexed path must win (asserted).
* **sequential vs. batch** — 20 hiring queries drawn from a small predicate
  vocabulary, evaluated one ``evaluate()`` at a time vs. one
  ``evaluate_many()`` that computes each distinct predicate's candidates
  once.
* **end-to-end** — full bounded-simulation matching with and without the
  attribute index, to show candidate generation's share of total cost.

Expected shape: index > scan for candidate generation (~23x at 10k nodes;
~4x when range conjuncts were still verified node by node);
batch > sequential for 20 *distinct* predicate-sharing queries (~1.15x
wall-clock — the cubic refinement each query still pays dominates, while
predicate evaluations drop by the sharing factor, asserted in
tests/test_batch_eval.py; batches with *repeated* queries win much more,
since evaluate_many also dedups whole queries); end-to-end matching wins
modestly (~1.2x) since refinement dominates once candidates are cheap.
"""

import time

import pytest

from benchmarks.conftest import cached_collab, summary_recorder, team_pattern
from repro.engine.engine import QueryEngine
from repro.graph.index import AttributeIndex, candidates_from_index
from repro.matching.bounded import match_bounded
from repro.matching.simulation import simulation_candidates
from repro.pattern.builder import PatternBuilder

SIZE = 10_000

summary = summary_recorder("E11")


def _warm_index(graph) -> AttributeIndex:
    index = AttributeIndex(graph)
    index.lookup("field", "SA")  # force the lazy build outside the timer
    return index


def _query_mix(count: int = 20):
    """Hiring queries over a small shared predicate vocabulary.

    Every pattern is structurally distinct (seniority cycles through 3
    thresholds, the four edge bounds enumerate bit patterns of ``i``), so
    the batch speedup measures *shared candidate generation*, not the
    whole-query dedup evaluate_many also performs for repeated patterns.
    """
    patterns = []
    for i in range(count):
        senior = 4 + (i % 3)
        b1, b2, b3, b4 = (1 + ((i >> shift) & 1) for shift in range(4))
        patterns.append(
            PatternBuilder(f"team-{i}")
            .node("SA", f"experience >= {senior}", field="SA", output=True)
            .node("SD", "experience >= 2", field="SD")
            .node("BA", "experience >= 2", field="BA")
            .node("ST", "experience >= 2", field="ST")
            .edge("SA", "SD", b1)
            .edge("SA", "BA", b2)
            .edge("SD", "ST", b3)
            .edge("BA", "ST", b4)
            .build(require_output=True)
        )
    assert len({p.canonical_key() for p in patterns}) == count
    return patterns


@pytest.mark.benchmark(group="E11-candidates")
def test_scan_candidates(benchmark):
    graph = cached_collab(SIZE)
    pattern = team_pattern()
    candidates = benchmark(lambda: simulation_candidates(graph, pattern))
    benchmark.extra_info["graph_size"] = graph.size
    benchmark.extra_info["candidates"] = sum(len(v) for v in candidates.values())


@pytest.mark.benchmark(group="E11-candidates")
def test_indexed_candidates(benchmark):
    graph = cached_collab(SIZE)
    pattern = team_pattern()
    index = _warm_index(graph)
    candidates = benchmark(lambda: candidates_from_index(graph, pattern, index))
    benchmark.extra_info["graph_size"] = graph.size
    benchmark.extra_info["candidates"] = sum(len(v) for v in candidates.values())
    benchmark.extra_info["index_stats"] = index.stats()


@pytest.mark.benchmark(group="E11-candidates")
def test_shape_index_beats_scan_at_10k(benchmark, summary):
    """Acceptance criterion: indexed candidate generation beats the
    full-node scan on a 10k-node generator graph."""
    graph = cached_collab(SIZE)
    pattern = team_pattern()
    index = _warm_index(graph)

    def measure():
        # Interleaved min-of-3: robust to a noisy-neighbor stall hitting one
        # measurement on a shared CI runner.
        scan_times, index_times = [], []
        for _ in range(3):
            started = time.perf_counter()
            scanned = simulation_candidates(graph, pattern)
            scan_times.append(time.perf_counter() - started)
            started = time.perf_counter()
            indexed = candidates_from_index(graph, pattern, index)
            index_times.append(time.perf_counter() - started)
            assert indexed == scanned  # same answer, different cost
        return min(scan_times), min(index_times)

    scan_seconds, index_seconds = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["scan_seconds"] = round(scan_seconds, 5)
    benchmark.extra_info["index_seconds"] = round(index_seconds, 5)
    benchmark.extra_info["speedup"] = round(scan_seconds / index_seconds, 1)
    summary.record(
        "indexed_candidates",
        seconds_scan=scan_seconds,
        seconds_index=index_seconds,
        speedup=scan_seconds / index_seconds,
    )
    assert index_seconds < scan_seconds


@pytest.mark.benchmark(group="E11-batch")
def test_sequential_twenty_queries(benchmark):
    graph = cached_collab(SIZE)
    patterns = _query_mix(20)

    def sequential():
        engine = QueryEngine()
        engine.register_graph("g", graph)
        return [
            engine.evaluate("g", p, use_cache=False, cache_result=False)
            for p in patterns
        ]

    results = benchmark(sequential)
    benchmark.extra_info["total_pairs"] = sum(r.relation.num_pairs for r in results)


@pytest.mark.benchmark(group="E11-batch")
def test_batched_twenty_queries(benchmark):
    graph = cached_collab(SIZE)
    patterns = _query_mix(20)

    def batched():
        engine = QueryEngine()
        engine.register_graph("g", graph)
        return engine.evaluate_many("g", patterns, use_cache=False, cache_result=False)

    results = benchmark(batched)
    benchmark.extra_info["total_pairs"] = sum(r.relation.num_pairs for r in results)
    benchmark.extra_info["distinct_predicates"] = results[0].stats["batch"][
        "distinct_predicates"
    ]


@pytest.mark.benchmark(group="E11-end-to-end")
def test_match_bounded_scan(benchmark):
    graph = cached_collab(SIZE)
    pattern = team_pattern()
    result = benchmark(lambda: match_bounded(graph, pattern))
    benchmark.extra_info["match_pairs"] = result.relation.num_pairs


@pytest.mark.benchmark(group="E11-end-to-end")
def test_match_bounded_indexed(benchmark):
    graph = cached_collab(SIZE)
    pattern = team_pattern()
    index = _warm_index(graph)
    result = benchmark(lambda: match_bounded(graph, pattern, index=index))
    benchmark.extra_info["match_pairs"] = result.relation.num_pairs
