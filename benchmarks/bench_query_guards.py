"""E16 — runaway-query guards: bombs die fast, good queries don't pay.

A shared engine cannot let one adversarial query starve every tenant; the
estimator-driven guards (PR 6) must make that promise *cheap*.  Three
claims on seeded generator graphs:

* **query bomb, node budget**: a wildcard-bound cycle with everything-
  matches predicates over a hub-heavy 20k-node ``twitter_like_graph``
  (unguarded: ~10^8 row entries, minutes of wall clock — the estimator's
  own cost projection is put on the record instead of timing it) returns
  a *partial* result under a 100k-visit budget in a few seconds, with the
  tripped guard and the visit count in ``MatchResult.stats``.
* **query bomb, wall clock**: the same bomb under a 0.5 s time limit
  stops at the cooperative guard's next check and returns partial well
  inside the CI smoke step's 60 s timeout.
* **well-behaved workload**: the recurring E11/E12 hiring query over a
  10k-node ``collaboration_graph`` with a generous budget is byte-
  identical to the unguarded run and regresses < 10% (best-of-three) —
  guards are pure insurance when nothing trips.

Every number lands in ``BENCH_E16.json`` (with host info and the budget
settings) for the perf trajectory.
"""

import time

import pytest

from benchmarks.conftest import (
    cached_collab,
    cached_twitter,
    summary_recorder,
    team_pattern,
)
from repro.engine.engine import QueryEngine
from repro.engine.estimator import QueryBudget, estimate_pattern
from repro.graph.frozen import FrozenGraph
from repro.matching.simulation import simulation_candidates
from repro.pattern.builder import PatternBuilder

BOMB_SIZE = 20_000
GOOD_SIZE = 10_000
BOMB_BUDGET = 100_000
BOMB_SECONDS = 0.5
GENEROUS = 10**9

summary = summary_recorder(
    "E16",
    bomb_graph_nodes=BOMB_SIZE,
    good_graph_nodes=GOOD_SIZE,
    bomb_budget_visits=BOMB_BUDGET,
    bomb_time_limit=BOMB_SECONDS,
    generous_budget_visits=GENEROUS,
)


def bomb_pattern():
    """Everything matches, every bound is ``'*'``, and the cycle keeps the
    removal fixpoint from pruning anything early: the planner's worst case."""
    return (
        PatternBuilder("bomb")
        .node("A", "experience >= 0", output=True)
        .node("B", "experience >= 0")
        .node("C", "experience >= 0")
        .edge("A", "B", None)
        .edge("B", "C", None)
        .edge("C", "A", None)
        .build(require_output=True)
    )


@pytest.fixture(scope="module")
def bomb_graph():
    return cached_twitter(BOMB_SIZE)


def best_of(runs, fn):
    best = None
    result = None
    for _ in range(runs):
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best, result = elapsed, value
    return best, result


def test_node_budget_defuses_bomb(bomb_graph, summary):
    """Guarded bomb: partial result in seconds, not the projected minutes."""
    pattern = bomb_pattern()
    frozen = FrozenGraph.freeze(bomb_graph)
    ids = frozen.ids()
    candidate_ids = {
        u: frozenset(ids[v] for v in vs)
        for u, vs in simulation_candidates(bomb_graph, pattern).items()
    }
    projection = estimate_pattern(frozen, pattern, candidate_ids)

    engine = QueryEngine()
    engine.register_graph("g", bomb_graph)
    budget = QueryBudget(node_visits=BOMB_BUDGET, allow_partial=True)
    start = time.perf_counter()
    result = engine.evaluate(
        "g", pattern, budget=budget, use_cache=False, cache_result=False
    )
    seconds = time.perf_counter() - start

    assert result.stats["partial"] is True, result.stats
    assert result.stats["guard"] == "node-budget", result.stats
    visits = result.stats["visits"]
    print(
        f"\n[E16/bomb] wildcard cycle on {BOMB_SIZE} nodes: estimator "
        f"projects ~{projection.total_visits:.3g} visits unguarded; guarded "
        f"run stopped after {visits} visits in {seconds:.2f}s"
    )
    summary.record(
        "node_budget_bomb",
        seconds=seconds,
        visits=visits,
        projected_visits=projection.total_visits,
        pairs=result.relation.num_pairs,
    )
    # Charge granularity (per-source balls, bitset arrival batches) lets
    # the budget overshoot by bounded slop — never by the orders of
    # magnitude the unguarded bomb costs.
    assert visits < BOMB_BUDGET * 2, (visits, BOMB_BUDGET)
    assert seconds < 30.0, f"guarded bomb took {seconds:.1f}s"


def test_time_limit_aborts_sharded_bomb(bomb_graph, summary):
    """The wall-clock guard stops the inline bomb and returns partial.

    (The name is historical: the bomb used to run sharded across worker
    processes that the deadline killed.)"""
    pattern = bomb_pattern()
    engine = QueryEngine()
    engine.register_graph("g", bomb_graph)
    budget = QueryBudget(seconds=BOMB_SECONDS, allow_partial=True)
    start = time.perf_counter()
    result = engine.evaluate(
        "g",
        pattern,
        budget=budget,
        use_cache=False,
        cache_result=False,
    )
    seconds = time.perf_counter() - start

    assert result.stats["partial"] is True, result.stats
    print(
        f"\n[E16/time-limit] inline bomb with a {BOMB_SECONDS}s "
        f"limit: aborted after {seconds:.2f}s wall clock "
        f"(guard={result.stats['guard']})"
    )
    summary.record(
        "time_limit_bomb",
        seconds=seconds,
        limit=BOMB_SECONDS,
        guard=result.stats["guard"],
    )
    # Freezing the snapshot and the post-trip removal fixpoint are outside
    # the limit; what matters is staying orders of magnitude under the
    # unguarded minutes (and the CI smoke step's 60s timeout).
    assert seconds < 30.0, f"time-limited bomb took {seconds:.1f}s"


def test_guards_are_free_when_nothing_trips(summary):
    """Well-behaved query + generous budget: identical result, < 10% cost."""
    graph = cached_collab(GOOD_SIZE)
    pattern = team_pattern()
    engine = QueryEngine()
    engine.register_graph("g", graph)
    kwargs = dict(use_cache=False, cache_result=False)
    budget = QueryBudget(node_visits=GENEROUS, allow_partial=True)

    baseline = engine.evaluate("g", pattern, **kwargs)  # warms the snapshot
    guarded_once = engine.evaluate("g", pattern, budget=budget, **kwargs)
    assert guarded_once.stats.get("partial") is False, guarded_once.stats
    assert guarded_once.relation == baseline.relation
    assert guarded_once.relation.to_dict() == baseline.relation.to_dict()

    # Best-of-5: the workload is ~100ms, so scheduler jitter on a small
    # CI host can dwarf the effect being measured with fewer runs.
    t_plain, plain = best_of(5, lambda: engine.evaluate("g", pattern, **kwargs))
    t_guarded, guarded = best_of(
        5, lambda: engine.evaluate("g", pattern, budget=budget, **kwargs)
    )
    assert guarded.relation == plain.relation  # identity, always
    ratio = t_guarded / t_plain
    print(
        f"\n[E16/overhead] hiring query on {GOOD_SIZE} nodes "
        f"({plain.relation.num_pairs} pairs): unguarded {t_plain:.3f}s, "
        f"guarded {t_guarded:.3f}s -> {ratio:.2f}x "
        f"({guarded.stats['visits']} visits charged)"
    )
    summary.record(
        "well_behaved_overhead",
        seconds_unguarded=t_plain,
        seconds_guarded=t_guarded,
        ratio=ratio,
        visits=guarded.stats["visits"],
        pairs=plain.relation.num_pairs,
    )
    assert ratio <= 1.10, (
        f"guards must cost < 10% on well-behaved workloads, got {ratio:.2f}x"
    )
