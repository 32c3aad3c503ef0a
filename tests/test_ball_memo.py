"""The per-source ball memo of a frozen snapshot (``FrozenGraph._balls``).

The per-source row kernel keeps each source's BFS level sets on the
snapshot from the second time a source is asked for, so later requests
are slices.  What it
must never change: the rows (values *and* dict order), a guard's charges,
and any snapshot it was not made on — nothing carries it, patches, twins,
pickles and snapshot files included.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.engine import planner
from repro.engine.estimator import QueryBudget
from repro.errors import BudgetExceededError
from repro.graph.frozen import FrozenGraph
from repro.graph.generators import collaboration_graph, random_digraph
from repro.incremental.updates import EdgeInsertion
from repro.matching import bounded as bounded_module
from repro.matching.bounded import frozen_successor_rows, match_bounded
from repro.pattern.pattern import Pattern
from tests.test_frozen_patch import apply_batch

SEEDS = range(6)


def ordered(rows) -> list:
    """``rows`` with every dict turned into its item list: equal iff the
    rows are equal *and* iterate in the same order."""
    return [
        (edge, [(source, list(row.items())) for source, row in edge_rows.items()])
        for edge, edge_rows in rows.items()
    ]


def case(seed: int, shared: bool) -> tuple[FrozenGraph, dict, dict]:
    """A seeded snapshot, out-edges with bounds 1-4 and candidate ids.

    ``shared`` gives the two source pattern nodes overlapping candidate
    sets, so one call walks some sources twice; otherwise they are
    disjoint."""
    rng = random.Random(seed)
    graph = random_digraph(rng.randint(30, 60), rng.randint(60, 180), seed=seed)
    frozen = FrozenGraph.freeze(graph)
    ids = list(range(frozen.num_nodes))
    rng.shuffle(ids)
    half = len(ids) // 2
    first = frozenset(ids[: half + (half // 2 if shared else 0)])
    second = frozenset(ids[half:])
    candidates = {"A": first, "B": second, "C": frozenset(ids[::2]), "D": frozenset(ids[1::3])}
    out_edges = {
        "A": (("C", rng.randint(1, 4)), ("D", rng.randint(1, 4))),
        "B": (("C", rng.randint(1, 4)),),
    }
    return frozen, out_edges, candidates


def unmemoised_rows(frozen, out_edges, candidates, monkeypatch) -> dict:
    """The rows of a snapshot whose memo admits no nonempty ball."""
    twin = pickle.loads(pickle.dumps(frozen))
    with monkeypatch.context() as patch:
        patch.setattr(bounded_module, "FROZEN_BALL_MEMO_FACTOR", 0)
        rows = frozen_successor_rows(twin, out_edges, candidates)
    assert not any(levels for _, levels, _ in twin._balls.entries.values())
    return rows


def per_source_log(frozen, out_edges, candidates) -> dict:
    log: dict = {}
    rows = frozen_successor_rows(frozen, out_edges, candidates, kernel_log=log)
    assert {route.kernel for route in log.values()} == {planner.KERNEL_PER_SOURCE}
    return rows


class TestRows:
    @pytest.mark.parametrize("shared", [False, True], ids=["apart", "shared"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_cold_and_warm_memo_rows_equal_unmemoised_rows(self, seed, shared, monkeypatch):
        frozen, out_edges, candidates = case(seed, shared)
        expected = ordered(unmemoised_rows(frozen, out_edges, candidates, monkeypatch))
        assert frozen._balls is None
        cold = per_source_log(frozen, out_edges, candidates)
        # A ball is stored on its second request: after one call, only
        # the sources both groups walked.
        assert set(frozen._balls.entries) == (
            candidates["A"] & candidates["B"] if shared else set()
        )
        filling = per_source_log(frozen, out_edges, candidates)
        assert set(frozen._balls.entries) == candidates["A"] | candidates["B"]
        entries = dict(frozen._balls.entries)
        warm = per_source_log(frozen, out_edges, candidates)
        assert ordered(cold) == ordered(filling) == ordered(warm) == expected
        assert frozen._balls.entries == entries  # a warm call admits nothing new

    @pytest.mark.parametrize("shared", [False, True], ids=["apart", "shared"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_deeper_request_replaces_a_shallow_entry(self, seed, shared, monkeypatch):
        frozen, out_edges, candidates = case(seed, shared)
        deep = {u: tuple((v, 4) for v, _ in edges) for u, edges in out_edges.items()}
        shallow = {u: tuple((v, 1) for v, _ in edges) for u, edges in out_edges.items()}
        expected_shallow = unmemoised_rows(frozen, shallow, candidates, monkeypatch)
        expected_deep = unmemoised_rows(frozen, deep, candidates, monkeypatch)
        for _ in range(2):
            assert ordered(per_source_log(frozen, shallow, candidates)) == ordered(
                expected_shallow
            )
        depths = {reach for reach, _, _ in frozen._balls.entries.values()}
        assert frozen._balls.entries and depths <= {1, None}
        assert ordered(per_source_log(frozen, deep, candidates)) == ordered(expected_deep)
        memo = frozen._balls
        assert {reach for reach, _, _ in memo.entries.values()} <= {4, None}
        # ... and the deep entries still answer the shallow request
        assert ordered(per_source_log(frozen, shallow, candidates)) == ordered(expected_shallow)
        assert memo.held == sum(size for _, _, size in memo.entries.values())

    def test_bounds_1_to_4_over_one_memo(self, monkeypatch):
        frozen, _, candidates = case(11, shared=True)
        expected = {
            bound: unmemoised_rows(
                frozen, {"A": (("C", bound),), "B": (("D", bound),)}, candidates, monkeypatch
            )
            for bound in (1, 2, 3, 4)
        }
        for bound in (2, 4, 1, 3, 4, 2):
            rows = per_source_log(
                frozen, {"A": (("C", bound),), "B": (("D", bound),)}, candidates
            )
            assert ordered(rows) == ordered(expected[bound]), bound


def read_rows(result):
    """A result's rows in a canonical order, or the message of the trip
    that reading them raised."""
    try:
        return ordered(result.state.rows)
    except BudgetExceededError as exc:
        return str(exc)


class TestGuard:
    @pytest.mark.parametrize("visits", [40, 400, 4000, 10**7])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_guarded_runs_agree_warm_or_cold(self, seed, visits):
        frozen, out_edges, _ = case(seed, shared=True)
        graph = frozen.to_graph()
        pattern = Pattern(f"memo-{seed}")
        pattern.add_node("A", 'label == "L0"', output=True)
        pattern.add_node("B", "x >= 1")
        pattern.add_node("C", None)
        for source, target in (("A", "B"), ("A", "C"), ("B", "C"), ("C", "A")):
            pattern.add_edge(source, target, out_edges["A"][0][1])
        budget = QueryBudget(node_visits=visits, allow_partial=True)
        cold_frozen, warm_frozen = FrozenGraph.freeze(graph), FrozenGraph.freeze(graph)
        # Warm: every candidate's ball, at the pattern's depth, unguarded
        # (the second request of a source stores its ball).
        everyone = frozenset(range(warm_frozen.num_nodes))
        for _ in range(2):
            frozen_successor_rows(
                warm_frozen,
                {u: tuple(pattern.out_edges(u)) for u in pattern.nodes()},
                {u: everyone for u in pattern.nodes()},
            )
        assert warm_frozen._balls.entries
        cold = match_bounded(graph, pattern, frozen=cold_frozen, budget=budget)
        warm = match_bounded(graph, pattern, frozen=warm_frozen, budget=budget)
        assert cold.relation == warm.relation
        assert sorted(cold.relation.pairs()) == sorted(warm.relation.pairs())
        strip = lambda stats: {k: v for k, v in stats.items() if k != "seconds"}  # noqa: E731
        assert strip(cold.stats) == strip(warm.stats)
        # The rows are read after the pass and charge the same guard: a
        # memoised ball costs what a walked one does, so both reads give
        # the same rows or trip at the same visit.
        assert read_rows(cold) == read_rows(warm)

    def test_a_guard_that_raises_trips_at_the_same_visit(self):
        frozen, _, _ = case(3, shared=True)
        graph = frozen.to_graph()
        pattern = Pattern("raise")
        pattern.add_node("A", None, output=True)
        pattern.add_node("B", None)
        pattern.add_edge("A", "B", 3)
        budget = QueryBudget(node_visits=50)
        messages = []
        warm = FrozenGraph.freeze(graph)
        everyone = frozenset(range(warm.num_nodes))
        for _ in range(2):
            frozen_successor_rows(warm, {"A": (("B", 3),)}, {"A": everyone, "B": everyone})
        assert warm._balls.entries
        for snapshot in (FrozenGraph.freeze(graph), warm):
            with pytest.raises(BudgetExceededError) as raised:
                match_bounded(graph, pattern, frozen=snapshot, budget=budget).state.rows
            messages.append(str(raised.value))
        assert messages[0] == messages[1]


class TestBudget:
    @pytest.mark.parametrize("factor", [0, 1, 3])
    def test_the_memo_never_holds_more_than_its_budget(self, factor, monkeypatch):
        def fill(frozen, candidates) -> None:
            everyone = frozenset(range(frozen.num_nodes))
            for bound in (1, 2, 3, 4):
                frozen_successor_rows(
                    frozen, {"A": (("C", bound),)}, {**candidates, "A": everyone}
                )
                memo = frozen._balls
                assert memo.held == sum(size for _, _, size in memo.entries.values())
                assert memo.held <= memo.budget

        frozen, _, candidates = case(7, shared=True)
        unbounded = pickle.loads(pickle.dumps(frozen))
        with monkeypatch.context() as patch:
            patch.setattr(bounded_module, "FROZEN_BALL_MEMO_FACTOR", 10**6)
            fill(unbounded, candidates)
        # Every ball at depth 4 outweighs the smaller budgets: they bind.
        assert unbounded._balls.held > 3 * frozen.size
        monkeypatch.setattr(bounded_module, "FROZEN_BALL_MEMO_FACTOR", factor)
        fill(frozen, candidates)
        memo = frozen._balls
        assert memo.budget == factor * frozen.size
        assert (memo.held > 0) == (factor > 0)

    def test_the_budget_scales_with_the_snapshot(self):
        frozen, out_edges, candidates = case(2, shared=False)
        frozen_successor_rows(frozen, out_edges, candidates)
        assert frozen._balls.budget == bounded_module.FROZEN_BALL_MEMO_FACTOR * (
            frozen.num_nodes + frozen.num_edges
        )


class TestNothingCarriesTheMemo:
    @staticmethod
    def warmed() -> tuple:
        graph = collaboration_graph(120, seed=3)
        frozen = FrozenGraph.freeze(graph)
        everyone = frozenset(range(frozen.num_nodes))
        for _ in range(2):
            frozen_successor_rows(frozen, {"A": (("B", 2),)}, {"A": everyone, "B": everyone})
        assert frozen._balls.entries
        return graph, frozen

    def test_a_patched_snapshot_starts_empty_and_leaves_its_parent_alone(self):
        graph, frozen = self.warmed()
        memo, entries = frozen._balls, dict(frozen._balls.entries)
        nodes = list(graph.nodes())
        source, target = next(
            (a, b) for a in nodes for b in nodes if a != b and not graph.has_edge(a, b)
        )
        graph, primitives = apply_batch(graph, [EdgeInsertion(source, target)])
        child = frozen.patched(graph, primitives)
        assert child is not None and child._balls is None
        everyone = frozenset(range(child.num_nodes))
        for _ in range(2):
            frozen_successor_rows(child, {"A": (("B", 3),)}, {"A": everyone, "B": everyone})
        assert child._balls is not memo and child._balls.entries
        assert frozen._balls is memo and memo.entries == entries

    def test_pickles_twins_and_snapshot_files_carry_none_of_it(self, tmp_path):
        _, frozen = self.warmed()
        assert pickle.loads(pickle.dumps(frozen))._balls is None
        twin = frozen.without_attrs()
        assert twin is not frozen and twin._balls is None
        meta, buffers = frozen.to_buffers()
        cold = FrozenGraph.freeze(frozen.to_graph())
        assert (meta, buffers) == cold.to_buffers()
        assert FrozenGraph.from_buffers(1, meta, dict(buffers))._balls is None
