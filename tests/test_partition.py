"""Unit and property tests for the pivot partition (`graph.partition`).

The load-bearing property is *exactly-once ownership*: every candidate of
every pattern node with out-edges is the pivot of exactly one shard, so the
merged successor rows are complete and no row is computed twice.  If it
broke, parallel evaluation would lose rows (the merge raises) or waste work.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import random

import pytest

from repro.datasets.paper_example import paper_graph, paper_pattern
from repro.errors import GraphError
from repro.graph.digraph import Graph
from repro.graph.partition import Shard, decompose
from repro.matching.simulation import simulation_candidates
from repro.pattern.pattern import Pattern

from tests.test_differential import random_case

PROPERTY_SEEDS = range(30)


def decompose_case(seed: int, num_shards: int | None = None):
    graph, pattern = random_case(seed)
    candidates = simulation_candidates(graph, pattern)
    if num_shards is None:
        num_shards = random.Random(seed).randint(1, 5)
    return graph, pattern, candidates, decompose(graph, pattern, candidates, num_shards)


class TestDecomposeShape:
    def test_paper_example_two_shards(self):
        graph, pattern = paper_graph(), paper_pattern()
        candidates = simulation_candidates(graph, pattern)
        shards = decompose(graph, pattern, candidates, 2)
        assert len(shards) == 2
        assert all(isinstance(shard, Shard) for shard in shards)
        assert [shard.index for shard in shards] == [0, 1]

    def test_never_more_shards_than_requested_and_no_empty_shards(self):
        for seed in PROPERTY_SEEDS:
            _graph, _pattern, _candidates, shards = decompose_case(seed)
            assert all(shard.num_pivots > 0 for shard in shards)

    def test_more_shards_than_pivots_collapses(self):
        graph, pattern = paper_graph(), paper_pattern()
        candidates = simulation_candidates(graph, pattern)
        shards = decompose(graph, pattern, candidates, 100)
        total = sum(shard.num_pivots for shard in shards)
        assert len(shards) <= total

    def test_deterministic(self):
        graph, pattern = paper_graph(), paper_pattern()
        candidates = simulation_candidates(graph, pattern)
        first = decompose(graph, pattern, candidates, 3)
        second = decompose(graph, pattern, candidates, 3)
        assert first == second

    def test_bad_num_shards_raises(self):
        graph, pattern = paper_graph(), paper_pattern()
        candidates = simulation_candidates(graph, pattern)
        with pytest.raises(GraphError, match="num_shards"):
            decompose(graph, pattern, candidates, 0)

    def test_missing_candidates_raise(self):
        graph, pattern = paper_graph(), paper_pattern()
        with pytest.raises(GraphError, match="missing"):
            decompose(graph, pattern, {}, 2)

    def test_edge_free_pattern_has_no_shards(self):
        graph = paper_graph()
        pattern = Pattern("flat")
        pattern.add_node("A", 'field == "SA"')
        assert decompose(graph, pattern, {"A": {"Bob"}}, 4) == []


class TestOwnership:
    @pytest.mark.parametrize("seed", PROPERTY_SEEDS, ids=lambda s: f"seed{s}")
    def test_every_source_candidate_owned_exactly_once(self, seed):
        graph, pattern, candidates, shards = decompose_case(seed)
        sources = [u for u in pattern.nodes() if any(pattern.out_edges(u))]
        seen: dict[tuple, int] = {}
        for shard in shards:
            for u, pivots in shard.pivots.items():
                for pivot in pivots:
                    seen[(u, pivot)] = seen.get((u, pivot), 0) + 1
        expected = {(u, v) for u in sources for v in candidates[u]}
        assert set(seen) == expected, f"seed {seed}: pivot ownership mismatch"
        assert all(count == 1 for count in seen.values()), (
            f"seed {seed}: a pivot is owned by several shards"
        )

    @pytest.mark.parametrize("seed", PROPERTY_SEEDS, ids=lambda s: f"seed{s}")
    def test_least_loaded_assignment_balances_shards(self, seed):
        """Greedy least-loaded: no shard exceeds the lightest by more than
        the heaviest single pivot (load = 1 + out-degree)."""
        graph, _pattern, _candidates, shards = decompose_case(seed, num_shards=3)
        costs = [
            [1 + graph.out_degree(v) for vs in shard.pivots.values() for v in vs]
            for shard in shards
        ]
        loads = [sum(shard_costs) for shard_costs in costs]
        loads += [0] * (3 - len(loads))  # dropped empty shards carried nothing
        heaviest_pivot = max((max(shard_costs) for shard_costs in costs), default=0)
        assert max(loads) - min(loads) <= heaviest_pivot, f"seed {seed}"

    def test_shards_carry_only_index_and_pivots(self):
        assert [field.name for field in dataclasses.fields(Shard)] == [
            "index", "pivots",
        ]

    def test_decompose_does_no_traversal(self, monkeypatch):
        """A shard is a list of pivots, never a graph: the partition module
        imports no BFS kernel and never walks an adjacency row."""
        import repro.graph.partition as partition

        imported = {
            node.module
            for node in ast.walk(ast.parse(inspect.getsource(partition)))
            if isinstance(node, ast.ImportFrom)
        }
        assert "repro.graph.distance" not in imported

        graph, pattern = paper_graph(), paper_pattern()
        candidates = simulation_candidates(graph, pattern)
        expected = decompose(graph, pattern, candidates, 2)

        def walked(self, node):
            raise AssertionError("decompose walked the graph")

        monkeypatch.setattr(Graph, "successors", walked)
        monkeypatch.setattr(Graph, "predecessors", walked)
        assert decompose(graph, pattern, candidates, 2) == expected
