"""Distance-oracle tests: exactness, determinism, routing, shipping.

The oracle's one promise is *exactness*: every answer — point query,
cycle distance, successor row — equals what the BFS kernels compute, for
every bound including ``'*'``, on every graph.  The sweeps here assert
that promise over seeded random graphs (all pairs, all bounds), and the
rest of the suite covers the machinery around it: deterministic label
arrays (sequential == chunked == worker-pool builds), depth caps,
post-build node insertions, pickling, and the planner integration.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.engine.parallel import ParallelExecutor
from repro.engine.planner import KERNEL_ORACLE, route_edge
from repro.errors import EvaluationError, GraphError
from repro.graph.digraph import Graph
from repro.graph.distance import bounded_descendants
from repro.graph.frozen import FrozenGraph
from repro.graph.generators import random_digraph, twitter_like_graph
from repro.graph.oracle import DistanceOracle, phase_two_chunk
from repro.incremental.updates import (
    AttributeUpdate,
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
)
from repro.matching.bounded import match_bounded
from repro.pattern.pattern import Pattern

SWEEP_SEEDS = range(25)


def small_case(seed: int) -> tuple[Graph, FrozenGraph, DistanceOracle]:
    rng = random.Random(seed)
    n = rng.randint(4, 36)
    graph = random_digraph(n, rng.randint(n, 3 * n), seed=seed)
    frozen = FrozenGraph.freeze(graph)
    top = rng.choice([0, 1, 4, n, 2 * n])
    return graph, frozen, DistanceOracle.build(frozen, top=top)


class TestExactness:
    @pytest.mark.parametrize("seed", SWEEP_SEEDS, ids=lambda s: f"seed{s}")
    def test_all_pairs_distances_match_bfs(self, seed):
        graph, frozen, oracle = small_case(seed)
        ids = frozen.ids()
        adjacency = frozen.successor_sets()
        for u in graph.nodes():
            reach = bounded_descendants(graph, u, None)
            for v in graph.nodes():
                want = reach.get(v)
                if u == v:
                    got = oracle.cycle_distance(ids[u], adjacency)
                else:
                    got = oracle.distance(ids[u], ids[v])
                assert got == want, f"seed {seed}: dist({u!r},{v!r})"
                if u != v:
                    assert oracle.reaches(ids[u], ids[v]) == (v in reach)
                else:
                    assert oracle.cycle_reaches(ids[u], adjacency) == (v in reach)

    @pytest.mark.parametrize("seed", range(8), ids=lambda s: f"seed{s}")
    def test_within_respects_every_bound(self, seed):
        graph, frozen, oracle = small_case(seed)
        ids = frozen.ids()
        nodes = list(graph.nodes())
        for u in nodes[:6]:
            reach = bounded_descendants(graph, u, None)
            for v in nodes[:6]:
                if u == v:
                    continue
                for bound in (1, 2, 3, None):
                    want = v in reach and (bound is None or reach[v] <= bound)
                    assert oracle.within(ids[u], ids[v], bound) == want

    def test_self_loop_is_the_shortest_cycle(self):
        graph = Graph.from_edges([("a", "a"), ("a", "b"), ("b", "a")])
        frozen = FrozenGraph.freeze(graph)
        oracle = DistanceOracle.build(frozen)
        adjacency = frozen.successor_sets()
        assert oracle.cycle_distance(frozen.id_of("a"), adjacency) == 1
        assert oracle.cycle_distance(frozen.id_of("b"), adjacency) == 2

    def test_self_loop_wins_regardless_of_successor_order(self):
        """Regression: a 2-cycle partner iterated before the self-loop must
        not early-exit cycle_distance at 2 (or prune the pair at bound 1)."""
        # "b" first: "a" gets id 1, so its frozenset successors iterate the
        # 2-cycle partner before the self-loop under CPython's set order.
        graph = Graph.from_edges([("b", "a"), ("a", "b"), ("a", "a")])
        frozen = FrozenGraph.freeze(graph)
        oracle = DistanceOracle.build(frozen)
        adjacency = frozen.successor_sets()
        a = frozen.id_of("a")
        assert oracle.cycle_distance(a, adjacency) == 1
        assert oracle.cycle_distance(a, adjacency, bound=1) == 1
        rows = {("X", "X"): {a: {}}}
        oracle.fill_rows([a], [(("X", "X"), 1, frozenset({a}))], rows, adjacency)
        assert rows[("X", "X")][a] == {a: 1}

    def test_cycle_avoiding_every_hub_of_the_node(self):
        # A 2-cycle between two low-degree nodes hanging off a hub: the
        # shortest cycle through x shares no intermediate with the hub's
        # labels, so a label-only self merge would overshoot.
        graph = Graph.from_edges(
            [("hub", "x"), ("hub", "y"), ("hub", "z"), ("x", "w"), ("w", "x")]
        )
        frozen = FrozenGraph.freeze(graph)
        oracle = DistanceOracle.build(frozen, top=1)
        assert oracle.cycle_distance(frozen.id_of("x"), frozen.successor_sets()) == 2

    def test_distance_refuses_self_pairs(self):
        _graph, frozen, oracle = small_case(0)
        with pytest.raises(GraphError, match="cycle"):
            oracle.distance(0, 0)
        with pytest.raises(GraphError, match="cycle"):
            oracle.reaches(0, 0)


class TestCaps:
    def test_capped_labels_cover_only_up_to_cap(self):
        graph = Graph.from_edges([(f"n{i}", f"n{i+1}") for i in range(6)])
        frozen = FrozenGraph.freeze(graph)
        oracle = DistanceOracle.build(frozen, cap=2)
        assert oracle.covers(1) and oracle.covers(2)
        assert not oracle.covers(3) and not oracle.covers(None)
        ids = frozen.ids()
        assert oracle.distance(ids["n0"], ids["n2"]) == 2
        # Beyond the cap the labels legitimately know nothing...
        assert oracle.distance(ids["n0"], ids["n5"]) is None
        # ...but the reachability closure is never capped.
        assert oracle.reaches(ids["n0"], ids["n5"])
        assert oracle.within(ids["n0"], ids["n5"], None)
        with pytest.raises(GraphError, match="cover"):
            oracle.within(ids["n0"], ids["n5"], 4)

    def test_uncapped_covers_everything(self):
        _graph, _frozen, oracle = small_case(1)
        assert oracle.covers(1) and oracle.covers(99) and oracle.covers(None)

    def test_bad_cap_rejected(self):
        _graph, frozen, _oracle = small_case(2)
        with pytest.raises(GraphError, match="cap"):
            DistanceOracle.build(frozen, cap=0)


class TestDeterminism:
    @pytest.mark.parametrize("seed", range(6), ids=lambda s: f"seed{s}")
    def test_sequential_builds_are_byte_identical(self, seed):
        graph, frozen, _ = small_case(seed)
        first = DistanceOracle.build(frozen, top=4)
        second = DistanceOracle.build(FrozenGraph.freeze(graph), top=4)
        for attr in ("out_offsets", "out_hubs", "out_dists",
                     "in_offsets", "in_hubs", "in_dists"):
            assert getattr(first, attr) == getattr(second, attr), attr
        assert first.reach_out == second.reach_out
        assert first.reach_in == second.reach_in

    @pytest.mark.parametrize("seed", range(6), ids=lambda s: f"seed{s}")
    def test_chunked_build_matches_sequential(self, seed):
        """Any chunking of phase two yields the same labels — the property
        that makes the parallel build deterministic."""
        graph, frozen, _ = small_case(seed)
        sequential = DistanceOracle.build(frozen, top=2)

        def scrambled_map(context, chunks):
            # Split every chunk into singletons and run them out of order;
            # results are reassembled in the original submission order by
            # the merge, so labels must not care.
            pieces = [
                [landmark] for chunk in chunks for landmark in chunk
            ]
            results = {
                i: phase_two_chunk(*context, pieces[i])
                for i in reversed(range(len(pieces)))
            }
            return [results[i] for i in range(len(pieces))]

        chunked = DistanceOracle.build(frozen, top=2, chunk_map=scrambled_map)
        for attr in ("out_offsets", "out_hubs", "out_dists",
                     "in_offsets", "in_hubs", "in_dists"):
            assert getattr(sequential, attr) == getattr(chunked, attr), attr

    def test_worker_pool_build_matches_sequential(self):
        graph = twitter_like_graph(300, seed=3)
        frozen = FrozenGraph.freeze(graph)
        sequential = DistanceOracle.build(frozen, top=8)
        with ParallelExecutor(workers=2) as executor:
            parallel = executor.build_oracle(frozen, top=8)
        for attr in ("out_offsets", "out_hubs", "out_dists",
                     "in_offsets", "in_hubs", "in_dists"):
            assert getattr(sequential, attr) == getattr(parallel, attr), attr

    def test_single_worker_build_is_plain_build(self):
        _graph, frozen, _ = small_case(3)
        with ParallelExecutor(workers=1) as executor:
            built = executor.build_oracle(frozen, top=4)
        reference = DistanceOracle.build(frozen, top=4)
        assert built.out_hubs == reference.out_hubs


class TestRows:
    @pytest.mark.parametrize("seed", range(12), ids=lambda s: f"seed{s}")
    def test_fill_rows_matches_enumeration_kernels(self, seed):
        """Oracle rows == enumeration rows for mixed bounds including '*'
        and self-candidates (source in its own child candidate set)."""
        rng = random.Random(seed)
        graph, frozen, oracle = small_case(seed)
        adjacency = frozen.successor_sets()
        n = frozen.num_nodes
        all_ids = list(range(n))
        for bound in (1, 2, 3, None):
            sources = sorted(rng.sample(all_ids, min(n, rng.randint(1, 8))))
            children = frozenset(rng.sample(all_ids, min(n, rng.randint(1, 10))))
            edge = ("U", "V")
            via_oracle = {edge: {s: {} for s in sources}}
            oracle.fill_rows(sources, [(edge, bound, children)], via_oracle, adjacency)
            expected = {edge: {}}
            for source in sources:
                levels = bounded_descendants(frozen, frozen.labels[source], bound)
                expected[edge][source] = {
                    frozen.id_of(node): dist
                    for node, dist in levels.items()
                    if frozen.id_of(node) in children
                }
            assert via_oracle == expected, f"seed {seed} bound {bound}"

    def test_uncovered_bound_raises(self):
        _graph, frozen, _ = small_case(4)
        oracle = DistanceOracle.build(frozen, cap=1)
        with pytest.raises(GraphError, match="cover"):
            oracle.fill_rows(
                [0], [(("U", "V"), 3, frozenset({0}))], {("U", "V"): {0: {}}},
                frozen.successor_sets(),
            )


class TestPickling:
    def test_oracle_pickles(self):
        _graph, frozen, oracle = small_case(7)
        thawed = pickle.loads(pickle.dumps(oracle))
        assert thawed.out_hubs == oracle.out_hubs
        assert thawed.reach_out == oracle.reach_out
        assert thawed.compatible_with(frozen)


class TestCompatibility:
    def test_survives_classification(self):
        assert DistanceOracle.survives(AttributeUpdate("a", "x", 1))
        assert DistanceOracle.survives(NodeInsertion("fresh"))
        assert not DistanceOracle.survives(EdgeInsertion("a", "b"))
        assert not DistanceOracle.survives(EdgeDeletion("a", "b"))
        assert not DistanceOracle.survives(NodeDeletion("a"))

    def test_compatible_after_node_insertion_and_attr_update(self):
        graph = Graph.from_edges([("a", "b"), ("b", "c")])
        oracle = DistanceOracle.build(FrozenGraph.freeze(graph))
        graph.add_node("late", tag=1)
        graph.update_attrs("a", tag=2)
        refrozen = FrozenGraph.freeze(graph)
        assert oracle.compatible_with(refrozen)
        # The inserted node has empty labels: unreachable, no cycle — which
        # is exactly the truth for a bare node.
        late = refrozen.id_of("late")
        assert tuple(oracle.out_row(late)) == ()
        assert not oracle.reaches(refrozen.id_of("a"), late)
        assert oracle.cycle_distance(late, refrozen.successor_sets()) is None

    def test_incompatible_after_edge_mutation(self):
        graph = Graph.from_edges([("a", "b"), ("b", "c")])
        oracle = DistanceOracle.build(FrozenGraph.freeze(graph))
        graph.add_edge("c", "a")
        assert not oracle.compatible_with(FrozenGraph.freeze(graph))

    def test_matcher_rejects_stale_oracle(self):
        graph = Graph.from_edges([("a", "b")], nodes={"a": {"f": 1}, "b": {"f": 1}})
        oracle = DistanceOracle.build(FrozenGraph.freeze(graph))
        graph.add_edge("b", "a")
        frozen = FrozenGraph.freeze(graph)
        pattern = Pattern()
        pattern.add_node("X", "f == 1")
        pattern.add_node("Y", "f == 1")
        pattern.add_edge("X", "Y", 2)
        with pytest.raises(EvaluationError, match="stale distance oracle"):
            match_bounded(graph, pattern, frozen=frozen, oracle=oracle)

    def test_matcher_requires_a_snapshot_with_the_oracle(self):
        graph = Graph.from_edges([("a", "b")])
        oracle = DistanceOracle.build(FrozenGraph.freeze(graph))
        pattern = Pattern()
        pattern.add_node("X")
        with pytest.raises(EvaluationError, match="frozen snapshot"):
            match_bounded(graph, pattern, oracle=oracle)


class TestRouting:
    def test_match_bounded_logs_kernels(self):
        graph = twitter_like_graph(400, seed=1)
        frozen = FrozenGraph.freeze(graph)
        oracle = DistanceOracle.build(frozen)
        pattern = Pattern("deep")
        pattern.add_node("SA", 'field == "SA", experience >= 13')
        pattern.add_node("ST", 'field == "ST", experience >= 13')
        pattern.add_edge("SA", "ST", None)
        result = match_bounded(graph, pattern, frozen=frozen, oracle=oracle)
        plain = match_bounded(graph, pattern, frozen=frozen)
        assert result.relation == plain.relation
        assert result.relation.to_dict() == plain.relation.to_dict()
        assert "kernels" in result.stats
        assert set(result.stats["kernels"]) == {"SA->ST"}

    def test_route_edge_prefers_oracle_on_selective_deep_edges(self):
        profile = {"cap": None, "avg_out_label": 5.0, "avg_in_label": 12.0}
        route = route_edge(
            ("A", "B"), None, 50, 200, 50_000, 150_000, profile
        )
        assert route.kernel == KERNEL_ORACLE


class TestParallelMatching:
    @pytest.mark.parametrize("seed", range(8), ids=lambda s: f"seed{s}")
    def test_sharded_match_with_oracle_is_identical(self, seed, executor):
        rng = random.Random(seed)
        n = rng.randint(16, 48)
        graph = random_digraph(n, rng.randint(n, 3 * n), seed=seed)
        frozen = FrozenGraph.freeze(graph)
        oracle = DistanceOracle.build(frozen)
        pattern = Pattern(f"p{seed}")
        pattern.add_node("X", f"x >= {rng.randint(0, 4)}")
        pattern.add_node("Y", f'label == "L{rng.randrange(3)}"')
        pattern.add_edge("X", "Y", rng.choice([2, 3, 5, None]))
        sequential = match_bounded(graph, pattern, frozen=frozen, oracle=oracle)
        parallel = executor.match(graph, pattern, frozen=frozen, oracle=oracle)
        assert parallel.relation == sequential.relation, f"seed {seed}"
        assert parallel.relation.to_dict() == sequential.relation.to_dict()
        parallel._state.check_invariants()

    def test_stale_oracle_rejected_by_executor(self, executor):
        graph = Graph.from_edges([("a", "b")])
        oracle = DistanceOracle.build(FrozenGraph.freeze(graph))
        graph.add_edge("b", "a")
        pattern = Pattern()
        pattern.add_node("X")
        with pytest.raises(EvaluationError, match="stale distance oracle"):
            executor.match(graph, pattern, oracle=oracle)


@pytest.fixture(scope="module")
def executor():
    with ParallelExecutor(workers=2) as shared:
        yield shared
