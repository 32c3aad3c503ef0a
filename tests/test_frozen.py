"""The frozen-snapshot layer: round trips, kernels, caching, differentials.

Three layers of guarantees:

* :class:`~repro.graph.frozen.FrozenGraph` is a faithful snapshot —
  structure, order, attributes and the ``to_graph()`` round trip (seeded
  and property-based);
* every frozen kernel — bounded BFS, both matchers' refinement, pivot
  partitioning, the ranking Dijkstras —
  produces results identical to the dict-backed path it replaces (seeded
  differential sweeps reusing the shapes of ``tests/test_differential.py``);
* the engine holds one snapshot per graph, serves it warm, detects stale ones
  via ``Graph.version``, and every stale-snapshot misuse fails loudly.
"""

from __future__ import annotations

import pickle
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.engine.engine import QueryEngine
from repro.engine.parallel import ParallelExecutor
from repro.errors import EvaluationError, GraphError
from repro.graph.digraph import Graph
from repro.graph.distance import (
    bounded_ancestors,
    bounded_descendants,
    distance,
    eccentricity_within,
    weighted_distances,
    within_bound,
)
from repro.graph.frozen import FrozenGraph
from repro.graph.generators import random_digraph
from repro.matching.bounded import frozen_successor_rows, match_bounded
from repro.matching.simulation import match_simulation, simulation_candidates
from repro.pattern.builder import PatternBuilder
from repro.ranking.topk import RankingContext
from tests.conftest import batch_of
from tests.test_differential import candidate_rows, random_case, weighted_edges
from tests.test_frozen_patch import batch_from_codes, observed


# ----------------------------------------------------------------------
# snapshot structure + round trip
# ----------------------------------------------------------------------

class TestFrozenGraph:
    def test_structure_mirrors_graph(self, fig1):
        frozen = FrozenGraph.freeze(fig1)
        assert frozen.num_nodes == fig1.num_nodes
        assert frozen.num_edges == fig1.num_edges
        assert frozen.size == fig1.size
        assert len(frozen) == len(fig1)
        assert list(frozen.nodes()) == list(fig1.nodes())
        assert list(frozen.edges()) == list(fig1.edges())
        for node in fig1.nodes():
            assert node in frozen
            assert list(frozen.successors(node)) == list(fig1.successors(node))
            assert list(frozen.predecessors(node)) == list(fig1.predecessors(node))
            assert frozen.out_degree(node) == fig1.out_degree(node)
            assert frozen.in_degree(node) == fig1.in_degree(node)
            assert frozen.node_attrs(node) == fig1.attrs(node)
        assert frozen.has_edge("Bob", "Dan") == fig1.has_edge("Bob", "Dan")
        assert frozen.source_version == fig1.version

    def test_unknown_node_raises(self, fig1):
        frozen = FrozenGraph.freeze(fig1)
        with pytest.raises(GraphError, match="unknown node"):
            frozen.id_of("nobody")
        with pytest.raises(GraphError, match="unknown node"):
            list(frozen.successors("nobody"))
        assert not frozen.has_node("nobody")

    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip_random(self, seed):
        graph = random_digraph(30, 90, seed=seed)
        assert FrozenGraph.freeze(graph).to_graph() == graph

    def test_round_trip_preserves_value_types(self):
        graph = Graph(name="typed")
        graph.add_node("a", x=1)
        graph.add_node("b", x=True)
        graph.add_node("c", x=1.0)
        graph.add_node("d", x=[1, 2])  # unhashable: stored un-deduped
        rebuilt = FrozenGraph.freeze(graph).to_graph()
        assert rebuilt == graph
        assert type(rebuilt.get("a", "x")) is int
        assert type(rebuilt.get("b", "x")) is bool
        assert type(rebuilt.get("c", "x")) is float
        assert rebuilt.get("d", "x") == [1, 2]

    def test_attribute_values_are_interned(self):
        graph = Graph()
        for index in range(100):
            graph.add_node(index, field="SA", level="senior")
        frozen = FrozenGraph.freeze(graph)
        assert len(frozen._values) == 2  # one "SA", one "senior"

    def test_pickle_round_trip_drops_derived_views(self, fig1):
        frozen = FrozenGraph.freeze(fig1)
        frozen.successor_sets()  # force the derived views
        frozen.predecessor_sets()
        clone = pickle.loads(pickle.dumps(frozen))
        assert clone._succ_sets is None and clone._ids is None
        assert clone.to_graph() == fig1
        assert clone.successor_sets() == frozen.successor_sets()

    def test_matches_tracks_graph_version(self, fig1):
        frozen = FrozenGraph.freeze(fig1)
        assert frozen.matches(fig1)
        fig1.set("Bob", "experience", 9)
        assert not frozen.matches(fig1)

    def test_matches_rejects_a_different_graph(self):
        """Coinciding version/size must not pass a foreign snapshot."""
        first = Graph.from_edges([("a", "b")])
        second = Graph.from_edges([("x", "y")])
        assert first.version == second.version  # same build history shape
        assert not FrozenGraph.freeze(first).matches(second)
        assert FrozenGraph.freeze(second).matches(second)
        assert FrozenGraph.freeze(Graph()).matches(Graph())  # empty graphs

    def test_without_attrs_shares_buffers(self, fig1):
        frozen = FrozenGraph.freeze(fig1)
        bare = frozen.without_attrs()
        assert bare.out_targets is frozen.out_targets  # O(1), no copies
        assert bare.labels is frozen.labels
        assert bare.node_attrs("Bob") == {}
        assert bare.matches(fig1)
        assert bare.without_attrs() is bare  # already bare: same object
        assert len(pickle.dumps(bare)) < len(pickle.dumps(frozen))


@st.composite
def attributed_graphs(draw):
    """Random digraphs with mixed-type attributes, for round-trip hunting."""
    num_nodes = draw(st.integers(min_value=0, max_value=12))
    graph = Graph(name="prop")
    values = st.one_of(
        st.integers(-3, 3), st.booleans(), st.text(max_size=3), st.none()
    )
    for index in range(num_nodes):
        attrs = draw(
            st.dictionaries(st.sampled_from(["a", "b", "c"]), values, max_size=3)
        )
        graph.add_node(index, **attrs)
    if num_nodes:
        pairs = st.tuples(
            st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1)
        )
        for source, target in draw(st.lists(pairs, max_size=3 * num_nodes)):
            if not graph.has_edge(source, target):
                graph.add_edge(source, target)
    return graph


@settings(max_examples=120, deadline=None)
@given(attributed_graphs())
def test_freeze_to_graph_round_trip_property(graph):
    """``FrozenGraph.freeze(g).to_graph() == g`` for arbitrary graphs."""
    frozen = FrozenGraph.freeze(graph)
    rebuilt = frozen.to_graph()
    assert rebuilt == graph
    assert list(rebuilt.nodes()) == list(graph.nodes())
    assert list(rebuilt.edges()) == list(graph.edges())


# ----------------------------------------------------------------------
# distance kernels
# ----------------------------------------------------------------------

class TestFrozenDistance:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("bound", [0, 1, 2, 3, None])
    def test_bounded_search_matches_dict_path(self, seed, bound):
        graph = random_digraph(25, 80, seed=seed)
        frozen = FrozenGraph.freeze(graph)
        for node in graph.nodes():
            assert bounded_descendants(frozen, node, bound) == bounded_descendants(
                graph, node, bound
            ), f"descendants diverged at seed {seed} node {node} bound {bound}"
            assert bounded_ancestors(frozen, node, bound) == bounded_ancestors(
                graph, node, bound
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_helpers(self, seed):
        graph = random_digraph(25, 70, seed=seed)
        frozen = FrozenGraph.freeze(graph)
        rng = random.Random(seed)
        sources = rng.sample(list(graph.nodes()), 6)
        for node in sources:
            assert distance(frozen, sources[0], node) == distance(
                graph, sources[0], node
            )
            assert within_bound(frozen, sources[0], node, 2) == within_bound(
                graph, sources[0], node, 2
            )
            assert eccentricity_within(frozen, node, 3) == eccentricity_within(
                graph, node, 3
            )

    def test_distance_missing_nodes(self, fig1):
        frozen = FrozenGraph.freeze(fig1)
        assert distance(frozen, "Ann", "nobody") is None
        assert distance(frozen, "nobody", "Ann") is None


# ----------------------------------------------------------------------
# matcher kernels (differential, both strategies)
# ----------------------------------------------------------------------

def deep_pattern(bound):
    """A chain pattern whose source depth picks the bitset strategy."""
    return (
        PatternBuilder("deep")
        .node("A", 'label == "L0"', output=True)
        .node("B", 'label == "L1"')
        .edge("A", "B", bound)
        .build()
    )


class TestFrozenMatchers:
    @pytest.mark.parametrize("seed", range(40))
    def test_bounded_matches_dict_path(self, seed):
        graph, pattern = random_case(seed)
        frozen = FrozenGraph.freeze(graph)
        plain = match_bounded(graph, pattern)
        accelerated = match_bounded(graph, pattern, frozen=frozen)
        assert accelerated.relation == plain.relation, f"seed {seed}"
        assert accelerated.relation.to_dict() == plain.relation.to_dict()
        # The int kernels' candidate rows are the dict state's S, and the
        # rows between matches are its surviving entries (the result graph).
        assert candidate_rows(graph, pattern, frozen) == plain._state.S, f"seed {seed}"
        plain._state.check_invariants()
        assert weighted_edges(accelerated) == weighted_edges(plain), f"seed {seed}"

    @pytest.mark.parametrize("seed", range(40))
    def test_simulation_matches_dict_path(self, seed):
        graph, pattern = random_case(seed, simulation_only=True)
        frozen = FrozenGraph.freeze(graph)
        plain = match_simulation(graph, pattern)
        accelerated = match_simulation(graph, pattern, frozen=frozen)
        assert accelerated.relation == plain.relation, f"seed {seed}"
        assert accelerated.relation.to_dict() == plain.relation.to_dict()

    @pytest.mark.parametrize("bound", [5, 9, None])
    def test_bitset_strategy_cases(self, bound):
        """Deep and ``*`` bounds route through the bitset-parallel kernel."""
        for seed in range(6):
            graph = random_digraph(30, 100, seed=seed)
            pattern = deep_pattern(bound)
            frozen = FrozenGraph.freeze(graph)
            plain = match_bounded(graph, pattern)
            accelerated = match_bounded(graph, pattern, frozen=frozen)
            assert accelerated.relation == plain.relation, (seed, bound)
            assert candidate_rows(graph, pattern, frozen) == plain._state.S, (
                seed, bound,
            )
            assert weighted_edges(accelerated) == weighted_edges(plain), (
                seed, bound,
            )

    def test_bitset_chunk_boundaries(self, monkeypatch):
        """Multi-chunk traversals (sources > chunk size) stay identical.

        Production graphs cross the 4096-source chunk limit; shrinking it
        to 8 exercises the per-chunk reach reset and the
        ``chunk[base + offset]`` mask decode at chunk boundaries.
        """
        from repro.matching import bounded as bounded_module

        monkeypatch.setattr(bounded_module, "FROZEN_CHUNK_BITS", 8)
        for seed in range(4):
            graph = random_digraph(40, 140, seed=seed)
            for bound in (6, None):
                pattern = deep_pattern(bound)
                frozen = FrozenGraph.freeze(graph)
                plain = match_bounded(graph, pattern)
                accelerated = match_bounded(graph, pattern, frozen=frozen)
                assert accelerated.relation == plain.relation, (seed, bound)
                assert candidate_rows(graph, pattern, frozen) == plain._state.S, (
                    seed, bound,
                )
                assert weighted_edges(accelerated) == weighted_edges(plain), (
                    seed, bound,
                )

    def test_kernel_strategies_agree(self, monkeypatch):
        """Both kernel strategies produce the same rows on the same input."""
        from repro.matching import bounded as bounded_module

        graph = random_digraph(40, 140, seed=3)
        pattern = deep_pattern(6)
        frozen = FrozenGraph.freeze(graph)
        ids = frozen.ids()
        candidates = simulation_candidates(graph, pattern)
        candidate_ids = {
            u: frozenset(ids[v] for v in vs) for u, vs in candidates.items()
        }
        spec = {u: tuple(pattern.out_edges(u)) for u in pattern.nodes()}
        bulk = frozen_successor_rows(frozen, spec, candidate_ids)
        monkeypatch.setattr(bounded_module, "FROZEN_BULK_DEPTH", 99)
        per_source = frozen_successor_rows(frozen, spec, candidate_ids)
        assert bulk == per_source

    def test_stale_snapshot_rejected(self, fig1, fig1_query):
        from repro.matching.simulation import refine_simulation

        frozen = FrozenGraph.freeze(fig1)
        fig1.set("Bob", "experience", 9)
        with pytest.raises(EvaluationError, match="stale frozen snapshot"):
            match_bounded(fig1, fig1_query, frozen=frozen)
        simple = deep_pattern(1)
        with pytest.raises(EvaluationError, match="stale frozen snapshot"):
            match_simulation(fig1, simple, frozen=frozen)
        with pytest.raises(EvaluationError, match="stale frozen snapshot"):
            refine_simulation(
                fig1, simple, simulation_candidates(fig1, simple), frozen=frozen
            )
        with ParallelExecutor(workers=1) as executor:
            with pytest.raises(EvaluationError, match="stale frozen snapshot"):
                executor.match_many(
                    fig1, *batch_of(fig1, fig1_query), frozen=frozen
                )


# ----------------------------------------------------------------------
# ranking Dijkstras
# ----------------------------------------------------------------------

class TestFrozenRanking:
    @pytest.mark.parametrize("seed", range(10))
    def test_context_distances_byte_identical(self, seed):
        graph, pattern = random_case(seed)
        result = match_bounded(graph, pattern)
        if result.relation.is_empty:
            pytest.skip("no match for this seed; nothing to rank")
        context = RankingContext(result.result_graph())
        for node in context.matched_by:
            # Byte-identical to the reference heap: same values in the
            # same insertion order.
            assert list(context.distances_from(node).items()) == list(
                weighted_distances(context.out_adj, node).items()
            ), f"seed {seed} node {node!r}"
            assert list(context.distances_to(node).items()) == list(
                weighted_distances(context.in_adj, node).items()
            ), f"seed {seed} node {node!r}"

    def test_top_k_matches_naive_all_metrics(self, fig1, fig1_query):
        from repro.ranking.metrics import METRICS

        engine = QueryEngine()
        engine.register_graph("g", fig1)
        result_graph = match_bounded(fig1, fig1_query).result_graph()
        detail = engine.top_k("g", fig1_query, 3)
        from repro.ranking.social_impact import rank_matches

        assert detail == rank_matches(result_graph)[:3]
        for name, metric in METRICS.items():
            if name == "social-impact":
                continue
            assert engine.top_k("g", fig1_query, 3, metric=name) == (
                metric.rank_all(result_graph)[:3]
            )


# ----------------------------------------------------------------------
# the engine's per-graph snapshot
# ----------------------------------------------------------------------

class TestSnapshotCache:
    def test_hit_miss_stale(self, fig1, fig1_query):
        engine = QueryEngine()
        engine.register_graph("g", fig1)
        assert engine.snapshot_stats()["size"] == 0
        cold = dict(use_cache=False, cache_result=False)
        engine.evaluate("g", fig1_query, **cold)      # miss: build
        held = engine._registered["g"].frozen
        assert held is not None and held.matches(fig1)
        engine.evaluate("g", fig1_query, **cold)      # hit
        assert engine._registered["g"].frozen is held
        fig1.add_node("late", field="SA")             # version moved: dropped
        engine.evaluate("g", fig1_query, **cold)
        fresh = engine._registered["g"].frozen
        assert fresh is not held and fresh.matches(fig1)
        stats = engine.snapshot_stats()
        assert stats["hits"] == 1 and stats["invalidations"] == 1
        assert stats["misses"] == 2 and stats["builds"] == 2
        assert stats["size"] == 1 and "capacity" not in stats
        assert engine.stats()["resyncs"] == 1

    def test_one_snapshot_per_graph_and_reregistration(self, fig1, fig1_query):
        """Every registered graph keeps its own snapshot (nothing is
        evicted); re-registering a name drops that graph's, once."""
        engine = QueryEngine()
        for name in "abc":
            engine.register_graph(name, fig1)
            engine.evaluate(name, fig1_query, use_cache=False, cache_result=False)
        assert engine.snapshot_stats()["size"] == 3
        assert engine.snapshot_stats()["builds"] == 3
        engine.register_graph("b", fig1, replace=True)
        stats = engine.snapshot_stats()
        assert stats["size"] == 2 and stats["invalidations"] == 1
        engine.register_graph("b", fig1, replace=True)  # nothing held: no count
        assert engine.snapshot_stats()["invalidations"] == 1

    def test_engine_reuses_snapshot_across_queries(self, fig1, fig1_query):
        engine = QueryEngine()
        engine.register_graph("g", fig1)
        engine.evaluate("g", fig1_query, use_cache=False, cache_result=False)
        engine.evaluate("g", fig1_query, use_cache=False, cache_result=False)
        stats = engine.snapshot_stats()
        assert stats["builds"] == 1
        assert stats["hits"] >= 1
        assert engine.cache_stats()["snapshots"]["builds"] == 1

    def test_engine_invalidates_on_version_change(self, fig1, fig1_query):
        """Acceptance: SnapshotCache invalidates on ``Graph.version`` change."""
        engine = QueryEngine()
        engine.register_graph("g", fig1)
        before = engine.evaluate("g", fig1_query, use_cache=False, cache_result=False)
        # Out-of-band mutation through a counting API: the cached snapshot
        # is stale, and the next evaluation must re-freeze, not serve it.
        # (Dan loses his only 1-hop tester, so the relation must shrink.)
        fig1.remove_edge("Dan", "Eva")
        after = engine.evaluate("g", fig1_query, use_cache=False, cache_result=False)
        stats = engine.snapshot_stats()
        assert stats["builds"] == 2
        assert stats["invalidations"] == 1 and engine.stats()["resyncs"] == 1
        # ...and the fresh snapshot reflects the mutated graph.
        assert after.relation == match_bounded(fig1, fig1_query).relation
        assert after.relation != before.relation

    def test_engine_update_graph_patches_snapshot(self, fig1, fig1_query):
        """update_graph keeps the snapshot and patches it on next use."""
        from repro.incremental.updates import EdgeDeletion

        engine = QueryEngine()
        engine.register_graph("g", fig1)
        engine.evaluate("g", fig1_query)
        held = engine._registered["g"].frozen
        engine.update_graph("g", [EdgeDeletion("Bob", "Dan")])
        assert engine._registered["g"].frozen is held
        assert engine.snapshot_stats()["invalidations"] == 0
        fresh = engine.evaluate("g", fig1_query, use_cache=False, cache_result=False)
        assert fresh.relation == match_bounded(fig1, fig1_query).relation
        patched = engine._registered["g"].frozen
        assert patched is not held and patched.matches(fig1)
        stats = engine.snapshot_stats()
        assert stats["patches"] == 1 and stats["builds"] == 1

    def test_explain_reports_snapshot_state(self, fig1, fig1_query):
        engine = QueryEngine()
        engine.register_graph("g", fig1)
        cold = engine.explain("g", fig1_query)
        assert any("frozen snapshot: cold" in reason for reason in cold.reasons)
        engine.evaluate("g", fig1_query)
        warm = engine.explain("g", fig1_query)
        # A cached result plans the cache route (no snapshot note)...
        assert warm.route == "cache"
        engine.register_graph("g2", fig1)
        engine.evaluate("g2", fig1_query, use_cache=False, cache_result=False)
        warm = engine.explain("g2", fig1_query)
        assert any("frozen snapshot: warm" in reason for reason in warm.reasons)


class TestSnapshotPatching:
    """update_graph keeps the snapshot; its next use patches the batch in."""

    COLD = dict(use_cache=False, cache_result=False)

    @pytest.fixture
    def uses(self, monkeypatch):
        """Every snapshot the engine uses must equal a full freeze, array for array."""
        original = QueryEngine._frozen_snapshot
        used: list[FrozenGraph] = []

        def checked(engine, entry):
            frozen = original(engine, entry)
            assert observed(frozen) == observed(FrozenGraph.freeze(entry.graph))
            used.append(frozen)
            return frozen

        monkeypatch.setattr(QueryEngine, "_frozen_snapshot", checked)
        return used

    @pytest.mark.parametrize("seed", range(3))
    def test_interleaved_operations_always_use_a_current_snapshot(self, seed, uses):
        from repro.datasets.queries import get_query
        from repro.errors import UpdateError
        from repro.graph.generators import collaboration_graph
        from repro.incremental.updates import EdgeDeletion, decompose

        rng = random.Random(seed)
        graph = collaboration_graph(120, seed=seed)
        engine = QueryEngine()
        engine.register_graph("g", graph)
        entry = engine._registered["g"]
        patterns = [get_query(name) for name in ("q1-team-star", "q2-delivery-chain", "q5-reachability")]
        engine.pin("g", patterns[0])
        for _step in range(80):
            op = rng.randrange(10)
            codes = [(rng.randrange(7), rng.randrange(10**6), rng.randrange(10**6))
                     for _ in range(rng.randint(1, 4))]
            if op <= 2:  # a batch of any of the five kinds
                engine.update_graph("g", batch_from_codes(graph, codes))
            elif op == 3:  # fails mid-batch: the applied prefix is pending
                prefix = batch_from_codes(graph, codes)
                scratch, applied = graph.copy(), []
                for update in prefix:
                    for primitive in decompose(scratch, update):
                        primitive.apply(scratch)
                        applied.append(primitive)
                expected = entry.pending + applied if entry.frozen is not None else []
                with pytest.raises(UpdateError):
                    engine.update_graph("g", prefix + [EdgeDeletion("nobody", "nowhere")])
                if entry.frozen is not None:  # else: past the |V| bound, dropped
                    assert entry.pending == expected
            elif op == 4:  # out of band: drops the snapshot and what is pending
                node = rng.choice(list(graph.nodes()))
                graph.set(node, "experience", rng.randrange(10))
                engine.graph("g")
                assert entry.frozen is None and entry.pending == []
                engine.pin("g", patterns[0])
            elif op == 5:
                engine.evaluate("g", rng.choice(patterns), **self.COLD)
            elif op == 6:
                engine.evaluate_many("g", patterns, **self.COLD)
            elif op == 7:
                engine.top_k("g", rng.choice(patterns), 3, use_rank_cache=False, **self.COLD)
            elif op == 8:
                pending = list(entry.pending)
                engine.explain("g", patterns[1])  # read-only: patches nothing
                assert entry.pending == pending
            elif engine.oracle_stats("g") is None:
                engine.enable_oracle("g")
            else:
                engine.disable_oracle("g")
        for pattern in patterns:
            served = engine.evaluate("g", pattern, **self.COLD).relation
            assert served == match_bounded(graph, pattern).relation
        assert uses and engine.snapshot_stats()["patches"] > 0

    def test_update_appends_and_the_next_use_patches_once(self, fig1, fig1_query, uses):
        from repro.incremental.updates import AttributeUpdate, EdgeInsertion

        engine = QueryEngine()
        engine.register_graph("g", fig1)
        engine.evaluate("g", fig1_query, **self.COLD)
        held = engine._registered["g"].frozen
        engine.update_graph("g", [EdgeInsertion("Fred", "Eva")])
        engine.update_graph("g", [AttributeUpdate("Bob", "experience", 9)])
        entry = engine._registered["g"]
        assert entry.frozen is held and len(entry.pending) == 2
        plan = engine.explain("g", fig1_query)
        assert "frozen snapshot: warm (2 primitives to patch on next use)" in plan.reasons
        engine.evaluate("g", fig1_query, **self.COLD)
        assert entry.pending == [] and entry.frozen is not held
        engine.evaluate("g", fig1_query, **self.COLD)  # a plain hit now
        stats = engine.snapshot_stats()
        assert (stats["builds"], stats["patches"], stats["hits"]) == (1, 1, 1)
        assert stats["invalidations"] == 0
        assert any("warm (graph version" in r for r in engine.explain("g", fig1_query).reasons)

    def test_node_deletion_takes_a_full_freeze(self, fig1, fig1_query, uses):
        from repro.incremental.updates import NodeDeletion

        engine = QueryEngine()
        engine.register_graph("g", fig1)
        engine.evaluate("g", fig1_query, **self.COLD)
        engine.update_graph("g", [NodeDeletion("Fred")])
        engine.evaluate("g", fig1_query, **self.COLD)
        stats = engine.snapshot_stats()
        assert (stats["builds"], stats["patches"]) == (2, 0)
        assert "Fred" not in engine._registered["g"].frozen

    def test_more_pending_primitives_than_nodes_drop_the_snapshot(self, fig1, fig1_query, uses):
        from repro.incremental.updates import AttributeUpdate

        engine = QueryEngine()
        engine.register_graph("g", fig1)
        engine.evaluate("g", fig1_query, **self.COLD)
        entry = engine._registered["g"]
        for step in range(fig1.num_nodes):  # |V| pending: still worth a patch
            engine.update_graph("g", [AttributeUpdate("Bob", "experience", step)])
        assert entry.frozen is not None and len(entry.pending) == fig1.num_nodes
        engine.update_graph("g", [AttributeUpdate("Bob", "experience", 99)])
        assert entry.frozen is None and entry.pending == []
        assert engine.snapshot_stats()["invalidations"] == 1
        engine.evaluate("g", fig1_query, **self.COLD)
        stats = engine.snapshot_stats()
        assert (stats["builds"], stats["patches"]) == (2, 0)

    def test_store_fault_in_is_tried_only_without_a_held_snapshot(
        self, tmp_path, fig1, fig1_query, uses, monkeypatch
    ):
        from repro.engine.storage import GraphStore
        from repro.incremental.updates import EdgeInsertion

        store = GraphStore(tmp_path)
        store.save_snapshot("g", FrozenGraph.freeze(fig1))
        loads = []
        original = store.load_snapshot
        monkeypatch.setattr(
            store, "load_snapshot", lambda *a, **k: loads.append(a) or original(*a, **k)
        )
        engine = QueryEngine(store=store)
        engine.register_graph("g", fig1)
        engine.evaluate("g", fig1_query, **self.COLD)
        assert len(loads) == 1 and engine.snapshot_stats()["fault_ins"] == 1
        engine.update_graph("g", [EdgeInsertion("Fred", "Eva")])
        engine.evaluate("g", fig1_query, **self.COLD)
        assert len(loads) == 1  # held + pending: patched, the store is not asked
        assert engine.snapshot_stats()["patches"] == 1
        fig1.add_edge("Bob", "Eva")  # out of band: nothing held any more
        engine.evaluate("g", fig1_query, **self.COLD)
        assert len(loads) == 2  # tried again (stale: rebuilt)
        stats = engine.snapshot_stats()
        assert (stats["fault_in_errors"], stats["builds"]) == (1, 1)


# ----------------------------------------------------------------------
# frozen snapshot shipping (workers > 1)
# ----------------------------------------------------------------------

class TestFrozenShipping:
    @pytest.mark.parametrize("seed", range(8))
    def test_executor_matches_sequential(self, seed):
        graph, pattern = random_case(seed)
        sequential = match_bounded(graph, pattern)
        with ParallelExecutor(workers=2) as executor:
            outcomes = executor.match_many(
                graph, *batch_of(graph, pattern),
                frozen=FrozenGraph.freeze(graph),
            )
        for relation, _stats in outcomes:
            assert relation == sequential.relation, f"seed {seed}"
            assert relation.to_dict() == sequential.relation.to_dict()

    def test_engine_workers_with_warm_snapshot(self, fig1, fig1_query):
        engine = QueryEngine()
        engine.register_graph("g", fig1)
        sequential = engine.evaluate("g", fig1_query, use_cache=False,
                                     cache_result=False)
        parallel = engine.evaluate_many(
            "g", [fig1_query, deep_pattern(2)], use_cache=False,
            cache_result=False, workers=2,
        )
        assert parallel[0].relation == sequential.relation
        assert engine.snapshot_stats()["builds"] == 1  # one snapshot fed both


# ----------------------------------------------------------------------
# the Graph.update_attrs satellite
# ----------------------------------------------------------------------

class TestUpdateAttrs:
    def test_bulk_write_bumps_version_once(self):
        graph = Graph()
        graph.add_node("a")
        before = graph.version
        graph.update_attrs("a", field="SA", experience=7)
        assert graph.version == before + 1
        assert graph.attrs("a") == {"field": "SA", "experience": 7}

    def test_empty_write_is_a_noop(self):
        graph = Graph()
        graph.add_node("a")
        before = graph.version
        graph.update_attrs("a")
        assert graph.version == before

    def test_unknown_node_raises(self):
        with pytest.raises(GraphError, match="unknown node"):
            Graph().update_attrs("ghost", x=1)

    def test_attributes_named_node_or_self_pass_through(self):
        """The node parameter is positional-only — no kwarg collisions."""
        from repro.incremental.updates import AttributeUpdate

        graph = Graph()
        graph.add_node("a")
        graph.update_attrs("a", node="yes", self="also")
        assert graph.attrs("a") == {"node": "yes", "self": "also"}
        AttributeUpdate("a", "node", 42).apply(graph)
        assert graph.get("a", "node") == 42

    def test_attribute_update_routes_through_counting_api(self, fig1):
        from repro.incremental.updates import AttributeUpdate

        before = fig1.version
        AttributeUpdate("Bob", "experience", 9).apply(fig1)
        assert fig1.version == before + 1
        assert fig1.get("Bob", "experience") == 9

    def test_snapshot_cache_sees_update_attrs(self, fig1, fig1_query):
        """The closed bypass: bulk attribute writes invalidate snapshots."""
        engine = QueryEngine()
        engine.register_graph("g", fig1)
        engine.evaluate("g", fig1_query, use_cache=False, cache_result=False)
        fig1.update_attrs("Bob", field="BA")  # Bob stops matching SA
        after = engine.evaluate("g", fig1_query, use_cache=False, cache_result=False)
        assert engine.snapshot_stats()["invalidations"] == 1
        assert engine.stats()["resyncs"] == 1
        assert "Bob" not in after.relation.matches_of("SA")
