"""The served path's predicate memo (``FrozenGraph._predicates``).

A snapshot answers each predicate once: its candidates as snapshot ids,
keyed by ``predicate_key``, and the backward BFS levels from that set,
stored as sink pattern nodes read them.  What it must never change: the
relation, the arrivals a cyclic pattern's re-pass cap reads, a guard's
charges, and any snapshot it was not made on.  It must stay within its
budget and never serve an identity-keyed predicate another's answer.
"""

from __future__ import annotations

import gc
import pickle
import random
import sys
import threading

import pytest

from repro.engine.estimator import QueryBudget
from repro.engine.storage import GraphStore
from repro.graph.digraph import Graph
from repro.graph.frozen import FrozenGraph
from repro.graph.generators import random_digraph
from repro.graph.index import predicate_key
from repro.incremental.updates import AttributeUpdate, EdgeInsertion
from repro.matching import bounded as bounded_module
from repro.matching.bounded import match_bounded, predicate_candidates
from repro.matching.reference import naive_bounded
from repro.matching.simulation import simulation_candidates
from repro.pattern.pattern import Pattern
from repro.pattern.predicates import Cmp
from repro.server.registry import SnapshotRegistry
from tests.test_frozen_patch import apply_batch

SEEDS = range(4)
BOUNDS = [1, 2, 6, None]

#: Two sink predicates that every pattern below shares.
SINK_A = 'label == "L1"'
SINK_B = "x >= 5"


def graph_for(seed: int) -> Graph:
    rng = random.Random(seed)
    return random_digraph(rng.randint(40, 80), rng.randint(80, 240), seed=seed)


def sharing_patterns(bound) -> list[Pattern]:
    """A star, a chain, a two-sink fork and a cycle with a sink tail, all
    ending in the same sink predicates."""
    star = Pattern("star")
    star.add_node("A", 'label == "L0"', output=True)
    star.add_node("S", SINK_A)
    star.add_node("T", SINK_B)
    star.add_edge("A", "S", bound)
    star.add_edge("A", "T", bound)
    chain = Pattern("chain")
    chain.add_node("A", "x >= 3", output=True)
    chain.add_node("B", 'label == "L2"')
    chain.add_node("S", SINK_A)
    chain.add_edge("A", "B", bound)
    chain.add_edge("B", "S", bound)
    fork = Pattern("fork")
    fork.add_node("A", 'label == "L0"', output=True)
    fork.add_node("S", SINK_B)
    fork.add_node("T", SINK_B)
    fork.add_edge("A", "S", bound)
    fork.add_edge("A", "T", 1)
    return [star, chain, fork, cycle_with_tail(bound)]


def cycle_with_tail(bound) -> Pattern:
    pattern = Pattern("cycle-tail")
    pattern.add_node("A", 'label == "L0"', output=True)
    pattern.add_node("B", None)
    pattern.add_node("S", SINK_A)
    pattern.add_edge("A", "B", bound)
    pattern.add_edge("B", "A", bound)
    pattern.add_edge("B", "S", bound)
    return pattern


def memo_match(graph: Graph, frozen: FrozenGraph, pattern: Pattern, budget=None):
    """What ``Epoch.evaluate`` runs on a miss: memo candidates, then the matcher."""
    ids = predicate_candidates(frozen, pattern, lambda p: simulation_candidates(graph, p))
    return match_bounded(graph, pattern, frozen=frozen, candidate_ids=ids, budget=budget)


def held_ids(memo) -> int:
    """What the memo's ``held`` must count: every set, every level twice."""
    levels = sum(len(level) for entry in memo.levels.values() for level in entry.stored)
    return sum(map(len, memo.ids.values())) + 2 * levels


class TestRelations:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("bound", BOUNDS, ids=str)
    def test_cold_first_and_warm_first_equal_the_reference(self, seed, bound):
        graph = graph_for(seed)
        patterns = sharing_patterns(bound)
        expected = [naive_bounded(graph, pattern) for pattern in patterns]
        cold = FrozenGraph.freeze(graph)
        assert [memo_match(graph, cold, p).relation for p in patterns] == expected
        warm = FrozenGraph.freeze(graph)
        for pattern in patterns * 2:  # levels are stored from a second read on
            memo_match(graph, warm, pattern)
        assert any(entry.stored for entry in warm._predicates.levels.values())
        again = [memo_match(graph, warm, p).relation for p in reversed(patterns)]
        assert again == expected[::-1]

    def test_sink_sets_are_the_memo_sets_and_levels_are_shared(self):
        graph = graph_for(1)
        frozen = FrozenGraph.freeze(graph)
        star, chain, fork, _ = sharing_patterns(2)
        resolve = lambda p: simulation_candidates(graph, p)  # noqa: E731
        first = predicate_candidates(frozen, star, resolve)
        assert predicate_candidates(frozen, chain, resolve)["S"] is first["S"]
        forked = predicate_candidates(frozen, fork, resolve)
        assert forked["S"] is forked["T"] is first["T"]
        memo = frozen._predicates
        levels = memo.levels[id(memo.ids[predicate_key(star.predicate("S"))])]
        memo_match(graph, frozen, star)
        assert levels.asked and not levels.stored  # a first read stores nothing
        memo_match(graph, frozen, star)
        stored = list(levels.stored)
        assert stored
        memo_match(graph, frozen, chain)  # S's levels are read, not rebuilt
        assert all(a is b for a, b in zip(levels.stored, stored, strict=False))

    def test_label_candidates_never_read_the_levels(self, monkeypatch):
        """Sets that are not the memo's (by identity) run the BFS, even
        when equal to a memoised one."""
        graph = graph_for(2)
        frozen = FrozenGraph.freeze(graph)
        star = sharing_patterns(2)[0]
        memo_match(graph, frozen, star)
        reads = []
        original = bounded_module._PredicateMemo.read

        def counting(self, levels, predecessors):
            reads.append(levels)
            return original(self, levels, predecessors)

        monkeypatch.setattr(bounded_module._PredicateMemo, "read", counting)
        labels = simulation_candidates(graph, star)
        result = match_bounded(graph, star, candidates=labels, frozen=frozen)
        assert reads == [] and result.relation == naive_bounded(graph, star)
        memo_match(graph, frozen, star)
        assert len(reads) == 2

    def test_ids_need_their_snapshot(self):
        graph = graph_for(0)
        with pytest.raises(Exception, match="snapshot"):
            match_bounded(graph, sharing_patterns(1)[0], candidate_ids={"A": frozenset()})


class TestSameWork:
    @pytest.mark.parametrize("bound", BOUNDS, ids=str)
    def test_a_cycle_with_a_sink_tail_reads_the_same_arrivals(self, bound, monkeypatch):
        arrivals: list[int] = []
        original = bounded_module._reaching

        def counting(*args, **kwargs):
            found, reached = original(*args, **kwargs)
            arrivals.append(reached)
            return found, reached

        monkeypatch.setattr(bounded_module, "_reaching", counting)
        for seed in SEEDS:
            graph = graph_for(seed)
            pattern = cycle_with_tail(bound)
            runs = []
            frozen = FrozenGraph.freeze(graph)
            for match in (
                lambda: match_bounded(graph, pattern, frozen=FrozenGraph.freeze(graph)),
                lambda: memo_match(graph, frozen, pattern),  # cold memo
                lambda: memo_match(graph, frozen, pattern),  # levels stored
                lambda: memo_match(graph, frozen, pattern),  # levels read
            ):
                arrivals.clear()
                runs.append((match().relation, list(arrivals)))
            assert runs[0] == runs[1] == runs[2] == runs[3]
            assert runs[0][0] == naive_bounded(graph, pattern)

    @pytest.mark.parametrize("visits", [10**9, 60, 200])
    def test_a_guard_charges_the_same_visits_cold_and_warm(self, visits):
        budget = QueryBudget(node_visits=visits, allow_partial=True)
        for seed in SEEDS:
            graph = graph_for(seed)
            for pattern in sharing_patterns(None) + sharing_patterns(2):
                plain = match_bounded(
                    graph, pattern, frozen=FrozenGraph.freeze(graph), budget=budget
                )
                frozen = FrozenGraph.freeze(graph)
                # cold memo, levels stored, levels read
                for _ in range(3):
                    result = memo_match(graph, frozen, pattern, budget)
                    assert result.relation == plain.relation
                    assert result.stats["visits"] == plain.stats["visits"]
                    assert result.stats["partial"] == plain.stats["partial"]


class TestNothingCarriesTheMemo:
    @staticmethod
    def warmed() -> tuple[Graph, FrozenGraph]:
        graph = graph_for(3)
        frozen = FrozenGraph.freeze(graph)
        for pattern in sharing_patterns(2):
            memo_match(graph, frozen, pattern)
        assert frozen._predicates.ids
        return graph, frozen

    def test_a_patched_snapshot_starts_empty(self):
        graph, frozen = self.warmed()
        memo, ids = frozen._predicates, dict(frozen._predicates.ids)
        node = next(iter(graph.nodes()))
        for update in (EdgeInsertion(node, node), AttributeUpdate(node, "label", "L1")):
            child_graph, primitives = apply_batch(graph, [update])
            child = frozen.patched(child_graph, primitives)
            assert child is not None and child._predicates is None
            for pattern in sharing_patterns(2):
                assert memo_match(child_graph, child, pattern).relation == naive_bounded(
                    child_graph, pattern
                )
        assert frozen._predicates is memo and memo.ids == ids

    def test_pickles_twins_and_store_loads_start_empty(self, tmp_path):
        graph, frozen = self.warmed()
        assert pickle.loads(pickle.dumps(frozen))._predicates is None
        assert frozen.without_attrs()._predicates is None
        store = GraphStore(tmp_path)
        store.save_snapshot("g", frozen)
        loaded = store.load_snapshot("g", expected_version=graph.version)
        assert loaded._predicates is None

    def test_each_epoch_starts_empty(self):
        registry = SnapshotRegistry()
        registry.register("g", graph_for(0))
        epoch = registry.current_epoch("g")
        patterns = sharing_patterns(2)
        for pattern in patterns:
            epoch.evaluate(pattern)
        assert epoch.frozen._predicates.ids
        node = next(iter(epoch.graph.nodes()))
        child = registry.publish("g", [AttributeUpdate(node, "x", 9)])
        assert child.frozen._predicates is None
        for pattern in patterns:
            assert child.evaluate(pattern).relation == naive_bounded(child.graph, pattern)


class TestRaces:
    def test_racing_first_level_extensions_give_equal_relations(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for seed in SEEDS:
                graph = random_digraph(600, 2400, seed=seed)
                pattern = sharing_patterns(None)[0]
                expected = naive_bounded(graph, pattern)
                frozen = FrozenGraph.freeze(graph)
                # Sets admitted and read once, no level stored: the
                # readers race the first.
                memo_match(graph, frozen, pattern)
                assert not any(e.stored for e in frozen._predicates.levels.values())
                barrier = threading.Barrier(3)
                relations = []

                def read() -> None:
                    barrier.wait()
                    relations.append(memo_match(graph, frozen, pattern).relation)

                threads = [threading.Thread(target=read) for _ in range(3)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert relations == [expected] * 3
                memo = frozen._predicates
                assert memo.held == held_ids(memo)
        finally:
            sys.setswitchinterval(interval)


class TestBudget:
    @pytest.mark.parametrize("factor", [0, 1, 2, 8])
    def test_held_ids_stay_within_the_budget(self, factor, monkeypatch):
        monkeypatch.setattr(bounded_module, "FROZEN_PREDICATE_MEMO_FACTOR", factor)
        capped = 0
        for seed in SEEDS:
            graph = graph_for(seed)
            frozen = FrozenGraph.freeze(graph)
            for bound in BOUNDS:
                for pattern in sharing_patterns(bound):
                    relation = memo_match(graph, frozen, pattern).relation
                    assert relation == naive_bounded(graph, pattern)
                    memo = frozen._predicates
                    assert memo.held == held_ids(memo) <= memo.budget
            assert memo.budget == factor * frozen.size
            capped += sum(entry.capped for entry in memo.levels.values())
        if factor == 1:
            assert capped  # the private walk past a refused level ran

    def test_identity_keys_never_enter_the_memo(self):
        """A list constant has no hashable key, only its predicate's id;
        once that predicate is collected another may get the same id."""
        graph = Graph()
        for index in range(6):
            graph.add_node(index, tag=[index % 2], x=index)
        graph.add_edge(0, 1)
        frozen = FrozenGraph.freeze(graph)
        resolve = lambda p: simulation_candidates(graph, p)  # noqa: E731

        def answer(value) -> set:
            pattern = Pattern()
            pattern.add_node("X", Cmp("tag", "==", value), output=True)
            ids = predicate_candidates(frozen, pattern, resolve)["X"]
            assert predicate_key(pattern.predicate("X"))[0] == "unhashable"
            return {frozen.labels[v] for v in ids}

        assert answer([0]) == {0, 2, 4}
        gc.collect()
        assert answer([1]) == {1, 3, 5}
        assert frozen._predicates.ids == {}

    def test_a_nan_constant_is_answered_every_time(self):
        graph = graph_for(0)
        frozen = FrozenGraph.freeze(graph)
        resolve = lambda p: simulation_candidates(graph, p)  # noqa: E731
        for _ in range(2):
            pattern = Pattern()
            pattern.add_node("X", Cmp("x", "!=", float("nan")), output=True)
            ids = predicate_candidates(frozen, pattern, resolve)["X"]
            assert len(ids) == graph.num_nodes
        assert len(frozen._predicates.ids) == 2
