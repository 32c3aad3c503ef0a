"""The update path of pinned, ranked queries against recomputation.

``QueryEngine.update_graph`` follows the maintainers' change log: the
pinned relation is re-read only when a membership toggled, the cached
result graph is patched row by row, and an unchanged result graph keeps
its ranking context.  Everything here checks that shortcut against work
done from scratch on the same graph, after *every* update:

* the cached context's ``matched_by`` / ``out_adj`` / ``in_adj`` and edge
  count equal a fresh ``build_result_graph`` over the maintainer's relation
  and the result graph of an independent evaluation;
* ``pinned_deltas`` equals ``before.diff(after)`` of independently
  recomputed relations;
* ``rank_maintenance`` equals what a full two-snapshot ``diff_nodes`` +
  ``carry_over_from`` reports;
* ``top_k(k)`` for k in {1, 5, all} equals ranking the recomputed result;
* identity: an empty ``ΔM`` keeps the relation object, an unchanged
  result graph keeps the context object (and the next ``top_k`` selects
  nothing), a changed one gets a new context that carries untouched
  details over by identity.

The streams mix all five update kinds over bounded and plain-simulation
patterns, in batches of several updates, on graphs small enough that
``M(Q,G)`` empties and refills (the totality flip) many times.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.engine.cache import cache_key
from repro.engine.engine import QueryEngine
from repro.errors import UpdateError
from repro.graph.digraph import Graph
from repro.graph.generators import random_digraph
from repro.incremental.updates import (
    AttributeUpdate,
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
)
from repro.matching import result_graph as result_graph_module
from repro.matching.bounded import match_bounded
from repro.matching.result_graph import build_result_graph
from repro.matching.simulation import match_simulation
from repro.pattern.pattern import Pattern
from repro.ranking import topk as topk_module
from repro.ranking.social_impact import rank_matches
from repro.ranking.topk import RankingContext

NAME = "net"
LABELS = ("L0", "L1", "L2")
ALL = 10**6


def make_pattern(name, nodes, edges) -> Pattern:
    """``nodes``: (name, condition) pairs, the first is the output node."""
    pattern = Pattern(name)
    for index, (node, condition) in enumerate(nodes):
        pattern.add_node(node, condition, output=index == 0)
    for source, target, bound in edges:
        pattern.add_edge(source, target, bound)
    return pattern


def bounded_patterns() -> list[Pattern]:
    return [
        make_pattern(
            "chain",
            [("OUT", 'label == "L0"'), ("B", 'label == "L1"'), ("C", 'label == "L2"')],
            [("OUT", "B", 2), ("B", "C", 3)],
        ),
        make_pattern(
            "cycle",
            [("OUT", 'label == "L0"'), ("B", 'label == "L1"')],
            [("OUT", "B", 2), ("B", "OUT", 2)],
        ),
        # Two pattern nodes match the same data nodes and induce the same
        # witness pairs at different bounds: rows are a minimum over edges.
        make_pattern(
            "twins",
            [("OUT", 'label == "L0"'), ("ALSO", 'label == "L0", x >= 4'), ("B", 'label == "L1"')],
            [("OUT", "B", 3), ("ALSO", "B", 1), ("B", "ALSO", None)],
        ),
    ]


def simulation_patterns() -> list[Pattern]:
    return [
        make_pattern(
            "pair",
            [("OUT", 'label == "L0"'), ("B", 'label == "L1"')],
            [("OUT", "B", 1)],
        ),
        make_pattern(
            "loop",
            [("OUT", 'label == "L1"'), ("B", 'label == "L2", x >= 2')],
            [("OUT", "B", 1), ("B", "OUT", 1)],
        ),
    ]


def recompute(graph: Graph, pattern: Pattern):
    if pattern.is_simulation_pattern:
        return match_simulation(graph, pattern)
    return match_bounded(graph, pattern)


def written_nodes(updates) -> set:
    return {
        update.node
        for update in updates
        if isinstance(update, (NodeInsertion, NodeDeletion, AttributeUpdate))
    }


class PinnedTwin:
    """An engine with pinned, ranked queries beside from-scratch recomputation."""

    def __init__(self, graph: Graph, patterns: list[Pattern], ks=(ALL, 5, 1)) -> None:
        self.graph = graph
        self.patterns = patterns
        #: the ``k`` values asked after every update; without ``ALL`` the
        #: contexts stay partially scored (bound pruning, partial carry-over)
        self.ks = ks
        self.engine = QueryEngine()
        self.engine.register_graph(NAME, graph)
        self.relations = {}
        self.kept = 0
        self.replaced = 0
        self.flips = 0
        for pattern in patterns:
            self.engine.pin(NAME, pattern)
            self.engine.top_k(NAME, pattern, 5)
            self.relations[pattern.canonical_key()] = recompute(graph, pattern).relation

    def entries(self, pattern: Pattern):
        key = cache_key(NAME, pattern)
        return dict(self.engine._cache.pinned_entries(NAME))[key], self.engine._rank_cache.peek(key)

    def update(self, updates, lazy_selects=None) -> dict:
        before = {}
        for pattern in self.patterns:
            cache_entry, rank_entry = self.entries(pattern)
            before[pattern.canonical_key()] = (cache_entry.relation, rank_entry.context)
        summary = self.engine.update_graph(NAME, updates)
        assert summary["applied"] == len(updates)
        for pattern in self.patterns:
            relation, context = before[pattern.canonical_key()]
            self.check(pattern, summary, relation, context, written_nodes(updates), lazy_selects)
        return summary

    def check(self, pattern, summary, old_relation, old_context, written, lazy_selects) -> None:
        key = pattern.canonical_key()
        cache_entry, rank_entry = self.entries(pattern)
        maintainer = cache_entry.maintainer
        expected = recompute(self.graph, pattern)

        # ΔM against independently recomputed relations
        added, removed = self.relations[key].diff(expected.relation)
        assert summary["pinned_deltas"][key] == {"added": added, "removed": removed}
        assert cache_entry.relation == expected.relation
        if not added and not removed:
            assert cache_entry.relation is old_relation
        if self.relations[key].is_empty != expected.relation.is_empty:
            self.flips += 1
        self.relations[key] = expected.relation
        assert self.engine._registered[NAME].synced_version == self.graph.version

        # the patched result graph against fresh builds
        context = rank_entry.context
        fresh = build_result_graph(
            self.graph,
            maintainer.pattern,
            maintainer.relation(),
            state=getattr(maintainer, "state", None),
        )
        for reference in (fresh, expected.result_graph()):
            assert context.matched_by == reference._matched_by
            assert context.out_adj == reference._adj
            assert context.in_adj == reference._radj
            assert context.result_graph.num_edges == reference.num_edges
        assert context.result_graph._matched_by == fresh._matched_by
        assert context.result_graph._adj == fresh._adj
        assert context.result_graph._radj == fresh._radj

        # rank_maintenance against the full two-snapshot scan
        reference_context = RankingContext(fresh)
        changed = reference_context.diff_nodes(old_context)
        reused = reference_context.carry_over_from(old_context, changed)
        rescored = sum(
            1
            for node in old_context._details
            if node in reference_context.matched_by
            and node not in reference_context._details
        )
        assert summary["rank_maintenance"][key] == {
            "reused": reused,
            "rescored": rescored,
            "changed_nodes": len(changed),
        }

        # identity: keep what did not change, carry what was not touched
        unchanged = (
            fresh._matched_by == old_context.matched_by
            and fresh._adj == old_context.out_adj
            and not any(node in old_context for node in written)
        )
        if unchanged:
            assert context is old_context
            self.kept += 1
        else:
            assert context is not old_context
            self.replaced += 1
            for node, detail in reference_context._details.items():
                assert context._details[node] is detail
                assert detail is old_context._details[node]

        # rankings against ranking the recomputed result
        assert self.engine.evaluate(NAME, pattern).stats["route"] == "cache"
        ranked = rank_matches(expected.result_graph())
        memo = context._ranked.get(pattern.output_node) if unchanged else None
        selects = None if lazy_selects is None else len(lazy_selects)
        for k in self.ks:
            assert self.engine.top_k(NAME, pattern, k) == ranked[:k]
        if memo is not None and memo[0] >= max(self.ks) and lazy_selects is not None:
            # the ranked prefix survived with the context: every call a slice
            assert len(lazy_selects) == selects


class UpdateStream:
    """Seeded updates of all five kinds, each batch valid in sequence."""

    def __init__(self, graph: Graph, seed: int) -> None:
        self.rng = random.Random(f"stream:{seed}")
        self.graph = graph
        self.next_id = max(graph.nodes()) + 1
        self.retired: list[int] = []

    def batch(self, size: int) -> list:
        scratch = self.graph.copy()
        updates = []
        while len(updates) < size:
            update = self._draw(scratch)
            if update is None:
                continue
            update.apply(scratch)
            updates.append(update)
        return updates

    def _draw(self, scratch: Graph):
        rng = self.rng
        nodes = sorted(scratch.nodes())
        kind = rng.choice(
            ("insert", "insert", "insert", "delete", "delete", "delete",
             "node", "drop", "label", "label", "x", "note")
        )
        if kind == "insert":
            source, target = rng.choice(nodes), rng.choice(nodes)
            if scratch.has_edge(source, target):
                return None
            return EdgeInsertion(source, target)
        if kind == "delete":
            edges = list(scratch.edges())
            if not edges:
                return None
            return EdgeDeletion(*rng.choice(edges))
        if kind == "node":
            if self.retired and rng.random() < 0.5:
                node = self.retired.pop(rng.randrange(len(self.retired)))
                if scratch.has_node(node):
                    return None
            else:
                node, self.next_id = self.next_id, self.next_id + 1
            return NodeInsertion.with_attrs(
                node, label=rng.choice(LABELS), x=rng.randint(0, 9)
            )
        if kind == "drop":
            if len(nodes) < 8:
                return None
            node = rng.choice(nodes)
            self.retired.append(node)
            return NodeDeletion(node)
        node = rng.choice(nodes)
        if kind == "label":
            return AttributeUpdate(node, "label", rng.choice(LABELS))
        if kind == "x":
            return AttributeUpdate(node, "x", rng.randint(0, 9))
        return AttributeUpdate(node, "note", rng.randint(0, 2))  # no predicate reads it


@pytest.fixture
def lazy_selects(monkeypatch) -> list:
    """Every ``_lazy_select`` call made through ``bulk_top_k_detail``."""
    calls: list = []
    original = topk_module._lazy_select

    def counting(context, candidates, k, bound_of, score_many):
        calls.append(k)
        return original(context, candidates, k, bound_of, score_many)

    monkeypatch.setattr(topk_module, "_lazy_select", counting)
    return calls


# ----------------------------------------------------------------------
# seeded streams
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(6))
def test_mixed_update_stream_equals_recomputation(seed, lazy_selects):
    # Small and sparse on even seeds, so relations empty and refill.
    nodes, edges = ((12, 20), (22, 60))[seed % 2]
    graph = random_digraph(nodes, edges, seed=seed)
    ks = (ALL, 5, 1) if seed < 4 else (3, 1)
    twin = PinnedTwin(graph, bounded_patterns() + simulation_patterns(), ks)
    stream = UpdateStream(graph, seed)
    for _round in range(40):
        twin.update(stream.batch(stream.rng.choice((1, 1, 1, 2, 4))), lazy_selects)
    # the stream reached every branch of the refresh
    assert twin.kept and twin.replaced
    if seed % 2 == 0:
        assert twin.flips


def test_relation_emptied_and_refilled_by_single_updates():
    graph = Graph()
    graph.add_node("a", label="L0", x=1)
    graph.add_node("m", label="L2", x=1)
    graph.add_node("b", label="L1", x=1)
    graph.add_node("c", label="L2", x=1)
    graph.add_edges([("a", "m"), ("m", "b"), ("b", "c"), ("b", "a")])
    twin = PinnedTwin(graph, bounded_patterns()[:2] + simulation_patterns()[:1])
    script = [
        EdgeDeletion("m", "b"),  # a loses its only L1 within 2 hops
        EdgeInsertion("a", "b"),  # back, and now a simulation match too
        AttributeUpdate("b", "label", "L2"),  # the only B leaves
        AttributeUpdate("b", "label", "L1"),
        NodeDeletion("b"),
        NodeInsertion.with_attrs("b", label="L1", x=7),
        EdgeInsertion("a", "b"),
        EdgeInsertion("b", "c"),
        EdgeInsertion("b", "a"),
    ]
    for update in script:
        twin.update([update])
    assert twin.flips >= 6
    key = bounded_patterns()[0].canonical_key()
    assert not twin.relations[key].is_empty


def test_pair_added_and_removed_within_one_batch():
    graph = Graph()
    for node, label in (("a1", "L0"), ("b1", "L1"), ("a2", "L0"), ("b2", "L1")):
        graph.add_node(node, label=label, x=5)
    graph.add_edge("a1", "b1")
    patterns = [bounded_patterns()[1], simulation_patterns()[0]]
    twin = PinnedTwin(graph, patterns)
    for pattern in patterns:
        twin.engine.top_k(NAME, pattern, ALL)
    before = {p.canonical_key(): twin.entries(p) for p in patterns}
    contexts = {key: rank_entry.context for key, (_c, rank_entry) in before.items()}
    summary = twin.update([EdgeInsertion("a2", "b2"), EdgeDeletion("a2", "b2")])
    for pattern in patterns:
        key = pattern.canonical_key()
        assert summary["pinned_deltas"][key] == {"added": set(), "removed": set()}
        assert twin.entries(pattern)[1].context is contexts[key]
    # and one that stays: the delta names only the surviving change
    summary = twin.update(
        [EdgeInsertion("a2", "b2"), EdgeDeletion("a2", "b2"), EdgeInsertion("a2", "b1")]
    )
    key = simulation_patterns()[0].canonical_key()
    assert summary["pinned_deltas"][key] == {"added": {("OUT", "a2")}, "removed": set()}


def test_unchanged_result_graph_keeps_context_and_ranked_prefix(lazy_selects):
    graph = random_digraph(22, 60, seed=3)
    pattern = bounded_patterns()[0]
    twin = PinnedTwin(graph, [pattern])
    twin.engine.top_k(NAME, pattern, ALL)
    _cache_entry, rank_entry = twin.entries(pattern)
    context = rank_entry.context
    details = dict(context._details)
    assert details
    # an isolated newcomer that matches nothing cannot move the result graph
    lazy_selects.clear()
    summary = twin.engine.update_graph(
        NAME, [NodeInsertion.with_attrs(999, label="L9", x=0), EdgeInsertion(999, 0)]
    )
    assert summary["rank_maintenance"][pattern.canonical_key()] == {
        "reused": len(details),
        "rescored": 0,
        "changed_nodes": 0,
    }
    assert twin.entries(pattern)[1].context is context
    assert context._details == details
    ranked = twin.engine.top_k(NAME, pattern, 3)
    assert lazy_selects == []
    assert ranked == rank_matches(match_bounded(graph, pattern).result_graph())[:3]
    assert twin.engine.stats()["resyncs"] == 0


def test_a_rank_cache_hit_with_workers_is_a_slice(lazy_selects):
    """Ranking a relation farmed out by ``evaluate_many(workers=2)`` (a
    query-cache hit without refinement state) memoises as an inline one
    does, so a rank-cache hit slices the memoised prefix."""
    graph = random_digraph(22, 60, seed=3)
    pattern, other = bounded_patterns()[:2]
    engine = QueryEngine()
    engine.register_graph(NAME, graph)
    engine.evaluate_many(NAME, [pattern, other], workers=2)
    first = engine.top_k(NAME, pattern, 5)
    assert lazy_selects == [5]
    lazy_selects.clear()
    again = engine.top_k(NAME, pattern, 3)
    assert lazy_selects == []
    expected = rank_matches(match_bounded(graph, pattern).result_graph())
    assert again == first[:3] == expected[:3]


def test_written_attribute_of_a_ranked_match_is_rescored():
    graph = random_digraph(22, 60, seed=3)
    pattern = bounded_patterns()[0]
    twin = PinnedTwin(graph, [pattern])
    best = twin.engine.top_k(NAME, pattern, ALL)[0]
    summary = twin.update([AttributeUpdate(best.node, "note", "rewritten")])
    maintenance = summary["rank_maintenance"][pattern.canonical_key()]
    assert maintenance["changed_nodes"] == 1 and maintenance["rescored"] == 1
    assert twin.engine.top_k(NAME, pattern, 1)[0].attrs["note"] == "rewritten"


def test_ranked_simulation_pattern_never_searches_the_graph(monkeypatch):
    graph = random_digraph(22, 60, seed=5)
    pattern = simulation_patterns()[0]
    twin = PinnedTwin(graph, [pattern])
    assert not twin.relations[pattern.canonical_key()].is_empty
    searches: list = []
    original = result_graph_module.bounded_descendants

    def counting(graph, source, bound):
        searches.append(source)
        return original(graph, source, bound)

    stream = UpdateStream(graph, 5)
    for _round in range(25):
        updates = stream.batch(2)
        with monkeypatch.context() as patch:
            patch.setattr(result_graph_module, "bounded_descendants", counting)
            summary = twin.engine.update_graph(NAME, updates)
        flipped = twin.relations[pattern.canonical_key()].is_empty != (
            recompute(graph, pattern).relation.is_empty
        )
        if not flipped:  # a totality flip is the one full rebuild
            assert searches == []
        searches.clear()
        twin.relations[pattern.canonical_key()] = recompute(graph, pattern).relation
        assert pattern.canonical_key() in summary["rank_maintenance"]
        assert twin.engine.top_k(NAME, pattern, ALL) == rank_matches(
            match_simulation(graph, pattern).result_graph()
        )


def test_one_shot_evaluation_logs_nothing():
    graph = random_digraph(22, 60, seed=1)
    state = match_bounded(graph, bounded_patterns()[0])._state
    assert state.log is None


# ----------------------------------------------------------------------
# a failing primitive
# ----------------------------------------------------------------------
class TestFailingPrimitive:
    def setup_twin(self):
        graph = random_digraph(22, 60, seed=2)
        patterns = [bounded_patterns()[0], simulation_patterns()[0]]
        return graph, patterns, PinnedTwin(graph, patterns)

    def test_applied_prefix_is_settled_and_queries_stay_pinned(self):
        graph, patterns, twin = self.setup_twin()
        engine = twin.engine
        source, target = next(
            (s, t)
            for s in sorted(graph.nodes())
            for t in sorted(graph.nodes())
            if s != t
            and graph.attrs(s)["label"] == "L0"
            and graph.attrs(t)["label"] == "L1"
            and not graph.has_edge(s, t)
        )
        pinned_before = engine.cache_stats()["pinned"]
        with pytest.raises(UpdateError):
            engine.update_graph(
                NAME, [EdgeInsertion(source, target), EdgeDeletion("nope-x", "nope-y")]
            )
        assert graph.has_edge(source, target)  # no rollback: the prefix stands
        stats = engine.cache_stats()
        assert stats["pinned"] == pinned_before == len(patterns)
        assert engine.stats()["resyncs"] == 0
        for pattern in patterns:
            result = engine.evaluate(NAME, pattern)
            assert result.stats["route"] == "cache"
            assert result.relation == recompute(graph, pattern).relation
            assert engine.top_k(NAME, pattern, ALL) == rank_matches(
                recompute(graph, pattern).result_graph()
            )
        # still maintained: the next batch reports every pinned query, and
        # nothing of the failed batch leaks into its delta
        for pattern in patterns:
            twin.relations[pattern.canonical_key()] = recompute(graph, pattern).relation
        summary = twin.update([EdgeDeletion(source, target)])
        assert set(summary["pinned_deltas"]) == {p.canonical_key() for p in patterns}

    def test_failure_on_the_first_primitive_changes_nothing(self):
        graph, patterns, twin = self.setup_twin()
        version = graph.version
        with pytest.raises(UpdateError):
            twin.engine.update_graph(NAME, [NodeDeletion("nope")])
        assert graph.version == version
        assert twin.engine.cache_stats()["pinned"] == len(patterns)
        summary = twin.update([AttributeUpdate(0, "x", 9)])
        assert set(summary["pinned_deltas"]) == {p.canonical_key() for p in patterns}


# ----------------------------------------------------------------------
# property: any update sequence, any batching
# ----------------------------------------------------------------------
def interpret(graph: Graph, code: tuple[int, int, int, int]):
    """One update from four drawn integers, or None where it does not apply."""
    kind, a, b, c = code
    nodes = sorted(graph.nodes())
    source, target = nodes[a % len(nodes)], nodes[b % len(nodes)]
    if kind == 0:
        return None if graph.has_edge(source, target) else EdgeInsertion(source, target)
    if kind == 1:
        return EdgeDeletion(source, target) if graph.has_edge(source, target) else None
    if kind == 2:
        node = a % 10
        if graph.has_node(node):
            return None
        return NodeInsertion.with_attrs(node, label=LABELS[b % 3], x=c % 4)
    if kind == 3:
        return NodeDeletion(source) if len(nodes) > 2 else None
    if kind == 4:
        return AttributeUpdate(source, "label", LABELS[c % 3])
    return AttributeUpdate(source, "x", c % 4)


@st.composite
def scenarios(draw):
    num_nodes = draw(st.integers(min_value=2, max_value=7))
    graph = Graph()
    for node in range(num_nodes):
        graph.add_node(node, label=draw(st.sampled_from(LABELS)), x=draw(st.integers(0, 3)))
    pairs = [(s, t) for s in range(num_nodes) for t in range(num_nodes)]
    graph.add_edges(draw(st.lists(st.sampled_from(pairs), max_size=14, unique=True)))
    names = [f"P{i}" for i in range(draw(st.integers(1, 3)))]
    bounds = st.sampled_from([1, 1, 2, 3, None])
    patterns = []
    for simulation in (False, True):
        conditions = [
            f'label == "{draw(st.sampled_from(LABELS))}"'
            + (", x >= 2" if draw(st.booleans()) else "")
            for _name in names
        ]
        edges = draw(
            st.lists(
                st.sampled_from([(s, t) for s in names for t in names]),
                max_size=4,
                unique=True,
            )
        )
        patterns.append(
            make_pattern(
                "sim" if simulation else "bounded",
                list(zip(names, conditions)),
                [(s, t, 1 if simulation else draw(bounds)) for s, t in edges],
            )
        )
    codes = draw(
        st.lists(
            st.tuples(
                st.integers(0, 5), st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)
            ),
            max_size=14,
        )
    )
    sizes = draw(st.lists(st.integers(1, 3), min_size=len(codes), max_size=len(codes)))
    return graph, patterns, codes, sizes


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_any_update_sequence_equals_recomputation(scenario):
    graph, patterns, codes, sizes = scenario
    if patterns[0].canonical_key() == patterns[1].canonical_key():
        patterns = patterns[:1]
    twin = PinnedTwin(graph, patterns)
    position = 0
    while position < len(codes):
        scratch = graph.copy()
        batch = []
        for code in codes[position : position + sizes[position]]:
            update = interpret(scratch, code)
            if update is not None:
                update.apply(scratch)
                batch.append(update)
        position += sizes[position]
        twin.update(batch)
