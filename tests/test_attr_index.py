"""Attribute-index correctness: postings, resolution, maintenance.

The load-bearing property is at the bottom: index-backed candidate
generation must produce *exactly* the sets the scan path produces, for any
graph and any predicate shape — answered from postings, via a verified
superset, or by falling back to the shared scan.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.engine.engine import QueryEngine
from repro.graph.digraph import Graph
from repro.graph.generators import collaboration_graph, random_digraph
from repro.graph.index import (
    AttributeIndex,
    batch_candidates,
    candidates_from_index,
    predicate_key,
)
from repro.incremental.updates import (
    AttributeUpdate,
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
    decompose,
    random_updates,
)
from repro.matching.simulation import simulation_candidates
from repro.pattern.builder import PatternBuilder
from repro.pattern.pattern import Pattern
from repro.pattern.predicates import AlwaysTrue, And, Cmp, In, Not, Or


def small_graph() -> Graph:
    return Graph.from_edges(
        [("bob", "dan"), ("dan", "eva")],
        nodes={
            "bob": {"field": "SA", "experience": 7},
            "dan": {"field": "SD", "experience": 3},
            "eva": {"field": "SD", "experience": 2},
        },
    )


class TestPostings:
    def test_lazy_build(self):
        index = AttributeIndex(small_graph())
        assert not index.is_built
        assert sorted(index.lookup("field", "SD")) == ["dan", "eva"]
        assert index.is_built
        assert index.stats()["builds"] == 1

    def test_unanswerable_predicates_never_trigger_a_build(self):
        """A workload the index cannot serve must not pay for postings."""
        index = AttributeIndex(small_graph())
        assert index.resolve(Not(Cmp("field", "==", "SA"))) is None
        assert index.resolve(AlwaysTrue()) is None
        assert index.resolve(Cmp("tags", "==", ["a"])) is None  # unhashable value
        assert index.resolve(In("tags", [["a"], "x"])) is None  # unhashable choice
        assert not index.is_built
        assert index.stats()["builds"] == 0
        assert index.stats()["misses"] == 4

    def test_lookup_unknown_value_is_empty(self):
        index = AttributeIndex(small_graph())
        assert index.lookup("field", "XX") == frozenset()
        assert index.lookup("nope", 1) == frozenset()

    def test_unhashable_values_are_skipped(self):
        graph = small_graph()
        graph.set("bob", "tags", ["a", "b"])  # unhashable; cannot equal an atom
        index = AttributeIndex(graph)
        assert index.lookup("tags", "a") == frozenset()
        assert sorted(index.lookup("field", "SA")) == ["bob"]

    def test_lookup_scans_attrs_with_unhashable_values(self):
        """Regression: lookup() must not serve incomplete postings — an
        unhashable node value can equal a hashable query value."""
        graph = small_graph()
        graph.set("bob", "team", {1})
        index = AttributeIndex(graph)
        assert index.lookup("team", frozenset({1})) == frozenset({"bob"})
        assert index.lookup("team", [99]) == frozenset()  # unhashable query value

    def test_unhashable_predicate_values_fall_back_to_scan(self):
        """Regression: unhashable Cmp/In values must not be answered as
        'exact empty' from postings — a node can carry an equal unhashable
        value that only the scan path can see."""
        graph = small_graph()
        graph.set("bob", "tags", ["a", "b"])
        index = AttributeIndex(graph)
        for predicate in (
            Cmp("tags", "==", ["a", "b"]),
            In("tags", [["a", "b"], "x"]),
        ):
            assert index.resolve(predicate) is None
            table = batch_candidates(graph, [predicate], index=index)
            assert table[predicate_key(predicate)] == {"bob"}

    def test_unhashable_predicate_key_does_not_crash_matchers(self):
        """Regression: simulation_candidates routes through batch_candidates,
        which dict-keys predicates — an unhashable Cmp value must degrade to
        a scan, not raise TypeError."""
        graph = small_graph()
        graph.set("bob", "tags", ["a", "b"])
        pattern = Pattern()
        pattern.add_node("T", Cmp("tags", "==", ["a", "b"]))
        assert simulation_candidates(graph, pattern) == {"T": {"bob"}}
        assert candidates_from_index(graph, pattern, AttributeIndex(graph)) == {
            "T": {"bob"}
        }

    def test_len_and_repr(self):
        index = AttributeIndex(small_graph())
        assert len(index) == 0 and "unbuilt" in repr(index)
        index.lookup("field", "SA")
        assert len(index) > 0 and "postings" in repr(index)


class TestResolve:
    @pytest.fixture
    def index(self):
        return AttributeIndex(small_graph())

    def test_equality_is_exact(self, index):
        resolved = index.resolve(Cmp("field", "==", "SD"))
        assert resolved.exact and resolved.nodes == {"dan", "eva"}

    def test_membership_is_exact(self, index):
        resolved = index.resolve(In("field", ["SA", "SD"]))
        assert resolved.exact and resolved.nodes == {"bob", "dan", "eva"}

    def test_and_of_equalities_is_exact(self, index):
        resolved = index.resolve(And(Cmp("field", "==", "SD"), Cmp("experience", "==", 3)))
        assert resolved.exact and resolved.nodes == {"dan"}

    def test_or_of_equalities_is_exact(self, index):
        resolved = index.resolve(Or(Cmp("field", "==", "SA"), Cmp("experience", "==", 2)))
        assert resolved.exact and resolved.nodes == {"bob", "eva"}

    def test_range_is_exact(self, index):
        for op, expected in (
            (">=", {"bob", "dan"}),
            (">", {"bob"}),
            ("<=", {"dan", "eva"}),
            ("<", {"eva"}),
        ):
            assert index.resolve(Cmp("experience", op, 3)) == (expected, True), op
        # Incomparable values fail the comparison, as Cmp.evaluate has it.
        assert index.resolve(Cmp("experience", ">=", "3")) == (set(), True)
        assert index.resolve(Cmp("nope", "<", 3)) == (set(), True)

    def test_negation_falls_back(self, index):
        assert index.resolve(Not(Cmp("field", "==", "SD"))) is None
        # ``!=`` is a comparison like the others: exact, never a scan.
        assert index.resolve(Cmp("field", "!=", "SD")) == ({"bob"}, True)

    def test_always_true_falls_back(self, index):
        assert index.resolve(AlwaysTrue()) is None

    def test_equality_and_range_is_exact(self, index):
        resolved = index.resolve(And(Cmp("experience", ">=", 3), Cmp("field", "==", "SD")))
        assert resolved == ({"dan"}, True)
        assert index.stats()["superset_hits"] == 0

    def test_mixed_and_yields_superset(self, index):
        resolved = index.resolve(
            And(
                Cmp("field", "==", "SD"),
                Cmp("experience", ">=", 2),
                Not(Cmp("experience", "==", 3)),
            )
        )
        assert resolved is not None and not resolved.exact
        assert resolved.nodes == {"dan", "eva"}  # the negation is left to the caller

    def test_or_with_unindexable_branch_falls_back(self, index):
        predicate = Or(Cmp("field", "==", "SA"), Not(Cmp("experience", ">=", 3)))
        assert index.resolve(predicate) is None


class TestCandidates:
    def test_superset_is_verified(self):
        graph = small_graph()
        index = AttributeIndex(graph)
        predicate = And(Cmp("field", "==", "SD"), Cmp("experience", ">=", 3))
        table = batch_candidates(graph, [predicate], index=index)
        assert table[predicate.key()] == {"dan"}

    def test_superset_with_a_negation_is_verified(self):
        graph = small_graph()
        index = AttributeIndex(graph)
        predicate = And(Cmp("field", "==", "SD"), Not(Cmp("experience", "==", 3)))
        table = batch_candidates(graph, [predicate], index=index)
        assert table[predicate.key()] == {"eva"}
        assert index.stats()["superset_hits"] == 1

    def test_shared_scan_covers_unindexable_predicates(self):
        graph = small_graph()
        index = AttributeIndex(graph)
        a, b = Cmp("experience", ">=", 3), Not(Cmp("field", "==", "SA"))
        table = batch_candidates(graph, [a, b], index=index)
        assert table[a.key()] == {"bob", "dan"}
        assert table[b.key()] == {"dan", "eva"}

    def test_duplicate_predicates_computed_once(self):
        graph = small_graph()
        table = batch_candidates(graph, [Cmp("field", "==", "SD")] * 3)
        assert len(table) == 1

    def test_fresh_sets_per_pattern_node(self):
        graph = small_graph()
        pattern = Pattern()
        pattern.add_node("A", 'field == "SD"')
        pattern.add_node("B", 'field == "SD"')
        candidates = candidates_from_index(graph, pattern, AttributeIndex(graph))
        candidates["A"].discard("dan")
        assert "dan" in candidates["B"]


class TestMaintenance:
    def test_on_update_keeps_postings_fresh(self):
        graph = small_graph()
        index = AttributeIndex(graph)
        index.lookup("field", "SD")  # force build
        for update in (
            NodeInsertion.with_attrs("pat", field="SD", experience=9),
            EdgeInsertion("bob", "pat"),
            AttributeUpdate("dan", "field", "BA"),
            EdgeDeletion("bob", "dan"),
            NodeDeletion("eva"),
        ):
            update.apply(graph)
            index.on_update(update)
        assert sorted(index.lookup("field", "SD")) == ["pat"]
        assert sorted(index.lookup("field", "BA")) == ["dan"]
        assert index.lookup("field", "ST") == frozenset()
        # Incremental maintenance, not rebuilds:
        assert index.stats()["rebuilds"] == 0

    def test_out_of_band_mutation_before_engine_update_not_masked(self):
        """Regression: an out-of-band graph.set() followed by an unrelated
        engine-routed update must not be silently absorbed — the version
        gap forces a rebuild so query results stay correct."""
        graph = small_graph()
        engine = QueryEngine()
        engine.register_graph("g", graph)
        pattern = Pattern()
        pattern.add_node("SA", 'field == "SA"')
        assert engine.evaluate("g", pattern).relation.matches_of("SA") == {"bob"}
        graph.set("dan", "field", "SA")  # behind the engine's back …
        engine.update_graph("g", [EdgeInsertion("bob", "eva")])  # … then routed
        relation = engine.evaluate("g", pattern, use_cache=False).relation
        assert relation.matches_of("SA") == {"bob", "dan"}
        assert engine.attr_index_stats("g")["rebuilds"] == 1

    def test_equality_with_unhashable_node_value_scans(self):
        """Regression: a hashable query constant can equal an unhashable
        node value ({1} == frozenset({1})); postings cannot see such nodes,
        so equality on that attribute must decline to the scan path."""
        graph = small_graph()
        graph.set("bob", "team", {1})  # set: unhashable, not filed
        graph.set("dan", "team", "core")
        index = AttributeIndex(graph)
        predicate = Cmp("team", "==", frozenset({1}))
        assert index.resolve(predicate) is None
        table = batch_candidates(graph, [predicate], index=index)
        assert table[predicate_key(predicate)] == {"bob"}
        # Fully-hashable attrs keep exact resolution.
        assert index.resolve(Cmp("field", "==", "SA")).exact

    def test_attr_is_indexed_again_once_its_unhashable_values_are_gone(self):
        """Regression: an attr that once held an unhashable value declined
        to the scan path forever, until a rebuild.  The index counts the
        nodes holding one per attr; overwriting the last one releases it."""
        graph = small_graph()
        index = AttributeIndex(graph)
        index.lookup("field", "SA")  # force build
        predicate = Cmp("tag", "==", "x")
        for node, value in (("bob", ["x"]), ("dan", {"x"}), ("bob", "x")):
            update = AttributeUpdate(node, "tag", value)
            update.apply(graph)
            index.on_update(update)
        assert index.resolve(predicate) is None  # dan still holds a set
        for update in (AttributeUpdate("dan", "tag", "y"), NodeDeletion("eva")):
            update.apply(graph)
            index.on_update(update)
        assert index.resolve(predicate) == ({"bob"}, True)
        assert index.stats()["rebuilds"] == 0
        # ... and a node deletion releases its unhashable values too.
        graph = small_graph()
        graph.set("eva", "tag", ["x"])
        index = AttributeIndex(graph)
        assert index.resolve(predicate) is None
        for update in (AttributeUpdate("bob", "tag", "x"), NodeDeletion("eva")):
            for primitive in decompose(graph, update):
                primitive.apply(graph)
                index.on_update(primitive)
        assert index.resolve(predicate) == ({"bob"}, True)

    def test_out_of_band_mutation_triggers_rebuild(self):
        graph = small_graph()
        index = AttributeIndex(graph)
        assert sorted(index.lookup("field", "SA")) == ["bob"]
        graph.set("dan", "field", "SA")  # behind the engine's back
        assert sorted(index.lookup("field", "SA")) == ["bob", "dan"]
        assert index.stats()["rebuilds"] == 1

    def test_refresh_forces_rebuild(self):
        graph = small_graph()
        index = AttributeIndex(graph)
        index.lookup("field", "SA")
        # Mutating the live attrs dict bypasses the version counter …
        graph.attrs("dan")["field"] = "SA"  # repro-lint: disable=version-bump-discipline -- deliberately simulates an out-of-band write to exercise refresh()
        assert sorted(index.lookup("field", "SA")) == ["bob"]  # stale, by contract
        index.refresh()  # … so refresh() is the documented escape hatch.
        assert sorted(index.lookup("field", "SA")) == ["bob", "dan"]

    def test_graph_version_counts_mutations(self):
        graph = Graph()
        v0 = graph.version
        graph.add_node("a", x=1)
        graph.add_node("b")
        graph.add_edge("a", "b")
        graph.set("a", "x", 2)
        graph.remove_edge("a", "b")
        graph.remove_node("b")
        assert graph.version > v0
        before = graph.version
        graph.add_node("a")  # already present, no attrs: not a mutation
        assert graph.version == before


class TestEngineIntegration:
    def test_engine_maintains_index_through_updates(self):
        graph = collaboration_graph(120, seed=3)
        engine = QueryEngine()
        engine.register_graph("g", graph)
        pattern = (
            PatternBuilder("q")
            .node("SA", "experience >= 5", field="SA")
            .node("SD", field="SD")
            .edge("SA", "SD", 2)
            .build()
        )
        engine.evaluate("g", pattern)  # builds the index
        assert engine.attr_index_stats("g")["built"] == 1
        updates = random_updates(graph.copy(), 25, seed=7)
        engine.update_graph("g", updates)
        # After engine-routed updates the index answers must equal a scan.
        index_candidates = candidates_from_index(
            graph, pattern, engine._registered["g"].attr_index
        )
        assert index_candidates == simulation_candidates(graph, pattern)
        assert engine.attr_index_stats("g")["rebuilds"] == 0

    def test_attribute_updates_change_index_backed_results(self):
        graph = small_graph()
        engine = QueryEngine()
        engine.register_graph("g", graph)
        pattern = Pattern()
        pattern.add_node("SD", 'field == "SD"')
        assert engine.evaluate("g", pattern).relation.matches_of("SD") == {"dan", "eva"}
        engine.update_graph("g", [AttributeUpdate("eva", "field", "ST")])
        assert engine.evaluate("g", pattern).relation.matches_of("SD") == {"dan"}


# ----------------------------------------------------------------------
# property test: index-backed candidates == scan-backed candidates
# ----------------------------------------------------------------------

LABELS = ("A", "B", "C")


@st.composite
def predicates(draw, depth=2):
    """Random predicates spanning every resolution class."""
    if depth == 0:
        leaf = draw(st.integers(min_value=0, max_value=4))
        if leaf == 0:
            return Cmp("label", "==", draw(st.sampled_from(LABELS)))
        if leaf == 1:
            return Cmp("x", draw(st.sampled_from(["==", ">=", "<", "!="])),
                       draw(st.integers(min_value=0, max_value=9)))
        if leaf == 2:
            return In("label", draw(st.lists(st.sampled_from(LABELS), min_size=1,
                                             max_size=3, unique=True)))
        if leaf == 3:
            return AlwaysTrue()
        return Not(Cmp("label", "==", draw(st.sampled_from(LABELS))))
    kind = draw(st.integers(min_value=0, max_value=2))
    if kind == 0:
        return draw(predicates(depth=0))
    parts = draw(st.lists(predicates(depth=depth - 1), min_size=1, max_size=3))
    return And(*parts) if kind == 1 else Or(*parts)


@st.composite
def indexed_patterns(draw, max_nodes=3):
    pattern = Pattern()
    for i in range(draw(st.integers(min_value=1, max_value=max_nodes))):
        pattern.add_node(f"P{i}", draw(predicates()))
    return pattern


@given(
    st.integers(min_value=1, max_value=25),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=10_000),
    indexed_patterns(),
)
@settings(max_examples=150, deadline=None)
def test_index_candidates_equal_scan_candidates(nodes, edges, seed, pattern):
    graph = random_digraph(nodes, min(edges, nodes * (nodes - 1)), seed=seed)
    index = AttributeIndex(graph)
    assert candidates_from_index(graph, pattern, index) == simulation_candidates(
        graph, pattern
    )


@pytest.mark.parametrize("size,seed", [(200, 0), (200, 1), (500, 2)])
def test_index_candidates_equal_scan_on_collab_graphs(size, seed):
    graph = collaboration_graph(size, seed=seed)
    pattern = (
        PatternBuilder("team")
        .node("SA", "experience >= 5", field="SA", output=True)
        .node("SD", "experience >= 2", field="SD")
        .node("ST", field="ST")
        .edge("SA", "SD", 2)
        .edge("SD", "ST", 2)
        .build()
    )
    index = AttributeIndex(graph)
    assert candidates_from_index(graph, pattern, index) == simulation_candidates(
        graph, pattern
    )


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_index_stays_consistent_under_update_batches(seed):
    """Invalidation/rebuild after Updates: engine-routed batches keep the
    index's answers equal to a fresh scan."""
    graph = random_digraph(12, 20, seed=seed)
    engine = QueryEngine()
    engine.register_graph("g", graph)
    pattern = Pattern()
    pattern.add_node("P", 'label == "L0"')
    pattern.add_node("Q", "x >= 5")
    engine.evaluate("g", pattern)
    updates = random_updates(graph.copy(), 10, seed=seed + 1)
    engine.update_graph("g", updates)
    entry = engine._registered["g"]
    assert candidates_from_index(graph, pattern, entry.attr_index) == (
        simulation_candidates(graph, pattern)
    )
