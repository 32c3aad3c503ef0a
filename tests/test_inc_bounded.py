"""Unit tests for incremental bounded simulation."""

import pytest

from repro.graph.generators import random_digraph
from repro.incremental.inc_bounded import IncrementalBoundedSimulation
from repro.incremental.updates import EdgeDeletion, EdgeInsertion, random_updates
from repro.matching.bounded import match_bounded
from repro.matching.reference import naive_bounded
from repro.pattern.builder import PatternBuilder

from tests.conftest import drive, make_labelled_graph


def bounded_ab(bound=2):
    return (
        PatternBuilder()
        .node("A", 'label == "A"')
        .node("B", 'label == "B"')
        .edge("A", "B", bound)
        .build()
    )


class TestInsertion:
    def test_distance_shortening_creates_match(self):
        # a -> m1 -> m2 -> b is length 3 > bound 2; adding a -> m2 fixes it.
        g = make_labelled_graph(
            [("a", "m1"), ("m1", "m2"), ("m2", "b")],
            {"a": "A", "m1": "M", "m2": "M", "b": "B"},
        )
        inc = IncrementalBoundedSimulation(g, bounded_ab(2))
        assert inc.relation().is_empty
        drive(inc, EdgeInsertion("a", "m2"))
        assert inc.relation().num_pairs == 2
        inc.state.check_invariants()

    def test_insertion_updates_stored_distance(self):
        g = make_labelled_graph(
            [("a", "m"), ("m", "b")], {"a": "A", "m": "M", "b": "B"}
        )
        inc = IncrementalBoundedSimulation(g, bounded_ab(2))
        assert inc.state.S[("A", "B")]["a"]["b"] == 2
        drive(inc, EdgeInsertion("a", "b"))
        assert inc.state.S[("A", "B")]["a"]["b"] == 1
        inc.state.check_invariants()

    def test_mutual_resurrection_cyclic_bounded_pattern(self):
        q = (
            PatternBuilder()
            .node("A", 'label == "A"')
            .node("B", 'label == "B"')
            .edge("A", "B", 2)
            .edge("B", "A", 2)
            .build()
        )
        g = make_labelled_graph(
            [("b", "m2"), ("m2", "a")], {"a": "A", "b": "B", "m1": "M", "m2": "M"}
        )
        inc = IncrementalBoundedSimulation(g, q)
        assert inc.relation().is_empty
        drive(inc, EdgeInsertion("a", "m1"))
        assert inc.relation().is_empty
        drive(inc, EdgeInsertion("m1", "b"))  # closes a->m1->b->m2->a
        assert inc.relation().num_pairs == 2
        inc.state.check_invariants()

    def test_far_away_insertion_changes_nothing(self):
        g = make_labelled_graph(
            [("a", "b"), ("x", "y")], {"a": "A", "b": "B", "x": "M", "y": "M"}
        )
        inc = IncrementalBoundedSimulation(g, bounded_ab(2))
        before = inc.relation()
        drive(inc, EdgeInsertion("y", "x"))
        assert inc.relation() == before
        inc.state.check_invariants()


class TestDeletion:
    def test_deletion_breaks_unique_path(self):
        g = make_labelled_graph(
            [("a", "m"), ("m", "b")], {"a": "A", "m": "M", "b": "B"}
        )
        inc = IncrementalBoundedSimulation(g, bounded_ab(2))
        assert inc.relation().num_pairs == 2
        drive(inc, EdgeDeletion("m", "b"))
        assert inc.relation().is_empty
        inc.state.check_invariants()

    def test_deletion_with_alternate_path_updates_distance(self):
        g = make_labelled_graph(
            [("a", "b"), ("a", "m"), ("m", "b")], {"a": "A", "m": "M", "b": "B"}
        )
        inc = IncrementalBoundedSimulation(g, bounded_ab(2))
        drive(inc, EdgeDeletion("a", "b"))
        assert inc.relation().num_pairs == 2  # still reaches within 2
        assert inc.state.S[("A", "B")]["a"]["b"] == 2
        inc.state.check_invariants()

    def test_deletion_cascades_through_pattern(self):
        q = (
            PatternBuilder()
            .node("A", 'label == "A"')
            .node("B", 'label == "B"')
            .node("C", 'label == "C"')
            .edge("A", "B", 2)
            .edge("B", "C", 2)
            .build()
        )
        g = make_labelled_graph(
            [("a", "b"), ("b", "m"), ("m", "c")],
            {"a": "A", "b": "B", "m": "M", "c": "C"},
        )
        inc = IncrementalBoundedSimulation(g, q)
        assert inc.relation().num_pairs == 3
        drive(inc, EdgeDeletion("m", "c"))
        assert inc.relation().is_empty
        inc.state.check_invariants()


class TestUnboundedEdges:
    def test_unbounded_pattern_edge_maintained(self):
        q = bounded_ab(None)
        g = make_labelled_graph(
            [("a", "m1"), ("m1", "m2")], {"a": "A", "m1": "M", "m2": "M", "b": "B"}
        )
        inc = IncrementalBoundedSimulation(g, q)
        assert inc.relation().is_empty
        drive(inc, EdgeInsertion("m2", "b"))
        assert inc.relation().num_pairs == 2
        drive(inc, EdgeDeletion("m1", "m2"))
        assert inc.relation().is_empty
        inc.state.check_invariants()


class TestStateReuse:
    @pytest.mark.parametrize(
        "kind", ["bounded-state", "match-rows", "relation", "object"]
    )
    def test_rejects_a_state_that_is_not_a_bounded_state(self, kind):
        """No state is handed over, not even a dict-graph BoundedState:
        the maintainer always builds its own, and a ``state=`` argument is
        refused up front, not at the first update."""
        from repro.graph.frozen import FrozenGraph

        g = make_labelled_graph([("a", "b")], {"a": "A", "b": "B"})
        pattern = bounded_ab(2)
        result = match_bounded(g, pattern, frozen=FrozenGraph.freeze(g))
        foreign = {
            "bounded-state": match_bounded(g, pattern)._state,
            "match-rows": result._state,
            "relation": result.relation,
            "object": object(),
        }[kind]
        with pytest.raises(TypeError, match="state"):
            IncrementalBoundedSimulation(g, pattern, state=foreign)

    def test_edgeless_pattern_is_static(self):
        q = PatternBuilder().node("A", 'label == "A"').build()
        g = make_labelled_graph([], {"a": "A", "b": "B"})
        inc = IncrementalBoundedSimulation(g, q)
        drive(inc, EdgeInsertion("a", "b"))
        assert inc.relation().matches_of("A") == {"a"}


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_naive_after_random_updates(self, seed):
        g = random_digraph(14, 32, num_labels=3, seed=seed)
        q = (
            PatternBuilder()
            .node("A", 'label == "L0"')
            .node("B", 'label == "L1"')
            .node("C", 'label == "L2"')
            .edge("A", "B", 2)
            .edge("B", "C", 3)
            .edge("C", "A", 2)
            .build()
        )
        inc = IncrementalBoundedSimulation(g, q)
        for update in random_updates(g, 20, seed=seed + 500):
            drive(inc, update)
            assert inc.relation() == naive_bounded(g, q), update
        inc.state.check_invariants()

    @pytest.mark.parametrize("seed", range(4))
    def test_unbounded_pattern_against_oracle(self, seed):
        g = random_digraph(10, 18, num_labels=2, seed=seed)
        q = (
            PatternBuilder()
            .node("A", 'label == "L0"')
            .node("B", 'label == "L1"')
            .edge("A", "B", None)
            .build()
        )
        inc = IncrementalBoundedSimulation(g, q)
        for update in random_updates(g, 15, seed=seed + 900):
            drive(inc, update)
            assert inc.relation() == naive_bounded(g, q), update
        inc.state.check_invariants()

    def test_batch_equals_recompute_on_paper_graph(self, fig1, fig1_query):
        inc = IncrementalBoundedSimulation(fig1, fig1_query)
        batch = random_updates(fig1, 8, seed=77)
        drive(inc, *batch)
        assert inc.relation() == match_bounded(fig1, fig1_query).relation
