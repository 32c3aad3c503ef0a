"""Unit tests for incremental plain simulation."""

import pytest

from repro.graph.digraph import Graph
from repro.graph.generators import random_digraph
from repro.incremental.inc_simulation import IncrementalSimulation
from repro.incremental.updates import EdgeDeletion, EdgeInsertion, random_updates
from repro.matching.reference import naive_simulation
from repro.matching.simulation import every_bound_one
from repro.pattern.builder import PatternBuilder
from repro.pattern.pattern import Pattern

from tests.conftest import drive, make_labelled_graph


def chain_ab():
    return (
        PatternBuilder()
        .node("A", 'label == "A"')
        .node("B", 'label == "B"')
        .edge("A", "B", 1)
        .build()
    )


def cycle_ab():
    return (
        PatternBuilder()
        .node("A", 'label == "A"')
        .node("B", 'label == "B"')
        .edge("A", "B", 1)
        .edge("B", "A", 1)
        .build()
    )


class TestInsertion:
    def test_insertion_creates_match(self):
        g = make_labelled_graph([], {"a": "A", "b": "B"})
        inc = IncrementalSimulation(g, chain_ab())
        assert inc.relation().is_empty
        drive(inc, EdgeInsertion("a", "b"))
        assert sorted(inc.relation().pairs()) == [("A", "a"), ("B", "b")]

    def test_insertion_resurrects_chain(self):
        # c was never matched; inserting b->c revives b, which revives a.
        g = make_labelled_graph(
            [("a", "b")], {"a": "A", "b": "B", "c": "C"}
        )
        q = (
            PatternBuilder()
            .node("A", 'label == "A"')
            .node("B", 'label == "B"')
            .node("C", 'label == "C"')
            .edge("A", "B", 1)
            .edge("B", "C", 1)
            .build()
        )
        inc = IncrementalSimulation(g, q)
        assert inc.relation().is_empty
        drive(inc, EdgeInsertion("b", "c"))
        assert inc.relation().num_pairs == 3

    def test_mutual_resurrection_on_cyclic_pattern(self):
        """The optimistic local fixpoint must revive mutually-dependent pairs."""
        g = make_labelled_graph([("b", "a")], {"a": "A", "b": "B"})
        inc = IncrementalSimulation(g, cycle_ab())
        assert inc.relation().is_empty
        drive(inc, EdgeInsertion("a", "b"))  # now a->b->a: both valid together
        assert inc.relation().num_pairs == 2
        inc.state.check_invariants()

    def test_irrelevant_insertion_changes_nothing(self):
        g = make_labelled_graph([("a", "b")], {"a": "A", "b": "B", "c": "C"})
        inc = IncrementalSimulation(g, chain_ab())
        before = inc.relation()
        drive(inc, EdgeInsertion("c", "a"))
        assert inc.relation() == before


class TestDeletion:
    def test_deletion_removes_match(self):
        g = make_labelled_graph([("a", "b")], {"a": "A", "b": "B"})
        inc = IncrementalSimulation(g, chain_ab())
        drive(inc, EdgeDeletion("a", "b"))
        assert inc.relation().is_empty

    def test_deletion_with_remaining_witness_keeps_match(self):
        g = make_labelled_graph(
            [("a", "b1"), ("a", "b2")], {"a": "A", "b1": "B", "b2": "B"}
        )
        inc = IncrementalSimulation(g, chain_ab())
        drive(inc, EdgeDeletion("a", "b1"))
        # a still has the witness b2; b1 keeps matching B because membership
        # depends only on predicates and *outgoing* requirements.
        assert inc.relation().matches_of("A") == {"a"}
        assert inc.relation().matches_of("B") == {"b1", "b2"}
        drive(inc, EdgeDeletion("a", "b2"))
        assert inc.relation().is_empty

    def test_deletion_cascades_upstream(self):
        g = make_labelled_graph(
            [("a", "b"), ("b", "c")], {"a": "A", "b": "B", "c": "C"}
        )
        q = (
            PatternBuilder()
            .node("A", 'label == "A"')
            .node("B", 'label == "B"')
            .node("C", 'label == "C"')
            .edge("A", "B", 1)
            .edge("B", "C", 1)
            .build()
        )
        inc = IncrementalSimulation(g, q)
        assert inc.relation().num_pairs == 3
        drive(inc, EdgeDeletion("b", "c"))
        assert inc.relation().is_empty
        inc.state.check_invariants()


class TestRoundTripsAndOracle:
    def test_insert_then_delete_returns_to_start(self):
        g = make_labelled_graph([("a", "b")], {"a": "A", "b": "B", "c": "B"})
        inc = IncrementalSimulation(g, chain_ab())
        before = inc.relation()
        drive(inc, EdgeInsertion("a", "c"))
        drive(inc, EdgeDeletion("a", "c"))
        assert inc.relation() == before
        inc.state.check_invariants()

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_batch_after_random_updates(self, seed):
        g = random_digraph(15, 35, num_labels=3, seed=seed)
        q = (
            PatternBuilder()
            .node("A", 'label == "L0"')
            .node("B", 'label == "L1"')
            .node("C", 'label == "L2"')
            .edge("A", "B", 1)
            .edge("B", "C", 1)
            .edge("C", "A", 1)
            .build()
        )
        # A bound-2 copy is read as its bound-1 rewrite.
        wide = q.to_dict()
        for edge in wide["edges"]:
            edge["bound"] = 2
        for pattern in (q, Pattern.from_dict(wide)):
            graph = g.copy()
            inc = IncrementalSimulation(graph, pattern)
            for update in random_updates(graph, 25, seed=seed + 50):
                drive(inc, update)
                assert inc.relation() == naive_simulation(graph, every_bound_one(pattern))
            inc.state.check_invariants()

    def test_one_driver_call_equals_unit_calls(self):
        g1 = random_digraph(12, 25, num_labels=2, seed=1)
        g2 = g1.copy()
        q = chain_ab_for_random()
        inc_batch = IncrementalSimulation(g1, q)
        inc_units = IncrementalSimulation(g2, q)
        batch = random_updates(g1, 12, seed=2)
        drive(inc_batch, *batch)
        for update in batch:
            drive(inc_units, update)
        assert inc_batch.relation() == inc_units.relation()

    def test_initial_state_matches_batch_matcher(self):
        g = random_digraph(15, 30, num_labels=2, seed=4)
        q = chain_ab_for_random()
        assert IncrementalSimulation(g, q).relation() == naive_simulation(g, q)

    def test_follows_a_write_made_by_the_caller(self):
        g = make_labelled_graph([], {"a": "A", "b": "B"})
        inc = IncrementalSimulation(g, chain_ab())
        g.add_edge("a", "b")  # caller mutates the graph first
        inc.apply(EdgeInsertion("a", "b"))
        assert inc.relation().num_pairs == 2
        inc.state.check_invariants()

    def test_unknown_update_type_rejected(self):
        g = make_labelled_graph([], {"a": "A", "b": "B"})
        inc = IncrementalSimulation(g, chain_ab())
        from repro.errors import UpdateError

        with pytest.raises(UpdateError):
            inc.apply("not an update")  # type: ignore[arg-type]


def chain_ab_for_random():
    return (
        PatternBuilder()
        .node("A", 'label == "L0"')
        .node("B", 'label == "L1"')
        .edge("A", "B", 1)
        .build()
    )
