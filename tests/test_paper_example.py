"""Reproduction tests for every fact the paper states about Fig. 1.

These tests ARE the reproduction of the demo's Examples 1-3 (experiment ids
E1-E3 in DESIGN.md) plus the §II compression discussion.  Each assertion
cites the sentence of the paper it checks.
"""

from fractions import Fraction

import pytest

from repro.compression.compress import compress
from repro.compression.decompress import decompress_relation
from repro.compression.equivalence import mutually_similar
from repro.datasets.paper_example import (
    EDGE_E1,
    PAPER_RANKS,
    PAPER_RELATION,
    paper_graph,
    paper_pattern,
)
from repro.graph.distance import distance
from repro.incremental.inc_bounded import IncrementalBoundedSimulation
from repro.incremental.updates import EdgeInsertion
from repro.matching.bounded import match_bounded
from repro.matching.isomorphism import count_isomorphisms
from repro.matching.simulation import match_simulation
from repro.ranking.social_impact import rank_matches, social_impact_rank

from tests.conftest import drive


@pytest.fixture(scope="module")
def result():
    return match_bounded(paper_graph(), paper_pattern())


class TestExample1:
    """Example 1: M(Q,G) = {(SA,Bob), (SA,Walt), (BA,Jean), (SD,Mat),
    (SD,Dan), (SD,Pat), (ST,Eva)}."""

    def test_exact_match_relation(self, result):
        got = {u: set(vs) for u, vs in result.relation.items()}
        assert got == {u: set(vs) for u, vs in PAPER_RELATION.items()}

    def test_sd_maps_to_both_programmer_and_dba(self, result):
        """"the node SD in Q is mapped to both Mat (programmer) and Pat
        (DBA) in G, which is not allowed by a bijection"."""
        graph = paper_graph()
        matches = result.relation.matches_of("SD")
        specialties = {graph.get(v, "specialty") for v in matches}
        assert "programmer" in specialties
        assert "DBA" in specialties

    def test_sa_ba_edge_maps_to_length3_path(self):
        """"the edge is mapped to a path (e.g., the path from Bob to Jean)
        of a bounded length"."""
        graph = paper_graph()
        assert distance(graph, "Bob", "Jean") == 3  # within the bound of 3

    def test_subgraph_isomorphism_finds_nothing(self):
        """Isomorphism needs edge-to-edge mapping: no embedding exists."""
        assert count_isomorphisms(paper_graph(), paper_pattern()) == 0

    def test_plain_simulation_finds_nothing(self):
        """Simulation 'only allows edge to edge matching' — too strict here."""
        assert match_simulation(paper_graph(), paper_pattern()).relation.is_empty

    def test_fred_is_not_a_match_before_e1(self, result):
        assert "Fred" not in result.relation.matches_of("SD")

    def test_bill_matches_nothing(self, result):
        assert "Bill" not in result.relation.matched_data_nodes()


class TestExample2:
    """Example 2: f(SA,Bob) = 9/5, f(SA,Walt) = 7/3, Bob is top-1."""

    def test_result_graph_nodes(self, result):
        """"Its result graph Gr is a weighted graph with a set of nodes
        {Bob, Walt, Jean, Mat, Dan, Pat, Eva}"."""
        assert set(result.result_graph().nodes()) == {
            "Bob", "Walt", "Jean", "Mat", "Dan", "Pat", "Eva",
        }

    def test_rank_of_bob_is_nine_fifths(self, result):
        rank = social_impact_rank(result.result_graph(), "Bob")
        assert Fraction(rank).limit_denominator(100) == Fraction(9, 5)

    def test_rank_of_walt_is_seven_thirds(self, result):
        rank = social_impact_rank(result.result_graph(), "Walt")
        assert Fraction(rank).limit_denominator(100) == Fraction(7, 3)

    def test_paper_rank_constants(self, result):
        rg = result.result_graph()
        for node, expected in PAPER_RANKS.items():
            assert social_impact_rank(rg, node) == pytest.approx(expected)

    def test_bob_impact_set_sizes(self, result):
        """f(SA,Bob) divides by 5 and f(SA,Walt) by 3."""
        ranked = {r.node: r for r in rank_matches(result.result_graph())}
        assert ranked["Bob"].impact_set_size == 5
        assert ranked["Walt"].impact_set_size == 3

    def test_bob_is_top_one(self, result):
        ranked = rank_matches(result.result_graph())
        assert ranked[0].node == "Bob"
        assert ranked[1].node == "Walt"


class TestExample3:
    """Example 3: inserting e1 yields ΔM = {(SD, Fred)}."""

    def test_delta_is_exactly_sd_fred(self):
        before = match_bounded(paper_graph(), paper_pattern()).relation
        after = match_bounded(paper_graph(include_e1=True), paper_pattern()).relation
        added, removed = before.diff(after)
        assert added == {("SD", "Fred")}
        assert removed == set()

    def test_incremental_module_finds_the_same_delta(self):
        graph = paper_graph()
        incremental = IncrementalBoundedSimulation(graph, paper_pattern())
        before = incremental.relation()
        drive(incremental, EdgeInsertion(*EDGE_E1))
        added, removed = before.diff(incremental.relation())
        assert added == {("SD", "Fred")}
        assert removed == set()

    def test_incremental_state_is_consistent_after_e1(self):
        graph = paper_graph()
        incremental = IncrementalBoundedSimulation(graph, paper_pattern())
        drive(incremental, EdgeInsertion(*EDGE_E1))
        incremental.state.check_invariants()


class TestCompressionDiscussion:
    """§II: "Both Fred and Pat (DBA) collaborated with ST and BA people.
    Since they simulate the behavior of each other ... they could be
    considered equivalent"."""

    def test_pat_and_fred_mutually_similar_after_e1(self):
        graph = paper_graph(include_e1=True)
        label_of = lambda v: (graph.get(v, "field"), graph.get(v, "specialty"))
        assert mutually_similar(graph, label_of, "Pat", "Fred")

    def test_pat_and_fred_not_equivalent_before_e1(self):
        graph = paper_graph()
        label_of = lambda v: (graph.get(v, "field"), graph.get(v, "specialty"))
        assert not mutually_similar(graph, label_of, "Pat", "Fred")

    def test_compression_merges_pat_and_fred(self):
        compressed = compress(
            paper_graph(include_e1=True), attrs=("field", "specialty"),
            method="simulation",
        )
        assert compressed.class_of("Pat") == compressed.class_of("Fred")

    def test_compressed_graph_is_query_preserving_here(self):
        graph = paper_graph(include_e1=True)
        pattern = paper_pattern()
        # The pattern reads field+experience; compress over all three
        # attributes it may distinguish so compatibility holds.
        compressed = compress(
            graph, attrs=("field", "specialty", "experience"), method="simulation"
        )
        assert compressed.is_compatible(pattern)
        quotient_relation = match_bounded(compressed.quotient, pattern).relation
        recovered = decompress_relation(quotient_relation, compressed)
        assert recovered == match_bounded(graph, pattern).relation

    def test_both_fred_and_pat_collaborate_with_st_and_ba(self):
        graph = paper_graph(include_e1=True)
        for person in ("Pat", "Fred"):
            fields = {graph.get(s, "field") for s in graph.successors(person)}
            assert "ST" in fields
            assert "BA" in fields
