"""Round-trip tests for result-graph persistence."""

import pytest

from repro.datasets.paper_example import paper_graph, paper_pattern
from repro.engine.storage import GraphStore
from repro.errors import EvaluationError, StorageError
from repro.matching.bounded import match_bounded
from repro.matching.result_graph import ResultGraph


@pytest.fixture
def fig1_result_graph():
    return match_bounded(paper_graph(), paper_pattern()).result_graph()


class TestDictRoundTrip:
    def test_round_trip_preserves_structure(self, fig1_result_graph):
        graph = paper_graph()
        pattern = paper_pattern()
        payload = fig1_result_graph.to_dict()
        loaded = ResultGraph.from_dict(payload, graph, pattern)
        assert set(loaded.edges()) == set(fig1_result_graph.edges())
        assert set(loaded.nodes()) == set(fig1_result_graph.nodes())
        for node in loaded.nodes():
            assert loaded.matched_pattern_nodes(node) == (
                fig1_result_graph.matched_pattern_nodes(node)
            )

    def test_ranking_survives_round_trip(self, fig1_result_graph):
        from repro.ranking.social_impact import rank_matches

        loaded = ResultGraph.from_dict(
            fig1_result_graph.to_dict(), paper_graph(), paper_pattern()
        )
        assert [r.node for r in rank_matches(loaded)] == ["Bob", "Walt"]
        assert rank_matches(loaded)[0].rank == pytest.approx(9 / 5)

    def test_rejects_wrong_format(self):
        with pytest.raises(EvaluationError, match="not a repro.result_graph"):
            ResultGraph.from_dict({"format": "x"}, paper_graph(), paper_pattern())

    def test_rejects_unknown_graph_node(self, fig1_result_graph):
        payload = fig1_result_graph.to_dict()
        payload["nodes"][0]["id"] = "Nobody"
        with pytest.raises(EvaluationError, match="missing from graph"):
            ResultGraph.from_dict(payload, paper_graph(), paper_pattern())

    def test_rejects_unknown_pattern_node(self, fig1_result_graph):
        payload = fig1_result_graph.to_dict()
        payload["nodes"][0]["matches"] = ["XX"]
        with pytest.raises(EvaluationError, match="unknown pattern node"):
            ResultGraph.from_dict(payload, paper_graph(), paper_pattern())

    @pytest.mark.parametrize("weight", [1.5, 2.0, True, "2", 0, -1, None])
    def test_rejects_a_weight_that_is_not_a_positive_integer(
        self, fig1_result_graph, weight
    ):
        payload = fig1_result_graph.to_dict()
        payload["edges"][0]["weight"] = weight
        with pytest.raises(EvaluationError, match="must be an integer >= 1"):
            ResultGraph.from_dict(payload, paper_graph(), paper_pattern())

    def test_rejects_malformed_payload(self):
        payload = {"format": "repro.result_graph", "version": 1, "nodes": [{}],
                   "edges": []}
        with pytest.raises(EvaluationError, match="malformed"):
            ResultGraph.from_dict(payload, paper_graph(), paper_pattern())


class TestStoreIntegration:
    def test_save_and_load(self, tmp_path, fig1_result_graph):
        store = GraphStore(tmp_path)
        store.save_result_graph("fig1-team", fig1_result_graph)
        loaded = store.load_result_graph("fig1-team", paper_graph(), paper_pattern())
        assert set(loaded.edges()) == set(fig1_result_graph.edges())

    def test_listing_separates_kinds(self, tmp_path, fig1_result_graph):
        store = GraphStore(tmp_path)
        store.save_result_graph("rg1", fig1_result_graph)
        result = match_bounded(paper_graph(), paper_pattern())
        store.save_relation("rel1", result.relation)
        assert store.list_result_graphs() == ["rg1"]
        assert store.list_relations() == ["rel1"]

    def test_load_missing_raises(self, tmp_path):
        store = GraphStore(tmp_path)
        with pytest.raises(StorageError, match="no stored result graph"):
            store.load_result_graph("nope", paper_graph(), paper_pattern())

    def test_corrupt_file_raises(self, tmp_path, fig1_result_graph):
        store = GraphStore(tmp_path)
        path = store.save_result_graph("bad", fig1_result_graph)
        path.write_text("{]")
        with pytest.raises(StorageError, match="malformed"):
            store.load_result_graph("bad", paper_graph(), paper_pattern())
