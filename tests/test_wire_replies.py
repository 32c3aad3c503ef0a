"""The reply contract: bytes equal ``json.dumps`` of the dict API; a
rank-cache hit slices the ranking already selected.

These tests pin what must hold whatever is memoised behind a hit: the
bytes are exactly what ``json.dumps`` of the in-process result would be,
the top-K selection really runs once per ranking context, and nothing
memoised outlives the value that owns it.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.datasets.paper_example import paper_graph, paper_pattern
from repro.engine.engine import QueryEngine
from repro.incremental.updates import EdgeDeletion
from repro.matching.base import MatchRelation
from repro.matching.bounded import match_bounded
from repro.pattern.parser import parse_pattern
from repro.ranking import topk
from repro.ranking.social_impact import rank_matches
from repro.server import ExpFinderService, QueryServer, ServiceConfig
from repro.server.wire import error_payload

PATTERN = """
node SA* : field == "SA", experience >= 5
node SD : field == "SD"
edge SA -> SD : 2
"""
GROW = {
    "updates": [
        {"op": "add-node", "node": "Zed", "attrs": {"field": "SD", "experience": 9}},
        {"op": "add-edge", "source": "Bob", "target": "Zed"},
    ]
}


def expected_relation() -> MatchRelation:
    return match_bounded(paper_graph(), parse_pattern(PATTERN, name="pattern")).relation


class Spy:
    """Record what the in-process service method returned for each request."""

    METHODS = ("evaluate", "batch", "topk", "explain", "update_graph", "health", "stats")

    def __init__(self, service: ExpFinderService) -> None:
        self.returned: list = []
        for name in self.METHODS:
            setattr(service, name, self._recording(getattr(service, name)))

    def _recording(self, method):
        def recorded(*args, **kwargs):
            result = method(*args, **kwargs)
            self.returned.append(result)
            return result

        return recorded


@pytest.fixture
def server():
    service = ExpFinderService()
    service.register_graph("fig1", paper_graph())
    with QueryServer(service) as srv:
        srv.start()
        yield srv


def raw(server: QueryServer, method: str, path: str, payload=None) -> tuple[int, bytes]:
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


# ----------------------------------------------------------------------
# (a) the bytes on the wire are json.dumps of the dict API
# ----------------------------------------------------------------------
class TestBytesEqualTheDictApi:
    REQUESTS = [
        ("POST", "/graphs/fig1/evaluate", {"pattern": PATTERN}),
        ("POST", "/graphs/fig1/batch", {"patterns": [PATTERN, PATTERN]}),
        ("POST", "/graphs/fig1/topk", {"pattern": PATTERN, "k": 2}),
        ("POST", "/graphs/fig1/explain", {"pattern": PATTERN}),
        ("GET", "/health", None),
        ("GET", "/stats", None),
    ]

    @pytest.mark.parametrize("method, path, payload", REQUESTS)
    def test_miss_then_hit(self, server, method, path, payload):
        spy = Spy(server.service)
        for attempt in ("miss", "hit"):
            status, body = raw(server, method, path, payload)
            assert status == 200
            assert body == json.dumps(spy.returned[-1]).encode(), attempt
        assert len(spy.returned) == 2

    def test_evaluate_hit_is_a_hit_with_the_documented_layout(self, server):
        raw(server, "POST", "/graphs/fig1/evaluate", {"pattern": PATTERN})
        _status, body = raw(server, "POST", "/graphs/fig1/evaluate", {"pattern": PATTERN})
        reply = json.loads(body)
        assert reply["stats"]["route"] == "cache"
        assert list(reply) == ["graph", "epoch", "graph_version", "relation", "stats"]
        assert reply["relation"] == expected_relation().to_dict()

    def test_update(self, server):
        spy = Spy(server.service)
        status, body = raw(server, "POST", "/graphs/fig1/update", GROW)
        assert status == 200
        assert body == json.dumps(spy.returned[-1]).encode()

    def test_error_reply(self, server):
        status, body = raw(server, "POST", "/graphs/nope/evaluate", {"pattern": PATTERN})
        assert status == 400
        with pytest.raises(Exception) as caught:
            server.service.evaluate("nope", {"pattern": PATTERN})
        assert body == json.dumps(error_payload(caught.value)).encode()

    def test_the_dict_api_is_a_plain_json_able_dict(self, server):
        for _attempt in ("miss", "hit"):
            reply = server.service.evaluate("fig1", {"pattern": PATTERN})
            expected = expected_relation()
            assert reply["relation"] == expected.to_dict()
            assert reply["relation"]["sets"]["SA"] == sorted(expected["SA"], key=repr)
            assert json.loads(json.dumps(reply))["relation"] == expected.to_dict()

    def test_two_threads_on_one_entry_get_identical_bytes(self, server):
        raw(server, "POST", "/graphs/fig1/evaluate", {"pattern": PATTERN})  # fill the cache
        barrier = threading.Barrier(2)
        relations: list[bytes] = []

        def hit():
            barrier.wait()
            for _ in range(20):
                _status, body = raw(server, "POST", "/graphs/fig1/evaluate", {"pattern": PATTERN})
                start, end = body.find(b'"relation": '), body.rfind(b', "stats": ')
                relations.append(body[start:end])

        threads = [threading.Thread(target=hit) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(relations) == 40 and len(set(relations)) == 1


# ----------------------------------------------------------------------
# (b) the selection is done once
# ----------------------------------------------------------------------
class TestSelectionIsDoneOnce:
    def test_second_topk_never_selects(self, server, monkeypatch):
        calls = []
        original = topk._lazy_select

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(topk, "_lazy_select", counting)
        request = ("POST", "/graphs/fig1/topk", {"pattern": PATTERN, "k": 2})
        _status, first = raw(server, *request)
        assert len(calls) == 1
        _status, second = raw(server, *request)
        assert len(calls) == 1
        assert second == first
        # a shorter list is a prefix of the memoised one, a longer one is not
        _status, shorter = raw(server, "POST", "/graphs/fig1/topk", {"pattern": PATTERN, "k": 1})
        assert len(calls) == 1
        assert json.loads(shorter)["experts"] == json.loads(first)["experts"][:1]
        raw(server, "POST", "/graphs/fig1/topk", {"pattern": PATTERN, "k": 3})
        assert len(calls) == 2

    def test_memoised_topk_is_the_unmemoised_result(self):
        result = match_bounded(paper_graph(), paper_pattern())
        expected = rank_matches(result.result_graph())
        context = topk.RankingContext(result.result_graph())
        for k in (2, 1, None, 3, 1):
            fresh = topk.RankingContext(result.result_graph())
            ranked = topk.bulk_top_k_detail(context, k)
            assert ranked == topk.bulk_top_k_detail(fresh, k) == expected[:k]
            ranked.clear()  # the caller's own list: the memo must not notice
        assert topk.bulk_top_k_detail(context, None) == expected

    def test_a_scoring_backend_bypasses_the_memo(self):
        result = match_bounded(paper_graph(), paper_pattern())
        context = topk.RankingContext(result.result_graph())
        expected = topk.bulk_top_k_detail(context, 2)
        calls = []

        def backend(ctx, metric, nodes):
            calls.append(list(nodes))
            return topk._score_inline(ctx, metric, nodes)

        cold = topk.RankingContext(result.result_graph())
        assert topk.bulk_top_k_detail(cold, 2, score_many=backend) == expected
        assert calls and not cold._ranked


# ----------------------------------------------------------------------
# (c) a memo dies with the value that owns it
# ----------------------------------------------------------------------
class TestNothingLeaksAcrossValues:
    def test_a_new_epoch_answers_with_the_new_relation(self, server):
        request = ("POST", "/graphs/fig1/evaluate", {"pattern": PATTERN})
        raw(server, *request)
        _status, before = raw(server, *request)
        assert "Zed" not in json.loads(before)["relation"]["sets"]["SD"]
        raw(server, "POST", "/graphs/fig1/update", GROW)
        for route in ("direct", "cache"):
            _status, body = raw(server, *request)
            reply = json.loads(body)
            assert reply["epoch"] == 1 and reply["stats"]["route"] == route
            assert "Zed" in reply["relation"]["sets"]["SD"]

    def test_a_new_epoch_ranks_the_new_graph(self, server):
        request = ("POST", "/graphs/fig1/topk", {"pattern": PATTERN, "k": 5})
        raw(server, *request)
        _status, before = raw(server, *request)
        raw(
            server,
            "POST",
            "/graphs/fig1/update",
            {"updates": [{"op": "set-attr", "node": "Bob", "attr": "experience", "value": 1}]},
        )
        _status, after = raw(server, *request)
        nodes = [expert["node"] for expert in json.loads(after)["experts"]]
        assert "Bob" in [expert["node"] for expert in json.loads(before)["experts"]]
        assert "Bob" not in nodes and nodes

    def test_a_partial_result_is_neither_cached_nor_memoised(self):
        service = ExpFinderService(ServiceConfig())
        service.register_graph("fig1", paper_graph())
        tiny = {"pattern": PATTERN, "budget": {"node_visits": 1, "allow_partial": True}}
        with QueryServer(service) as server:
            server.start()
            for _attempt in range(2):
                _status, body = raw(server, "POST", "/graphs/fig1/evaluate", tiny)
                partial = json.loads(body)
                assert partial["stats"]["partial"] and partial["stats"]["route"] == "direct"
            # the ranking of a partial relation is not kept either
            raw(server, "POST", "/graphs/fig1/topk", {**tiny, "k": 2})
            epoch = service.registry.current_epoch("fig1")
            assert len(epoch.cache._entries) == len(epoch.rank_cache._entries) == 0
            _status, body = raw(server, "POST", "/graphs/fig1/evaluate", {"pattern": PATTERN})
            full = json.loads(body)
            assert full["stats"]["route"] == "direct" and not full["stats"].get("partial")
            assert full["relation"] != partial["relation"]
            assert full["relation"] == expected_relation().to_dict()
            assert len(epoch.cache._entries) == 1

    def test_update_graph_on_a_pinned_query_re_ranks(self):
        graph = paper_graph()
        engine = QueryEngine()
        engine.register_graph("fig1", graph)
        pattern = paper_pattern()
        engine.pin("fig1", pattern)
        before = engine.top_k("fig1", pattern, 3)
        assert engine.top_k("fig1", pattern, 3) == before  # served from the memo
        engine.update_graph("fig1", [EdgeDeletion("Bob", "Dan")])
        after = engine.top_k("fig1", pattern, 3)
        assert after == rank_matches(match_bounded(graph, pattern).result_graph())[:3]
        assert after != before


# ----------------------------------------------------------------------
# (d) the dict handed to a caller is not what the next reply is made of
# ----------------------------------------------------------------------
class TestCallersCannotChangeTheBytes:
    def test_mutating_the_returned_mapping(self, server):
        request = ("POST", "/graphs/fig1/evaluate", {"pattern": PATTERN})
        _status, first = raw(server, *request)
        reply = server.service.evaluate("fig1", {"pattern": PATTERN})
        reply["relation"]["sets"]["SA"] = ["Mallory"]
        reply["relation"]["sets"]["SD"].append("Mallory")
        reply["relation"]["format"] = "forged"
        del reply["relation"]["version"]
        _status, later = raw(server, *request)
        start, end = first.find(b'"relation": '), first.rfind(b', "stats": ')
        assert b"Mallory" not in later and b"forged" not in later
        assert later[later.find(b'"relation": ') : later.rfind(b', "stats": ')] == first[start:end]
        again = server.service.evaluate("fig1", {"pattern": PATTERN})["relation"]
        assert again["format"] == "repro.relation" and again["version"] == 1
        assert again["sets"]["SA"] != ["Mallory"]


# ----------------------------------------------------------------------
# tidy: a pattern that cannot be ranked is refused before it is evaluated
# ----------------------------------------------------------------------
def test_topk_without_an_output_node_is_refused_unevaluated(server, monkeypatch):
    from repro.server.registry import Epoch

    def never(self, *args, **kwargs):
        raise AssertionError("evaluated a pattern top_k must refuse")

    monkeypatch.setattr(Epoch, "evaluate", never)
    status, body = raw(
        server, "POST", "/graphs/fig1/topk", {"pattern": PATTERN.replace("SA*", "SA"), "k": 2}
    )
    assert status == 400
    assert "output" in json.loads(body)["message"]
