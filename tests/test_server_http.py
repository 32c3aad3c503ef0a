"""End-to-end tests over real HTTP: every endpoint, error mapping, keep-alive."""

import http.client
import json
import threading

import pytest

from repro.datasets.paper_example import paper_graph
from repro.engine.storage import GraphStore
from repro.graph.frozen import FrozenGraph
from repro.graph.io import graph_to_dict
from repro.matching.bounded import match_bounded
from repro.pattern.parser import parse_pattern
from repro.server import ExpFinderService, QueryServer, ServiceConfig

PATTERN = """
node SA* : field == "SA", experience >= 5
node SD : field == "SD"
edge SA -> SD : 2
"""


class Client:
    """One keep-alive HTTP/1.1 connection to the server under test."""

    def __init__(self, address):
        host, port = address
        self.conn = http.client.HTTPConnection(host, port, timeout=30)

    def request(self, method, path, payload=None):
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload)
            headers["Content-Type"] = "application/json"
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, payload):
        return self.request("POST", path, payload)

    def close(self):
        self.conn.close()


@pytest.fixture
def server():
    service = ExpFinderService()
    service.register_graph("fig1", paper_graph())
    with QueryServer(service) as srv:
        srv.start()
        yield srv


@pytest.fixture
def client(server):
    client = Client(server.address)
    yield client
    client.close()


class TestEndpoints:
    def test_health(self, client):
        status, payload = client.get("/health")
        assert status == 200
        assert payload == {"status": "ok", "graphs": ["fig1"]}

    def test_register_evaluate_round_trip(self, client):
        status, info = client.post(
            "/graphs", {"name": "twin", "graph": graph_to_dict(paper_graph())}
        )
        assert status == 200
        assert info["nodes"] == 9
        status, reply = client.post(
            "/graphs/twin/evaluate", {"pattern": PATTERN}
        )
        assert status == 200
        direct = match_bounded(paper_graph(), parse_pattern(PATTERN, name="q"))
        assert reply["relation"]["sets"]["SA"] == sorted(
            direct.relation.matches_of("SA")
        )

    def test_evaluate_served_twice_hits_cache(self, client):
        _, first = client.post("/graphs/fig1/evaluate", {"pattern": PATTERN})
        _, second = client.post("/graphs/fig1/evaluate", {"pattern": PATTERN})
        assert first["stats"]["route"] == "direct"
        assert second["stats"]["route"] == "cache"
        assert second["relation"] == first["relation"]

    def test_batch(self, client):
        status, reply = client.post(
            "/graphs/fig1/batch", {"patterns": [PATTERN, PATTERN]}
        )
        assert status == 200
        assert reply["epoch"] == 0
        assert len(reply["results"]) == 2

    def test_topk(self, client):
        status, reply = client.post(
            "/graphs/fig1/topk", {"pattern": PATTERN, "k": 2}
        )
        assert status == 200
        assert [row["node"] for row in reply["experts"]] == ["Bob", "Walt"]

    def test_explain(self, client):
        status, reply = client.post(
            "/graphs/fig1/explain", {"pattern": PATTERN}
        )
        assert status == 200
        assert reply["graph"] == "fig1"
        assert reply["route"] in {"direct", "cache"}

    def test_update_publishes_epoch(self, client):
        status, reply = client.post(
            "/graphs/fig1/update",
            {"updates": [{"op": "add-edge", "source": "Fred", "target": "Eva"}]},
        )
        assert status == 200
        assert reply["epoch"] == 1
        _, after = client.post("/graphs/fig1/evaluate", {"pattern": PATTERN})
        assert after["epoch"] == 1
        assert "Fred" in after["relation"]["sets"]["SD"]

    def test_stats(self, client):
        client.post("/graphs/fig1/evaluate", {"pattern": PATTERN})
        status, stats = client.get("/stats")
        assert status == 200
        assert stats["requests"]["evaluate"] == 1
        assert stats["registry"]["graphs"]["fig1"]["current_epoch"] == 0
        assert stats["admission"]["admitted"] == 1

    def test_preload_over_http(self, tmp_path):
        store = GraphStore(tmp_path / "catalog")
        store.save_graph("warm", paper_graph())
        stored = store.load_graph("warm")
        store.save_snapshot("warm", FrozenGraph.freeze(stored))
        service = ExpFinderService(store=store)
        with QueryServer(service) as srv:
            srv.start()
            client = Client(srv.address)
            try:
                status, info = client.post(
                    "/graphs", {"name": "warm", "preload": True}
                )
                assert status == 200
                assert info["fault_ins"] == 1
                status, reply = client.post(
                    "/graphs/warm/evaluate", {"pattern": PATTERN}
                )
                assert status == 200
                assert reply["relation"]["sets"]["SA"]
            finally:
                client.close()

    def test_keep_alive_single_connection(self, client):
        for _ in range(3):
            status, _ = client.get("/health")
            assert status == 200
        # all three rode one socket; a fresh connection also works
        assert client.conn.sock is not None


class TestErrorMapping:
    def test_unknown_get_is_404(self, client):
        status, payload = client.get("/nope")
        assert status == 404
        assert payload["error"] == "NotFound"

    def test_unknown_post_route_is_400(self, client):
        status, payload = client.post("/graphs/fig1/rename", {"x": 1})
        assert status == 400
        assert payload["error"] == "ServerError"
        status, _ = client.post("/elsewhere", {"x": 1})
        assert status == 400

    def test_bad_pattern_is_400(self, client):
        status, payload = client.post(
            "/graphs/fig1/evaluate", {"pattern": "output SA"}
        )
        assert status == 400
        assert payload["error"] == "PatternError"

    def test_unknown_graph_is_400(self, client):
        status, payload = client.post(
            "/graphs/missing/evaluate", {"pattern": PATTERN}
        )
        assert status == 400
        assert "registered: fig1" in payload["message"]

    def test_blown_budget_is_408(self, client):
        status, payload = client.post(
            "/graphs/fig1/evaluate",
            {
                "pattern": PATTERN,
                "budget": {"node_visits": 1, "allow_partial": False},
            },
        )
        assert status == 408
        assert payload["error"] == "BudgetExceededError"

    def test_saturated_service_is_429(self, server, client):
        service = server.service
        # hold every slot so the request is refused at admission
        for _ in range(8):
            service.admission.acquire()
        service.admission.max_queue = 0
        try:
            status, payload = client.post(
                "/graphs/fig1/evaluate", {"pattern": PATTERN}
            )
        finally:
            for _ in range(8):
                service.admission.release()
        assert status == 429
        assert payload["error"] == "AdmissionError"

    def test_malformed_body_is_400(self, server):
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request(
                "POST",
                "/graphs/fig1/evaluate",
                body="{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert "not valid JSON" in payload["message"]
        finally:
            conn.close()

    def test_empty_body_is_400(self, client):
        status, payload = client.request("POST", "/graphs/fig1/evaluate")
        assert status == 400
        assert "JSON object" in payload["message"]

    def test_non_object_body_is_400(self, server):
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("POST", "/graphs/fig1/evaluate", body="[1, 2]")
            response = conn.getresponse()
            assert response.status == 400
            assert "JSON object" in json.loads(response.read())["message"]
        finally:
            conn.close()

    def test_register_needs_graph_or_preload(self, client):
        status, payload = client.post("/graphs", {"name": "x"})
        assert status == 400
        assert "preload" in payload["message"]
        status, payload = client.post("/graphs", {"graph": {}})
        assert status == 400
        assert "name" in payload["message"]
        status, payload = client.post(
            "/graphs", {"name": "x", "graph": {"bogus": True}}
        )
        assert status == 400


class TestConcurrency:
    def test_parallel_clients_during_update_burst(self, server):
        """Concurrent HTTP readers race updates; replies stay consistent.

        Every reply carries its epoch id; the batch toggles Bob and Walt
        together so any served epoch contains both or neither.
        """
        errors = []

        def read_loop():
            client = Client(server.address)
            try:
                for _ in range(10):
                    status, reply = client.post(
                        "/graphs/fig1/evaluate", {"pattern": PATTERN}
                    )
                    if status != 200:
                        errors.append(f"status {status}: {reply}")
                        continue
                    sa = set(reply["relation"]["sets"]["SA"]) & {"Bob", "Walt"}
                    if len(sa) == 1:
                        errors.append(
                            f"torn read at epoch {reply['epoch']}: {sorted(sa)}"
                        )
            finally:
                client.close()

        def write_loop():
            client = Client(server.address)
            try:
                for round_no in range(6):
                    experience = 1 if round_no % 2 == 0 else 7
                    status, _ = client.post(
                        "/graphs/fig1/update",
                        {
                            "updates": [
                                {
                                    "op": "set-attr",
                                    "node": "Bob",
                                    "attr": "experience",
                                    "value": experience,
                                },
                                {
                                    "op": "set-attr",
                                    "node": "Walt",
                                    "attr": "experience",
                                    "value": experience + 1,
                                },
                            ]
                        },
                    )
                    assert status == 200
            finally:
                client.close()

        threads = [threading.Thread(target=read_loop) for _ in range(3)]
        threads.append(threading.Thread(target=write_loop))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        # after the burst every pin has drained
        stats = server.service.registry.stats()
        assert stats["graphs"]["fig1"]["pins"] == 0
        assert stats["graphs"]["fig1"]["live_epochs"] == 1


class TestLifecycle:
    def test_close_is_idempotent(self):
        service = ExpFinderService(ServiceConfig())
        server = QueryServer(service)
        server.start()
        server.close()
        server.close()
        service.close()

    def test_url_property(self, server):
        host, port = server.address
        assert server.url == f"http://{host}:{port}"
