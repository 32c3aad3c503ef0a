"""Hostile request bodies: every one is a typed 4xx, none reaches the WAL.

Two verified bugs live here.  A malformed update (an unhashable node id,
a non-string attribute name) used to pass ``decode_updates``, be appended
to the WAL and only then die untyped inside ``apply`` — a 500 for the
client and, worse, a ``TypeError`` out of ``recover()`` on every later
start.  And three kinds of unreadable body (bad ``Content-Length``,
non-UTF-8 bytes, a nesting bomb) surfaced as 500s; a fourth — a
``Content-Length`` larger than any legitimate request — was buffered whole.  CI re-runs this file
alone under a wall-clock cap, so a hang on a malformed body is a visible
timeout.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.errors import ServerError
from repro.server import ExpFinderService, QueryServer, ServiceConfig
from repro.server.wire import decode_budget, decode_updates
from repro.testing.chaos import GRAPH_NAME, base_graph

MALFORMED_UPDATES = [
    ({"op": "add-edge", "source": ["a"], "target": "n0"}, "source"),
    ({"op": "add-edge", "source": "n0", "target": {"a": 1}}, "target"),
    ({"op": "remove-edge", "source": "n0", "target": ["n1"]}, "target"),
    ({"op": "add-node", "node": {"a": 1}}, "node"),
    ({"op": "add-node", "node": True}, "node"),
    ({"op": "add-node", "node": 1.5}, "node"),
    ({"op": "remove-node", "node": ["q"]}, "node"),
    ({"op": "set-attr", "node": ["n0"], "attr": "x", "value": 1}, "node"),
    ({"op": "set-attr", "node": "n0", "attr": 3, "value": 1}, "attr"),
    ({"op": "add-node", "node": "z", "attrs": {3: 1}}, "attrs"),
]

# JSON ``true`` is an ``int`` to Python: it must not read as a limit of one.
MALFORMED_BUDGETS = [
    ({"node_visits": True}, "node_visits"),
    ({"seconds": True}, "seconds"),
    ({"seconds": "1"}, "seconds"),
    ({"seconds": 0}, "seconds"),
    ({"allow_partial": 1}, "allow_partial"),
]


def _config(tmp_path) -> ServiceConfig:
    return ServiceConfig(
        wal_dir=str(tmp_path / "wal"),
        checkpoint_background=False,
        checkpoint_every=1000,  # keep the WAL suffix around for replay
    )


def _raw(address, request: bytes) -> tuple[int, dict[str, str], dict, bytes]:
    """Send raw bytes; ``(status, headers, JSON body, whatever follows)``."""
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(request)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
            head, separator, rest = data.partition(b"\r\n\r\n")
            if separator:
                lines = head.decode("latin-1").split("\r\n")
                headers = dict(line.split(": ", 1) for line in lines[1:])
                length = int(headers["Content-Length"])
                if len(rest) >= length and headers.get("Connection") != "close":
                    break
        status = int(lines[0].split()[1])
        return status, headers, json.loads(rest[:length]), rest[length:]


def _post(path: str, body: bytes, content_length: str | None = None) -> bytes:
    length = str(len(body)) if content_length is None else content_length
    head = f"POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {length}\r\n\r\n"
    return head.encode("latin-1") + body


@pytest.fixture
def server():
    service = ExpFinderService()
    service.register_graph(GRAPH_NAME, base_graph())
    with QueryServer(service) as srv:
        srv.start()
        yield srv


class TestMalformedUpdates:
    @pytest.mark.parametrize("update, field", MALFORMED_UPDATES)
    def test_decode_refuses_with_a_typed_error(self, update, field):
        with pytest.raises(ServerError, match=field):
            decode_updates({"updates": [update]})

    def test_scalar_ids_and_any_json_value_still_decode(self):
        decoded = decode_updates(
            {
                "updates": [
                    {"op": "add-node", "node": 7, "attrs": {"tags": ["a", "b"]}},
                    {"op": "add-edge", "source": 7, "target": "n0"},
                    {"op": "set-attr", "node": "n0", "attr": "x", "value": {"a": [1]}},
                ]
            }
        )
        assert [type(update).__name__ for update in decoded] == [
            "NodeInsertion",
            "EdgeInsertion",
            "AttributeUpdate",
        ]

    @pytest.mark.parametrize("update, field", MALFORMED_UPDATES[:-1])
    def test_http_400_and_the_wal_is_untouched(self, tmp_path, update, field):
        with QueryServer(ExpFinderService(_config(tmp_path))) as srv:
            srv.start()
            srv.service.register_graph(GRAPH_NAME, base_graph())
            before = srv.service.wal.stats()
            body = json.dumps({"updates": [update]}).encode()
            status, _headers, error, _rest = _raw(
                srv.address, _post(f"/graphs/{GRAPH_NAME}/update", body)
            )
            assert status == 400
            assert error["error"] == "ServerError" and field in error["message"]
            assert srv.service.wal.stats() == before
            lag = srv.service.health()["wal"]["graphs"][GRAPH_NAME]["replay_lag"]
            assert lag == 0

    def test_a_poisoned_log_still_recovers(self, tmp_path):
        """A record the old binary let into the log is skipped, not fatal."""
        service = ExpFinderService(_config(tmp_path))
        service.register_graph(GRAPH_NAME, base_graph())
        good = {"updates": [{"op": "add-node", "node": "kept", "attrs": {}}]}
        service.update_graph(GRAPH_NAME, good)
        with service.registry.pin(GRAPH_NAME) as epoch:
            version = epoch.graph.version
        # what publish() of the old binary wrote before apply blew up
        service.wal.append(
            GRAPH_NAME, [{"op": "add-edge", "source": ["a"], "target": "n0"}], version
        )
        service.update_graph(
            GRAPH_NAME, {"updates": [{"op": "add-node", "node": "later", "attrs": {}}]}
        )
        del service  # crash: no checkpoint, no seal
        with ExpFinderService(_config(tmp_path)) as revived:
            report = revived.recovered[GRAPH_NAME]
            assert report["status"] == "recovered"
            assert (report["replayed"], report["skipped"]) == (2, 1)
            with revived.registry.pin(GRAPH_NAME) as epoch:
                assert epoch.graph.has_node("kept") and epoch.graph.has_node("later")
            # and it serves writes again
            revived.update_graph(
                GRAPH_NAME, {"updates": [{"op": "remove-node", "node": "later"}]}
            )


class TestMalformedBudgets:
    @pytest.mark.parametrize("budget, field", MALFORMED_BUDGETS)
    def test_decode_refuses_with_a_typed_error(self, budget, field):
        with pytest.raises(ServerError, match=field):
            decode_budget({"budget": budget})

    def test_a_boolean_time_limit_is_a_400(self, server):
        pattern = 'node A* : kind == "seed"\n'
        body = json.dumps({"pattern": pattern, "budget": {"seconds": True}}).encode()
        status, _headers, error, _rest = _raw(
            server.address, _post(f"/graphs/{GRAPH_NAME}/evaluate", body)
        )
        assert status == 400
        assert error["error"] == "ServerError" and "seconds" in error["message"]


class TestUnreadableBodies:
    @pytest.mark.parametrize("length", ["abc", "-5", "1e3", "12 13"])
    def test_bad_content_length_is_400_and_closes(self, server, length):
        path = f"/graphs/{GRAPH_NAME}/evaluate"
        # the unread body must not be parsed as a second request
        request = _post(path, b'{"pattern": "x"}', content_length=length)
        status, headers, error, rest = _raw(server.address, request)
        assert status == 400
        assert error["error"] == "ServerError"
        assert "Content-Length" in error["message"] and length in error["message"]
        assert headers["Connection"] == "close"
        assert rest == b""  # one reply, then end of stream

    @pytest.mark.parametrize("excess", [1, 10**18])
    def test_oversized_content_length_is_refused_unread(self, server, excess):
        """The announced length alone gets the 400: the handler must not
        wait for (or buffer) the body — none of it is ever sent here, so a
        handler that called ``rfile.read`` first would hang this test."""
        from repro.server.app import MAX_BODY_BYTES

        assert MAX_BODY_BYTES >= 64 * 1024 * 1024
        length = MAX_BODY_BYTES + excess
        request = _post(f"/graphs/{GRAPH_NAME}/evaluate", b"", str(length))
        status, headers, error, rest = _raw(server.address, request)
        assert status == 400
        assert error["error"] == "ServerError"
        assert "too large" in error["message"] and str(length) in error["message"]
        assert headers["Connection"] == "close"
        assert rest == b""
        # An ordinary request is still read in full (and refused for what
        # it says, not for its size).
        ordinary = _post(f"/graphs/{GRAPH_NAME}/evaluate", b'{"pattern": 1}')
        _status, _headers, error, _rest = _raw(server.address, ordinary)
        assert "too large" not in error["message"]

    def test_non_utf8_body_is_400(self, server):
        request = _post(f"/graphs/{GRAPH_NAME}/evaluate", b'{"pattern": "\xff\xfe"}')
        status, _headers, error, _rest = _raw(server.address, request)
        assert status == 400
        assert error["error"] == "ServerError" and "UTF-8" in error["message"]

    def test_nesting_bomb_is_400(self, server):
        request = _post(f"/graphs/{GRAPH_NAME}/evaluate", b"[" * 100000)
        status, _headers, error, _rest = _raw(server.address, request)
        assert status == 400
        assert error["error"] == "ServerError" and "nested" in error["message"]

    def test_the_connection_survives_a_readable_bad_body(self, server):
        """Only an unknown body length forces a close; other 400s keep alive."""
        path = f"/graphs/{GRAPH_NAME}/explain"
        bad = _post(path, b'{"pattern": "\xff"}')
        good = _post(path, json.dumps({"pattern": "node A* : kind == 'seed'"}).encode())
        with socket.create_connection(server.address, timeout=30) as sock:
            sock.sendall(bad + good)
            data = b""
            while data.count(b"HTTP/1.1 ") < 2 or not data.endswith(b"}"):
                chunk = sock.recv(65536)
                assert chunk, data
                data += chunk
        first, second = data.split(b"HTTP/1.1 ")[1:]
        assert first.startswith(b"400 ") and second.startswith(b"200 ")
