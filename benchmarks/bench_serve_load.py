"""E18 — closed-loop load on the query service (MVCC-lite snapshot epochs).

The server exists so that *serving* a query costs evaluation only: the
``(FrozenGraph, DistanceOracle, version)`` epoch is built once per publish
and shared by every in-flight request, and writers publish new epochs
without blocking readers.  Three
claims over a twitter-like graph (``REPRO_E18_NODES`` nodes, default
50 000; CI smoke shrinks it via the environment):

* **warm epochs beat per-request engines** — a closed-loop HTTP client
  over keep-alive connections drives the service at **>= 2x** the QPS of
  a baseline that builds a fresh :class:`QueryEngine` (register + freeze
  + evaluate) for every request.  Asserted on any host: the baseline
  re-freezes the graph per request while the service amortizes one
  freeze per epoch across the run.
* **byte-identical results** — for every pattern in the mix, the JSON
  relation served over HTTP equals the direct engine relation rendered
  with the same serializer, byte for byte.
* **zero stale reads under mixed traffic** — readers race a writer that
  publishes update batches; every reply is epoch-tagged and must equal
  the twin-replay expectation for exactly that epoch (a half-applied
  batch or a mixed-epoch view cannot produce any expected relation), and
  the epochs a connection observes never go backwards.

p50/p99 latency and QPS for the read-only and mixed phases land in
``BENCH_E18.json`` for the perf trajectory.
"""

import http.client
import json
import os
import socket
import threading
import time

import pytest

from benchmarks.conftest import cached_twitter, summary_recorder, team_pattern
from repro.engine.engine import QueryEngine
from repro.pattern.parser import format_pattern
from repro.server import ExpFinderService, QueryServer, ServiceConfig

NODES = int(os.environ.get("REPRO_E18_NODES", "50000"))
BASELINE_REQUESTS = 3
WARM_REQUESTS = 60
READ_CLIENTS = 3
MIXED_READS_PER_CLIENT = 8
UPDATE_BURSTS = 4
QPS_FLOOR = 2.0

summary = summary_recorder(
    "E18",
    nodes=NODES,
    baseline_requests=BASELINE_REQUESTS,
    warm_requests=WARM_REQUESTS,
    read_clients=READ_CLIENTS,
    update_bursts=UPDATE_BURSTS,
    qps_floor=QPS_FLOOR,
)

#: The request mix: the recurring hiring query at two seniority cutoffs.
PATTERNS = {
    "team-senior": format_pattern(team_pattern(senior=5)),
    "team-principal": format_pattern(team_pattern(senior=7)),
}


def percentile(samples, fraction):
    ranked = sorted(samples)
    index = min(len(ranked) - 1, int(fraction * len(ranked)))
    return ranked[index]


class Client:
    """One keep-alive HTTP/1.1 connection (the closed-loop unit)."""

    def __init__(self, address):
        host, port = address
        self.conn = http.client.HTTPConnection(host, port, timeout=120)
        self.conn.connect()
        # request() writes headers and body separately; TCP_NODELAY keeps
        # the body from stalling behind the server's delayed ACK.
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def post(self, path, payload):
        body = json.dumps(payload)
        self.conn.request("POST", path, body=body)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def close(self):
        self.conn.close()


@pytest.fixture(scope="module")
def graph():
    return cached_twitter(NODES)


@pytest.fixture(scope="module")
def server(graph):
    service = ExpFinderService(ServiceConfig(max_inflight=READ_CLIENTS + 2))
    service.register_graph("twitter", graph)
    with QueryServer(service) as srv:
        srv.start()
        yield srv


def canonical(relation_dict):
    return json.dumps(relation_dict, sort_keys=True)


class TestServeLoad:
    def test_warm_epochs_beat_per_request_engines(self, graph, server, summary):
        pattern_items = sorted(PATTERNS.items())

        # Baseline: what serving costs when every request builds its own
        # engine — register (freeze) + evaluate, torn down afterwards.
        start = time.perf_counter()
        baseline_relations = {}
        for index in range(BASELINE_REQUESTS):
            name, text = pattern_items[index % len(pattern_items)]
            engine = QueryEngine()
            try:
                engine.register_graph("twitter", graph)
                result = engine.evaluate("twitter", team_pattern(
                    senior=5 if name == "team-senior" else 7
                ))
                baseline_relations[name] = canonical(result.relation.to_dict())
            finally:
                engine.close()
        baseline_seconds = time.perf_counter() - start
        qps_baseline = BASELINE_REQUESTS / baseline_seconds

        # Warm: the service already holds the epoch; requests pay
        # evaluation (or an epoch-cache hit) plus JSON.
        client = Client(server.address)
        latencies = []
        served = {}
        try:
            start = time.perf_counter()
            for index in range(WARM_REQUESTS):
                name, text = pattern_items[index % len(pattern_items)]
                issued = time.perf_counter()
                status, reply = client.post(
                    "/graphs/twitter/evaluate", {"pattern": text}
                )
                latencies.append(time.perf_counter() - issued)
                assert status == 200, reply
                served[name] = canonical(reply["relation"])
            warm_seconds = time.perf_counter() - start
        finally:
            client.close()
        qps_warm = WARM_REQUESTS / warm_seconds

        # Byte identity against the direct engine, per pattern.
        for name in PATTERNS:
            assert served[name] == baseline_relations[name], (
                f"served relation for {name} diverges from the direct engine"
            )

        speedup = qps_warm / qps_baseline
        p50 = percentile(latencies, 0.50)
        p99 = percentile(latencies, 0.99)
        print(
            f"\nE18 read-only: baseline {qps_baseline:.2f} qps, "
            f"warm {qps_warm:.2f} qps ({speedup:.1f}x), "
            f"p50 {p50 * 1e3:.1f} ms, p99 {p99 * 1e3:.1f} ms"
        )
        summary.record(
            "read_only",
            qps_baseline=qps_baseline,
            qps_warm=qps_warm,
            speedup=speedup,
            p50_seconds=p50,
            p99_seconds=p99,
            byte_identical=True,
        )
        assert speedup >= QPS_FLOOR, (
            f"warm serving managed only {speedup:.2f}x the per-request-engine "
            f"baseline (floor {QPS_FLOOR}x)"
        )

    def test_mixed_read_write_zero_stale_reads(self, graph, server, summary):
        """Readers race update bursts; every reply must be exactly the
        relation of the epoch it claims to be from (twin replay)."""
        pattern = team_pattern(senior=5)
        text = PATTERNS["team-senior"]

        # A twin registration isolated from the read-only phase, plus a
        # local twin graph replaying the same updates for expectations.
        twin = graph.copy(name="twitter-rw")
        server.service.register_graph("twitter-rw", graph.copy(name="twitter-rw"))
        engine = QueryEngine()
        engine.register_graph("twin", twin)
        expected = {
            0: canonical(engine.evaluate("twin", pattern).relation.to_dict())
        }

        # Toggle two initial SA matches in and out of the predicate in one
        # batch: flip both, or neither — per-epoch expectations capture it.
        sa_matches = sorted(
            json.loads(expected[0])["sets"]["SA"], key=repr
        )
        assert len(sa_matches) >= 2, "workload needs at least two SA matches"
        targets = sa_matches[:2]
        original = {
            node: graph.attrs(node)["experience"] for node in targets
        }

        stop = threading.Event()
        failures = []
        latencies = []
        reads = []
        phase_start = time.perf_counter()

        def read_loop():
            client = Client(server.address)
            try:
                while not stop.is_set():
                    issued = time.perf_counter()
                    status, reply = client.post(
                        "/graphs/twitter-rw/evaluate", {"pattern": text}
                    )
                    latencies.append(time.perf_counter() - issued)
                    if status != 200:
                        failures.append(f"status {status}: {reply}")
                        continue
                    reads.append((reply["epoch"], canonical(reply["relation"])))
            finally:
                client.close()

        threads = [threading.Thread(target=read_loop) for _ in range(READ_CLIENTS)]
        for thread in threads:
            thread.start()
        writer = Client(server.address)
        try:
            for burst in range(UPDATE_BURSTS):
                drop = burst % 2 == 0
                updates = [
                    {
                        "op": "set-attr",
                        "node": node,
                        "attr": "experience",
                        "value": 0 if drop else original[node],
                    }
                    for node in targets
                ]
                status, reply = writer.post(
                    "/graphs/twitter-rw/update", {"updates": updates}
                )
                assert status == 200, reply
                # replay on the twin and pin the expectation to the epoch
                for item in updates:
                    twin.update_attrs(item["node"], experience=item["value"])
                expected[reply["epoch"]] = canonical(
                    engine.evaluate("twin", pattern).relation.to_dict()
                )
                # let readers observe this epoch before the next burst
                time.sleep(0.05)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
            phase_end = time.perf_counter()
            writer.close()
            engine.close()

        assert not failures, failures
        assert reads, "mixed phase produced no successful reads"
        stale = [
            (epoch, relation)
            for epoch, relation in reads
            if expected.get(epoch) != relation
        ]
        assert not stale, (
            f"{len(stale)} stale/torn reads, first at epoch {stale[0][0]}"
        )
        # the toggled batch must actually change the relation between epochs
        assert len(set(expected.values())) >= 2
        # all pins drained; exactly one live epoch remains
        registry_stats = server.service.registry.stats()
        assert registry_stats["graphs"]["twitter-rw"]["pins"] == 0
        assert registry_stats["graphs"]["twitter-rw"]["live_epochs"] == 1

        qps = len(reads) / (phase_end - phase_start)
        p50 = percentile(latencies, 0.50)
        p99 = percentile(latencies, 0.99)
        epochs_observed = sorted({epoch for epoch, _ in reads})
        print(
            f"E18 mixed: {len(reads)} reads across epochs {epochs_observed}, "
            f"{UPDATE_BURSTS} bursts, 0 stale reads, "
            f"p50 {p50 * 1e3:.1f} ms, p99 {p99 * 1e3:.1f} ms"
        )
        summary.record(
            "mixed_read_write",
            reads=len(reads),
            update_bursts=UPDATE_BURSTS,
            stale_reads=0,
            epochs_observed=epochs_observed,
            qps=qps,
            p50_seconds=p50,
            p99_seconds=p99,
        )

    def test_service_counters_recorded(self, server, summary):
        """Snapshot the lifecycle counters into the summary artifact."""
        stats = server.service.stats()
        counters = stats["registry"]["counters"]
        assert counters["epochs_published"] >= 1 + UPDATE_BURSTS
        assert stats["admission"]["rejected_full"] == 0
        summary.record(
            "service_counters",
            **counters,
            admitted=stats["admission"]["admitted"],
            peak_inflight=stats["admission"]["peak_inflight"],
        )
