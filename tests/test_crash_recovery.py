"""Crash recovery: the fault sweep, degradation, and end-to-end replay.

Three layers of evidence that the WAL keeps its promise:

* the **deterministic sweep** (``repro.testing.chaos``) crashes at every
  registered fault point × every hit and asserts batch-atomic recovery;
* a **hypothesis property** does the same over *random* batch sequences
  and random kill points, compared against a never-crashed twin;
* **service-level** tests drive recovery through ``ExpFinderService``
  and live HTTP — including the subtle case of a batch that was durably
  logged and then failed validation (400): replay must skip it.
"""

from __future__ import annotations

import http.client
import json
import shutil
import tempfile
from array import array
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import (
    FaultError,
    ReproError,
    ServiceDegradedError,
    StorageError,
)
from repro.graph.frozen import FrozenGraph
from repro.graph.io import graph_to_dict
from repro.incremental.updates import NodeInsertion
from repro.server import ExpFinderService, QueryServer, ServiceConfig
from repro.server.wire import decode_updates
from repro.testing.chaos import (
    GRAPH_NAME,
    base_graph,
    build_stack,
    canonical_form,
    mixed_run,
    recover_stack,
    run_crash_sweep,
    run_scenario,
    scenario_batches,
    twin_states,
)
from repro.testing.faults import (
    ENV_VAR,
    FAULT_POINTS,
    FaultSpec,
    InjectedCrash,
    armed,
    disarm_faults,
    fault_point,
    fault_stats,
    install_from_env,
    parse_fault_env,
)


@pytest.fixture(autouse=True)
def _always_disarmed():
    disarm_faults()
    yield
    disarm_faults()


# ----------------------------------------------------------------------
# the fault-injection harness itself
# ----------------------------------------------------------------------

class TestFaultHarness:
    def test_unknown_point_raises_at_the_call_site(self):
        with pytest.raises(FaultError, match="not in the central registry"):
            fault_point("wal.made-up")  # repro-lint: disable=fault-point-registered -- asserting the runtime rejection the rule mirrors

    def test_disarmed_points_count_hits_but_never_fire(self):
        fault_point("wal.append")
        fault_point("wal.append")
        stats = fault_stats()
        assert stats["hits"]["wal.append"] == 2
        assert stats["fired"] == {}

    def test_armed_crash_fires_on_exactly_the_configured_hit(self):
        with armed("wal.append", after=2):
            fault_point("wal.append")  # hit 1: below the window
            with pytest.raises(InjectedCrash) as excinfo:
                fault_point("wal.append")
            assert excinfo.value.point == "wal.append"
            assert excinfo.value.hit == 2
            fault_point("wal.append")  # hit 3: window (count=1) passed

    def test_count_none_keeps_firing(self):
        with armed("wal.fsync", action="storage-error", count=None):
            for _ in range(3):
                with pytest.raises(StorageError, match="injected storage fault"):
                    fault_point("wal.fsync")

    def test_memory_error_action(self):
        with armed("registry.rebuild", action="memory-error"):
            with pytest.raises(MemoryError, match="injected memory fault"):
                fault_point("registry.rebuild")

    def test_injected_crash_is_not_an_exception(self):
        # `except Exception` recovery handlers must never absorb one.
        assert not issubclass(InjectedCrash, Exception)

    def test_arming_an_unknown_point_is_rejected(self):
        from repro.testing.faults import arm_faults

        with pytest.raises(FaultError, match="unknown fault point"):
            arm_faults({"nope": FaultSpec()})

    @pytest.mark.parametrize(
        "spec, match",
        [
            (FaultSpec(action="explode"), "unknown fault action"),
            (FaultSpec(after=0), "'after' must be >= 1"),
            (FaultSpec(count=0), "'count' must be >= 1"),
        ],
    )
    def test_spec_validation(self, spec, match):
        with pytest.raises(FaultError, match=match):
            spec.validate()

    def test_parse_env_grammar(self):
        specs = parse_fault_env("wal.fsync=crash@2, registry.rebuild=storage-error")
        assert specs == {
            "wal.fsync": FaultSpec(action="crash", after=2),
            "registry.rebuild": FaultSpec(action="storage-error", after=1),
        }

    @pytest.mark.parametrize(
        "value, match",
        [
            ("wal.fsync", "malformed fault spec"),
            ("wal.fsync=", "malformed fault spec"),
            ("wal.fsync=crash@soon", "malformed fault hit number"),
        ],
    )
    def test_parse_env_rejects_malformed_entries(self, value, match):
        with pytest.raises(FaultError, match=match):
            parse_fault_env(value)

    def test_install_from_env(self):
        assert install_from_env({}) is False
        assert install_from_env({ENV_VAR: "  "}) is False
        assert install_from_env({ENV_VAR: "wal.append=crash"}) is True
        with pytest.raises(InjectedCrash):
            fault_point("wal.append")

    def test_registry_is_closed_under_known_prefixes(self):
        prefixes = {name.split(".", 1)[0] for name in FAULT_POINTS}
        assert prefixes == {"wal", "registry", "checkpoint"}


# ----------------------------------------------------------------------
# the deterministic sweep: crash everywhere, recover everywhere
# ----------------------------------------------------------------------

class TestCrashSweep:
    def test_every_fault_point_survives_every_kill_site(self):
        report = run_crash_sweep()
        # every registered point was actually exercised ...
        assert report.fired_points() == FAULT_POINTS
        # ... every armed run really crashed (no vacuous successes) ...
        assert report.crashes == report.runs
        assert report.runs == sum(report.kill_sites.values())
        # ... and every recovery matched a batch-atomic prefix (the sweep
        # raises otherwise); the map records one verdict per kill site.
        assert len(report.recovered_prefix) == report.runs

    def test_uncrashed_scenario_recovers_to_the_final_state(self, tmp_path):
        batches = scenario_batches()
        states = twin_states(6, batches)
        processed, crashed = run_scenario(tmp_path, batches)
        assert (processed, crashed) == (len(batches), False)
        registry, wal = recover_stack(tmp_path)
        recovered = registry.current_epoch(GRAPH_NAME).graph
        assert canonical_form(recovered) == canonical_form(states[-1])
        assert recovered.version == states[-1].version
        mixed_run(registry)
        wal.close()


# ----------------------------------------------------------------------
# the randomized twin property
# ----------------------------------------------------------------------

def _random_batches(draw_ops: list[list[int]]) -> list[list[dict]]:
    """Integer soup → wire batches; negative codes yield invalid batches."""
    batches = []
    for batch_index, codes in enumerate(draw_ops):
        batch = []
        for op_index, code in enumerate(codes):
            node = f"r{batch_index}_{op_index}"
            if code < 0:
                # fails validation mid-batch: the edge already exists
                batch.append({"op": "add-node", "node": node, "attrs": {}})
                batch.append({"op": "add-edge", "source": "n0", "target": "n1"})
            elif code % 3 == 0:
                batch.append({"op": "add-node", "node": node, "attrs": {"c": code}})
            elif code % 3 == 1:
                batch.append({"op": "add-node", "node": node, "attrs": {}})
                batch.append(
                    {"op": "add-edge", "source": f"n{code % 6}", "target": node}
                )
            else:
                batch.append(
                    {
                        "op": "set-attr",
                        "node": f"n{code % 6}",
                        "attr": "round",
                        "value": code,
                    }
                )
        batches.append(batch)
    return batches


class TestRecoveryProperty:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        ops=st.lists(
            st.lists(st.integers(min_value=-1, max_value=30), min_size=1, max_size=3),
            min_size=1,
            max_size=5,
        ),
        point=st.sampled_from(sorted(FAULT_POINTS)),
        hit=st.integers(min_value=1, max_value=6),
    )
    def test_recovery_equals_a_twin_prefix_covering_every_ack(self, ops, point, hit):
        batches = _random_batches(ops)
        states = twin_states(6, batches)
        forms = [canonical_form(state) for state in states]
        root = Path(tempfile.mkdtemp(prefix="hyp-crash-"))
        try:
            processed, _crashed = run_scenario(
                root, batches, arm={point: FaultSpec(action="crash", after=hit)}
            )
            # a random (point, hit) the scenario never reached stays armed;
            # the restarted process carries no armed faults, so disarm
            # before recovery rather than let it detonate there
            disarm_faults()
            registry, wal = recover_stack(root)
            recovered = canonical_form(registry.current_epoch(GRAPH_NAME).graph)
            assert recovered in forms, "torn state: matches no batch prefix"
            # write-ahead: recovery covers everything that was acknowledged
            best = max(i for i, form in enumerate(forms) if form == recovered)
            assert best >= processed
            wal.close()
        finally:
            disarm_faults()
            shutil.rmtree(root, ignore_errors=True)


# ----------------------------------------------------------------------
# graceful degradation: failed rebuilds keep the last good epoch
# ----------------------------------------------------------------------

class TestDegradation:
    @pytest.mark.parametrize("action", ["storage-error", "memory-error"])
    def test_failed_rebuild_degrades_instead_of_dying(self, tmp_path, action):
        registry, wal, _cp = build_stack(tmp_path)
        registry.register(GRAPH_NAME, base_graph())
        good_epoch = registry.current_epoch(GRAPH_NAME)
        with armed("registry.rebuild", action=action):
            with pytest.raises(ServiceDegradedError, match="durably logged"):
                registry.publish(GRAPH_NAME, [NodeInsertion.with_attrs("late")])
        assert registry.degraded
        status = registry.wal_status()["graphs"][GRAPH_NAME]
        assert status["replay_lag"] == 1  # logged but not serving
        assert status["degraded_reason"]
        # reads still work, from the last good epoch
        with registry.pin(GRAPH_NAME) as epoch:
            assert epoch.epoch_id == good_epoch.epoch_id
        # the next successful publish clears the flag and catches up
        registry.publish(GRAPH_NAME, [NodeInsertion.with_attrs("later")])
        assert not registry.degraded
        status = registry.wal_status()["graphs"][GRAPH_NAME]
        assert status["replay_lag"] == 0
        with registry.pin(GRAPH_NAME) as epoch:
            assert epoch.graph.has_node("late")  # the logged batch replayed
            assert epoch.graph.has_node("later")
        wal.close()

    def test_degraded_service_health(self, tmp_path):
        config = ServiceConfig(wal_dir=str(tmp_path / "wal"))
        with ExpFinderService(config) as service:
            service.register_graph(GRAPH_NAME, base_graph())
            with armed("registry.rebuild", action="storage-error"):
                with pytest.raises(ServiceDegradedError):
                    service.update_graph(
                        GRAPH_NAME,
                        {"updates": [{"op": "add-node", "node": "x", "attrs": {}}]},
                    )
            health = service.health()
            assert health["status"] == "degraded"
            assert health["wal"]["graphs"][GRAPH_NAME]["replay_lag"] == 1


# ----------------------------------------------------------------------
# service-level recovery (ExpFinderService + live HTTP)
# ----------------------------------------------------------------------

def _service_config(tmp_path, **overrides):
    defaults = dict(
        wal_dir=str(tmp_path / "wal"),
        checkpoint_background=False,
        checkpoint_every=1000,  # keep the WAL suffix around for replay
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class TestServiceRecovery:
    def test_clean_shutdown_replays_nothing(self, tmp_path):
        with ExpFinderService(_service_config(tmp_path)) as service:
            service.register_graph(GRAPH_NAME, base_graph())
            service.update_graph(
                GRAPH_NAME,
                {"updates": [{"op": "add-node", "node": "x", "attrs": {}}]},
            )
        # close() checkpointed, so a restart finds an empty WAL suffix
        with ExpFinderService(_service_config(tmp_path)) as service:
            assert service.recovered[GRAPH_NAME]["replayed"] == 0
            with service.registry.pin(GRAPH_NAME) as epoch:
                assert epoch.graph.has_node("x")

    def test_crash_recovery_replays_the_wal_suffix(self, tmp_path):
        service = ExpFinderService(_service_config(tmp_path))
        service.register_graph(GRAPH_NAME, base_graph())
        for index in range(3):
            service.update_graph(
                GRAPH_NAME,
                {"updates": [{"op": "add-node", "node": f"x{index}", "attrs": {}}]},
            )
        # simulated crash: no close(), no final checkpoint, no WAL seal
        del service
        with ExpFinderService(_service_config(tmp_path)) as revived:
            report = revived.recovered[GRAPH_NAME]
            assert report["status"] == "recovered"
            assert report["replayed"] == 3
            with revived.registry.pin(GRAPH_NAME) as epoch:
                assert all(epoch.graph.has_node(f"x{i}") for i in range(3))

    def test_recovery_carries_only_batches_and_the_acknowledged_version(
        self, tmp_path
    ):
        graph = base_graph()
        service = ExpFinderService(_service_config(tmp_path))
        service.register_graph(GRAPH_NAME, graph)
        graph.add_edge("n5", "n0")  # out of band: no batch, no WAL record
        batches = [
            [{"op": "set-attr", "node": "n0", "attr": "round", "value": 1}],
            [  # same node and edge counts before and after
                {"op": "remove-edge", "source": "n0", "target": "n1"},
                {"op": "add-edge", "source": "n1", "target": "n0"},
            ],
            [{"op": "add-node", "node": "x", "attrs": {}}],
        ]
        acked = [
            service.update_graph(GRAPH_NAME, {"updates": batch})["graph_version"]
            for batch in batches
        ]
        assert acked == sorted(set(acked))  # strictly increasing
        del service  # simulated crash: no final checkpoint
        with ExpFinderService(_service_config(tmp_path)) as revived:
            report = revived.recovered[GRAPH_NAME]
            assert report["replayed"] == 3
            assert report["graph_version"] == acked[-1]
            with revived.registry.pin(GRAPH_NAME) as epoch:
                assert epoch.graph.version == acked[-1]
                assert epoch.graph.has_edge("n1", "n0")
                assert not epoch.graph.has_edge("n5", "n0")

    def test_recovery_patches_the_checkpoint_snapshot_across_the_tail(self, tmp_path):
        """The faulted-in snapshot is stale by exactly the replayed tail: it is
        patched once over the tail's primitives (skipped batches excluded),
        owns its arrays, and equals a full freeze array for array (the
        master is rebuilt from the snapshot itself, order-exact)."""
        service = ExpFinderService(_service_config(tmp_path))
        service.register_graph(GRAPH_NAME, base_graph())
        batches = [
            [{"op": "set-attr", "node": "n0", "attr": "round", "value": [1, "unhashable"]}],
            [
                {"op": "remove-edge", "source": "n0", "target": "n1"},
                {"op": "add-edge", "source": "n4", "target": "n0"},
                {"op": "add-edge", "source": "n2", "target": "n0"},
            ],
            [  # fails mid-batch, here and at replay: its prefix must not be patched in
                {"op": "add-node", "node": "ghost", "attrs": {}},
                {"op": "add-edge", "source": "n1", "target": "n2"},
            ],
            [
                {"op": "add-node", "node": "x", "attrs": {"kind": "late"}},
                {"op": "add-edge", "source": "x", "target": "n0"},
            ],
        ]
        for batch in batches:
            try:
                service.update_graph(GRAPH_NAME, {"updates": batch})
            except ReproError:
                pass
        del service  # simulated crash: no final checkpoint
        with ExpFinderService(_service_config(tmp_path)) as revived:
            report = revived.recovered[GRAPH_NAME]
            assert (report["replayed"], report["skipped"]) == (3, 1)
            counters = revived.registry.counters
            assert (counters["fault_ins"], counters["patches"], counters["freezes"]) == (1, 1, 0)
            with revived.registry.pin(GRAPH_NAME) as epoch:
                frozen, fresh = epoch.frozen, FrozenGraph.freeze(epoch.graph)
                assert "ghost" not in frozen and "x" in frozen
                assert frozen.path is None
                for field in (
                    "out_starts", "out_ends", "out_targets", "in_starts", "in_ends", "in_targets"
                ):
                    assert isinstance(getattr(frozen, field), array), field
                assert frozen.labels == fresh.labels
                for node in fresh.labels:  # row for row, in order
                    assert list(frozen.successors(node)) == list(fresh.successors(node))
                    assert list(frozen.predecessors(node)) == list(fresh.predecessors(node))
                # and the compact CSR arrays a checkpoint would write
                assert frozen.to_buffers()[1][:4] == fresh.to_buffers()[1][:4]
                assert frozen.successor_sets() == fresh.successor_sets()
                assert frozen.predecessor_sets() == fresh.predecessor_sets()
                assert frozen.to_graph() == epoch.graph
                assert frozen.to_graph().version == epoch.graph.version
            # and the recovered lineage keeps patching
            revived.update_graph(
                GRAPH_NAME, {"updates": [{"op": "add-edge", "source": "n0", "target": "x"}]}
            )
            assert counters["patches"] == 2 and counters["freezes"] == 0

    def test_drain_reports_quiet_service(self, tmp_path):
        with ExpFinderService(_service_config(tmp_path)) as service:
            assert service.drain(timeout=0.5) is True


class TestLiveHttpRecovery:
    def _post(self, address, path, payload):
        host, port = address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request(
                "POST",
                path,
                body=json.dumps(payload),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def test_mid_batch_400_after_wal_append_does_not_replay(self, tmp_path):
        """The durably-logged-but-invalid batch: logged, refused, skipped.

        ``publish`` appends to the WAL *before* applying, so a batch that
        fails validation mid-way is already durable when the client gets
        its 400.  Recovery must re-fail it identically — the torn prefix
        (``doomed`` without its edge) must never appear.
        """
        service = ExpFinderService(_service_config(tmp_path))
        server = QueryServer(service)
        server.start()
        try:
            status, _ = self._post(
                server.address,
                "/graphs",
                {"name": GRAPH_NAME, "graph": graph_to_dict(base_graph())},
            )
            assert status == 200
            status, error = self._post(
                server.address,
                f"/graphs/{GRAPH_NAME}/update",
                {
                    "updates": [
                        {"op": "add-node", "node": "doomed", "attrs": {}},
                        {"op": "add-edge", "source": "n0", "target": "n1"},  # dup
                    ]
                },
            )
            assert status == 400
            assert "error" in error
            status, _ = self._post(
                server.address,
                f"/graphs/{GRAPH_NAME}/update",
                {"updates": [{"op": "add-node", "node": "kept", "attrs": {}}]},
            )
            assert status == 200
        finally:
            # simulated crash: only the socket dies; the service never
            # runs its clean shutdown (no checkpoint, no WAL seal)
            server._httpd.shutdown()
            server._httpd.server_close()
        with ExpFinderService(_service_config(tmp_path)) as revived:
            report = revived.recovered[GRAPH_NAME]
            assert report["replayed"] == 1  # "kept"
            assert report["skipped"] == 1  # the 400 batch, re-failed
            with revived.registry.pin(GRAPH_NAME) as epoch:
                assert epoch.graph.has_node("kept")
                assert not epoch.graph.has_node("doomed")


# ----------------------------------------------------------------------
# determinism of the replay-skip contract
# ----------------------------------------------------------------------

class TestReplaySkip:
    def test_failed_batch_advances_applied_lsn(self, tmp_path):
        registry, wal, _cp = build_stack(tmp_path)
        registry.register(GRAPH_NAME, base_graph())
        bad = decode_updates(
            {
                "updates": [
                    {"op": "add-node", "node": "doomed", "attrs": {}},
                    {"op": "add-edge", "source": "n0", "target": "n1"},
                ]
            }
        )
        with pytest.raises(ReproError):
            registry.publish(GRAPH_NAME, bad)
        status = registry.wal_status()["graphs"][GRAPH_NAME]
        # the batch is final (refused), not pending: zero replay lag
        assert status["replay_lag"] == 0
        assert status["appended_lsn"] > 0
        with registry.pin(GRAPH_NAME) as epoch:
            assert not epoch.graph.has_node("doomed")
        wal.close()
