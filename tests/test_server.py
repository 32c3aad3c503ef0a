"""MVCC-lite snapshot registry + service facade tests.

Covers the epoch lifecycle (register/pin/publish/retire), the acceptance
criterion that an in-flight query pinned to epoch N completes against N
while N+1 publishes, torn-read freedom under concurrent update bursts,
admission control, wire decoding, and the in-process service facade.
"""

import json
import threading

import pytest

from repro.datasets.paper_example import paper_graph, paper_pattern
from repro.engine.estimator import QueryBudget
from repro.engine.storage import GraphStore
from repro.errors import AdmissionError, ReproError, ServerError, ServiceDegradedError
from repro.graph.digraph import Graph
from repro.graph.frozen import FrozenGraph
from repro.incremental.updates import (
    AttributeUpdate,
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
)
from repro.matching.bounded import match_bounded
from repro.pattern.parser import parse_pattern
from repro.server import (
    AdmissionController,
    ExpFinderService,
    ServiceConfig,
    SnapshotRegistry,
)
from repro.server.wire import (
    decode_budget,
    decode_pattern,
    decode_updates,
    encode_ranked,
    error_payload,
    error_status,
)
from repro.testing.faults import armed
from tests.test_digraph import view
from tests.test_frozen_patch import observed

SIM_PATTERN = """
node SA* : field == "SA"
node SD : field == "SD"
edge SA -> SD : 1
"""

BOUNDED_PATTERN = """
node SA* : field == "SA"
node SD : field == "SD"
edge SA -> SD : 2
"""


@pytest.fixture
def registry() -> SnapshotRegistry:
    reg = SnapshotRegistry()
    reg.register("fig1", paper_graph())
    return reg


class TestRegistration:
    def test_register_publishes_epoch_zero(self, registry):
        epoch = registry.current_epoch("fig1")
        assert epoch.epoch_id == 0
        assert not epoch.retired
        assert registry.counters["epochs_published"] == 1
        assert registry.counters["freezes"] == 1

    def test_duplicate_register_rejected(self, registry):
        with pytest.raises(ServerError, match="already registered"):
            registry.register("fig1", paper_graph())

    def test_replace_reregisters(self, registry):
        registry.register("fig1", paper_graph(include_e1=True), replace=True)
        epoch = registry.current_epoch("fig1")
        assert epoch.graph.has_edge("Fred", "Eva")

    def test_unknown_graph_errors_name_the_known_ones(self, registry):
        with pytest.raises(ServerError, match="registered: fig1"):
            registry.pin("nope")
        with pytest.raises(ServerError, match="unknown graph"):
            registry.current_epoch("nope")
        with pytest.raises(ServerError, match="unknown graph"):
            registry.publish("nope", [])

    def test_graphs_sorted(self, registry):
        registry.register("alpha", paper_graph())
        assert registry.graphs() == ["alpha", "fig1"]


class TestEpochReads:
    def test_evaluate_matches_direct_kernel(self, registry):
        epoch = registry.current_epoch("fig1")
        served = epoch.evaluate(paper_pattern())
        direct = match_bounded(paper_graph(), paper_pattern())
        assert served.relation == direct.relation
        # byte identity, which is what E18 asserts over the wire
        assert json.dumps(served.relation.to_dict(), sort_keys=True) == json.dumps(
            direct.relation.to_dict(), sort_keys=True
        )
        assert served.stats["route"] == "direct"
        assert served.stats["epoch"] == 0

    def test_repeat_evaluate_hits_epoch_cache(self, registry):
        epoch = registry.current_epoch("fig1")
        first = epoch.evaluate(paper_pattern())
        second = epoch.evaluate(paper_pattern())
        assert second.stats["route"] == "cache"
        assert second.relation == first.relation

    def test_simulation_pattern_routes_through_simulation(self, registry):
        epoch = registry.current_epoch("fig1")
        pattern = parse_pattern(SIM_PATTERN, name="sim")
        result = epoch.evaluate(pattern)
        assert "Bob" in result.relation.matches_of("SA")

    def test_partial_results_never_cached(self, registry):
        epoch = registry.current_epoch("fig1")
        tiny = QueryBudget(node_visits=1, allow_partial=True)
        partial = epoch.evaluate(paper_pattern(), budget=tiny)
        assert partial.stats["partial"]
        # a full re-run is a miss, not a poisoned cache hit
        full = epoch.evaluate(paper_pattern())
        assert full.stats["route"] == "direct"
        assert not full.stats.get("partial")

    def test_top_k_ranks_and_caches(self, registry):
        epoch = registry.current_epoch("fig1")
        ranked = epoch.top_k(paper_pattern(), 2)
        assert [m.node for m in ranked] == ["Bob", "Walt"]
        assert epoch.rank_cache.stats()["size"] == 1
        again = epoch.top_k(paper_pattern(), 1)
        assert [m.node for m in again] == ["Bob"]

    def test_explain_reports_plan_and_epoch(self, registry):
        epoch = registry.current_epoch("fig1")
        plan = epoch.explain(paper_pattern())
        assert plan["epoch"] == 0
        assert plan["oracle"] is False
        assert plan["route"] in {"direct", "cache"}
        epoch.evaluate(paper_pattern())
        assert epoch.explain(paper_pattern())["route"] == "cache"


class TestPublish:
    def test_publish_swaps_epoch_and_retires_prior(self, registry):
        prior = registry.current_epoch("fig1")
        epoch = registry.publish("fig1", [EdgeInsertion("Fred", "Eva")])
        assert epoch.epoch_id == 1
        assert registry.current_epoch("fig1") is epoch
        assert prior.retired
        # no pins were open, so the prior collapsed immediately
        assert registry.live_epochs("fig1") == [epoch]
        assert registry.counters["epochs_retired"] == 1
        assert "Fred" in epoch.evaluate(paper_pattern()).relation.matches_of("SD")

    def test_pinned_epoch_survives_publish(self, registry):
        """The acceptance criterion: a query pinned to epoch N completes
        against N while N+1 publishes."""
        handle = registry.pin("fig1")
        pinned = handle.epoch
        published = threading.Event()

        def writer():
            registry.publish("fig1", [EdgeInsertion("Fred", "Eva")])
            published.set()

        thread = threading.Thread(target=writer)
        thread.start()
        assert published.wait(timeout=10), "publish must not block on a pin"
        thread.join()
        # the pinned epoch is superseded but alive; its reads see the
        # pre-update world
        assert pinned.retired
        assert pinned.pins == 1
        relation = pinned.evaluate(paper_pattern()).relation
        assert "Fred" not in relation.matches_of("SD")
        # release drains the pin and retires the epoch
        handle.release()
        assert pinned.pins == 0
        live = registry.live_epochs("fig1")
        assert [e.epoch_id for e in live] == [1]
        # new pins land on the published epoch
        with registry.pin("fig1") as fresh:
            assert fresh.epoch_id == 1
            assert "Fred" in fresh.evaluate(paper_pattern()).relation.matches_of("SD")

    def test_handle_release_is_idempotent(self, registry):
        handle = registry.pin("fig1")
        assert not handle.released
        handle.release()
        handle.release()
        assert handle.released
        assert registry.current_epoch("fig1").pins == 0

    def test_attr_only_batch_publishes_new_epoch(self, registry):
        before = registry.current_epoch("fig1")
        epoch = registry.publish("fig1", [AttributeUpdate("Bob", "experience", 1)])
        assert epoch.epoch_id == before.epoch_id + 1
        assert "Bob" not in epoch.evaluate(paper_pattern()).relation.matches_of("SA")

    def test_failed_batch_is_all_or_nothing(self, registry):
        """A primitive raising mid-batch must not corrupt the master: the
        batch prefix is rolled back, and the next successful publish
        builds an epoch WITHOUT the failed batch's prefix applied."""
        before = registry.current_epoch("fig1")
        bad_batch = [
            EdgeInsertion("Fred", "Eva"),  # valid prefix...
            EdgeDeletion("Fred", "Pat"),  # ...then a missing edge: raises
        ]
        with pytest.raises(ReproError, match="not present"):
            registry.publish("fig1", bad_batch)
        # served state untouched: same current epoch, nothing published
        assert registry.current_epoch("fig1") is before
        assert registry.counters["epochs_published"] == 1
        # the next publish builds from the unprefixed master: the failed
        # batch's EdgeInsertion must NOT leak into the new epoch
        epoch = registry.publish("fig1", [AttributeUpdate("Bob", "skill", "db")])
        assert not epoch.graph.has_edge("Fred", "Eva")
        assert "Fred" not in epoch.evaluate(paper_pattern()).relation.matches_of("SD")

    def test_failed_batch_leaves_reads_consistent(self, registry):
        expected = registry.current_epoch("fig1").evaluate(paper_pattern()).relation
        with pytest.raises(ReproError):
            registry.publish(
                "fig1", [EdgeInsertion("Fred", "Eva"), EdgeInsertion("Fred", "Eva")]
            )
        with registry.pin("fig1") as epoch:
            assert epoch.evaluate(paper_pattern()).relation == expected


class TestOneGraphPerVersion:
    """The registry owns its graphs; ``graph_version`` names their content."""

    def test_out_of_band_write_never_reaches_an_epoch(self):
        graph = paper_graph()
        registry = SnapshotRegistry()
        registry.register("fig1", graph)
        graph.add_edge("Fred", "Eva")  # behind the registry's back: no batch
        graph.set("Bob", "experience", 0)
        assert not registry.current_epoch("fig1").graph.has_edge("Fred", "Eva")
        epoch = registry.publish("fig1", [AttributeUpdate("Pat", "skill", "db")])
        assert not epoch.graph.has_edge("Fred", "Eva")
        assert epoch.graph.get("Bob", "experience") == 7
        assert epoch.graph.get("Pat", "skill") == "db"

    def test_publish_makes_one_copy_and_serves_it(self, registry, monkeypatch):
        copies = []
        original = Graph.copy

        def counting_copy(self, name=None):
            copies.append(self)
            return original(self, name)

        monkeypatch.setattr(Graph, "copy", counting_copy)
        before = registry.current_epoch("fig1")
        epoch = registry.publish("fig1", [EdgeInsertion("Fred", "Eva")])
        assert copies == [before.graph]  # the batch's scratch, nothing else
        assert epoch.graph is not before.graph
        assert not before.graph.has_edge("Fred", "Eva")  # never mutated
        mine = paper_graph()
        registry.register("again", mine)
        assert copies[1:] == [mine]  # taking ownership costs one copy too
        assert registry.current_epoch("again").graph is not mine

    def test_graph_version_strictly_increases_across_publishes(self, registry):
        epochs = [registry.current_epoch("fig1")]
        batches = [
            [AttributeUpdate("Bob", "skill", "db")],  # attribute-only
            [EdgeDeletion("Bob", "Dan"), EdgeInsertion("Fred", "Eva")],  # same size
            [AttributeUpdate("Bob", "skill", "ml")],
            [EdgeDeletion("Fred", "Eva"), EdgeInsertion("Bob", "Dan")],  # and back
        ]
        for batch in batches:
            epochs.append(registry.publish("fig1", batch))
        versions = [epoch.graph.version for epoch in epochs]
        assert versions == sorted(set(versions))
        assert registry.stats()["graphs"]["fig1"]["graph_version"] == versions[-1]
        for later in epochs[1:]:
            assert later.frozen.matches(later.graph)
            assert not epochs[0].frozen.matches(later.graph)

    def test_failed_batch_does_not_advance_the_version(self, registry):
        version = registry.current_epoch("fig1").graph.version
        with pytest.raises(ReproError):
            registry.publish(
                "fig1", [EdgeInsertion("Fred", "Eva"), EdgeDeletion("Fred", "Pat")]
            )
        epoch = registry.publish("fig1", [AttributeUpdate("Bob", "skill", "db")])
        assert epoch.graph.version == version + 1


class TestDeltaFreeze:
    """A publish patches the prior snapshot — only when that is sound."""

    def test_publish_patches_and_freezes_nothing(self, registry):
        epoch = registry.publish(
            "fig1", [EdgeInsertion("Fred", "Eva"), AttributeUpdate("Bob", "skill", "db")]
        )
        assert registry.counters["patches"] == 1
        assert registry.counters["freezes"] == 1  # registration's, still
        assert observed(epoch.frozen) == observed(FrozenGraph.freeze(epoch.graph))
        assert epoch.frozen.matches(epoch.graph)

    def test_node_deletion_falls_back_to_a_full_freeze(self, registry):
        epoch = registry.publish("fig1", [NodeDeletion("Fred")])
        assert registry.counters["patches"] == 0
        assert registry.counters["freezes"] == 2
        assert "Fred" not in epoch.frozen
        registry.publish("fig1", [NodeInsertion.with_attrs("Gil", field="SA")])
        assert registry.counters["patches"] == 1

    @pytest.mark.parametrize("action", ["storage-error", "memory-error"])
    def test_publish_after_a_degraded_build_takes_the_full_path(self, registry, action):
        """The master is ahead of the served epoch by the degraded batch:
        patching the served snapshot with the next batch alone would lose it."""
        served = registry.current_epoch("fig1")
        with armed("registry.rebuild", action=action):
            with pytest.raises(ServiceDegradedError):
                registry.publish(
                    "fig1", [EdgeInsertion("Fred", "Eva"), EdgeDeletion("Bob", "Dan")]
                )
        assert registry.current_epoch("fig1") is served
        counters = dict(registry.counters)
        epoch = registry.publish("fig1", [AttributeUpdate("Bob", "skill", "db")])
        assert registry.counters["freezes"] == counters["freezes"] + 1
        assert registry.counters["patches"] == counters["patches"]
        assert epoch.graph.has_edge("Fred", "Eva") and not epoch.graph.has_edge("Bob", "Dan")
        assert observed(epoch.frozen) == observed(FrozenGraph.freeze(epoch.graph))
        assert "Fred" in epoch.evaluate(paper_pattern()).relation.matches_of("SD")
        # caught up: the next batch is a delta over the served epoch again
        registry.publish("fig1", [AttributeUpdate("Bob", "skill", "ml")])
        assert registry.counters["patches"] == counters["patches"] + 1

    def test_oracle_is_not_carried_over_a_degraded_structural_batch(self):
        registry = SnapshotRegistry()
        registry.register("fig1", paper_graph(), oracle={})
        with armed("registry.rebuild", action="storage-error"):
            with pytest.raises(ServiceDegradedError):
                registry.publish(  # same edge count: the spot checks cannot tell
                    "fig1", [EdgeInsertion("Fred", "Eva"), EdgeDeletion("Bob", "Dan")]
                )
        epoch = registry.publish("fig1", [AttributeUpdate("Bob", "skill", "db")])
        assert registry.counters["oracle_carries"] == 0
        assert registry.counters["oracle_builds"] == 2
        pattern = parse_pattern(BOUNDED_PATTERN, name="bounded")
        assert (
            epoch.evaluate(pattern).relation
            == match_bounded(epoch.graph, pattern).relation
        )

    def test_pinned_reader_sees_its_snapshot_unchanged(self, registry):
        with registry.pin("fig1") as pinned:
            frozen = pinned.frozen
            before, pool = observed(frozen), list(frozen._values)
            registry.publish("fig1", [EdgeInsertion("Fred", "Eva")])
            registry.publish(
                "fig1",
                [
                    AttributeUpdate("Bob", "skill", ["unhashable", "and", "new"]),
                    AttributeUpdate("Bob", "experience", 99),
                    EdgeDeletion("Bob", "Dan"),
                ],
            )
            registry.publish(
                "fig1", [NodeInsertion.with_attrs("Gil", field="SA"), EdgeInsertion("Gil", "Bob")]
            )
            assert registry.counters["patches"] == 3
            assert pinned.frozen is frozen
            assert observed(frozen) == before and frozen._values == pool
            assert "Gil" not in pinned.frozen and "Gil" not in pinned.frozen.ids()
        assert "Gil" in registry.current_epoch("fig1").frozen

    def test_failed_batch_keeps_the_served_snapshot_object(self, registry):
        frozen = registry.current_epoch("fig1").frozen
        before = observed(frozen)
        with pytest.raises(ReproError, match="not present"):
            registry.publish(
                "fig1", [EdgeInsertion("Fred", "Eva"), EdgeDeletion("Fred", "Pat")]
            )
        assert registry.current_epoch("fig1").frozen is frozen
        assert observed(frozen) == before
        assert registry.counters["patches"] == 0 and registry.counters["freezes"] == 1


#: One batch per update kind, valid in sequence on ``paper_graph()``, with
#: the nodes whose rows each one writes (a node deletion writes its
#: neighbours' rows through the incident edge deletions).
FIVE_KINDS = [
    ([EdgeInsertion("Fred", "Eva")], {"Fred", "Eva"}),
    ([EdgeDeletion("Bob", "Dan")], {"Bob", "Dan"}),
    ([NodeInsertion.with_attrs("Gil", field="SA")], {"Gil"}),
    ([AttributeUpdate("Mat", "skill", "db")], {"Mat"}),
    ([NodeDeletion("Walt")], {"Walt", "Fred", "Bill"}),
]
TABLES = ("_attrs", "_succ", "_pred")


class TestCopyOnWriteEpochs:
    """Epochs share every row their batches did not touch — and nothing leaks."""

    def test_pinned_epoch_is_unchanged_and_shares_untouched_rows(self, registry):
        with registry.pin("fig1") as pinned:
            before = view(pinned.graph)
            epochs = [pinned]
            for batch, _touched in FIVE_KINDS:
                epochs.append(registry.publish("fig1", batch))
            assert view(pinned.graph) == before
        for (prior, epoch), (_batch, touched) in zip(zip(epochs, epochs[1:]), FIVE_KINDS):
            for node in epoch.graph.nodes():
                if node not in prior.graph:
                    continue
                for table in TABLES:
                    shared = getattr(epoch.graph, table)[node] is getattr(prior.graph, table)[node]
                    assert shared == (node not in touched), (node, table)
        assert epochs[-1].graph == epochs[-1].frozen.to_graph()

    def test_batch_raising_mid_apply_leaves_master_rows_untouched(self, registry):
        state = registry._graphs["fig1"]
        master = state.master
        assert registry.current_epoch("fig1").graph is master
        rows = {table: dict(getattr(master, table)) for table in TABLES}
        before = view(master)
        with pytest.raises(ReproError, match="not present"):
            registry.publish(
                "fig1",
                [
                    EdgeInsertion("Fred", "Eva"),
                    AttributeUpdate("Bob", "skill", "db"),
                    EdgeDeletion("Fred", "Pat"),
                ],
            )
        assert state.master is master and registry.current_epoch("fig1").graph is master
        assert view(master) == before
        for table, held in rows.items():
            assert all(getattr(master, table)[node] is row for node, row in held.items())

    def test_register_and_the_callers_graph_never_see_each_others_writes(self):
        mine = paper_graph()
        registry = SnapshotRegistry()
        registry.register("fig1", mine)
        served = registry.current_epoch("fig1").graph
        served_before = view(served)
        mine.add_node("Bob", experience=0)
        mine.add_edge("Fred", "Eva")
        mine.remove_edge("Bob", "Dan")
        mine.set("Mat", "field", "BA")
        mine.update_attrs("Pat", field="ST", skill="db")
        mine.remove_node("Walt")
        assert view(served) == served_before
        mine_before = view(mine)
        for batch, _touched in FIVE_KINDS:
            registry.publish("fig1", batch)
        assert view(mine) == mine_before
        assert view(served) == served_before


class TestRegistryRaces:
    def test_register_race_does_not_overwrite_winner(self):
        """Two concurrent register() calls for one name: the loser must
        raise instead of silently replacing the winner's state (the
        duplicate check is re-applied under the installing lock)."""
        registry = SnapshotRegistry()
        original = registry._build_epoch
        raced = []

        def racing_build(name, state, prior=None, **kwargs):
            epoch = original(name, state, prior=prior, **kwargs)
            if not raced:
                # Simulate a competing register() landing in the window
                # between the duplicate pre-check and the install.
                raced.append(True)
                registry.register("dup", paper_graph())
            return epoch

        registry._build_epoch = racing_build
        with pytest.raises(ServerError, match="already registered"):
            registry.register("dup", paper_graph())
        # the winner's published epoch survives and still serves
        epoch = registry.current_epoch("dup")
        assert epoch.epoch_id == 0
        assert registry.counters["epochs_published"] == 1
        with registry.pin("dup") as pinned:
            assert pinned is epoch

    def test_gc_leaked_handle_unpins_via_deferred_drain(self, registry):
        handle = registry.pin("fig1")
        epoch = handle.epoch
        assert epoch.pins == 1
        # a dropped handle parks its unpin instead of taking the lock
        handle.__del__()
        assert epoch.pins == 1  # not applied yet: no lock from a finalizer
        registry.stats()  # any locked registry operation drains the backlog
        assert epoch.pins == 0
        # the real release is now a no-op (the finalizer marked it released)
        handle.release()
        assert epoch.pins == 0

    def test_finalizer_is_safe_while_registry_lock_is_held(self, registry):
        """GC may finalize a handle on a thread holding the registry lock;
        the finalizer must not try to take it (this test deadlocks on
        regression)."""
        handle = registry.pin("fig1")
        with registry._lock:
            handle.__del__()
        with registry.pin("fig1") as epoch:  # drains the parked unpin
            assert epoch.pins == 1  # only this pin is left
        assert registry.current_epoch("fig1").pins == 0

    def test_leaked_pin_on_retired_epoch_still_collects(self, registry):
        handle = registry.pin("fig1")
        old = handle.epoch
        registry.publish("fig1", [EdgeInsertion("Fred", "Eva")])
        assert old.retired and old.pins == 1
        handle.__del__()  # leak the pin instead of releasing
        registry.stats()  # drain retires the superseded epoch
        assert [e.epoch_id for e in registry.live_epochs("fig1")] == [1]
        assert registry.counters["epochs_retired"] == 1


class TestOracleLifecycle:
    def test_register_with_oracle_builds_once(self):
        registry = SnapshotRegistry()
        registry.register("fig1", paper_graph(), oracle={})
        assert registry.counters["oracle_builds"] == 1
        assert registry.current_epoch("fig1").oracle is not None

    def test_attr_update_carries_oracle(self):
        registry = SnapshotRegistry()
        registry.register("fig1", paper_graph(), oracle={})
        before = registry.current_epoch("fig1").oracle
        epoch = registry.publish("fig1", [AttributeUpdate("Bob", "experience", 9)])
        assert epoch.oracle is before
        assert registry.counters["oracle_carries"] == 1
        assert registry.counters["oracle_builds"] == 1

    def test_edge_insertion_rebuilds_oracle(self):
        registry = SnapshotRegistry()
        registry.register("fig1", paper_graph(), oracle={})
        epoch = registry.publish("fig1", [EdgeInsertion("Fred", "Eva")])
        assert registry.counters["oracle_builds"] == 2
        assert registry.counters["oracle_carries"] == 0
        assert epoch.oracle is not None


class TestPreload:
    def test_preload_faults_in_without_freezing(self, tmp_path):
        store = GraphStore(tmp_path / "catalog")
        graph = paper_graph()
        store.save_graph("fig1", graph)
        # snapshots must come from the stored graph's lineage: reload it
        stored = store.load_graph("fig1")
        store.save_snapshot("fig1", FrozenGraph.freeze(stored))
        registry = SnapshotRegistry(store=store)
        epoch = registry.preload("fig1")
        assert registry.counters["fault_ins"] == 1
        assert registry.counters["freezes"] == 0, "warm start must not freeze"
        relation = epoch.evaluate(paper_pattern()).relation
        assert relation == match_bounded(graph, paper_pattern()).relation

    def test_first_publish_after_preload_patches_the_mapped_snapshot(self, tmp_path):
        store = GraphStore(tmp_path / "catalog")
        store.save_graph("fig1", paper_graph())
        store.save_snapshot("fig1", FrozenGraph.freeze(store.load_graph("fig1")))
        registry = SnapshotRegistry(store=store)
        mapped = registry.preload("fig1").frozen
        assert mapped.path is not None
        epoch = registry.publish("fig1", [EdgeInsertion("Fred", "Eva")])
        assert (registry.counters["patches"], registry.counters["freezes"]) == (1, 0)
        assert epoch.frozen.path is None  # owns its arrays: the file is the old version
        assert epoch.frozen.to_graph() == epoch.graph
        assert mapped.to_graph() == store.load_graph("fig1")  # never written through
        assert "Fred" in epoch.evaluate(paper_pattern()).relation.matches_of("SD")

    def test_preload_without_snapshot_degrades_to_freeze(self, tmp_path):
        store = GraphStore(tmp_path / "catalog")
        store.save_graph("fig1", paper_graph())
        registry = SnapshotRegistry(store=store)
        registry.preload("fig1")
        assert registry.counters["fault_ins"] == 0
        assert registry.counters["freezes"] == 1

    def test_preload_without_store_rejected(self):
        with pytest.raises(ServerError, match="no file store"):
            SnapshotRegistry().preload("fig1")

    def test_preload_duplicate_rejected(self, tmp_path):
        store = GraphStore(tmp_path / "catalog")
        store.save_graph("fig1", paper_graph())
        registry = SnapshotRegistry(store=store)
        registry.register("fig1", paper_graph())
        with pytest.raises(ServerError, match="already registered"):
            registry.preload("fig1")


class TestConcurrentReaders:
    def test_no_torn_reads_during_update_bursts(self, registry):
        """Readers racing a writer see only fully-published batches.

        Each batch flips Bob AND Walt in or out of the SA predicate
        together, so any epoch has either both or neither — a read
        showing exactly one of them would be a torn (half-applied) read.
        """
        pattern = paper_pattern()
        stop = threading.Event()
        failures: list[str] = []
        epochs_seen: list[list[int]] = []

        def reader():
            seen: list[int] = []
            while not stop.is_set():
                with registry.pin("fig1") as epoch:
                    relation = epoch.evaluate(pattern).relation
                    sa = relation.matches_of("SA") & {"Bob", "Walt"}
                    if len(sa) == 1:
                        failures.append(
                            f"torn read in epoch {epoch.epoch_id}: {sorted(sa)}"
                        )
                    seen.append(epoch.epoch_id)
            epochs_seen.append(seen)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        for round_no in range(12):
            out = round_no % 2 == 0
            experience = 1 if out else 7
            registry.publish(
                "fig1",
                [
                    AttributeUpdate("Bob", "experience", experience),
                    AttributeUpdate("Walt", "experience", experience + 1),
                ],
            )
        stop.set()
        for thread in readers:
            thread.join()
        assert not failures, failures
        # the current pointer only moves forward: every reader observed a
        # non-decreasing epoch sequence
        for seen in epochs_seen:
            assert seen == sorted(seen)
        assert any(len(set(seen)) > 1 for seen in epochs_seen) or True

    def test_refcounts_drain_after_load(self, registry):
        handles = [registry.pin("fig1") for _ in range(16)]
        registry.publish("fig1", [EdgeInsertion("Fred", "Eva")])
        assert len(registry.live_epochs("fig1")) == 2
        for handle in handles:
            handle.release()
        live = registry.live_epochs("fig1")
        assert [e.epoch_id for e in live] == [1]
        assert all(e.pins == 0 for e in live)
        stats = registry.stats()
        assert stats["graphs"]["fig1"]["pins"] == 0
        assert stats["graphs"]["fig1"]["live_epochs"] == 1

    def test_registry_stats_inventory(self, registry):
        registry.current_epoch("fig1").evaluate(paper_pattern())
        stats = registry.stats()
        assert stats["graphs"]["fig1"]["current_epoch"] == 0
        assert stats["graphs"]["fig1"]["nodes"] == 9
        assert stats["counters"]["epochs_published"] == 1
        assert stats["caches"]["fig1"]["cache"]["size"] == 1


class TestAdmission:
    def test_rejects_when_saturated_with_no_queue(self):
        controller = AdmissionController(max_inflight=1, max_queue=0)
        controller.acquire()
        with pytest.raises(AdmissionError, match="saturated"):
            controller.acquire()
        controller.release()
        # slot freed: admits again
        with controller.slot():
            pass
        stats = controller.stats()
        assert stats["admitted"] == 2
        assert stats["rejected_full"] == 1
        assert stats["inflight"] == 0

    def test_queue_timeout_rejects(self):
        controller = AdmissionController(
            max_inflight=1, max_queue=2, queue_timeout=0.05
        )
        controller.acquire()
        with pytest.raises(AdmissionError, match="no worker slot"):
            controller.acquire()
        assert controller.stats()["rejected_timeout"] == 1
        assert controller.stats()["waiting"] == 0
        controller.release()

    def test_queued_caller_admitted_when_slot_frees(self):
        controller = AdmissionController(
            max_inflight=1, max_queue=1, queue_timeout=5.0
        )
        controller.acquire()
        admitted = threading.Event()

        def waiter():
            controller.acquire()
            admitted.set()
            controller.release()

        thread = threading.Thread(target=waiter)
        thread.start()
        assert not admitted.wait(timeout=0.1)
        controller.release()
        assert admitted.wait(timeout=5)
        thread.join()
        stats = controller.stats()
        assert stats["admitted"] == 2
        assert stats["peak_waiting"] == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_inflight": 0},
            {"max_queue": -1},
            {"queue_timeout": -0.5},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ServerError):
            AdmissionController(**kwargs)


class TestWire:
    def test_decode_pattern_round_trips(self):
        pattern = decode_pattern({"pattern": SIM_PATTERN})
        assert pattern.is_simulation_pattern

    @pytest.mark.parametrize("bad", [None, "", "   ", 7, ["node A"]])
    def test_decode_pattern_rejects_non_text(self, bad):
        with pytest.raises(ServerError, match="pattern"):
            decode_pattern({"pattern": bad})

    def test_decode_budget_defaults_and_unlimited(self):
        default = QueryBudget(node_visits=10, allow_partial=True)
        assert decode_budget({}, default=default) is default
        assert decode_budget({"budget": None}, default=default) is default
        assert decode_budget({"budget": {}}, default=default) is None
        budget = decode_budget(
            {"budget": {"node_visits": 5, "seconds": 1, "allow_partial": False}}
        )
        assert budget.node_visits == 5
        assert budget.seconds == 1.0
        assert budget.allow_partial is False

    @pytest.mark.parametrize(
        "raw,match",
        [
            ([], "object"),
            ({"node_visits": "many"}, "node_visits"),
            ({"seconds": "fast"}, "seconds"),
            ({"allow_partial": 1}, "allow_partial"),
            ({"node_visits": -3}, "invalid budget"),
        ],
    )
    def test_decode_budget_rejects_malformed(self, raw, match):
        with pytest.raises(ServerError, match=match):
            decode_budget({"budget": raw})

    def test_decode_updates_all_ops(self):
        updates = decode_updates(
            {
                "updates": [
                    {"op": "add-edge", "source": "a", "target": "b"},
                    {"op": "remove-edge", "source": "a", "target": "b"},
                    {"op": "add-node", "node": "c", "attrs": {"field": "SA"}},
                    {"op": "remove-node", "node": "c"},
                    {"op": "set-attr", "node": "a", "attr": "experience", "value": 4},
                ]
            }
        )
        assert len(updates) == 5

    @pytest.mark.parametrize(
        "raw,match",
        [
            ({}, "updates"),
            ({"updates": []}, "non-empty"),
            ({"updates": ["add-edge"]}, r"updates\[0\] must be an object"),
            ({"updates": [{"op": "rename"}]}, "op must be one of"),
            ({"updates": [{"op": "add-edge", "source": "a"}]}, "target"),
            (
                {"updates": [{"op": "add-node", "node": "c", "attrs": [1]}]},
                "attrs",
            ),
        ],
    )
    def test_decode_updates_rejects_malformed(self, raw, match):
        with pytest.raises(ServerError, match=match):
            decode_updates(raw)

    def test_error_status_mapping(self, registry):
        from repro.errors import BudgetExceededError

        assert error_status(AdmissionError("full")) == 429
        assert error_status(BudgetExceededError("slow")) == 408
        assert error_status(ReproError("bad")) == 400
        assert error_status(RuntimeError("boom")) == 500
        payload = error_payload(AdmissionError("full"))
        assert payload == {"error": "AdmissionError", "message": "full"}

    def test_encode_ranked_rows(self, registry):
        epoch = registry.current_epoch("fig1")
        rows = encode_ranked(epoch.top_k(paper_pattern(), 1))
        assert rows[0]["node"] == "Bob"
        assert rows[0]["impact_set_size"] > 0
        assert rows[0]["attrs"]["field"] == "SA"


@pytest.fixture
def service() -> ExpFinderService:
    with ExpFinderService() as svc:
        svc.register_graph("fig1", paper_graph())
        yield svc


class TestServiceFacade:
    def test_register_info(self, service):
        info = service.register_graph("twin", paper_graph())
        assert info == {
            "graph": "twin",
            "epoch": 0,
            "nodes": 9,
            "edges": 12,
            "oracle": False,
        }

    def test_evaluate_payload_shape(self, service):
        reply = service.evaluate("fig1", {"pattern": SIM_PATTERN})
        assert reply["graph"] == "fig1"
        assert reply["epoch"] == 0
        assert "SA" in reply["relation"]["sets"]
        assert reply["stats"]["route"] == "direct"

    def test_batch_pins_one_epoch(self, service):
        reply = service.batch(
            "fig1", {"patterns": [SIM_PATTERN, SIM_PATTERN]}
        )
        assert len(reply["results"]) == 2
        assert reply["results"][1]["stats"]["route"] == "cache"
        with pytest.raises(ServerError, match="patterns"):
            service.batch("fig1", {"patterns": []})

    def test_topk_validates_k(self, service):
        reply = service.topk("fig1", {"pattern": SIM_PATTERN, "k": 2})
        assert [row["node"] for row in reply["experts"]]
        with pytest.raises(ServerError, match="k must be"):
            service.topk("fig1", {"pattern": SIM_PATTERN, "k": 0})

    def test_update_then_evaluate_sees_new_epoch(self, service):
        service.update_graph(
            "fig1",
            {"updates": [{"op": "add-edge", "source": "Fred", "target": "Eva"}]},
        )
        reply = service.evaluate("fig1", {"pattern": SIM_PATTERN})
        assert reply["epoch"] == 1
        counters = service.stats()["registry"]["counters"]
        assert counters["patches"] == 1
        assert counters["freezes"] == 1  # full builds only: registration's

    def test_explain_and_health_and_stats(self, service):
        plan = service.explain("fig1", {"pattern": SIM_PATTERN})
        assert plan["graph"] == "fig1"
        assert service.health() == {"status": "ok", "graphs": ["fig1"]}
        stats = service.stats()
        assert stats["workers"] == 1
        assert "pools_created" not in stats
        assert stats["requests"]["register"] == 1
        assert stats["admission"]["max_inflight"] == 8

    def test_default_budget_applies(self):
        config = ServiceConfig(
            default_budget=QueryBudget(node_visits=1, allow_partial=True)
        )
        with ExpFinderService(config) as svc:
            svc.register_graph("fig1", paper_graph())
            reply = svc.evaluate("fig1", {"pattern": BOUNDED_PATTERN})
            assert reply["stats"]["partial"]
            # an explicit empty budget opts out of the default
            full = svc.evaluate("fig1", {"pattern": BOUNDED_PATTERN, "budget": {}})
            assert not full["stats"].get("partial")

    def test_config_validation(self):
        with pytest.raises(ReproError):
            ServiceConfig(workers=0).validated()
        with pytest.raises(ReproError):
            ServiceConfig(
                default_budget=QueryBudget(node_visits=-1)
            ).validated()


class TestServiceExecutorRouting:
    """``workers > 1`` must actually serve evaluation from the warm pool
    (not spawn idle processes), with relations identical to inline."""

    def test_workers_route_evaluation_through_warm_pool(self):
        with ExpFinderService(ServiceConfig(workers=2)) as parallel_svc, \
                ExpFinderService(ServiceConfig(workers=1)) as inline_svc:
            for svc in (parallel_svc, inline_svc):
                svc.register_graph("fig1", paper_graph())
            for pattern in (SIM_PATTERN, BOUNDED_PATTERN):
                sharded = parallel_svc.evaluate("fig1", {"pattern": pattern})
                inline = inline_svc.evaluate("fig1", {"pattern": pattern})
                # the fan-out is visible in the stats...
                assert sharded["stats"]["parallel"]["workers"] == 2
                assert sharded["stats"]["parallel"]["mode"] == "sharded-query"
                # ...and the relation is identical to the inline kernels
                assert sharded["relation"] == inline["relation"]
            # steady-state serving never builds a pool on the request path
            assert parallel_svc.stats()["pools_created"] == 1

    def test_workers_route_batch_and_topk(self):
        with ExpFinderService(ServiceConfig(workers=2)) as svc:
            svc.register_graph("fig1", paper_graph())
            reply = svc.batch("fig1", {"patterns": [BOUNDED_PATTERN, SIM_PATTERN]})
            assert reply["results"][0]["stats"]["parallel"]["workers"] == 2
            ranked = svc.topk("fig1", {"pattern": SIM_PATTERN, "k": 3})
            assert [row["node"] for row in ranked["experts"]]
            assert svc.stats()["pools_created"] == 1

    def test_cached_repeat_skips_the_pool(self):
        with ExpFinderService(ServiceConfig(workers=2)) as svc:
            svc.register_graph("fig1", paper_graph())
            first = svc.evaluate("fig1", {"pattern": SIM_PATTERN})
            again = svc.evaluate("fig1", {"pattern": SIM_PATTERN})
            assert again["stats"]["route"] == "cache"
            assert again["relation"] == first["relation"]
