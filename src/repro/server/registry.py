"""MVCC-lite snapshot epochs: pinned immutable reads, atomic publishes.

The serving problem: queries traverse a ``(FrozenGraph, DistanceOracle)``
pair for milliseconds to seconds, while ``update_graph`` batches arrive
concurrently.  Classic reader/writer locking makes one side wait; the
registry instead versions the world into **epochs**:

* every epoch owns one :class:`~repro.graph.digraph.Graph` (the graph
  its batch produced, never mutated after install), its frozen CSR
  snapshot, the (optional) distance oracle built from the same lineage,
  an attribute index and per-epoch query/rank caches — all immutable or
  internally locked, so any number of reader threads evaluate against
  one epoch without coordination;
* readers :meth:`~SnapshotRegistry.pin` the current epoch through a
  refcounted :class:`EpochHandle`; the pin guarantees the epoch's
  snapshots stay alive for the whole query even if newer epochs publish
  meanwhile;
* a writer applies its update batch to a *scratch copy* of the
  registry's master graph — a shallow copy that shares every row the
  batch does not touch (``Graph.copy``: copy-on-write rows) — which
  becomes the master, and the next epoch's graph, only once the whole
  batch has succeeded — a primitive that raises mid-batch leaves the
  served state untouched — then patches the prior epoch's snapshot with
  the primitives it applied (``FrozenGraph.patched``; a full freeze only
  where that is unsound or impossible, see ``_build_epoch``) and swaps
  the ``current`` pointer under the registry lock: one pointer
  assignment is the entire critical section readers can observe, so a
  query sees either epoch N or N+1 in full, never a half-applied batch;
* when the last pin on a superseded epoch drains, the epoch is retired
  and its snapshots become garbage.

Distance oracles carry over between epochs when every primitive in the
batch is distance-preserving (``DistanceOracle.survives``), exactly
mirroring the single-engine refresh rule — so an attribute-only write
burst republishes in O(|V|) pointer copies plus O(batch), without any
freeze or label rebuild.  The attribute index carries over every batch
the snapshot does (``AttributeIndex.carried``), so the first read of a
new epoch does not rebuild postings over the whole graph either.
"""

from __future__ import annotations

import threading
from typing import Any, Sequence

from repro.engine.cache import QueryCache, RankCache, cache_key
from repro.engine.estimator import QueryBudget
from repro.engine.planner import make_plan
from repro.errors import (
    ReproError,
    ServerError,
    ServiceDegradedError,
    StorageError,
)
from repro.graph.digraph import Graph
from repro.graph.frozen import FrozenGraph
from repro.graph.index import AttributeIndex
from repro.graph.oracle import DistanceOracle
from repro.incremental.updates import Update, decompose
from repro.matching.base import MatchResult, Stopwatch
from repro.matching.bounded import match_bounded
from repro.matching.simulation import match_simulation, simulation_candidates
from repro.pattern.pattern import Pattern
from repro.ranking.topk import RankingContext, bulk_top_k_detail
from repro.testing.faults import fault_point


class Epoch:
    """One immutable published version of a graph, self-sufficient for reads.

    The graph object is the batch's own graph, never mutated after install
    (the next batch works on a copy of it), so its version/attributes can
    never change under a reader.  Candidate generation shares the epoch's
    :class:`AttributeIndex` — carried from the prior epoch's over the batch
    (:meth:`AttributeIndex.carried`), or built lazily on first use when
    there was nothing to carry — under a per-epoch lock; matching itself
    runs unlocked over the frozen snapshot.
    """

    __slots__ = (
        "name",
        "epoch_id",
        "graph",
        "frozen",
        "oracle",
        "attr_index",
        "cache",
        "rank_cache",
        "_index_lock",
        "_pins",
        "retired",
    )

    def __init__(
        self,
        name: str,
        epoch_id: int,
        graph: Graph,
        frozen: FrozenGraph,
        oracle: DistanceOracle | None,
        attr_index: AttributeIndex,
        cache_capacity: int = 64,
    ) -> None:
        self.name = name
        self.epoch_id = epoch_id
        self.graph = graph
        self.frozen = frozen
        self.oracle = oracle
        self.attr_index = attr_index
        self.cache = QueryCache(capacity=cache_capacity)
        self.rank_cache = RankCache(capacity=max(4, cache_capacity // 4))
        self._index_lock = threading.Lock()
        self._pins = 0
        self.retired = False

    # ------------------------------------------------------------------
    def candidates(self, pattern: Pattern) -> dict[str, set]:
        """Predicate candidates via the epoch's shared attribute index.

        The lock orders everything that touches the index: a lazy build
        (an epoch with nothing carried), the hit counters of each lookup,
        and the next publish reading this index to carry it forward — so
        that publish never sees a half-built one.
        """
        with self._index_lock:
            return simulation_candidates(self.graph, pattern, index=self.attr_index)

    def evaluate(
        self,
        pattern: Pattern,
        budget: QueryBudget | None = None,
    ) -> MatchResult:
        """``M(Q,G)`` against this epoch — cache, then frozen kernels.

        Identical inputs to the single-engine direct path (same candidate
        generation, same kernels, same snapshot lineage), so the relation
        is byte-identical to ``QueryEngine.evaluate`` on the same graph
        version — the E18 benchmark asserts exactly that.  Partial
        (budget-tripped) results are never cached.
        """
        pattern.validate()
        watch = Stopwatch()
        key = cache_key(self.name, pattern)
        entry = self.cache.get(key)
        if entry is not None:
            result = MatchResult(
                self.graph,
                pattern,
                entry.relation,
                stats=self._stamp({"route": "cache", "algorithm": "cached"}, watch),
            )
            return result
        candidates = self.candidates(pattern)
        if pattern.is_simulation_pattern:
            result = match_simulation(
                self.graph, pattern, candidates=candidates, frozen=self.frozen
            )
        else:
            result = match_bounded(
                self.graph,
                pattern,
                candidates=candidates,
                frozen=self.frozen,
                oracle=self.oracle,
                budget=budget,
            )
        if not result.stats.get("partial"):
            self.cache.put(key, result.relation)
        result.stats.update(self._stamp({"route": "direct"}, watch))
        return result

    def top_k(
        self,
        pattern: Pattern,
        k: int,
        budget: QueryBudget | None = None,
    ) -> list:
        """Top-K ranked experts against this epoch (rank-cache aware)."""
        pattern.validate(require_output=True)
        key = cache_key(self.name, pattern)
        entry = self.rank_cache.get(key)
        if entry is not None:
            return bulk_top_k_detail(entry.context, k)
        result = self.evaluate(pattern, budget=budget)
        context = RankingContext(result.result_graph())
        ranked = bulk_top_k_detail(context, k)
        if not result.stats.get("partial"):
            self.rank_cache.put(key, context)
        return ranked

    def explain(self, pattern: Pattern) -> dict[str, Any]:
        """The plan the epoch would run for ``pattern``, plus epoch facts."""
        pattern.validate()
        key = cache_key(self.name, pattern)
        plan = make_plan(
            pattern,
            cached=key in self.cache,
            compression_available=False,
        )
        return {
            "route": plan.route,
            "algorithm": plan.algorithm,
            "reasons": list(plan.reasons),
            "epoch": self.epoch_id,
            "graph_version": self.graph.version,
            "oracle": self.oracle is not None,
        }

    def _stamp(self, stats: dict[str, Any], watch: Stopwatch) -> dict[str, Any]:
        stats["seconds"] = watch.seconds()
        stats["epoch"] = self.epoch_id
        stats["graph_version"] = self.graph.version
        return stats

    @property
    def pins(self) -> int:
        return self._pins

    def __repr__(self) -> str:
        state = "retired" if self.retired else "live"
        return (
            f"<Epoch {self.name}@{self.epoch_id} v{self.graph.version} "
            f"pins={self._pins} ({state})>"
        )


class EpochHandle:
    """A refcounted pin on one epoch; release exactly once.

    Usable as a context manager.  While any handle is open the epoch's
    snapshots survive, even if the registry has published successors; the
    last release of a superseded epoch retires it.
    """

    __slots__ = ("epoch", "_registry", "_released")

    def __init__(self, epoch: Epoch, registry: "SnapshotRegistry") -> None:
        self.epoch = epoch
        self._registry = registry
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._registry._unpin(self.epoch)

    @property
    def released(self) -> bool:
        return self._released

    def __enter__(self) -> Epoch:
        return self.epoch

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    def __del__(self) -> None:
        # GC can run this finalizer on a thread that already holds the
        # registry lock (any allocation inside pin()/stats() may trigger a
        # collection), so it must never take that lock: the leaked pin is
        # parked on a lock-free list the registry drains during its next
        # locked operation.
        if not self._released:
            self._released = True
            try:
                self._registry._defer_unpin(self.epoch)
            except Exception:  # pragma: no cover - interpreter teardown
                pass


class _GraphState:
    """Registry-internal per-graph record: master graph + epoch chain.

    ``master`` is ``current.graph`` unless the last epoch build degraded:
    then it is ahead by the batches that applied but could not be frozen.
    """

    __slots__ = (
        "master",
        "write_lock",
        "current",
        "live",
        "next_epoch_id",
        "oracle_config",
        "appended_lsn",
        "applied_lsn",
        "degraded",
        "degraded_reason",
    )

    def __init__(self, master: Graph, oracle_config: dict[str, Any] | None) -> None:
        self.master = master
        # One writer at a time per graph; readers never take this lock.
        self.write_lock = threading.Lock()
        self.current: Epoch | None = None
        self.live: dict[int, Epoch] = {}
        self.next_epoch_id = 0
        self.oracle_config = oracle_config
        # WAL bookkeeping: LSN of the last batch durably appended for this
        # graph vs the last one whose outcome is reflected in an installed
        # epoch.  `appended - applied` is the replay lag /health reports.
        self.appended_lsn = 0
        self.applied_lsn = 0
        self.degraded = False
        self.degraded_reason: str | None = None


class SnapshotRegistry:
    """Epoch lifecycle for any number of named graphs.

    ``pin``/``release`` are O(1) under one registry lock; ``publish``
    serializes per graph on its write lock and holds the registry lock
    only for the final pointer swap.  Counters make warm-start and
    lifecycle behaviour observable (and testable): ``freezes`` counts
    full snapshot builds paid in-process, ``patches`` snapshots carried
    over a batch from the prior one, ``fault_ins`` snapshots mmapped
    from a store instead; ``index_carries`` attribute indexes carried
    over a batch from the prior epoch's (the rest build on first use),
    ``oracle_carries`` / ``oracle_builds`` the same for distance oracles.
    """

    def __init__(
        self, store: Any = None, cache_capacity: int = 64, wal: Any = None
    ) -> None:
        self.store = store
        self.cache_capacity = cache_capacity
        # Optional durability plane: a WriteAheadLog every publish appends
        # to before applying, and a Checkpointer (attached by the service
        # after construction — it needs the registry) that persists
        # epochs and truncates the log behind the publish path.
        self.wal = wal
        self._checkpointer: Any = None
        self._lock = threading.Lock()
        self._graphs: dict[str, _GraphState] = {}
        # Pins leaked by garbage-collected handles.  Finalizers may run on
        # a thread that holds the registry lock, so they append here
        # without taking it (list.append/pop are atomic under the GIL) and
        # the next locked registry operation drains the backlog.
        self._leaked_pins: list[Epoch] = []
        self.counters = {
            "epochs_published": 0,
            "epochs_retired": 0,
            "freezes": 0,
            "patches": 0,
            "fault_ins": 0,
            "oracle_builds": 0,
            "oracle_carries": 0,
            "index_carries": 0,
        }

    # ------------------------------------------------------------------
    # registration / preload
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        graph: Graph,
        oracle: dict[str, Any] | None = None,
        replace: bool = False,
    ) -> Epoch:
        """Make ``graph`` servable: build and publish epoch 0.

        ``oracle`` enables the distance oracle for every epoch of this
        graph (keys: ``cap``, ``top`` — the :meth:`DistanceOracle.build`
        knobs); epoch 0 pays the label build, later epochs carry the
        labels over distance-preserving updates.
        """
        with self._lock:
            if name in self._graphs and not replace:
                raise ServerError(f"graph {name!r} already registered")
        # The registry's own copy: a later write to the caller's object
        # has no WAL record behind it and must never reach an epoch.
        return self._adopt(name, _GraphState(graph.copy(), oracle), replace)

    def preload(self, name: str, oracle: dict[str, Any] | None = None) -> Epoch:
        """Warm-start a graph from the store: mmap snapshots, no freeze.

        Loads the stored graph, then faults in its ``.frozen.snap`` (and
        ``.oracle.snap``, when present — enabling the oracle for later
        epochs too) via the store, validated against the loaded graph's
        version.  Missing snapshot files degrade to an in-process freeze;
        a missing *graph* is an error.
        """
        if self.store is None:
            raise ServerError("registry has no file store configured")
        graph = self.store.load_graph(name)
        artifacts = self.store.artifacts(name)
        frozen = None
        loaded_oracle = None
        if artifacts["snapshot"]:
            frozen = self.store.load_snapshot(name, expected_version=graph.version)
            with self._lock:
                self.counters["fault_ins"] += 1
        if artifacts["oracle"]:
            loaded_oracle = self.store.load_oracle(
                name, expected_version=graph.version
            )
            with self._lock:
                self.counters["fault_ins"] += 1
            if oracle is None:
                oracle = {}
        return self._adopt(
            name, _GraphState(graph, oracle), frozen=frozen, oracle_obj=loaded_oracle
        )

    def attach_checkpointer(self, checkpointer: Any) -> None:
        """Wire the (service-owned) checkpointer into the publish path."""
        self._checkpointer = checkpointer

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def pin(self, name: str) -> EpochHandle:
        """Pin the current epoch of ``name`` for the caller's lifetime."""
        with self._lock:
            self._drain_leaked_locked()
            epoch = self._state_locked(name).current
            epoch._pins += 1
            return EpochHandle(epoch, self)

    def _unpin(self, epoch: Epoch) -> None:
        with self._lock:
            self._drain_leaked_locked()
            self._unpin_locked(epoch)

    def _unpin_locked(self, epoch: Epoch) -> None:
        epoch._pins -= 1
        if epoch._pins <= 0 and epoch.retired:
            state = self._graphs.get(epoch.name)
            if state is not None and state.live.pop(epoch.epoch_id, None):
                self.counters["epochs_retired"] += 1

    def _defer_unpin(self, epoch: Epoch) -> None:
        """Finalizer-safe unpin: park the epoch for the next locked drain.

        Called from ``EpochHandle.__del__`` — possibly on a thread that
        already holds the registry lock — so it must not acquire it.
        """
        self._leaked_pins.append(epoch)

    def _drain_leaked_locked(self) -> None:
        """Apply parked finalizer unpins.  Caller holds the registry lock."""
        while self._leaked_pins:
            self._unpin_locked(self._leaked_pins.pop())

    def current_epoch(self, name: str) -> Epoch:
        """The current epoch without pinning (metadata/stats paths only)."""
        with self._lock:
            return self._state_locked(name).current

    def graphs(self) -> list[str]:
        with self._lock:
            return sorted(self._graphs)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def publish(self, name: str, updates: Sequence[Update]) -> Epoch:
        """Apply an update batch and atomically publish the next epoch.

        The batch is all-or-nothing: primitives apply to a *scratch* copy
        of the master graph, which becomes the new master — and the new
        epoch's graph, uncopied — only once every primitive has succeeded.
        The copy shares the master's rows and each primitive first copies
        the rows it writes, so the copy costs O(|V|) pointers plus the
        touched rows and the master never sees a write.
        A primitive that raises mid-batch (e.g. removing a missing edge —
        any HTTP client can send one and gets a 400 back) therefore leaves
        the served state exactly as it was; no later publish can build an
        epoch from a half-applied prefix.
        In-flight queries keep their pinned epoch; new pins see the new
        epoch only after the pointer swap, so no request can observe a
        partially-applied batch.

        With a WAL attached, the batch is appended to the changelog
        **before** any primitive applies (write-ahead): an acknowledged
        publish is on disk even if the process dies during apply or epoch
        build.  A batch that fails validation mid-apply is *not* marked
        in the log — replay re-runs it against the identical base content
        at recovery, where it deterministically fails again and is
        skipped, so the log needs no commit/abort records.
        """
        with self._lock:
            state = self._state_locked(name)
        with state.write_lock:
            lsn: int | None = None
            if self.wal is not None:
                # Local import: wire depends on repro.incremental, not on
                # this module, but keeping the codec import here avoids a
                # module-level cycle through repro.server.__init__.
                from repro.server.wire import encode_update

                wire_batch = [encode_update(update) for update in updates]
                lsn = self.wal.append(name, wire_batch, state.master.version)
                state.appended_lsn = lsn
            base = state.master
            scratch = base.copy()
            applied: list[Update] = []
            try:
                for update in updates:
                    for primitive in decompose(scratch, update):
                        primitive.apply(scratch)
                        applied.append(primitive)
                        fault_point("registry.apply")
            except ReproError:
                # The batch is invalid against this base: its WAL record
                # will fail identically at replay and be skipped, so its
                # outcome ("no state change") is already fully applied.
                if lsn is not None:
                    state.applied_lsn = lsn
                raise
            # Every primitive succeeded: adopt the batch in one assignment.
            state.master = scratch
            fault_point("registry.publish")
            prior = state.current
            try:
                # After a degraded build the master is ahead of the served
                # epoch and this batch alone does not describe the
                # difference: nothing is carried, the epoch is built in full.
                epoch = self._build_epoch(
                    name, state, prior if prior.graph is base else None, applied
                )
            except (StorageError, MemoryError) as exc:
                # Graceful degradation: the master has the batch (and the
                # WAL has it durably), only the servable epoch is missing.
                # Keep serving the last good epoch, surface the lag.
                with self._lock:
                    state.degraded = True
                    state.degraded_reason = f"{type(exc).__name__}: {exc}"
                durability = (
                    f"durably logged (lsn {lsn})" if lsn is not None else "applied"
                )
                raise ServiceDegradedError(
                    f"update batch for {name!r} was {durability} but the new "
                    f"epoch failed to build: {exc}; serving the last good epoch"
                ) from exc
            with self._lock:
                self._drain_leaked_locked()
                self._install(state, epoch)
                if lsn is not None:
                    state.applied_lsn = lsn
                state.degraded = False
                state.degraded_reason = None
                if prior is not None:
                    prior.retired = True
                    if prior._pins <= 0:
                        if state.live.pop(prior.epoch_id, None):
                            self.counters["epochs_retired"] += 1
        if self._checkpointer is not None:
            self._checkpointer.notify(name)
        return epoch

    # ------------------------------------------------------------------
    # durability: recovery + checkpoint support
    # ------------------------------------------------------------------
    def recover(self) -> dict[str, dict[str, Any]]:
        """Rebuild every checkpointed graph + replay its WAL suffix.

        Startup path (before the service accepts traffic).  Per graph:
        map the checkpoint's snapshot (missing, corrupt, or not taken at
        the metadata's ``graph_version``: a ``StorageError``), rebuild
        the master from it with ``to_graph()``, then re-apply every batch
        record with ``lsn > checkpoint.lsn`` through the same decode →
        decompose → apply pipeline as live publishes.  Each
        batch replays all-or-nothing on a scratch copy; a batch that
        fails to decode or apply (it failed identically when first
        published — see :meth:`publish`; a malformed record is one an
        older binary let into the log) is skipped, never half-applied.
        Returns a per-graph report (``replayed``/``skipped``/``lsn``).

        Records for graphs without a checkpoint are reported and ignored:
        registration writes its baseline checkpoint *before* returning,
        so such records belong to a registration that was never
        acknowledged.
        """
        if self.wal is None or self.store is None:
            raise ServerError("recovery needs both a WAL and a file store")
        from repro.server.wire import decode_updates

        checkpoints = self.wal.read_checkpoints()
        pending: dict[str, list[Any]] = {}
        for record in self.wal.records():
            pending.setdefault(record.graph, []).append(record)
        report: dict[str, dict[str, Any]] = {}
        for name in sorted(set(checkpoints) | set(pending)):
            checkpoint = checkpoints.get(name)
            if checkpoint is None:
                report[name] = {
                    "status": "skipped",
                    "reason": "records without a checkpoint (unacknowledged "
                    "registration)",
                    "records": len(pending.get(name, [])),
                }
                continue
            frozen = self.store.load_snapshot(
                checkpoint["artifact"], expected_version=checkpoint["graph_version"]
            )
            with self._lock:
                self.counters["fault_ins"] += 1
            graph = frozen.to_graph()
            replayed = skipped = 0
            applied: list[Update] = []  # the replayed batches' primitives
            last_lsn = checkpoint["lsn"]
            for record in pending.get(name, []):
                if record.lsn <= checkpoint["lsn"]:
                    continue
                scratch = graph.copy()
                batch: list[Update] = []
                try:
                    for update in decode_updates({"updates": record.updates}):
                        for primitive in decompose(scratch, update):
                            primitive.apply(scratch)
                            batch.append(primitive)
                except ReproError:
                    skipped += 1
                else:
                    graph = scratch
                    applied += batch
                    replayed += 1
                last_lsn = record.lsn
            if replayed:
                # The stored snapshot is stale by exactly the replayed tail.
                frozen = self._patched(frozen, graph, applied)
            state = _GraphState(graph, checkpoint.get("oracle"))
            state.appended_lsn = last_lsn
            state.applied_lsn = last_lsn
            # no baseline: the checkpoint just loaded covers this graph
            epoch = self._adopt(name, state, frozen=frozen, baseline=False)
            report[name] = {
                "status": "recovered",
                "replayed": replayed,
                "skipped": skipped,
                "lsn": last_lsn,
                "epoch": epoch.epoch_id,
                "graph_version": epoch.graph.version,
            }
        return report

    def checkpoint_capture(
        self, name: str
    ) -> tuple[Epoch, int, dict[str, Any] | None] | None:
        """The current epoch, its applied LSN and the oracle config (checkpointer).

        ``applied_lsn`` only advances when an epoch installs (or a batch
        deterministically fails, changing nothing), so the pair is always
        consistent: the epoch's graph *is* the state as of that LSN.
        """
        with self._lock:
            state = self._graphs.get(name)
            if state is None or state.current is None:
                return None
            return state.current, state.applied_lsn, state.oracle_config

    def wal_status(self) -> dict[str, Any]:
        """Durability status: per-graph replay lag + WAL/checkpoint stats."""
        with self._lock:
            graphs = {
                name: {
                    "appended_lsn": state.appended_lsn,
                    "applied_lsn": state.applied_lsn,
                    "replay_lag": state.appended_lsn - state.applied_lsn,
                    "degraded": state.degraded,
                    "degraded_reason": state.degraded_reason,
                }
                for name, state in sorted(self._graphs.items())
            }
        out: dict[str, Any] = {"enabled": self.wal is not None, "graphs": graphs}
        if self.wal is not None:
            out["wal"] = self.wal.stats()
        if self._checkpointer is not None:
            out["checkpointer"] = self._checkpointer.stats()
        return out

    @property
    def degraded(self) -> bool:
        """Whether any graph is serving a stale epoch after a failed build."""
        with self._lock:
            return any(state.degraded for state in self._graphs.values())

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _build_epoch(
        self,
        name: str,
        state: _GraphState,
        prior: Epoch | None = None,
        primitives: Sequence[Update] = (),
        frozen: FrozenGraph | None = None,
        oracle_obj: DistanceOracle | None = None,
    ) -> Epoch:
        """(Patch | freeze) + (carry | build | skip) oracle + (carry | lazy) index.

        Called under the graph's write lock but *not* the registry lock —
        the work happens while readers continue against the previous epoch
        untouched.  The epoch serves ``state.master`` itself, uncopied:
        nothing writes to a master in place.  ``prior`` is the epoch whose
        graph the master is a copy of plus exactly ``primitives``: its
        snapshot is patched (adjacency views carried, so the prewarm below
        is a hit), its oracle carried when every primitive preserves
        distances, and its attribute index carried when it was built.
        Without one the epoch is built in full (its index on first use).
        """
        fault_point("registry.rebuild")
        graph = state.master
        if frozen is None and prior is not None:
            frozen = self._patched(prior.frozen, graph, primitives)
        if frozen is None:
            frozen = FrozenGraph.freeze(graph)
            with self._lock:
                self.counters["freezes"] += 1
        elif not frozen.matches(graph):  # pragma: no cover - store corruption
            raise ServerError(
                f"stored snapshot for {name!r} does not match graph version "
                f"{graph.version}"
            )
        # Readers share these adjacency views; building them at publish
        # time keeps the lazy build out of the (concurrent) request path.
        frozen.successor_sets()
        frozen.predecessor_sets()
        oracle = oracle_obj
        if oracle is None and state.oracle_config is not None:
            if (
                prior is not None
                and prior.oracle is not None
                and all(map(DistanceOracle.survives, primitives))
                and prior.oracle.compatible_with(frozen)
            ):
                oracle = prior.oracle
                with self._lock:
                    self.counters["oracle_carries"] += 1
            else:
                config = state.oracle_config
                oracle = DistanceOracle.build(
                    frozen, cap=config.get("cap"), top=config.get("top")
                )
                with self._lock:
                    self.counters["oracle_builds"] += 1
        if prior is None:
            attr_index = AttributeIndex(graph)  # built on first use
        else:
            with prior._index_lock:
                attr_index = prior.attr_index.carried(graph, primitives)
            if attr_index.is_built:
                with self._lock:
                    self.counters["index_carries"] += 1
        epoch = Epoch(
            name,
            state.next_epoch_id,
            graph,
            frozen,
            oracle,
            attr_index,
            cache_capacity=self.cache_capacity,
        )
        state.next_epoch_id += 1
        return epoch

    def _patched(
        self, frozen: FrozenGraph, graph: Graph, primitives: Sequence[Update]
    ) -> FrozenGraph | None:
        """``frozen`` carried over ``primitives`` to ``graph`` (None: freeze)."""
        patched = frozen.patched(graph, primitives)
        if patched is not None:
            with self._lock:
                self.counters["patches"] += 1
        return patched

    def _state_locked(self, name: str) -> _GraphState:
        """The record of a served graph.  Caller holds the registry lock."""
        state = self._graphs.get(name)
        if state is None or state.current is None:
            known = ", ".join(sorted(self._graphs)) or "none"
            raise ServerError(f"unknown graph: {name!r} (registered: {known})")
        return state

    def _adopt(
        self,
        name: str,
        state: _GraphState,
        replace: bool = False,
        frozen: FrozenGraph | None = None,
        oracle_obj: DistanceOracle | None = None,
        baseline: bool = True,
    ) -> Epoch:
        """Build ``state``'s first epoch off-lock and serve it as ``name``."""
        with state.write_lock:
            epoch = self._build_epoch(
                name, state, frozen=frozen, oracle_obj=oracle_obj
            )
            with self._lock:
                self._drain_leaked_locked()
                # Checked under the installing lock: a concurrent
                # register() may have won the name while this epoch was
                # being built off-lock, and overwriting would silently
                # drop the winner's published epoch.
                if name in self._graphs and not replace:
                    raise ServerError(f"graph {name!r} already registered")
                self._graphs[name] = state
                self._install(state, epoch)
        # A synchronous baseline checkpoint: once register() returns, the
        # graph is recoverable — every later WAL record replays over this
        # artifact, so acknowledgement implies durability from batch one.
        if baseline and self._checkpointer is not None:
            self._checkpointer.checkpoint(name)
        return epoch

    def _install(self, state: _GraphState, epoch: Epoch) -> None:
        """The atomic publish: one pointer swap under the registry lock."""
        state.current = epoch
        state.live[epoch.epoch_id] = epoch
        self.counters["epochs_published"] += 1

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Lifecycle counters, a per-graph epoch inventory, and the current
        epochs' cache and attribute-index counters (the latter read under
        the epoch's index lock)."""
        with self._lock:
            self._drain_leaked_locked()
            graphs = {
                name: {
                    "current_epoch": state.current.epoch_id,
                    "graph_version": state.current.graph.version,
                    "live_epochs": len(state.live),
                    "pins": sum(e._pins for e in state.live.values()),
                    "oracle": state.oracle_config is not None,
                    "nodes": state.master.num_nodes,
                    "edges": state.master.num_edges,
                }
                for name, state in sorted(self._graphs.items())
            }
            counters = dict(self.counters)
            current = {name: state.current for name, state in self._graphs.items()}
        cache_totals = {}
        for name, epoch in sorted(current.items()):
            with epoch._index_lock:
                index = epoch.attr_index.stats()
            cache_totals[name] = {
                "cache": epoch.cache.stats(),
                "rank_cache": epoch.rank_cache.stats(),
                "index": index,
            }
        return {"graphs": graphs, "counters": counters, "caches": cache_totals}

    def live_epochs(self, name: str) -> list[Epoch]:
        """All non-collected epochs of ``name`` (tests inspect lifecycle)."""
        with self._lock:
            state = self._graphs.get(name)
            return list(state.live.values()) if state is not None else []
