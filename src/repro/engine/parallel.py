"""Parallel sharded evaluation — pivot partitioning plus a worker pool.

Bounded simulation splits into two phases with very different shapes:

1. **successor-row construction** — one truncated reachability search per
   candidate of every pattern node with out-edges.  This dominates
   evaluation cost and is embarrassingly parallel: each search depends
   only on its source candidate and the immutable graph, so the
   candidates are partitioned into owned *pivots*
   (:mod:`repro.graph.partition`) and every worker computes its pivots'
   rows against the one shared :class:`~repro.graph.frozen.FrozenGraph`
   snapshot, through the very same
   :func:`~repro.matching.bounded.frozen_successor_rows` kernel the
   sequential matcher uses.  A shard is a list of pivots, never a graph.
2. **removal fixpoint** — a worklist cascade over the merged rows.  Pattern
   cycles and ``*`` bounds make refutations propagate arbitrarily far, so
   this phase is *not* pivot-local; running it once over the merged state
   (:meth:`~repro.matching.bounded.BoundedState.from_successor_rows`) is
   the boundary refinement that makes the parallel result equal the
   sequential one exactly.  ``tests/test_differential.py`` asserts that
   equality over hundreds of seeded random graphs and patterns.

:class:`ParallelExecutor` fans both workloads out to a
:mod:`multiprocessing` pool:

* :meth:`ParallelExecutor.match` — *per-query* parallelism: shard one big
  query's successor-row work across workers, merge, refine.
* :meth:`ParallelExecutor.match_many` — *per-batch* parallelism: farm whole
  (pattern, candidates) tasks out, one query per worker at a time, with
  the data graph shipped once per worker via the pool initializer.

Simulation patterns (every bound 1) ride the same sharded machinery: with
all bounds 1, bounded simulation's fixpoint coincides with plain
simulation's, so the merged relation equals ``match_simulation``'s (also
asserted by the differential harness).

Workers are separate processes; a speedup needs actual spare cores.  On a
single-core host the sharded path still produces identical results, just
with fork/pickle overhead on top — ``benchmarks/bench_parallel_eval.py``
measures both situations honestly.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.engine.estimator import GUARD_TIME_LIMIT, QueryBudget, QueryGuard
from repro.errors import BudgetExceededError, EvaluationError
from repro.graph.digraph import Graph, NodeId
from repro.graph.frozen import FrozenGraph
from repro.graph.index import AttributeIndex, candidates_from_index
from repro.graph.oracle import DistanceOracle, set_build_context
from repro.graph.partition import Shard, decompose
from repro.matching.base import MatchRelation, MatchResult, Stopwatch
from repro.matching.bounded import (
    BoundedState,
    PatternEdge,
    frozen_successor_rows,
    match_bounded,
)
from repro.matching.simulation import match_simulation
from repro.pattern.pattern import Pattern
from repro.ranking.topk import RankingContext

#: Per-shard worker payload, flat int ids over the shared frozen snapshot:
#: (out-edge spec per pivot pattern node, pivot ids per pattern node,
#: child-candidate id arrays per pattern node).
ShardPayload = tuple[
    dict[str, tuple],
    dict[str, tuple[int, ...]],
    dict[str, array],
]
#: What one shard returns: label-keyed successor rows plus its guard info.
ShardRows = tuple[dict[PatternEdge, dict[NodeId, dict[NodeId, int]]], dict[str, Any]]

# Worker-process state.  Only pool initializers write these — the same
# ``Pool(initializer=..., initargs=...)`` call under fork and spawn — and
# only the task functions below read them, so tasks stay tiny (a shard
# payload, a pattern plus table keys, a chunk of node ids) while the graph,
# snapshot, oracle and candidate table arrive once per worker.  The parent
# process never installs anything here: inline runs pass the same objects
# to the ``*_core`` functions as arguments, so concurrent fan-outs from
# several threads of one process share no state.

#: ``(frozen, oracle, guard triple or None)`` of a dedicated shard pool.
_shard_state: tuple | None = None
#: ``(graph, candidate table, frozen, oracle, budget)`` of a batch pool;
#: the table is {predicate key: node set}, computed once for the batch.
_batch_state: tuple | None = None
#: ``(ranking context, metric or None)`` of a bulk-ranking pool.
_rank_state: tuple | None = None
#: The persistent pool's shared visit counter, installed at pool creation
#: so a guarded task only needs to carry its budget.
_persistent_counter: Any = None

#: Worker-side memo of snapshot/oracle files already mapped in, so a
#: long-lived pool worker pays ``load_frozen_file`` once per file rather
#: than once per task.  Bounded: it resets rather than grows.
_persistent_loads: dict[str, Any] = {}
_PERSISTENT_LOAD_SLOTS = 8


def _shipment(
    frozen: FrozenGraph, oracle: DistanceOracle | None
) -> tuple[Any, Any]:
    """``(frozen, oracle)`` in the form that is cheapest to pickle.

    Store-loaded objects record their backing snapshot file in ``.path``;
    shipping that path lets every worker ``mmap`` the same pages — shared
    RSS, no per-worker pickle of the buffers.  Objects built in-process
    have no file and ship as pickled (attribute-less) flat buffers.
    """
    shipped_frozen: Any = (
        frozen.path if frozen.path is not None else frozen.without_attrs()
    )
    shipped_oracle: Any = (
        oracle if oracle is None or oracle.path is None else oracle.path
    )
    return shipped_frozen, shipped_oracle


def _load_memo(path: Any, loader: Callable[[Any], Any]) -> Any:
    key = str(path)
    obj = _persistent_loads.get(key)
    if obj is None:
        if len(_persistent_loads) >= _PERSISTENT_LOAD_SLOTS:
            _persistent_loads.clear()
        obj = _persistent_loads[key] = loader(path)
    return obj


def _resolve_shipped(frozen: Any, oracle: Any) -> tuple[Any, Any]:
    """Worker-side inverse of :func:`_shipment`: map file paths back in.

    Live objects (fork-inherited, or pickled buffers) pass through.
    """
    from repro.engine.storage import load_frozen_file, load_oracle_file

    if isinstance(frozen, (str, Path)):
        frozen = _load_memo(frozen, load_frozen_file)
    if isinstance(oracle, (str, Path)):
        oracle = _load_memo(oracle, load_oracle_file)
    return frozen, oracle


def _init_shard_worker(
    frozen: Any, oracle: Any, guard_state: tuple | None = None
) -> None:
    """Initializer of a dedicated shard pool.

    ``guard_state`` is ``(budget, shared counter, absolute deadline)``:
    every task builds its own guard around the *shared* visit counter, so
    one budget governs the whole fan-out and sequential and parallel
    evaluation trip on the same total work.
    """
    global _shard_state
    _shard_state = (*_resolve_shipped(frozen, oracle), guard_state)


def _init_persistent_worker(counter: Any) -> None:
    global _persistent_counter
    _persistent_counter = counter


def _init_batch_worker(
    graph: Graph,
    table: dict[tuple, set[NodeId]],
    frozen: Any,
    oracle: Any,
    budget: "QueryBudget | None",
) -> None:
    global _batch_state
    _batch_state = (graph, table, *_resolve_shipped(frozen, oracle), budget)


def _init_rank_worker(context: RankingContext, metric: Any) -> None:
    global _rank_state
    _rank_state = (context, metric)


def validate_workers(workers: int | None) -> int:
    """Normalize a ``workers`` argument: ``None`` means sequential (1).

    Raises :class:`EvaluationError` for anything that is not a positive
    integer, so every entry point (engine, CLI, facade) rejects bad values
    with one consistent message.
    """
    if workers is None:
        return 1
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise EvaluationError(f"workers must be a positive integer (got {workers!r})")
    return workers


def _shard_rows(payload: ShardPayload) -> ShardRows:
    """One shard on a *dedicated* pool, against the worker's snapshot."""
    assert _shard_state is not None, "shard worker was not initialised"
    frozen, oracle, guard_state = _shard_state
    guard = None
    if guard_state is not None:
        budget, counter, deadline = guard_state
        guard = QueryGuard(budget, shared_counter=counter, deadline=deadline)
    return _shard_rows_core(payload, frozen, oracle, guard)


def _shard_rows_shipped(
    task: "tuple[ShardPayload, Any, Any, QueryBudget | None]",
) -> ShardRows:
    """One shard on the *persistent* pool.

    The task carries everything a long-lived worker does not already
    hold: the shard payload, the shipped shared snapshot/oracle (a file
    path when mmap-backed — memoized per worker — or attribute-less flat
    buffers) and, for a guarded call, its budget.  The guard wraps the
    process-wide shared counter installed at pool creation, so one node
    budget still governs the whole fan-out exactly like the
    dedicated-pool path.
    """
    payload, shipped_frozen, shipped_oracle, budget = task
    frozen, oracle = _resolve_shipped(shipped_frozen, shipped_oracle)
    guard = (
        QueryGuard(budget, shared_counter=_persistent_counter)
        if budget is not None
        else None
    )
    return _shard_rows_core(payload, frozen, oracle, guard)


def _shard_rows_core(
    payload: ShardPayload,
    frozen: FrozenGraph,
    oracle: "DistanceOracle | None",
    guard: "QueryGuard | None",
) -> ShardRows:
    """Successor rows for one shard — what every route, inline or pooled, runs.

    The payload is int-indexed against the shared frozen snapshot.  Rows
    are computed by the same :func:`frozen_successor_rows` kernel the
    sequential matcher uses, restricted to the shard's pivots, then
    converted back to labels for the merge.  Returns the rows plus a
    guard-info dict (empty when unguarded): each worker's guard charges
    the *shared* visit counter, so a blown budget stops every sibling at
    its next check, not just this shard.
    """
    edges_spec, pivots, candidate_arrays = payload
    candidate_ids = {u: frozenset(ids) for u, ids in candidate_arrays.items()}
    rows_ids = frozen_successor_rows(
        frozen, edges_spec, candidate_ids, sources_by_node=pivots, oracle=oracle,
        guard=guard,
    )
    labels = frozen.labels
    converted = {
        edge: {
            labels[source_id]: {
                labels[reached_id]: dist for reached_id, dist in entries.items()
            }
            for source_id, entries in edge_rows.items()
        }
        for edge, edge_rows in rows_ids.items()
    }
    return converted, (guard.stats() if guard is not None else {})


def _guard_summary(
    results: Sequence[ShardRows], visits: int, tripped: str | None = None
) -> dict[str, Any]:
    """One ``stats`` fragment for a guarded fan-out, from its shards' infos."""
    replans = 0
    for _rows, info in results:
        replans += info.get("replans", 0)
        if tripped is None and info.get("guard"):
            tripped = info["guard"]
    summary: dict[str, Any] = {"partial": tripped is not None, "visits": visits}
    if tripped is not None:
        summary["guard"] = tripped
    if replans:
        summary["replans"] = replans
    return summary


def _rank_chunk(nodes: Sequence[NodeId]) -> list:
    """Score one chunk of matches against the worker's snapshot context."""
    assert _rank_state is not None, "rank worker was not initialised"
    return _rank_core(*_rank_state, nodes)


def _rank_core(context: RankingContext, metric: Any, nodes: Sequence[NodeId]) -> list:
    """Scores for ``nodes``, in order.

    With no metric this is the rich social-impact path and returns
    :class:`~repro.ranking.social_impact.RankedMatch` objects; otherwise
    it returns the metric's ``score_bulk`` floats.  Either way the values
    are pure functions of the immutable snapshot, so a worker computes
    exactly what the parent would inline.
    """
    if metric is None:
        return [context.detail(node) for node in nodes]
    return [metric.score_bulk(context, node) for node in nodes]


def _batch_query(
    task: tuple[Pattern, dict[str, tuple]],
) -> tuple[MatchRelation, dict[str, Any]]:
    """Evaluate one whole query against the worker's graph (batch mode)."""
    assert _batch_state is not None, "batch worker was not initialised"
    return _batch_query_core(*_batch_state, task)


def _batch_query_core(
    graph: Graph,
    table: dict[tuple, set[NodeId]],
    frozen: FrozenGraph | None,
    oracle: DistanceOracle | None,
    budget: QueryBudget | None,
    task: tuple[Pattern, dict[str, tuple]],
) -> tuple[MatchRelation, dict[str, Any]]:
    pattern, key_by_node = task
    candidates = {u: table[key] for u, key in key_by_node.items()}
    if pattern.is_simulation_pattern:
        # Guards cover the bounded algorithm only (the quadratic matcher
        # has no runaway mode worth the bookkeeping), sequentially and in
        # workers alike — so both modes agree on the partial flag.
        result = match_simulation(
            graph, pattern, candidates=candidates, frozen=frozen
        )
    else:
        result = match_bounded(
            graph,
            pattern,
            candidates=candidates,
            frozen=frozen,
            oracle=oracle,
            budget=budget,
        )
    return result.relation, result.stats


class ParallelExecutor:
    """A reusable worker pool for sharded and batched evaluation.

    The pool is created lazily on first parallel use and reused across
    calls (forking a pool costs more than a small query); close it with
    :meth:`close` or use the executor as a context manager.  With
    ``workers=1`` everything runs inline in the calling process — same
    code path, no processes — so callers can treat the executor as the one
    evaluation front end regardless of parallelism.

    >>> from repro.datasets.paper_example import paper_graph, paper_pattern
    >>> with ParallelExecutor(workers=2) as executor:
    ...     result = executor.match(paper_graph(), paper_pattern())
    >>> sorted(result.relation.matches_of("SA"))
    ['Bob', 'Walt']
    >>> result.stats["parallel"]["workers"]
    2
    """

    def __init__(self, workers: int, start_method: str | None = None) -> None:
        self.workers = validate_workers(workers)
        self._ctx = multiprocessing.get_context(start_method)
        self._pool = None
        #: Total worker pools this executor has created (persistent and
        #: dedicated alike) — the regression counter the pool-churn tests
        #: watch: steady-state guarded serving must not move it.
        self.pools_created = 0
        # The shared visit counter all persistent-pool guards wrap; it is
        # allocated with the pool so every worker receives it through the
        # initializer, and guarded calls are serialized by ``_guard_serial``
        # (one budget at a time owns the counter).
        self._guard_counter: Any = None
        self._guard_serial = threading.Lock()
        # Pool creation and its counter are check-then-act / read-modify-
        # write on shared fields; the fan-outs themselves take no lock.
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------
    def _query_pool(self) -> Any:
        with self._pool_lock:
            if self._pool is None:
                if self._guard_counter is None:
                    self._guard_counter = self._ctx.Value("q", 0)
                self._pool = self._ctx.Pool(
                    self.workers,
                    initializer=_init_persistent_worker,
                    initargs=(self._guard_counter,),
                )
                self.pools_created += 1
            return self._pool

    def _dedicated_pool(self, **kwargs: Any) -> Any:
        """A single-call pool (counted in :attr:`pools_created`).

        Dedicated pools remain for work that cannot share the persistent
        one: wall-clock-guarded fan-outs (termination mid-flight) and the
        calls whose workers hold call-specific state — which reaches them
        through ``initializer=`` / ``initargs=`` under every start method.
        """
        with self._pool_lock:
            self.pools_created += 1
        return self._ctx.Pool(self.workers, **kwargs)

    def _ship(
        self, frozen: FrozenGraph | None, oracle: DistanceOracle | None
    ) -> tuple[Any, Any]:
        """``(frozen, oracle)`` as a dedicated pool's ``initargs`` carry them.

        The one place the start method matters: forked children inherit
        ``initargs`` — nothing is pickled, so the live objects go as they
        are — while spawned ones unpickle them once per worker, so they get
        the :func:`_shipment` form (a file path or attribute-less buffers).
        """
        if frozen is None or self._ctx.get_start_method() == "fork":
            return frozen, oracle
        return _shipment(frozen, oracle)

    def warm(self) -> "ParallelExecutor":
        """Create the persistent pool now, off any request path.

        Long-running services call this at startup so the first guarded
        or sharded query never pays pool construction.  With one worker
        there is nothing to warm (everything runs inline).
        """
        if self.workers > 1:
            self._query_pool()
        return self

    def close(self) -> None:
        """Terminate the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        state = "live pool" if self._pool is not None else "no pool"
        return f"<ParallelExecutor workers={self.workers} ({state})>"

    # ------------------------------------------------------------------
    # per-query parallelism
    # ------------------------------------------------------------------
    def match(
        self,
        graph: Graph,
        pattern: Pattern,
        index: AttributeIndex | None = None,
        num_shards: int | None = None,
        frozen: FrozenGraph | None = None,
        oracle: DistanceOracle | None = None,
        budget: QueryBudget | None = None,
        candidates: dict[str, set[NodeId]] | None = None,
    ) -> MatchResult:
        """``M(Q,G)`` via sharded evaluation: partition, fan out, merge.

        Candidate generation runs once in the calling process (through
        ``index`` when given, or skipped entirely when the caller passes
        precomputed ``candidates`` — the serving layer computes them
        under its per-epoch index lock); the candidates are partitioned
        into ``num_shards`` (default: one per worker) pivot shards whose
        successor rows the pool computes; the merged state then runs the
        standard removal fixpoint.  The result carries full refinement
        state, exactly like :func:`~repro.matching.bounded.match_bounded`.

        All shard work runs over a :class:`FrozenGraph` snapshot — the
        caller's ``frozen`` (the engine passes its cached one; it must
        match the graph's current version) or one frozen here — and every
        worker reads that one snapshot: handed to a dedicated pool's
        initializer when no persistent pool is warm, shipped inside the
        tasks (a file path when mmap-backed) when one is.  With an
        ``oracle`` (a :class:`~repro.graph.oracle.DistanceOracle` built
        from the same snapshot lineage), workers route selective pattern
        edges to pairwise label merges against the shared oracle.

        A ``budget`` (:class:`~repro.engine.estimator.QueryBudget`) guards
        the fan-out as one query: workers charge a *shared* visit counter,
        so the node budget governs total work across shards (sequential
        and guarded-parallel runs agree on whether the budget trips); a
        wall-clock limit aborts in-flight workers via pool termination,
        and shards that never reported merge as empty rows — a sound
        under-approximation flagged ``stats["partial"] = True``.

        Thread-safe: nothing a call needs lives in process-wide state —
        every route hands its snapshot, oracle and guard to the workers
        (or, inline, to the shard kernel) as arguments — so a threaded
        query service shares one executor across requests and concurrent
        fan-outs overlap.  Only node-budgeted calls on the persistent
        pool take turns: one budget at a time owns its visit counter.
        """
        pattern.validate()
        watch = Stopwatch()
        if frozen is not None and not frozen.matches(graph):
            raise EvaluationError(
                f"stale frozen snapshot: {frozen!r} does not match "
                f"graph version {graph.version}"
            )
        if candidates is None:
            candidates = candidates_from_index(graph, pattern, index)
        if frozen is None:
            frozen = FrozenGraph.freeze(graph)
        if oracle is not None and not oracle.compatible_with(frozen):
            raise EvaluationError(
                f"stale distance oracle: {oracle!r} does not match {frozen!r}"
            )
        shards = decompose(
            graph, pattern, candidates, num_shards or self.workers, frozen=frozen
        )
        inline = self.workers == 1 or len(shards) <= 1
        payloads = self._shard_payloads(frozen, pattern, shards, candidates)
        guarded = budget is not None and budget.is_limited
        if guarded:
            budget.validate()
        guard_stats: dict[str, Any] = {}
        if inline:
            guard = QueryGuard(budget) if guarded else None
            results = [
                _shard_rows_core(payload, frozen, oracle, guard)
                for payload in payloads
            ]
            if guard is not None:
                guard_stats = guard.stats()
        elif guarded and budget.seconds is not None:
            # A wall-clock limit may require terminating in-flight
            # workers, which would destroy a persistent pool — only
            # these calls pay for a dedicated pool.
            results, guard_stats = self._guarded_map(
                frozen, payloads, oracle, budget
            )
        elif guarded or self._pool is not None:
            # Node-only budgets never need to kill workers mid-flight, and
            # a warm pool (a long-running service) is there to be used:
            # both ship the shared snapshot inside the tasks and keep pool
            # construction off the per-call path (the churn the serving
            # layer cares about).
            results, guard_stats = self._persistent_map(
                frozen, payloads, oracle, budget if guarded else None
            )
        else:
            results = self._shared_frozen_map(frozen, payloads, oracle)
        merged: dict[PatternEdge, dict[NodeId, dict[NodeId, int]]] = {}
        for rows, _info in results:
            for edge, row in rows.items():
                merged.setdefault(edge, {}).update(row)
        state = BoundedState.from_successor_rows(
            graph, pattern, candidates, merged,
            allow_missing=bool(guard_stats.get("partial")),
        )
        relation = state.relation()
        stats = {
            "algorithm": (
                "simulation" if pattern.is_simulation_pattern else "bounded-simulation"
            ),
            "seconds": watch.seconds(),
            "candidate_source": "scan" if index is None else "index",
            "parallel": {
                "mode": "sharded-query",
                "workers": self.workers,
                "shards": len(shards),
                "pivots": sum(shard.num_pivots for shard in shards),
                "shipping": "inline" if inline else "shared-graph",
            },
        }
        stats.update(guard_stats)
        return MatchResult(graph, pattern, relation, stats=stats, state=state)

    @staticmethod
    def _shard_payloads(
        frozen: FrozenGraph,
        pattern: Pattern,
        shards: Sequence[Shard],
        candidates: dict[str, set[NodeId]],
    ) -> list[ShardPayload]:
        """What each worker needs, as flat int ids over the shared snapshot.

        The child-candidate id arrays are identical across shards, so each
        is built once and every payload references the same object.
        """
        ids = frozen.ids()
        arrays: dict[str, array] = {}
        payloads: list[ShardPayload] = []
        for shard in shards:
            edges_spec = {u: tuple(pattern.out_edges(u)) for u in shard.pivots}
            targets = {
                edge_target
                for out_edges in edges_spec.values()
                for edge_target, _bound in out_edges
            }
            for target in targets - arrays.keys():
                arrays[target] = array(
                    "q", sorted(ids[v] for v in candidates[target])
                )
            pivot_ids = {
                u: tuple(ids[v] for v in pivots)
                for u, pivots in shard.pivots.items()
            }
            payloads.append(
                (edges_spec, pivot_ids, {target: arrays[target] for target in targets})
            )
        return payloads

    def _persistent_map(
        self,
        frozen: FrozenGraph,
        payloads: list[ShardPayload],
        oracle: DistanceOracle | None,
        budget: QueryBudget | None,
    ) -> tuple[list, dict[str, Any]]:
        """Fan shard work out over the *persistent* pool.

        Tasks carry the shipped snapshot (a file path for mmap-backed
        stores, memoized worker-side) and, for a guarded call, the budget.
        Only budgets without a wall-clock limit come here — nothing ever
        has to be terminated mid-flight — and the shared visit counter
        installed at pool creation aggregates their work across workers
        exactly like the dedicated-pool path.  Guarded calls are
        serialized: one budget at a time owns the counter.  ``Pool.map``
        waits for every task before raising the first error, so no
        straggler outlives the call and charges a reset counter.
        """
        shipped = _shipment(frozen, oracle)
        tasks = [(payload, *shipped, budget) for payload in payloads]
        if budget is None:
            return self._query_pool().map(_shard_rows_shipped, tasks), {}
        with self._guard_serial:
            pool = self._query_pool()
            counter = self._guard_counter
            with counter.get_lock():
                counter.value = 0
            results = pool.map(_shard_rows_shipped, tasks)
            visits = counter.value
        return results, _guard_summary(results, visits)

    def _guarded_map(
        self,
        frozen: FrozenGraph,
        payloads: list[ShardPayload],
        oracle: DistanceOracle | None,
        budget: QueryBudget,
    ) -> tuple[list, dict[str, Any]]:
        """Fan shard work out under a wall-clock limit, killing stragglers.

        A dedicated pool starts with the snapshot *and* the guard state —
        ``(budget, shared counter, absolute deadline)`` — as initializer
        arguments; each worker builds a :class:`QueryGuard` around the
        shared counter, so one node budget governs the sum of all shards'
        work.  The parent drains ``imap_unordered`` with the remaining
        wall-clock as timeout: when time runs out it *terminates* the
        pool, cancelling in-flight shards; their pivots merge as missing
        (empty) rows — a sound under-approximation.  ``time.monotonic`` is
        comparable across processes on Linux, so the absolute deadline
        ships as-is.
        """
        assert budget.seconds is not None
        counter = self._ctx.Value("q", 0)
        deadline = time.monotonic() + budget.seconds
        aborted = False
        results: list = []
        pool = self._dedicated_pool(
            initializer=_init_shard_worker,
            initargs=(*self._ship(frozen, oracle), (budget, counter, deadline)),
        )
        try:
            iterator = pool.imap_unordered(_shard_rows, payloads)
            for _ in payloads:
                try:
                    remaining = deadline - time.monotonic()
                    results.append(iterator.next(max(0.0, remaining)))
                except multiprocessing.TimeoutError:
                    aborted = True
                    break
        finally:
            pool.terminate()
            pool.join()
        visits = counter.value
        if aborted and not budget.allow_partial:
            raise BudgetExceededError(
                f"query exceeded its {GUARD_TIME_LIMIT} (visits={visits}, "
                f"budget={budget}); in-flight shard workers were cancelled"
            )
        return results, _guard_summary(
            results, visits, tripped=GUARD_TIME_LIMIT if aborted else None
        )

    def _shared_frozen_map(
        self,
        frozen: FrozenGraph,
        payloads: list[ShardPayload],
        oracle: DistanceOracle | None,
    ) -> list:
        """Fan shard work out over a pool that shares the full snapshot.

        A dedicated pool is created per call and receives the snapshot
        (and oracle labels, when routing uses them) through its
        initializer: inherited at zero cost under the fork start method,
        shipped once per worker — as a file path or adjacency-only flat
        buffers, workers only traverse — under spawn.
        """
        with self._dedicated_pool(
            initializer=_init_shard_worker, initargs=self._ship(frozen, oracle)
        ) as pool:
            return pool.map(_shard_rows, payloads)

    # ------------------------------------------------------------------
    # bulk-ranking parallelism
    # ------------------------------------------------------------------
    #: Below this many matches the fork/IPC cost of a pool dwarfs the
    #: Dijkstra work; rank inline instead (still through the same code).
    RANK_FANOUT_THRESHOLD = 64

    def rank_many(
        self,
        context: RankingContext,
        metric: Any,
        nodes: Sequence[NodeId],
    ) -> list:
        """Fan per-match scoring out across the pool, in input order.

        ``metric=None`` selects the rich social-impact path (returns
        :class:`RankedMatch` objects); otherwise each node is scored with
        ``metric.score_bulk``.  The snapshot context reaches each worker
        once, through the pool initializer (inherited under fork, pickled
        under spawn); tasks carry only node-id chunks.  Scores are
        deterministic functions of the snapshot, so the output is
        byte-identical to inline scoring — the differential tests assert
        it.  Results are absorbed back into ``context``'s memos so
        subsequent calls (and the engine's rank cache) reuse them.
        """
        nodes = list(nodes)
        if self.workers == 1 or len(nodes) < self.RANK_FANOUT_THRESHOLD:
            results = _rank_core(context, metric, nodes)
        else:
            # ~4 chunks per worker smooths out uneven per-match cost
            # (component sizes vary wildly) without inflating IPC.
            chunk_size = max(1, -(-len(nodes) // (self.workers * 4)))
            chunks = [
                nodes[i : i + chunk_size] for i in range(0, len(nodes), chunk_size)
            ]
            with self._dedicated_pool(
                initializer=_init_rank_worker, initargs=(context, metric)
            ) as pool:
                results = [
                    item for chunk in pool.map(_rank_chunk, chunks) for item in chunk
                ]
        if metric is None:
            # Detail memos are keyed by node alone, so absorbing is always
            # safe; metric scores are memoized by the caller, which knows
            # whether this metric instance may share the context's memo.
            context.absorb_details(results)
        return results

    # ------------------------------------------------------------------
    # per-batch parallelism
    # ------------------------------------------------------------------
    def match_many(
        self,
        graph: Graph,
        tasks: Sequence[tuple[Pattern, dict[str, tuple]]],
        table: dict[tuple, set[NodeId]],
        frozen: FrozenGraph | None = None,
        oracle: DistanceOracle | None = None,
        budget: QueryBudget | None = None,
    ) -> list[tuple[MatchRelation, dict[str, Any]]]:
        """Evaluate whole queries across the pool.

        Each task is ``(pattern, {pattern node: candidate-table key})``;
        ``table`` maps those keys (canonical predicate keys) to candidate
        sets computed once for the whole batch.  The graph, its frozen
        snapshot (when given — worker matchers then run the CSR kernels),
        the distance oracle (when given — worker matchers then route
        selective edges to label merges) and the table reach each worker
        once, through the pool initializer — inherited under fork; under
        spawn pickled, the snapshot without its attribute columns (worker
        matchers get candidates from the table) or as its backing file
        path — so a task pickles only its pattern and a few keys.  Returns
        ``(relation, worker stats)`` per task, in order.  With one worker
        (or one task) everything runs inline.

        A ``budget`` applies *per query*: each bounded-pattern task gets a
        fresh guard inside its worker (node and wall limits count from the
        task's own start), exactly as a sequential loop over the batch
        would apply it.
        """
        if not tasks:
            return []
        if frozen is not None and not frozen.matches(graph):
            raise EvaluationError(
                f"stale frozen snapshot: {frozen!r} does not match "
                f"graph version {graph.version}"
            )
        if oracle is not None:
            if frozen is None:
                raise EvaluationError(
                    "a distance oracle requires a frozen snapshot in the "
                    "batch-farming path"
                )
            if not oracle.compatible_with(frozen):
                raise EvaluationError(
                    f"stale distance oracle: {oracle!r} does not match {frozen!r}"
                )
        if budget is not None and budget.is_limited:
            budget.validate()
        else:
            budget = None
        if self.workers == 1 or len(tasks) == 1:
            return [
                _batch_query_core(graph, table, frozen, oracle, budget, task)
                for task in tasks
            ]
        with self._dedicated_pool(
            initializer=_init_batch_worker,
            initargs=(graph, table, *self._ship(frozen, oracle), budget),
        ) as pool:
            return pool.map(_batch_query, list(tasks))

    # ------------------------------------------------------------------
    # parallel oracle construction
    # ------------------------------------------------------------------
    def build_oracle(
        self,
        frozen: FrozenGraph,
        cap: int | None = None,
        top: int | None = None,
    ) -> DistanceOracle:
        """Build a :class:`DistanceOracle`, fanning phase two across workers.

        Phase one (the sequential top-landmark prefix) runs in the calling
        process; the independent phase-two landmark chunks are mapped over
        a dedicated pool that shares the phase-one labels — handed to the
        pool initializer — and return flat entry triples.  Because phase-two pruning only ever consults the
        fixed phase-one labels, the resulting label arrays are
        byte-identical to a sequential :meth:`DistanceOracle.build`
        (asserted in ``tests/test_oracle.py``); workers only change the
        wall-clock.  With one worker everything runs inline.
        """
        if self.workers == 1:
            return DistanceOracle.build(frozen, cap=cap, top=top)
        return DistanceOracle.build(
            frozen, cap=cap, top=top, chunk_map=self._oracle_chunk_map
        )

    def _oracle_chunk_map(
        self, function: Callable[..., Any], chunks: Sequence[Any]
    ) -> list:
        """Map phase-two chunks over a context-sharing pool.

        ``function`` is always :func:`repro.graph.oracle.phase_two_chunk`;
        ``DistanceOracle.build`` installed the build context right before
        this call, and the pool initializer installs that same context in
        every worker.
        """
        chunks = list(chunks)
        if len(chunks) <= 1:
            return [function(chunk) for chunk in chunks]
        from repro.graph.oracle import _build_context

        with self._dedicated_pool(
            initializer=set_build_context, initargs=(_build_context,)
        ) as pool:
            return pool.map(function, chunks)  # repro-lint: disable=spawn-safety -- callers pass the module-level phase_two_chunk; asserted spawn-picklable by tests/test_parallel.py
