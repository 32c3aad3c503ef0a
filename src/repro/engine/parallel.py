"""Parallel sharded evaluation — pivot partitioning plus worker processes.

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

:class:`ParallelExecutor` fans both workloads out to :mod:`multiprocessing`
worker processes:

* :meth:`ParallelExecutor.match` — *per-query* parallelism: shard one big
  query's successor-row work across workers, merge, refine.
* :meth:`ParallelExecutor.match_many` — *per-batch* parallelism: farm whole
  (pattern, candidates) tasks out, one query per worker at a time, with
  the data graph handed to each worker once, as a process argument.

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
from multiprocessing.connection import wait
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

from repro.engine.estimator import GUARD_TIME_LIMIT, QueryBudget, QueryGuard
from repro.engine.storage import load_frozen_file, load_oracle_file
from repro.errors import BudgetExceededError, EvaluationError
from repro.graph.digraph import Graph, NodeId
from repro.graph.frozen import FrozenGraph
from repro.graph.index import AttributeIndex, candidates_from_index
from repro.graph.oracle import DistanceOracle, phase_two_chunk
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


class _SnapshotFile(NamedTuple):
    """A store-backed snapshot or oracle as a spawned child receives it:
    the file to map, the graph version it must still hold, and its loader."""

    path: Path
    version: int
    load: Callable[..., Any]


def _shipment(
    frozen: FrozenGraph, oracle: DistanceOracle | None
) -> tuple[Any, Any]:
    """``(frozen, oracle)`` in the form that is cheapest to pickle.

    Store-loaded objects record their backing snapshot file in ``.path``;
    shipping it as a :class:`_SnapshotFile` lets every worker ``mmap`` the
    same pages — shared RSS, no per-worker pickle of the buffers — and
    refuse the file once it holds another version.  Objects built
    in-process ship as pickled (attribute-less) flat buffers.
    """
    shipped_frozen: Any = (
        _SnapshotFile(frozen.path, frozen.source_version, load_frozen_file)
        if frozen.path is not None
        else frozen.without_attrs()
    )
    shipped_oracle: Any = (
        oracle
        if oracle is None or oracle.path is None
        else _SnapshotFile(oracle.path, oracle.source_version, load_oracle_file)
    )
    return shipped_frozen, shipped_oracle


def _resolve_shipped(*state: Any) -> tuple:
    """Worker-side inverse of :func:`_shipment`: map every shipped file of
    ``state`` back in (a version skew is a
    :class:`~repro.errors.StorageError`); everything else passes through."""
    return tuple(
        item.load(item.path, expected_version=item.version)
        if isinstance(item, _SnapshotFile)
        else item
        for item in state
    )


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


def _serve_tasks(conn: Any, function: Callable[..., Any], state: tuple) -> None:
    """Body of one worker process of :meth:`ParallelExecutor._fan_out`.

    Answers every ``(index, task)`` the parent sends with ``(index, True,
    function(*state, task))`` — or ``(index, False, exception)`` — until
    the parent kills it or closes its end of the pipe.  Shipped snapshot
    and oracle files in ``state`` are mapped once, when the first task
    arrives, so a version skew answers that task as its error.
    """
    resolved: tuple | None = None
    while True:
        try:
            index, task = conn.recv()
        except EOFError:
            return
        try:
            if resolved is None:
                resolved = _resolve_shipped(*state)
            reply = (index, True, function(*resolved, task))
        except Exception as exc:
            reply = (index, False, exc)
        conn.send(reply)


def _worker_died(process: Any) -> EvaluationError:
    return EvaluationError(
        f"a worker process died mid-task (pid {process.pid}, exit code "
        f"{process.exitcode}); the fan-out was cancelled"
    )


def _shard_rows_core(
    frozen: Any,
    oracle: Any,
    guard: "QueryGuard | None",
    payload: ShardPayload,
) -> ShardRows:
    """Successor rows for one shard — what every route, inline or not, runs.

    The payload is int-indexed against the shared frozen snapshot.  Rows
    are computed by the same :func:`frozen_successor_rows` kernel the
    sequential matcher uses, restricted to the shard's pivots, then
    converted back to labels for the merge.  Returns the rows plus a guard-info dict (empty when
    unguarded): each worker's guard charges the *shared* visit counter, so
    a blown budget stops every sibling at its next check.
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
    if guard is None:
        return converted, {}
    info = guard.stats()
    # One guard can serve several shards (inline, or one worker's run of
    # tasks): each shard reports only the re-plans it caused.
    guard.replans = 0
    return converted, info


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


def _batch_query_core(
    graph: Graph,
    table: dict[tuple, set[NodeId]],
    frozen: Any,
    oracle: Any,
    budget: QueryBudget | None,
    task: tuple[Pattern, dict[str, tuple]],
) -> tuple[MatchRelation, dict[str, Any]]:
    """Evaluate one whole query of a batch."""
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
    """Worker processes for sharded and batched evaluation.

    Every fan-out starts processes of its own and kills them before it
    returns; between calls the executor holds no process.  With
    ``workers=1`` everything runs inline — same code path, no processes —
    so callers can treat the executor as the one evaluation front end
    regardless of parallelism.

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
        #: Worker sets started, one per fan-out — the counter the serving
        #: tests watch: a cached repeat must not move it.
        self.pools_created = 0
        # Concurrent fan-outs from several threads bump the counter.
        self._count_lock = threading.Lock()

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _fan_out(
        self,
        function: Callable[..., Any],
        state: tuple,
        tasks: Sequence[Any],
        deadline: float | None = None,
    ) -> list:
        """``[function(*state, task) for task in tasks]`` in processes of its own.

        Up to ``workers`` children get ``state`` as a ``Process`` argument
        (inherited under fork, pickled once each under spawn); each next
        task goes over its duplex pipe to whichever child answered last.
        Results come back in input order; a child's exception is re-raised
        as its own type, a child dying mid-task as :class:`EvaluationError`.
        At ``deadline`` (``time.monotonic``) it returns what arrived — fewer
        results than tasks.  Every child is killed and joined on return.
        """
        with self._count_lock:
            self.pools_created += 1
        results: dict[int, Any] = {}
        children: list[tuple[Any, Any]] = []
        try:
            for _ in range(min(self.workers, len(tasks))):
                conn, child_end = self._ctx.Pipe()
                process = self._ctx.Process(
                    target=_serve_tasks, args=(child_end, function, state),
                    daemon=True,
                )
                process.start()
                child_end.close()
                children.append((process, conn))
            pending = iter(enumerate(tasks))
            idle = children
            busy: dict[Any, Any] = {}
            while True:
                for process, conn in idle:
                    task = next(pending, None)
                    if task is None:
                        continue
                    try:
                        conn.send(task)
                    except OSError:
                        raise _worker_died(process) from None
                    busy[conn] = process
                if not busy:
                    break
                timeout = (
                    None if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                # A sibling forked by another thread may hold a copy of a
                # child's pipe end, so only the sentinel proves a death.
                ready = wait([*busy, *(p.sentinel for p in busy.values())], timeout)
                if not ready:
                    break  # the deadline passed with tasks in flight
                idle = []
                for conn, process in list(busy.items()):
                    if conn in ready or process.sentinel in ready:
                        try:
                            reply = conn.recv() if conn.poll() else None
                        except (EOFError, OSError):
                            reply = None
                        if reply is None:
                            raise _worker_died(process)
                        index, ok, value = reply
                        if not ok:
                            raise value
                        results[index] = value
                        del busy[conn]
                        idle.append((process, conn))
        finally:
            for process, _conn in children:
                process.kill()
            for process, conn in children:
                process.join()
                conn.close()
        return [results[index] for index in sorted(results)]

    def _ship(
        self, frozen: FrozenGraph | None, oracle: DistanceOracle | None
    ) -> tuple[Any, Any]:
        """``(frozen, oracle)`` as :meth:`_fan_out` state carries them.

        The one place the start method matters: forked children inherit
        their ``Process`` arguments — nothing is pickled, so the live
        objects go as they are — while spawned ones unpickle them once
        each, so they get the :func:`_shipment` form (a file path and
        version, or attribute-less buffers).
        """
        if frozen is None or self._ctx.get_start_method() == "fork":
            return frozen, oracle
        return _shipment(frozen, oracle)

    def close(self) -> None:
        """Nothing to release: a fan-out's processes die with its call."""

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<ParallelExecutor workers={self.workers}>"

    # ------------------------------------------------------------------
    # per-query parallelism
    # ------------------------------------------------------------------
    def match(
        self,
        graph: Graph,
        pattern: Pattern,
        index: AttributeIndex | None = None,
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
        into one pivot shard per worker, whose successor rows the workers
        compute; the merged state then runs the standard removal fixpoint.
        The result carries that merged
        :class:`~repro.matching.bounded.BoundedState` (candidate-indexed, as
        a dict-graph :func:`~repro.matching.bounded.match_bounded` returns
        it).

        All shard work runs over a :class:`FrozenGraph` snapshot — the
        caller's ``frozen`` (the engine passes its cached one; it must
        match the graph's current version) or one frozen here — and every
        worker reads that one snapshot, handed to the call's own worker
        processes as an argument (a file path when mmap-backed and the
        children are spawned).  With an ``oracle`` (a
        :class:`~repro.graph.oracle.DistanceOracle` built from the same
        snapshot lineage), workers route selective pattern edges to
        pairwise label merges against the shared oracle.

        A ``budget`` (:class:`~repro.engine.estimator.QueryBudget`) guards
        the fan-out as one query: workers charge a visit counter of the
        call's own, so the node budget governs total work across shards
        (sequential and guarded-parallel runs agree on whether the budget
        trips); a wall-clock limit kills the call's worker processes at
        its deadline, and shards that never reported merge as empty rows —
        a sound under-approximation flagged ``stats["partial"] = True``.

        Thread-safe: nothing a call needs lives in process-wide state —
        every call hands its snapshot, oracle and guard to the workers (or,
        inline, to the shard kernel) as arguments — so a threaded query
        service shares one executor across requests and concurrent
        fan-outs, budgeted or not, overlap.
        """
        pattern.validate()
        watch = Stopwatch()
        if frozen is not None and not frozen.matches(graph):
            raise EvaluationError(
                f"stale frozen snapshot: {frozen!r} does not match "
                f"graph version {graph.version}"
            )
        if candidates is not None:
            candidate_source = "precomputed"
        else:
            candidate_source = "scan" if index is None else "index"
            candidates = candidates_from_index(graph, pattern, index)
        if frozen is None:
            frozen = FrozenGraph.freeze(graph)
        if oracle is not None and not oracle.compatible_with(frozen):
            raise EvaluationError(
                f"stale distance oracle: {oracle!r} does not match {frozen!r}"
            )
        shards = decompose(graph, pattern, candidates, self.workers, frozen=frozen)
        inline = self.workers == 1 or len(shards) <= 1
        payloads = self._shard_payloads(frozen, pattern, shards, candidates)
        guarded = budget is not None and budget.is_limited
        if guarded:
            budget.validate()
        guard_stats: dict[str, Any] = {}
        if inline:
            guard = QueryGuard(budget) if guarded else None
            results = [
                _shard_rows_core(frozen, oracle, guard, payload)
                for payload in payloads
            ]
            if guard is not None:
                guard_stats = _guard_summary(results, guard.visits)
        else:
            results, guard_stats = self._owned_map(
                frozen, payloads, oracle, budget if guarded else None
            )
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
            "candidate_source": candidate_source,
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

    def _owned_map(
        self,
        frozen: FrozenGraph,
        payloads: list[ShardPayload],
        oracle: DistanceOracle | None,
        budget: QueryBudget | None,
    ) -> tuple[list, dict[str, Any]]:
        """Fan shard work out over processes of this call's own.

        With a ``budget`` every child gets a guard around one fresh shared
        visit counter and, when the budget has a wall-clock limit, the
        call's absolute ``time.monotonic`` deadline (comparable across
        processes on Linux); at the deadline the children are killed and
        the pivots of unfinished shards merge as missing rows — a sound
        under-approximation.
        """
        shipped = self._ship(frozen, oracle)
        if budget is None:
            return self._fan_out(_shard_rows_core, (*shipped, None), payloads), {}
        counter = self._ctx.Value("q", 0)
        deadline = (
            None if budget.seconds is None else time.monotonic() + budget.seconds
        )
        guard = QueryGuard(budget, shared_counter=counter, deadline=deadline)
        results = self._fan_out(
            _shard_rows_core, (*shipped, guard), payloads, deadline
        )
        # Unlocked read: the children are gone, and one may have been
        # killed holding the counter's lock.
        visits = counter.get_obj().value
        aborted = len(results) < len(payloads)
        if aborted and not budget.allow_partial:
            raise BudgetExceededError(
                f"query exceeded its {GUARD_TIME_LIMIT} (visits={visits}, "
                f"budget={budget}); in-flight shard workers were cancelled"
            )
        return results, _guard_summary(
            results, visits, tripped=GUARD_TIME_LIMIT if aborted else None
        )

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
        """Evaluate whole queries across worker processes.

        Each task is ``(pattern, {pattern node: candidate-table key})``;
        ``table`` maps those keys (canonical predicate keys) to candidate
        sets computed once for the whole batch.  The graph, its frozen
        snapshot (when given — worker matchers then run the CSR kernels),
        the distance oracle (when given — worker matchers then route
        selective edges to label merges) and the table reach each worker
        once, as process arguments — inherited under fork; under spawn
        pickled, the snapshot without its attribute columns (worker
        matchers get candidates from the table) or as its backing file —
        so a task pickles only its pattern and a few keys.  Returns
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
        state = (graph, table, *self._ship(frozen, oracle), budget)
        return self._fan_out(_batch_query_core, state, tasks)

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
        process; the independent phase-two landmark chunks are fanned out
        to worker processes that receive the phase-one labels as their
        state and return flat entry triples.  Because phase-two pruning
        only ever consults the fixed phase-one labels, the resulting label
        arrays are byte-identical to a sequential
        :meth:`DistanceOracle.build` (asserted in ``tests/test_oracle.py``);
        workers only change the wall-clock.  With one worker everything
        runs inline.
        """
        if self.workers == 1:
            return DistanceOracle.build(frozen, cap=cap, top=top)
        return DistanceOracle.build(
            frozen, cap=cap, top=top, chunk_map=self._oracle_chunk_map
        )

    def _oracle_chunk_map(self, context: tuple, chunks: Sequence[Any]) -> list:
        """:func:`~repro.graph.oracle.phase_two_chunk` over ``chunks``."""
        if len(chunks) <= 1:
            return [phase_two_chunk(*context, chunk) for chunk in chunks]
        return self._fan_out(phase_two_chunk, context, chunks)
