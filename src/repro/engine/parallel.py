"""Parallel evaluation — worker processes for query batches and oracle builds.

One query always runs in one process: bounded simulation's removal
fixpoint is not local to any part of the graph, and on the measured inputs
a per-query split lost to the inline relation-first evaluator.  What does
parallelise is work made of independent pieces, and
:class:`ParallelExecutor` fans two such workloads out to
:mod:`multiprocessing` worker processes:

* :meth:`ParallelExecutor.match_many` — *per-batch* parallelism: farm whole
  (pattern, candidates) tasks out, one query per worker at a time, with
  the data graph handed to each worker once, as a process argument.
  ``tests/test_differential.py`` asserts that every farmed answer equals
  the sequential one byte for byte, over hundreds of seeded random graphs
  and patterns.
* :meth:`ParallelExecutor.build_oracle` — the independent phase-two
  landmark chunks of a :class:`~repro.graph.oracle.DistanceOracle` build.

Workers are separate processes; a speedup needs actual spare cores.  On a
single-core host the fan-outs still produce identical results, just with
fork/pickle overhead on top — ``benchmarks/bench_parallel_eval.py``
measures both situations honestly.
"""

from __future__ import annotations

import multiprocessing
from multiprocessing.connection import wait
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

from repro.engine.estimator import QueryBudget
from repro.engine.storage import load_frozen_file, load_oracle_file
from repro.errors import EvaluationError
from repro.graph.digraph import Graph, NodeId
from repro.graph.frozen import FrozenGraph
from repro.graph.oracle import DistanceOracle, phase_two_chunk
from repro.matching.base import MatchRelation
from repro.matching.bounded import match_bounded
from repro.matching.simulation import match_simulation
from repro.pattern.pattern import Pattern


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
    """Worker processes for batched evaluation and oracle builds.

    Every fan-out starts processes of its own and kills them before it
    returns; between calls the executor holds no process.  With
    ``workers=1`` everything runs inline — same code path, no processes —
    so callers can treat the executor as the one evaluation front end
    regardless of parallelism.

    >>> from repro.datasets.paper_example import paper_graph, paper_pattern
    >>> from repro.graph.index import predicate_key
    >>> from repro.matching.simulation import simulation_candidates
    >>> graph, pattern = paper_graph(), paper_pattern()
    >>> keys = {u: predicate_key(pattern.predicate(u)) for u in pattern.nodes()}
    >>> candidates = simulation_candidates(graph, pattern)
    >>> table = {keys[u]: candidates[u] for u in pattern.nodes()}
    >>> with ParallelExecutor(workers=2) as executor:
    ...     outcomes = executor.match_many(graph, [(pattern, keys)] * 2, table)
    >>> [sorted(relation.matches_of("SA")) for relation, _stats in outcomes]
    [['Bob', 'Walt'], ['Bob', 'Walt']]
    """

    def __init__(self, workers: int, start_method: str | None = None) -> None:
        self.workers = validate_workers(workers)
        self._ctx = multiprocessing.get_context(start_method)

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _fan_out(
        self,
        function: Callable[..., Any],
        state: tuple,
        tasks: Sequence[Any],
    ) -> list:
        """``[function(*state, task) for task in tasks]`` in processes of its own.

        Up to ``workers`` children get ``state`` as a ``Process`` argument
        (inherited under fork, pickled once each under spawn); each next
        task goes over its duplex pipe to whichever child answered last.
        Results come back in input order; a child's exception is re-raised
        as its own type, a child dying mid-task as :class:`EvaluationError`.
        Every child is killed and joined on return.
        """
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
                # A sibling forked by another thread may hold a copy of a
                # child's pipe end, so only the sentinel proves a death.
                ready = wait([*busy, *(p.sentinel for p in busy.values())])
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
