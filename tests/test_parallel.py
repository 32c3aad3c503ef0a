"""Unit tests for the parallel evaluation subsystem (`engine.parallel`).

The exhaustive parallel-vs-sequential equivalence lives in
tests/test_differential.py; this module covers the machinery itself:
worker validation, worker-process lifecycle, stats, engine routing, and
the facade.
"""

from __future__ import annotations

from os import _exit
from time import sleep

import pytest

from repro.engine.engine import QueryEngine
from repro.engine.parallel import ParallelExecutor, validate_workers
from repro.errors import EvaluationError
from repro.expfinder import ExpFinder
from repro.matching.bounded import BoundedState, match_bounded
from repro.matching.simulation import simulation_candidates
from repro.pattern.builder import PatternBuilder
from repro.pattern.parser import parse_pattern


class TestValidateWorkers:
    def test_none_means_sequential(self):
        assert validate_workers(None) == 1

    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_positive_integers_pass_through(self, workers):
        assert validate_workers(workers) == workers

    @pytest.mark.parametrize("workers", [0, -1, -10, 1.5, "2", True, False])
    def test_everything_else_raises(self, workers):
        with pytest.raises(EvaluationError, match="positive integer"):
            validate_workers(workers)


class TestExecutor:
    def test_match_parity_and_stats(self, fig1, fig1_query):
        sequential = match_bounded(fig1, fig1_query)
        with ParallelExecutor(workers=2) as executor:
            parallel = executor.match(fig1, fig1_query)
        assert parallel.relation == sequential.relation
        info = parallel.stats["parallel"]
        assert info["mode"] == "sharded-query"
        assert info["workers"] == 2
        assert info["shards"] == 2
        assert parallel.stats["algorithm"] == "bounded-simulation"
        assert parallel.stats["candidate_source"] == "scan"

    def test_result_carries_state(self, fig1, fig1_query):
        with ParallelExecutor(workers=2) as executor:
            result = executor.match(fig1, fig1_query)
        assert isinstance(result._state, BoundedState)
        result._state.check_invariants()
        assert result.result_graph().num_nodes > 0

    def test_single_worker_runs_inline(self, fig1, fig1_query):
        executor = ParallelExecutor(workers=1)
        result = executor.match(fig1, fig1_query)
        assert executor.pools_created == 0  # no processes were started
        assert result.relation == match_bounded(fig1, fig1_query).relation

    def test_fan_out_shares_the_graph(self, fig1, fig1_query):
        with ParallelExecutor(workers=2) as executor:
            result = executor.match(fig1, fig1_query)
        assert result.stats["parallel"]["shipping"] == "shared-graph"

    def test_close_is_idempotent(self, fig1, fig1_query):
        executor = ParallelExecutor(workers=2)
        executor.close()
        executor.close()
        # The executor holds no process between calls: nothing a later
        # call needs was released.
        result = executor.match(fig1, fig1_query)
        assert result.relation == match_bounded(fig1, fig1_query).relation

    def test_bad_workers_rejected_at_construction(self):
        with pytest.raises(EvaluationError, match="positive integer"):
            ParallelExecutor(workers=0)

    def test_match_many_parity(self, fig1, fig1_query):
        from repro.graph.index import predicate_key

        candidates = simulation_candidates(fig1, fig1_query)
        keys = {
            u: predicate_key(fig1_query.predicate(u)) for u in fig1_query.nodes()
        }
        table = {keys[u]: candidates[u] for u in fig1_query.nodes()}
        tasks = [(fig1_query, keys)] * 3
        with ParallelExecutor(workers=2) as executor:
            outcomes = executor.match_many(fig1, tasks, table)
        expected = match_bounded(fig1, fig1_query).relation
        assert [relation for relation, _stats in outcomes] == [expected] * 3
        assert all(stats["algorithm"] == "bounded-simulation" for _r, stats in outcomes)

    def test_match_many_empty(self, fig1):
        with ParallelExecutor(workers=2) as executor:
            assert executor.match_many(fig1, [], {}) == []

    def test_simulation_pattern_same_relation(self, diamond):
        pattern = (
            PatternBuilder("path")
            .node("A", 'label == "A"')
            .node("B", 'label == "B"')
            .edge("A", "B", 1)
            .build()
        )
        from repro.matching.simulation import match_simulation

        with ParallelExecutor(workers=2) as executor:
            result = executor.match(diamond, pattern)
        assert result.relation == match_simulation(diamond, pattern).relation
        assert result.stats["algorithm"] == "simulation"


class TestEngineWorkers:
    @pytest.fixture
    def engine(self, fig1):
        engine = QueryEngine()
        engine.register_graph("fig1", fig1)
        return engine

    def test_direct_route_parity(self, engine, fig1_query):
        sequential = engine.evaluate(
            "fig1", fig1_query, use_cache=False, cache_result=False
        )
        parallel = engine.evaluate(
            "fig1", fig1_query, use_cache=False, cache_result=False, workers=2
        )
        assert parallel.relation == sequential.relation
        assert parallel.stats["route"] == "direct"
        assert parallel.stats["parallel"]["workers"] == 2

    def test_parallel_result_is_cached(self, engine, fig1_query):
        engine.evaluate("fig1", fig1_query, workers=2)
        again = engine.evaluate("fig1", fig1_query, workers=2)
        assert again.stats["route"] == "cache"
        assert "parallel" not in again.stats

    def test_unknown_graph_still_names_registered_graphs(self, engine, fig1_query):
        with pytest.raises(EvaluationError, match="registered: fig1"):
            engine.evaluate("nope", fig1_query, workers=2)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_bad_workers_raise_before_evaluating(self, engine, fig1_query, workers):
        with pytest.raises(EvaluationError, match="positive integer"):
            engine.evaluate("fig1", fig1_query, workers=workers)
        with pytest.raises(EvaluationError, match="positive integer"):
            engine.evaluate_many("fig1", [fig1_query], workers=workers)

    def test_compressed_route_ignores_workers(self, engine, fig1_query):
        engine.compress_graph("fig1", ["field", "specialty", "experience"])
        result = engine.evaluate(
            "fig1", fig1_query, use_cache=False, cache_result=False, workers=2
        )
        assert result.stats["route"] == "compressed"
        sequential = engine.evaluate(
            "fig1",
            fig1_query,
            use_cache=False,
            use_compression=False,
            cache_result=False,
        )
        assert result.relation == sequential.relation

    def test_batch_workers_parity_and_dedup(self, engine, fig1_query):
        patterns = [fig1_query, fig1_query, fig1_query]
        results = engine.evaluate_many(
            "fig1", patterns, use_cache=False, cache_result=False, workers=2
        )
        expected = match_bounded(engine.graph("fig1"), fig1_query).relation
        assert [r.relation for r in results] == [expected] * 3
        # Only the first occurrence is farmed; repeats are batch-local reuse.
        assert results[0].stats["route"] == "direct"
        assert results[1].stats["route"] == "cache"
        assert results[0].stats["batch"]["workers"] == 2

    def test_single_query_batch_uses_sharded_parallelism(self, engine, fig1_query):
        results = engine.evaluate_many(
            "fig1", [fig1_query], use_cache=False, cache_result=False, workers=2
        )
        assert results[0].stats["parallel"]["mode"] == "sharded-query"
        # The evaluate_many contract holds on the delegated path too: every
        # result carries batch stats (the CLI reads them unconditionally).
        batch_info = results[0].stats["batch"]
        assert batch_info["size"] == 1
        assert batch_info["workers"] == 2
        assert batch_info["distinct_predicates"] == 4

    def test_engine_reuses_one_executor_per_worker_count(self, engine, fig1_query):
        engine.evaluate("fig1", fig1_query, use_cache=False, cache_result=False,
                        workers=2)
        first = engine._executors[2]
        engine.evaluate("fig1", fig1_query, use_cache=False, cache_result=False,
                        workers=2)
        assert engine._executors[2] is first
        engine.close()
        assert engine._executors == {}
        engine.close()  # idempotent
        # ...and the engine keeps working after close()
        result = engine.evaluate(
            "fig1", fig1_query, use_cache=False, cache_result=False, workers=2
        )
        assert result.is_match

    def test_farmed_result_graph_recomputes(self, engine, fig1_query):
        second = (
            PatternBuilder("pair")
            .node("SA", 'field == "SA"', output=True)
            .node("SD", 'field == "SD"')
            .edge("SA", "SD", 2)
            .build()
        )
        results = engine.evaluate_many(
            "fig1",
            [fig1_query, second],
            use_cache=False,
            cache_result=False,
            workers=2,
        )
        for result in results:
            assert result._state is None  # relations crossed a process border
            assert result.result_graph().num_nodes > 0


class TestFacadeWorkers:
    def test_match_and_match_many(self, fig1, fig1_query):
        finder = ExpFinder()
        finder.add_graph("g", fig1)
        sequential = finder.match("g", fig1_query, use_cache=False, cache_result=False)
        parallel = finder.match(
            "g", fig1_query, use_cache=False, cache_result=False, workers=2
        )
        assert parallel.relation == sequential.relation
        many = finder.match_many(
            "g", [fig1_query, fig1_query], use_cache=False, cache_result=False,
            workers=2,
        )
        assert [r.relation for r in many] == [sequential.relation] * 2


class TestPoolChurn:
    """Budgeted calls start worker processes of their own, like every
    fan-out: one visit counter per call, and no child left behind."""

    @pytest.fixture
    def selective_case(self):
        from repro.graph.digraph import Graph

        graph = Graph(name="selective")
        for index in range(40):
            graph.add_node(f"filler{index}", label="F")
        for which in ("1", "2"):
            graph.add_node(f"s{which}", label="S")
            graph.add_node(f"t{which}", label="T")
            graph.add_edge(f"s{which}", f"t{which}")
        pattern = (
            PatternBuilder("chain")
            .node("S", 'label == "S"')
            .node("T", 'label == "T"')
            .edge("S", "T", 1)
            .build()
        )
        return graph, pattern

    def test_time_limited_calls_use_owned_processes(self, selective_case):
        import multiprocessing

        from repro.engine.estimator import QueryBudget

        graph, pattern = selective_case
        timed = QueryBudget(node_visits=100_000, seconds=30.0, allow_partial=True)
        before = set(multiprocessing.active_children())
        with ParallelExecutor(workers=2) as executor:
            executor.match(graph, pattern, budget=timed)
            first = executor.pools_created
            executor.match(graph, pattern, budget=timed)
            # Each call starts its own processes and leaves none behind.
            assert executor.pools_created == first + 1
            assert set(multiprocessing.active_children()) <= before

    # This test and the next keep the names they had when node-budgeted
    # calls ran on a persistent pool.
    def test_blown_budget_raises_from_persistent_pool(self, selective_case):
        from repro.engine.estimator import QueryBudget
        from repro.errors import BudgetExceededError

        graph, pattern = selective_case
        strict = QueryBudget(node_visits=1, allow_partial=False)
        with ParallelExecutor(workers=2) as executor:
            with pytest.raises(BudgetExceededError):
                executor.match(graph, pattern, budget=strict)
            # ...and the executor remains usable afterwards
            result = executor.match(graph, pattern)
            assert sorted(result.relation.matches_of("S")) == ["s1", "s2"]

    def test_partial_degrades_on_persistent_pool(self, selective_case):
        from repro.engine.estimator import QueryBudget

        graph, pattern = selective_case
        tiny = QueryBudget(node_visits=1, allow_partial=True)
        with ParallelExecutor(workers=2) as executor:
            result = executor.match(graph, pattern, budget=tiny)
        assert result.stats["partial"]
        assert result.stats["guard"]

    def test_concurrent_node_budgets_count_their_own_visits(self, selective_case):
        """Two threads make node-budgeted calls through one executor at
        once: each gets the sequential relation and the visits of a call
        made alone, and a blown strict budget raises and leaves no child."""
        import multiprocessing
        import threading

        from repro.engine.estimator import QueryBudget
        from repro.errors import BudgetExceededError

        graph, pattern = selective_case
        budget = QueryBudget(node_visits=100_000, allow_partial=True)
        expected = match_bounded(graph, pattern).relation
        before = set(multiprocessing.active_children())
        with ParallelExecutor(workers=2) as executor:
            alone = executor.match(graph, pattern, budget=budget).stats["visits"]
            assert alone > 0
            start = threading.Barrier(2)
            outcomes: list = []
            errors: list = []

            def work():
                try:
                    start.wait(timeout=60)
                    for _ in range(3):
                        outcomes.append(executor.match(graph, pattern, budget=budget))
                except BaseException as exc:  # surfaced by the assert below
                    errors.append(exc)

            threads = [threading.Thread(target=work) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == [] and len(outcomes) == 6
            for result in outcomes:
                assert result.relation == expected
                assert not result.stats["partial"]
                assert result.stats["visits"] == alone
            strict = QueryBudget(node_visits=1, allow_partial=False)
            with pytest.raises(BudgetExceededError):
                executor.match(graph, pattern, budget=strict)
        assert set(multiprocessing.active_children()) <= before


    def test_guarded_worker_entry_inline(self, selective_case):
        """Drive a guarded call's worker entry in-process.

        Real children are invisible to coverage; running the child loop
        over a pipe in a thread proves the guard travels as process state:
        each shard charges the call's shared counter, and the same entry
        without a guard reports no guard info.
        """
        import multiprocessing
        import threading

        from repro.engine import parallel as par
        from repro.engine.estimator import QueryBudget, QueryGuard
        from repro.graph.frozen import FrozenGraph
        from repro.graph.partition import decompose

        graph, pattern = selective_case
        frozen = FrozenGraph.freeze(graph)
        candidates = simulation_candidates(graph, pattern)
        shards = decompose(graph, pattern, candidates, 2, frozen=frozen)
        payloads = ParallelExecutor._shard_payloads(
            frozen, pattern, shards, candidates
        )
        counter = multiprocessing.get_context().Value("q", 0)
        guard = QueryGuard(
            QueryBudget(node_visits=100_000, allow_partial=True),
            shared_counter=counter,
        )

        def serve(guard):
            parent, child = multiprocessing.Pipe()
            worker = threading.Thread(
                target=par._serve_tasks,
                args=(child, par._shard_rows_core, (frozen, None, guard)),
            )
            worker.start()
            try:
                replies = []
                for index, payload in enumerate(payloads):
                    parent.send((index, payload))
                    assert parent.poll(10)
                    answer, ok, value = parent.recv()
                    assert (answer, ok) == (index, True)
                    replies.append(value)
                return replies
            finally:
                parent.close()
                worker.join(timeout=10)
                child.close()

        guarded = serve(guard)
        # One child's guard counts across the tasks it serves.
        assert counter.value == guarded[-1][1]["visits"] > 0
        plain = serve(None)
        assert [rows for rows, _ in plain] == [rows for rows, _ in guarded]
        assert all(info == {} for _, info in plain)


class TestStateHasOneOwner:
    """Worker state is a process argument: no fan-out writes process-wide
    state, so threads overlap; fork and spawn run the same task functions,
    and a call's worker processes do not outlive it."""

    @pytest.fixture
    def case(self):
        from repro.graph.generators import collaboration_graph
        from repro.pattern.parser import parse_pattern

        graph = collaboration_graph(300, seed=5)
        pattern = parse_pattern(
            """
            node SA* : field == "SA"
            node SD  : field == "SD"
            node ST  : field == "ST"
            edge SA -> SD : 2
            edge SD -> ST : 2
            edge ST -> SA : 3
            """
        )
        expected = match_bounded(graph, pattern).relation
        assert not expected.is_empty
        return graph, pattern, expected

    # The ids are historical: ``warmed`` ran every call on the persistent
    # pool, which served node-budgeted calls; that route now starts
    # processes of its own around a fresh visit counter per call.
    @pytest.mark.parametrize("budgeted", [False, True], ids=["cold", "warmed"])
    def test_threads_share_one_executor(self, case, budgeted):
        """Eight threads (four per core here) fan out through one executor
        at once — unbudgeted, or each call under a node budget that never
        trips — and every one gets the sequential relation, each call from
        worker processes of its own."""
        import sys
        import threading

        from repro.engine.estimator import QueryBudget
        from repro.graph.frozen import FrozenGraph

        graph, pattern, expected = case
        frozen = FrozenGraph.freeze(graph)
        threads_n, rounds = 8, 3
        relations: list = []
        errors: list = []
        start = threading.Barrier(threads_n)
        budget = QueryBudget(node_visits=10**9) if budgeted else None

        def work(executor):
            try:
                start.wait(timeout=60)
                for _ in range(rounds):
                    result = executor.match(
                        graph, pattern, frozen=frozen, budget=budget
                    )
                    assert result.stats["parallel"]["shipping"] == "shared-graph"
                    relations.append(result.relation.to_dict())
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        with ParallelExecutor(workers=2) as executor:
            assert not hasattr(executor, "_match_serial")
            executor.match(graph, pattern, frozen=frozen)  # imports settled
            created = executor.pools_created
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [
                    threading.Thread(target=work, args=(executor,))
                    for _ in range(threads_n)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
            finally:
                sys.setswitchinterval(interval)
            assert errors == []
            assert relations == [expected.to_dict()] * (threads_n * rounds)
            # One worker set per call, and no lost update on the counter.
            assert executor.pools_created == created + threads_n * rounds

    def test_parent_installs_no_worker_state(self, case, monkeypatch):
        """The module keeps no mutable state for its workers, and no kind
        of fan-out leaves a worker process behind."""
        import multiprocessing

        from repro.engine import parallel as par
        from repro.engine.estimator import QueryBudget
        from repro.graph import oracle as oracle_module
        from repro.graph.frozen import FrozenGraph
        from repro.graph.index import predicate_key

        graph, pattern, expected = case
        frozen = FrozenGraph.freeze(graph)
        keys = {u: predicate_key(pattern.predicate(u)) for u in pattern.nodes()}
        candidates = simulation_candidates(graph, pattern)
        table = {keys[u]: candidates[u] for u in pattern.nodes()}
        monkeypatch.setattr("repro.graph.oracle.PHASE_TWO_CHUNK", 64)
        before = set(multiprocessing.active_children())
        with ParallelExecutor(workers=2) as executor:
            executor.match(graph, pattern, frozen=frozen)
            assert set(multiprocessing.active_children()) <= before
            executor.match(
                graph, pattern, frozen=frozen,
                budget=QueryBudget(seconds=60.0, allow_partial=True),
            )
            assert set(multiprocessing.active_children()) <= before
            executor.match_many(graph, [(pattern, keys)] * 3, table, frozen=frozen)
            assert set(multiprocessing.active_children()) <= before
            executor.build_oracle(frozen, top=4)
            assert set(multiprocessing.active_children()) <= before
            executor.match(
                graph, pattern, frozen=frozen,
                budget=QueryBudget(node_visits=10**9),
            )
            assert set(multiprocessing.active_children()) <= before
        with ParallelExecutor(workers=1) as inline:
            inline.match(graph, pattern, budget=QueryBudget(node_visits=10**9))
        assert not [
            name for name, value in vars(par).items()
            if not name.startswith("__") and isinstance(value, (dict, list, set))
        ]
        assert not hasattr(oracle_module, "_build_context")

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_every_fanout_under_both_start_methods(
        self, case, start_method, monkeypatch
    ):
        """match (unbudgeted, timed, node-budgeted), match_many and
        build_oracle give the sequential answer under fork and under spawn,
        through the same task functions."""
        import multiprocessing

        from repro.engine.estimator import QueryBudget
        from repro.graph.frozen import FrozenGraph
        from repro.graph.index import predicate_key
        from repro.graph.oracle import DistanceOracle

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} is not available on this platform")
        graph, pattern, expected = case
        frozen = FrozenGraph.freeze(graph)
        oracle = DistanceOracle.build(frozen, top=4)
        used: list[str] = []
        real_fan_out = ParallelExecutor._fan_out

        def recording_fan_out(self, function, state, tasks, deadline=None):
            used.append(function.__name__)
            return real_fan_out(self, function, state, tasks, deadline)

        keys = {u: predicate_key(pattern.predicate(u)) for u in pattern.nodes()}
        candidates = simulation_candidates(graph, pattern)
        table = {keys[u]: candidates[u] for u in pattern.nodes()}

        monkeypatch.setattr(ParallelExecutor, "_fan_out", recording_fan_out)
        # Small inputs must still fan out: several phase-two chunks.
        monkeypatch.setattr("repro.graph.oracle.PHASE_TWO_CHUNK", 64)
        with ParallelExecutor(workers=2, start_method=start_method) as executor:
            cold = executor.match(graph, pattern, frozen=frozen, oracle=oracle)
            timed = executor.match(
                graph, pattern, frozen=frozen, oracle=oracle,
                budget=QueryBudget(seconds=120.0),
            )
            counted = executor.match(
                graph, pattern, frozen=frozen, oracle=oracle,
                budget=QueryBudget(node_visits=10**9),
            )
            many = executor.match_many(
                graph, [(pattern, keys)] * 3, table, frozen=frozen, oracle=oracle
            )
            labels = executor.build_oracle(frozen, top=4)
        for result in (cold, timed, counted):
            assert result.relation.to_dict() == expected.to_dict()
        assert counted.stats["visits"] > 0
        assert [relation for relation, _stats in many] == [expected] * 3
        for attr in ("out_offsets", "out_hubs", "out_dists",
                     "in_offsets", "in_hubs", "in_dists"):
            assert getattr(labels, attr) == getattr(oracle, attr), attr
        # Same functions whatever the start method — there is no second path.
        assert used == [
            "_shard_rows_core",   # unbudgeted: processes of its own
            "_shard_rows_core",   # wall-clock budget: the same, with a deadline
            "_shard_rows_core",   # node budget: the same, with a counter
            "_batch_query_core",
            "phase_two_chunk",
        ]

    def test_task_functions_inline(self, case):
        """Drive each task function in-process (worker children are
        invisible to coverage) with the state a child receives — live or
        shipped — and the child loop itself over a pipe."""
        import multiprocessing
        import threading
        import time

        from repro.engine import parallel as par
        from repro.engine.estimator import QueryBudget, QueryGuard
        from repro.graph.frozen import FrozenGraph
        from repro.graph.index import predicate_key
        from repro.graph.partition import decompose

        graph, pattern, expected = case
        frozen = FrozenGraph.freeze(graph)
        candidates = simulation_candidates(graph, pattern)
        shards = decompose(graph, pattern, candidates, 2, frozen=frozen)
        payloads = ParallelExecutor._shard_payloads(frozen, pattern, shards, candidates)
        plain = [par._shard_rows_core(frozen, None, None, p) for p in payloads]
        assert all(info == {} for _rows, info in plain)
        shipped = par._shipment(frozen, None)
        assert [
            par._shard_rows_core(*shipped, None, p) for p in payloads
        ] == plain
        # One guard per worker, all around one shared counter.
        counter = multiprocessing.get_context().Value("q", 0)
        budget = QueryBudget(node_visits=10**9, seconds=60.0)
        deadline = time.monotonic() + 60.0
        guarded = [
            par._shard_rows_core(
                frozen, None,
                QueryGuard(budget, shared_counter=counter, deadline=deadline), p,
            )
            for p in payloads
        ]
        assert [rows for rows, _ in guarded] == [rows for rows, _ in plain]
        assert counter.value == sum(info["visits"] for _, info in guarded) > 0

        keys = {u: predicate_key(pattern.predicate(u)) for u in pattern.nodes()}
        table = {keys[u]: candidates[u] for u in pattern.nodes()}
        relation, stats = par._batch_query_core(
            graph, table, *shipped, None, (pattern, keys)
        )
        assert relation == expected and stats["algorithm"] == "bounded-simulation"

        # The child loop maps a shipped file once, when its first task
        # arrives, however many tasks follow.
        loads: list = []

        def load(path, expected_version):
            loads.append((path, expected_version))
            return frozen

        mapped = par._SnapshotFile("snapshot-file", graph.version, load)
        parent, child = multiprocessing.Pipe()
        worker = threading.Thread(
            target=par._serve_tasks,
            args=(child, par._batch_query_core, (graph, table, mapped, None, None)),
        )
        worker.start()
        try:
            for index in range(3):
                parent.send((index, (pattern, keys)))
                assert parent.poll(10)
                answer, ok, (relation, _stats) = parent.recv()
                assert (answer, ok, relation) == (index, True, expected)
            assert loads == [("snapshot-file", graph.version)]
            parent.send((3, (pattern, {u: ("no", "such", "key") for u in keys})))
            assert parent.poll(10)  # the task raises
            index, ok, error = parent.recv()
            assert (index, ok) == (3, False) and isinstance(error, KeyError)
        finally:
            parent.close()
            worker.join(timeout=10)
        assert not worker.is_alive()
        child.close()


class TestOwnedProcesses:
    """A fan-out's worker processes belong to the call: results in input
    order, a worker's error re-raised with its type, a dead worker a
    typed error instead of a hang, and never a child left behind."""

    @pytest.fixture(params=["fork", "spawn"])
    def executor(self, request):
        import multiprocessing

        if request.param not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{request.param} is not available on this platform")
        with ParallelExecutor(workers=2, start_method=request.param) as executor:
            yield executor

    def test_results_come_back_in_input_order(self, executor):
        import multiprocessing

        before = set(multiprocessing.active_children())
        texts = [f'node N{i}: label == "x"' for i in range(7)]
        patterns = executor._fan_out(parse_pattern, (), texts)
        assert [list(pattern.nodes()) for pattern in patterns] == [
            [f"N{i}"] for i in range(7)
        ]
        assert set(multiprocessing.active_children()) <= before

    def test_worker_error_keeps_its_type(self, executor):
        import multiprocessing

        from repro.errors import PatternError

        before = set(multiprocessing.active_children())
        with pytest.raises(PatternError):
            executor._fan_out(parse_pattern, (), ['node A: label == "x"', "((("])
        assert set(multiprocessing.active_children()) <= before

    def test_a_dead_worker_is_an_error_not_a_hang(self, executor):
        """A task that kills its own process: the call raises within
        seconds (a ``Pool`` never returns from ``map`` here) and no
        worker survives it."""
        import multiprocessing
        import time

        before = set(multiprocessing.active_children())
        started = time.monotonic()
        with pytest.raises(EvaluationError, match="died mid-task"):
            executor._fan_out(_exit, (), [3, 3, 3])
        assert time.monotonic() - started < 30
        assert set(multiprocessing.active_children()) <= before

    def test_a_passed_deadline_returns_what_arrived(self, executor):
        import multiprocessing
        import time

        before = set(multiprocessing.active_children())
        started = time.monotonic()
        assert executor._fan_out(sleep, (), [60, 60], deadline=started + 0.2) == []
        assert time.monotonic() - started < 30
        assert set(multiprocessing.active_children()) <= before
