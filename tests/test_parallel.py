"""Unit tests for the parallel evaluation subsystem (`engine.parallel`).

The exhaustive parallel-vs-sequential equivalence lives in
tests/test_differential.py; this module covers the machinery itself:
worker validation, pool lifecycle, stats, engine routing, and the facade.
"""

from __future__ import annotations

import pytest

from repro.engine.engine import QueryEngine
from repro.engine.parallel import ParallelExecutor, validate_workers
from repro.errors import EvaluationError
from repro.expfinder import ExpFinder
from repro.matching.bounded import BoundedState, match_bounded
from repro.matching.simulation import simulation_candidates
from repro.pattern.builder import PatternBuilder


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
        assert executor._pool is None  # no processes were forked
        assert result.relation == match_bounded(fig1, fig1_query).relation

    def test_fan_out_shares_the_graph(self, fig1, fig1_query):
        with ParallelExecutor(workers=2) as executor:
            result = executor.match(fig1, fig1_query)
        assert result.stats["parallel"]["shipping"] == "shared-graph"

    def test_close_is_idempotent(self):
        executor = ParallelExecutor(workers=2).warm()
        assert executor._pool is not None
        executor.close()
        executor.close()
        assert executor._pool is None

    def test_pool_reused_across_matches(self, fig1, fig1_query):
        with ParallelExecutor(workers=2).warm() as executor:
            pool = executor._pool
            executor.match(fig1, fig1_query)
            executor.match(fig1, fig1_query)
            assert executor._pool is pool
            assert executor.pools_created == 1

    def test_bad_workers_rejected_at_construction(self):
        with pytest.raises(EvaluationError, match="positive integer"):
            ParallelExecutor(workers=0)

    def test_num_shards_override(self, fig1, fig1_query):
        with ParallelExecutor(workers=2) as executor:
            result = executor.match(fig1, fig1_query, num_shards=4)
        assert result.stats["parallel"]["shards"] == 4
        assert result.relation == match_bounded(fig1, fig1_query).relation

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
    """Guarded calls without a wall-clock limit must reuse the persistent
    pool — pool construction stays off the steady-state serving path."""

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

    def test_node_budget_calls_share_one_pool(self, selective_case):
        from repro.engine.estimator import QueryBudget

        graph, pattern = selective_case
        budget = QueryBudget(node_visits=100_000, allow_partial=True)
        sequential = match_bounded(graph, pattern, budget=budget)
        with ParallelExecutor(workers=2) as executor:
            for _ in range(3):
                result = executor.match(graph, pattern, budget=budget)
                assert result.relation == sequential.relation
                assert not result.stats["partial"]
                assert result.stats["visits"] > 0
            # The regression this guards: three guarded calls used to fork
            # three dedicated pools; now they share the persistent one.
            assert executor.pools_created == 1

    def test_time_limited_calls_use_dedicated_pools(self, selective_case):
        from repro.engine.estimator import QueryBudget

        graph, pattern = selective_case
        timed = QueryBudget(node_visits=100_000, seconds=30.0, allow_partial=True)
        with ParallelExecutor(workers=2) as executor:
            executor.match(graph, pattern, budget=timed)
            first = executor.pools_created
            executor.match(graph, pattern, budget=timed)
            # A wall-clock limit may need mid-flight termination, which
            # would destroy a shared pool — each call pays its own.
            assert executor.pools_created == first + 1

    def test_persistent_pool_survives_guarded_use(self, selective_case):
        from repro.engine.estimator import QueryBudget

        graph, pattern = selective_case
        budget = QueryBudget(node_visits=100_000, allow_partial=True)
        with ParallelExecutor(workers=2).warm() as executor:
            executor.match(graph, pattern)  # unguarded, task-shipped
            pool = executor._pool
            executor.match(graph, pattern, budget=budget)
            assert executor._pool is pool
            executor.match(graph, pattern)
            assert executor._pool is pool

    def test_warm_builds_pool_before_first_call(self, selective_case):
        graph, pattern = selective_case
        with ParallelExecutor(workers=2) as executor:
            assert executor._pool is None
            executor.warm()
            assert executor._pool is not None
            assert executor.pools_created == 1
            executor.match(graph, pattern)
            assert executor.pools_created == 1
        # workers=1 has nothing to warm (inline evaluation)
        inline = ParallelExecutor(workers=1).warm()
        assert inline._pool is None

    def test_blown_budget_raises_from_persistent_pool(self, selective_case):
        from repro.engine.estimator import QueryBudget
        from repro.errors import BudgetExceededError

        graph, pattern = selective_case
        strict = QueryBudget(node_visits=1, allow_partial=False)
        with ParallelExecutor(workers=2) as executor:
            with pytest.raises(BudgetExceededError):
                executor.match(graph, pattern, budget=strict)
            # ...and the pool remains usable afterwards
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

    def test_guarded_worker_entry_inline(self, selective_case):
        """Drive the persistent-pool worker function in-process.

        The real pool runs it in forked children (invisible to coverage);
        calling it inline proves the task tuple round-trips: shipped
        snapshot resolution, guard construction around the installed
        counter, and the shard kernel.
        """
        import multiprocessing

        from repro.engine import parallel as par
        from repro.engine.estimator import QueryBudget
        from repro.graph.frozen import FrozenGraph
        from repro.matching.simulation import simulation_candidates

        graph, pattern = selective_case
        frozen = FrozenGraph.freeze(graph)
        candidates = simulation_candidates(graph, pattern)
        from repro.graph.partition import decompose

        shards = decompose(graph, pattern, candidates, 2, frozen=frozen)
        payload = ParallelExecutor._shard_payloads(
            frozen, pattern, shards, candidates
        )[0]
        counter = multiprocessing.get_context().Value("q", 0)
        par._init_persistent_worker(counter)
        try:
            budget = QueryBudget(node_visits=100_000, allow_partial=True)
            rows, info = par._shard_rows_shipped(
                (payload, frozen.without_attrs(), None, budget)
            )
            assert counter.value > 0
            assert info["visits"] == counter.value
            assert rows
            # The same task function serves unguarded calls: no budget in
            # the task, no guard, the counter stays where it was.
            charged = counter.value
            unguarded_rows, info = par._shard_rows_shipped(
                (payload, frozen.without_attrs(), None, None)
            )
            assert unguarded_rows == rows and info == {}
            assert counter.value == charged
        finally:
            par._init_persistent_worker(None)

    def test_load_memo_bounded(self, tmp_path):
        """Worker-side snapshot memo caps its slots instead of growing."""
        from repro.engine import parallel as par
        from repro.engine.storage import write_frozen_file
        from repro.graph.digraph import Graph
        from repro.graph.frozen import FrozenGraph

        graph = Graph(name="memo")
        graph.add_node("a", label="A")
        frozen = FrozenGraph.freeze(graph)
        paths = []
        for index in range(par._PERSISTENT_LOAD_SLOTS + 1):
            path = tmp_path / f"m{index}.frozen.snap"
            write_frozen_file(path, frozen)
            paths.append(path)
        par._persistent_loads.clear()
        try:
            for path in paths:
                resolved, _ = par._resolve_shipped(path, None)
                assert resolved.num_nodes == 1
            assert len(par._persistent_loads) <= par._PERSISTENT_LOAD_SLOTS
            # A memo hit returns the same object, no reload
            again, _ = par._resolve_shipped(paths[-1], None)
            assert again is resolved
        finally:
            par._persistent_loads.clear()


class TestStateHasOneOwner:
    """Worker state is a pool argument: no fan-out writes process-wide
    state, so threads overlap; fork and spawn run the same initializers."""

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

    @pytest.mark.parametrize("warmed", [False, True], ids=["cold", "warmed"])
    def test_threads_share_one_executor(self, case, warmed):
        """Eight threads (four per core here) fan out through one executor
        at once — cold: a dedicated pool each; warmed: tasks interleaved on
        the persistent pool — and every one gets the sequential relation."""
        import sys
        import threading

        from repro.graph.frozen import FrozenGraph

        graph, pattern, expected = case
        frozen = FrozenGraph.freeze(graph)
        threads_n, rounds = 8, 3
        relations: list = []
        errors: list = []
        start = threading.Barrier(threads_n)

        def work(executor):
            try:
                start.wait(timeout=60)
                for _ in range(rounds):
                    result = executor.match(graph, pattern, frozen=frozen)
                    assert result.stats["parallel"]["shipping"] == "shared-graph"
                    relations.append(result.relation.to_dict())
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        with ParallelExecutor(workers=2) as executor:
            assert not hasattr(executor, "_match_serial")
            if warmed:
                executor.warm()
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
            # No lost update on the pool counter, no pool built by accident.
            grown = 0 if warmed else threads_n * rounds
            assert executor.pools_created == created + grown

    def test_parent_installs_no_worker_state(self, case, monkeypatch):
        """After every kind of fan-out the module's worker slots are as an
        import left them: only pool initializers (in the children) write."""
        from repro.engine import parallel as par
        from repro.engine.estimator import QueryBudget
        from repro.graph.frozen import FrozenGraph
        from repro.ranking.topk import RankingContext

        graph, pattern, expected = case
        frozen = FrozenGraph.freeze(graph)
        slots = ("_shard_state", "_batch_state", "_rank_state", "_persistent_counter")
        monkeypatch.setattr("repro.graph.oracle.PHASE_TWO_CHUNK", 64)
        monkeypatch.setattr(ParallelExecutor, "RANK_FANOUT_THRESHOLD", 1)
        with ParallelExecutor(workers=2) as executor:
            result = executor.match(graph, pattern, frozen=frozen)
            executor.match(
                graph, pattern, frozen=frozen,
                budget=QueryBudget(seconds=60.0, allow_partial=True),
            )
            executor.match(
                graph, pattern, frozen=frozen,
                budget=QueryBudget(node_visits=10**9),
            )
            executor.rank_many(
                RankingContext(result.result_graph()), None,
                sorted(expected.matches_of("SA")),
            )
            executor.build_oracle(frozen, top=4)
        with ParallelExecutor(workers=1) as inline:
            inline.match(graph, pattern, budget=QueryBudget(node_visits=10**9))
        assert [getattr(par, slot) for slot in slots] == [None] * len(slots)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_every_fanout_under_both_start_methods(
        self, case, start_method, monkeypatch
    ):
        """match (cold, timed, node-budgeted, warmed), match_many, rank_many
        and build_oracle give the sequential answer under fork and under
        spawn, through the same initializer functions."""
        import multiprocessing

        from repro.engine.estimator import QueryBudget
        from repro.graph.frozen import FrozenGraph
        from repro.graph.index import predicate_key
        from repro.graph.oracle import DistanceOracle
        from repro.ranking.topk import RankingContext, bulk_top_k_detail

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} is not available on this platform")
        graph, pattern, expected = case
        frozen = FrozenGraph.freeze(graph)
        oracle = DistanceOracle.build(frozen, top=4)
        used: list[str] = []
        real_pool = ParallelExecutor._dedicated_pool

        def recording_pool(self, initializer, initargs):
            used.append(initializer.__name__)
            return real_pool(self, initializer=initializer, initargs=initargs)

        keys = {u: predicate_key(pattern.predicate(u)) for u in pattern.nodes()}
        candidates = simulation_candidates(graph, pattern)
        table = {keys[u]: candidates[u] for u in pattern.nodes()}
        nodes = sorted(expected.matches_of("SA"))
        reference = RankingContext(match_bounded(graph, pattern).result_graph())
        ranked = bulk_top_k_detail(reference, len(nodes))

        monkeypatch.setattr(ParallelExecutor, "_dedicated_pool", recording_pool)
        # Small inputs must still fan out: several phase-two chunks, and
        # no inline shortcut for a short ranking.
        monkeypatch.setattr("repro.graph.oracle.PHASE_TWO_CHUNK", 64)
        monkeypatch.setattr(ParallelExecutor, "RANK_FANOUT_THRESHOLD", 1)
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
            warm = executor.match(graph, pattern, frozen=frozen, oracle=oracle)
            many = executor.match_many(
                graph, [(pattern, keys)] * 3, table, frozen=frozen, oracle=oracle
            )
            context = RankingContext(cold.result_graph())
            details = executor.rank_many(context, None, nodes)
            labels = executor.build_oracle(frozen, top=4)
        for result in (cold, timed, counted, warm):
            assert result.relation.to_dict() == expected.to_dict()
        assert [relation for relation, _stats in many] == [expected] * 3
        assert sorted(details, key=lambda d: (d.rank, str(d.node))) == sorted(
            ranked, key=lambda d: (d.rank, str(d.node))
        )
        for attr in ("out_offsets", "out_hubs", "out_dists",
                     "in_offsets", "in_hubs", "in_dists"):
            assert getattr(labels, attr) == getattr(oracle, attr), attr
        # Same functions whatever the start method — there is no second path.
        assert used == [
            "_init_shard_worker",   # cold dedicated pool
            "_init_shard_worker",   # wall-clock route (kill-the-pool)
            "_init_batch_worker",
            "_init_rank_worker",
            "set_build_context",
        ]

    def test_initializers_and_task_functions_inline(self, case):
        """Drive each initializer + task function pair in-process (pool
        children are invisible to coverage): what the initializer installs
        is exactly what the task function computes over."""
        import multiprocessing
        import time

        from repro.engine import parallel as par
        from repro.engine.estimator import QueryBudget
        from repro.graph.frozen import FrozenGraph
        from repro.graph.index import predicate_key
        from repro.graph.partition import decompose
        from repro.ranking.topk import RankingContext

        graph, pattern, expected = case
        frozen = FrozenGraph.freeze(graph)
        candidates = simulation_candidates(graph, pattern)
        shards = decompose(graph, pattern, candidates, 2, frozen=frozen)
        payloads = ParallelExecutor._shard_payloads(frozen, pattern, shards, candidates)
        try:
            par._init_shard_worker(frozen, None)
            plain = [par._shard_rows(payload) for payload in payloads]
            assert all(info == {} for _rows, info in plain)
            counter = multiprocessing.get_context().Value("q", 0)
            budget = QueryBudget(node_visits=10**9, seconds=60.0)
            par._init_shard_worker(
                frozen, None, (budget, counter, time.monotonic() + 60.0)
            )
            guarded = [par._shard_rows(payload) for payload in payloads]
            assert [rows for rows, _ in guarded] == [rows for rows, _ in plain]
            assert counter.value == sum(info["visits"] for _, info in guarded) > 0

            keys = {u: predicate_key(pattern.predicate(u)) for u in pattern.nodes()}
            table = {keys[u]: candidates[u] for u in pattern.nodes()}
            par._init_batch_worker(graph, table, frozen, None, None)
            relation, stats = par._batch_query((pattern, keys))
            assert relation == expected and stats["algorithm"] == "bounded-simulation"

            context = RankingContext(match_bounded(graph, pattern).result_graph())
            nodes = sorted(expected.matches_of("SA"))[:5]
            par._init_rank_worker(context, None)
            assert par._rank_chunk(nodes) == [context.detail(v) for v in nodes]
        finally:
            par._shard_state = par._batch_state = par._rank_state = None
