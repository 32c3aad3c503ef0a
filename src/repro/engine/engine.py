"""The query engine: evaluation, ranking, caching, updates, compression.

This is the composition root of the reproduction — the module that makes
Fig. 2's architecture concrete.  A :class:`QueryEngine` owns named data
graphs and, per graph, optionally a compressed form and a set of *pinned*
queries.  Evaluation follows §II's flow: cached result → compressed graph
(when the query is compatible) → direct evaluation, with the algorithm
picked by the planner; updates flow through the incremental module for
every pinned query and through partition maintenance for the compression.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import CompressionError, EvaluationError, StorageError
from repro.graph.digraph import Graph, NodeId
from repro.graph.frozen import FrozenGraph
from repro.graph.index import AttributeIndex, batch_candidates, predicate_key
from repro.compression.compress import CompressedGraph, compress
from repro.compression.decompress import decompress_result
from repro.compression.maintain import MaintainedCompression
from repro.engine.cache import CacheEntry, QueryCache, RankCache, cache_key
from repro.engine.estimator import QueryBudget, estimate_pattern
from repro.engine.planner import (
    ALGORITHM_BOUNDED,
    ALGORITHM_SIMULATION,
    ROUTE_CACHE,
    ROUTE_COMPRESSED,
    ROUTE_DIRECT,
    Plan,
    make_plan,
    route_edge,
)
from repro.graph.oracle import DistanceOracle
from repro.engine.parallel import ParallelExecutor, validate_workers
from repro.engine.storage import GraphStore
from repro.incremental.inc_bounded import IncrementalBoundedSimulation
from repro.incremental.inc_simulation import IncrementalSimulation
from repro.incremental.updates import EdgeDeletion, EdgeInsertion, Update, decompose
from repro.matching.base import MatchRelation, MatchResult, Stopwatch
from repro.matching.bounded import match_bounded
from repro.matching.result_graph import build_result_graph
from repro.matching.simulation import match_simulation
from repro.pattern.pattern import Pattern
from repro.ranking.metrics import RankingMetric, get_metric
from repro.ranking.social_impact import RankedMatch
from repro.ranking.topk import (
    RankingContext,
    bulk_top_k_detail,
    bulk_top_k_scores,
    validate_k,
)


#: Lifecycle counters the engine keeps for its graphs' frozen snapshots
#: (which add ``patches``) and for their oracles (which add ``refreshes``).
_ARTEFACT_COUNTERS = (
    "hits", "misses", "invalidations", "builds", "fault_ins", "fault_in_errors",
)


class RegisteredGraph:
    """A named data graph plus its per-graph engine artefacts.

    Everything derived from the graph — the fields below and the graph's
    query- and rank-cache entries — is exact for ``synced_version``, the
    one ``Graph.version`` stamp of the record; ``QueryEngine._entry``
    compares it and ``update_graph`` advances it.
    """

    __slots__ = (
        "name", "graph", "synced_version", "compression", "attr_index",
        "oracle_config", "frozen", "pending", "oracle",
    )

    def __init__(self, name: str, graph: Graph) -> None:
        self.name = name
        self.graph = graph
        self.synced_version = graph.version
        self.compression: MaintainedCompression | CompressedGraph | None = None
        # Attribute postings build lazily on first use, so registration is
        # free; the engine keeps them consistent through update_graph().
        self.attr_index = AttributeIndex(graph)
        # Distance-oracle build parameters ({"cap": ..., "top": ...}), or
        # None while disabled.
        self.oracle_config: dict[str, Any] | None = None
        # The graph's one CSR snapshot, built on the first direct evaluation
        # and shared by every traversal kernel (matchers, batch workers),
        # and the primitives update_graph applied since:
        # the next use patches them in (FrozenGraph.patched).
        self.frozen: FrozenGraph | None = None
        self.pending: list[Update] = []
        # The graph's one distance oracle (landmark labels over a snapshot):
        # kept across distance-preserving update batches, anything else
        # drops the labels and the next bounded evaluation rebuilds them.
        self.oracle: DistanceOracle | None = None

    def compressed(self) -> CompressedGraph | None:
        """The current compressed form, if any."""
        if isinstance(self.compression, MaintainedCompression):
            return self.compression.compressed()
        return self.compression


class QueryEngine:
    """ExpFinder's query engine.

    >>> from repro.datasets.paper_example import paper_graph, paper_pattern
    >>> engine = QueryEngine()
    >>> engine.register_graph("fig1", paper_graph())
    >>> result = engine.evaluate("fig1", paper_pattern())
    >>> sorted(result.relation.matches_of("SA"))
    ['Bob', 'Walt']
    """

    def __init__(
        self, store: GraphStore | None = None, cache_capacity: int = 64
    ) -> None:
        self.store = store
        self._registered: dict[str, RegisteredGraph] = {}
        self._cache = QueryCache(capacity=cache_capacity)
        # Ranked results are cached separately: a RankingContext (snapshot
        # + memoized Dijkstra runs) is much heavier than a relation.
        self._rank_cache = RankCache()
        # Times _entry found a write that bypassed update_graph.
        self._resyncs = 0
        # What happened to the per-graph snapshots and oracles (the objects
        # themselves are fields of each RegisteredGraph).
        self._counters: dict[str, dict[str, int]] = {
            "snapshots": dict.fromkeys(_ARTEFACT_COUNTERS + ("patches",), 0),
            "oracles": dict.fromkeys(_ARTEFACT_COUNTERS + ("refreshes",), 0),
        }
        # One executor per worker count.  Every batch-farming and oracle
        # fan-out starts worker processes of its own per call (the
        # call's graph state is their process argument) and kills them
        # before returning, so an executor holds no process between calls.
        self._executors: dict[int, ParallelExecutor] = {}

    def _executor(self, workers: int) -> ParallelExecutor:
        executor = self._executors.get(workers)
        if executor is None:
            executor = self._executors[workers] = ParallelExecutor(workers)
        return executor

    def close(self) -> None:
        """Drop the engine's executors (idempotent; engine reusable)."""
        for executor in self._executors.values():
            executor.close()
        self._executors.clear()

    # ------------------------------------------------------------------
    # graph management
    # ------------------------------------------------------------------
    def register_graph(self, name: str, graph: Graph, replace: bool = False) -> None:
        """Make ``graph`` queryable under ``name``."""
        if name in self._registered and not replace:
            raise EvaluationError(f"graph {name!r} already registered")
        replaced = self._registered.get(name)
        if replaced is not None:
            self._drop_derived(replaced)
        self._registered[name] = RegisteredGraph(name, graph)

    def _drop_derived(self, entry: RegisteredGraph) -> None:
        """Forget everything computed from ``entry.graph`` (configs stay)."""
        self._drop_snapshot(entry)
        self._drop_oracle(entry)
        entry.compression = None
        self._cache.invalidate_graph(entry.name, keep_pinned=False)
        self._rank_cache.invalidate_graph(entry.name)
        entry.attr_index.refresh()

    def load_graph(self, name: str) -> Graph:
        """Register a graph from the file store (if not already loaded)."""
        if name in self._registered:
            return self._registered[name].graph
        if self.store is None:
            raise EvaluationError("engine has no file store configured")
        graph = self.store.load_graph(name)
        self.register_graph(name, graph)
        return graph

    def graph(self, name: str) -> Graph:
        return self._entry(name).graph

    def graphs(self) -> list[str]:
        return sorted(self._registered)

    def _entry(self, name: str) -> RegisteredGraph:
        """The record for ``name`` — the engine's one freshness check.

        Every public method resolves its graph here, so this is the only
        place ``Graph.version`` is compared with a stored stamp.  A
        mismatch means a write bypassed :meth:`update_graph`: no
        maintainer, partition or label saw it, so nothing derived survives
        — snapshot, oracle, compression (maintained or static), every
        query- and rank-cache entry of the graph (pinned or not), the
        attribute postings.  Pins and compression must be re-requested.
        """
        try:
            entry = self._registered[name]
        except KeyError:
            known = ", ".join(sorted(self._registered)) or "none"
            raise EvaluationError(
                f"unknown graph: {name!r} (registered: {known}; "
                "use register_graph() or load_graph() first)"
            ) from None
        if entry.synced_version != entry.graph.version:
            self._drop_derived(entry)
            entry.synced_version = entry.graph.version
            self._resyncs += 1
        return entry

    # ------------------------------------------------------------------
    # compression management
    # ------------------------------------------------------------------
    def compress_graph(
        self,
        name: str,
        attrs: Sequence[str],
        method: str = "bisimulation",
        maintained: bool = True,
    ) -> CompressedGraph:
        """Build (and keep) a compressed form of a registered graph.

        ``maintained=True`` keeps the partition synchronized through
        :meth:`update_graph`; maintained compression requires the
        bisimulation method (see ``compression.maintain`` for why).  A
        static one is dropped by the next update.  A write that bypasses
        :meth:`update_graph` drops either kind: call this again after it.
        """
        entry = self._entry(name)
        if maintained:
            if method != "bisimulation":
                raise CompressionError(
                    "maintained compression requires method='bisimulation'; "
                    "use maintained=False for simulation-equivalence compression"
                )
            entry.compression = MaintainedCompression(entry.graph, tuple(attrs))
        else:
            entry.compression = compress(entry.graph, tuple(attrs), method=method)
        compressed = entry.compressed()
        assert compressed is not None
        return compressed

    def drop_compression(self, name: str) -> None:
        self._entry(name).compression = None

    # ------------------------------------------------------------------
    # distance-oracle management
    # ------------------------------------------------------------------
    def enable_oracle(
        self, name: str, cap: int | None = None, top: int | None = None
    ) -> None:
        """Serve bounded reachability by landmark label merges.

        The oracle (:class:`~repro.graph.oracle.DistanceOracle`) is built
        lazily from the graph's frozen snapshot on the first bounded
        evaluation and kept until a structural update invalidates it;
        the planner's cost model then routes selective pattern edges to
        pairwise label merges instead of ball enumeration.  ``cap`` bounds
        the exact-distance depth (None — the default — covers every bound
        including ``'*'``); ``top`` tunes the sequential landmark prefix.
        """
        entry = self._entry(name)
        config = {"cap": cap, "top": top}
        if entry.oracle_config != config:
            entry.oracle_config = config
            # Held labels may have been built with other parameters.
            self._drop_oracle(entry)

    def disable_oracle(self, name: str) -> None:
        """Drop the oracle config and any held labels for ``name``."""
        entry = self._entry(name)
        entry.oracle_config = None
        self._drop_oracle(entry)

    def _drop_oracle(self, entry: RegisteredGraph) -> None:
        if entry.oracle is not None:
            entry.oracle = None
            self._counters["oracles"]["invalidations"] += 1

    def warm_oracle(self, name: str, workers: int | None = None) -> dict[str, Any]:
        """Build the enabled oracle now (instead of on first evaluation).

        Long-running deployments call this right after
        :meth:`enable_oracle` so the first query never pays the build;
        ``workers`` > 1 fans the phase-two label construction across the
        engine's worker processes.  Returns :meth:`oracle_stats` for the warm
        labels.  Raises :class:`EvaluationError` when the oracle is not
        enabled for ``name``.
        """
        entry = self._entry(name)
        if entry.oracle_config is None:
            raise EvaluationError(
                f"oracle not enabled for graph {name!r}; call enable_oracle() first"
            )
        self._oracle_for(entry, workers=validate_workers(workers))
        stats = self.oracle_stats(name)
        assert stats is not None
        return stats

    def oracle_stats(self, name: str) -> dict[str, Any] | None:
        """Build/label/query counters of the graph's oracle, or None.

        ``None`` means the oracle is disabled; an enabled-but-cold oracle
        reports ``{"state": "cold"}`` plus its configured parameters.
        """
        entry = self._entry(name)
        if entry.oracle_config is None:
            return None
        if entry.oracle is None:
            return {"state": "cold", **entry.oracle_config}
        stats = entry.oracle.stats()
        stats["state"] = "warm"
        return stats

    def _oracle_for(
        self, entry: RegisteredGraph, workers: int = 1
    ) -> DistanceOracle | None:
        """The graph's oracle: held, faulted in, or built.

        A persisted oracle file is tried before a rebuild and validated
        against ``Graph.version``; a stale or corrupt one only costs the
        rebuild, and one whose distance ``cap`` differs from the enabled
        config answers other bounds, so it is skipped.
        """
        config = entry.oracle_config
        if config is None:
            return None
        counters = self._counters["oracles"]
        if entry.oracle is not None:
            counters["hits"] += 1
            return entry.oracle
        counters["misses"] += 1
        oracle = None
        if self.store is not None:
            try:
                if self.store.has_oracle(entry.name):
                    oracle = self.store.load_oracle(
                        entry.name, expected_version=entry.graph.version
                    )
            except StorageError:
                counters["fault_in_errors"] += 1
            if oracle is not None and oracle.cap != config["cap"]:
                oracle = None
        if oracle is not None:
            counters["fault_ins"] += 1
        else:
            frozen = self._frozen_snapshot(entry)
            if workers > 1:
                oracle = self._executor(workers).build_oracle(
                    frozen, cap=config["cap"], top=config["top"]
                )
            else:
                oracle = DistanceOracle.build(
                    frozen, cap=config["cap"], top=config["top"]
                )
            counters["builds"] += 1
        entry.oracle = oracle
        return oracle

    # ------------------------------------------------------------------
    # attribute-index management
    # ------------------------------------------------------------------
    def attr_index_stats(self, name: str) -> dict[str, int]:
        return self._entry(name).attr_index.stats()

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def explain(
        self, name: str, pattern: Pattern, budget: QueryBudget | None = None
    ) -> Plan:
        """The plan :meth:`evaluate` would follow right now (no matching).

        Direct-route plans also report the frozen-snapshot and
        distance-oracle state, and — for bounded patterns on graphs with
        the oracle *enabled* — the per-edge kernel routing: which pattern
        edges the cost model sends to oracle-pairwise label merges,
        per-source BFS enumeration, or the bitset traversal, with the
        losing estimates alongside.  Kernel routing needs candidate
        cardinalities, so that one case runs the same (indexed) candidate
        generation evaluation would; with the oracle disabled, explain
        stays pure metadata and no graph work happens.

        With a ``budget``, direct bounded plans additionally run the
        sampling estimator over the frozen snapshot and report the
        per-edge frontier estimates next to the configured limits — what
        guarded evaluation would route from, and roughly how much of the
        budget the query looks set to spend.
        """
        entry = self._entry(name)
        key = cache_key(name, pattern)
        plan = self._plan_query(
            pattern,
            cached=key in self._cache,
            available=entry.compressed(),
        )
        if plan.route == ROUTE_DIRECT:
            # Read-only: explain must not build or fault in a snapshot.
            if entry.pending:
                note = (
                    f"frozen snapshot: warm ({len(entry.pending)} primitives "
                    "to patch on next use)"
                )
            elif entry.frozen is not None:
                note = (
                    "frozen snapshot: warm "
                    f"(graph version {entry.frozen.source_version})"
                )
            else:
                note = "frozen snapshot: cold (built on first direct evaluation)"
            notes = [note]
            edge_routes: tuple = ()
            if plan.algorithm == ALGORITHM_BOUNDED and pattern.num_edges:
                oracle_note, edge_routes = self._explain_kernels(entry, pattern)
                if oracle_note:
                    notes.append(oracle_note)
            if budget is not None and plan.algorithm == ALGORITHM_BOUNDED:
                budget.validate()
                notes.extend(self._explain_budget(entry, pattern, budget))
            plan = Plan(
                plan.route,
                plan.algorithm,
                plan.reasons + tuple(notes),
                edge_routes,
            )
        return plan

    def _explain_budget(
        self, entry: RegisteredGraph, pattern: Pattern, budget: QueryBudget
    ) -> list[str]:
        """Sampled cardinality estimates vs the configured limits."""
        from repro.matching.simulation import simulation_candidates

        visits = "unlimited" if budget.node_visits is None else str(budget.node_visits)
        seconds = "unlimited" if budget.seconds is None else f"{budget.seconds:g}s"
        lines = [
            f"budget: {visits} node visits, {seconds} wall clock "
            f"({'partial results allowed' if budget.allow_partial else 'hard failure on breach'})"
        ]
        if pattern.num_edges:
            frozen = self._frozen_snapshot(entry)
            ids = frozen.ids()
            candidates = simulation_candidates(
                entry.graph, pattern, index=entry.attr_index
            )
            candidate_ids = {
                u: frozenset(ids[v] for v in vs) for u, vs in candidates.items()
            }
            estimate = estimate_pattern(frozen, pattern, candidate_ids)
            lines.extend(f"estimate: {line}" for line in estimate.describe_lines())
        return lines

    def _explain_kernels(
        self, entry: RegisteredGraph, pattern: Pattern
    ) -> tuple[str, tuple]:
        """Oracle-state note plus per-edge kernel routes for ``explain``.

        Routing uses the held oracle's measured label profile when it
        is warm; a cold oracle routes every edge to the enumeration
        kernels, and the note says why.  With the oracle *disabled* no
        routes are computed at all — routing needs candidate
        cardinalities, and explain must not pay candidate generation for
        graphs that never opted into the oracle.
        """
        from repro.matching.bounded import FROZEN_BULK_DEPTH
        from repro.matching.simulation import simulation_candidates

        if entry.oracle_config is None:
            note = "distance oracle: disabled (enable_oracle() routes selective edges)"
            return note, ()
        if entry.oracle is not None:
            note = "distance oracle: warm"
            profile = entry.oracle.profile()
        else:
            note = (
                "distance oracle: cold (labels build on the first bounded "
                "evaluation; edges route to enumeration until then)"
            )
            profile = None
        candidates = simulation_candidates(
            entry.graph, pattern, index=entry.attr_index
        )
        num_nodes = entry.graph.num_nodes
        num_edges = entry.graph.num_edges
        routes = []
        for source, target, bound in pattern.edges():
            routes.append(
                route_edge(
                    (source, target),
                    bound,
                    len(candidates[source]),
                    len(candidates[target]),
                    num_nodes,
                    num_edges,
                    # kernel_costs owns the cap-coverage gate: an uncovered
                    # bound simply gets no oracle estimate.
                    profile,
                    bulk_depth=FROZEN_BULK_DEPTH,
                )
            )
        return note, tuple(routes)

    def _frozen_snapshot(self, entry: RegisteredGraph) -> FrozenGraph:
        """The graph's CSR snapshot: held, patched, faulted in, or built.

        A held snapshot behind the graph by ``entry.pending`` is patched
        with those primitives; where ``patched`` cannot (a node deletion,
        the value-pool bound) the graph is frozen in full.  With nothing
        held, a persisted snapshot file is tried before a freeze and
        validated against ``Graph.version``; a stale or corrupt one only
        costs the rebuild — a bad file can slow things down, never break
        them or change an answer.
        """
        counters = self._counters["snapshots"]
        if entry.frozen is not None and not entry.pending:
            counters["hits"] += 1
            return entry.frozen
        counters["misses"] += 1
        frozen = None
        if entry.frozen is not None:
            frozen = entry.frozen.patched(entry.graph, entry.pending)
            if frozen is not None:
                counters["patches"] += 1
        elif self.store is not None:
            try:
                if self.store.has_snapshot(entry.name):
                    frozen = self.store.load_snapshot(
                        entry.name, expected_version=entry.graph.version
                    )
            except StorageError:
                counters["fault_in_errors"] += 1
            if frozen is not None:
                counters["fault_ins"] += 1
        if frozen is None:
            frozen = FrozenGraph.freeze(entry.graph)
            counters["builds"] += 1
        entry.frozen, entry.pending = frozen, []
        return frozen

    def _drop_snapshot(self, entry: RegisteredGraph) -> None:
        entry.pending = []
        if entry.frozen is not None:
            entry.frozen = None
            self._counters["snapshots"]["invalidations"] += 1

    @staticmethod
    def _plan_query(
        pattern: Pattern,
        cached: bool,
        available: CompressedGraph | None,
        use_cache: bool = True,
        use_compression: bool = True,
    ) -> Plan:
        """The one :func:`make_plan` call site shared by every evaluate path.

        ``available`` is the single compression snapshot: it drives both
        availability and compatibility, so the plan can never describe two
        different compressed graphs.
        """
        return make_plan(
            pattern,
            cached=cached,
            compression_available=available is not None,
            compression_compatible=(
                available.is_compatible(pattern) if available is not None else False
            ),
            use_cache=use_cache,
            use_compression=use_compression,
        )

    @staticmethod
    def _stamp_stats(
        result: MatchResult,
        route: str,
        plan: Plan,
        name: str,
        entry: RegisteredGraph,
        seconds: float,
        batch: dict[str, Any] | None = None,
    ) -> None:
        stats: dict[str, Any] = {
            "route": route,
            "algorithm": plan.algorithm,
            "seconds": seconds,
            "plan": plan,
            "graph": name,
            "graph_version": entry.graph.version,
        }
        if batch is not None:
            stats["batch"] = batch
        result.stats.update(stats)

    def evaluate(
        self,
        name: str,
        pattern: Pattern,
        use_cache: bool = True,
        use_compression: bool = True,
        cache_result: bool = True,
        budget: QueryBudget | None = None,
    ) -> MatchResult:
        """Evaluate a pattern query following the §II route order.

        A ``budget`` (:class:`~repro.engine.estimator.QueryBudget`) guards
        direct bounded evaluation — the one route/algorithm combination
        that can run away (cache and compressed routes are cheap by
        construction; the quadratic simulation matcher is not guarded).  A
        blown
        budget raises :class:`~repro.errors.BudgetExceededError`, or with
        ``allow_partial=True`` returns a sound subset of the exact answer
        flagged ``stats["partial"] = True``.  Partial results are never
        cached.
        """
        pattern.validate()
        if budget is not None:
            budget.validate()
        entry = self._entry(name)
        watch = Stopwatch()
        key = cache_key(name, pattern)
        cached_entry: CacheEntry | None = (
            self._cache.get(key) if use_cache else None
        )
        available = entry.compressed()
        compressed = available if use_compression else None
        plan = self._plan_query(
            pattern,
            cached=cached_entry is not None,
            available=available,
            use_cache=use_cache,
            use_compression=use_compression,
        )

        result = self._dispatch_route(
            entry,
            pattern,
            plan,
            cached_relation=(
                cached_entry.relation if cached_entry is not None else None
            ),
            compressed=compressed,
            budget=budget,
        )

        self._stamp_stats(result, plan.route, plan, name, entry, watch.seconds())
        # A partial result is an artefact of this call's budget, not the
        # query's answer — caching it would serve an under-approximation
        # to unbudgeted callers.
        if (
            cache_result
            and plan.route != ROUTE_CACHE
            and not result.stats.get("partial")
        ):
            self._cache.put(key, result.relation)
        return result

    def evaluate_many(
        self,
        name: str,
        patterns: Sequence[Pattern],
        use_cache: bool = True,
        use_compression: bool = True,
        cache_result: bool = True,
        workers: int | None = None,
        budget: QueryBudget | None = None,
    ) -> list[MatchResult]:
        """Evaluate a batch of pattern queries, amortising shared work.

        A ``budget`` applies *per query* (fresh limits for each bounded
        direct-route pattern, sequentially and in workers alike);
        partial results are neither cached nor reused for identical
        queries later in the batch.

        All queries are planned up front; every *direct-route* query then
        draws its candidate sets from one shared pool computed once per
        distinct predicate (indexed where possible, a single scan for the
        rest) instead of each query re-scanning the graph.  Cache and
        compressed routes behave exactly as in :meth:`evaluate`, and a
        query repeated inside the batch reuses the relation computed
        earlier in the same call.  Returns one :class:`MatchResult` per
        pattern, in input order.

        ``workers`` > 1 parallelises the batch: each distinct direct-route
        query becomes one worker task (with its shared candidate
        sets precomputed here), so many small queries run concurrently;
        a single task runs inline.  Farmed results carry no
        refinement state (relations cross a process boundary); deriving a
        result graph from them recomputes witnesses on demand.

        >>> from repro.datasets.paper_example import paper_graph, paper_pattern
        >>> engine = QueryEngine()
        >>> engine.register_graph("fig1", paper_graph())
        >>> results = engine.evaluate_many("fig1", [paper_pattern(), paper_pattern()])
        >>> [sorted(r.relation.matches_of("SA")) for r in results]
        [['Bob', 'Walt'], ['Bob', 'Walt']]
        """
        entry = self._entry(name)
        patterns = list(patterns)
        for pattern in patterns:
            pattern.validate()
        workers = validate_workers(workers)
        if budget is not None:
            budget.validate()
        watch = Stopwatch()
        available = entry.compressed()
        compressed = available if use_compression else None

        planned: list[tuple[Pattern, tuple, Plan, CacheEntry | None]] = []
        direct_predicates: dict[tuple, Any] = {}
        for pattern in patterns:
            key = cache_key(name, pattern)
            cached_entry = (
                self._cache.get(key) if use_cache else None
            )
            plan = self._plan_query(
                pattern,
                cached=cached_entry is not None,
                available=available,
                use_cache=use_cache,
                use_compression=use_compression,
            )
            planned.append((pattern, key, plan, cached_entry))
            if plan.route == ROUTE_DIRECT:
                for pattern_node in pattern.nodes():
                    predicate = pattern.predicate(pattern_node)
                    direct_predicates.setdefault(predicate_key(predicate), predicate)

        shared = (
            batch_candidates(
                entry.graph, direct_predicates.values(), index=entry.attr_index
            )
            if direct_predicates
            else {}
        )

        def shared_candidates(pattern: Pattern) -> dict[str, set[NodeId]]:
            # The shared sets are handed over as-is: neither matcher
            # mutates its `candidates` argument (refine_simulation and
            # match_bounded both copy internally).
            return {
                u: shared[predicate_key(pattern.predicate(u))]
                for u in pattern.nodes()
            }

        # Per-batch parallelism: each distinct direct-route query becomes
        # one worker task carrying its precomputed candidate sets; cache and
        # compressed routes stay in this process.
        farmed: dict[tuple, tuple[MatchRelation, dict[str, Any]]] = {}
        if workers > 1:
            task_keys: list[tuple] = []
            tasks: list[tuple[Pattern, dict[str, tuple]]] = []
            seen_keys: set[tuple] = set()
            for pattern, key, plan, _cached_entry in planned:
                if plan.route == ROUTE_DIRECT and key not in seen_keys:
                    seen_keys.add(key)
                    task_keys.append(key)
                    tasks.append(
                        (
                            pattern,
                            {
                                u: predicate_key(pattern.predicate(u))
                                for u in pattern.nodes()
                            },
                        )
                    )
            bounded_tasks = any(
                not task_pattern.is_simulation_pattern for task_pattern, _keys in tasks
            )
            outcomes = self._executor(workers).match_many(
                entry.graph,
                tasks,
                shared,
                frozen=self._frozen_snapshot(entry) if tasks else None,
                oracle=(
                    self._oracle_for(entry, workers=workers)
                    if tasks and bounded_tasks
                    else None
                ),
                budget=budget,
            )
            farmed = dict(zip(task_keys, outcomes))

        results: list[MatchResult] = []
        fresh: dict[tuple, MatchRelation] = {}
        # One dict shared by every result; seconds_total is stamped once the
        # whole batch has run (per-result stamping would under-report it).
        batch_info: dict[str, Any] = {
            "size": len(patterns),
            "distinct_predicates": len(direct_predicates),
            "workers": workers,
        }
        for pattern, key, plan, cached_entry in planned:
            query_watch = Stopwatch()
            route = plan.route
            if route != ROUTE_CACHE and key in fresh:
                # An identical query appeared earlier in this batch; reuse
                # its relation and stamp a plan that says so (the original
                # plan's route was never executed for this query).
                result = MatchResult(entry.graph, pattern, fresh[key])
                route = ROUTE_CACHE
                plan = Plan(
                    ROUTE_CACHE,
                    plan.algorithm,
                    ("identical query already evaluated earlier in this batch",),
                )
            elif route == ROUTE_DIRECT and key in farmed:
                relation, worker_stats = farmed[key]
                result = MatchResult(
                    entry.graph, pattern, relation, stats=dict(worker_stats)
                )
            else:
                candidates = (
                    shared_candidates(pattern) if route == ROUTE_DIRECT else None
                )
                result = self._dispatch_route(
                    entry,
                    pattern,
                    plan,
                    cached_relation=(
                        cached_entry.relation if cached_entry is not None else None
                    ),
                    compressed=compressed,
                    candidates=candidates,
                    budget=budget,
                )
            self._stamp_stats(
                result,
                route,
                plan,
                name,
                entry,
                # Parent-side wall time is meaningless for a query that ran
                # in a worker process; keep the worker-measured seconds there.
                result.stats.get("seconds", query_watch.seconds())
                if key in farmed
                else query_watch.seconds(),
                batch=batch_info,
            )
            if route != ROUTE_CACHE and not result.stats.get("partial"):
                fresh[key] = result.relation
                if cache_result:
                    self._cache.put(key, result.relation)
            results.append(result)
        batch_info["seconds_total"] = watch.seconds()
        return results

    def _dispatch_route(
        self,
        entry: RegisteredGraph,
        pattern: Pattern,
        plan: Plan,
        cached_relation: MatchRelation | None,
        compressed: CompressedGraph | None,
        candidates: dict[str, set[NodeId]] | None = None,
        budget: QueryBudget | None = None,
    ) -> MatchResult:
        """Execute a plan's route — the one dispatch both evaluate paths use.

        ``budget`` guards the direct bounded route only: cache and
        compressed routes are cheap by construction, and the quadratic
        simulation matcher is not guarded.
        """
        if plan.route == ROUTE_CACHE:
            assert cached_relation is not None
            return MatchResult(entry.graph, pattern, cached_relation)
        if plan.route == ROUTE_COMPRESSED:
            # Quotient graphs are small by construction; freezing them
            # would cost more bookkeeping than the matcher saves.
            assert compressed is not None
            quotient_result = self._run_matcher(compressed.quotient, pattern, plan)
            return decompress_result(quotient_result, compressed)
        bounded = plan.algorithm != ALGORITHM_SIMULATION
        oracle = self._oracle_for(entry) if bounded else None
        return self._run_matcher(
            entry.graph,
            pattern,
            plan,
            index=None if candidates is not None else entry.attr_index,
            candidates=candidates,
            frozen=self._frozen_snapshot(entry),
            oracle=oracle,
            budget=budget,
        )

    @staticmethod
    def _run_matcher(
        graph: Graph,
        pattern: Pattern,
        plan: Plan,
        index: AttributeIndex | None = None,
        candidates: dict[str, set[NodeId]] | None = None,
        frozen: FrozenGraph | None = None,
        oracle: DistanceOracle | None = None,
        budget: QueryBudget | None = None,
    ) -> MatchResult:
        if plan.algorithm == ALGORITHM_SIMULATION:
            return match_simulation(
                graph, pattern, index=index, candidates=candidates, frozen=frozen
            )
        return match_bounded(
            graph,
            pattern,
            index=index,
            candidates=candidates,
            frozen=frozen,
            oracle=oracle,
            budget=budget,
        )

    # ------------------------------------------------------------------
    # ranking
    # ------------------------------------------------------------------
    def top_k(
        self,
        name: str,
        pattern: Pattern,
        k: int,
        metric: str | RankingMetric = "social-impact",
        use_rank_cache: bool = True,
        **evaluate_kwargs: Any,
    ) -> list[RankedMatch] | list[tuple[NodeId, float]]:
        """The K best experts for the pattern's output node.

        With the default paper metric the result is a list of rich
        :class:`RankedMatch` objects; other metrics return ``(node, score)``
        pairs (scores normalized lower-is-better).

        Evaluation follows the usual route order, then ranking runs
        through a bulk
        :class:`~repro.ranking.topk.RankingContext`: one result-graph
        snapshot, memoized distance work shared across metrics and calls,
        and lazy full scoring behind cheap admissible bounds.  Contexts
        are cached per ``(graph, pattern)`` until the graph changes; for
        *pinned* queries :meth:`update_graph` re-ranks only the matches
        an update touched.
        ``k`` must be a positive integer for every metric.
        """
        validate_k(k)
        pattern.validate(require_output=True)
        chosen = get_metric(metric) if isinstance(metric, str) else metric
        context = self._ranking_context(
            name, pattern, use_rank_cache=use_rank_cache, **evaluate_kwargs
        )
        if isinstance(metric, str) and metric == "social-impact":
            return bulk_top_k_detail(context, k)
        return bulk_top_k_scores(context, k, chosen)

    def _ranking_context(
        self,
        name: str,
        pattern: Pattern,
        use_rank_cache: bool = True,
        **evaluate_kwargs: Any,
    ) -> RankingContext:
        """The (possibly cached) bulk-ranking context for one query."""
        entry = self._entry(name)
        key = cache_key(name, pattern)
        if use_rank_cache:
            cached = self._rank_cache.get(key)
            if cached is not None:
                return cached.context
        result = self.evaluate(name, pattern, **evaluate_kwargs)
        context = RankingContext(result.result_graph())
        # A guarded evaluation that tripped produced a partial relation;
        # rankings over it are valid for this call but must not be served
        # to later (possibly unbudgeted) top_k calls.
        if use_rank_cache and not result.stats.get("partial"):
            self._rank_cache.put(key, context)
        return context

    # ------------------------------------------------------------------
    # updates + pinned queries
    # ------------------------------------------------------------------
    def pin(self, name: str, pattern: Pattern) -> None:
        """Cache a query and keep its result maintained across updates.

        Maintained means through :meth:`update_graph`.  A write that
        bypasses it reaches no maintainer, so the engine drops the pin with
        everything else derived from the graph: pin again after it.
        """
        pattern.validate()
        entry = self._entry(name)
        key = cache_key(name, pattern)
        existing = self._cache.get(key)
        if existing is not None and existing.pinned:
            return
        if pattern.is_simulation_pattern:
            maintainer: Any = IncrementalSimulation(
                entry.graph, pattern, index=entry.attr_index
            )
        else:
            maintainer = IncrementalBoundedSimulation(
                entry.graph, pattern, index=entry.attr_index
            )
        self._cache.put(
            key, maintainer.relation(), pinned=True, maintainer=maintainer
        )

    def unpin(self, name: str, pattern: Pattern) -> None:
        self._cache.unpin(cache_key(name, pattern))

    def update_graph(self, name: str, updates: Sequence[Update]) -> dict[str, Any]:
        """Apply updates of any kind; maintain pinned queries and compression.

        ``updates`` may mix edge insertions and deletions, node insertions
        and deletions and attribute writes; they are applied in order.
        Returns a summary: per pinned query the ``ΔM`` (added/removed
        pairs) and, where it has been ranked, how much of the ranking
        survived (``rank_maintenance``), plus bookkeeping counters.

        A primitive that cannot be applied raises :class:`UpdateError`
        and leaves the ones before it applied (there is no rollback).
        Graph and maintainers advance in lockstep, so the pinned results,
        rankings, compression and index are exact for that prefix: their
        bookkeeping is finished before the error propagates, and the
        pinned queries stay pinned.
        """
        entry = self._entry(name)
        pinned = self._cache.pinned_entries(name)
        primitives: list[Update] = []
        try:
            for update in updates:
                # Node deletions are decomposed into their incident edge
                # deletions plus a bare node removal, so every maintainer sees
                # a primitive sequence it can follow without pre-images.
                for primitive in decompose(entry.graph, update):
                    primitive.apply(entry.graph)
                    primitives.append(primitive)
                    for _key, cache_entry in pinned:
                        cache_entry.maintainer.apply(primitive, apply_to_graph=False)
                    if isinstance(entry.compression, MaintainedCompression):
                        entry.compression.apply(primitive, apply_to_graph=False)
                    entry.attr_index.on_update(primitive)
        finally:
            summary = self._settle_update(entry, pinned, primitives)
        return {"applied": len(updates), **summary}

    def _settle_update(
        self,
        entry: RegisteredGraph,
        pinned: Sequence[tuple[tuple, CacheEntry]],
        primitives: Sequence[Update],
    ) -> dict[str, Any]:
        """Bring every artefact in line with the primitives applied so far."""
        name = entry.name
        # Nodes written as nodes (inserted, deleted, attribute set): their
        # attribute dicts may differ where no match or distance does.
        written = {
            primitive.node
            for primitive in primitives
            if not isinstance(primitive, (EdgeInsertion, EdgeDeletion))
        }
        if entry.compression is not None and not isinstance(
            entry.compression, MaintainedCompression
        ):
            # A static compressed graph is stale after any update.
            entry.compression = None

        deltas: dict[tuple, dict[str, Any]] = {}
        rank_maintenance: dict[tuple, dict[str, int]] = {}
        refreshed_keys: set[tuple] = set()
        for key, cache_entry in pinned:
            # What the maintainer touched decides the work: no membership
            # toggled means ΔM is empty and the relation object stays.
            toggled, dirty = cache_entry.maintainer.drain_changes()
            before = cache_entry.relation
            added: set = set()
            removed: set = set()
            if toggled:
                fresh = cache_entry.maintainer.relation()
                added, removed = before.diff(fresh)
                if added or removed:
                    cache_entry.relation = fresh
            deltas[key[1]] = {"added": added, "removed": removed}
            maintenance = self._refresh_pinned_ranking(
                entry, key, cache_entry, dirty, written,
                flipped=before.is_empty != cache_entry.relation.is_empty,
            )
            if maintenance is not None:
                rank_maintenance[key[1]] = maintenance
                refreshed_keys.add(key)
        # Contexts of non-pinned queries answer for the graph before the
        # batch.  The snapshot is patched on its next use — unless the
        # patch would touch more rows than a freeze reads.
        self._rank_cache.invalidate_graph(name, keep=refreshed_keys)
        if entry.frozen is not None:
            entry.pending += primitives
            if len(entry.pending) > entry.frozen.num_nodes:
                self._drop_snapshot(entry)
        # Oracle labels are shortest-path distances: a batch of purely
        # distance-preserving primitives (attribute writes, bare node
        # insertions) leaves them exact, so their validity advances in
        # place instead of paying a rebuild.  Anything structural drops
        # them; the next bounded evaluation rebuilds lazily.
        if entry.oracle is not None and all(
            DistanceOracle.survives(primitive) for primitive in primitives
        ):
            self._counters["oracles"]["refreshes"] += 1
        else:
            self._drop_oracle(entry)
        invalidated = self._cache.invalidate_graph(name, keep_pinned=True)
        entry.synced_version = entry.graph.version
        return {
            "graph_version": entry.graph.version,
            "invalidated_cache_entries": invalidated,
            "pinned_deltas": deltas,
            "rank_maintenance": rank_maintenance,
        }

    def _refresh_pinned_ranking(
        self,
        entry: RegisteredGraph,
        key: tuple,
        cache_entry: CacheEntry,
        dirty: set[NodeId],
        written: set[NodeId],
        flipped: bool,
    ) -> dict[str, int] | None:
        """Re-rank only the matches an update batch actually touched.

        If the pinned query's ranking context is cached, its result graph
        is *patched*: only the out-rows of the maintainer's ``dirty`` nodes
        are rebuilt from the maintained state and compared, every other
        row is shared with the old graph.  Nothing differs: the context —
        details, distance memos, ranked prefixes — stays.
        Otherwise a new context over the patched graph carries over every
        memoized detail whose impact set is disjoint from the changed
        nodes — same object, no Dijkstra — and touched matches that were
        ranked before are eagerly re-scored, so the refreshed entry is as
        warm as the old one.  The result graph is rebuilt in full only
        where a delta cannot describe the change: ``M(Q,G)`` became or
        stopped being empty (``flipped``), or the cached context is not
        one this maintainer's log applies to (built over another graph or
        pattern object).  Returns ``{reused, rescored,
        changed_nodes}``, or ``None`` without a cached context.
        """
        # peek, not get: maintenance is not a lookup a hit ratio should count.
        rank_entry = self._rank_cache.peek(key)
        if rank_entry is None:
            return None
        maintainer = cache_entry.maintainer
        old = rank_entry.context
        candidates: set[NodeId] | None
        if (
            flipped
            or old.result_graph.graph is not entry.graph
            or old.result_graph.pattern is not maintainer.pattern
        ):
            result_graph = build_result_graph(
                entry.graph,
                maintainer.pattern,
                cache_entry.relation,
                state=getattr(maintainer, "state", None),
            )
            candidates = None
        else:
            if cache_entry.relation.is_empty:  # was and stays the empty graph
                result_graph, candidates = old.result_graph, set()
            else:
                result_graph, candidates = old.result_graph.patched(
                    dirty, maintainer.match_row
                )
            # A rewritten attribute moves no row but is part of the evidence.
            candidates.update(node for node in written if node in old)
        if result_graph is old.result_graph and not candidates:
            return {"reused": len(old._details), "rescored": 0, "changed_nodes": 0}
        fresh_context = RankingContext(result_graph)
        changed = fresh_context.diff_nodes(old, candidates)
        reused = fresh_context.carry_over_from(old, changed)
        rescored = 0
        for node in old._details:
            if node in fresh_context.matched_by and node not in fresh_context._details:
                fresh_context.detail(node)
                rescored += 1
        rank_entry.context = fresh_context
        return {"reused": reused, "rescored": rescored, "changed_nodes": len(changed)}

    def rank_cache_stats(self) -> dict[str, int]:
        """Counters of the ranked-result cache (see :meth:`cache_stats`)."""
        return self._rank_cache.stats()

    def snapshot_stats(self) -> dict[str, int]:
        """Frozen-snapshot counters (builds, patches, hits, drops);
        ``size`` is how many registered graphs hold one."""
        held = sum(1 for e in self._registered.values() if e.frozen is not None)
        return {"size": held, **self._counters["snapshots"]}

    def oracle_cache_stats(self) -> dict[str, int]:
        """Distance-oracle counters (builds, refreshes, drops); ``size`` is
        how many registered graphs hold one."""
        held = sum(1 for e in self._registered.values() if e.oracle is not None)
        return {"size": held, **self._counters["oracles"]}

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def cache_stats(self) -> dict[str, Any]:
        """Query-cache counters, plus the snapshot and oracle counters under
        ``"snapshots"`` / ``"oracles"``."""
        stats: dict[str, Any] = self._cache.stats()
        stats["snapshots"] = self.snapshot_stats()
        stats["oracles"] = self.oracle_cache_stats()
        return stats

    def stats(self) -> dict[str, Any]:
        """Every cache subsystem's counters in one JSON-friendly dict.

        The one-stop aggregate the ``expfinder stats`` subcommand and the
        query service's ``/stats`` endpoint surface: query/rank/snapshot/
        oracle cache counters plus the registered graph inventory.
        """
        return {
            "graphs": {
                name: {
                    "nodes": entry.graph.num_nodes,
                    "edges": entry.graph.num_edges,
                    "version": entry.graph.version,
                    "oracle": entry.oracle_config is not None,
                }
                for name, entry in sorted(self._registered.items())
            },
            "cache": self._cache.stats(),
            "rank_cache": self._rank_cache.stats(),
            "snapshots": self.snapshot_stats(),
            "oracles": self.oracle_cache_stats(),
            "resyncs": self._resyncs,
        }

    def persist_graph(self, name: str) -> None:
        """Write a registered graph to the file store."""
        if self.store is None:
            raise EvaluationError("engine has no file store configured")
        self.store.save_graph(name, self._entry(name).graph)

    def persist_snapshot(
        self,
        name: str,
        include_oracle: bool = False,
        workers: int | None = None,
    ) -> dict[str, Any]:
        """Persist a graph's frozen snapshot (and optionally its oracle).

        Freezes the graph's current version if no warm snapshot exists,
        writes the binary snapshot file into the store's catalogue, and —
        with ``include_oracle=True`` (requires :meth:`enable_oracle`
        first; ``workers`` fans out the build) — the oracle labeling too.
        A later engine pointed at the same store faults both back in via
        ``mmap`` instead of rebuilding, as long as the registered graph is
        at the same version.  Returns ``{"snapshot": path}`` plus
        ``{"oracle": path}`` when included.
        """
        if self.store is None:
            raise EvaluationError("engine has no file store configured")
        entry = self._entry(name)
        paths: dict[str, Any] = {
            "snapshot": self.store.save_snapshot(
                name, self._frozen_snapshot(entry)
            )
        }
        if include_oracle:
            oracle = self._oracle_for(entry, workers=validate_workers(workers))
            if oracle is None:
                raise EvaluationError(
                    f"oracle not enabled for graph {name!r}; call enable_oracle() first"
                )
            paths["oracle"] = self.store.save_oracle(name, oracle)
        return paths

    def __repr__(self) -> str:
        return f"<QueryEngine graphs={self.graphs()}>"
