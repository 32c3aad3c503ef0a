"""Bounded simulation — the paper's core matching semantics (cubic time).

Given pattern ``Q`` whose edges carry length bounds and data graph ``G``,
``M(Q,G)`` is the maximum relation such that every match satisfies its
pattern node's search condition and, for every pattern edge ``(u,u')`` with
bound ``b``, reaches some match of ``u'`` by a nonempty path of length <= b
(``b = None`` is the paper's ``*``: plain reachability).

The matcher materializes, per pattern edge ``e`` and candidate ``v``, the
*bounded successor set* ``S[e][v] = {v': dist}`` of child-candidates within
the bound (one truncated BFS per candidate per pattern-edge source), plus a
reverse index ``R`` and live counters ``cnt[e][v] = |S[e][v] ∩ sim(child)|``.
Removals then cascade in worklist fashion exactly as in the quadratic
simulation algorithm.  This is the cubic algorithm of Fan et al. (PVLDB
2010); keeping ``S``/``R``/``cnt`` around pays off twice:

* the result graph's weighted edges are precisely the surviving ``S``
  entries between matches, and
* the incremental module (SIGMOD 2011) maintains the same state under edge
  updates instead of recomputing it.

``S`` is indexed by *candidates*, not current matches, so membership changes
never invalidate it — only graph distance changes do.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.errors import EvaluationError
from repro.graph.digraph import Graph, NodeId
from repro.graph.distance import bounded_descendants, frozen_reach_levels
from repro.graph.frozen import FrozenGraph
from repro.matching.base import ChangeLog, MatchRelation, MatchResult, Stopwatch
from repro.matching.simulation import simulation_candidates
from repro.pattern.pattern import Bound, Pattern

PatternEdge = tuple[str, str]

#: At this BFS depth (or ``*``), per-source balls overlap so much that the
#: bitset-parallel traversal (all sources advance together, each node's
#: visitor set packed into one big int) wins; below it, per-source level
#: BFS over the frozen adjacency sets is cheaper than paying big-int ops.
FROZEN_BULK_DEPTH = 5

#: Sources per bitset traversal.  Bounds transient memory (one n-slot list
#: of masks of this many bits) and keeps big-int ops cache-friendly.
FROZEN_CHUNK_BITS = 4096

#: Arrivals the bitset kernel accumulates before charging its guard.
#: Bounds budget overshoot (one hub level can carry millions of arrivals)
#: while keeping the charge/should_stop round trip off the per-node path.
_GUARD_CHARGE_BATCH = 1024

#: byte value -> indices of its set bits; decodes visitor masks without
#: allocating big ints per extracted bit.
_BYTE_BITS = tuple(
    tuple(i for i in range(8) if (byte >> i) & 1) for byte in range(256)
)


def frozen_successor_rows(
    frozen: FrozenGraph,
    out_edges_by_node: Mapping[str, Sequence[tuple[str, Bound]]],
    candidate_ids: Mapping[str, frozenset[int]],
    sources_by_node: Mapping[str, Sequence[int]] | None = None,
    oracle=None,
    kernel_log: dict[PatternEdge, Any] | None = None,
    guard=None,
) -> dict[PatternEdge, dict[int, dict[int, int]]]:
    """Bounded successor rows for every source candidate, int-indexed.

    For each pattern node ``u`` with out-edges and each source id ``v``
    (``sources_by_node[u]`` when given — the sharded evaluator's pivots —
    else every candidate of ``u``), computes per out-edge ``(u, u')`` the
    row ``{w: dist}`` of ``u'``-candidates within the edge bound.  This is
    exactly what :meth:`BoundedState._build_successor_sets` materializes,
    with three kernel strategies instead of one truncated BFS per candidate,
    routed per pattern edge by the planner's cost model
    (:func:`repro.engine.planner.route_edge`):

    * **oracle-pairwise** — with a
      :class:`~repro.graph.oracle.DistanceOracle` covering the bound and
      selective candidate sets, rows come from candidate x candidate label
      merges: no ball is ever materialised;
    * **shallow bounds** — per-source level BFS over the snapshot's
      adjacency sets; candidate filtering is one C-speed intersection per
      level per edge instead of a per-reached-node interpreted check;
    * **deep or ``*`` bounds** — one *bitset-parallel* traversal per chunk
      of sources: each frontier node carries the set of sources that just
      reached it, packed into a big int, so overlapping balls are walked
      once instead of once per source.  Entries are decoded per level from
      the first-arrival masks of surviving child candidates.

    All strategies produce identical rows (the seeded differential suite
    asserts it); the split is purely a cost model.  ``kernel_log``, when
    given, receives the chosen :class:`~repro.engine.planner.EdgeRoute`
    per pattern edge — this is what ``explain()`` and the matcher stats
    surface.

    ``guard`` (a :class:`~repro.engine.estimator.QueryGuard`) changes two
    things.  First, routing: each source group's analytic frontier is
    replaced by a *sampled* one (:func:`~repro.engine.estimator.
    sample_frontier`), and when a group's measured work overshoots its
    estimate by the budget's ``replan_factor`` the remaining groups'
    estimates are re-scaled by the observed ratio before they are routed —
    adaptive mid-query re-planning.  Second, enforcement: every kernel
    charges node arrivals as it works and stops admitting new work once
    the guard trips.  Rows already filled stay; rows not reached stay at
    their initialized empty dict.  Incomplete-but-honest rows are *sound*:
    the removal fixpoint over them yields a valid bounded simulation,
    hence a subset of the exact ``M(Q,G)``.
    """
    # Local import: the planner lives in the engine package, which imports
    # this module at load time — a module-level import would be circular.
    from repro.engine.planner import (
        KERNEL_BITSET,
        KERNEL_ORACLE,
        KERNEL_PER_SOURCE,
        enumeration_kernel,
        route_edge,
    )

    rows: dict[PatternEdge, dict[int, dict[int, int]]] = {}
    adjacency = frozen.successor_sets()
    num_nodes = len(adjacency)
    num_edges = frozen.num_edges
    oracle_profile = oracle.profile() if oracle is not None else None
    # Guarded evaluation routes from *sampled* frontier estimates and
    # re-scales the remaining estimates (``correction``) whenever a group's
    # measured work overshoots its estimate by the budget's replan factor.
    correction = 1.0
    replan_factor = (
        guard.budget.replan_factor if guard is not None else None
    )
    for source_pattern, out_edges in out_edges_by_node.items():
        out_edges = list(out_edges)
        if not out_edges:
            continue
        if sources_by_node is not None:
            sources = list(sources_by_node.get(source_pattern, ()))
        else:
            sources = sorted(candidate_ids[source_pattern])
        sampled = None
        ball_edges_estimate = None
        if guard is not None and sources:
            from repro.engine.estimator import sample_frontier

            sampled = sample_frontier(
                adjacency,
                sources,
                BoundedState._bfs_depth(bound for _, bound in out_edges),
            )
            ball_edges_estimate = max(1.0, sampled.ball_edges * correction)
        oracle_edges = []
        enum_edges = []
        routes = {}
        for edge_target, bound in out_edges:
            edge = (source_pattern, edge_target)
            rows[edge] = {source: {} for source in sources}
            children = candidate_ids[edge_target]
            route = route_edge(
                edge,
                bound,
                len(sources),
                len(children),
                num_nodes,
                num_edges,
                oracle_profile if oracle is not None and oracle.covers(bound) else None,
                bulk_depth=FROZEN_BULK_DEPTH,
                ball_edges_estimate=ball_edges_estimate,
            )
            routes[edge] = route
            item = (edge, bound, children)
            if route.kernel == KERNEL_ORACLE:
                oracle_edges.append(item)
            else:
                enum_edges.append(item)
        if sources and (guard is None or not guard.should_stop()):
            visits_before = guard.visits if guard is not None else 0
            kernel = None  # the enumeration kernel this group ran, if any
            if oracle_edges:
                oracle.fill_rows(sources, oracle_edges, rows, adjacency)
                if guard is not None:
                    guard.charge(sum(
                        len(row)
                        for edge, _bound, _children in oracle_edges
                        for row in rows[edge].values()
                    ))
            if enum_edges and (guard is None or not guard.should_stop()):
                depth = BoundedState._bfs_depth(bound for _, bound, _ in enum_edges)
                kernel = enumeration_kernel(depth, len(sources), FROZEN_BULK_DEPTH)
                if kernel == KERNEL_PER_SOURCE:
                    _per_source_rows(
                        adjacency, sources, depth, enum_edges, rows, guard=guard
                    )
                else:
                    _bitset_rows(
                        adjacency, sources, depth, enum_edges, rows, guard=guard
                    )
            if guard is not None and sampled is not None and replan_factor:
                measured = guard.visits - visits_before
                estimated = max(1.0, len(sources) * sampled.frontier * correction)
                if measured > replan_factor * estimated:
                    correction *= measured / estimated
                    guard.replans += 1
                # Enumeration edges of one source node share a traversal,
                # so the group decision overrides the per-edge estimate in
                # the log (same rows either way; the log must tell the
                # truth about what ran).  Nothing to relabel when the guard
                # tripped before the enumeration started.
                if kernel is not None:
                    for edge, _bound, _children in enum_edges:
                        route = routes[edge]
                        if route.kernel != kernel:
                            routes[edge] = replace(route, kernel=kernel)
        if kernel_log is not None:
            kernel_log.update(routes)
    return rows


def _per_source_rows(adjacency, sources, depth, edge_data, rows, guard=None) -> None:
    """One level BFS per source; per-level set intersections filter rows.

    With a ``guard``, each source's ball is charged (sum of its level
    sizes) and row construction stops before the next source once the
    guard trips — completed rows are exact, unstarted rows stay empty.
    """
    for source in sources:
        if guard is not None and guard.should_stop():
            break
        levels = frozen_reach_levels(adjacency, source, depth)
        if guard is not None:
            guard.charge(sum(len(level) for level in levels))
        for edge, bound, child_candidates in edge_data:
            entries = rows[edge][source]
            for dist, level in enumerate(levels[:bound], start=1):
                for reached in level & child_candidates:
                    entries[reached] = dist


def _bitset_rows(adjacency, sources, depth, edge_data, rows, guard=None) -> None:
    """Bitset-parallel traversal: all sources of one chunk advance together.

    ``frontier[node]`` is a big-int mask of the chunk sources that first
    reached ``node`` at the current distance; propagation ORs masks along
    edges (C-speed regardless of how many sources share the step), and a
    per-node ``reach`` mask keeps arrivals first-only.  Survivor masks are
    decoded bytewise via the :data:`_BYTE_BITS` table.

    With a ``guard``, arrivals (popcounts of the first-arrival masks) are
    charged in :data:`_GUARD_CHARGE_BATCH` batches *during* the frontier
    rebuild, and the rebuild stops as soon as the guard trips — one hub
    level can carry millions of arrivals, far past any sane budget, so
    charging per level would gut the guarantee.  Entries emitted from the
    truncated frontier are all true, so the partial rows stay sound.
    """
    num_nodes = len(adjacency)
    byte_bits = _BYTE_BITS
    for chunk_start in range(0, len(sources), FROZEN_CHUNK_BITS):
        if guard is not None and guard.should_stop():
            break
        chunk = sources[chunk_start : chunk_start + FROZEN_CHUNK_BITS]
        mask_bytes = (len(chunk) + 7) // 8
        reach = [0] * num_nodes
        frontier: dict[int, int] = {}
        for bit, source in enumerate(chunk):
            frontier[source] = frontier.get(source, 0) | (1 << bit)
        dist = 0
        while frontier and (depth is None or dist < depth):
            if guard is not None and guard.should_stop():
                break
            dist += 1
            grown: dict[int, int] = {}
            get = grown.get
            for node, mask in frontier.items():
                for target in adjacency[node]:
                    seen = get(target)
                    grown[target] = mask if seen is None else seen | mask
            frontier = {}
            pending = 0
            for node, mask in grown.items():
                seen = reach[node]
                arrived = mask & ~seen if seen else mask
                if arrived:
                    reach[node] = seen | arrived
                    frontier[node] = arrived
                    if guard is not None:
                        pending += arrived.bit_count()
                        if pending >= _GUARD_CHARGE_BATCH:
                            guard.charge(pending)
                            pending = 0
                            if guard.should_stop():
                                break
            if guard is not None and pending:
                guard.charge(pending)
            for edge, bound, child_candidates in edge_data:
                if bound is not None and dist > bound:
                    continue
                edge_rows = rows[edge]
                for reached in child_candidates.intersection(frontier):
                    mask_view = frontier[reached].to_bytes(mask_bytes, "little")
                    for byte_index, byte in enumerate(mask_view):
                        if byte:
                            base = byte_index * 8
                            for offset in byte_bits[byte]:
                                edge_rows[chunk[base + offset]][reached] = dist



class BoundedState:
    """Complete refinement state for one (graph, pattern) evaluation.

    Public attributes (the incremental module manipulates them directly):

    ``cand``  pattern node -> predicate-satisfying data nodes (set)
    ``sim``   pattern node -> current surviving matches (set, the fixpoint)
    ``S``     pattern edge -> source candidate -> {target candidate: dist}
    ``R``     pattern edge -> target candidate -> set of source candidates
    ``cnt``   pattern edge -> source candidate -> |S ∩ sim(target)|
    ``log``   membership flips since the last drain; ``None`` (nothing is
              recorded) until an incremental maintainer arms it
    """

    __slots__ = (
        "graph", "pattern", "cand", "sim", "S", "R", "cnt", "_in_edges",
        "kernels", "log",
    )

    def __init__(
        self,
        graph: Graph,
        pattern: Pattern,
        index=None,
        candidates: dict[str, set[NodeId]] | None = None,
        frozen: FrozenGraph | None = None,
        oracle=None,
        guard=None,
    ) -> None:
        pattern.validate()
        if frozen is not None and not frozen.matches(graph):
            raise EvaluationError(
                f"stale frozen snapshot: {frozen!r} does not match "
                f"graph version {graph.version}"
            )
        if oracle is not None:
            if frozen is None:
                raise EvaluationError(
                    "a distance oracle requires a frozen snapshot (its labels "
                    "are int-indexed against the snapshot's dense ids)"
                )
            if not oracle.compatible_with(frozen):
                raise EvaluationError(
                    f"stale distance oracle: {oracle!r} does not match {frozen!r}"
                )
        if candidates is None:
            candidates = simulation_candidates(graph, pattern, index=index)
        self._init_containers(graph, pattern, candidates)
        # The snapshot only accelerates construction; it is deliberately
        # *not* stored on the state, because incremental maintenance
        # mutates the graph afterwards and must fall back to live reads.
        self._build_successor_sets(frozen=frozen, oracle=oracle, guard=guard)
        self._initial_refinement()

    def _init_containers(
        self, graph: Graph, pattern: Pattern, candidates: dict[str, set[NodeId]]
    ) -> None:
        """Shared state setup for both constructors (candidates are copied:
        the state owns and mutates its sets)."""
        self.graph = graph
        self.pattern = pattern
        # Per-pattern-edge EdgeRoute log of the frozen kernels (empty for
        # the dict-graph and merged-row construction paths).
        self.kernels: dict[PatternEdge, Any] = {}
        self.log: ChangeLog | None = None
        self.cand = {u: set(vs) for u, vs in candidates.items()}
        self.sim: dict[str, set[NodeId]] = {u: set(vs) for u, vs in self.cand.items()}
        self.S: dict[PatternEdge, dict[NodeId, dict[NodeId, int]]] = {}
        self.R: dict[PatternEdge, dict[NodeId, set[NodeId]]] = {}
        self.cnt: dict[PatternEdge, dict[NodeId, int]] = {}
        self._in_edges: dict[str, list[PatternEdge]] = {u: [] for u in pattern.nodes()}
        for source, target, _bound in pattern.edges():
            edge = (source, target)
            self._in_edges[target].append(edge)
            self.S[edge] = {}
            self.R[edge] = {}
            self.cnt[edge] = {}

    @classmethod
    def from_successor_rows(
        cls,
        graph: Graph,
        pattern: Pattern,
        candidates: dict[str, set[NodeId]],
        rows: dict[PatternEdge, dict[NodeId, dict[NodeId, int]]],
        allow_missing: bool = False,
    ) -> "BoundedState":
        """Assemble a state from externally computed ``S`` rows.

        This is the merge step of parallel sharded evaluation
        (:mod:`repro.engine.parallel`): workers return, per pattern edge and
        owned source candidate, the bounded successor entries the shared
        snapshot yields, and this constructor rebuilds ``R``/``cnt`` and
        runs the very same initial removal fixpoint the sequential
        constructor runs — the boundary refinement that makes cross-shard
        refutations cascade.  Every candidate of every pattern edge's source
        must have a row (possibly empty); a missing row means the shard
        decomposition lost a pivot and raises instead of silently producing
        a wrong (too large) relation.

        ``allow_missing=True`` relaxes that check for *guarded* partial
        evaluation: shards aborted by a tripped budget never report their
        rows, so missing candidates get an empty row (cnt 0) and the
        fixpoint prunes them — an under-approximation, which is exactly
        the sound direction for a partial result.
        """
        pattern.validate()
        state = cls.__new__(cls)
        state._init_containers(graph, pattern, candidates)
        unknown = [edge for edge in rows if edge not in state.S]
        if unknown:
            raise EvaluationError(f"rows for unknown pattern edges: {unknown}")
        for edge, row in rows.items():
            child_sim = state.sim[edge[1]]
            for data_node, entries in row.items():
                if data_node not in state.cand[edge[0]]:
                    raise EvaluationError(
                        f"row for non-candidate {data_node!r} of {edge[0]!r}"
                    )
                state.S[edge][data_node] = dict(entries)
                for reached in entries:
                    state.R[edge].setdefault(reached, set()).add(data_node)
                state.cnt[edge][data_node] = sum(
                    1 for reached in entries if reached in child_sim
                )
        for (source, target), edge_rows in state.S.items():
            if set(edge_rows) != state.cand[source]:
                lost = state.cand[source] - set(edge_rows)
                if not allow_missing:
                    raise EvaluationError(
                        f"merged S rows incomplete for source {source!r}: "
                        f"{len(lost)} candidate(s) have no row"
                    )
                for data_node in lost:
                    state.S[(source, target)][data_node] = {}
                    state.cnt[(source, target)][data_node] = 0
        state._initial_refinement()
        return state

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_successor_sets(
        self, frozen: FrozenGraph | None = None, oracle=None, guard=None
    ) -> None:
        if frozen is not None:
            self._build_successor_sets_frozen(frozen, oracle=oracle, guard=guard)
            return
        for source_pattern in self.pattern.nodes():
            out_edges = list(self.pattern.out_edges(source_pattern))
            if not out_edges:
                continue
            depth = self._bfs_depth(bound for _, bound in out_edges)
            for data_node in self.cand[source_pattern]:
                if guard is not None and guard.should_stop():
                    # Sound early stop: unvisited candidates get empty rows
                    # (cnt 0), so the removal fixpoint prunes them — the
                    # surviving relation shrinks, never grows.
                    self._fill_entries(source_pattern, data_node, {})
                    continue
                reach = bounded_descendants(self.graph, data_node, depth)
                if guard is not None:
                    guard.charge(len(reach))
                self._fill_entries(source_pattern, data_node, reach)

    def _build_successor_sets_frozen(
        self, frozen: FrozenGraph, oracle=None, guard=None
    ) -> None:
        """S/R/cnt from the int-indexed kernels, converted back to labels."""
        ids = frozen.ids()
        labels = frozen.labels
        candidate_ids = {
            u: frozenset(ids[v] for v in vs) for u, vs in self.cand.items()
        }
        out_edges_by_node = {
            u: tuple(self.pattern.out_edges(u)) for u in self.pattern.nodes()
        }
        rows = frozen_successor_rows(
            frozen,
            out_edges_by_node,
            candidate_ids,
            oracle=oracle,
            kernel_log=self.kernels,
            guard=guard,
        )
        for edge, edge_rows in rows.items():
            entries_of = self.S[edge]
            reverse = self.R[edge]
            counts = self.cnt[edge]
            child_sim = self.sim[edge[1]]
            for source_id, row in edge_rows.items():
                source_label = labels[source_id]
                entries: dict[NodeId, int] = {}
                live = 0
                for reached_id, dist in row.items():
                    reached = labels[reached_id]
                    entries[reached] = dist
                    reverse.setdefault(reached, set()).add(source_label)
                    if reached in child_sim:
                        live += 1
                entries_of[source_label] = entries
                counts[source_label] = live

    def _fill_entries(
        self, source_pattern: str, data_node: NodeId, reach: dict[NodeId, int]
    ) -> None:
        """(Re)compute S/R/cnt rows of ``data_node`` from a BFS result."""
        for edge_target, bound in self.pattern.out_edges(source_pattern):
            edge = (source_pattern, edge_target)
            child_cand = self.cand[edge_target]
            child_sim = self.sim[edge_target]
            entries: dict[NodeId, int] = {}
            live = 0
            for reached, dist in reach.items():
                if reached in child_cand and (bound is None or dist <= bound):
                    entries[reached] = dist
                    if reached in child_sim:
                        live += 1
            self.S[edge][data_node] = entries
            for reached in entries:
                self.R[edge].setdefault(reached, set()).add(data_node)
            self.cnt[edge][data_node] = live

    @staticmethod
    def _bfs_depth(bounds: Iterable[Bound]) -> Bound:
        depth: Bound = 1
        for bound in bounds:
            if bound is None:
                return None
            depth = max(depth, bound)  # type: ignore[type-var]
        return depth

    def _initial_refinement(self) -> None:
        seeds: list[tuple[str, NodeId]] = []
        for (source_pattern, _), counts in self.cnt.items():
            for data_node, live in counts.items():
                if live == 0:
                    seeds.append((source_pattern, data_node))
        self.removal_fixpoint(seeds)

    # ------------------------------------------------------------------
    # membership maintenance
    # ------------------------------------------------------------------
    def removal_fixpoint(self, seeds: Iterable[tuple[str, NodeId]]) -> set[tuple[str, NodeId]]:
        """Cascade removals starting from ``seeds``; returns removed pairs.

        A seed is only removed if it currently fails some out-edge counter
        (callers may pass optimistic seeds).
        """
        queue: deque[tuple[str, NodeId]] = deque(seeds)
        removed: set[tuple[str, NodeId]] = set()
        while queue:
            pattern_node, data_node = queue.popleft()
            if data_node not in self.sim[pattern_node]:
                continue
            if not self._fails_some_edge(pattern_node, data_node):
                continue
            self.sim[pattern_node].remove(data_node)
            removed.add((pattern_node, data_node))
            for edge in self._in_edges[pattern_node]:
                counts = self.cnt[edge]
                for upstream in self.R[edge].get(data_node, ()):
                    counts[upstream] -= 1
                    if counts[upstream] == 0 and upstream in self.sim[edge[0]]:
                        queue.append((edge[0], upstream))
        if removed and self.log is not None:
            self._log_toggled(removed)
        return removed

    def _fails_some_edge(self, pattern_node: str, data_node: NodeId) -> bool:
        for edge_target, _bound in self.pattern.out_edges(pattern_node):
            if self.cnt[(pattern_node, edge_target)].get(data_node, 0) == 0:
                return True
        return False

    def satisfies_all_edges(self, pattern_node: str, data_node: NodeId) -> bool:
        """True iff every out-edge counter of the pair is positive."""
        for edge_target, _bound in self.pattern.out_edges(pattern_node):
            if self.cnt[(pattern_node, edge_target)].get(data_node, 0) == 0:
                return False
        return True

    def force_remove(self, pattern_node: str, data_node: NodeId) -> None:
        """Unconditional membership removal (e.g. the node's attributes no
        longer satisfy the search condition), cascading as usual."""
        if data_node not in self.sim[pattern_node]:
            return
        self.sim[pattern_node].remove(data_node)
        if self.log is not None:
            self._log_toggled([(pattern_node, data_node)])
        seeds: list[tuple[str, NodeId]] = []
        for edge in self._in_edges[pattern_node]:
            counts = self.cnt[edge]
            for upstream in self.R[edge].get(data_node, ()):
                counts[upstream] -= 1
                if counts[upstream] == 0 and upstream in self.sim[edge[0]]:
                    seeds.append((edge[0], upstream))
        self.removal_fixpoint(seeds)

    def add_member(self, pattern_node: str, data_node: NodeId) -> None:
        """Insert a pair into ``sim`` and bump upstream counters.

        The caller is responsible for having verified
        :meth:`satisfies_all_edges`; this only maintains invariants.
        """
        if data_node in self.sim[pattern_node]:
            raise EvaluationError(f"already a member: ({pattern_node!r}, {data_node!r})")
        self.sim[pattern_node].add(data_node)
        if self.log is not None:
            self._log_toggled([(pattern_node, data_node)])
        for edge in self._in_edges[pattern_node]:
            counts = self.cnt[edge]
            for upstream in self.R[edge].get(data_node, ()):
                counts[upstream] += 1

    def _log_toggled(self, pairs: Iterable[tuple[str, NodeId]]) -> None:
        """Record membership flips in the (armed) change log.

        Besides the pair, its data node and every source holding that node
        in an ``S`` row become dirty: their result-graph out-rows gain or
        lose the edge.  ``R`` is read now because a node that leaves
        candidacy has its reverse entries dropped right after.
        """
        log = self.log
        for pattern_node, data_node in pairs:
            log.toggled.add((pattern_node, data_node))
            log.dirty.add(data_node)
            for edge in self._in_edges[pattern_node]:
                log.dirty.update(self.R[edge].get(data_node, ()))

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def relation(self) -> MatchRelation:
        """The paper-semantics ``M(Q,G)`` for the current state."""
        return MatchRelation.from_sets(self.pattern, self.sim)

    def match_edges(self) -> Iterator[tuple[NodeId, NodeId, int]]:
        """Surviving weighted pairs: the result graph's edge set.

        Yields ``(v, v', dist)`` for every pattern edge and every pair of
        current matches within the bound.  Pairs may repeat when several
        pattern edges induce them; consumers keep the minimum (identical)
        distance.
        """
        for (source_pattern, target_pattern), rows in self.S.items():
            source_sim = self.sim[source_pattern]
            target_sim = self.sim[target_pattern]
            for data_node, entries in rows.items():
                if data_node not in source_sim:
                    continue
                for reached, dist in entries.items():
                    if reached in target_sim:
                        yield (data_node, reached, dist)

    def match_row(self, data_node: NodeId) -> tuple[set[str], dict[NodeId, int]]:
        """One node's share of the result graph, read off the live state.

        Returns the pattern nodes ``data_node`` currently matches and its
        weighted out-row: ``S ∩ sim`` over the out-edges of those pattern
        nodes, minimum distance where several induce the same pair —
        what :meth:`match_edges` yields for this source, keyed by target.
        Only meaningful while no ``sim`` set is empty (``M(Q,G)`` is total).
        """
        matched: set[str] = set()
        row: dict[NodeId, int] = {}
        for pattern_node in self.pattern.nodes():
            if data_node not in self.sim[pattern_node]:
                continue
            matched.add(pattern_node)
            for edge_target, _bound in self.pattern.out_edges(pattern_node):
                target_sim = self.sim[edge_target]
                for reached, dist in self.S[(pattern_node, edge_target)][data_node].items():
                    if reached in target_sim and dist < row.get(reached, dist + 1):
                        row[reached] = dist
        return matched, row

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify S/R/cnt/sim consistency; raises EvaluationError on breakage.

        O(|state|); used by tests (especially property-based incremental
        tests) to catch maintenance bugs at their source.
        """
        for source_pattern, target_pattern, bound in self.pattern.edges():
            edge = (source_pattern, target_pattern)
            rows = self.S[edge]
            if set(rows) != self.cand[source_pattern]:
                raise EvaluationError(f"S rows out of sync for {edge}")
            for data_node, entries in rows.items():
                expected = bounded_descendants(
                    self.graph, data_node, bound
                )
                expected = {
                    n: d for n, d in expected.items() if n in self.cand[target_pattern]
                }
                if entries != expected:
                    raise EvaluationError(
                        f"S[{edge}][{data_node!r}] = {entries} != {expected}"
                    )
                live = sum(1 for n in entries if n in self.sim[target_pattern])
                if self.cnt[edge][data_node] != live:
                    raise EvaluationError(
                        f"cnt[{edge}][{data_node!r}] = "
                        f"{self.cnt[edge][data_node]} != {live}"
                    )
                for reached in entries:
                    if data_node not in self.R[edge].get(reached, set()):
                        raise EvaluationError(f"R missing {edge} {reached!r}")
        for edge, reverse in self.R.items():
            for reached, sources in reverse.items():
                for data_node in sources:
                    if reached not in self.S[edge].get(data_node, {}):
                        raise EvaluationError(f"R stale entry {edge} {reached!r}")
        for pattern_node, members in self.sim.items():
            if not members <= self.cand[pattern_node]:
                raise EvaluationError(f"sim ⊄ cand for {pattern_node!r}")
            for data_node in members:
                if not self.satisfies_all_edges(pattern_node, data_node):
                    raise EvaluationError(
                        f"member fails an edge: ({pattern_node!r}, {data_node!r})"
                    )


def match_bounded(
    graph: Graph,
    pattern: Pattern,
    index=None,
    candidates: dict[str, set[NodeId]] | None = None,
    frozen: FrozenGraph | None = None,
    oracle=None,
    budget=None,
    guard=None,
) -> MatchResult:
    """Compute ``M(Q,G)`` under bounded simulation.

    The returned :class:`MatchResult` carries the refinement state, so
    deriving the result graph or feeding the incremental module costs no
    recomputation.  An optional
    :class:`~repro.graph.index.AttributeIndex` (``index``) serves candidate
    generation, and ``candidates`` supplies precomputed candidate sets
    outright (the batch evaluator's shared-work path).  A ``frozen``
    snapshot of ``graph`` (usually the engine's cached one; it must match
    the graph's current ``version``) routes successor-set construction
    through the int-indexed CSR kernels — same relation, same state, less
    time.  An ``oracle`` (:class:`~repro.graph.oracle.DistanceOracle`
    built from a compatible snapshot) additionally lets the planner route
    selective pattern edges to pairwise label merges; the chosen kernel
    per edge lands in ``stats["kernels"]``.

    A ``budget`` (:class:`~repro.engine.estimator.QueryBudget`) guards the
    evaluation: kernels charge node visits against it, a blown limit
    either raises :class:`~repro.errors.BudgetExceededError` or — with
    ``allow_partial=True`` — degrades to a *sound subset* of the exact
    relation flagged ``stats["partial"] = True`` with the tripped guard in
    ``stats["guard"]``.  Callers that already own a
    :class:`~repro.engine.estimator.QueryGuard` (the parallel executor's
    shard workers share one counter) pass ``guard`` instead.

    >>> from repro.graph.digraph import Graph
    >>> from repro.pattern.pattern import Pattern
    >>> g = Graph.from_edges(
    ...     [("a", "m"), ("m", "b")],
    ...     nodes={"a": {"l": "X"}, "m": {"l": "?"}, "b": {"l": "Y"}},
    ... )
    >>> q = Pattern(); q.add_node("X", 'l == "X"'); q.add_node("Y", 'l == "Y"')
    >>> q.add_edge("X", "Y", 2)   # within two hops
    >>> sorted(match_bounded(g, q).relation.pairs())
    [('X', 'a'), ('Y', 'b')]
    """
    watch = Stopwatch()
    if guard is None and budget is not None and budget.is_limited:
        from repro.engine.estimator import QueryGuard

        guard = QueryGuard(budget)
    state = BoundedState(
        graph,
        pattern,
        index=index,
        candidates=candidates,
        frozen=frozen,
        oracle=oracle,
        guard=guard,
    )
    relation = state.relation()
    if candidates is not None:
        candidate_source = "precomputed"
    else:
        candidate_source = "scan" if index is None else "index"
    stats = {
        "algorithm": "bounded-simulation",
        "seconds": watch.seconds(),
        "candidate_source": candidate_source,
    }
    if state.kernels:
        stats["kernels"] = {
            f"{edge[0]}->{edge[1]}": route.kernel
            for edge, route in state.kernels.items()
        }
    if guard is not None:
        stats.update(guard.stats())
    return MatchResult(graph, pattern, relation, stats=stats, state=state)
