"""Bounded simulation — the paper's core matching semantics.

Given pattern ``Q`` whose edges carry length bounds and data graph ``G``,
``M(Q,G)`` is the maximum relation such that every match satisfies its
pattern node's search condition and, for every pattern edge ``(u,u')`` with
bound ``b``, reaches some match of ``u'`` by a nonempty path of length <= b
(``b = None`` is the paper's ``*``: plain reachability).

Two evaluators compute that relation, byte for byte the same:

* **Relation-first, over a frozen snapshot** — what a one-shot
  :func:`match_bounded` with ``frozen=`` runs (the served ``evaluate`` /
  ``top_k`` misses, the engine's direct route).  Membership comes first:
  ``sim`` starts at the candidate ids, and for each pattern edge
  ``(u,u',b)`` one multi-source *backward* BFS over the snapshot's
  predecessor sets, from the current ``sim(u')`` along nonempty paths of
  length <= ``b``, yields the nodes that can still witness the edge;
  ``sim(u)`` shrinks to them, and the edges into a shrunk node are checked
  again until nothing changes (the greatest fixpoint, reached from above).
  Only then are bounded successor rows built, and only from matched
  sources to matched children (:func:`frozen_successor_rows`).  Those rows
  are exactly the result graph's weighted edges; :class:`MatchRows` keeps
  them int-indexed and turns ids into labels only when the result graph
  is asked for.
* **Candidate-indexed state, over the dict graph** —
  :class:`BoundedState`, the cubic algorithm of Fan et al. (PVLDB 2010).
  It materializes, per pattern edge ``e`` and *candidate* ``v``, the
  bounded successor set ``S[e][v] = {v': dist}`` of child candidates
  within the bound, a reverse index ``R`` and live counters
  ``cnt[e][v] = |S[e][v] ∩ sim(child)|``, then cascades removals in
  worklist fashion exactly as the quadratic simulation algorithm does.
  Because ``S`` is indexed by candidates, membership changes never
  invalidate it — only graph distance changes do — which is why the
  incremental module (SIGMOD 2011) maintains this state under edge
  updates.

Under a guard (:class:`~repro.engine.estimator.QueryGuard`) both charge
node arrivals — BFS arrivals of either direction and row entries alike.
When the guard trips, the relation-first evaluator runs the ordinary
removal fixpoint over the rows it did build, so a partial relation is
still a valid bounded simulation and hence a subset of the exact one.
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

_NO_IDS: frozenset[int] = frozenset()


def frozen_successor_rows(
    frozen: FrozenGraph,
    out_edges_by_node: Mapping[str, Sequence[tuple[str, Bound]]],
    candidate_ids: Mapping[str, frozenset[int]],
    sources_by_node: Mapping[str, Sequence[int]] | None = None,
    oracle=None,
    kernel_log: dict[PatternEdge, Any] | None = None,
    guard=None,
    route_on: Mapping[str, frozenset[int]] | None = None,
) -> dict[PatternEdge, dict[int, dict[int, int]]]:
    """Bounded successor rows for every source candidate, int-indexed.

    For each pattern node ``u`` with out-edges and each source id ``v``
    (``sources_by_node[u]`` when given — the relation-first matcher's
    matches — else every candidate of
    ``u``), computes per out-edge ``(u, u')`` the row ``{w: dist}`` of
    ``u'``-candidates within the edge bound.  ``route_on``, when given,
    names the id sets the planner routes on in place of the sources and
    children the rows are built for: :func:`match_bounded` builds rows
    between matches but routes on the candidates, so the kernel choice
    does not depend on the answer.  This is
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
        route_sources = (
            sources if route_on is None else route_on[source_pattern]
        )
        sampled = None
        ball_edges_estimate = None
        if guard is not None and sources:
            from repro.engine.estimator import sample_frontier

            sampled = sample_frontier(
                adjacency,
                route_sources,
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
                len(route_sources),
                len(children if route_on is None else route_on[edge_target]),
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
                kernel = enumeration_kernel(
                    depth, len(route_sources), FROZEN_BULK_DEPTH
                )
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
        "graph", "pattern", "cand", "sim", "S", "R", "cnt", "_in_edges", "log",
    )

    def __init__(
        self,
        graph: Graph,
        pattern: Pattern,
        index=None,
        candidates: dict[str, set[NodeId]] | None = None,
        guard=None,
    ) -> None:
        pattern.validate()
        if candidates is None:
            candidates = simulation_candidates(graph, pattern, index=index)
        self._init_containers(graph, pattern, candidates)
        self._build_successor_sets(guard=guard)
        self._initial_refinement()

    def _init_containers(
        self, graph: Graph, pattern: Pattern, candidates: dict[str, set[NodeId]]
    ) -> None:
        """Shared state setup for both constructors (candidates are copied:
        the state owns and mutates its sets)."""
        self.graph = graph
        self.pattern = pattern
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

        ``rows`` holds, per pattern edge and source candidate, the bounded
        successor entries a snapshot yields (as
        :func:`frozen_successor_rows` computes them); this constructor
        rebuilds ``R``/``cnt`` and runs the very same initial removal
        fixpoint the sequential constructor runs.  Every candidate of every
        pattern edge's source must have a row (possibly empty); a missing
        row raises instead of silently producing a wrong (too large)
        relation.

        ``allow_missing=True`` relaxes that check for *guarded* partial
        evaluation: a relation-first evaluation cut short by a tripped
        budget never builds some rows, so missing
        candidates get an empty row (cnt 0) and the fixpoint prunes them —
        an under-approximation, which is exactly the sound direction for a
        partial result.
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
    def _build_successor_sets(self, guard=None) -> None:
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
) -> MatchResult:
    """Compute ``M(Q,G)`` under bounded simulation.

    The returned :class:`MatchResult` carries what its result graph is
    read from, so deriving it costs no recomputation.  An optional
    :class:`~repro.graph.index.AttributeIndex` (``index``) serves candidate
    generation, and ``candidates`` supplies precomputed candidate sets
    outright (the batch evaluator's shared-work path).

    Without a snapshot the dict-graph :class:`BoundedState` is built and
    carried (an incremental maintainer can adopt it).  A ``frozen``
    snapshot of ``graph`` (usually the engine's cached one; it must match
    the graph's current ``version``) runs the relation-first evaluator
    instead — same relation, same result graph, far less work — and the
    result carries :class:`MatchRows`.  An ``oracle``
    (:class:`~repro.graph.oracle.DistanceOracle` built from a compatible
    snapshot) additionally lets the planner route selective pattern edges
    to pairwise label merges; the kernel routed per edge, decided on the
    candidate counts, lands in ``stats["kernels"]``.

    A ``budget`` (:class:`~repro.engine.estimator.QueryBudget`) guards the
    evaluation: kernels charge node visits against it, a blown limit
    either raises :class:`~repro.errors.BudgetExceededError` or — with
    ``allow_partial=True`` — degrades to a *sound subset* of the exact
    relation flagged ``stats["partial"] = True`` with the tripped guard in
    ``stats["guard"]``.

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
    guard = None
    if budget is not None and budget.is_limited:
        from repro.engine.estimator import QueryGuard

        guard = QueryGuard(budget)
    if candidates is not None:
        candidate_source = "precomputed"
    else:
        candidate_source = "scan" if index is None else "index"
        candidates = simulation_candidates(graph, pattern, index=index)
    kernels: dict[PatternEdge, Any] = {}
    state: BoundedState | MatchRows
    if frozen is None:
        state = BoundedState(graph, pattern, candidates=candidates, guard=guard)
        relation = state.relation()
    else:
        relation, state = _match_relation_first(
            graph, pattern, candidates, frozen, oracle, kernels, guard
        )
    stats = {
        "algorithm": "bounded-simulation",
        "seconds": watch.seconds(),
        "candidate_source": candidate_source,
    }
    if kernels:
        stats["kernels"] = {
            f"{edge[0]}->{edge[1]}": route.kernel for edge, route in kernels.items()
        }
    if guard is not None:
        stats.update(guard.stats())
    return MatchResult(graph, pattern, relation, stats=stats, state=state)


def _match_relation_first(
    graph: Graph,
    pattern: Pattern,
    candidates: Mapping[str, Iterable[NodeId]],
    frozen: FrozenGraph,
    oracle,
    kernel_log: dict[PatternEdge, Any],
    guard,
) -> tuple[MatchRelation, "MatchRows"]:
    """Membership by backward BFS, then rows only between matches."""
    ids = frozen.ids()
    labels = frozen.labels
    candidate_ids = {
        u: frozenset(ids[v] for v in vs) for u, vs in candidates.items()
    }
    sim = {u: set(vs) for u, vs in candidate_ids.items()}
    total = _membership_fixpoint(frozen.predecessor_sets(), pattern, sim, guard)
    out_edges_by_node = {u: tuple(pattern.out_edges(u)) for u in pattern.nodes()}
    # Routed on the candidates (the kernel log does not depend on the
    # answer); an empty relation still logs its routes but builds nothing.
    rows = frozen_successor_rows(
        frozen,
        out_edges_by_node,
        sim,
        sources_by_node={
            u: sorted(sim[u]) if total else () for u in out_edges_by_node
        },
        oracle=oracle,
        kernel_log=kernel_log,
        guard=guard,
        route_on=candidate_ids,
    )
    if total and guard is not None and guard.tripped is not None:
        # Rows the guard cut short may leave a match unwitnessed: the
        # removal fixpoint over the rows that were built restores a valid
        # (smaller) bounded simulation.
        sim = BoundedState.from_successor_rows(
            graph, pattern, sim, rows, allow_missing=True
        ).sim
        rows = {
            (source, target): {
                node: {
                    reached: dist
                    for reached, dist in row.items()
                    if reached in sim[target]
                }
                for node, row in edge_rows.items()
                if node in sim[source]
            }
            for (source, target), edge_rows in rows.items()
        }
    relation = MatchRelation.from_sets(
        pattern, {u: [labels[v] for v in vs] for u, vs in sim.items()}
    )
    return relation, MatchRows(graph, pattern, rows, labels)


def _membership_fixpoint(
    predecessors: Sequence[frozenset[int]],
    pattern: Pattern,
    sim: dict[str, set[int]],
    guard=None,
) -> bool:
    """Shrink ``sim`` (candidate ids, in place) to ``M(Q,G)``'s sets.

    Each pattern edge ``(u, u', b)`` keeps only the members of ``sim(u)``
    that reach the current ``sim(u')`` by a nonempty path of length <= b;
    whenever ``sim(u)`` shrinks, the edges into ``u`` are checked again.
    Returns False as soon as some set is empty (the relation is empty).
    A tripped guard stops the fixpoint early with sets that may be too
    small, never too large, for the caller's removal fixpoint to repair.
    """
    if not all(sim.values()):
        return False
    in_edges: dict[str, list[tuple[str, str, Bound]]] = {u: [] for u in sim}
    for edge in pattern.edges():
        in_edges[edge[1]].append(edge)
    queue = deque(pattern.edges())
    queued = {(source, target) for source, target, _bound in queue}
    while queue:
        if guard is not None and guard.should_stop():
            break
        source, target, bound = queue.popleft()
        queued.discard((source, target))
        kept = _reaching(predecessors, sim[target], bound, sim[source], guard)
        if len(kept) == len(sim[source]):
            continue
        sim[source] = kept
        if not kept:
            return False
        for edge in in_edges[source]:
            if edge[:2] not in queued:
                queued.add(edge[:2])
                queue.append(edge)
    return True


def _reaching(
    predecessors: Sequence[frozenset[int]],
    targets: set[int],
    bound: Bound,
    wanted: set[int],
    guard=None,
) -> set[int]:
    """The ids of ``wanted`` with a nonempty path of length <= ``bound``
    into ``targets``: one multi-source BFS over the predecessor sets,
    stopped as soon as every wanted id has been reached."""
    pending = set(wanted)
    found: set[int] = set()
    seen: set[int] = set()
    frontier: Iterable[int] = targets
    depth = 0
    while pending and (bound is None or depth < bound):
        depth += 1
        arrived = _NO_IDS.union(*map(predecessors.__getitem__, frontier)) - seen
        if not arrived:
            break
        seen |= arrived
        hits = pending & arrived
        found |= hits
        pending -= hits
        if guard is not None:
            guard.charge(len(arrived))
            if guard.should_stop():
                break
        frontier = arrived
    return found


class MatchRows:
    """The weighted edges of a relation-first result, int-indexed.

    ``rows[(u, u')][v] = {v': dist}`` holds, per pattern edge, every match
    ``v`` of ``u`` and the matches ``v'`` of ``u'`` it reaches within the
    bound, over the snapshot's dense ids.  Ids become labels only when
    :meth:`match_edges` is iterated (the result graph asks; an evaluation
    that only needs the relation never does).  Unlike
    :class:`BoundedState` it holds nothing an incremental maintainer
    could work from: candidates that are not matches have no rows.
    """

    __slots__ = ("graph", "pattern", "rows", "labels")

    def __init__(
        self,
        graph: Graph,
        pattern: Pattern,
        rows: dict[PatternEdge, dict[int, dict[int, int]]],
        labels: Sequence[NodeId],
    ) -> None:
        self.graph = graph
        self.pattern = pattern
        self.rows = rows
        self.labels = labels

    def match_edges(self) -> Iterator[tuple[NodeId, NodeId, int]]:
        """Same contract as :meth:`BoundedState.match_edges`."""
        labels = self.labels
        for edge_rows in self.rows.values():
            for source, row in edge_rows.items():
                source_label = labels[source]
                for reached, dist in row.items():
                    yield (source_label, labels[reached], dist)
