"""Bounded simulation — the paper's core matching semantics.

Given pattern ``Q`` whose edges carry length bounds and data graph ``G``,
``M(Q,G)`` is the maximum relation such that every match satisfies its
pattern node's search condition and, for every pattern edge ``(u,u')`` with
bound ``b``, reaches some match of ``u'`` by a nonempty path of length <= b
(``b = None`` is the paper's ``*``: plain reachability).

Two evaluators compute that relation, byte for byte the same:

* **Relation-first, over a frozen snapshot** — what a one-shot
  :func:`match_bounded` with ``frozen=`` runs (the served ``evaluate`` /
  ``top_k`` misses, the engine's direct route).  It runs one straight
  line.  ``sim`` starts at the candidate ids; one backward pass runs one
  multi-source BFS per pattern edge ``(u,u',b)`` over the snapshot's
  predecessor sets, sinks first, and shrinks ``sim(u)`` to the nodes that
  reach ``sim(u')`` by a nonempty path of length <= ``b``.  For an
  acyclic pattern that pass is exact; for a cyclic one every edge whose
  target set shrank since it ran is run again until none is left.  The
  bounded successor rows between the settled sets
  (:func:`frozen_successor_rows`), the result graph's weighted edges, are
  built on the first read of the result's :class:`MatchRows`: never for a
  caller that needs only the relation.  Only a cycle whose re-runs exceed
  a fixed multiple of the first pass's work
  (:data:`~repro.engine.estimator.REPASS_FACTOR`) builds them at once,
  between the sets as they stand; one linear removal cascade over them
  then drops every member left without a witness.  :class:`MatchRows`
  keeps the rows int-indexed and turns ids into labels only when the
  result graph is asked for.
* **Candidate-indexed state, over the dict graph** —
  :class:`BoundedState`, the cubic algorithm of Fan et al. (PVLDB 2010).
  It materializes, per pattern edge ``e`` and *candidate* ``v``, the
  bounded successor set ``S[e][v] = {v': dist}`` of child candidates
  within the bound, a reverse index ``R`` and live counters
  ``cnt[e][v] = |S[e][v] ∩ sim(child)|``, then cascades removals in
  worklist fashion, as the counter-based simulation algorithm of
  Henzinger et al. (FOCS 1995) does.
  Because ``S`` is indexed by candidates, membership changes never
  invalidate it — only graph distance changes do — which is why the
  incremental module (SIGMOD 2011) maintains this state under edge
  updates.

Under a guard (:class:`~repro.engine.estimator.QueryGuard`) both charge
node arrivals.  The relation-first line charges the backward BFS
arrivals of its pass, then the row arrivals of whatever reads the rows;
it runs exactly as unguarded.  A trip in the pass (or in the rows a
capped cycle builds) returns the empty relation, flagged partial: a set
the pass has not finished may be too large, and ``M(Q,G)`` is empty as
soon as one pattern node is unmatched, so the empty relation is the one
subset a cut pass can vouch for.  A trip while an exact relation's rows
are read later raises :class:`~repro.errors.BudgetExceededError`.
:class:`BoundedState` charges one per reached node of each candidate's
ball; a trip leaves unvisited candidates with empty rows, which its
removal fixpoint prunes to a valid, smaller simulation.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from itertools import islice
from threading import Lock
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import BudgetExceededError, EvaluationError
from repro.graph.digraph import Graph, NodeId
from repro.graph.distance import bounded_descendants, frozen_reach_levels
from repro.graph.frozen import FrozenGraph
from repro.graph.index import candidates_from_index, predicate_key
from repro.matching.base import ChangeLog, MatchRelation, MatchResult, Stopwatch
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

#: Ids the per-source ball memo of one snapshot may hold, per node and
#: edge of the snapshot: it admits balls until their summed level sizes
#: would pass ``FROZEN_BALL_MEMO_FACTOR * (|V| + |E|)``.  The 48 top-K
#: misses of ``serve_cold`` (seed 0) hold ~9 x (|V| + |E|).
FROZEN_BALL_MEMO_FACTOR = 16

#: Ids the predicate memo of one snapshot may hold, per node and edge of
#: the snapshot: candidate id sets, plus every stored backward BFS level
#: counted twice (the level, and the walk's set of ids it has reached).
#: A full seed-0 ``serve_cold`` run holds ~3 x (|V| + |E|).
FROZEN_PREDICATE_MEMO_FACTOR = 8

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

#: An ended walk of :class:`_Levels`.
_ENDED: Iterator[frozenset[int]] = iter(())


def frozen_successor_rows(
    frozen: FrozenGraph,
    out_edges_by_node: Mapping[str, Sequence[tuple[str, Bound]]],
    candidate_ids: Mapping[str, frozenset[int]],
    oracle=None,
    kernel_log: dict[PatternEdge, Any] | None = None,
    guard=None,
    route_on: Mapping[str, frozenset[int]] | None = None,
) -> dict[PatternEdge, dict[int, dict[int, int]]]:
    """Bounded successor rows for every source candidate, int-indexed.

    For each pattern node ``u`` with out-edges and each id ``v`` in
    ``candidate_ids[u]``, computes per out-edge ``(u, u')`` the row
    ``{w: dist}`` of the ids in ``candidate_ids[u']`` within the edge
    bound.  ``route_on``, when given, names the id sets the planner routes
    on in place of those: :func:`match_bounded` builds rows between the
    backward pass's sets but routes on the candidates, so the kernel
    choice does not depend on the answer.  This is
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
    per pattern edge.

    A ``guard`` (a :class:`~repro.engine.estimator.QueryGuard`) is charged
    the node arrivals every kernel makes, and no kernel starts new work
    once it trips: rows not reached stay at their initialized empty dict.
    Its caller then throws the rows away (:class:`MatchRows`,
    :func:`_match_relation_first`).
    """
    # Local import: the planner lives in the engine package, which imports
    # this module at load time — a module-level import would be circular.
    from repro.engine.planner import (
        KERNEL_ORACLE,
        KERNEL_PER_SOURCE,
        enumeration_kernel,
    )

    rows: dict[PatternEdge, dict[int, dict[int, int]]] = {}
    adjacency = frozen.successor_sets()
    route_on = candidate_ids if route_on is None else route_on
    for source_pattern, out_edges in out_edges_by_node.items():
        if not out_edges:
            continue
        sources = sorted(candidate_ids[source_pattern])
        routes = _edge_routes(
            frozen, oracle, source_pattern, out_edges,
            len(route_on[source_pattern]), route_on,
        )
        if kernel_log is not None:
            kernel_log.update(routes)
        oracle_edges = []
        enum_edges = []
        for edge_target, bound in out_edges:
            edge = (source_pattern, edge_target)
            rows[edge] = {source: {} for source in sources}
            item = (edge, bound, candidate_ids[edge_target])
            if routes[edge].kernel == KERNEL_ORACLE:
                oracle_edges.append(item)
            else:
                enum_edges.append(item)
        if not sources or guard is not None and guard.should_stop():
            continue
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
                depth, len(route_on[source_pattern]), FROZEN_BULK_DEPTH
            )
            if kernel == KERNEL_PER_SOURCE:
                _per_source_rows(
                    adjacency, _ball_memo(frozen), sources, depth, enum_edges,
                    rows, guard=guard,
                )
            else:
                _bitset_rows(
                    adjacency, sources, depth, enum_edges, rows, guard=guard
                )
    return rows


def _edge_routes(
    frozen, oracle, source, out_edges, num_sources, children
) -> dict[PatternEdge, Any]:
    """The planner's route of each out-edge ``(source, u')``, on
    ``num_sources`` sources and the size of ``children[u']``
    (:func:`repro.engine.planner.route_edge`)."""
    from repro.engine.planner import route_edge

    profile = oracle.profile() if oracle is not None else None
    return {
        (source, target): route_edge(
            (source, target), bound, num_sources, len(children[target]),
            frozen.num_nodes, frozen.num_edges,
            profile if oracle is not None and oracle.covers(bound) else None,
            bulk_depth=FROZEN_BULK_DEPTH,
        )
        for target, bound in out_edges
    }


def _per_source_rows(
    adjacency, memo, sources, depth, edge_data, rows, guard=None
) -> None:
    """One level BFS per source; per-level set intersections filter rows.

    A source's level sets depend only on the snapshot, the source and the
    depth, so they come from the snapshot's ball memo (``memo``, a
    :class:`_BallMemo`): a source earlier calls walked as deep is a slice,
    not a BFS, and the rows, their order included, are the same either way.

    With a ``guard``, each source's ball is charged (sum of its level
    sizes, memoised or not) and row construction stops before the next
    source once the guard trips — completed rows are exact, unstarted rows
    stay empty.
    """
    for source in sources:
        if guard is not None and guard.should_stop():
            break
        levels = memo.levels(adjacency, source, depth)
        if guard is not None:
            guard.charge(sum(len(level) for level in levels))
        for edge, bound, child_candidates in edge_data:
            entries = rows[edge][source]
            for dist, level in enumerate(levels[:bound], start=1):
                for reached in level & child_candidates:
                    entries[reached] = dist


def _ball_memo(frozen: FrozenGraph) -> "_BallMemo":
    """``frozen``'s ball memo, made on first use (racing first callers may
    each make one; one is kept)."""
    memo = frozen._balls
    if memo is None:
        memo = frozen._balls = _BallMemo(FROZEN_BALL_MEMO_FACTOR * frozen.size)
    return memo


class _BallMemo:
    """Per-source BFS level sets of one snapshot, up to a budget of ids.

    ``entries[source] = (depth, levels, size)``: the levels of
    :func:`~repro.graph.distance.frozen_reach_levels` to ``depth``, or to
    ``None`` when they hold the whole ball (a ``*`` request, or a BFS that
    ran out of nodes first), and their summed sizes.  A request no deeper
    than an entry is a prefix of its levels; a deeper one runs the BFS and
    replaces the entry.  A ball is stored on its source's second request
    (``asked`` holds the sources requested once), so balls no later call
    reuses — a top-K warmed once and then served from the rank cache —
    cost no memory.  Balls are admitted while the summed sizes stay within
    ``budget``; past it a miss still runs, unstored.  Reads take no lock;
    admissions take one, so the sizes add up under threads.
    """

    __slots__ = ("entries", "asked", "held", "budget", "_lock")

    def __init__(self, budget: int) -> None:
        self.entries: dict[int, tuple[int | None, list, int]] = {}
        self.asked: set[int] = set()
        self.held = 0
        self.budget = budget
        self._lock = Lock()

    def levels(self, adjacency, source: int, depth: int | None) -> list:
        entry = self.entries.get(source)
        if entry is not None and _covers(entry[0], depth):
            return entry[1][:depth]
        levels = frozen_reach_levels(adjacency, source, depth)
        if source not in self.asked:
            self.asked.add(source)
            return levels
        reach = None if depth is None or len(levels) < depth else depth
        size = sum(len(level) for level in levels)
        with self._lock:
            entry = self.entries.get(source)
            if entry is not None and _covers(entry[0], depth):
                return levels  # a racing caller stored this ball first
            held = self.held + size - (entry[2] if entry is not None else 0)
            if held <= self.budget:
                self.entries[source] = (reach, levels, size)
                self.held = held
        return levels


def _covers(reach: int | None, depth: int | None) -> bool:
    """Whether levels computed to ``reach`` hold those of a BFS to ``depth``."""
    return reach is None or (depth is not None and depth <= reach)


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
            candidates = candidates_from_index(graph, pattern, index)
        # Candidates are copied: the state owns and mutates its sets.
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
        self._build_successor_sets(guard=guard)
        self._initial_refinement()

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
    candidate_ids: Mapping[str, frozenset[int]] | None = None,
) -> MatchResult:
    """Compute ``M(Q,G)`` under bounded simulation.

    The returned :class:`MatchResult` carries what its result graph is
    read from, so deriving it costs no recomputation.  An optional
    :class:`~repro.graph.index.AttributeIndex` (``index``) serves candidate
    generation, and ``candidates`` supplies precomputed candidate sets
    outright (the batch evaluator's shared-work path); ``candidate_ids``
    supplies them as ids of ``frozen`` (the served path's
    :func:`predicate_candidates`).

    Without a snapshot the dict-graph :class:`BoundedState` is built and
    carried.  A ``frozen``
    snapshot of ``graph`` (usually the engine's cached one; it must match
    the graph's current ``version``) runs the relation-first evaluator
    instead — same relation, same result graph, far less work — and the
    result carries :class:`MatchRows`.  An ``oracle``
    (:class:`~repro.graph.oracle.DistanceOracle` built from a compatible
    snapshot) additionally lets the planner route selective pattern edges
    to pairwise label merges; ``stats["kernels"]`` is the route each
    edge's rows take when they are built, decided on the candidate counts.

    A ``budget`` (:class:`~repro.engine.estimator.QueryBudget`) guards the
    evaluation: it is charged node visits, and a blown limit either
    raises :class:`~repro.errors.BudgetExceededError` or — with
    ``allow_partial=True`` — degrades to a *sound subset* of the exact
    relation flagged ``stats["partial"] = True`` with the tripped guard in
    ``stats["guard"]`` (over a snapshot, the empty relation; a relation
    returned unflagged is exact, and reading its rows later charges the
    same guard and raises on a trip).

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
    if candidate_ids is not None and frozen is None:
        raise EvaluationError("candidate ids require the snapshot they index")
    guard = None
    if budget is not None and budget.is_limited:
        from repro.engine.estimator import QueryGuard

        guard = QueryGuard(budget)
    if candidates is not None or candidate_ids is not None:
        candidate_source = "precomputed"
    else:
        candidate_source = "scan" if index is None else "index"
        candidates = candidates_from_index(graph, pattern, index)
    kernels: dict[PatternEdge, Any] = {}
    state: BoundedState | MatchRows
    if frozen is None:
        state = BoundedState(graph, pattern, candidates=candidates, guard=guard)
        relation = state.relation()
    else:
        if candidate_ids is None:
            candidate_ids = snapshot_ids(frozen, candidates)
        relation, state = _match_relation_first(
            graph, pattern, candidate_ids, frozen, oracle, kernels, guard
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


def snapshot_ids(
    frozen: FrozenGraph, candidates: Mapping[str, Iterable[NodeId]]
) -> dict[str, frozenset[int]]:
    """Candidates by label as ``frozen``'s ids: the one translation for
    callers that hold label sets."""
    ids = frozen.ids()
    return {u: frozenset(map(ids.__getitem__, vs)) for u, vs in candidates.items()}


def _match_relation_first(
    graph: Graph,
    pattern: Pattern,
    candidate_ids: Mapping[str, frozenset[int]],
    frozen: FrozenGraph,
    oracle,
    kernel_log: dict[PatternEdge, Any],
    guard,
) -> tuple[MatchRelation, "MatchRows"]:
    """The backward pass, re-run on a cycle until the sets settle; rows
    between the settled sets on first read.  Once the re-pass cap trips,
    rows and one removal cascade run now instead.  A guard that trips in
    the pass or in those rows leaves the empty relation.

    An edge into a sink pattern node whose candidates are a set of the
    snapshot's predicate memo (by identity) reads the memo's backward
    BFS levels from it instead of running the BFS."""
    labels = frozen.labels
    predecessors = frozen.predecessor_sets()
    out_edges_by_node = {u: tuple(pattern.out_edges(u)) for u in pattern.nodes()}
    sinks = {}
    memo = frozen._predicates
    if memo is not None:
        for u, out_edges in out_edges_by_node.items():
            levels = None if out_edges else memo.levels.get(id(candidate_ids[u]))
            if levels is not None and levels.targets is candidate_ids[u]:
                sinks[u] = partial(memo.read, levels, predecessors)
    sim = {u: set(vs) for u, vs in candidate_ids.items()}
    settled = _membership_pass(predecessors, pattern, sim, guard, sinks)
    pending = (frozen, out_edges_by_node, sim, oracle, candidate_ids, guard)
    rows = None
    if settled is None:
        # The re-pass cap tripped and left sets that may be too large:
        # rows between them and the cascade finish the fixpoint.  Rows a
        # guard cut short vouch for nothing.
        rows = _rows_between(frozen, out_edges_by_node, sim, oracle, candidate_ids, guard)
        settled = _within(guard) and _removal_cascade(sim, rows)
    # Routed on the candidates, as the rows are (the kernel log does not
    # depend on the answer).
    for u, out_edges in out_edges_by_node.items():
        kernel_log.update(_edge_routes(
            frozen, oracle, u, out_edges, len(candidate_ids[u]), candidate_ids
        ))
    if not settled:
        # Some set is empty or a guard tripped: M(Q,G) is empty, or the
        # empty relation is the one subset of it a cut pass can vouch for.
        sim = dict.fromkeys(sim, _NO_IDS)
        rows = {edge: {} for edge in kernel_log}
    state = MatchRows(graph, pattern, labels, rows, pending if rows is None else None)
    relation = MatchRelation.from_sets(
        pattern, {u: frozenset(map(labels.__getitem__, vs)) for u, vs in sim.items()}
    )
    return relation, state


def _within(guard) -> bool:
    """Whether ``guard`` (or its absence) has not tripped."""
    return guard is None or guard.tripped is None


def _rows_between(
    frozen, out_edges_by_node, sim, oracle, candidate_ids, guard=None
) -> dict[PatternEdge, dict[int, dict[int, int]]]:
    """Rows between the sets of ``sim``, routed on the candidates: the one
    call that builds a relation-first result's rows, now or on first read."""
    return frozen_successor_rows(
        frozen, out_edges_by_node, sim, oracle=oracle, guard=guard,
        route_on=candidate_ids,
    )


def bounded_relation(
    graph: Graph,
    pattern: Pattern,
    frozen: FrozenGraph,
    index=None,
) -> MatchRelation:
    """``M(Q,G)`` alone: :func:`match_bounded`'s relation over ``frozen``
    (no oracle, no guard; rows only for the cascade of a cycle whose
    re-pass cap trips).

    At bound 1 bounded simulation *is* graph simulation, so this answers
    plain simulation patterns too — the engine's compressed route runs it
    on the quotient's snapshot, with candidates from the quotient's
    ``index`` where it keeps one (as
    :func:`~repro.matching.simulation.simulation_candidates`).

    >>> from repro.graph.digraph import Graph
    >>> from repro.pattern.pattern import Pattern
    >>> g = Graph.from_edges(
    ...     [("a", "b"), ("b", "a")],
    ...     nodes={"a": {"l": "X"}, "b": {"l": "Y"}},
    ... )
    >>> q = Pattern(); q.add_node("X", 'l == "X"'); q.add_node("Y", 'l == "Y"')
    >>> q.add_edge("X", "Y", 1); q.add_edge("Y", "X", 1)
    >>> sorted(bounded_relation(g, q, FrozenGraph.freeze(g)).pairs())
    [('X', 'a'), ('Y', 'b')]
    """
    return match_bounded(graph, pattern, index=index, frozen=frozen).relation


def _membership_pass(
    predecessors: Sequence[frozenset[int]],
    pattern: Pattern,
    sim: dict[str, set[int]],
    guard=None,
    sinks: Mapping[str, Callable[[], Iterator[frozenset[int]]]] | None = None,
) -> bool | None:
    """Shrink ``sim`` (candidate ids, in place) to ``M(Q,G)``'s sets with
    backward BFSs: one per pattern edge, sinks first, then re-runs of
    stale edges.

    Edge ``(u, u', b)`` keeps only the members of ``sim(u)`` that reach
    the current ``sim(u')`` by a nonempty path of length <= b.  Pattern
    nodes are visited in DFS postorder along out-edges, so in an acyclic
    pattern every ``sim(u')`` is final before an edge into it runs and the
    pass alone yields ``M(Q,G)``'s sets.  In a cyclic one a back edge
    (self-loops included) may have run against a superset: every edge
    whose target set shrank since it last ran is re-run, and a set that
    shrinks queues the edges into it, until no edge is stale.  Every edge
    then holds against the current sets, the greatest such fixpoint below
    the candidates, which is ``M(Q,G)``.

    Returns False as soon as some set is empty (the relation is empty)
    or ``guard`` trips, True once the sets are ``M(Q,G)``'s, and None once
    the re-runs have cost :data:`~repro.engine.estimator.REPASS_FACTOR`
    times the first pass's BFS arrivals: the sets may still be too large,
    and rows and :func:`_removal_cascade` must finish the fixpoint (a path
    matched against ``A <-> B`` sheds one node per round, quadratic in
    re-runs and linear in the cascade).  A guard is charged every
    arrival the levels read (:func:`_reaching`).

    ``sinks`` maps sink pattern nodes to readers of the memoised backward
    BFS levels from their (unchanging) sets: an edge into one reads them,
    with the same result, arrivals and guard charges as running the BFS.
    """

    def levels_into(target: str) -> Iterator[frozenset[int]]:
        memoised = sinks.get(target) if sinks else None
        if memoised is not None:
            return memoised()
        return _backward_levels(predecessors, sim[target])

    if not all(sim.values()):
        return False
    ran: dict[PatternEdge, int] = {}  # edge -> |sim(u')| when it ran
    arrivals = 0
    for source in _sinks_first(pattern):
        for target, bound in pattern.out_edges(source):
            ran[(source, target)] = len(sim[target])
            sim[source], reached = _reaching(
                levels_into(target), bound, sim[source], guard
            )
            arrivals += reached
            if not sim[source]:
                return False
    from repro.engine.estimator import REPASS_FACTOR

    stale = deque(edge for edge, size in ran.items() if len(sim[edge[1]]) < size)
    queued = set(stale)
    allowance = REPASS_FACTOR * arrivals
    while stale:
        if allowance < 0:
            return None
        edge = stale.popleft()
        queued.remove(edge)
        source, target = edge
        before = len(sim[source])
        sim[source], reached = _reaching(
            levels_into(target), pattern.bound(source, target), sim[source], guard
        )
        allowance -= reached
        if not sim[source]:
            return False
        if len(sim[source]) < before:
            for upstream, _bound in pattern.in_edges(source):
                if (upstream, source) not in queued:
                    queued.add((upstream, source))
                    stale.append((upstream, source))
    return True


def _sinks_first(pattern: Pattern) -> list[str]:
    """Pattern nodes in DFS postorder along out-edges (iterative, so a
    deep pattern cannot reach the recursion limit): every node follows
    the nodes it reaches, except along a back edge of a cycle."""
    order: list[str] = []
    seen: set[str] = set()
    for root in pattern.nodes():
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(pattern.out_edges(root)))]
        while stack:
            node, children = stack[-1]
            for child, _bound in children:
                if child not in seen:
                    seen.add(child)
                    stack.append((child, iter(pattern.out_edges(child))))
                    break
            else:
                stack.pop()
                order.append(node)
    return order


def _removal_cascade(
    sim: dict[str, set[int]],
    rows: dict[PatternEdge, dict[int, dict[int, int]]],
) -> bool:
    """Finish the fixpoint over rows between the sets
    :func:`_membership_pass` left unsettled: under a guard, or once a
    cycle's re-passes hit their cap.

    Every member ``v`` of ``sim(u)`` has a row per out-edge ``(u, u')``,
    built against the same sets, so its live count is the row's length.
    A member with an empty row fails that edge: it leaves ``sim(u)``, and
    the count of every source whose row holds it drops by one, queueing
    that source at zero — linear in the rows.  The reverse index is built
    only when some count starts at zero (never when the pass's sets were
    already ``M(Q,G)``'s, unless a guard cut rows short).  Rows are then
    cut to the survivors.
    Returns False as soon as some set is empty (the relation is empty).
    """
    counts = {
        edge: {v: len(row) for v, row in edge_rows.items()}
        for edge, edge_rows in rows.items()
    }
    queue = deque(
        (edge[0], v)
        for edge, edge_counts in counts.items()
        for v, live in edge_counts.items()
        if not live
    )
    if not queue:
        return True
    reverse: dict[PatternEdge, dict[int, list[int]]] = {}
    in_edges: dict[str, list[PatternEdge]] = {u: [] for u in sim}
    for edge, edge_rows in rows.items():
        in_edges[edge[1]].append(edge)
        index = reverse[edge] = {}
        for v, row in edge_rows.items():
            for reached in row:
                index.setdefault(reached, []).append(v)
    while queue:
        pattern_node, data_node = queue.popleft()
        members = sim[pattern_node]
        if data_node not in members:
            continue
        members.remove(data_node)
        if not members:
            return False
        for edge in in_edges[pattern_node]:
            edge_counts = counts[edge]
            upstream = sim[edge[0]]
            for v in reverse[edge].get(data_node, ()):
                edge_counts[v] -= 1
                if not edge_counts[v] and v in upstream:
                    queue.append((edge[0], v))
    for (source, target), edge_rows in rows.items():
        sources, targets = sim[source], sim[target]
        rows[(source, target)] = {
            v: {reached: dist for reached, dist in row.items() if reached in targets}
            for v, row in edge_rows.items()
            if v in sources
        }
    return True


def _reaching(
    levels: Iterator[frozenset[int]],
    bound: Bound,
    wanted: set[int],
    guard=None,
) -> tuple[set[int], int]:
    """The ids of ``wanted`` with a nonempty path of length <= ``bound``
    into the targets of ``levels`` (:func:`_backward_levels`), and the
    arrivals of the levels read: a level is read only while some wanted
    id is unreached and the bound allows it.  A ``guard`` is charged each
    level's arrivals; once it trips no further level is read and no id
    is vouched for (the empty set)."""
    pending = set(wanted)
    found: set[int] = set()
    arrivals = depth = 0
    while pending and (bound is None or depth < bound):
        arrived = next(levels, None)
        if arrived is None:
            break
        depth += 1
        arrivals += len(arrived)
        hits = pending & arrived
        found |= hits
        pending -= hits
        if guard is not None:
            guard.charge(len(arrived))
            if guard.should_stop():
                return set(), arrivals
    return found, arrivals


def _backward_levels(
    predecessors: Sequence[frozenset[int]], targets: Iterable[int]
) -> Iterator[frozenset[int]]:
    """The levels of one multi-source backward BFS from ``targets``: the
    ids whose shortest nonempty path into ``targets`` has length 1, 2, ...
    (a target is in a level only if it reaches a target)."""
    seen: set[int] = set()
    frontier = targets
    while True:
        arrived = _NO_IDS.union(*map(predecessors.__getitem__, frontier)) - seen
        if not arrived:
            return
        seen |= arrived
        yield arrived
        frontier = arrived


def predicate_candidates(
    frozen: FrozenGraph, pattern: Pattern, resolve
) -> dict[str, frozenset[int]]:
    """Each pattern node's candidates as ``frozen``'s ids, from the
    snapshot's predicate memo; what it lacks comes from ``resolve(pattern)``
    (label sets per pattern node), translated and admitted."""
    memo = frozen._predicates
    if memo is None:
        memo = frozen._predicates = _PredicateMemo(
            FROZEN_PREDICATE_MEMO_FACTOR * frozen.size
        )
    keys = {u: predicate_key(pattern.predicate(u)) for u in pattern.nodes()}
    answers = {u: memo.ids.get(key) for u, key in keys.items()}
    missing = [u for u, ids in answers.items() if ids is None]
    if missing:
        labels = resolve(pattern)
        for u, ids in snapshot_ids(frozen, {u: labels[u] for u in missing}).items():
            answers[u] = memo.admit(keys[u], ids)
    return answers  # type: ignore[return-value]


class _PredicateMemo:
    """Per-predicate answers over one snapshot, up to a budget of ids.

    ``ids[key]`` holds the candidate ids of the predicate with
    :func:`~repro.graph.index.predicate_key` ``key``, and
    ``levels[id(ids[key])]`` the backward BFS levels from them
    (:class:`_Levels`).  Sets and levels are admitted while the held ids
    stay within ``budget``; past it answers are computed, unstored.
    Reads take no lock; admissions and level extensions take one.
    """

    __slots__ = ("ids", "levels", "held", "budget", "_lock")

    def __init__(self, budget: int) -> None:
        self.ids: dict[tuple, frozenset[int]] = {}
        self.levels: dict[int, _Levels] = {}
        self.held = 0
        self.budget = budget
        self._lock = Lock()

    def admit(self, key: tuple, ids: frozenset[int]) -> frozenset[int]:
        """The memo's set for ``key``: ``ids``, stored if it fits.  An
        identity key (an unhashable constant) is never stored: once its
        predicate is collected, another may reuse the id."""
        if key[0] == "unhashable":
            return ids
        with self._lock:
            stored = self.ids.get(key)
            if stored is not None:
                return stored  # a racing caller stored it first
            if self.held + len(ids) <= self.budget:
                self.ids[key] = ids
                self.levels[id(ids)] = _Levels(ids)
                self.held += len(ids)
        return ids

    def read(self, levels: _Levels, predecessors) -> Iterator[frozenset[int]]:
        """The levels of ``levels``, stored from their second read on, so
        levels no later read reuses (a pattern warmed once, then served
        from the query cache) cost no memory."""
        if not levels.asked:
            levels.asked = True
            yield from _backward_levels(predecessors, set(levels.targets))
            return
        depth = 0
        while depth < len(levels.stored) or self._extend(levels, predecessors, depth):
            yield levels.stored[depth]
            depth += 1
        if levels.capped:
            walk = _backward_levels(predecessors, set(levels.targets))
            yield from islice(walk, depth, None)

    def _extend(self, levels: _Levels, predecessors, depth: int) -> bool:
        """Whether level ``depth`` is stored, storing it if the walk can."""
        with self._lock:
            if depth < len(levels.stored):
                return True  # a racing reader stored it
            if levels.walk is None:
                levels.walk = _backward_levels(predecessors, set(levels.targets))
            level = next(levels.walk, None)
            if level is None or self.held + 2 * len(level) > self.budget:
                levels.walk, levels.capped = _ENDED, levels.capped or level is not None
                return False
            levels.stored.append(level)
            self.held += 2 * len(level)
            return True


class _Levels:
    """The levels of :func:`_backward_levels` from a copy of one memoised
    set (the copy a pass's ``sim`` holds).  The first read walks
    privately (``asked``); later ones read the levels ``stored`` so far
    and extend them by the shared ``walk`` (None until then), which ends
    once the BFS runs out or the budget refuses a level (``capped``:
    deeper reads then walk privately).  No reference back to the memo: a
    retired snapshot's memo is freed without a cycle collection."""

    __slots__ = ("targets", "asked", "stored", "walk", "capped")

    def __init__(self, targets: frozenset[int]) -> None:
        self.targets = targets
        self.asked = False
        self.stored: list[frozenset[int]] = []
        self.walk: Iterator[frozenset[int]] | None = None
        self.capped = False


class MatchRows:
    """The weighted edges of a relation-first result, int-indexed.

    ``rows[(u, u')][v] = {v': dist}`` holds, per pattern edge, every match
    ``v`` of ``u`` and the matches ``v'`` of ``u'`` it reaches within the
    bound, over the snapshot's dense ids; an evaluation whose sets
    settled leaves ``pending`` to build them on first read.  Ids become labels
    only when :meth:`match_edges` is iterated (the result graph asks; an
    evaluation that only needs the relation never does).  Unlike
    :class:`BoundedState` it holds nothing an incremental maintainer
    could work from: candidates that are not matches have no rows.
    """

    __slots__ = ("graph", "pattern", "labels", "_rows", "_pending")

    def __init__(
        self,
        graph: Graph,
        pattern: Pattern,
        labels: Sequence[NodeId],
        rows: dict[PatternEdge, dict[int, dict[int, int]]] | None,
        pending: tuple | None = None,
    ) -> None:
        self.graph = graph
        self.pattern = pattern
        self.labels = labels
        self._rows = rows
        self._pending = pending

    @property
    def rows(self) -> dict[PatternEdge, dict[int, dict[int, int]]]:
        """The rows; the first read builds them, then drops ``pending``
        (racing first readers build equal rows, and the last store wins).

        The build charges the evaluation's guard: its node visits go on
        adding up, and its time limit restarts when the build does.  The
        relation was handed out as complete, so rows it cut short are
        never returned: a trip raises
        :class:`~repro.errors.BudgetExceededError`, with or without
        ``allow_partial``, and every later read raises again."""
        if self._rows is None:
            pending = self._pending
            if pending is not None:
                guard = pending[-1]
                if guard is not None:
                    guard.restart_clock()
                try:
                    rows = _rows_between(*pending)
                except BudgetExceededError:  # restated below, for a read
                    rows = None
                if not _within(guard):
                    raise BudgetExceededError(
                        f"query exceeded its {guard.tripped} building the "
                        f"rows of an exact relation (visits={guard.visits}, "
                        f"budget={guard.budget}); the relation stands, but "
                        "its result graph does not fit this budget"
                    )
                self._rows = rows
                self._pending = None
        return self._rows  # type: ignore[return-value]

    def match_edges(self) -> Iterator[tuple[NodeId, NodeId, int]]:
        """Same contract as :meth:`BoundedState.match_edges`."""
        labels = self.labels
        for edge_rows in self.rows.values():
            for source, row in edge_rows.items():
                source_label = labels[source]
                for reached, dist in row.items():
                    yield (source_label, labels[reached], dist)
