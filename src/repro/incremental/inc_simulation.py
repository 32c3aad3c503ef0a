"""Incremental graph simulation (the SIGMOD 2011 module, simulation case).

Maintains ``M(Q,G)`` under edge updates by touching only the *affected
area* instead of recomputing from scratch:

* **deletion** can only shrink the relation: decrement the one counter the
  edge supported and cascade removals through the usual worklist;
* **insertion** can only grow it: collect the candidate pairs that could be
  resurrected (the reverse closure of the inserted edge's tail over
  non-member candidates), optimistically assume they all rejoin, and run the
  removal refinement *inside that set only* — this finds mutually-dependent
  resurrections on cyclic patterns that a simple cascading join would miss,
  because the greatest fixpoint must be approached from above.

Counters are maintained for every *candidate* (not just current members),
which is what makes the resurrection check O(affected area).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from repro.errors import EvaluationError, UpdateError
from repro.graph.digraph import Graph, NodeId
from repro.incremental.updates import (
    AttributeUpdate,
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
    Update,
)
from repro.matching.base import ChangeLog, MatchRelation
from repro.matching.simulation import simulation_candidates
from repro.pattern.pattern import Pattern

PatternEdge = tuple[str, str]


class IncrementalSimulation:
    """Maintains a plain-simulation match relation under edge updates.

    >>> from repro.graph.digraph import Graph
    >>> from repro.pattern.pattern import Pattern
    >>> from repro.incremental.updates import EdgeInsertion
    >>> g = Graph.from_edges([], nodes={"a": {"l": "X"}, "b": {"l": "Y"}})
    >>> q = Pattern(); q.add_node("X", 'l == "X"'); q.add_node("Y", 'l == "Y"')
    >>> q.add_edge("X", "Y", 1)
    >>> inc = IncrementalSimulation(g, q)
    >>> inc.relation().is_empty
    True
    >>> inc.apply(EdgeInsertion("a", "b"))
    >>> sorted(inc.relation().pairs())
    [('X', 'a'), ('Y', 'b')]
    """

    __slots__ = (
        "graph", "pattern", "cand", "sim", "cnt", "_in_edges", "_out_edges", "_log",
    )

    def __init__(self, graph: Graph, pattern: Pattern, index=None) -> None:
        pattern.validate()
        self.graph = graph
        self.pattern = pattern
        self.cand: dict[str, set[NodeId]] = simulation_candidates(
            graph, pattern, index=index
        )
        self.sim: dict[str, set[NodeId]] = {u: set(vs) for u, vs in self.cand.items()}
        self.cnt: dict[PatternEdge, dict[NodeId, int]] = {}
        # Armed after the initial fixpoint: that is evaluation, not change.
        self._log: ChangeLog | None = None
        self._in_edges: dict[str, list[PatternEdge]] = {u: [] for u in pattern.nodes()}
        self._out_edges: dict[str, list[PatternEdge]] = {u: [] for u in pattern.nodes()}
        for source, target, _bound in pattern.edges():
            edge = (source, target)
            self._in_edges[target].append(edge)
            self._out_edges[source].append(edge)
        seeds: list[tuple[str, NodeId]] = []
        for source, target, _bound in pattern.edges():
            edge = (source, target)
            child = self.sim[target]
            counts: dict[NodeId, int] = {}
            for node in self.cand[source]:
                counts[node] = sum(1 for s in graph.successors(node) if s in child)
                if counts[node] == 0:
                    seeds.append((source, node))
            self.cnt[edge] = counts
        self._removal_fixpoint(seeds)
        self._log = ChangeLog()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def relation(self) -> MatchRelation:
        """Current ``M(Q,G)`` (paper semantics: total or empty)."""
        return MatchRelation.from_sets(self.pattern, self.sim)

    def drain_changes(self) -> tuple[set[tuple[str, NodeId]], set[NodeId]]:
        """``(toggled pairs, dirty nodes)`` since the last drain (see
        :class:`~repro.matching.base.ChangeLog`); the log restarts empty."""
        return self._log.drain()

    def match_row(self, data_node: NodeId) -> tuple[set[str], dict[NodeId, int]]:
        """One node's share of the result graph, read off the live state.

        The pattern nodes ``data_node`` currently matches and its out-row:
        every successor that matches the target of one of their out-edges,
        at weight 1 (all bounds of a simulation pattern are 1).  Only
        meaningful while no ``sim`` set is empty (``M(Q,G)`` is total).
        """
        matched: set[str] = set()
        row: dict[NodeId, int] = {}
        for pattern_node in self.pattern.nodes():
            if data_node not in self.sim[pattern_node]:
                continue
            matched.add(pattern_node)
            for _source, target_pattern in self._out_edges[pattern_node]:
                child = self.sim[target_pattern]
                for successor in self.graph.successors(data_node):
                    if successor in child:
                        row[successor] = 1
        return matched, row

    def _log_toggled(self, pairs: Iterable[tuple[str, NodeId]]) -> None:
        """Record membership flips: each pair, its data node and the node's
        predecessors (their out-rows gain or lose the edge to it) — none
        for a node already deleted, whose edges went first, tail by tail."""
        log = self._log
        for pattern_node, data_node in pairs:
            log.toggled.add((pattern_node, data_node))
            log.dirty.add(data_node)
            if self._in_edges[pattern_node] and self.graph.has_node(data_node):
                log.dirty.update(self.graph.predecessors(data_node))

    def apply(self, update: Update, apply_to_graph: bool = True) -> None:
        """Apply one edge update to the graph *and* the match state.

        ``apply_to_graph=False`` assumes the caller already mutated the
        shared graph (the engine applies each update once and then informs
        every maintainer); state maintenance alone is performed.
        """
        if isinstance(update, EdgeInsertion):
            if apply_to_graph:
                update.apply(self.graph)
            self._after_insertion(update.source, update.target)
        elif isinstance(update, EdgeDeletion):
            if apply_to_graph:
                update.apply(self.graph)
            self._after_deletion(update.source, update.target)
        elif isinstance(update, (NodeInsertion, AttributeUpdate)):
            if apply_to_graph:
                update.apply(self.graph)
            self._candidacy_changed(update.node)
        elif isinstance(update, NodeDeletion):
            self._apply_node_deletion(update, apply_to_graph)
        else:
            raise UpdateError(f"unknown update type: {update!r}")

    def _apply_node_deletion(self, update: NodeDeletion, apply_to_graph: bool) -> None:
        """Node removal; with ``apply_to_graph=False`` the caller must have
        already routed the incident edge deletions through :meth:`apply`
        (see ``updates.decompose``)."""
        if apply_to_graph:
            node = update.node
            for successor in list(self.graph.successors(node)):
                self.apply(EdgeDeletion(node, successor))
            for predecessor in list(self.graph.predecessors(node)):
                if predecessor != node:
                    self.apply(EdgeDeletion(predecessor, node))
            self._node_removed(node)
            update.apply(self.graph)
        else:
            self._node_removed(update.node)

    def apply_batch(self, updates: Sequence[Update], apply_to_graph: bool = True) -> None:
        """Apply a batch in order (each update maintained incrementally)."""
        for update in updates:
            self.apply(update, apply_to_graph=apply_to_graph)

    # ------------------------------------------------------------------
    # deletion: counters down, cascade removals
    # ------------------------------------------------------------------
    def _after_deletion(self, tail: NodeId, head: NodeId) -> None:
        seeds: list[tuple[str, NodeId]] = []
        for edge in self._edges_touching(tail, head):
            self._log.dirty.add(tail)
            source_pattern, target_pattern = edge
            counts = self.cnt[edge]
            self_counts = counts.get(tail)
            if self_counts is None or head not in self.sim[target_pattern]:
                continue
            counts[tail] -= 1
            if counts[tail] == 0 and tail in self.sim[source_pattern]:
                seeds.append((source_pattern, tail))
        self._removal_fixpoint(seeds)

    def _edges_touching(self, tail: NodeId, head: NodeId) -> list[PatternEdge]:
        """Pattern edges whose counter for ``tail`` may reference ``head``."""
        out = []
        for edge, counts in self.cnt.items():
            if tail in counts and head in self.cand[edge[1]]:
                out.append(edge)
        return out

    def _removal_fixpoint(self, seeds: Iterable[tuple[str, NodeId]]) -> None:
        queue: deque[tuple[str, NodeId]] = deque(seeds)
        removed: list[tuple[str, NodeId]] = []
        while queue:
            pattern_node, data_node = queue.popleft()
            if data_node not in self.sim[pattern_node]:
                continue
            if not self._fails_some_edge(pattern_node, data_node):
                continue
            self.sim[pattern_node].remove(data_node)
            removed.append((pattern_node, data_node))
            for edge in self._in_edges[pattern_node]:
                counts = self.cnt[edge]
                parent_pattern = edge[0]
                for upstream in self.graph.predecessors(data_node):
                    if upstream in counts:
                        counts[upstream] -= 1
                        if counts[upstream] == 0 and upstream in self.sim[parent_pattern]:
                            queue.append((parent_pattern, upstream))
        if removed and self._log is not None:
            self._log_toggled(removed)

    def _fails_some_edge(self, pattern_node: str, data_node: NodeId) -> bool:
        for edge in self._out_edges[pattern_node]:
            if self.cnt[edge].get(data_node, 0) == 0:
                return True
        return False

    def _force_remove(self, pattern_node: str, data_node: NodeId) -> None:
        """Unconditional membership removal (predicate stopped holding),
        then the ordinary guarded cascade for anything it destabilizes."""
        if data_node not in self.sim[pattern_node]:
            return
        self.sim[pattern_node].remove(data_node)
        self._log_toggled([(pattern_node, data_node)])
        # A node being deleted may already be gone from the graph; its
        # incident edges were removed first, so it has no predecessors.
        predecessors = (
            list(self.graph.predecessors(data_node))
            if self.graph.has_node(data_node)
            else []
        )
        seeds: list[tuple[str, NodeId]] = []
        for edge in self._in_edges[pattern_node]:
            counts = self.cnt[edge]
            parent_pattern = edge[0]
            for upstream in predecessors:
                if upstream in counts:
                    counts[upstream] -= 1
                    if counts[upstream] == 0 and upstream in self.sim[parent_pattern]:
                        seeds.append((parent_pattern, upstream))
        self._removal_fixpoint(seeds)

    # ------------------------------------------------------------------
    # node-level updates: candidacy changes
    # ------------------------------------------------------------------
    def _candidacy_changed(self, node: NodeId) -> None:
        """Re-evaluate every pattern predicate on ``node`` and repair
        candidate sets, counters and membership accordingly."""
        attrs = self.graph.attrs(node)
        join_seeds: list[tuple[str, NodeId]] = []
        for pattern_node in self.pattern.nodes():
            holds = self.pattern.predicate(pattern_node).evaluate(attrs)
            was_candidate = node in self.cand[pattern_node]
            if holds == was_candidate:
                continue
            if holds:
                self.cand[pattern_node].add(node)
                for edge in self._out_edges[pattern_node]:
                    child = self.sim[edge[1]]
                    self.cnt[edge][node] = sum(
                        1 for s in self.graph.successors(node) if s in child
                    )
                join_seeds.append((pattern_node, node))
            else:
                self._force_remove(pattern_node, node)
                self.cand[pattern_node].discard(node)
                for edge in self._out_edges[pattern_node]:
                    self.cnt[edge].pop(node, None)
        if join_seeds:
            self._resurrect(join_seeds)

    def _node_removed(self, node: NodeId) -> None:
        """Drop a node whose incident edges are already gone."""
        for pattern_node in self.pattern.nodes():
            if node in self.sim[pattern_node]:
                self._force_remove(pattern_node, node)
            if node in self.cand[pattern_node]:
                self.cand[pattern_node].discard(node)
                for edge in self._out_edges[pattern_node]:
                    self.cnt[edge].pop(node, None)

    # ------------------------------------------------------------------
    # insertion: counters up, optimistic local resurrection
    # ------------------------------------------------------------------
    def _after_insertion(self, tail: NodeId, head: NodeId) -> None:
        join_seeds: list[tuple[str, NodeId]] = []
        for edge in self._edges_touching(tail, head):
            self._log.dirty.add(tail)
            source_pattern, target_pattern = edge
            if head in self.sim[target_pattern]:
                self.cnt[edge][tail] += 1
            if tail not in self.sim[source_pattern]:
                join_seeds.append((source_pattern, tail))
        if join_seeds:
            self._resurrect(join_seeds)

    def _resurrect(self, seeds: Iterable[tuple[str, NodeId]]) -> None:
        """Optimistic local greatest-fixpoint over the affected closure."""
        affected: dict[str, set[NodeId]] = {u: set() for u in self.pattern.nodes()}
        frontier: deque[tuple[str, NodeId]] = deque()
        for pattern_node, data_node in seeds:
            if data_node not in affected[pattern_node]:
                affected[pattern_node].add(data_node)
                frontier.append((pattern_node, data_node))
        while frontier:
            pattern_node, data_node = frontier.popleft()
            for edge in self._in_edges[pattern_node]:
                parent_pattern = edge[0]
                for upstream in self.graph.predecessors(data_node):
                    if (
                        upstream in self.cand[parent_pattern]
                        and upstream not in self.sim[parent_pattern]
                        and upstream not in affected[parent_pattern]
                    ):
                        affected[parent_pattern].add(upstream)
                        frontier.append((parent_pattern, upstream))

        # Optimistically assume every affected candidate rejoins, then refine.
        opt_cnt: dict[PatternEdge, dict[NodeId, int]] = {}
        removal: deque[tuple[str, NodeId]] = deque()
        for source_pattern, members in affected.items():
            for data_node in members:
                for edge in self._out_edges[source_pattern]:
                    target_pattern = edge[1]
                    live = self.sim[target_pattern] | affected[target_pattern]
                    count = sum(
                        1 for s in self.graph.successors(data_node) if s in live
                    )
                    opt_cnt.setdefault(edge, {})[data_node] = count
                    if count == 0:
                        removal.append((source_pattern, data_node))
        while removal:
            pattern_node, data_node = removal.popleft()
            if data_node not in affected[pattern_node]:
                continue
            if not any(
                opt_cnt.get(edge, {}).get(data_node, 1) == 0
                for edge in self._out_edges[pattern_node]
            ):
                continue
            affected[pattern_node].remove(data_node)
            for edge in self._in_edges[pattern_node]:
                parent_pattern = edge[0]
                counts = opt_cnt.get(edge)
                if counts is None:
                    continue
                for upstream in self.graph.predecessors(data_node):
                    if upstream in counts and upstream not in self.sim[parent_pattern]:
                        counts[upstream] -= 1
                        if counts[upstream] == 0 and upstream in affected[parent_pattern]:
                            removal.append((parent_pattern, upstream))

        # Survivors join; bump the real counters of upstream candidates.
        for pattern_node, members in affected.items():
            for data_node in members:
                self.sim[pattern_node].add(data_node)
            self._log_toggled((pattern_node, data_node) for data_node in members)
        for pattern_node, members in affected.items():
            for data_node in members:
                for edge in self._in_edges[pattern_node]:
                    counts = self.cnt[edge]
                    for upstream in self.graph.predecessors(data_node):
                        if upstream in counts:
                            counts[upstream] += 1

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Recompute counters from scratch and compare (test support)."""
        for (source_pattern, target_pattern), counts in self.cnt.items():
            child = self.sim[target_pattern]
            if set(counts) != self.cand[source_pattern]:
                raise EvaluationError(f"cnt keys out of sync for {(source_pattern, target_pattern)}")
            for data_node, value in counts.items():
                expected = sum(
                    1 for s in self.graph.successors(data_node) if s in child
                )
                if value != expected:
                    raise EvaluationError(
                        f"cnt[{source_pattern}->{target_pattern}][{data_node!r}] "
                        f"= {value}, expected {expected}"
                    )
        for pattern_node, members in self.sim.items():
            for data_node in members:
                if self._fails_some_edge(pattern_node, data_node):
                    raise EvaluationError(
                        f"member fails an edge: ({pattern_node!r}, {data_node!r})"
                    )
