"""Incremental bounded simulation (the SIGMOD 2011 module, bounded case).

Bounded simulation depends on path *lengths*, so an edge update can affect
matches far from the touched edge — but never farther than the largest
pattern bound.  The maintenance strategy, operating on the matcher's
:class:`~repro.matching.bounded.BoundedState`:

1. **Distance maintenance.**  Only nodes that reach the updated edge's tail
   within ``D - 1`` hops (``D`` = the largest BFS depth any pattern edge
   needs) can see their bounded successor sets change.  Each such node gets
   one fresh truncated BFS and its ``S``/``R``/``cnt`` rows are diffed in
   place.  Insertions only ever add entries (distances shrink); deletions
   only ever drop them (distances grow) — the diff handles both uniformly.
2. **Membership maintenance.**  Entry losses seed the ordinary removal
   cascade.  Entry gains seed *resurrection*: the affected closure of
   non-member candidates is collected through the reverse index ``R``,
   optimistically assumed back in, and refined downward — the greatest
   fixpoint must be approached from above or cyclic patterns lose
   mutually-dependent matches.

Plain simulation runs this same maintainer with every bound read as 1
(:class:`~repro.incremental.inc_simulation.IncrementalSimulation`): the
ancestor depth is then 0, so the affected area is only the tail of the
updated edge.  The paper's crossover claim (incremental wins only below
~10 % of edges changed, versus ~30 % for plain simulation) falls out of
step 1: with larger bounds each unit update re-runs bounded BFS from every
ancestor within ``D - 1`` hops, where at bound 1 it re-reads one node's
successors (``benchmarks/simulation_cost.py`` prints the bound-1 table).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.graph.digraph import Graph, NodeId
from repro.graph.distance import bounded_ancestors, bounded_descendants
from repro.incremental.updates import (
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    Update,
    ensure_applied,
)
from repro.matching.base import ChangeLog, MatchRelation
from repro.matching.bounded import BoundedState
from repro.pattern.pattern import Bound, Pattern

PatternEdge = tuple[str, str]


class IncrementalBoundedSimulation:
    """Maintains a bounded-simulation match relation under edge updates,
    from the :class:`BoundedState` it builds for ``graph`` and ``pattern``.
    """

    __slots__ = ("graph", "pattern", "state", "_depth_of", "_ancestor_depth", "_in_edges")

    def __init__(
        self,
        graph: Graph,
        pattern: Pattern,
        index=None,
    ) -> None:
        pattern.validate()
        state = BoundedState(graph, pattern, index=index)
        self.graph = graph
        self.pattern = pattern
        self.state = state
        # Armed only now: the initial refinement above logged nothing, and
        # a state no maintainer owns (one-shot evaluation) never logs.
        state.log = ChangeLog()
        self._depth_of: dict[str, Bound] = {}
        deepest: Bound = 0
        for pattern_node in pattern.nodes():
            bounds = [bound for _, bound in pattern.out_edges(pattern_node)]
            if not bounds:
                continue
            depth = BoundedState._bfs_depth(bounds)
            self._depth_of[pattern_node] = depth
            if depth is None or deepest is None:
                deepest = None
            else:
                deepest = max(deepest, depth)
        # Ancestors within deepest-1 hops of an updated edge's tail are the
        # only nodes whose bounded reachability can change.
        self._ancestor_depth: Bound = (
            None if deepest is None else max(deepest - 1, 0)
        )
        self._in_edges: dict[str, list[PatternEdge]] = {u: [] for u in pattern.nodes()}
        for source, target, _bound in pattern.edges():
            self._in_edges[target].append((source, target))

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def relation(self) -> MatchRelation:
        """Current ``M(Q,G)``."""
        return self.state.relation()

    def drain_changes(self) -> tuple[set[tuple[str, NodeId]], set[NodeId]]:
        """``(toggled pairs, dirty nodes)`` since the last drain (see
        :class:`~repro.matching.base.ChangeLog`); the log restarts empty."""
        return self.state.log.drain()

    def match_row(self, data_node: NodeId) -> tuple[set[str], dict[NodeId, int]]:
        """See :meth:`BoundedState.match_row`."""
        return self.state.match_row(data_node)

    def apply(self, update: Update) -> None:
        """Maintain the match state for a primitive ``graph`` already shows.

        The graph is written by :func:`~repro.incremental.updates.apply_updates`
        (which also decomposes node deletions into incident edge deletions
        first); this maintainer only follows it.  A primitive the graph
        does not reflect is an :class:`~repro.errors.UpdateError`, with the
        state untouched.  Deletions are safe to follow: the ancestors of
        the deleted edge's tail are the same before and after the deletion
        (a path to the tail through the deleted edge would revisit the
        tail).
        """
        ensure_applied(self.graph, update)
        if isinstance(update, EdgeInsertion):
            if not self._depth_of:  # edge-less pattern: membership is static
                return
            affected = self._affected_sources(update.source)
            gains = self._refresh_sources(affected)
            if gains:
                self._resurrect(gains)
        elif isinstance(update, EdgeDeletion):
            if not self._depth_of:
                return
            affected = self._affected_sources(update.source)
            seeds = self._refresh_sources(affected, collect_gains=False)
            self.state.removal_fixpoint(seeds)
        elif isinstance(update, NodeDeletion):
            self._node_removed(update.node)
        else:  # NodeInsertion, AttributeUpdate
            self._candidacy_changed(update.node)

    # ------------------------------------------------------------------
    # distance maintenance
    # ------------------------------------------------------------------
    def _affected_sources(self, tail: NodeId) -> list[NodeId]:
        """``tail`` plus every node reaching it within the ancestor depth
        (the same set before and after an edge leaving ``tail`` changes)."""
        if self._ancestor_depth == 0:
            return [tail]
        ancestors = bounded_ancestors(self.graph, tail, self._ancestor_depth)
        out = [tail]
        out.extend(node for node in ancestors if node != tail)
        return out

    def _refresh_sources(
        self, sources: Iterable[NodeId], collect_gains: bool = True
    ) -> list[tuple[str, NodeId]]:
        """Re-run truncated BFS for each source and diff its S/R/cnt rows.

        Returns seeds: on gain-collection (insertions) the candidate pairs
        that acquired new bounded successors; otherwise (deletions) the
        member pairs whose counters dropped to zero.
        """
        state = self.state
        seeds: list[tuple[str, NodeId]] = []
        for source in sources:
            relevant = [
                u for u, depth in self._depth_of.items() if source in state.cand[u]
            ]
            if not relevant:
                continue
            depth = BoundedState._bfs_depth(self._depth_of[u] for u in relevant)
            reach = bounded_descendants(self.graph, source, depth)
            for pattern_node in relevant:
                changed = self._diff_row(pattern_node, source, reach)
                if collect_gains:
                    if changed > 0 and source not in state.sim[pattern_node]:
                        seeds.append((pattern_node, source))
                else:
                    if changed < 0 and source in state.sim[pattern_node]:
                        if not state.satisfies_all_edges(pattern_node, source):
                            seeds.append((pattern_node, source))
        return seeds

    def _diff_row(
        self, pattern_node: str, source: NodeId, reach: dict[NodeId, int]
    ) -> int:
        """Bring S/R/cnt rows of (pattern_node, source) in line with ``reach``.

        Returns +gains, -losses (net entry count change across the node's
        out-edges) so callers know whether to seed joins or removals.  A
        source whose rows changed at all — a moved distance included — is
        logged as dirty.
        """
        state = self.state
        net = 0
        changed = False
        for edge_target, bound in self.pattern.out_edges(pattern_node):
            edge = (pattern_node, edge_target)
            row = state.S[edge][source]
            child_cand = state.cand[edge_target]
            child_sim = state.sim[edge_target]
            fresh: dict[NodeId, int] = {
                node: dist
                for node, dist in reach.items()
                if node in child_cand and (bound is None or dist <= bound)
            }
            for node in list(row):
                if node not in fresh:
                    del row[node]
                    state.R[edge][node].discard(source)
                    if node in child_sim:
                        state.cnt[edge][source] -= 1
                    net -= 1
                    changed = True
            for node, dist in fresh.items():
                if node not in row:
                    row[node] = dist
                    state.R[edge].setdefault(node, set()).add(source)
                    if node in child_sim:
                        state.cnt[edge][source] += 1
                    net += 1
                    changed = True
                elif row[node] != dist:
                    row[node] = dist
                    changed = True
        if changed:
            state.log.dirty.add(source)
        return net

    # ------------------------------------------------------------------
    # node-level updates: candidacy changes
    # ------------------------------------------------------------------
    def _candidacy_changed(self, node: NodeId) -> None:
        """Re-evaluate every pattern predicate on ``node`` and repair the
        candidate sets, bounded successor index and membership."""
        state = self.state
        attrs = self.graph.attrs(node)
        join_seeds: list[tuple[str, NodeId]] = []
        for pattern_node in self.pattern.nodes():
            holds = self.pattern.predicate(pattern_node).evaluate(attrs)
            was_candidate = node in state.cand[pattern_node]
            if holds == was_candidate:
                continue
            if holds:
                self._enter_candidacy(pattern_node, node)
                join_seeds.append((pattern_node, node))
            else:
                self._leave_candidacy(pattern_node, node)
        if join_seeds:
            self._resurrect(join_seeds)

    def _enter_candidacy(self, pattern_node: str, node: NodeId) -> None:
        state = self.state
        state.cand[pattern_node].add(node)
        # Rows for the node's own out-going requirements.
        if pattern_node in self._depth_of:
            reach = bounded_descendants(
                self.graph, node, self._depth_of[pattern_node]
            )
            state._fill_entries(pattern_node, node, reach)
        # The node as a bounded successor of existing candidates.
        in_edges = self._in_edges[pattern_node]
        if in_edges:
            in_bounds = [
                self.pattern.bound(source, pattern_node) for source, _ in in_edges
            ]
            ancestors = bounded_ancestors(
                self.graph, node, BoundedState._bfs_depth(in_bounds)
            )
            for edge in in_edges:
                bound = self.pattern.bound(edge[0], pattern_node)
                source_cand = state.cand[edge[0]]
                for upstream, dist in ancestors.items():
                    if upstream in source_cand and (bound is None or dist <= bound):
                        state.S[edge][upstream][node] = dist
                        state.R[edge].setdefault(node, set()).add(upstream)
                        # cnt counts sim members only; the node is not a
                        # member yet — add_member bumps counters if it joins.

    def _leave_candidacy(self, pattern_node: str, node: NodeId) -> None:
        state = self.state
        if node in state.sim[pattern_node]:
            state.force_remove(pattern_node, node)  # adjusts upstream counters
        state.cand[pattern_node].discard(node)
        for edge_target, _bound in self.pattern.out_edges(pattern_node):
            edge = (pattern_node, edge_target)
            row = state.S[edge].pop(node, {})
            for reached in row:
                state.R[edge][reached].discard(node)
            state.cnt[edge].pop(node, None)
        for edge in self._in_edges[pattern_node]:
            for upstream in state.R[edge].pop(node, set()):
                state.S[edge][upstream].pop(node, None)

    def _node_removed(self, node: NodeId) -> None:
        """Drop a node whose incident edges are already gone."""
        for pattern_node in self.pattern.nodes():
            if node in self.state.cand[pattern_node]:
                self._leave_candidacy(pattern_node, node)

    # ------------------------------------------------------------------
    # membership maintenance: optimistic resurrection
    # ------------------------------------------------------------------
    def _resurrect(self, seeds: Iterable[tuple[str, NodeId]]) -> None:
        state = self.state
        affected: dict[str, set[NodeId]] = {u: set() for u in self.pattern.nodes()}
        frontier: deque[tuple[str, NodeId]] = deque()
        for pattern_node, data_node in seeds:
            if (
                data_node not in state.sim[pattern_node]
                and data_node not in affected[pattern_node]
            ):
                affected[pattern_node].add(data_node)
                frontier.append((pattern_node, data_node))
        while frontier:
            pattern_node, data_node = frontier.popleft()
            for edge in self._in_edges[pattern_node]:
                parent_pattern = edge[0]
                for upstream in state.R[edge].get(data_node, ()):
                    if (
                        upstream not in state.sim[parent_pattern]
                        and upstream not in affected[parent_pattern]
                    ):
                        affected[parent_pattern].add(upstream)
                        frontier.append((parent_pattern, upstream))

        opt_cnt: dict[PatternEdge, dict[NodeId, int]] = {}
        removal: deque[tuple[str, NodeId]] = deque()
        for pattern_node, members in affected.items():
            for data_node in members:
                for edge_target, _bound in self.pattern.out_edges(pattern_node):
                    edge = (pattern_node, edge_target)
                    live = sum(
                        1
                        for node in state.S[edge][data_node]
                        if node in state.sim[edge_target]
                        or node in affected[edge_target]
                    )
                    opt_cnt.setdefault(edge, {})[data_node] = live
                    if live == 0:
                        removal.append((pattern_node, data_node))
        while removal:
            pattern_node, data_node = removal.popleft()
            if data_node not in affected[pattern_node]:
                continue
            failing = any(
                opt_cnt.get((pattern_node, edge_target), {}).get(data_node, 1) == 0
                for edge_target, _bound in self.pattern.out_edges(pattern_node)
            )
            if not failing:
                continue
            affected[pattern_node].remove(data_node)
            for edge in self._in_edges[pattern_node]:
                counts = opt_cnt.get(edge)
                if counts is None:
                    continue
                parent_pattern = edge[0]
                for upstream in state.R[edge].get(data_node, ()):
                    if upstream in counts and upstream in affected[parent_pattern]:
                        counts[upstream] -= 1
                        if counts[upstream] == 0:
                            removal.append((parent_pattern, upstream))

        for pattern_node, members in affected.items():
            for data_node in members:
                state.add_member(pattern_node, data_node)
