"""Result graphs — the paper's representation of ``M(Q,G)``.

"The GUI visualizes the query results expressed as result graphs, in which
each node is a match of a query node in Q, and each edge (marked with an
integer d) represents a shortest path with length d corresponding to a query
edge."  The ranking function of §II is computed over exactly this weighted
graph, so :class:`ResultGraph` stores weighted adjacency in both directions
and knows which pattern nodes each data node matches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

from repro.errors import EvaluationError
from repro.graph.digraph import Graph, NodeId
from repro.graph.distance import bounded_descendants, node_order_key
from repro.matching.base import MatchRelation
from repro.pattern.pattern import Pattern

if TYPE_CHECKING:  # pragma: no cover
    from repro.matching.bounded import BoundedState


class ResultGraph:
    """A weighted digraph over matched data nodes.

    Edge ``v -> v'`` with weight ``d`` records that some pattern edge is
    witnessed by a shortest path of length ``d`` from ``v`` to ``v'`` in the
    data graph.
    """

    __slots__ = ("graph", "pattern", "_matched_by", "_adj", "_radj", "_num_edges")

    def __init__(self, graph: Graph, pattern: Pattern) -> None:
        self.graph = graph
        self.pattern = pattern
        self._matched_by: dict[NodeId, set[str]] = {}
        self._adj: dict[NodeId, dict[NodeId, int]] = {}
        self._radj: dict[NodeId, dict[NodeId, int]] = {}
        self._num_edges = 0

    # ------------------------------------------------------------------
    # construction (module-internal)
    # ------------------------------------------------------------------
    def _add_node(self, data_node: NodeId, pattern_node: str) -> None:
        self._matched_by.setdefault(data_node, set()).add(pattern_node)
        self._adj.setdefault(data_node, {})
        self._radj.setdefault(data_node, {})

    def _add_edge(self, source: NodeId, target: NodeId, weight: int) -> None:
        if weight < 1:
            raise EvaluationError(f"result edge weight must be >= 1: {weight}")
        existing = self._adj[source].get(target)
        if existing is not None and existing <= weight:
            return
        if existing is None:
            self._num_edges += 1
        self._adj[source][target] = weight
        self._radj[target][source] = weight

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._matched_by)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def __contains__(self, data_node: object) -> bool:
        return data_node in self._matched_by

    def nodes(self) -> Iterator[NodeId]:
        return iter(self._matched_by)

    def edges(self) -> Iterator[tuple[NodeId, NodeId, int]]:
        for source, targets in self._adj.items():
            for target, weight in targets.items():
                yield (source, target, weight)

    def matched_pattern_nodes(self, data_node: NodeId) -> frozenset[str]:
        """Which pattern nodes ``data_node`` matches."""
        return frozenset(self._matched_by.get(data_node, set()))

    def weight(self, source: NodeId, target: NodeId) -> int | None:
        """Edge weight, or None if there is no such result edge."""
        return self._adj.get(source, {}).get(target)

    def match_map(self) -> Mapping[NodeId, set[str]]:
        """``data node -> matched pattern nodes`` (live view; read-only).

        The per-call :meth:`matched_pattern_nodes` copies into a frozenset;
        bulk consumers (the ranking context snapshots one entry per match)
        read this view instead.
        """
        return self._matched_by

    def out_adjacency(self) -> Mapping[NodeId, Mapping[NodeId, int]]:
        """Forward weighted adjacency (live view; treat as read-only)."""
        return self._adj

    def in_adjacency(self) -> Mapping[NodeId, Mapping[NodeId, int]]:
        """Reverse weighted adjacency (live view; treat as read-only)."""
        return self._radj

    def node_attrs(self, data_node: NodeId) -> dict[str, Any]:
        """Attribute dictionary of a matched node (drill-down support)."""
        return self.graph.attrs(data_node)

    def __repr__(self) -> str:
        return f"<ResultGraph: {self.num_nodes} nodes, {self.num_edges} edges>"

    # ------------------------------------------------------------------
    # maintenance under updates
    # ------------------------------------------------------------------
    def patched(
        self,
        nodes: Iterable[NodeId],
        row_of: Callable[[NodeId], tuple[set[str], dict[NodeId, int]]],
    ) -> tuple["ResultGraph", set[NodeId]]:
        """The result graph after a change confined to ``nodes``' out-rows.

        ``nodes`` must cover every data node whose membership or out-row
        may differ from this graph's (an incremental maintainer's dirty
        set); ``row_of(node)`` returns its current ``(matched pattern
        nodes, out-row)``, an empty match set meaning the node left.  The
        result equals a fresh build but shares every row it did not have
        to rewrite with this graph, which stays untouched (result graphs
        are frozen once built).  Also returned: the nodes whose presence,
        match set or rows differ.  When none does, that set is empty and
        the graph returned is ``self``.
        """
        # Defined order: it decides where new nodes and in-row entries
        # land in the (insertion-ordered) dicts.
        rewrites = []
        for node in sorted(nodes, key=node_order_key):
            matched, row = row_of(node)
            if (
                matched != self._matched_by.get(node, set())
                or row != self._adj.get(node, {})
            ):
                rewrites.append((node, matched, row))
        if not rewrites:
            return self, set()

        fresh = ResultGraph(self.graph, self.pattern)
        fresh._matched_by = dict(self._matched_by)
        adj = fresh._adj = dict(self._adj)
        radj = fresh._radj = dict(self._radj)
        fresh._num_edges = self._num_edges
        copied: set[NodeId] = set()

        def in_row(target: NodeId) -> dict[NodeId, int]:
            if target not in copied:  # first write: the old graph keeps its row
                copied.add(target)
                radj[target] = dict(radj.get(target, ()))
            return radj[target]

        for node, matched, row in rewrites:
            old_row = adj.get(node, {})
            for target in old_row:
                if target not in row:
                    del in_row(target)[node]
            for target, weight in row.items():
                if old_row.get(target) != weight:
                    in_row(target)[node] = weight
            fresh._num_edges += len(row) - len(old_row)
            if matched:
                fresh._matched_by[node] = matched
                adj[node] = row
                radj.setdefault(node, {})
        # Leavers go last: the loop above may still have written their
        # in-rows (a rewritten source dropping its edge to one).
        for node, matched, _row in rewrites:
            if not matched:
                del fresh._matched_by[node], adj[node], radj[node]
        return fresh, copied.union(node for node, _matched, _row in rewrites)

    # ------------------------------------------------------------------
    # serialization ("query results are stored and managed as files")
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready representation (witness edges with weights)."""
        return {
            "format": "repro.result_graph",
            "version": 1,
            "pattern": self.pattern.name,
            "nodes": [
                {"id": node, "matches": sorted(self._matched_by[node])}
                for node in self.nodes()
            ],
            "edges": [
                {"source": source, "target": target, "weight": weight}
                for source, target, weight in self.edges()
            ],
        }

    @classmethod
    def from_dict(
        cls, payload: Mapping[str, Any], graph: Graph, pattern: Pattern
    ) -> "ResultGraph":
        """Rebuild against the graph/pattern the result was computed for.

        Node ids must exist in ``graph`` and pattern-node names in
        ``pattern`` — stale files fail loudly instead of mismatching.
        """
        if (
            not isinstance(payload, Mapping)
            or payload.get("format") != "repro.result_graph"
        ):
            raise EvaluationError("not a repro.result_graph payload")
        result = cls(graph, pattern)
        try:
            for entry in payload["nodes"]:
                node = entry["id"]
                if not graph.has_node(node):
                    raise EvaluationError(f"result node missing from graph: {node!r}")
                for pattern_node in entry["matches"]:
                    if pattern_node not in pattern:
                        raise EvaluationError(
                            f"unknown pattern node in result: {pattern_node!r}"
                        )
                    result._add_node(node, pattern_node)
            for entry in payload["edges"]:
                result._add_edge(entry["source"], entry["target"], entry["weight"])
        except (KeyError, TypeError) as exc:
            raise EvaluationError(f"malformed result-graph payload: {exc}") from exc
        return result


def build_result_graph(
    graph: Graph,
    pattern: Pattern,
    relation: MatchRelation,
    state: "BoundedState | None" = None,
) -> ResultGraph:
    """Construct the result graph for a match relation.

    When the bounded matcher's ``state`` is available its surviving bounded
    successor sets are reused; otherwise shortest distances are recomputed
    with truncated BFS from each match (same output, more work).
    """
    result = ResultGraph(graph, pattern)
    for pattern_node, data_node in relation.pairs():
        result._add_node(data_node, pattern_node)
    if relation.is_empty:
        return result

    if state is not None and state.graph is graph and state.pattern is pattern:
        for source, target, dist in state.match_edges():
            result._add_edge(source, target, dist)
        return result

    for source_pattern, target_pattern, bound in pattern.edges():
        targets = relation.matches_of(target_pattern)
        for source_node in relation.matches_of(source_pattern):
            reach = bounded_descendants(graph, source_node, bound)
            for reached, dist in reach.items():
                if reached in targets:
                    result._add_edge(source_node, reached, dist)
    return result
