"""Plain graph simulation — the quadratic special case (all bounds = 1).

Graph simulation [Henzinger, Henzinger & Kopke, FOCS 1995] requires each
pattern edge to map to a single data edge.  The paper uses it two ways: as
the fast path when every bound is 1, and as a foil — Example 1 shows it is
too restrictive for social networks (this repository's paper-example tests
reproduce that: simulation finds no match where bounded simulation finds
seven pairs).

The implementation is the standard counter-based refinement: start from
predicate candidates, count for every candidate and pattern edge how many of
its successors are still candidates of the child pattern node, and cascade
removals through predecessor lists when a count hits zero.  Each data edge
is examined O(1) times per pattern edge, giving O(|Q| * (|V| + |E|)).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.errors import EvaluationError
from repro.graph.digraph import Graph, NodeId
from repro.graph.frozen import FrozenGraph
from repro.graph.index import AttributeIndex, candidates_from_index
from repro.matching.base import MatchRelation, MatchResult, Stopwatch
from repro.pattern.pattern import Pattern

PatternEdge = tuple[str, str]


def simulation_candidates(
    graph: Graph, pattern: Pattern, index: AttributeIndex | None = None
) -> dict[str, set[NodeId]]:
    """Predicate-satisfying candidates per pattern node.

    With an :class:`~repro.graph.index.AttributeIndex`, comparisons and
    memberships (ranges included) are answered from postings and only the
    rest scan.  Without one, a single shared pass over the graph evaluates
    every distinct pattern predicate on every node.  Both paths live in
    :func:`~repro.graph.index.candidates_from_index`, so indexed and
    scanned candidates cannot drift apart.
    """
    return candidates_from_index(graph, pattern, index)


def refine_simulation(
    graph: Graph,
    pattern: Pattern,
    candidates: dict[str, set[NodeId]],
    frozen: FrozenGraph | None = None,
) -> dict[str, set[NodeId]]:
    """Greatest fixpoint of the simulation refinement, starting from
    ``candidates``.  Returns refined sets (mutates a private copy).

    With a ``frozen`` snapshot of ``graph`` the whole refinement runs
    int-indexed over the snapshot's CSR adjacency sets: successor counts
    are C-speed set intersections and the cascade probes int dicts.  The
    greatest fixpoint is unique, so the result is identical either way;
    a snapshot that no longer matches ``graph`` is rejected, never used.
    """
    pattern.validate()
    if frozen is not None:
        if not frozen.matches(graph):
            raise EvaluationError(
                f"stale frozen snapshot: {frozen!r} does not match "
                f"graph version {graph.version}"
            )
        return _refine_simulation_frozen(frozen, pattern, candidates)
    sim: dict[str, set[NodeId]] = {u: set(vs) for u, vs in candidates.items()}
    edges: list[PatternEdge] = [(u, t) for u, t, _ in pattern.edges()]
    counters: dict[PatternEdge, dict[NodeId, int]] = {}
    removal_queue: deque[tuple[str, NodeId]] = deque()
    queued: set[tuple[str, NodeId]] = set()

    def schedule(pattern_node: str, data_node: NodeId) -> None:
        key = (pattern_node, data_node)
        if key not in queued:
            queued.add(key)
            removal_queue.append(key)

    for edge in edges:
        source_pattern, target_pattern = edge
        child_set = sim[target_pattern]
        edge_counts: dict[NodeId, int] = {}
        for data_node in sim[source_pattern]:
            count = sum(1 for succ in graph.successors(data_node) if succ in child_set)
            edge_counts[data_node] = count
            if count == 0:
                schedule(source_pattern, data_node)
        counters[edge] = edge_counts

    in_edges_of: dict[str, list[PatternEdge]] = {u: [] for u in pattern.nodes()}
    for edge in edges:
        in_edges_of[edge[1]].append(edge)

    while removal_queue:
        pattern_node, data_node = removal_queue.popleft()
        if data_node not in sim[pattern_node]:
            continue
        sim[pattern_node].remove(data_node)
        for edge in in_edges_of[pattern_node]:
            parent_pattern = edge[0]
            edge_counts = counters[edge]
            for upstream in graph.predecessors(data_node):
                if upstream in edge_counts:
                    edge_counts[upstream] -= 1
                    if edge_counts[upstream] == 0 and upstream in sim[parent_pattern]:
                        schedule(parent_pattern, upstream)
    return sim


def _refine_simulation_frozen(
    frozen: FrozenGraph,
    pattern: Pattern,
    candidates: dict[str, set[NodeId]],
) -> dict[str, set[NodeId]]:
    """The counter-based refinement, int-indexed over the frozen snapshot."""
    ids = frozen.ids()
    labels = frozen.labels
    successor_sets = frozen.successor_sets()
    predecessor_sets = frozen.predecessor_sets()
    sim: dict[str, set[int]] = {
        u: {ids[v] for v in vs} for u, vs in candidates.items()
    }
    edges: list[PatternEdge] = [(u, t) for u, t, _ in pattern.edges()]
    counters: dict[PatternEdge, dict[int, int]] = {}
    removal_queue: deque[tuple[str, int]] = deque()
    queued: set[tuple[str, int]] = set()

    def schedule(pattern_node: str, node_id: int) -> None:
        key = (pattern_node, node_id)
        if key not in queued:
            queued.add(key)
            removal_queue.append(key)

    for edge in edges:
        source_pattern, target_pattern = edge
        child_set = sim[target_pattern]
        edge_counts: dict[int, int] = {}
        for node_id in sim[source_pattern]:
            count = len(successor_sets[node_id] & child_set)
            edge_counts[node_id] = count
            if count == 0:
                schedule(source_pattern, node_id)
        counters[edge] = edge_counts

    in_edges_of: dict[str, list[PatternEdge]] = {u: [] for u in pattern.nodes()}
    for edge in edges:
        in_edges_of[edge[1]].append(edge)

    while removal_queue:
        pattern_node, node_id = removal_queue.popleft()
        if node_id not in sim[pattern_node]:
            continue
        sim[pattern_node].remove(node_id)
        for edge in in_edges_of[pattern_node]:
            parent_pattern = edge[0]
            edge_counts = counters[edge]
            for upstream in predecessor_sets[node_id] & edge_counts.keys():
                edge_counts[upstream] -= 1
                if edge_counts[upstream] == 0 and upstream in sim[parent_pattern]:
                    schedule(parent_pattern, upstream)
    return {u: {labels[node_id] for node_id in vs} for u, vs in sim.items()}


def match_simulation(
    graph: Graph,
    pattern: Pattern,
    index: AttributeIndex | None = None,
    candidates: dict[str, set[NodeId]] | None = None,
    frozen: FrozenGraph | None = None,
) -> MatchResult:
    """Compute ``M(Q,G)`` under plain graph simulation.

    ``index`` routes candidate generation through an attribute index;
    ``candidates`` skips it entirely (the batch evaluator precomputes
    shared candidate sets and hands each query its own copy); ``frozen``
    (a current snapshot of ``graph``) runs the refinement over CSR
    adjacency — identical fixpoint, set-algebra speed.

    >>> from repro.graph.digraph import Graph
    >>> from repro.pattern.pattern import Pattern
    >>> g = Graph.from_edges([("a", "b")], nodes={"a": {"l": "X"}, "b": {"l": "Y"}})
    >>> q = Pattern(); q.add_node("X", 'l == "X"'); q.add_node("Y", 'l == "Y"')
    >>> q.add_edge("X", "Y", 1)
    >>> sorted(match_simulation(g, q).relation.pairs())
    [('X', 'a'), ('Y', 'b')]
    """
    watch = Stopwatch()
    if frozen is not None and not frozen.matches(graph):
        # refine_simulation re-checks, but failing here is cheaper: no
        # candidate generation happens for a snapshot we will reject.
        raise EvaluationError(
            f"stale frozen snapshot: {frozen!r} does not match "
            f"graph version {graph.version}"
        )
    if candidates is None:
        candidates = simulation_candidates(graph, pattern, index=index)
        candidate_source = "scan" if index is None else "index"
    else:
        candidate_source = "precomputed"
    refined = refine_simulation(graph, pattern, candidates, frozen=frozen)
    relation = MatchRelation.from_sets(pattern, refined)
    stats = {
        "algorithm": "simulation",
        "seconds": watch.seconds(),
        "candidate_source": candidate_source,
    }
    return MatchResult(graph, pattern, relation, stats=stats)


def simulates(graph: Graph, pattern: Pattern, pairs: Iterable[tuple[str, NodeId]]) -> bool:
    """Check whether a given set of pairs is a valid simulation relation.

    Test/diagnostic helper: verifies the two defining conditions for every
    pair (predicate satisfaction; every pattern edge mapped to a data edge
    whose endpoint is also in the relation).
    """
    by_pattern: dict[str, set[NodeId]] = {u: set() for u in pattern.nodes()}
    for pattern_node, data_node in pairs:
        by_pattern.setdefault(pattern_node, set()).add(data_node)
    for pattern_node, data_nodes in by_pattern.items():
        predicate = pattern.predicate(pattern_node)
        for data_node in data_nodes:
            if not predicate.evaluate(graph.attrs(data_node)):
                return False
            for child_pattern, _bound in pattern.out_edges(pattern_node):
                children = by_pattern.get(child_pattern, set())
                if not any(s in children for s in graph.successors(data_node)):
                    return False
    return True
