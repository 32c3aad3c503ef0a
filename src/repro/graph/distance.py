"""Path-length utilities used by bounded simulation and ranking.

Bounded simulation constrains pattern edges by the length of a *nonempty*
path in the data graph, so all helpers here use nonempty-path semantics: the
source node itself appears in a result only when it lies on a cycle (a path
of length >= 1 back to itself).

``bound=None`` means "unbounded" and corresponds to a ``*`` bound on a
pattern edge (plain reachability).

Every label-keyed entry point also accepts a
:class:`~repro.graph.frozen.FrozenGraph` in place of the mutable ``Graph``:
the search then runs int-indexed over the snapshot's CSR rows — frontier
expansion is C-speed ``frozenset`` algebra instead of a per-edge
interpreted loop — and the result is converted back to labels.  The values
are identical to the dict-backed path (the seeded differential suite in
``tests/test_frozen.py`` asserts it); only dict insertion order may differ,
because the set kernels discover a level at once rather than edge by edge.
"""

from __future__ import annotations

import heapq
from array import array
from collections import deque
from typing import Callable, Iterator, Mapping

from repro.graph.digraph import Graph, NodeId
from repro.graph.frozen import FrozenGraph

#: Sentinel accepted everywhere a bound is expected: no length restriction.
UNBOUNDED = None

_EMPTY_IDS: frozenset[int] = frozenset()


def bounded_descendants(
    graph: Graph | FrozenGraph, source: NodeId, bound: int | None
) -> dict[NodeId, int]:
    """Nodes reachable from ``source`` by a nonempty path of length <= bound.

    Returns ``{node: shortest nonempty path length}``.  ``source`` itself is
    included only if it can be re-reached through a cycle within the bound.

    >>> g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "a")])
    >>> bounded_descendants(g, "a", 2)
    {'b': 1, 'c': 2}
    >>> bounded_descendants(g, "a", 3)["a"]
    3
    >>> from repro.graph.frozen import FrozenGraph
    >>> bounded_descendants(FrozenGraph.freeze(g), "a", 2)
    {'b': 1, 'c': 2}
    """
    if isinstance(graph, FrozenGraph):
        return _frozen_to_labels(
            graph, frozen_reach_levels(graph.successor_sets(), graph.id_of(source), bound)
        )
    return _bounded_search(graph.successors, source, bound)


def bounded_ancestors(
    graph: Graph | FrozenGraph, source: NodeId, bound: int | None
) -> dict[NodeId, int]:
    """Nodes that reach ``source`` by a nonempty path of length <= bound."""
    if isinstance(graph, FrozenGraph):
        return _frozen_to_labels(
            graph,
            frozen_reach_levels(graph.predecessor_sets(), graph.id_of(source), bound),
        )
    return _bounded_search(graph.predecessors, source, bound)


def _bounded_search(
    neighbours: Callable[[NodeId], Iterator[NodeId]],
    source: NodeId,
    bound: int | None,
) -> dict[NodeId, int]:
    """Level-by-level BFS from ``source``'s neighbours (nonempty paths).

    Expansion stops at ``bound`` (``None`` = exhaustive).
    """
    if bound is not None and bound < 1:
        return {}
    dist: dict[NodeId, int] = {}
    frontier: deque = deque()
    for first in neighbours(source):
        if first not in dist:
            dist[first] = 1
            frontier.append(first)
    depth = 1
    while frontier and (bound is None or depth < bound):
        depth += 1
        for _ in range(len(frontier)):
            node = frontier.popleft()
            for nxt in neighbours(node):
                if nxt not in dist:
                    dist[nxt] = depth
                    frontier.append(nxt)
    return dist


# ----------------------------------------------------------------------
# int-indexed kernels over frozen CSR snapshots
# ----------------------------------------------------------------------

def frozen_reach_levels(
    adjacency_sets: tuple[frozenset[int], ...],
    source_id: int,
    bound: int | None,
) -> list[frozenset[int] | set[int]]:
    """Level sets of a truncated BFS over int adjacency (nonempty paths).

    ``levels[d - 1]`` holds the node ids first reached at distance ``d``;
    the source id appears only if a cycle re-reaches it.  Frontier
    expansion is one C-speed ``frozenset.union`` over the frontier's rows
    plus one set difference per level — the shape that beats the dict
    path's per-edge interpreted loop.
    """
    if bound is not None and bound < 1:
        return []
    frontier: frozenset[int] | set[int] = adjacency_sets[source_id]
    if not frontier:
        return []
    seen = set(frontier)
    levels: list[frozenset[int] | set[int]] = [frontier]
    depth = 1
    while bound is None or depth < bound:
        depth += 1
        if len(frontier) == 1:
            [node] = frontier
            grown: frozenset[int] = adjacency_sets[node]
        else:
            grown = _EMPTY_IDS.union(*map(adjacency_sets.__getitem__, frontier))
        frontier = grown - seen
        if not frontier:
            break
        seen |= frontier
        levels.append(frontier)
    return levels


def _frozen_to_labels(
    frozen: FrozenGraph, levels: list[frozenset[int] | set[int]]
) -> dict[NodeId, int]:
    """Flatten BFS level sets into the label-keyed ``{node: dist}`` dict."""
    labels = frozen.labels
    dist: dict[NodeId, int] = {}
    for depth, level in enumerate(levels, start=1):
        for node_id in level:
            dist[labels[node_id]] = depth
    return dist


def weighted_distances_ids(
    offsets: array, targets: array, weights: array, source_id: int
) -> dict[int, float]:
    """Int-indexed Dijkstra over weighted CSR rows (nonempty paths).

    The label-keyed :func:`weighted_distances` breaks distance ties with an
    ``_order_key`` wrapper whose ``__lt__`` is an interpreted call per heap
    comparison; here ties compare dense ints in C.  When ids are assigned
    in ``_order_key`` order (the ranking snapshot does exactly that), the
    pop order — and hence the result — is identical.
    """
    dist: dict[int, float] = {}
    heap: list[tuple[float, int]] = [
        (weights[position], targets[position])
        for position in range(offsets[source_id], offsets[source_id + 1])
    ]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        d, node = pop(heap)
        if node in dist:
            continue
        dist[node] = d
        for position in range(offsets[node], offsets[node + 1]):
            nxt = targets[position]
            if nxt not in dist:
                push(heap, (d + weights[position], nxt))
    return dist


def distance(
    graph: Graph | FrozenGraph, source: NodeId, target: NodeId
) -> int | None:
    """Shortest nonempty path length ``source -> target``; None if unreachable.

    ``distance(g, v, v)`` is the shortest cycle through ``v`` (not 0).
    """
    if not graph.has_node(source) or not graph.has_node(target):
        return None
    return bounded_descendants(graph, source, None).get(target)


def within_bound(
    graph: Graph | FrozenGraph, source: NodeId, target: NodeId, bound: int | None
) -> bool:
    """True iff a nonempty path ``source -> target`` of length <= bound exists."""
    return target in bounded_descendants(graph, source, bound)


def weighted_distances(
    adjacency: Mapping[NodeId, Mapping[NodeId, float]], source: NodeId
) -> dict[NodeId, float]:
    """Dijkstra over an explicit weighted adjacency (nonempty paths).

    Used on result graphs, whose edge weights are shortest-path lengths in
    the data graph.  Weights must be positive.  The source appears in the
    output only when it lies on a (weighted) cycle.
    """
    dist: dict[NodeId, float] = {}
    heap: list[tuple[float, NodeId]] = []
    for nxt, weight in adjacency.get(source, {}).items():
        heapq.heappush(heap, (float(weight), _order_key(nxt)))
    # heapq needs comparable entries even when distances tie; wrap nodes in a
    # stable ordering key and unwrap on pop.
    while heap:
        d, key = heapq.heappop(heap)
        node = key.node
        if node in dist:
            continue
        dist[node] = d
        for nxt, weight in adjacency.get(node, {}).items():
            if nxt not in dist:
                heapq.heappush(heap, (d + float(weight), _order_key(nxt)))
    return dist


def node_order_key(node: NodeId) -> tuple[str, str]:
    """The total-ordering key Dijkstra uses to break distance ties.

    Shared by the label-keyed heap wrapper below and by the ranking
    snapshot's dense-id assignment (:mod:`repro.ranking.topk`): ids sorted
    by this key make int heap tuples order exactly like label ones, which
    is what keeps the two Dijkstra paths byte-identical.
    """
    return (type(node).__name__, repr(node))


class _order_key:
    """Total-ordering wrapper so heterogeneous node ids can share a heap."""

    __slots__ = ("node", "_key")

    def __init__(self, node: NodeId) -> None:
        self.node = node
        self._key = node_order_key(node)

    def __lt__(self, other: "_order_key") -> bool:
        return self._key < other._key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _order_key) and self.node == other.node


def eccentricity_within(
    graph: Graph | FrozenGraph, source: NodeId, bound: int | None
) -> int:
    """Length of the longest shortest-path from ``source`` within ``bound``.

    Convenience for diagnostics and tests; 0 when ``source`` reaches nothing.
    """
    reached = bounded_descendants(graph, source, bound)
    return max(reached.values(), default=0)
