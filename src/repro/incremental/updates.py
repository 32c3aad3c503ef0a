"""Edge updates: the ``ΔG`` of the incremental computation module.

The paper maintains match results under "unit update (single edge
insertion/deletion) as well as batch updates (a list of edge
insertions/deletions)".  This module defines those update values, applies
them to graphs, and generates random-but-valid update batches for the
benchmarks (each update in a generated batch is applicable in sequence).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

from repro.errors import UpdateError
from repro.graph.digraph import Graph, NodeId


@dataclass(frozen=True)
class EdgeInsertion:
    """Insert the directed edge ``source -> target``."""

    source: NodeId
    target: NodeId

    def apply(self, graph: Graph) -> None:
        if not graph.has_node(self.source) or not graph.has_node(self.target):
            raise UpdateError(f"insertion endpoints missing: {self}")
        if graph.has_edge(self.source, self.target):
            raise UpdateError(f"edge already present: {self}")
        graph.add_edge(self.source, self.target)

    def inverted(self) -> "EdgeDeletion":
        return EdgeDeletion(self.source, self.target)


@dataclass(frozen=True)
class EdgeDeletion:
    """Delete the directed edge ``source -> target``."""

    source: NodeId
    target: NodeId

    def apply(self, graph: Graph) -> None:
        if not graph.has_edge(self.source, self.target):
            raise UpdateError(f"edge not present: {self}")
        graph.remove_edge(self.source, self.target)

    def inverted(self) -> "EdgeInsertion":
        return EdgeInsertion(self.source, self.target)


@dataclass(frozen=True)
class NodeInsertion:
    """Insert a fresh node with attributes (no incident edges yet).

    ``attrs_items`` is a tuple of ``(name, value)`` pairs so the update
    value stays hashable; build instances with :meth:`with_attrs`.
    """

    node: NodeId
    attrs_items: tuple = ()

    @classmethod
    def with_attrs(cls, node: NodeId, /, **attrs: object) -> "NodeInsertion":
        return cls(node, tuple(sorted(attrs.items())))

    @property
    def attrs(self) -> dict:
        return dict(self.attrs_items)

    def apply(self, graph: Graph) -> None:
        if graph.has_node(self.node):
            raise UpdateError(f"node already present: {self.node!r}")
        graph.add_node(self.node, **self.attrs)

    def inverted(self) -> "NodeDeletion":
        return NodeDeletion(self.node)


@dataclass(frozen=True)
class NodeDeletion:
    """Delete a node (and, at the graph level, its incident edges).

    Incremental maintainers require incident edges to be deleted first;
    :func:`decompose` produces exactly that primitive sequence, and
    :func:`apply_updates` is how it reaches a graph and its maintainers.
    """

    node: NodeId

    def apply(self, graph: Graph) -> None:
        if not graph.has_node(self.node):
            raise UpdateError(f"node not present: {self.node!r}")
        graph.remove_node(self.node)

    def inverted(self) -> "NodeInsertion":
        raise UpdateError(
            "NodeDeletion cannot be inverted without the deleted attributes/edges"
        )


@dataclass(frozen=True)
class AttributeUpdate:
    """Set one attribute of a node (search conditions may start or stop
    holding, so match candidacy changes)."""

    node: NodeId
    attr: str
    value: object

    def apply(self, graph: Graph) -> None:
        if not graph.has_node(self.node):
            raise UpdateError(f"node not present: {self.node!r}")
        # Route through the counting write API so every version-keyed cache
        # (attribute index, frozen snapshots) sees the change.
        graph.update_attrs(self.node, **{self.attr: self.value})

    def inverted(self) -> "AttributeUpdate":
        raise UpdateError(
            "AttributeUpdate cannot be inverted without the previous value"
        )


Update = Union[EdgeInsertion, EdgeDeletion, NodeInsertion, NodeDeletion, AttributeUpdate]


def decompose(graph: Graph, update: Update) -> list[Update]:
    """Split an update into maintainer-friendly primitives.

    ``NodeDeletion`` becomes its incident edge deletions (computed against
    the *current* graph) followed by a bare node deletion; everything else
    passes through unchanged.  The engine applies primitives one at a time
    so every maintainer observes a consistent sequence.
    """
    if not isinstance(update, NodeDeletion):
        return [update]
    if not graph.has_node(update.node):
        raise UpdateError(f"node not present: {update.node!r}")
    primitives: list[Update] = []
    for successor in graph.successors(update.node):
        primitives.append(EdgeDeletion(update.node, successor))
    for predecessor in graph.predecessors(update.node):
        if predecessor != update.node:  # a self-loop is already queued once
            primitives.append(EdgeDeletion(predecessor, update.node))
    primitives.append(update)
    return primitives


def apply_updates(
    graph: Graph,
    updates: Iterable[Update],
    observers: Sequence[Callable[[Update], object]] = (),
) -> list[Update]:
    """Apply ``updates`` to ``graph`` in order; return the primitives applied.

    The one way a batch reaches a graph.  Each update is decomposed (see
    :func:`decompose`) against the graph as it stands, each primitive is
    applied once, and only then handed to every observer in order — the
    match maintainer (``IncrementalBoundedSimulation.apply``; a bound-1
    pattern runs it too, its affected area only the updated edge's tail)
    and the maintained compression follow a graph that already reflects it.

    A primitive counts as applied once the graph has taken it, before any
    observer runs.  On an error (an inapplicable primitive raises
    :class:`UpdateError`) earlier primitives stay applied; a caller that
    must settle that prefix records it with its first observer
    (``applied.append``), callers wanting atomicity work on a copy.

    >>> g = Graph.from_edges([("a", "b"), ("b", "c")])
    >>> seen = []
    >>> apply_updates(g, [NodeDeletion("b")], [seen.append]) == seen
    True
    >>> [type(p).__name__ for p in seen]
    ['EdgeDeletion', 'EdgeDeletion', 'NodeDeletion']
    """
    applied: list[Update] = []
    for update in updates:
        for primitive in decompose(graph, update):
            primitive.apply(graph)
            applied.append(primitive)
            for observer in observers:
                observer(primitive)
    return applied


_ABSENT = object()


def ensure_applied(graph: Graph, primitive: Update) -> None:
    """Raise :class:`UpdateError` unless ``graph`` already reflects ``primitive``.

    An O(1) presence check, run by every maintainer before it touches its
    state: maintainers follow the graph (:func:`apply_updates` writes it),
    so a primitive handed to one first is refused rather than silently
    diverging.
    """
    if isinstance(primitive, EdgeInsertion):
        reflected = graph.has_edge(primitive.source, primitive.target)
    elif isinstance(primitive, EdgeDeletion):
        reflected = not graph.has_edge(primitive.source, primitive.target)
    elif isinstance(primitive, NodeInsertion):
        reflected = graph.has_node(primitive.node)
    elif isinstance(primitive, NodeDeletion):
        reflected = not graph.has_node(primitive.node)
    elif isinstance(primitive, AttributeUpdate):
        current = (
            graph.attrs(primitive.node).get(primitive.attr, _ABSENT)
            if graph.has_node(primitive.node)
            else _ABSENT
        )
        reflected = current is primitive.value or current == primitive.value
    else:
        raise UpdateError(f"unknown update type: {primitive!r}")
    if not reflected:
        raise UpdateError(f"graph does not reflect {primitive!r}: apply it first")


def invert_batch(updates: Sequence[Update]) -> list[Update]:
    """The batch that undoes ``updates`` (reversed order, each inverted)."""
    return [update.inverted() for update in reversed(updates)]


def random_insertions(graph: Graph, count: int, seed: int = 0) -> list[EdgeInsertion]:
    """``count`` distinct edge insertions valid against ``graph``.

    Sampled uniformly from the non-edges between existing nodes.  Raises
    :class:`UpdateError` when the graph is too dense to supply ``count``
    non-edges.
    """
    nodes = list(graph.nodes())
    if len(nodes) < 2:
        raise UpdateError("need at least 2 nodes to insert edges")
    capacity = len(nodes) * (len(nodes) - 1) - graph.num_edges
    if count > capacity:
        raise UpdateError(f"graph has only {capacity} free node pairs, need {count}")
    rng = random.Random(seed)
    chosen: set[tuple[NodeId, NodeId]] = set()
    out: list[EdgeInsertion] = []
    while len(out) < count:
        source, target = rng.sample(nodes, 2)
        pair = (source, target)
        if pair in chosen or graph.has_edge(source, target):
            continue
        chosen.add(pair)
        out.append(EdgeInsertion(source, target))
    return out


def random_deletions(graph: Graph, count: int, seed: int = 0) -> list[EdgeDeletion]:
    """``count`` distinct edge deletions sampled from the current edges."""
    edges = list(graph.edges())
    if count > len(edges):
        raise UpdateError(f"graph has only {len(edges)} edges, need {count}")
    rng = random.Random(seed)
    picked = rng.sample(edges, count)
    return [EdgeDeletion(source, target) for source, target in picked]


def random_updates(
    graph: Graph,
    count: int,
    seed: int = 0,
    insert_ratio: float = 0.5,
) -> list[Update]:
    """A mixed batch of insertions and deletions, valid *in sequence*.

    Validity under mixing is order-sensitive (an insertion may re-add an
    edge a deletion just removed), so the batch is generated by simulating
    application on a scratch copy of the graph.
    """
    if not 0.0 <= insert_ratio <= 1.0:
        raise UpdateError(f"insert_ratio must be in [0, 1]: {insert_ratio}")
    rng = random.Random(seed)
    scratch = graph.copy()
    nodes = list(scratch.nodes())
    if len(nodes) < 2:
        raise UpdateError("need at least 2 nodes to generate updates")
    out: list[Update] = []
    attempts = 0
    max_attempts = count * 100 + 1000
    while len(out) < count:
        attempts += 1
        if attempts > max_attempts:
            raise UpdateError("could not generate a valid update batch (graph too small?)")
        if rng.random() < insert_ratio:
            source, target = rng.sample(nodes, 2)
            if scratch.has_edge(source, target):
                continue
            update: Update = EdgeInsertion(source, target)
        else:
            edges = list(scratch.edges())
            if not edges:
                continue
            source, target = edges[rng.randrange(len(edges))]
            update = EdgeDeletion(source, target)
        update.apply(scratch)
        out.append(update)
    return out
