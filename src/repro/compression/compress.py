"""Query-preserving graph compression (construction).

The compressed graph ``Gc`` merges each equivalence class of
:mod:`repro.compression.equivalence` into a single node.  ``Gc`` "(1) has
less nodes and edges than G, and (2) can be directly queried by the query
engine ... such that for any (bounded) simulation query Q, M(Q,G) can be
obtained by a linear time post-processing from M(Q,Gc)".

Compression is relative to a tuple of node attributes (the *compression
label*): merged nodes agree on those attributes, so any pattern whose
search conditions only read them evaluates identically on class nodes —
:meth:`CompressedGraph.is_compatible` is the engine's check.  Queries
reading other attributes must run on the original graph (or a compression
over a wider attribute tuple).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.errors import CompressionError
from repro.graph.digraph import Graph, NodeId
from repro.graph.frozen import FrozenGraph
from repro.graph.index import AttributeIndex
from repro.compression.equivalence import (
    LabelFn,
    Partition,
    bisimulation_partition,
    simulation_equivalence,
)
from repro.pattern.pattern import Pattern

#: Valid ``method`` arguments for :func:`compress`.
METHODS = ("bisimulation", "simulation")


@dataclass(frozen=True)
class CompressionSpec:
    """What a compressed graph preserves: label attributes and algorithm."""

    attrs: tuple[str, ...]
    method: str

    def __post_init__(self) -> None:
        if not self.attrs:
            raise CompressionError("compression needs at least one label attribute")
        if self.method not in METHODS:
            raise CompressionError(
                f"unknown method {self.method!r} (choose from {METHODS})"
            )


class CompressedGraph:
    """A quotient graph plus the bookkeeping to map results back.

    Attributes
    ----------
    original:
        The graph that was compressed (held by reference).
    quotient:
        An ordinary :class:`Graph` over class nodes ``c0, c1, ...``; each
        class node carries the compression-label attributes (shared by all
        members) plus ``_size`` (member count).
    node_to_class / members:
        The partition in both directions; each class lists its members in
        the original graph's node order.
    index:
        An :class:`~repro.graph.index.AttributeIndex` over the quotient
        that the compressed route draws candidates from, or ``None`` (a
        static compression: candidates are scanned).

    A static compression owns its quotient.  One handed out by
    :meth:`MaintainedCompression.compressed
    <repro.compression.maintain.MaintainedCompression.compressed>` is a
    *view* of the current version, valid until the next update (like
    ``RegisteredGraph.graph``): its quotient is the maintainer's live one,
    and its ``frozen()`` snapshot — patched by the maintainer for this
    version, or frozen on first use — is immutable, so a reader holding
    it keeps an exact picture of the version it was taken at.
    """

    __slots__ = (
        "original", "quotient", "node_to_class", "members", "spec", "index", "_frozen"
    )

    def __init__(
        self,
        original: Graph,
        quotient: Graph,
        node_to_class: dict[NodeId, str],
        members: dict[str, list[NodeId]],
        spec: CompressionSpec,
        frozen: FrozenGraph | None = None,
        index: AttributeIndex | None = None,
    ) -> None:
        self.original = original
        self.quotient = quotient
        self.node_to_class = node_to_class
        self.members = members
        self.spec = spec
        self.index = index
        self._frozen = frozen

    def frozen(self) -> FrozenGraph:
        """A frozen snapshot of the quotient: the one handed in, else built
        on first use, and kept until it stops matching the quotient (the
        engine's compressed route evaluates over it)."""
        if self._frozen is None or not self._frozen.matches(self.quotient):
            self._frozen = FrozenGraph.freeze(self.quotient)
        return self._frozen

    # ------------------------------------------------------------------
    # effectiveness metrics (the paper's "reduced by 57%")
    # ------------------------------------------------------------------
    @property
    def node_reduction(self) -> float:
        """Fraction of nodes eliminated, in [0, 1)."""
        return 1.0 - self.quotient.num_nodes / max(self.original.num_nodes, 1)

    @property
    def edge_reduction(self) -> float:
        """Fraction of edges eliminated, in [0, 1]."""
        if self.original.num_edges == 0:
            return 0.0
        return 1.0 - self.quotient.num_edges / self.original.num_edges

    @property
    def size_reduction(self) -> float:
        """Fraction of |G| = |V| + |E| eliminated — the paper's headline metric."""
        return 1.0 - self.quotient.size / max(self.original.size, 1)

    # ------------------------------------------------------------------
    def class_of(self, node: NodeId) -> str:
        """Quotient node holding ``node``."""
        try:
            return self.node_to_class[node]
        except KeyError:
            raise CompressionError(f"node not in compressed graph: {node!r}") from None

    def is_compatible(self, pattern: Pattern) -> bool:
        """May ``pattern`` be answered on this compressed graph?

        True iff every search condition reads only the compression-label
        attributes (then predicates are constant across each class).
        """
        return pattern.referenced_attrs() <= set(self.spec.attrs)

    def require_compatible(self, pattern: Pattern) -> None:
        if not self.is_compatible(pattern):
            extra = pattern.referenced_attrs() - set(self.spec.attrs)
            raise CompressionError(
                f"pattern reads attributes not preserved by compression: {sorted(extra)}"
            )

    def __repr__(self) -> str:
        return (
            f"<CompressedGraph {self.quotient.num_nodes}/{self.original.num_nodes} nodes, "
            f"{self.quotient.num_edges}/{self.original.num_edges} edges, "
            f"method={self.spec.method}>"
        )


def label_function(graph: Graph, attrs: tuple[str, ...]) -> LabelFn:
    """The compression label: the projection of a node onto ``attrs``."""
    def label_of(node: NodeId) -> Hashable:
        node_attrs = graph.attrs(node)
        return tuple(node_attrs.get(a) for a in attrs)

    return label_of


def class_attrs(
    graph: Graph, representative: NodeId, attrs: tuple[str, ...], size: int
) -> dict[str, object]:
    """A class node's attributes: the compression label, read off any one
    member (all members share it), plus ``_size``, the member count."""
    node_attrs = graph.attrs(representative)
    return {"_size": size, **{a: node_attrs.get(a) for a in attrs}}


def build_quotient(
    graph: Graph, partition: Partition, spec: CompressionSpec
) -> CompressedGraph:
    """Materialize the quotient of ``graph`` under ``partition``."""
    class_name: dict[int, str] = {}
    members: dict[str, list[NodeId]] = {}
    node_to_class: dict[NodeId, str] = {}
    for node in graph.nodes():
        raw = partition[node]
        if raw not in class_name:
            class_name[raw] = f"c{len(class_name)}"
            members[class_name[raw]] = []
        cls = class_name[raw]
        members[cls].append(node)
        node_to_class[node] = cls

    quotient = Graph(name=f"{graph.name}~{spec.method}" if graph.name else "quotient")
    for cls, nodes in members.items():
        quotient.add_node(cls, **class_attrs(graph, nodes[0], spec.attrs, len(nodes)))
    for source, target in graph.edges():
        quotient.add_edge(node_to_class[source], node_to_class[target])
    return CompressedGraph(graph, quotient, node_to_class, members, spec)


def compress(
    graph: Graph,
    attrs: tuple[str, ...] | list[str],
    method: str = "bisimulation",
) -> CompressedGraph:
    """Compress ``graph`` relative to the given label attributes.

    >>> from repro.datasets.paper_example import paper_graph, EDGE_E1
    >>> g = paper_graph(include_e1=True)
    >>> c = compress(g, attrs=("field", "specialty"), method="simulation")
    >>> c.class_of("Pat") == c.class_of("Fred")   # the paper's merge example
    True
    """
    spec = CompressionSpec(attrs=tuple(attrs), method=method)
    label_of = label_function(graph, spec.attrs)
    if spec.method == "bisimulation":
        partition = bisimulation_partition(graph, label_of)
    else:
        partition = simulation_equivalence(graph, label_of)
    return build_quotient(graph, partition, spec)
