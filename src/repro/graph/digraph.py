"""Directed attributed graphs — the data model for social networks.

The paper models a social network as a directed graph whose nodes carry
attributes (name, field, specialty, experience, ...) and whose edges denote
collaboration.  :class:`Graph` implements exactly that: node identifiers are
arbitrary hashable values, each node owns an attribute dictionary, and
adjacency is stored in both directions so matchers can walk predecessors as
cheaply as successors.

Implementation note: adjacency is kept in ``dict`` objects (insertion
ordered) rather than ``set`` so iteration order is deterministic across
processes regardless of ``PYTHONHASHSEED``; determinism matters for
reproducible benchmarks and stable test output.  Membership tests stay O(1).
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Iterator, Mapping

from repro.errors import GraphError

NodeId = Hashable
Edge = tuple[NodeId, NodeId]


class Graph:
    """A directed graph with per-node attribute dictionaries.

    Parameters
    ----------
    name:
        Optional human-readable name, used by storage and the CLI.

    Examples
    --------
    >>> g = Graph(name="team")
    >>> g.add_node("bob", field="SA", experience=7)
    >>> g.add_node("dan", field="SD", experience=3)
    >>> g.add_edge("bob", "dan")
    True
    >>> g.num_nodes, g.num_edges
    (2, 1)
    >>> list(g.successors("bob"))
    ['dan']
    """

    __slots__ = ("name", "_attrs", "_succ", "_pred", "_num_edges", "_version", "_own")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._attrs: dict[NodeId, dict[str, Any]] = {}
        self._succ: dict[NodeId, dict[NodeId, None]] = {}
        self._pred: dict[NodeId, dict[NodeId, None]] = {}
        self._num_edges = 0
        self._version = 0
        # The nodes whose three rows no other graph holds; None: every node.
        # copy() shares rows, and the first write to a node copies them.
        self._own: set[NodeId] | None = None

    def _write(self, node: NodeId) -> None:
        """Give ``node`` private copies of its rows before writing them."""
        own = self._own
        if own is None or node in own or node not in self._attrs:
            return
        own.add(node)
        self._attrs[node] = self._attrs[node].copy()
        self._succ[node] = self._succ[node].copy()
        self._pred[node] = self._pred[node].copy()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId, /, **attrs: Any) -> None:
        """Add ``node`` with attributes; re-adding merges the attributes.

        The node parameter is positional-only so attributes named ``node``
        (or ``self``) are ordinary keywords — graphs loaded from storage
        pass arbitrary attribute names through here.
        """
        if node not in self._attrs:
            self._attrs[node] = {}
            self._succ[node] = {}
            self._pred[node] = {}
            if self._own is not None:
                self._own.add(node)
            self._version += 1
        if attrs:
            self._write(node)
            self._attrs[node].update(attrs)
            self._version += 1

    def add_nodes(self, nodes: Iterable[NodeId]) -> None:
        """Add many attribute-less nodes at once."""
        for node in nodes:
            self.add_node(node)

    def add_edge(self, source: NodeId, target: NodeId) -> bool:
        """Add the directed edge ``source -> target``.

        Endpoints must already exist (implicit node creation hides typos in
        pattern/graph code, so it is deliberately not supported).  Returns
        ``True`` if the edge was new, ``False`` if it already existed;
        parallel edges are never stored.
        """
        if source not in self._attrs:
            raise GraphError(f"unknown source node: {source!r}")
        if target not in self._attrs:
            raise GraphError(f"unknown target node: {target!r}")
        if target in self._succ[source]:
            return False
        if self._own is not None:
            self._write(source)
            self._write(target)
        self._succ[source][target] = None
        self._pred[target][source] = None
        self._num_edges += 1
        self._version += 1
        return True

    def add_edges(self, edges: Iterable[Edge]) -> int:
        """Add many edges; returns how many were actually new."""
        added = 0
        for source, target in edges:
            if self.add_edge(source, target):
                added += 1
        return added

    def remove_edge(self, source: NodeId, target: NodeId) -> None:
        """Remove the edge ``source -> target``; raises if absent."""
        if source not in self._succ or target not in self._succ[source]:
            raise GraphError(f"no such edge: {source!r} -> {target!r}")
        if self._own is not None:
            self._write(source)
            self._write(target)
        del self._succ[source][target]
        del self._pred[target][source]
        self._num_edges -= 1
        self._version += 1

    def remove_node(self, node: NodeId) -> None:
        """Remove ``node`` and every incident edge; raises if absent."""
        if node not in self._attrs:
            raise GraphError(f"unknown node: {node!r}")
        for target in list(self._succ[node]):
            self.remove_edge(node, target)
        for source in list(self._pred[node]):
            self.remove_edge(source, node)
        del self._attrs[node]
        del self._succ[node]
        del self._pred[node]
        if self._own is not None:
            self._own.discard(node)
        self._version += 1

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Edge],
        nodes: Mapping[NodeId, Mapping[str, Any]] | Iterable[NodeId] | None = None,
        name: str = "",
    ) -> "Graph":
        """Build a graph from an edge list, optionally with node attributes.

        ``nodes`` may be a mapping ``{node: attrs}`` or a plain iterable of
        node ids; nodes mentioned only in ``edges`` are created bare.
        """
        graph = cls(name=name)
        if isinstance(nodes, Mapping):
            for node, attrs in nodes.items():
                graph.add_node(node, **dict(attrs))
        elif nodes is not None:
            graph.add_nodes(nodes)
        for source, target in edges:
            if source not in graph:
                graph.add_node(source)
            if target not in graph:
                graph.add_node(target)
            graph.add_edge(source, target)
        return graph

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._attrs)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def size(self) -> int:
        """``|G|`` in the paper's sense: nodes plus edges."""
        return self.num_nodes + self._num_edges

    @property
    def version(self) -> int:
        """Mutation counter, bumped by every structural or attribute change.

        The count belongs to the *content*: :meth:`copy`, the JSON round
        trip and ``FrozenGraph.to_graph`` hand it on (:meth:`carry_version`),
        so within one lineage equal versions mean equal content.

        Engine-owned artefacts (:class:`~repro.graph.index.AttributeIndex`,
        each graph's :class:`~repro.graph.frozen.FrozenGraph` snapshot and
        distance oracle) compare this against the version they last synchronized
        with to detect out-of-band mutations.  Every attribute write has a
        counting API — :meth:`set` for one attribute, :meth:`update_attrs`
        for several in one bump, or the engine's update objects — so there
        is no reason to assign into :meth:`attrs`' live dict; doing so
        still bypasses the counter and silently poisons every version-keyed
        cache — and, the dict being shared with copies, every copy too.

        >>> g = Graph()
        >>> g.add_node("a"); g.add_node("b"); g.version
        2
        >>> g.add_edge("a", "b"); g.version
        True
        3
        """
        return self._version

    def carry_version(self, version: int) -> "Graph":
        """Stamp a rebuilt graph with the mutation count of its content.

        The one sanctioned way to hand a :attr:`version` on.  A rebuild
        replays ``add_node``/``add_edge`` and so restarts the counter at a
        function of the graph's *size*: two states of one lineage would
        collide in every version-keyed cache, snapshot file and checkpoint.
        """
        if isinstance(version, bool) or not isinstance(version, int) or version < 0:
            raise GraphError(f"graph version must be a non-negative integer: {version!r}")
        self._version = version
        return self

    def __len__(self) -> int:
        return len(self._attrs)

    def __contains__(self, node: object) -> bool:
        return node in self._attrs

    def has_node(self, node: NodeId) -> bool:
        return node in self._attrs

    def has_edge(self, source: NodeId, target: NodeId) -> bool:
        succ = self._succ.get(source)
        return succ is not None and target in succ

    def nodes(self) -> Iterator[NodeId]:
        """Iterate node ids in insertion order."""
        return iter(self._attrs)

    def edges(self) -> Iterator[Edge]:
        """Iterate ``(source, target)`` pairs in insertion order."""
        for source, targets in self._succ.items():
            for target in targets:
                yield (source, target)

    def attrs(self, node: NodeId) -> dict[str, Any]:
        """The attribute dictionary of ``node`` (live, not a copy).

        Read it, never write it: the dict may be shared with copies of the
        graph (:meth:`copy`), so a write through it bypasses the version
        counter *and* shows up in every graph sharing the row.  Use
        :meth:`set` / :meth:`update_attrs`.
        """
        try:
            return self._attrs[node]
        except KeyError:
            raise GraphError(f"unknown node: {node!r}") from None

    def get(self, node: NodeId, attr: str, default: Any = None) -> Any:
        """A single attribute of ``node`` (``default`` if unset)."""
        return self.attrs(node).get(attr, default)

    def set(self, node: NodeId, attr: str, value: Any) -> None:
        """Set a single attribute of ``node``."""
        self._write(node)
        self.attrs(node)[attr] = value
        self._version += 1

    def update_attrs(self, node: NodeId, /, **attrs: Any) -> None:
        """Set several attributes of ``node``, bumping :attr:`version` once.

        This is the blessed bulk write: engine and incremental attribute
        updates route through it (or :meth:`set`) instead of mutating the
        live :meth:`attrs` dict, so version-keyed caches always observe the
        change.  A no-attribute call is a no-op (no version bump).  The
        node parameter is positional-only, so attributes named ``node``
        (or ``self``) pass through like any other keyword.

        >>> g = Graph(); g.add_node("a"); g.version
        1
        >>> g.update_attrs("a", field="SA", experience=7); g.version
        2
        """
        if not attrs:
            return
        self._write(node)
        self.attrs(node).update(attrs)
        self._version += 1

    def successors(self, node: NodeId) -> Iterator[NodeId]:
        try:
            return iter(self._succ[node])
        except KeyError:
            raise GraphError(f"unknown node: {node!r}") from None

    def predecessors(self, node: NodeId) -> Iterator[NodeId]:
        try:
            return iter(self._pred[node])
        except KeyError:
            raise GraphError(f"unknown node: {node!r}") from None

    def out_degree(self, node: NodeId) -> int:
        try:
            return len(self._succ[node])
        except KeyError:
            raise GraphError(f"unknown node: {node!r}") from None

    def in_degree(self, node: NodeId) -> int:
        try:
            return len(self._pred[node])
        except KeyError:
            raise GraphError(f"unknown node: {node!r}") from None

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "Graph":
        """An independent copy in O(|V|), order-exact in both directions.

        Copied: the three node tables, shallowly; *shared*: every node's
        attribute dict, successor row and predecessor row, until either
        graph writes that node — each mutator first gives the nodes it
        writes private copies of their rows — so neither graph ever sees
        the other's writes through the API, and a copy costs its writes'
        rows, not |G|.  Kept: the version.  Node, successor and predecessor
        order are the original's — re-inserting the edges would re-derive
        predecessor order from source order — so ``freeze(g.copy())``
        equals ``freeze(g)`` array for array, which ``FrozenGraph.patched``
        relies on to carry rows from one epoch to the next.
        """
        clone = Graph(name=self.name if name is None else name)
        clone._attrs = dict(self._attrs)
        clone._succ = dict(self._succ)
        clone._pred = dict(self._pred)
        clone._num_edges = self._num_edges
        self._own, clone._own = set(), set()
        return clone.carry_version(self._version)

    def __getstate__(self) -> tuple:
        # The pickle gets private copies of shared rows, so the unpickled
        # graph owns every row even when a copy was pickled beside it.
        tables = (self._attrs, self._succ, self._pred)
        own = self._own
        if own is not None:
            tables = tuple(
                {node: row if node in own else row.copy() for node, row in table.items()}
                for table in tables
            )
        return (self.name, *tables, self._num_edges, self._version)

    def __setstate__(self, state: tuple) -> None:
        self.name, self._attrs, self._succ, self._pred, self._num_edges, self._version = state
        self._own = None

    def subgraph(self, nodes: Iterable[NodeId], name: str = "") -> "Graph":
        """The induced subgraph on ``nodes`` (unknown ids raise)."""
        keep = list(nodes)
        sub = Graph(name=name)
        for node in keep:
            sub.add_node(node, **self.attrs(node))
        for node in keep:
            for target in self._succ[node]:
                if target in sub:
                    sub.add_edge(node, target)
        return sub

    def reversed(self, name: str = "") -> "Graph":
        """A copy with every edge direction flipped."""
        rev = Graph(name=name or f"{self.name}~rev")
        for node, attrs in self._attrs.items():
            rev.add_node(node, **attrs)
        for source, target in self.edges():
            rev.add_edge(target, source)
        return rev

    # ------------------------------------------------------------------
    # comparison / display
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._attrs == other._attrs and self._succ == other._succ

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("Graph objects are mutable and unhashable")

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Graph{label}: {self.num_nodes} nodes, {self.num_edges} edges>"
