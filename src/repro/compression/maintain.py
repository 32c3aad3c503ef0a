"""Incremental maintenance of compressed graphs.

"Moreover, Gc is incrementally maintained in response to changes to G."
This module keeps a quotient partition synchronized with its graph under
edge updates without recompressing:

* quotient edge multiplicities are counted, so a unit update adjusts one
  counter;
* the updated edge's source class becomes *dirty*; dirty classes are
  re-grouped by successor-class signature and split if needed, with splits
  propagating dirtiness to predecessor classes until the partition is
  signature-stable again.

The quotient graph follows the partition the same way: after each
primitive, every class-edge counter that crossed 0 becomes an edge
insertion or deletion, a new class a node insertion, an emptied class a
node deletion and a changed class size or label an attribute write — the
update vocabulary of :mod:`repro.incremental.updates`, applied to one live
quotient and replayed into its frozen snapshot by
:meth:`~repro.graph.frozen.FrozenGraph.patched` instead of a rebuild and
a refreeze per graph version.

Splitting never merges, so long update sequences can leave the partition
finer than optimal — correctness is unaffected (a finer stable partition is
still query-preserving), only the compression ratio decays.  Call
:meth:`MaintainedCompression.recompress` to restore the coarsest partition
(``staleness`` counts the updates since the last one).

**Soundness note** (verified by counterexample in the test suite): local
signature splitting is only sound on *signature-stable* partitions.  The
coarser ``method="simulation"`` partitions are not signature-stable, and an
update far from any split can silently invalidate a merge.  Maintenance
therefore always works on bisimulation partitions; compress with
``method="simulation"`` only for static graphs, or recompress after updates.
"""

from __future__ import annotations

from collections import deque

from repro.errors import CompressionError
from repro.graph.digraph import Graph, NodeId
from repro.graph.frozen import FrozenGraph
from repro.graph.index import AttributeIndex
from repro.compression.compress import (
    CompressedGraph,
    CompressionSpec,
    build_quotient,
    class_attrs,
    label_function,
)
from repro.compression.equivalence import bisimulation_partition
from repro.incremental.updates import (
    AttributeUpdate,
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
    Update,
    ensure_applied,
)

ClassId = str
ClassEdge = tuple[ClassId, ClassId]


class MaintainedCompression:
    """A compressed graph that follows its data graph through edge updates.

    >>> from repro.graph.generators import collaboration_graph
    >>> from repro.incremental.updates import apply_updates, random_updates
    >>> g = collaboration_graph(80, seed=3)
    >>> mc = MaintainedCompression(g, attrs=("field",))
    >>> before = mc.compressed().quotient.num_nodes
    >>> _ = apply_updates(g, random_updates(g, 5, seed=4), [mc.apply])
    >>> mc.check_partition()  # still signature-stable
    """

    def __init__(self, graph: Graph, attrs: tuple[str, ...] | list[str]) -> None:
        self.graph = graph
        self.spec = CompressionSpec(attrs=tuple(attrs), method="bisimulation")
        self.staleness = 0
        self._label_of = label_function(graph, self.spec.attrs)
        # Classes and class edges the current primitive touched: the
        # quotient is brought in line with them once it is done.
        self._dirty_classes: dict[ClassId, None] = {}
        self._dirty_edges: dict[ClassEdge, None] = {}
        self._rebuild()

    # ------------------------------------------------------------------
    # construction / full recompression
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        partition = bisimulation_partition(self.graph, self._label_of)
        built = build_quotient(self.graph, partition, self.spec)
        self._node_class: dict[NodeId, ClassId] = built.node_to_class
        self._class_members: dict[ClassId, set[NodeId]] = {
            cid: set(members) for cid, members in built.members.items()
        }
        self._edge_count: dict[ClassEdge, int] = {}
        for source, target in self.graph.edges():
            key = (self._node_class[source], self._node_class[target])
            self._edge_count[key] = self._edge_count.get(key, 0) + 1
        self._next_index = len(self._class_members)
        # The live quotient, written only through update primitives; its
        # postings build on the first compressed-route query.
        self._quotient = built.quotient
        self._index = AttributeIndex(self._quotient)
        # The last snapshot handed out (None: the next view freezes one on
        # first use) and the primitives the quotient took since.
        self._snapshot: FrozenGraph | None = None
        self._pending: list[Update] = []
        self._cached: CompressedGraph | None = None

    def recompress(self) -> None:
        """Throw the partition away and recompute the coarsest one."""
        self._rebuild()
        self.staleness = 0

    def _new_class_id(self) -> ClassId:
        cid = f"c{self._next_index}"
        self._next_index += 1
        return cid

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def apply(self, update: Update) -> None:
        """Re-stabilize the partition for a primitive ``graph`` already shows.

        The graph is written by :func:`~repro.incremental.updates.apply_updates`
        (node deletions arrive after their incident edge deletions); the
        partition only follows it.  A primitive the graph does not reflect
        is an :class:`~repro.errors.UpdateError`, with the partition
        untouched — quotient included.  Once the partition is stable
        again, the quotient takes the primitives that bring it in line.
        """
        ensure_applied(self.graph, update)
        if self._cached is not None:
            # This version's view goes stale now; a snapshot it froze for
            # a reader is the base the next patch starts from.
            if self._snapshot is None:
                self._snapshot = self._cached._frozen
            self._cached = None
        if isinstance(update, EdgeInsertion):
            self._edge_changed(update.source, update.target, +1)
        elif isinstance(update, EdgeDeletion):
            self._edge_changed(update.source, update.target, -1)
        elif isinstance(update, NodeInsertion):
            self._node_added(update.node)
        elif isinstance(update, AttributeUpdate):
            self._label_maybe_changed(update.node)
        else:  # NodeDeletion
            self._node_removed(update.node)
        self._sync_quotient()
        self.staleness += 1

    def _edge_changed(self, source: NodeId, target: NodeId, delta: int) -> None:
        source_class = self._node_class[source]
        target_class = self._node_class[target]
        self._bump_edge(source_class, target_class, delta)
        self._stabilize(deque([source_class]))

    def _node_added(self, node: NodeId) -> None:
        """A fresh node gets its own singleton class (trivially stable;
        recompression may merge it with an existing leaf class later)."""
        cid = self._new_class_id()
        self._class_members[cid] = {node}
        self._node_class[node] = cid
        self._dirty_classes[cid] = None

    def _label_maybe_changed(self, node: NodeId) -> None:
        """After an attribute update, re-home the node if its compression
        label no longer matches its class."""
        cid = self._node_class[node]
        self._dirty_classes[cid] = None  # a singleton's label is its class's
        peers = self._class_members[cid] - {node}
        if not peers:
            return  # singleton classes stay label-uniform by definition
        peer_label = self._label_of(next(iter(peers)))
        if self._label_of(node) == peer_label:
            return  # label untouched (or changed to the same value)
        touched = [node]
        touched_set = {node}
        self._shift_incident_edges(touched, touched_set, delta=-1)
        self._class_members[cid].discard(node)
        new_cid = self._new_class_id()
        self._class_members[new_cid] = {node}
        self._node_class[node] = new_cid
        self._dirty_classes[new_cid] = None
        self._shift_incident_edges(touched, touched_set, delta=+1)
        dirty = self._dirty_after_split(cid, [new_cid], touched)
        self._stabilize(deque(dirty))

    def _node_removed(self, node: NodeId) -> None:
        """Drop a node whose incident edges are already gone."""
        cid = self._node_class.pop(node)
        members = self._class_members[cid]
        members.discard(node)
        if not members:
            del self._class_members[cid]
        self._dirty_classes[cid] = None

    # ------------------------------------------------------------------
    # split-based stabilization
    # ------------------------------------------------------------------
    def _stabilize(self, queue: deque[ClassId]) -> None:
        pending = set(queue)
        while queue:
            cid = queue.popleft()
            pending.discard(cid)
            members = self._class_members.get(cid)
            if members is None or len(members) <= 1:
                continue
            groups: dict[frozenset[ClassId], list[NodeId]] = {}
            for member in members:
                signature = frozenset(
                    self._node_class[s] for s in self.graph.successors(member)
                )
                groups.setdefault(signature, []).append(member)
            if len(groups) == 1:
                continue
            # Keep the largest group under the old id (fewer reassignments).
            ordered = sorted(groups.values(), key=len, reverse=True)
            moved_groups = ordered[1:]
            touched = [m for group in moved_groups for m in group]
            touched_set = set(touched)

            self._shift_incident_edges(touched, touched_set, delta=-1)
            new_ids: list[ClassId] = []
            self._dirty_classes[cid] = None
            for group in moved_groups:
                new_cid = self._new_class_id()
                new_ids.append(new_cid)
                self._dirty_classes[new_cid] = None
                self._class_members[new_cid] = set(group)
                for member in group:
                    self._node_class[member] = new_cid
            self._class_members[cid] = set(ordered[0])
            self._shift_incident_edges(touched, touched_set, delta=+1)

            for dirty in self._dirty_after_split(cid, new_ids, touched):
                if dirty not in pending:
                    pending.add(dirty)
                    queue.append(dirty)

    def _shift_incident_edges(
        self, touched: list[NodeId], touched_set: set[NodeId], delta: int
    ) -> None:
        """Adjust class-edge counters for every graph edge incident to
        ``touched`` members, each edge exactly once."""
        for member in touched:
            member_class = self._node_class[member]
            for successor in self.graph.successors(member):
                self._bump_edge(member_class, self._node_class[successor], delta)
            for predecessor in self.graph.predecessors(member):
                if predecessor not in touched_set:
                    self._bump_edge(
                        self._node_class[predecessor], member_class, delta
                    )

    def _dirty_after_split(
        self, kept: ClassId, new_ids: list[ClassId], touched: list[NodeId]
    ) -> set[ClassId]:
        dirty: set[ClassId] = {kept, *new_ids}
        for member in touched:
            for predecessor in self.graph.predecessors(member):
                dirty.add(self._node_class[predecessor])
        return dirty

    def _bump_edge(self, source_class: ClassId, target_class: ClassId, delta: int) -> None:
        key = (source_class, target_class)
        value = self._edge_count.get(key, 0) + delta
        if value < 0:
            raise CompressionError(f"class-edge count underflow for {key}")
        if value == 0:
            self._edge_count.pop(key, None)
        else:
            self._edge_count[key] = value
        self._dirty_edges[key] = None

    # ------------------------------------------------------------------
    # the live quotient
    # ------------------------------------------------------------------
    def _sync_quotient(self) -> None:
        """Write what the last primitive changed into the quotient, as
        update primitives: classes that appeared or changed size or label
        first, then class edges whose counter crossed 0 (a counter that
        went 0 -> 1 -> 0 inside one primitive writes nothing), then
        classes that emptied."""
        quotient = self._quotient
        primitives: list[Update] = []
        emptied: list[Update] = []
        for cid in self._dirty_classes:
            members = self._class_members.get(cid)
            if members is None:
                emptied.append(NodeDeletion(cid))
                continue
            attrs = class_attrs(self.graph, next(iter(members)), self.spec.attrs, len(members))
            if cid not in quotient:
                primitives.append(NodeInsertion.with_attrs(cid, **attrs))
                continue
            current = quotient.attrs(cid)
            primitives += [
                AttributeUpdate(cid, attr, value)
                for attr, value in attrs.items()
                if current.get(attr) != value
            ]
        for key in self._dirty_edges:
            if (key in self._edge_count) != quotient.has_edge(*key):
                primitives.append(
                    EdgeInsertion(*key) if key in self._edge_count else EdgeDeletion(*key)
                )
        primitives += emptied
        self._dirty_classes.clear()
        self._dirty_edges.clear()
        for primitive in primitives:
            primitive.apply(quotient)
            self._index.on_update(primitive)
        if self._snapshot is not None:
            self._pending += primitives
            # Past |Gc| primitives a full freeze costs less than the patch.
            if len(self._pending) > quotient.size:
                self._snapshot, self._pending = None, []

    # ------------------------------------------------------------------
    # views / diagnostics
    # ------------------------------------------------------------------
    def compressed(self) -> CompressedGraph:
        """The current compressed graph: a view of this version.

        The view is valid until the next update (like
        ``RegisteredGraph.graph``): its ``quotient`` is the live quotient
        the next primitive writes, while its partition maps are this
        version's.  Its ``frozen()`` snapshot is immutable: the previous
        one patched with the quotient primitives taken since
        (:meth:`FrozenGraph.patched`).  A full freeze, on first use, runs
        only for the first view, where ``patched`` declines (a class
        deletion, the value-pool bound) and after :meth:`recompress`.
        Its ``index`` is the quotient's attribute index, maintained
        through the same primitives.
        """
        if self._cached is None:
            snapshot = self._snapshot
            if snapshot is not None and self._pending:
                snapshot = snapshot.patched(self._quotient, self._pending)
            self._snapshot, self._pending = snapshot, []
            # Members in graph order, as build_quotient lists them.
            members: dict[ClassId, list[NodeId]] = {
                cid: [] for cid in self._class_members
            }
            for node in self.graph.nodes():
                members[self._node_class[node]].append(node)
            self._cached = CompressedGraph(
                self.graph,
                self._quotient,
                dict(self._node_class),
                members,
                self.spec,
                frozen=snapshot,
                index=self._index,
            )
        return self._cached

    @property
    def num_classes(self) -> int:
        return len(self._class_members)

    def check_partition(self) -> None:
        """Verify signature stability, counter consistency and that the
        live quotient is the partition's (test support)."""
        from repro.compression.equivalence import is_stable_partition

        numeric = {
            node: int(cid[1:]) for node, cid in self._node_class.items()
        }
        if not is_stable_partition(self.graph, self._label_of, numeric):
            raise CompressionError("partition is not signature-stable")
        recount: dict[ClassEdge, int] = {}
        for source, target in self.graph.edges():
            key = (self._node_class[source], self._node_class[target])
            recount[key] = recount.get(key, 0) + 1
        if recount != self._edge_count:
            raise CompressionError("class-edge counters out of sync")
        for cid, members in self._class_members.items():
            for member in members:
                if self._node_class[member] != cid:
                    raise CompressionError("node/class maps out of sync")
        quotient = self._quotient
        if set(quotient.nodes()) != set(self._class_members) or set(
            quotient.edges()
        ) != set(self._edge_count):
            raise CompressionError("quotient nodes or edges out of sync")
        for cid, members in self._class_members.items():
            expected = class_attrs(
                self.graph, next(iter(members)), self.spec.attrs, len(members)
            )
            if quotient.attrs(cid) != expected:
                raise CompressionError(f"quotient attributes of {cid} out of sync")
