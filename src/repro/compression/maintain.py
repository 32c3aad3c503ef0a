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
from repro.compression.compress import (
    CompressedGraph,
    CompressionSpec,
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
)

ClassId = str
ClassEdge = tuple[ClassId, ClassId]


class MaintainedCompression:
    """A compressed graph that follows its data graph through edge updates.

    >>> from repro.graph.generators import collaboration_graph
    >>> from repro.incremental.updates import random_updates
    >>> g = collaboration_graph(80, seed=3)
    >>> mc = MaintainedCompression(g, attrs=("field",))
    >>> before = mc.compressed().quotient.num_nodes
    >>> mc.apply_batch(random_updates(g, 5, seed=4))
    >>> mc.check_partition()  # still signature-stable
    """

    def __init__(self, graph: Graph, attrs: tuple[str, ...] | list[str]) -> None:
        self.graph = graph
        self.spec = CompressionSpec(attrs=tuple(attrs), method="bisimulation")
        self.staleness = 0
        self._label_of = label_function(graph, self.spec.attrs)
        self._node_class: dict[NodeId, ClassId] = {}
        self._class_members: dict[ClassId, set[NodeId]] = {}
        self._edge_count: dict[ClassEdge, int] = {}
        self._next_index = 0
        self._cached: CompressedGraph | None = None
        self._rebuild()

    # ------------------------------------------------------------------
    # construction / full recompression
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        partition = bisimulation_partition(self.graph, self._label_of)
        self._node_class.clear()
        self._class_members.clear()
        self._edge_count.clear()
        self._next_index = 0
        seen: dict[int, ClassId] = {}
        for node in self.graph.nodes():
            raw = partition[node]
            if raw not in seen:
                seen[raw] = self._new_class_id()
                self._class_members[seen[raw]] = set()
            self._node_class[node] = seen[raw]
            self._class_members[seen[raw]].add(node)
        for source, target in self.graph.edges():
            self._bump_edge(self._node_class[source], self._node_class[target], +1)
        self._cached = None

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
    def apply(self, update: Update, apply_to_graph: bool = True) -> None:
        """Apply one edge update to the graph and re-stabilize the partition.

        ``apply_to_graph=False`` assumes the caller already mutated the
        shared graph and only the partition needs to follow.
        """
        if isinstance(update, EdgeInsertion):
            if apply_to_graph:
                update.apply(self.graph)
            self._edge_changed(update.source, update.target, +1)
        elif isinstance(update, EdgeDeletion):
            if apply_to_graph:
                update.apply(self.graph)
            self._edge_changed(update.source, update.target, -1)
        elif isinstance(update, NodeInsertion):
            if apply_to_graph:
                update.apply(self.graph)
            self._node_added(update.node)
        elif isinstance(update, AttributeUpdate):
            if apply_to_graph:
                update.apply(self.graph)
            self._label_maybe_changed(update.node)
        elif isinstance(update, NodeDeletion):
            self._apply_node_deletion(update, apply_to_graph)
        else:
            raise CompressionError(f"unknown update type: {update!r}")
        self._cached = None
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

    def _label_maybe_changed(self, node: NodeId) -> None:
        """After an attribute update, re-home the node if its compression
        label no longer matches its class."""
        cid = self._node_class[node]
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
        self._shift_incident_edges(touched, touched_set, delta=+1)
        dirty = self._dirty_after_split(cid, [new_cid], touched)
        self._stabilize(deque(dirty))

    def _apply_node_deletion(self, update: NodeDeletion, apply_to_graph: bool) -> None:
        node = update.node
        if apply_to_graph:
            for successor in list(self.graph.successors(node)):
                self.apply(EdgeDeletion(node, successor))
            for predecessor in list(self.graph.predecessors(node)):
                if predecessor != node:
                    self.apply(EdgeDeletion(predecessor, node))
            update.apply(self.graph)
        cid = self._node_class.pop(node)
        members = self._class_members[cid]
        members.discard(node)
        if not members:
            del self._class_members[cid]

    def apply_batch(self, updates: list[Update], apply_to_graph: bool = True) -> None:
        for update in updates:
            self.apply(update, apply_to_graph=apply_to_graph)

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
            for group in moved_groups:
                new_cid = self._new_class_id()
                new_ids.append(new_cid)
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

    # ------------------------------------------------------------------
    # views / diagnostics
    # ------------------------------------------------------------------
    def compressed(self) -> CompressedGraph:
        """The current compressed graph (rebuilt lazily after changes)."""
        if self._cached is None:
            quotient = Graph(
                name=f"{self.graph.name}~maintained" if self.graph.name else "quotient"
            )
            for cid, members in self._class_members.items():
                representative = self.graph.attrs(next(iter(members)))
                label_attrs = {a: representative.get(a) for a in self.spec.attrs}
                quotient.add_node(cid, _size=len(members), **label_attrs)
            for (source_class, target_class) in self._edge_count:
                quotient.add_edge(source_class, target_class)
            self._cached = CompressedGraph(
                self.graph,
                quotient,
                dict(self._node_class),
                {cid: sorted(ms, key=repr) for cid, ms in self._class_members.items()},
                self.spec,
            )
        return self._cached

    @property
    def num_classes(self) -> int:
        return len(self._class_members)

    def check_partition(self) -> None:
        """Verify signature stability and counter consistency (test support)."""
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
