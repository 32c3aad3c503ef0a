"""Frozen CSR graph snapshots — the immutable substrate for hot kernels.

The query flow of the paper (§II) evaluates many pattern queries against a
social network that does not change between evaluations, yet every traversal
in the mutable :class:`~repro.graph.digraph.Graph` walks dict-of-dicts
adjacency: one method call and two hash probes per node, one hash probe per
edge, and a dictionary allocation per neighbourhood.  A
:class:`FrozenGraph` is a compact, immutable snapshot of a ``Graph`` built
for exactly that read-mostly workload:

* node labels are **interned to dense ints** ``0..n-1`` in the graph's
  deterministic insertion order (``labels[i]`` maps back);
* adjacency is **CSR** (compressed sparse row) in both directions: per
  node a ``(start, end)`` pair into a flat ``array('q')`` target buffer
  (``out_starts`` / ``out_ends`` / ``out_targets`` and the ``in_`` three),
  so a neighbourhood is a slice, the whole structure pickles as a handful
  of raw byte buffers, and shipping the snapshot to a worker process costs
  a fraction of pickling the equivalent dict ``Graph``.  A fresh
  :meth:`~FrozenGraph.freeze` or a store load is the *compact* case — the
  rows tile the targets in node order and ``start`` / ``end`` are the two
  shifted views of one offsets array (zero-copy slices over an mmap).  A
  :meth:`~FrozenGraph.patched` snapshot appends each replaced row at the
  end of a copy of the targets and repoints only that row's pair, leaving
  the entries it replaced dead; once dead entries outnumber the live
  edges, the patch compacts.  Files and pickles always carry the compact
  offsets, so neither format knows about dead entries;
* node attributes are stored as **columns** (``attr -> {node id: value
  id}``) over one interned value pool, so a 50k-node graph with three
  distinct ``field`` values stores three field strings, not 50k;
* the snapshot records the ``source_version`` (the graph's mutation
  counter) it was built from, so caches can validate it, and
  :meth:`to_graph` reconstructs an equal ``Graph`` — the round-trip is
  exact (asserted property-based in ``tests/test_frozen.py``).

Traversal kernels (:mod:`repro.graph.distance`,
:func:`repro.matching.bounded.frozen_successor_rows`) work over
:meth:`successor_sets` / :meth:`predecessor_sets` — per-node ``frozenset``
views of the CSR rows, derived lazily and never pickled — because Python's
C-speed set algebra (unions for frontier expansion, intersections for
candidate filtering) is what actually beats the per-edge interpreted loop
of the dict-backed path.

The layout is deliberately the stepping stone the ROADMAP asks for: the
flat buffers are mmap- and NumPy-ready, and every kernel that consumes them
is one function swap away from a vectorized backend.

>>> from repro.graph.digraph import Graph
>>> g = Graph.from_edges([("a", "b"), ("b", "c")], nodes={"a": {"f": "X"}})
>>> frozen = FrozenGraph.freeze(g)
>>> frozen.num_nodes, frozen.num_edges
(3, 2)
>>> list(frozen.successors("a"))
['b']
>>> frozen.to_graph() == g
True
"""

from __future__ import annotations

from array import array
from itertools import accumulate, compress
from math import copysign
from operator import sub
from typing import Any, Iterable, Iterator

from repro.errors import GraphError
from repro.graph.digraph import Edge, Graph, NodeId


def _pool_key(value: Any) -> tuple:
    """The key two attribute values share a value-pool slot under.

    Equal is not enough: 1, 1.0 and True are equal, 0.0 and -0.0 too, and
    one slot would change a type or a sign on the way back out.  The key
    of an unhashable value is unhashable too (those are never deduplicated).
    """
    if value.__class__ is float:
        return (float, value, copysign(1.0, value))
    return (value.__class__, value)


def _copied(buffer: Any) -> array:
    """An ``array('q')`` copy of ``buffer`` (an array or an int64 view): one memcpy."""
    copy = array("q")
    copy.frombytes(memoryview(buffer).cast("B"))
    return copy


def _own_buffer(buffer: Any) -> array:
    """``buffer`` as an ``array('q')`` that owns its memory.

    Store-loaded snapshots hold int64 ``memoryview`` casts over an mmap;
    those cannot pickle (and must not — the receiving process has no
    mapping), so pickling materializes them.  Already-owned arrays pass
    through untouched.
    """
    return buffer if isinstance(buffer, array) else _copied(buffer)


def _rows(offsets: Any) -> tuple[Any, Any]:
    """The compact ``(starts, ends)`` over ``offsets``: row i is ``offsets[i]:offsets[i + 1]``.

    Slices of an array are copies (one memcpy each); slices of an mmap
    view are views, so a store load stays O(1).
    """
    return offsets[:-1], offsets[1:]


def _compact(starts: Any, ends: Any, targets: Any) -> tuple[array, array]:
    """The compact CSR ``(offsets, targets)`` of one direction's rows, in node order.

    Rows that already tile the targets in order (a freeze, a load, a
    compacted patch) are copied as they stand.  Otherwise the live rows are
    gathered a run at a time, leaving the dead entries behind: a run is a
    stretch of rows each starting where the one before ended, and a patch
    breaks the stretch only around the rows it moved.
    """
    count = len(starts)
    offsets = array("q", [0])
    if not count or (
        starts[0] == 0 and ends[-1] == len(targets) and starts[1:] == ends[:-1]
    ):
        offsets.frombytes(memoryview(ends).cast("B"))
        return offsets, _own_buffer(targets)
    offsets.extend(accumulate(map(sub, ends, starts)))
    breaks = list(compress(range(1, count), map(sub, starts[1:], ends[:-1])))
    gathered = array("q")
    for low, high in zip([0, *breaks], [*breaks, count]):
        gathered.extend(targets[starts[low] : ends[high - 1]])
    return offsets, gathered


def _repointed(
    starts: Any, ends: Any, targets: Any, rows: dict[int, list[int]], count: int, live: int
) -> tuple[Any, Any, Any]:
    """One direction's ``(starts, ends, targets)`` with ``rows`` put in place.

    ``rows`` maps node index -> target ids; indexes past the last row are
    new rows (``count`` rows in all).  The three buffers are copied (one
    memcpy each; the inputs, which may be mmap views, are only read), each
    row is appended to the end of the target copy and its pair pointed
    there, and the entries it replaced stay behind, dead.  Once dead
    entries outnumber the ``live`` ones the direction is compacted, so a
    chain of patches pays one gather per |E| entries it appended.
    """
    if not rows:
        return _own_buffer(starts), _own_buffer(ends), _own_buffer(targets)
    starts, ends, targets = _copied(starts), _copied(ends), _copied(targets)
    grown = bytes(starts.itemsize * (count - len(starts)))
    starts.frombytes(grown)
    ends.frombytes(grown)
    for index in sorted(rows):
        starts[index] = len(targets)
        targets.extend(rows[index])
        ends[index] = len(targets)
    if len(targets) - live > live:
        offsets, targets = _compact(starts, ends, targets)
        starts, ends = _rows(offsets)
    return starts, ends, targets


def _patched_sets(
    sets: tuple[frozenset[int], ...] | None, rows: dict[int, list[int]], count: int
) -> tuple[frozenset[int], ...] | None:
    """A built adjacency view with ``rows`` replaced / appended (else None)."""
    if sets is None or not rows:
        return sets
    patched = list(sets) + [frozenset()] * (count - len(sets))
    for index, row in rows.items():
        patched[index] = frozenset(row)
    return tuple(patched)


class FrozenGraph:
    """An immutable CSR snapshot of a :class:`~repro.graph.digraph.Graph`.

    Build one with :meth:`freeze`.  The snapshot never observes later
    graph mutations made through the graph's API — owners (the engine's
    per-graph record, a served epoch) call :meth:`matches`, which compares
    :attr:`source_version` against ``Graph.version``, to decide when to
    rebuild.  Attribute *values* are held by reference, exactly
    like ``Graph.copy``'s "deep-enough" convention: mutating a stored
    value in place (``graph.attrs(v)["tags"].append(...)``) bypasses the
    version counter everywhere in this codebase, snapshot included.

    Besides the lazy adjacency views, a snapshot keeps memos of work
    done over it: the per-source row kernel's BFS level sets
    (:func:`repro.matching.bounded._per_source_rows`), since a ball
    depends only on the snapshot, the source and the depth, and the
    served path's predicate answers (``_predicates``, a
    :class:`repro.matching.bounded._PredicateMemo`).  Each is bounded by
    a multiple of :attr:`size` ids, and lives and dies with this snapshot:
    :meth:`patched`, :meth:`without_attrs`, :meth:`to_buffers` and pickles
    carry none of it.
    """

    __slots__ = (
        "name",
        "source_version",
        "labels",
        "out_starts",
        "out_ends",
        "out_targets",
        "in_starts",
        "in_ends",
        "in_targets",
        "_edge_count",
        "_columns",
        "_columns_packed",
        "_values",
        "_ids",
        "_succ_sets",
        "_pred_sets",
        "_interned",
        "_pool_floor",
        "_balls",
        "_predicates",
        "path",
    )

    def __init__(
        self,
        name: str,
        source_version: int,
        labels: tuple[NodeId, ...],
        out_rows: tuple[Any, Any, Any],
        in_rows: tuple[Any, Any, Any],
        edge_count: int,
        columns: dict[str, dict[int, int]],
        values: list[Any],
    ) -> None:
        self.name = name
        self.source_version = source_version
        self.labels = labels
        # (starts, ends, targets) per direction: arrays, or int64 views
        # over an mmap for a store-loaded snapshot.
        self.out_starts, self.out_ends, self.out_targets = out_rows
        self.in_starts, self.in_ends, self.in_targets = in_rows
        # The live edges: the targets of a patched snapshot also hold dead
        # entries, the rows its patches replaced.
        self._edge_count = edge_count
        self._columns = columns
        # Columns packed as paired (node index, value id) int64 sections.
        # Store-loaded snapshots keep them packed (``_columns`` None) until
        # first attribute access, so loading is O(1) in attribute count;
        # otherwise it memoises :meth:`to_buffers`' packing, per column.
        self._columns_packed: dict[str, tuple[Any, Any]] | None = None
        self._values = values
        # Derived structures; rebuilt lazily, excluded from pickles.
        self._ids: dict[NodeId, int] | None = None
        self._succ_sets: tuple[frozenset[int], ...] | None = None
        self._pred_sets: tuple[frozenset[int], ...] | None = None
        # What `patched` needs of the pool: its (lazy) interning table and
        # its size at the last full freeze or load.
        self._interned: dict[tuple, int] | None = None
        self._pool_floor = len(values)
        # The per-source row kernel's memo of BFS level sets and the served
        # path's predicate memo (``repro.matching.bounded._BallMemo`` and
        # ``_PredicateMemo``): made on first use, never carried to another
        # snapshot, written to a file or pickled.
        self._balls: Any = None
        self._predicates: Any = None
        # Backing snapshot file when loaded via the store (mmap views);
        # lets the parallel executor ship the path instead of the buffers.
        self.path: Any = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def freeze(cls, graph: Graph) -> "FrozenGraph":
        """Snapshot ``graph`` as it is right now.

        Node order, per-node successor order and per-node predecessor order
        all follow the graph's deterministic insertion order, so kernels
        over the snapshot make the same tie decisions as kernels over the
        dict graph.
        """
        labels = tuple(graph.nodes())
        ids = {label: index for index, label in enumerate(labels)}
        out_offsets = array("q", [0])
        out_targets = array("q")
        for label in labels:
            for target in graph.successors(label):
                out_targets.append(ids[target])
            out_offsets.append(len(out_targets))
        in_offsets = array("q", [0])
        in_targets = array("q")
        for label in labels:
            for source in graph.predecessors(label):
                in_targets.append(ids[source])
            in_offsets.append(len(in_targets))

        columns: dict[str, dict[int, int]] = {}
        values: list[Any] = []
        interned: dict[tuple, int] = {}
        for index, label in enumerate(labels):
            for attr, value in graph.attrs(label).items():
                # _pool_key, inlined: this loop runs once per attribute cell
                kind = value.__class__
                key = (kind, value) if kind is not float else (kind, value, copysign(1.0, value))
                try:
                    value_id = interned[key]
                except KeyError:
                    value_id = interned[key] = len(values)
                    values.append(value)
                except TypeError:  # unhashable values are stored un-deduped
                    value_id = len(values)
                    values.append(value)
                columns.setdefault(attr, {})[index] = value_id
        frozen = cls(
            graph.name,
            graph.version,
            labels,
            (*_rows(out_offsets), out_targets),
            (*_rows(in_offsets), in_targets),
            len(out_targets),
            columns,
            values,
        )
        frozen._ids = ids
        return frozen

    def patched(self, graph: Graph, primitives: Iterable[Any]) -> "FrozenGraph | None":
        """The snapshot of ``graph``, built from this one in O(what changed).

        ``graph`` must be a :meth:`Graph.copy` of this snapshot's graph after
        exactly ``primitives`` (decomposed updates) were applied.  Nothing
        is replayed: the changed rows (an edge's source out-row and target
        in-row, both rows of an inserted node) and the written attribute
        cells are re-read *from ``graph``*.  The CSR buffers are copied (a
        memcpy each), every changed row is appended to the end of its
        target copy and its ``(start, end)`` pair repointed there; the
        entries it replaced stay behind, dead, and :attr:`num_edges` counts
        the live ones.  Once a direction's dead entries outnumber its live
        ones the patch compacts that direction (one gather, amortised over
        at least |E| appended entries), so dead entries never exceed the
        live edges.  Labels and ids are shared (extended by node
        insertions), built adjacency views are carried with those rows
        replaced, only written columns are copied, the value pool only when
        a value is new, and a column left unwritten keeps the packed pair
        a checkpoint's :meth:`to_buffers` made of it.  This snapshot is
        never written — pinned readers see every buffer unchanged — and an
        mmap-backed one yields a result owning its arrays.

        Returns ``None`` (the caller pays :meth:`freeze`) for a node
        deletion — dense ids shift — and once the pool has doubled, plus a
        slot per node, since the last full freeze: overwritten values are
        never reclaimed, this bounds the leak, and the full build is
        amortised over at least |V| new values.

        ``Graph.copy`` is order-exact, so inside one lineage every row of
        the result equals that of ``FrozenGraph.freeze(graph)`` as an
        ordered list, and the arrays are equal too once compacted;
        :meth:`to_buffers` and pickles always carry the compact arrays, so
        a saved patched snapshot is byte-identical to a saved full freeze
        when their value pools agree, and so is a graph rebuilt by
        :meth:`to_graph` (a recovered checkpoint).  A JSON reload
        re-derives predecessor order: over a snapshot frozen before one the
        rows equal a fresh freeze's as sets only — all that kernels and
        ``to_graph() == graph`` observe.
        """
        from repro.incremental.updates import (
            AttributeUpdate,
            EdgeDeletion,
            EdgeInsertion,
            NodeInsertion,
        )

        inserted: list[NodeId] = []
        # nodes whose out-row / in-row changed; dicts, not sets: deterministic order
        sources: dict[NodeId, None] = {}
        sinks: dict[NodeId, None] = {}
        cells: dict[tuple[NodeId, str], None] = {}
        for primitive in primitives:
            if isinstance(primitive, (EdgeInsertion, EdgeDeletion)):
                sources[primitive.source] = sinks[primitive.target] = None
            elif isinstance(primitive, AttributeUpdate):
                cells[(primitive.node, primitive.attr)] = None
            elif isinstance(primitive, NodeInsertion):
                inserted.append(primitive.node)
                sources[primitive.node] = sinks[primitive.node] = None
                cells.update(((primitive.node, attr), None) for attr in primitive.attrs)
            else:  # NodeDeletion
                return None
        if len(self._values) > 2 * self._pool_floor + len(self.labels):
            return None

        labels, ids = self.labels, self.ids()
        if inserted:
            ids = dict(ids)
            ids.update(zip(inserted, range(len(labels), len(labels) + len(inserted))))
            labels = labels + tuple(inserted)
        out_rows = {ids[node]: [ids[t] for t in graph.successors(node)] for node in sources}
        in_rows = {ids[node]: [ids[s] for s in graph.predecessors(node)] for node in sinks}

        columns, values, interned = self._column_dicts(), self._values, self._pool_index()
        written: set[str] = set()
        for node, attr in cells:
            value = graph.attrs(node)[attr]
            key: Any = _pool_key(value)
            try:
                value_id = interned.get(key)
            except TypeError:  # unhashable values are stored un-deduped
                key = value_id = None
            if value_id is None:
                if values is self._values:  # first new value: copy the pool
                    values, interned = list(values), dict(interned)
                value_id = len(values)
                values.append(value)
                if key is not None:
                    interned[key] = value_id
            index = ids[node]
            if columns.get(attr, {}).get(index) == value_id:
                continue  # a write of the value already there
            if not written:
                columns = dict(columns)
            if attr not in written:
                columns[attr] = dict(columns.get(attr, ()))
                written.add(attr)
            columns[attr][index] = value_id

        count, starts, ends = len(labels), self.out_starts, self.out_ends
        live = self._edge_count + sum(
            len(row) - (ends[index] - starts[index] if index < len(starts) else 0)
            for index, row in out_rows.items()
        )
        result = FrozenGraph(
            graph.name,
            graph.version,
            labels,
            _repointed(starts, ends, self.out_targets, out_rows, count, live),
            _repointed(self.in_starts, self.in_ends, self.in_targets, in_rows, count, live),
            live,
            columns,
            values,
        )
        result._ids = ids
        result._interned = interned
        result._pool_floor = self._pool_floor
        result._succ_sets = _patched_sets(self._succ_sets, out_rows, count)
        result._pred_sets = _patched_sets(self._pred_sets, in_rows, count)
        packed = self._columns_packed
        if packed:  # unwritten columns are shared, so are their owned pairs
            result._columns_packed = {
                attr: pair
                for attr, pair in packed.items()
                if attr not in written and isinstance(pair[0], array)
            }
        return result

    def _pool_index(self) -> dict[tuple, int]:
        """``_pool_key(value) -> pool slot`` of the hashable pooled values (lazy)."""
        if self._interned is None:
            interned: dict[tuple, int] = {}
            for value_id, value in enumerate(self._values):
                try:
                    interned.setdefault(_pool_key(value), value_id)
                except TypeError:  # unhashable: never deduplicated
                    pass
            self._interned = interned
        return self._interned

    def without_attrs(self) -> "FrozenGraph":
        """An adjacency-only twin sharing this snapshot's buffers (O(1)).

        This is what ships to worker processes: the traversal kernels
        never read attributes, so pickling the columns and value pool
        would be dead weight on spawn-start platforms.
        """
        if not self._columns and not self._columns_packed and not self._values:
            return self
        twin = FrozenGraph(
            self.name,
            self.source_version,
            self.labels,
            (self.out_starts, self.out_ends, self.out_targets),
            (self.in_starts, self.in_ends, self.in_targets),
            self._edge_count,
            {},
            [],
        )
        twin.path = self.path
        return twin

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return self._edge_count

    @property
    def size(self) -> int:
        """``|G|`` in the paper's sense: nodes plus edges."""
        return self.num_nodes + self.num_edges

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, node: object) -> bool:
        return node in self.ids()

    def has_node(self, node: NodeId) -> bool:
        return node in self.ids()

    def ids(self) -> dict[NodeId, int]:
        """``label -> dense int`` (lazy; rebuilt after unpickling)."""
        if self._ids is None:
            self._ids = {label: index for index, label in enumerate(self.labels)}
        return self._ids

    def id_of(self, node: NodeId) -> int:
        try:
            return self.ids()[node]
        except KeyError:
            raise GraphError(f"unknown node: {node!r}") from None

    def nodes(self) -> Iterator[NodeId]:
        return iter(self.labels)

    def edges(self) -> Iterator[Edge]:
        labels, targets = self.labels, self.out_targets
        for label, start, end in zip(labels, self.out_starts, self.out_ends):
            for position in range(start, end):
                yield (label, labels[targets[position]])

    def successors(self, node: NodeId) -> Iterator[NodeId]:
        index = self.id_of(node)
        labels, targets = self.labels, self.out_targets
        return (
            labels[targets[position]]
            for position in range(self.out_starts[index], self.out_ends[index])
        )

    def predecessors(self, node: NodeId) -> Iterator[NodeId]:
        index = self.id_of(node)
        labels, targets = self.labels, self.in_targets
        return (
            labels[targets[position]]
            for position in range(self.in_starts[index], self.in_ends[index])
        )

    def out_degree(self, node: NodeId) -> int:
        index = self.id_of(node)
        return self.out_ends[index] - self.out_starts[index]

    def in_degree(self, node: NodeId) -> int:
        index = self.id_of(node)
        return self.in_ends[index] - self.in_starts[index]

    def has_edge(self, source: NodeId, target: NodeId) -> bool:
        source_id = self.id_of(source)
        return self.id_of(target) in self.successor_sets()[source_id]

    def _column_dicts(self) -> dict[str, dict[int, int]]:
        """``attr -> {node index: value id}``, unpacked from sections lazily."""
        if self._columns is None:
            self._columns = {
                attr: dict(zip(indices.tolist(), value_ids.tolist()))
                for attr, (indices, value_ids) in (self._columns_packed or {}).items()
            }
        return self._columns

    def node_attrs(self, node: NodeId) -> dict[str, Any]:
        """A fresh attribute dict for ``node`` (column order, not original)."""
        index = self.id_of(node)
        values = self._values
        return {
            attr: values[column[index]]
            for attr, column in self._column_dicts().items()
            if index in column
        }

    def matches(self, graph: Graph) -> bool:
        """Best-effort check that this snapshot was taken of ``graph`` as is.

        Compares the recorded ``source_version`` against ``graph.version``
        plus node/edge counts and O(1) label spot checks (first/last label
        membership and the first label's out-degree).  The version travels
        with the content (``Graph.carry_version``), so this tells any two
        states of one lineage apart, reloaded ones included — the failure
        mode the engine's caches care about — and most accidental
        cross-graph mix-ups; it is not a cryptographic identity proof.
        """
        if (
            self.source_version != graph.version
            or len(self.labels) != graph.num_nodes
            or self.num_edges != graph.num_edges
        ):
            return False
        if not self.labels:
            return True
        first, last = self.labels[0], self.labels[-1]
        return (
            graph.has_node(first)
            and graph.has_node(last)
            and graph.out_degree(first) == self.out_ends[0] - self.out_starts[0]
        )

    # ------------------------------------------------------------------
    # kernel views
    # ------------------------------------------------------------------
    def successor_sets(self) -> tuple[frozenset[int], ...]:
        """Per-node successor id sets (lazy; the BFS kernels' substrate)."""
        if self._succ_sets is None:
            self._succ_sets = self._row_sets(self.out_starts, self.out_ends, self.out_targets)
        return self._succ_sets

    def predecessor_sets(self) -> tuple[frozenset[int], ...]:
        """Per-node predecessor id sets (lazy)."""
        if self._pred_sets is None:
            self._pred_sets = self._row_sets(self.in_starts, self.in_ends, self.in_targets)
        return self._pred_sets

    @staticmethod
    def _row_sets(starts: Any, ends: Any, targets: Any) -> tuple[frozenset[int], ...]:
        flat = targets.tolist()
        return tuple(
            frozenset(flat[start:end]) for start, end in zip(starts.tolist(), ends.tolist())
        )

    # ------------------------------------------------------------------
    # round trip
    # ------------------------------------------------------------------
    def to_graph(self, name: str | None = None) -> Graph:
        """Reconstruct an equal :class:`Graph` (labels, edges, attributes, version).

        Order-exact: node, successor and predecessor order are the
        snapshot's, so ``freeze(to_graph())`` equals this snapshot row for
        row (array for array when compact).  Attribute order within a node
        is column order.
        """
        values = self._values
        attr_rows: list[dict[str, Any]] = [{} for _ in self.labels]
        for attr, column in self._column_dicts().items():
            for index, value_id in column.items():
                attr_rows[index][attr] = values[value_id]
        return Graph.from_rows(
            dict(zip(self.labels, attr_rows)),
            self._label_rows(self.out_starts, self.out_ends, self.out_targets),
            self._label_rows(self.in_starts, self.in_ends, self.in_targets),
            name=self.name if name is None else name,
            version=self.source_version,
        )

    def _label_rows(
        self, starts: Any, ends: Any, targets: Any
    ) -> dict[NodeId, dict[NodeId, None]]:
        """One CSR direction as ``Graph`` rows: label -> ordered label keys."""
        labels = self.labels
        flat = [labels[target] for target in targets.tolist()]
        return {
            label: dict.fromkeys(flat[start:end])
            for label, start, end in zip(labels, starts.tolist(), ends.tolist())
        }

    # ------------------------------------------------------------------
    # flat-buffer codec (binary snapshot files)
    # ------------------------------------------------------------------
    def _packed_labels(self) -> array | None:
        """The labels as one int64 buffer, or None when not purely ints."""
        if not all(type(label) is int for label in self.labels):
            return None
        try:
            return array("q", self.labels)
        except OverflowError:  # labels beyond int64 stay in the metadata
            return None

    def to_buffers(self) -> tuple[dict[str, Any], list[tuple[str, Any]]]:
        """Split the snapshot into JSON-ready metadata and flat buffers.

        The buffer list carries the four compact CSR arrays (offsets and
        targets per direction; a patched snapshot's dead entries are left
        out) as ``(section, buffer)`` pairs, plus one ``labels`` section when every node id is
        a plain int (the common case for generated graphs — JSON-encoding
        and re-parsing millions of int labels would dominate an otherwise
        O(1) load) and one ``col<i>.idx`` / ``col<i>.val`` section pair
        per attribute column.  The metadata dict carries the rest: name,
        the interned value pool, the column attribute names in section
        order, and — only for graphs with non-int node ids — the labels
        themselves.  :meth:`from_buffers` inverts this over either
        materialized arrays or zero-copy mmap views.
        """
        out_offsets, out_targets = _compact(self.out_starts, self.out_ends, self.out_targets)
        in_offsets, in_targets = _compact(self.in_starts, self.in_ends, self.in_targets)
        buffers = [
            ("out_offsets", out_offsets),
            ("out_targets", out_targets),
            ("in_offsets", in_offsets),
            ("in_targets", in_targets),
        ]
        labels_buffer = self._packed_labels()
        if labels_buffer is not None:
            buffers.append(("labels", labels_buffer))
        if self._columns is None and self._columns_packed is not None:
            packed = self._columns_packed  # never unpacked: reuse verbatim
        else:
            # Column dicts are never written in place, so a pair packed
            # before (here, or for the snapshot this one was patched from)
            # still packs its column; the memo is replaced, never mutated.
            known = self._columns_packed or {}
            packed = {
                attr: known.get(attr)
                or (array("q", column.keys()), array("q", column.values()))
                for attr, column in self._column_dicts().items()
            }
            self._columns_packed = packed
        for ordinal, pair in enumerate(packed.values()):
            buffers.append((f"col{ordinal}.idx", pair[0]))
            buffers.append((f"col{ordinal}.val", pair[1]))
        meta = {
            "name": self.name,
            "labels": None if labels_buffer is not None else list(self.labels),
            "columns": list(packed),
            "values": list(self._values),
        }
        return meta, buffers

    @classmethod
    def from_buffers(
        cls,
        source_version: int,
        meta: dict[str, Any],
        buffers: dict[str, Any],
    ) -> "FrozenGraph":
        """Rebuild from :meth:`to_buffers` output.

        ``buffers`` values may be ``array('q')`` objects or int64
        ``memoryview`` casts over an mmap — the kernels only ever index,
        slice and ``tolist()`` them, so views are served as-is (zero
        copy).  Attribute columns stay packed until first access, so this
        is O(num_nodes) at worst (int label decode) and O(1) beyond that.
        """
        if meta["labels"] is None:
            labels = tuple(buffers["labels"].tolist())
        else:
            labels = tuple(meta["labels"])
        frozen = cls(
            meta["name"],
            source_version,
            labels,
            (*_rows(buffers["out_offsets"]), buffers["out_targets"]),
            (*_rows(buffers["in_offsets"]), buffers["in_targets"]),
            len(buffers["out_targets"]),
            {},
            list(meta["values"]),
        )
        frozen._columns = None
        frozen._columns_packed = {
            attr: (buffers[f"col{ordinal}.idx"], buffers[f"col{ordinal}.val"])
            for ordinal, attr in enumerate(meta["columns"])
        }
        return frozen

    # ------------------------------------------------------------------
    # pickling (derived views never travel; mmap views materialize)
    # ------------------------------------------------------------------
    def __getstate__(self) -> tuple:
        return (
            self.name,
            self.source_version,
            self.labels,
            *_compact(self.out_starts, self.out_ends, self.out_targets),
            *_compact(self.in_starts, self.in_ends, self.in_targets),
            self._column_dicts(),
            self._values,
        )

    def __setstate__(self, state: tuple) -> None:
        (
            self.name,
            self.source_version,
            self.labels,
            out_offsets,
            self.out_targets,
            in_offsets,
            self.in_targets,
            self._columns,
            self._values,
        ) = state
        self.out_starts, self.out_ends = _rows(out_offsets)
        self.in_starts, self.in_ends = _rows(in_offsets)
        self._edge_count = len(self.out_targets)
        self._columns_packed = None
        self._ids = None
        self._succ_sets = None
        self._pred_sets = None
        self._interned = None
        self._pool_floor = len(self._values)
        self._balls = None
        self._predicates = None
        self.path = None

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<FrozenGraph{label}: {self.num_nodes} nodes, "
            f"{self.num_edges} edges, v{self.source_version}>"
        )
