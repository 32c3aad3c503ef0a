"""Landmark distance oracle — label-merge reachability over frozen snapshots.

Bounded simulation's unit of work is the distance-bounded reachability test
(PAPER.md, §matching semantics).  After the frozen-snapshot layer, every
such test is still answered by *enumeration*: a truncated BFS materialises
the full d-ball of each source even when the pattern edge only needs to
check a handful of selective candidates against each other.  A
:class:`DistanceOracle` precomputes **pruned landmark labels** over the
:class:`~repro.graph.frozen.FrozenGraph` CSR buffers so that a single
bounded test ``dist(u, v) <= d`` becomes an O(|L(u)| + |L(v)|) label merge
with no traversal at all:

* every node ``u`` carries a **forward label** ``L_out(u) = {(h, dist(u,
  h))}`` and a **reverse label** ``L_in(u) = {(h, dist(h, u))}`` over a
  shared landmark universe, stored as flat ``array('q')`` CSR buffers;
* labels satisfy the 2-hop **cover property**: for every pair ``(u, v)``
  within the oracle's depth cap, some landmark on a shortest ``u -> v``
  path appears in both ``L_out(u)`` and ``L_in(v)``, so
  ``min_h dist(u,h) + dist(h,v)`` is the exact distance;
* a **landmark-pruned reachability closure** (tiny hub sets, typically a
  couple of hubs per node) answers plain ``'*'`` reachability by one
  C-speed ``frozenset`` disjointness test.

Labels are built by a **two-phase pruned BFS** (landmarks in descending
degree order):

1. *phase one* — the top ``top`` landmarks run classic sequential pruned
   landmark labeling [Akiba, Iwata & Yoshida, SIGMOD 2013] among
   themselves;
2. *phase two* — every remaining landmark runs an independent truncated
   BFS pruned **only against the fixed phase-one labels**.

Phase two is embarrassingly parallel (:meth:`ParallelExecutor.build_oracle
<repro.engine.parallel.ParallelExecutor.build_oracle>` fans the chunks out
across worker processes) and — because the prune base is fixed — the
resulting labels are *deterministic*: sequential and parallel builds
produce byte-identical label arrays.  Correctness is unconditional either
way: every label entry is a true BFS distance, and for any pair the
highest-ranked node on a shortest path is never pruned from either side
(a prune certificate would name a strictly higher-ranked node on the same
shortest path).

The oracle is exact for every bound it :meth:`covers`: all finite bounds
up to ``cap``, and ``'*'``/unbounded distances too when built uncapped
(the default).  Nonempty-path semantics are preserved — a self pair
``dist(u, u)`` is the shortest *cycle* through ``u``, answered by merging
the labels of ``u``'s successors, never by the trivial empty path.

>>> from repro.graph.digraph import Graph
>>> from repro.graph.frozen import FrozenGraph
>>> g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
>>> oracle = DistanceOracle.build(FrozenGraph.freeze(g))
>>> frozen = FrozenGraph.freeze(g)
>>> oracle.distance(frozen.id_of("a"), frozen.id_of("d"))
3
>>> oracle.reaches(frozen.id_of("d"), frozen.id_of("a"))
False
"""

from __future__ import annotations

import time
from array import array
from typing import Any, Callable, Iterable, Sequence

from repro.errors import GraphError
from repro.graph.frozen import FrozenGraph, _own_buffer

#: Landmarks processed sequentially (phase one) before the parallel phase.
#: More top landmarks mean better pruning (smaller labels, cheaper phase
#: two) at the cost of a longer sequential prefix.
DEFAULT_TOP = 512

#: Landmarks per phase-two task when a build is fanned out across workers.
PHASE_TWO_CHUNK = 512

# Phase-two build context, installed by :func:`set_build_context` in the
# parent (fork inheritance) or a pool initializer (spawn):
# (phase-one L_out, phase-one L_in, successor sets, predecessor sets, cap).
_build_context: tuple | None = None


def set_build_context(context: tuple | None) -> None:
    """Install (or clear) the phase-two context for :func:`phase_two_chunk`."""
    global _build_context
    _build_context = context


def landmark_order(
    succ: Sequence[frozenset[int]], pred: Sequence[frozenset[int]]
) -> list[int]:
    """Landmark processing order: total degree descending, id ascending.

    High-degree hubs label (and prune) the most pairs; the id tiebreak
    makes the order — and therefore every label array — deterministic.
    """
    return sorted(range(len(succ)), key=lambda v: (-(len(succ[v]) + len(pred[v])), v))


def _phase_one(
    landmarks: Sequence[int],
    succ: Sequence[frozenset[int]],
    pred: Sequence[frozenset[int]],
    cap: int | None,
) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
    """Sequential pruned landmark labeling over the top landmarks.

    Returns per-node ``{hub: dist}`` dicts (insertion order = landmark
    rank order).  Each landmark ``w`` runs one truncated BFS per
    direction; a visited node is labeled unless the labels built so far
    already certify a path of the same or shorter length through an
    earlier (higher-ranked) landmark.
    """
    n = len(succ)
    L_out: list[dict[int, int]] = [{} for _ in range(n)]
    L_in: list[dict[int, int]] = [{} for _ in range(n)]
    for w in landmarks:
        _pruned_bfs(w, succ, L_in, L_in, L_out[w], cap)
        _pruned_bfs(w, pred, L_out, L_out, L_in[w], cap)
        L_out[w][w] = 0
        L_in[w][w] = 0
    return L_out, L_in


def _pruned_bfs(
    w: int,
    adjacency: Sequence[frozenset[int]],
    write_labels: list[dict[int, int]],
    prune_labels: Sequence[dict[int, int]],
    T_src: dict[int, int],
    cap: int | None,
) -> None:
    """One truncated BFS from ``w``, labeling unpruned nodes with ``w``.

    ``prune_labels[x]`` supplies the certificates checked against
    ``T_src`` (the distances from/to ``w`` of already-processed
    landmarks); ``write_labels[x]`` receives ``{w: dist}`` entries.  The
    two coincide in phase one and differ in phase two, where pruning runs
    against the fixed phase-one labels only.
    """
    T_get = T_src.get
    dist = 1
    frontier: frozenset[int] | set[int] = adjacency[w]
    seen = set(frontier)
    seen.add(w)
    while frontier and (cap is None or dist <= cap):
        grown: set[int] = set()
        for x in frontier:
            for h, dxh in prune_labels[x].items():
                t = T_get(h)
                if t is not None and t + dxh <= dist:
                    break
            else:
                write_labels[x][w] = dist
                grown |= adjacency[x]
        dist += 1
        frontier = grown - seen
        seen |= frontier


def phase_two_chunk(landmarks: Sequence[int]) -> tuple[array, array]:
    """Label entries contributed by one chunk of phase-two landmarks.

    Runs against the installed :func:`set_build_context` (in a worker
    process or inline).  Returns two flat ``(node, landmark, dist)``
    triple arrays — forward-label entries and reverse-label entries — so
    a parallel build ships plain buffers, never label dicts.
    """
    assert _build_context is not None, "oracle build context was not installed"
    P_out, P_in, succ, pred, cap = _build_context
    out_entries = array("q")
    in_entries = array("q")
    for w in landmarks:
        _collect_bfs(w, succ, P_in, P_out[w], cap, in_entries)
        _collect_bfs(w, pred, P_out, P_in[w], cap, out_entries)
        out_entries.extend((w, w, 0))
        in_entries.extend((w, w, 0))
    return out_entries, in_entries


def _collect_bfs(
    w: int,
    adjacency: Sequence[frozenset[int]],
    prune_labels: Sequence[dict[int, int]],
    T_src: dict[int, int],
    cap: int | None,
    entries: array,
) -> None:
    """Phase-two BFS from ``w``: like :func:`_pruned_bfs` but append-only.

    Pruning consults only the fixed phase-one labels, so chunks are
    independent of each other — the foundation of both the parallel build
    and the sequential/parallel determinism guarantee.
    """
    T_get = T_src.get
    dist = 1
    frontier: frozenset[int] | set[int] = adjacency[w]
    seen = set(frontier)
    seen.add(w)
    while frontier and (cap is None or dist <= cap):
        grown: set[int] = set()
        for x in frontier:
            for h, dxh in prune_labels[x].items():
                t = T_get(h)
                if t is not None and t + dxh <= dist:
                    break
            else:
                entries.extend((x, w, dist))
                grown |= adjacency[x]
        dist += 1
        frontier = grown - seen
        seen |= frontier


def _reach_closure(
    order: Sequence[int],
    succ: Sequence[frozenset[int]],
    pred: Sequence[frozenset[int]],
) -> tuple[tuple[frozenset[int], ...], tuple[frozenset[int], ...]]:
    """Landmark-pruned reachability closure (2-hop reachability labels).

    ``R_out[v]`` holds the hubs reachable from ``v`` and ``R_in[v]`` the
    hubs that reach ``v`` (both include ``v`` itself); ``u`` reaches ``v``
    iff the sets intersect.  Pruning is aggressive — once the top hubs
    cover the dense core, later BFS runs die immediately — which is why
    these labels stay tiny (a handful of hubs per node) even on graphs
    whose *distance* structure is hub-poor.
    """
    n = len(succ)
    R_out: list[set[int]] = [set() for _ in range(n)]
    R_in: list[set[int]] = [set() for _ in range(n)]
    for w in order:
        for labels_here, adjacency, T_src in ((R_in, succ, R_out[w]), (R_out, pred, R_in[w])):
            frontier: frozenset[int] | set[int] = adjacency[w]
            seen = set(frontier)
            seen.add(w)
            while frontier:
                grown: set[int] = set()
                for x in frontier:
                    if labels_here[x].isdisjoint(T_src):
                        labels_here[x].add(w)
                        grown |= adjacency[x]
                frontier = grown - seen
                seen |= frontier
        R_out[w].add(w)
        R_in[w].add(w)
    return tuple(frozenset(s) for s in R_out), tuple(frozenset(s) for s in R_in)


def _pack_labels(
    label_dicts: Sequence[dict[int, int]], rank: Sequence[int]
) -> tuple[array, array, array]:
    """Label dicts into canonical CSR arrays (rows sorted by hub rank)."""
    offsets = array("q", [0])
    hubs = array("q")
    dists = array("q")
    for row in label_dicts:
        for hub in sorted(row, key=rank.__getitem__):
            hubs.append(hub)
            dists.append(row[hub])
        offsets.append(len(hubs))
    return offsets, hubs, dists


def _pack_reach(reach: Sequence[frozenset[int]]) -> tuple[array, array]:
    """Reach rows (frozensets) into CSR ``(offsets, hubs)`` arrays.

    Rows are written sorted so the file bytes are deterministic; set
    semantics make the order irrelevant on the way back in.
    """
    offsets = array("q", [0])
    hubs = array("q")
    for row in reach:
        hubs.extend(sorted(row))
        offsets.append(len(hubs))
    return offsets, hubs


def _unpack_reach(offsets: Any, hubs: Any) -> tuple[frozenset[int], ...]:
    """Invert :func:`_pack_reach` (accepts arrays or mmap views)."""
    flat = hubs.tolist()
    return tuple(
        frozenset(flat[offsets[index] : offsets[index + 1]])
        for index in range(len(offsets) - 1)
    )


class DistanceOracle:
    """Pruned landmark labels + reachability closure for one snapshot.

    Build with :meth:`build` (or in parallel through
    :meth:`ParallelExecutor.build_oracle
    <repro.engine.parallel.ParallelExecutor.build_oracle>`); the engine
    holds one per registered graph.  All node ids are the dense ints
    of the snapshot the oracle was built from; ids beyond the build-time
    node count (nodes inserted later) have empty labels, which is exactly
    right for a bare inserted node — it reaches nothing and nothing
    reaches it until an edge update (which invalidates the oracle)
    arrives.
    """

    __slots__ = (
        "name",
        "source_version",
        "cap",
        "top",
        "num_nodes",
        "num_edges",
        "build_seconds",
        "out_offsets",
        "out_hubs",
        "out_dists",
        "in_offsets",
        "in_hubs",
        "in_dists",
        "_reach_out",
        "_reach_in",
        "_reach_packed",
        "_first_label",
        "_last_label",
        "rows_filled",
        "point_queries",
        "path",
    )

    def __init__(
        self,
        name: str,
        source_version: int,
        cap: int | None,
        top: int,
        num_nodes: int,
        num_edges: int,
        build_seconds: float,
        out_labels: tuple[array, array, array],
        in_labels: tuple[array, array, array],
        reach_out: tuple[frozenset[int], ...] | None,
        reach_in: tuple[frozenset[int], ...] | None,
        first_label: Any,
        last_label: Any,
    ) -> None:
        self.name = name
        self.source_version = source_version
        self.cap = cap
        self.top = top
        self.num_nodes = num_nodes
        self.num_edges = num_edges
        self.build_seconds = build_seconds
        self.out_offsets, self.out_hubs, self.out_dists = out_labels
        self.in_offsets, self.in_hubs, self.in_dists = in_labels
        # Reach rows are frozensets in memory but CSR arrays on disk;
        # store-loaded oracles keep the packed form (``_reach_packed``,
        # set by :meth:`from_buffers`) and materialize lazily so a load
        # stays O(1) — see the ``reach_out``/``reach_in`` properties.
        self._reach_out = reach_out
        self._reach_in = reach_in
        self._reach_packed: tuple | None = None
        self._first_label = first_label
        self._last_label = last_label
        self.rows_filled = 0
        self.point_queries = 0
        # Backing snapshot file when loaded via the store (see FrozenGraph.path).
        self.path: Any = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        frozen: FrozenGraph,
        cap: int | None = None,
        top: int | None = None,
        chunk_map: Callable[..., Iterable] | None = None,
    ) -> "DistanceOracle":
        """Build labels for ``frozen``; exact up to ``cap`` (None = all).

        ``top`` bounds the sequential phase-one prefix (default
        :data:`DEFAULT_TOP`).  ``chunk_map(function, chunks)`` runs the
        independent phase-two chunks — pass a pool ``map`` to build in
        parallel; the labels are identical either way.
        """
        if cap is not None and cap < 1:
            raise GraphError(f"cap must be >= 1 or None: {cap!r}")
        start = time.perf_counter()
        succ = frozen.successor_sets()
        pred = frozen.predecessor_sets()
        n = len(succ)
        top = min(n, DEFAULT_TOP if top is None else top)
        if top < 0:
            raise GraphError(f"top must be >= 0: {top!r}")
        order = landmark_order(succ, pred)
        L_out, L_in = _phase_one(order[:top], succ, pred, cap)
        rest = order[top:]
        if rest:
            set_build_context((L_out, L_in, succ, pred, cap))
            try:
                chunks = [
                    rest[i : i + PHASE_TWO_CHUNK]
                    for i in range(0, len(rest), PHASE_TWO_CHUNK)
                ]
                runner = chunk_map if chunk_map is not None else map
                # Materialise before merging: phase-two pruning must only
                # ever see the phase-one labels (determinism + the
                # parallel build's correctness argument).
                results = list(runner(phase_two_chunk, chunks))
            finally:
                set_build_context(None)
            for out_entries, in_entries in results:
                for triples, labels in ((out_entries, L_out), (in_entries, L_in)):
                    for position in range(0, len(triples), 3):
                        labels[triples[position]][triples[position + 1]] = triples[
                            position + 2
                        ]
        rank = [0] * n
        for position, node in enumerate(order):
            rank[node] = position
        out_labels = _pack_labels(L_out, rank)
        in_labels = _pack_labels(L_in, rank)
        reach_out, reach_in = _reach_closure(order, succ, pred)
        labels = frozen.labels
        return cls(
            frozen.name,
            frozen.source_version,
            cap,
            top,
            n,
            frozen.num_edges,
            time.perf_counter() - start,
            out_labels,
            in_labels,
            reach_out,
            reach_in,
            labels[0] if labels else None,
            labels[-1] if labels else None,
        )

    # ------------------------------------------------------------------
    # coverage + validity
    # ------------------------------------------------------------------
    def covers(self, bound: int | None) -> bool:
        """Can label merges answer rows for this bound exactly?

        Uncapped labels cover everything including ``'*'``; capped labels
        cover finite bounds up to the cap.
        """
        cap = self.cap
        if cap is None:
            return True
        return bound is not None and bound <= cap

    def compatible_with(self, frozen: FrozenGraph) -> bool:
        """Best-effort check that ``frozen`` extends the build snapshot.

        Exact for the engine's lifecycle: a snapshot of the same graph
        whose edges are untouched and whose pre-existing nodes keep their
        insertion order (attribute updates and bare node insertions — the
        updates the engine lets an oracle survive).  Like
        :meth:`FrozenGraph.matches` this is O(1) spot checking, not a
        cryptographic identity proof.
        """
        if frozen.num_nodes < self.num_nodes or frozen.num_edges != self.num_edges:
            return False
        if self.num_nodes == 0:
            return True
        labels = frozen.labels
        return (
            labels[0] == self._first_label
            and labels[self.num_nodes - 1] == self._last_label
        )

    @staticmethod
    def survives(update: Any) -> bool:
        """Whether one graph update leaves these labels exact.

        The affected-area argument: label entries are shortest-path
        distances, so only *structural* updates (edge insertions or
        deletions — including the ones a node deletion decomposes into)
        can change them.  Attribute updates touch no distances, and a
        bare node insertion adds an isolated node whose (empty) labels
        are already correct.
        """
        from repro.incremental.updates import AttributeUpdate, NodeInsertion

        return isinstance(update, (AttributeUpdate, NodeInsertion))

    # ------------------------------------------------------------------
    # reach closure (lazy when loaded from a snapshot file)
    # ------------------------------------------------------------------
    @property
    def reach_out(self) -> tuple[frozenset[int], ...]:
        if self._reach_out is None:
            offsets, hubs = self._reach_packed[0]
            self._reach_out = _unpack_reach(offsets, hubs)
        return self._reach_out

    @property
    def reach_in(self) -> tuple[frozenset[int], ...]:
        if self._reach_in is None:
            offsets, hubs = self._reach_packed[1]
            self._reach_in = _unpack_reach(offsets, hubs)
        return self._reach_in

    # ------------------------------------------------------------------
    # rows + point queries
    # ------------------------------------------------------------------
    def out_row(self, node: int) -> zip:
        """``(hub, dist(node, hub))`` pairs (empty for post-build ids)."""
        if node >= self.num_nodes:
            return zip((), ())
        start, end = self.out_offsets[node], self.out_offsets[node + 1]
        return zip(self.out_hubs[start:end], self.out_dists[start:end])

    def in_row(self, node: int) -> zip:
        """``(hub, dist(hub, node))`` pairs (empty for post-build ids)."""
        if node >= self.num_nodes:
            return zip((), ())
        start, end = self.in_offsets[node], self.in_offsets[node + 1]
        return zip(self.in_hubs[start:end], self.in_dists[start:end])

    def distance(self, source: int, target: int) -> int | None:
        """Exact nonempty-path distance for *distinct* ids; None if none.

        Distances beyond a finite ``cap`` are reported as ``None`` — use
        :meth:`covers` to know which bounds are trustworthy.  Self pairs
        need adjacency (the shortest cycle): see :meth:`cycle_distance`.
        """
        if source == target:
            raise GraphError(
                "distance(u, u) is the shortest cycle through u; "
                "use cycle_distance(u, adjacency)"
            )
        lookup = dict(self.in_row(target))
        get = lookup.get
        best: int | None = None
        for hub, d_source_hub in self.out_row(source):
            d_hub_target = get(hub)
            if d_hub_target is not None:
                total = d_source_hub + d_hub_target
                if best is None or total < best:
                    best = total
        return best

    def cycle_distance(
        self, node: int, adjacency: Sequence[frozenset[int]], bound: int | None = None
    ) -> int | None:
        """Shortest nonempty cycle through ``node`` (<= ``bound`` if given).

        Self pairs cannot ride the plain label merge — the trivial
        ``(node, 0)`` entries would certify the empty path — so the cycle
        is taken through each successor: ``1 + dist(successor, node)``.
        """
        if node >= len(adjacency):
            return None
        successors = adjacency[node]
        if node in successors:
            return 1  # self-loop: the shortest possible cycle
        in_row = dict(self.in_row(node))
        get = in_row.get
        best: int | None = None
        for successor in successors:
            for hub, d_succ_hub in self.out_row(successor):
                d_hub_node = get(hub)
                if d_hub_node is not None:
                    total = 1 + d_succ_hub + d_hub_node
                    if best is None or total < best:
                        best = total
            if best == 2:
                break  # no self-loop (checked above): nothing shorter exists
        if best is not None and bound is not None and best > bound:
            return None
        return best

    def reaches(self, source: int, target: int) -> bool:
        """Nonempty-path reachability for *distinct* ids (O(|R|) merge)."""
        if source == target:
            raise GraphError(
                "reaches(u, u) asks for a cycle; use cycle_reaches(u, adjacency)"
            )
        self.point_queries += 1
        if source >= self.num_nodes or target >= self.num_nodes:
            return False
        return not self.reach_out[source].isdisjoint(self.reach_in[target])

    def cycle_reaches(self, node: int, adjacency: Sequence[frozenset[int]]) -> bool:
        """True iff ``node`` lies on a cycle (re-reaches itself)."""
        self.point_queries += 1
        if node >= self.num_nodes or node >= len(adjacency):
            return False
        reach_in = self.reach_in[node]
        for successor in adjacency[node]:
            if successor == node or not self.reach_out[successor].isdisjoint(reach_in):
                return True
        return False

    def within(self, source: int, target: int, bound: int | None) -> bool:
        """``dist(source, target) <= bound`` by label merge (no traversal)."""
        if bound is None:
            return self.reaches(source, target)
        if not self.covers(bound):
            raise GraphError(f"oracle does not cover bound {bound!r} (cap {self.cap!r})")
        self.point_queries += 1
        distance = self.distance(source, target)
        return distance is not None and distance <= bound

    def fill_rows(
        self,
        sources: Sequence[int],
        edge_data: Sequence[tuple],
        rows: dict,
        adjacency: Sequence[frozenset[int]],
    ) -> None:
        """Fill ``rows[edge][source] = {child: dist}`` by label merges.

        ``edge_data`` carries ``(edge, bound, child candidate ids)``
        triples, exactly like the enumeration kernels in
        :mod:`repro.matching.bounded`; the produced rows are byte-identical
        to theirs (the seeded differential suite asserts it).  Instead of
        materialising the d-ball of every source, each edge builds one
        ``hub -> [(child, dist)]`` bucket over the child candidates' reverse
        labels and then joins every source's forward label against it —
        candidate x candidate work, independent of ball volume.
        """
        self.rows_filled += len(sources) * len(edge_data)
        if any(bound is None for _edge, bound, _children in edge_data):
            # Cheap reachability prefilter for '*' edges: a source whose
            # reach hubs miss every child's reach hubs has an empty row —
            # one frozenset test instead of a label join.
            edge_data = list(edge_data)
            reach_out = self.reach_out
            n = self.num_nodes
            for index, (edge, bound, children) in enumerate(edge_data):
                if bound is not None:
                    continue
                child_hubs = frozenset().union(
                    *(self.reach_in[child] for child in children if child < n)
                ) if children else frozenset()
                edge_rows = rows[edge]
                live_sources = []
                for source in sources:
                    if (
                        source < n
                        and (source in children or not reach_out[source].isdisjoint(child_hubs))
                    ):
                        live_sources.append(source)
                    else:
                        edge_rows[source] = {}
                self._merge_rows(live_sources, [(edge, bound, children)], rows, adjacency)
                edge_data[index] = None
            edge_data = [item for item in edge_data if item is not None]
            if not edge_data:
                return
        self._merge_rows(sources, edge_data, rows, adjacency)

    def _merge_rows(
        self,
        sources: Sequence[int],
        edge_data: Sequence[tuple],
        rows: dict,
        adjacency: Sequence[frozenset[int]],
    ) -> None:
        """The label join behind :meth:`fill_rows` (no reach prefilter)."""
        for edge, bound, children in edge_data:
            if not self.covers(bound):
                raise GraphError(
                    f"oracle does not cover bound {bound!r} (cap {self.cap!r})"
                )
            edge_rows = rows[edge]
            bucket: dict[int, list[tuple[int, int]]] = {}
            bucket_get = bucket.get
            for child in children:
                for hub, dist in self.in_row(child):
                    if bound is not None and dist > bound:
                        continue
                    entry = bucket_get(hub)
                    if entry is None:
                        bucket[hub] = [(child, dist)]
                    else:
                        entry.append((child, dist))
            for source in sources:
                row: dict[int, int] = {}
                get = row.get
                for hub, d_source_hub in self.out_row(source):
                    if bound is not None and d_source_hub > bound:
                        continue
                    matches = bucket_get(hub)
                    if matches is None:
                        continue
                    if bound is None:
                        for child, d_hub_child in matches:
                            total = d_source_hub + d_hub_child
                            old = get(child)
                            if old is None or total < old:
                                row[child] = total
                    else:
                        remaining = bound - d_source_hub
                        for child, d_hub_child in matches:
                            if d_hub_child <= remaining:
                                total = d_source_hub + d_hub_child
                                old = get(child)
                                if old is None or total < old:
                                    row[child] = total
                if source in children:
                    # The merge certified source~source via the empty path
                    # (0-distance self hubs); nonempty-path semantics want
                    # the shortest cycle instead.
                    cycle = self.cycle_distance(source, adjacency, bound)
                    if cycle is None:
                        row.pop(source, None)
                    else:
                        row[source] = cycle
                edge_rows[source] = row

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def profile(self) -> dict[str, Any]:
        """The numbers the planner's cost model consumes."""
        n = max(1, self.num_nodes)
        return {
            "cap": self.cap,
            "avg_out_label": len(self.out_hubs) / n,
            "avg_in_label": len(self.in_hubs) / n,
        }

    def stats(self) -> dict[str, Any]:
        n = max(1, self.num_nodes)
        return {
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "cap": self.cap,
            "top": self.top,
            "source_version": self.source_version,
            "build_seconds": self.build_seconds,
            "label_entries_out": len(self.out_hubs),
            "label_entries_in": len(self.in_hubs),
            "avg_out_label": len(self.out_hubs) / n,
            "avg_in_label": len(self.in_hubs) / n,
            "reach_entries": self._reach_entries(),
            "rows_filled": self.rows_filled,
            "point_queries": self.point_queries,
        }

    def _reach_entries(self) -> int:
        # Counting from the packed arrays keeps stats() from forcing a
        # lazily-loaded reach closure to materialize.
        if self._reach_out is None or self._reach_in is None:
            packed_out, packed_in = self._reach_packed
            return len(packed_out[1]) + len(packed_in[1])
        return sum(len(s) for s in self._reach_out) + sum(
            len(s) for s in self._reach_in
        )

    # ------------------------------------------------------------------
    # flat-buffer codec (binary snapshot files)
    # ------------------------------------------------------------------
    def to_buffers(self) -> tuple[dict[str, Any], list[tuple[str, Any]]]:
        """JSON-ready metadata plus the flat label/reach buffers.

        Mirrors :meth:`FrozenGraph.to_buffers`: the six label CSR arrays
        travel as-is, the reach closure is packed into CSR ``(offsets,
        hubs)`` pairs (reused verbatim when this oracle was itself loaded
        from a file and never materialized its reach rows).
        """
        meta = {
            "name": self.name,
            "cap": self.cap,
            "top": self.top,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "build_seconds": self.build_seconds,
            "first_label": self._first_label,
            "last_label": self._last_label,
        }
        if (self._reach_out is None or self._reach_in is None) and (
            self._reach_packed is not None
        ):
            (reach_out_offsets, reach_out_hubs), (
                reach_in_offsets,
                reach_in_hubs,
            ) = self._reach_packed
        else:
            reach_out_offsets, reach_out_hubs = _pack_reach(self.reach_out)
            reach_in_offsets, reach_in_hubs = _pack_reach(self.reach_in)
        buffers = [
            ("out_offsets", self.out_offsets),
            ("out_hubs", self.out_hubs),
            ("out_dists", self.out_dists),
            ("in_offsets", self.in_offsets),
            ("in_hubs", self.in_hubs),
            ("in_dists", self.in_dists),
            ("reach_out_offsets", reach_out_offsets),
            ("reach_out_hubs", reach_out_hubs),
            ("reach_in_offsets", reach_in_offsets),
            ("reach_in_hubs", reach_in_hubs),
        ]
        return meta, buffers

    @classmethod
    def from_buffers(
        cls,
        source_version: int,
        meta: dict[str, Any],
        buffers: dict[str, Any],
    ) -> "DistanceOracle":
        """Rebuild from :meth:`to_buffers` output (arrays or mmap views).

        The reach closure stays packed until first use, so loading is
        O(1) in graph size.
        """
        oracle = cls(
            meta["name"],
            source_version,
            meta["cap"],
            meta["top"],
            meta["num_nodes"],
            meta["num_edges"],
            meta["build_seconds"],
            (buffers["out_offsets"], buffers["out_hubs"], buffers["out_dists"]),
            (buffers["in_offsets"], buffers["in_hubs"], buffers["in_dists"]),
            None,
            None,
            meta["first_label"],
            meta["last_label"],
        )
        oracle._reach_packed = (
            (buffers["reach_out_offsets"], buffers["reach_out_hubs"]),
            (buffers["reach_in_offsets"], buffers["reach_in_hubs"]),
        )
        return oracle

    # ------------------------------------------------------------------
    # pickling (mmap views materialize; the mapping stays home)
    # ------------------------------------------------------------------
    def __getstate__(self) -> tuple:
        return (
            self.name,
            self.source_version,
            self.cap,
            self.top,
            self.num_nodes,
            self.num_edges,
            self.build_seconds,
            tuple(_own_buffer(buf) for buf in (self.out_offsets, self.out_hubs, self.out_dists)),
            tuple(_own_buffer(buf) for buf in (self.in_offsets, self.in_hubs, self.in_dists)),
            self.reach_out,
            self.reach_in,
            self._first_label,
            self._last_label,
            self.rows_filled,
            self.point_queries,
        )

    def __setstate__(self, state: tuple) -> None:
        (
            self.name,
            self.source_version,
            self.cap,
            self.top,
            self.num_nodes,
            self.num_edges,
            self.build_seconds,
            out_labels,
            in_labels,
            self._reach_out,
            self._reach_in,
            self._first_label,
            self._last_label,
            self.rows_filled,
            self.point_queries,
        ) = state
        self.out_offsets, self.out_hubs, self.out_dists = out_labels
        self.in_offsets, self.in_hubs, self.in_dists = in_labels
        self._reach_packed = None
        self.path = None

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        cap = "*" if self.cap is None else self.cap
        return (
            f"<DistanceOracle{label}: {self.num_nodes} nodes, cap {cap}, "
            f"{len(self.out_hubs) + len(self.in_hubs)} label entries, "
            f"v{self.source_version}>"
        )
