"""Bulk top-K ranking — the shared-work engine behind expert selection.

The naive path (:func:`repro.ranking.social_impact.rank_matches`) treats
every match independently: two full Dijkstra runs per match over the live
result-graph views, then a sort, then a slice.  That shape is fine for the
paper's nine-node Fig. 1 but wrong for a result graph with thousands of
matches.  This module restructures ranking around two ideas:

1. **One snapshot, shared by everything.**  A :class:`RankingContext`
   captures the weighted adjacency (both directions) and match sets of one
   evaluation exactly once — from its result graph, or straight from the
   relation-first matcher's int rows, so a served top-K never builds a
   result graph.  Every distance computation — for any metric, any ``k``,
   any number of calls — runs against that snapshot and is memoized per
   ``(direction, source)``, so the paper's social-impact metric and e.g.
   the harmonic metric share their Dijkstra runs instead of repeating them.

2. **True top-K: cheap admissible bounds + lazy full scoring.**  Each
   metric can provide a *bound* — a cheap optimistic (never above the real
   score) estimate.  Matches are fully scored lazily, best bound first;
   once ``k`` real scores are known, every match whose bound already
   exceeds the current ``k``-th best score is provably outside the top-K
   and is never scored at all.  For the social-impact metric the bound is
   the minimum incident witness-edge weight (every member of the impact
   set lies at least that far away, so the average does too), with
   isolated matches resolved exactly to ``+inf`` for free.  Only the
   matches returned get labels, attributes and evidence dicts.

The selection is *exact*: for every metric and every ``k``, the output
equals the naive rank-everything-then-slice path (``tests/test_topk.py``
asserts it differentially over seeded random graphs; the claims ledger's
E13 rows, ``benchmarks/ledger.py``, check it at scale).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.errors import RankingError
from repro.graph.digraph import NodeId
from repro.graph.distance import node_order_key
from repro.graph.frozen import FrozenGraph
from repro.matching.base import MatchResult
from repro.matching.bounded import MatchRows
from repro.matching.result_graph import ResultGraph
from repro.ranking.social_impact import RankedMatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.ranking.metrics import RankingMetric


def validate_k(k: Any) -> int:
    """Validate a top-K ``k`` once, for every metric and every entry point.

    Raises :class:`RankingError` unless ``k`` is a positive integer, so the
    engine, the facade and the CLI reject ``k=0``/``k=-1`` identically
    instead of silently slicing (the historical non-default-metric bug).
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise RankingError(f"k must be a positive integer: {k!r}")
    return k


_NO_ROW: Mapping[NodeId, int] = {}


def _same(node: NodeId) -> NodeId:
    return node


class _OrderKeys(dict):
    """``node -> node_order_key(label_of(node))``, each key computed on first use.

    A hit is a C-level dict lookup, which is what lets a distance set be
    sorted by ``key=memo.__getitem__`` without re-deriving keys.
    """

    __slots__ = ("label_of",)

    def __init__(self, label_of: Callable[[Any], NodeId]) -> None:
        super().__init__()
        self.label_of = label_of

    def __missing__(self, node: Any) -> str:
        key = self[node] = node_order_key(self.label_of(node))
        return key


class RankingContext:
    """A one-shot snapshot of one evaluation's result plus memoized ranking work.

    Build it once per evaluated query; ask it for top-K lists as often as
    needed.  All distance computations are memoized per source node and per
    direction, so repeated calls (different ``k``, different metrics, a
    rank-cache hit in the engine) never repeat a Dijkstra run.

    Two constructors read the same weighted graph two ways:

    * ``RankingContext(result_graph)`` — nodes are labels and each node's
      rows are the result graph's (shared, never copied).  The engine's
      incremental re-ranking after updates diffs two of these node by node.
    * :meth:`from_rows` — nodes are the snapshot's dense ids: each node's
      out-adjacency is the tuple of its per-pattern-edge rows of the
      matcher's :class:`~repro.matching.bounded.MatchRows`, shared and never
      merged.  The reverse rows (:attr:`in_adj`) are built on first need:
      a node none of whose pattern nodes has a pattern in-edge has no
      reverse row, so ranking a star's output node builds none.  Labels
      appear only in what a top-K returns.

    Dijkstra runs directly over those rows with integer distances: its
    first hop merges the source's rows into one dict, which is the whole
    answer when no node it reaches holds a nonempty row (a star's output
    node, unless a leaf matches the output node too); otherwise it seeds
    a bucket queue (Dial's algorithm).  The social-impact rank is the sum
    of both distance sets over the size of their union — int sums, exact,
    so the value is bit-identical to the reference heap's float sum.  A
    distance set handed out (:meth:`distances_from`, the evidence of
    :meth:`detail`) is sorted once into the reference heap's ``(distance,
    node_order_key(label))`` settle order with float values, because other
    metrics sum floats in that order.

    >>> from repro.datasets.paper_example import paper_graph, paper_pattern
    >>> from repro.graph.frozen import FrozenGraph
    >>> from repro.matching.bounded import match_bounded
    >>> result = match_bounded(paper_graph(), paper_pattern())
    >>> context = RankingContext(result.result_graph())
    >>> [match.node for match in bulk_top_k_detail(context, 1)]
    ['Bob']
    >>> context.stats["dijkstra_runs"]  # Walt's bound beats Bob's rank
    2
    >>> graph = paper_graph()
    >>> frozen = FrozenGraph.freeze(graph)
    >>> rows = RankingContext.from_rows(
    ...     match_bounded(graph, paper_pattern(), frozen=frozen), frozen
    ... )
    >>> bulk_top_k_detail(rows, 2) == bulk_top_k_detail(context, 2)
    True
    """

    __slots__ = (
        "pattern",
        "graph",
        "rows",
        "label_of",
        "out_adj",
        "_in_adj",
        "_entered",
        "matched_by",
        "_result",
        "_result_graph",
        "_attr_cache",
        "_impact",
        "_ranked",
        "_dist_out",
        "_dist_in",
        "_sorted_out",
        "_sorted_in",
        "_scores",
        "_order_keys",
        "stats",
    )

    def __init__(
        self,
        result_graph: ResultGraph | None = None,
        *,
        result: MatchResult | None = None,
        frozen: FrozenGraph | None = None,
    ) -> None:
        # One of ``result_graph`` or ``result`` + ``frozen`` (see from_rows).
        self._result_graph = result_graph
        self._result = result
        self.out_adj: dict[Any, Any]
        # The reverse rows; over rows, None until the first node with a
        # pattern in-edge asks (see in_adj).
        self._in_adj: dict[Any, Mapping[Any, int]] | None
        self.matched_by: dict[Any, set[str]]
        self.rows: MatchRows | None
        if result_graph is not None:
            self.pattern, self.graph = result_graph.pattern, result_graph.graph
            self.rows = None
            self.label_of: Callable[[Any], NodeId] = _same
            # The outer dicts are copied; the row dicts are *shared* with
            # the result graph, which is frozen once built (every
            # construction path — matcher, decompression, update
            # maintenance — creates a fresh ResultGraph rather than mutating
            # one), so snapshotting is O(nodes) instead of O(edges).
            self.out_adj = dict(result_graph.out_adjacency())
            self._in_adj = dict(result_graph.in_adjacency())
            self.matched_by = dict(result_graph.match_map())
        else:
            rows = _rows_over(result, frozen)
            if rows is None or result is None or frozen is None:
                raise RankingError(
                    "a context over rows needs a relation-first result "
                    "evaluated over the given snapshot"
                )
            self.pattern, self.graph = result.pattern, result.graph
            self.rows = rows
            self.label_of = frozen.labels.__getitem__
            ids = frozen.ids()
            matched_by: dict[int, set[str]] = {}
            for pattern_node, label in result.relation.pairs():
                matched_by.setdefault(ids[label], set()).add(pattern_node)
            # A pattern edge's row is shared as is: a node that matches
            # several pattern nodes holds several rows.
            out_adj: dict[int, tuple[Mapping[int, int], ...]] = {}
            for edge_rows in rows.rows.values():
                for source, row in edge_rows.items():
                    out_adj[source] = out_adj.get(source, ()) + (row,)
            self.out_adj, self._in_adj = out_adj, None
            self.matched_by = matched_by
        # Pattern nodes with an in-edge: only their matches have reverse rows.
        self._entered = frozenset(target for _, target, _ in self.pattern.edges())
        # Node attributes are fetched (and copied) lazily, per returned
        # node: most matches are never returned, and their attributes live
        # in the data graph which the snapshot must not have to walk.
        self._attr_cache: dict[Any, dict[str, Any]] = {}
        # Social-impact rank per scored node (what ``details_scored`` counts).
        self._impact: dict[Any, float] = {}
        # Longest social-impact ranking selected so far, per pattern node:
        # ``(k it was selected for, ranked prefix)`` — see bulk_top_k_detail.
        self._ranked: dict[str, tuple[int | None, tuple[RankedMatch, ...]]] = {}
        # Int distances in settle order (scoring), and the same sets sorted
        # into the reference order with float values (handed out).
        self._dist_out: dict[Any, dict[Any, int]] = {}
        self._dist_in: dict[Any, dict[Any, int]] = {}
        self._sorted_out: dict[Any, dict[Any, float]] = {}
        self._sorted_in: dict[Any, dict[Any, float]] = {}
        # Per-metric memoized scores: {metric name: {node: score}}.
        self._scores: dict[str, dict[Any, float]] = {}
        self._order_keys = _OrderKeys(self.label_of)
        self.stats: dict[str, int] = {
            "dijkstra_runs": 0,
            "details_scored": 0,
            "pruned_by_bound": 0,
        }

    @classmethod
    def from_rows(cls, result: MatchResult, frozen: FrozenGraph) -> "RankingContext":
        """The context of a relation-first result, over ``frozen``'s ids.

        ``result.state`` must be the :class:`~repro.matching.bounded.MatchRows`
        the matcher built over ``frozen`` (:class:`RankingError`
        otherwise).  No result graph is built; the context's nodes
        (:meth:`matches`, :meth:`detail`) are dense ids and ``label_of``
        maps them back.
        """
        return cls(result=result, frozen=frozen)

    @property
    def in_adj(self) -> dict[Any, Mapping[Any, int]]:
        """``node -> {predecessor: weight}``, the reverse rows.

        Over rows they are built on first read.  A pair two pattern edges
        both hold has one weight, its distance in the data graph, so the
        reverse rows need no minimum.  Racing first readers build equal
        dicts and the last store wins.
        """
        in_adj = self._in_adj
        if in_adj is None:
            assert self.rows is not None
            reverse: defaultdict[int, dict[int, int]] = defaultdict(dict)
            for edge_rows in self.rows.rows.values():
                for source, row in edge_rows.items():
                    for target, dist in row.items():
                        reverse[target][source] = dist
            in_adj = self._in_adj = dict(reverse)
        return in_adj

    def in_row(self, node: Any) -> Mapping[Any, int]:
        """The reverse row of ``node``, building :attr:`in_adj` only if it
        can be nonempty: a match none of whose pattern nodes has a pattern
        in-edge has none."""
        in_adj = self._in_adj
        if in_adj is None:
            matched = self.matched_by.get(node)
            if matched is not None and matched.isdisjoint(self._entered):
                return _NO_ROW
            in_adj = self.in_adj
        return in_adj.get(node, _NO_ROW)

    @property
    def result_graph(self) -> ResultGraph:
        """The result graph ranked — built on first use for a context over
        rows (only a custom metric without ``score_bulk`` asks for it)."""
        if self._result_graph is None:
            assert self._result is not None
            self._result_graph = self._result.result_graph()
        return self._result_graph

    # ------------------------------------------------------------------
    # match enumeration
    # ------------------------------------------------------------------
    def matches(self, pattern_node: str | None = None) -> list[Any]:
        """All matches of ``pattern_node`` (default: the output node)."""
        target = pattern_node or self.pattern.output_node
        if target is None:
            raise RankingError("pattern has no output node and none was given")
        if target not in self.pattern:
            raise RankingError(f"unknown pattern node: {target!r}")
        return [
            node for node, matched in self.matched_by.items() if target in matched
        ]

    def __contains__(self, node: object) -> bool:
        return node in self.matched_by

    @property
    def num_nodes(self) -> int:
        return len(self.matched_by)

    def out_rows(self, node: Any) -> tuple[Mapping[Any, int], ...]:
        """The out-rows of ``node``: one per pattern edge over rows, else one."""
        row = self.out_adj.get(node)
        if row is None:
            return ()
        return row if self.rows is not None else (row,)

    # ------------------------------------------------------------------
    # memoized distances, scores and details
    # ------------------------------------------------------------------
    def distances_from(self, node: Any) -> dict[Any, float]:
        """Weighted shortest distances out of ``node`` (memoized).

        Values *and* insertion order are those of
        ``weighted_distances(out-adjacency, node)``: the int distances of
        :meth:`_dijkstra`, sorted once by ``(distance,
        node_order_key(label))`` — the reference heap's pop order.
        """
        ordered = self._sorted_out.get(node)
        if ordered is None:
            ordered = self._sorted_out[node] = self._in_order(self._reach(node, True))
        return ordered

    def distances_to(self, node: Any) -> dict[Any, float]:
        """Weighted shortest distances into ``node`` (memoized)."""
        ordered = self._sorted_in.get(node)
        if ordered is None:
            ordered = self._sorted_in[node] = self._in_order(self._reach(node, False))
        return ordered

    def _in_order(self, dist: dict[Any, int]) -> dict[Any, float]:
        order = sorted(dist, key=self._order_keys.__getitem__)
        order.sort(key=dist.__getitem__)  # stable: keys stay ordered per level
        return {node: float(dist[node]) for node in order}

    def _reach(self, node: Any, forward: bool) -> dict[Any, int]:
        memo = self._dist_out if forward else self._dist_in
        dist = memo.get(node)
        if dist is None:
            dist = memo[node] = self._dijkstra(node, forward)
            self.stats["dijkstra_runs"] += 1
        return dist

    def _dijkstra(self, node: Any, forward: bool) -> dict[Any, int]:
        """Dial's bucket queue: ``weighted_distances`` without the heap,
        after a first hop that is a merge.

        The source's rows are merged into one dict (``dict.update``; a
        min-merge only when their lengths show overlap).  If no first-hop
        node holds a nonempty row, no path is longer than one edge and
        that dict is the answer: a star's output node stops here unless
        one of its leaves matches the output node too.  Otherwise it
        seeds the buckets.  Weights are positive integers, so relaxing a
        node at distance ``d`` only ever fills buckets beyond ``d``: by
        the time ``min(buckets)`` is popped, every entry at that distance
        is in it and its distance is final.  Nodes are settled in no
        particular order — the distances are what scoring needs; the
        order is restored by one sort where a distance set is handed out
        (:meth:`_in_order`).
        """
        if forward:
            adjacency, per_edge = self.out_adj, self.rows is not None
        elif not self.in_row(node):
            return {}
        else:
            adjacency, per_edge = self.in_adj, False
        # The source is relaxed but not settled (nonempty paths: it is
        # reached only through a cycle).
        rows = adjacency.get(node)
        if not rows:
            return {}
        if not per_edge:
            rows = (rows,)
        first: dict[Any, int] = {}
        for row in rows:
            first.update(row)
        if len(first) < sum(map(len, rows)):
            # Two rows reach one node: keep its smaller weight.
            first = {}
            for row in rows:
                for nxt, weight in row.items():
                    if first.get(nxt, weight) >= weight:
                        first[nxt] = weight
        if not any(map(adjacency.get, first)):
            return first
        dist: dict[Any, int] = {}
        buckets: dict[int, set[Any]] = {}
        for nxt, weight in first.items():
            buckets.setdefault(weight, set()).add(nxt)
        while buckets:
            d = min(buckets)
            level = [v for v in buckets.pop(d) if v not in dist]
            for settled in level:
                dist[settled] = d
            for settled in level:
                rows = adjacency.get(settled)
                if rows is None:
                    continue
                for row in rows if per_edge else (rows,):
                    for nxt, weight in row.items():
                        if nxt not in dist:
                            far = d + weight
                            bucket = buckets.get(far)
                            if bucket is None:
                                buckets[far] = {nxt}
                            else:
                                bucket.add(nxt)
        return dist

    def impact(self, node: Any) -> float:
        """The social-impact rank ``f(uo, v)`` of one node (memoized).

        ``(Σ in-distances + Σ out-distances) / |V'r|`` over int distances.
        Every partial sum of the reference's float sum is an integer below
        2^53, hence exact, so both divide the same two integers: the ranks
        are bit-identical.  An isolated node ranks ``+inf``.
        """
        score = self._impact.get(node)
        if score is None:
            back, out = self._reach(node, False), self._reach(node, True)
            # The union is built only when both sides hold nodes: a star's
            # output node has no backward side.
            if back and out:
                size = len(back.keys() | out.keys())
            else:
                size = len(back) + len(out)
            if size:
                score = (sum(back.values()) + sum(out.values())) / size
            else:
                score = math.inf
            self._impact[node] = score
            self.stats["details_scored"] += 1
        return score

    def node_attrs(self, node: Any) -> dict[str, Any]:
        """Attribute snapshot of one node (copied on first use, memoized)."""
        cached = self._attr_cache.get(node)
        if cached is None:
            cached = self._attr_cache[node] = dict(self.graph.attrs(self.label_of(node)))
        return cached

    def detail(self, node: Any) -> RankedMatch:
        """The full :class:`RankedMatch` of one match, built on request.

        Produces exactly what :func:`repro.ranking.social_impact.rank_detail`
        would for the same result graph — label keys, same rank, same
        evidence dicts in the same order.
        """
        if node not in self.matched_by:
            raise RankingError(f"{node!r} is not a node of the result graph")
        label_of = self.label_of
        return RankedMatch(
            node=label_of(node),
            rank=self.impact(node),
            ancestors={label_of(n): d for n, d in self.distances_to(node).items()},
            descendants={label_of(n): d for n, d in self.distances_from(node).items()},
            attrs=dict(self.node_attrs(node)),
        )

    # ------------------------------------------------------------------
    # cheap admissible bounds
    # ------------------------------------------------------------------
    def min_incident_weight(self, node: Any) -> float:
        """Smallest witness-edge weight touching ``node`` (``inf`` if none)."""
        rows = (*self.out_rows(node), self.in_row(node))
        return min((min(row.values()) for row in rows if row), default=math.inf)

    def impact_bound(self, node: Any) -> float:
        """Admissible lower bound on the social-impact rank of ``node``.

        Every descendant lies at least the minimum outgoing weight away and
        every ancestor at least the minimum incoming weight, so the average
        distance — the rank — is at least the minimum incident weight.  An
        isolated match has an empty impact set, making ``+inf`` *exact*.
        """
        return float(self.min_incident_weight(node))

    def degree(self, node: Any) -> int:
        """Result-graph in-degree plus out-degree of ``node``."""
        rows = self.out_rows(node)
        out = len(rows[0]) if len(rows) == 1 else len(set().union(*rows))
        return out + len(self.in_row(node))

    # ------------------------------------------------------------------
    # memo maintenance (the engine's incremental re-ranking uses these;
    # both contexts are built from result graphs)
    # ------------------------------------------------------------------
    def carry_over_from(self, old: "RankingContext", changed: set[NodeId]) -> int:
        """Reuse ``old``'s memos for nodes an update provably did not touch.

        ``changed`` is the set of nodes whose result-graph neighbourhood,
        membership or attributes may have changed.  A memoized distance set
        from ``v`` is still valid iff no changed node appears in it (a new
        or removed edge ``a -> b`` can only alter distances from ``v`` if
        ``a`` was reachable from ``v`` or the path enters through ``b``;
        both endpoints are in ``changed``) and ``v`` itself is unchanged.
        A score is still valid iff both its distance sets are.  Returns
        the number of reused scores.
        """
        # ``keys().isdisjoint(set)`` walks the smaller side: ``changed`` is a
        # handful of nodes, a memoized distance dict dozens.
        for node, dist in old._dist_out.items():
            if node in changed or node not in self.matched_by:
                continue
            if dist.keys().isdisjoint(changed):
                self._dist_out.setdefault(node, dist)
        for node, dist in old._dist_in.items():
            if node in changed or node not in self.matched_by:
                continue
            if dist.keys().isdisjoint(changed):
                self._dist_in.setdefault(node, dist)
        for node, attrs in old._attr_cache.items():
            if node not in changed and node in self.matched_by:
                self._attr_cache.setdefault(node, attrs)
        reused = 0
        for node, score in old._impact.items():
            if (
                self._dist_out.get(node) is old._dist_out[node]
                and self._dist_in.get(node) is old._dist_in[node]
            ):
                self._impact.setdefault(node, score)
                reused += 1
        return reused

    def diff_nodes(
        self, other: "RankingContext", candidates: Iterable[NodeId] | None = None
    ) -> set[NodeId]:
        """Nodes whose snapshot rows differ between two contexts.

        Membership changes, attribute changes and both endpoints of every
        changed witness edge are included — the seed set for
        :meth:`carry_over_from`.  Attributes are compared only where
        ``other`` materialized them: nothing else in ``other``'s memos can
        depend on an unmaterialized attribute dict.

        ``candidates`` narrows the scan to nodes that may differ in
        presence, rows or attributes (the engine's update path knows them
        from the patch it applied); left out, every node of either context
        is compared.  The answer is the same whenever the candidates cover
        the nodes that do differ.
        """
        if candidates is None:
            candidates = set(self.matched_by) | set(other.matched_by)
        changed: set[NodeId] = set()
        for node in candidates:
            here, there = node in self.matched_by, node in other.matched_by
            if here != there:
                changed.add(node)
            if not (here and there):
                continue
            for mine, theirs in (
                (self.out_adj, other.out_adj),
                (self.in_adj, other.in_adj),
            ):
                row_a, row_b = mine.get(node, {}), theirs.get(node, {})
                if row_a is not row_b and row_a != row_b:
                    changed.add(node)
                    changed.update(set(row_a) ^ set(row_b))
                    changed.update(
                        n for n in set(row_a) & set(row_b) if row_a[n] != row_b[n]
                    )
            attrs = other._attr_cache.get(node)
            if attrs is not None and node not in changed:
                if attrs != self.node_attrs(node):
                    changed.add(node)
        return changed

    def __repr__(self) -> str:
        return (
            f"<RankingContext {self.num_nodes} nodes, "
            f"{self.stats['details_scored']} scored>"
        )


def _rows_over(
    result: MatchResult | None, frozen: FrozenGraph | None
) -> MatchRows | None:
    """``result``'s rows if they are over ``frozen``'s ids, else ``None``.

    A patched snapshot shares its predecessor's ``labels`` unless nodes
    were inserted, and ids never move while it does, so the same
    ``labels`` object means the same ids.
    """
    rows = None if result is None else result.state
    if isinstance(rows, MatchRows) and frozen is not None and rows.labels is frozen.labels:
        return rows
    return None


def context_for(result: MatchResult, frozen: FrozenGraph | None) -> RankingContext:
    """The ranking context of one evaluation — the one place that chooses.

    Over the matcher's rows when ``result`` carries
    :class:`~repro.matching.bounded.MatchRows` over ``frozen``'s ids (a
    relation-first evaluation); over the result graph otherwise (a cached
    relation, a compressed-route result, a dict-state evaluation).
    """
    if _rows_over(result, frozen) is not None:
        return RankingContext.from_rows(result, frozen)
    return RankingContext(result.result_graph())


# ----------------------------------------------------------------------
# lazy exact top-K selection
# ----------------------------------------------------------------------

def _lazy_select(
    context: RankingContext,
    candidates: list[Any],
    k: int | None,
    bound_of: Callable[[Any], float],
    score: Callable[[Sequence[Any]], list[float]],
) -> list[Any]:
    """Exact top-K node selection with bound-based pruning.

    Returns the node ids whose scores ended up computed (a provable
    superset of the true top-K); the caller sorts and slices.  With
    ``k=None`` (rank everything) all candidates are scored.
    """
    if k is None or k >= len(candidates):
        score(candidates)
        return candidates
    bounds = {node: bound_of(node) for node in candidates}
    label_of = context.label_of
    order = sorted(candidates, key=lambda node: (bounds[node], repr(label_of(node))))
    frontier = order[:k]
    frontier_scores = score(frontier)
    kth = sorted(frontier_scores)[k - 1]
    # A candidate whose optimistic bound already exceeds the k-th best
    # *confirmed* score cannot enter the top-K (its true score is at least
    # its bound); ties at the k-th score must still be scored because the
    # label tie-break can prefer them.
    rest = [node for node in order[k:] if bounds[node] <= kth]
    context.stats["pruned_by_bound"] += len(order) - k - len(rest)
    score(rest)
    return frontier + rest


def bulk_top_k_detail(
    context: RankingContext,
    k: int | None,
    pattern_node: str | None = None,
) -> list[RankedMatch]:
    """Top-K :class:`RankedMatch` list by social impact (the paper metric).

    Identical — order, ranks, evidence — to ranking every match with
    :func:`repro.ranking.social_impact.rank_detail` and slicing.  ``k=None``
    ranks everything (the bulk analogue of ``rank_matches``).

    A top-K list is a prefix of the full ranking and the snapshot never
    changes, so the context keeps the longest prefix selected so far per
    pattern node and a repeated call (a rank-cache hit) is a slice: no
    bounds, no sort.  An update replaces the context instead of editing
    it, which is the whole invalidation rule.  The returned list is
    always fresh.
    """
    if k is not None:
        validate_k(k)
    target = pattern_node or context.pattern.output_node
    memo = context._ranked.get(target)
    if memo is not None and (memo[0] is None or (k is not None and k <= memo[0])):
        return list(memo[1][:k])
    candidates = context.matches(pattern_node)
    if not candidates:
        return []

    def rank_nodes(nodes: Sequence[Any]) -> list[float]:
        return [context.impact(node) for node in nodes]

    scored = _lazy_select(context, candidates, k, context.impact_bound, rank_nodes)
    impact, label_of = context._impact, context.label_of
    best = sorted(scored, key=lambda node: (impact[node], repr(label_of(node))))
    ranked = [context.detail(node) for node in best[:k]]
    context._ranked[target] = (k, tuple(ranked))
    return ranked


def bulk_top_k_scores(
    context: RankingContext,
    k: int | None,
    metric: "RankingMetric",
    pattern_node: str | None = None,
) -> list[tuple[NodeId, float]]:
    """Top-K ``(node, score)`` pairs for any pluggable metric.

    Identical to ``metric.rank_all(result_graph)[:k]``, but scored against
    the shared snapshot with memoization and bound pruning.
    """
    if k is not None:
        validate_k(k)
    candidates = context.matches(pattern_node)
    if not candidates:
        return []
    # Scores are memoized on the context only for the registry singletons:
    # two *custom* metric instances could share a name (or carry different
    # parameters under one name), and a cached context must never serve one
    # metric's scores for another.  Custom metrics get a per-call memo.
    from repro.ranking.metrics import METRICS

    if METRICS.get(metric.name) is metric:
        memo = context._scores.setdefault(metric.name, {})
    else:
        memo = {}

    def score_nodes(nodes: Sequence[Any]) -> list[float]:
        for node in nodes:
            if node not in memo:
                memo[node] = metric.score_bulk(context, node)
        return [memo[node] for node in nodes]

    scored = _lazy_select(
        context,
        candidates,
        k,
        lambda node: metric.bound(context, node),
        score_nodes,
    )
    label_of = context.label_of
    best = sorted(scored, key=lambda node: (memo[node], repr(label_of(node))))
    return [(label_of(node), memo[node]) for node in best[:k]]
