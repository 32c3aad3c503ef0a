"""Bulk top-K ranking — the shared-work engine behind expert selection.

The naive path (:func:`repro.ranking.social_impact.rank_matches`) treats
every match independently: two full Dijkstra runs per match over the live
result-graph views, then a sort, then a slice.  That shape is fine for the
paper's nine-node Fig. 1 but wrong for a result graph with thousands of
matches.  This module restructures ranking around two ideas:

1. **One snapshot, shared by everything.**  A :class:`RankingContext`
   copies the result graph's weighted adjacency (both directions), match
   sets and node attributes exactly once.  Every distance computation —
   for any metric, any ``k``, any number of calls — runs against that
   snapshot and is memoized per ``(direction, source)``, so the paper's
   social-impact metric and e.g. the harmonic metric share their Dijkstra
   runs instead of repeating them.

2. **True top-K: cheap admissible bounds + lazy full scoring.**  Each
   metric can provide a *bound* — a cheap optimistic (never above the real
   score) estimate.  Matches are fully scored lazily, best bound first;
   once ``k`` real scores are known, every match whose bound already
   exceeds the current ``k``-th best score is provably outside the top-K
   and is never scored at all.  For the social-impact metric the bound is
   the minimum incident witness-edge weight (every member of the impact
   set lies at least that far away, so the average does too), with
   isolated matches resolved exactly to ``+inf`` for free.

The selection is *exact*: for every metric and every ``k``, the output
equals the naive rank-everything-then-slice path (``tests/test_topk.py``
asserts it differentially over seeded random graphs;
``benchmarks/bench_topk.py`` asserts it at scale).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.errors import RankingError
from repro.graph.digraph import NodeId
from repro.graph.distance import node_order_key
from repro.matching.result_graph import ResultGraph
from repro.ranking.social_impact import RankedMatch, ranked_match_from_distances

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


class _OrderKeys(dict):
    """``node -> node_order_key(node)``, each key computed on first use.

    A hit is a C-level dict lookup, which is what lets the bucket queue
    sort a level by ``key=memo.__getitem__`` without re-deriving keys.
    """

    __slots__ = ()

    def __missing__(self, node: NodeId) -> str:
        key = self[node] = node_order_key(node)
        return key


class RankingContext:
    """A one-shot snapshot of a result graph plus memoized ranking work.

    Build it once per evaluated query; ask it for top-K lists as often as
    needed.  All distance computations are memoized per source node and per
    direction, so repeated calls (different ``k``, different metrics, a
    rank-cache hit in the engine) never repeat a Dijkstra run.

    The snapshot is self-contained — plain dicts, no live views — which is
    what makes the engine's incremental re-ranking after updates possible:
    the update path can diff two snapshots node by node.

    Dijkstra runs directly over those label rows as a bucket queue
    (Dial's algorithm): witness weights are small positive integers, so
    one level of equal distances is settled at a time, in the same
    tie-break order as the reference heap of
    :func:`~repro.graph.distance.weighted_distances`.

    >>> from repro.datasets.paper_example import paper_graph, paper_pattern
    >>> from repro.matching.bounded import match_bounded
    >>> result = match_bounded(paper_graph(), paper_pattern())
    >>> context = RankingContext(result.result_graph())
    >>> [match.node for match in bulk_top_k_detail(context, 1)]
    ['Bob']
    >>> context.stats["dijkstra_runs"]
    4
    """

    __slots__ = (
        "result_graph",
        "pattern",
        "out_adj",
        "in_adj",
        "matched_by",
        "_attr_cache",
        "_details",
        "_ranked",
        "_dist_out",
        "_dist_in",
        "_scores",
        "_order_keys",
        "stats",
    )

    def __init__(self, result_graph: ResultGraph) -> None:
        self.result_graph = result_graph
        self.pattern = result_graph.pattern
        # The one adjacency snapshot, in the result graph's deterministic
        # iteration order.  The outer dicts are copied; the row dicts are
        # *shared* with the result graph, which is frozen once built (every
        # construction path — matcher, decompression, update maintenance —
        # creates a fresh ResultGraph rather than mutating one), so sharing
        # is safe and keeps snapshotting O(nodes) instead of O(edges).
        self.out_adj: dict[NodeId, Mapping[NodeId, int]] = dict(
            result_graph.out_adjacency()
        )
        self.in_adj: dict[NodeId, Mapping[NodeId, int]] = dict(
            result_graph.in_adjacency()
        )
        self.matched_by: dict[NodeId, set[str]] = dict(result_graph.match_map())
        # Node attributes are fetched (and copied) lazily, per ranked node:
        # most matches are never fully scored, and their attributes live in
        # the data graph which the snapshot must not have to walk.
        self._attr_cache: dict[NodeId, dict[str, Any]] = {}
        self._details: dict[NodeId, RankedMatch] = {}
        # Longest social-impact ranking selected so far, per pattern node:
        # ``(k it was selected for, ranked prefix)`` — see bulk_top_k_detail.
        self._ranked: dict[str, tuple[int | None, tuple[RankedMatch, ...]]] = {}
        self._dist_out: dict[NodeId, dict[NodeId, float]] = {}
        self._dist_in: dict[NodeId, dict[NodeId, float]] = {}
        # Per-metric memoized scores: {metric name: {node: score}}.
        self._scores: dict[str, dict[NodeId, float]] = {}
        self._order_keys = _OrderKeys()
        self.stats: dict[str, int] = {
            "dijkstra_runs": 0,
            "details_scored": 0,
            "details_reused": 0,
            "pruned_by_bound": 0,
        }

    # ------------------------------------------------------------------
    # match enumeration
    # ------------------------------------------------------------------
    def matches(self, pattern_node: str | None = None) -> list[NodeId]:
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

    # ------------------------------------------------------------------
    # memoized distances and details
    # ------------------------------------------------------------------
    def distances_from(self, node: NodeId) -> dict[NodeId, float]:
        """Weighted shortest distances out of ``node`` (memoized).

        Computed by a bucket queue over the snapshot's label rows (see
        :meth:`_dijkstra`); the result — values *and* insertion order — is
        byte-identical to ``weighted_distances(self.out_adj, node)``.
        """
        cached = self._dist_out.get(node)
        if cached is None:
            cached = self._dist_out[node] = self._dijkstra(node, forward=True)
            self.stats["dijkstra_runs"] += 1
        return cached

    def distances_to(self, node: NodeId) -> dict[NodeId, float]:
        """Weighted shortest distances into ``node`` (memoized)."""
        cached = self._dist_in.get(node)
        if cached is None:
            cached = self._dist_in[node] = self._dijkstra(node, forward=False)
            self.stats["dijkstra_runs"] += 1
        return cached

    def _dijkstra(self, node: NodeId, forward: bool) -> dict[NodeId, float]:
        """Dial's bucket queue: ``weighted_distances`` without the heap.

        Result-graph weights are positive integers, so relaxing a node at
        distance ``d`` only ever fills buckets beyond ``d``: by the time
        ``min(buckets)`` is popped, every entry at that distance is in it.
        Settling the bucket in ``node_order_key`` order therefore repeats
        the heap's ``(d, key)`` pops exactly — the same values in the same
        insertion order, which the metrics' float sums depend on.
        """
        adjacency = self.out_adj if forward else self.in_adj
        key_of = self._order_keys.__getitem__
        dist: dict[NodeId, float] = {}
        buckets: dict[float, set[NodeId]] = {}
        # The source is relaxed but not settled (nonempty paths: it is
        # reached only through a cycle); 0.0 + float(w) is float(w).
        level, d = [node], 0.0
        while True:
            for settled in level:
                for nxt, weight in adjacency.get(settled, _NO_ROW).items():
                    if nxt not in dist:
                        far = d + float(weight)
                        bucket = buckets.get(far)
                        if bucket is None:
                            buckets[far] = {nxt}
                        else:
                            bucket.add(nxt)
            if not buckets:
                return dist
            d = min(buckets)
            level = sorted(
                [v for v in buckets.pop(d) if v not in dist], key=key_of
            )
            for settled in level:
                dist[settled] = d

    def node_attrs(self, node: NodeId) -> dict[str, Any]:
        """Attribute snapshot of one node (copied on first use, memoized)."""
        cached = self._attr_cache.get(node)
        if cached is None:
            cached = self._attr_cache[node] = dict(
                self.result_graph.node_attrs(node)
            )
        return cached

    def detail(self, node: NodeId) -> RankedMatch:
        """The full :class:`RankedMatch` of one match (memoized).

        Produces exactly what :func:`repro.ranking.social_impact.rank_detail`
        would for the same result graph — same rank, same evidence dicts.
        """
        cached = self._details.get(node)
        if cached is not None:
            self.stats["details_reused"] += 1
            return cached
        if node not in self.matched_by:
            raise RankingError(f"{node!r} is not a node of the result graph")
        detail = ranked_match_from_distances(
            node,
            self.distances_to(node),
            self.distances_from(node),
            dict(self.node_attrs(node)),
        )
        self._details[node] = detail
        self.stats["details_scored"] += 1
        return detail

    # ------------------------------------------------------------------
    # cheap admissible bounds
    # ------------------------------------------------------------------
    def min_incident_weight(self, node: NodeId) -> float:
        """Smallest witness-edge weight touching ``node`` (``inf`` if none)."""
        out_row = self.out_adj.get(node) or {}
        in_row = self.in_adj.get(node) or {}
        return min(
            min(out_row.values(), default=math.inf),
            min(in_row.values(), default=math.inf),
        )

    def impact_bound(self, node: NodeId) -> float:
        """Admissible lower bound on the social-impact rank of ``node``.

        Every descendant lies at least the minimum outgoing weight away and
        every ancestor at least the minimum incoming weight, so the average
        distance — the rank — is at least the minimum incident weight.  An
        isolated match has an empty impact set, making ``+inf`` *exact*.
        """
        return float(self.min_incident_weight(node))

    # ------------------------------------------------------------------
    # memo maintenance (the engine's incremental re-ranking uses these)
    # ------------------------------------------------------------------
    def carry_over_from(self, old: "RankingContext", changed: set[NodeId]) -> int:
        """Reuse ``old``'s memos for nodes an update provably did not touch.

        ``changed`` is the set of nodes whose result-graph neighbourhood,
        membership or attributes may have changed.  A memoized distance set
        from ``v`` is still valid iff no changed node appears in it (a new
        or removed edge ``a -> b`` can only alter distances from ``v`` if
        ``a`` was reachable from ``v`` or the path enters through ``b``;
        both endpoints are in ``changed``) and ``v`` itself is unchanged.
        Returns the number of fully reused details.
        """
        # ``keys().isdisjoint(set)`` walks the smaller side: ``changed`` is a
        # handful of nodes, a memoized distance dict dozens.
        reused = 0
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
        for node, detail in old._details.items():
            if node in changed or node not in self.matched_by:
                continue
            if detail.ancestors.keys().isdisjoint(
                changed
            ) and detail.descendants.keys().isdisjoint(changed):
                self._details.setdefault(node, detail)
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


# ----------------------------------------------------------------------
# lazy exact top-K selection
# ----------------------------------------------------------------------

def _lazy_select(
    context: RankingContext,
    candidates: list[NodeId],
    k: int | None,
    bound_of: Callable[[NodeId], float],
    score: Callable[[Sequence[NodeId]], list[float]],
) -> list[NodeId]:
    """Exact top-K node selection with bound-based pruning.

    Returns the node ids whose scores ended up computed (a provable
    superset of the true top-K); the caller sorts and slices.  With
    ``k=None`` (rank everything) all candidates are scored.
    """
    if k is None or k >= len(candidates):
        score(candidates)
        return candidates
    bounds = {node: bound_of(node) for node in candidates}
    order = sorted(candidates, key=lambda node: (bounds[node], repr(node)))
    frontier = order[:k]
    frontier_scores = score(frontier)
    kth = sorted(frontier_scores)[k - 1]
    # A candidate whose optimistic bound already exceeds the k-th best
    # *confirmed* score cannot enter the top-K (its true score is at least
    # its bound); ties at the k-th score must still be scored because the
    # node-id tie-break can prefer them.
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

    def rank_nodes(nodes: Sequence[NodeId]) -> list[float]:
        return [context.detail(node).rank for node in nodes]

    scored = _lazy_select(context, candidates, k, context.impact_bound, rank_nodes)
    ranked = [context.detail(node) for node in scored]
    ranked.sort(key=lambda r: (r.rank, repr(r.node)))
    if k is not None:
        del ranked[k:]
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

    def score_nodes(nodes: Sequence[NodeId]) -> list[float]:
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
    pairs = [(node, memo[node]) for node in scored]
    pairs.sort(key=lambda pair: (pair[1], repr(pair[0])))
    return pairs if k is None else pairs[:k]
