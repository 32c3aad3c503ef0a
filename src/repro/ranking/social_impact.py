"""Top-K expert selection by social impact — the demo's new contribution.

§II defines the rank of a match ``v`` of the output node over the result
graph ``Gr``:

    f(uo, v) = ( Σ_{u ∈ Vr, u ⇝ v} dist(u, v)  +  Σ_{u' ∈ Vr, v ⇝ u'} dist(v, u') ) / |V'r|

where ``V'r`` is the set of nodes that can reach ``v`` or be reached from
``v`` (nonempty paths) and distances are weighted shortest paths in ``Gr``.
Intuition: the average social distance between the expert and everyone
connected to them; **lower is better**.  A match with no connections at all
ranks ``+inf`` (no social impact).  Ties are broken by node id so top-K
output is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.errors import RankingError
from repro.graph.digraph import NodeId
from repro.graph.distance import weighted_distances
from repro.matching.result_graph import ResultGraph


@dataclass(frozen=True)
class RankedMatch:
    """One ranked expert: node id, rank value and the evidence behind it."""

    node: NodeId
    rank: float
    ancestors: dict[NodeId, float] = field(repr=False)
    descendants: dict[NodeId, float] = field(repr=False)
    attrs: dict[str, Any] = field(repr=False)

    @property
    def impact_set_size(self) -> int:
        """``|V'r|`` — how many nodes the expert is socially connected to."""
        return len(set(self.ancestors) | set(self.descendants))


def social_impact_rank(result_graph: ResultGraph, node: NodeId) -> float:
    """The paper's ranking value ``f(uo, v)`` for one match (lower = better).

    >>> from repro.datasets.paper_example import paper_graph, paper_pattern
    >>> from repro.matching.bounded import match_bounded
    >>> result = match_bounded(paper_graph(), paper_pattern())
    >>> round(social_impact_rank(result.result_graph(), "Bob"), 3)  # 9/5
    1.8
    """
    detail = rank_detail(result_graph, node)
    return detail.rank


def rank_detail(result_graph: ResultGraph, node: NodeId) -> RankedMatch:
    """Rank one node, returning distances to/from its impact set.

    The reference implementation of ``f(uo, v)``.  The bulk context
    (:class:`repro.ranking.topk.RankingContext`) computes the same value
    from int distance sums (``RankingContext.impact``); the differential
    tests hold the two bit-identical.
    """
    if node not in result_graph:
        raise RankingError(f"{node!r} is not a node of the result graph")
    descendants = weighted_distances(result_graph.out_adjacency(), node)
    ancestors = weighted_distances(result_graph.in_adjacency(), node)
    impact_set = set(ancestors) | set(descendants)
    if not impact_set:
        rank = math.inf
    else:
        total = sum(ancestors.values()) + sum(descendants.values())
        rank = total / len(impact_set)
    return RankedMatch(
        node=node,
        rank=rank,
        ancestors=ancestors,
        descendants=descendants,
        attrs=dict(result_graph.node_attrs(node)),
    )


def rank_matches(
    result_graph: ResultGraph, pattern_node: str | None = None
) -> list[RankedMatch]:
    """Rank every match of ``pattern_node`` (default: the output node).

    Returns all matches sorted best-first (ascending rank, then node id).
    """
    target = pattern_node or result_graph.pattern.output_node
    if target is None:
        raise RankingError("pattern has no output node and none was given")
    if target not in result_graph.pattern:
        raise RankingError(f"unknown pattern node: {target!r}")
    matches = [
        node
        for node in result_graph.nodes()
        if target in result_graph.matched_pattern_nodes(node)
    ]
    ranked = [rank_detail(result_graph, node) for node in matches]
    ranked.sort(key=lambda r: (r.rank, repr(r.node)))
    return ranked


def top_k(
    result_graph: ResultGraph, k: int, pattern_node: str | None = None
) -> list[RankedMatch]:
    """The K best experts for the output node (Example 2's top-K).

    ``k`` larger than the number of matches returns all of them.
    """
    if k < 1:
        raise RankingError(f"k must be >= 1: {k}")
    return rank_matches(result_graph, pattern_node)[:k]
