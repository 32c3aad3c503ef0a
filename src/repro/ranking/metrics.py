"""Pluggable ranking metrics.

The paper: "The ranking function f() assesses the social impact in terms of
node distance ... Note that other metrics can be readily supported by
ExpFinder."  This module makes that sentence true for the reproduction: a
:class:`RankingMetric` scores matches over the result graph, and the engine
accepts any of them.  All metrics are normalized to *lower is better* so
top-K selection is metric-agnostic.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.errors import RankingError
from repro.graph.digraph import NodeId
from repro.graph.distance import weighted_distances
from repro.matching.result_graph import ResultGraph
from repro.ranking.social_impact import rank_detail

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.ranking.topk import RankingContext


class RankingMetric(ABC):
    """Scores one match of the output node; lower scores rank higher."""

    name = "metric"

    @abstractmethod
    def score(self, result_graph: ResultGraph, node: NodeId) -> float:
        """The (lower-is-better) score of ``node`` in ``result_graph``."""

    def score_bulk(self, context: "RankingContext", node: NodeId) -> float:
        """Score against a bulk :class:`~repro.ranking.topk.RankingContext`.

        ``node`` is one of the context's nodes (a snapshot id in a context
        built from rows; ``context.label_of`` gives its label).  Must return
        exactly what :meth:`score` would for the result graph the context
        ranks.  The default delegates to :meth:`score`; the built-in metrics
        override it to draw from the context's memoized Dijkstra runs so
        bulk top-K shares distance work across metrics and calls.
        """
        return self.score(context.result_graph, context.label_of(node))

    def bound(self, context: "RankingContext", node: NodeId) -> float:
        """Cheap admissible bound: never above :meth:`score_bulk`.

        Bulk top-K fully scores candidates lazily in bound order and skips
        every candidate whose bound exceeds the k-th best confirmed score.
        The default (``-inf``) disables pruning, which is always sound.
        """
        return -math.inf

    def rank_all(
        self, result_graph: ResultGraph, pattern_node: str | None = None
    ) -> list[tuple[NodeId, float]]:
        """All matches of ``pattern_node`` sorted best-first."""
        target = pattern_node or result_graph.pattern.output_node
        if target is None:
            raise RankingError("pattern has no output node and none was given")
        scored = [
            (node, self.score(result_graph, node))
            for node in result_graph.nodes()
            if target in result_graph.matched_pattern_nodes(node)
        ]
        scored.sort(key=lambda pair: (pair[1], repr(pair[0])))
        return scored


class SocialImpactMetric(RankingMetric):
    """The paper's distance-based metric (default)."""

    name = "social-impact"

    def score(self, result_graph: ResultGraph, node: NodeId) -> float:
        return rank_detail(result_graph, node).rank

    def score_bulk(self, context: "RankingContext", node: NodeId) -> float:
        return context.impact(node)

    def bound(self, context: "RankingContext", node: NodeId) -> float:
        return context.impact_bound(node)


class ClosenessMetric(RankingMetric):
    """Classic closeness centrality over the result graph (out-direction).

    Closeness is higher-is-better, so the score is its negation.  Nodes
    reaching nothing score ``+inf``.
    """

    name = "closeness"

    def score(self, result_graph: ResultGraph, node: NodeId) -> float:
        if node not in result_graph:
            raise RankingError(f"{node!r} is not a node of the result graph")
        distances = weighted_distances(result_graph.out_adjacency(), node)
        return self._from_distances(distances)

    def score_bulk(self, context: "RankingContext", node: NodeId) -> float:
        return self._from_distances(context.distances_from(node))

    def bound(self, context: "RankingContext", node: NodeId) -> float:
        # Every reachable node is at least the minimum outgoing weight
        # away, so closeness <= 1/w_min, i.e. the score >= -1/w_min; a
        # node with no out-edges reaches nothing, making +inf exact.
        weights = [min(row.values()) for row in context.out_rows(node) if row]
        if not weights:
            return math.inf
        return -1.0 / min(weights)

    @staticmethod
    def _from_distances(distances: dict[NodeId, float]) -> float:
        total = sum(distances.values())
        if total == 0:
            return math.inf
        return -(len(distances) / total)


class HarmonicMetric(RankingMetric):
    """Harmonic centrality: sum of inverse distances, negated."""

    name = "harmonic"

    def score(self, result_graph: ResultGraph, node: NodeId) -> float:
        if node not in result_graph:
            raise RankingError(f"{node!r} is not a node of the result graph")
        out = weighted_distances(result_graph.out_adjacency(), node)
        back = weighted_distances(result_graph.in_adjacency(), node)
        return self._from_distances(out, back)

    def score_bulk(self, context: "RankingContext", node: NodeId) -> float:
        return self._from_distances(
            context.distances_from(node), context.distances_to(node)
        )

    # No useful cheap bound exists without knowing how many nodes are
    # reachable, so harmonic keeps the default (no pruning, still exact).

    @staticmethod
    def _from_distances(
        out: dict[NodeId, float], back: dict[NodeId, float]
    ) -> float:
        total = sum(1.0 / d for d in out.values()) + sum(1.0 / d for d in back.values())
        return -total


class DegreeMetric(RankingMetric):
    """Result-graph degree (in + out), negated; crude but cheap."""

    name = "degree"

    def score(self, result_graph: ResultGraph, node: NodeId) -> float:
        if node not in result_graph:
            raise RankingError(f"{node!r} is not a node of the result graph")
        out_deg = len(result_graph.out_adjacency().get(node, {}))
        in_deg = len(result_graph.in_adjacency().get(node, {}))
        return -(out_deg + in_deg)

    def score_bulk(self, context: "RankingContext", node: NodeId) -> float:
        return -context.degree(node)

    def bound(self, context: "RankingContext", node: NodeId) -> float:
        # The score itself is O(1) on the snapshot — the bound is exact,
        # so top-K selection never "fully scores" anything extra.
        return self.score_bulk(context, node)


#: Registry used by the CLI's ``--metric`` option and the engine.
METRICS: dict[str, RankingMetric] = {
    metric.name: metric
    for metric in (
        SocialImpactMetric(),
        ClosenessMetric(),
        HarmonicMetric(),
        DegreeMetric(),
    )
}


def get_metric(name: str) -> RankingMetric:
    """Look up a metric by name; raises RankingError for unknown names."""
    try:
        return METRICS[name]
    except KeyError:
        known = ", ".join(sorted(METRICS))
        raise RankingError(f"unknown metric {name!r} (known: {known})") from None
