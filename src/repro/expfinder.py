"""The ExpFinder facade — the whole system behind one object.

Wraps the query engine, storage, ranking, incremental and compression
modules into the workflow the demo walks its audience through: load or
generate a social graph, build a pattern query, find the top-K experts,
update the graph, inspect what changed.

>>> from repro.expfinder import ExpFinder
>>> from repro.datasets.paper_example import paper_graph, paper_pattern
>>> finder = ExpFinder()
>>> finder.add_graph("fig1", paper_graph())
>>> [match.node for match in finder.find_experts("fig1", paper_pattern(), k=1)]
['Bob']
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Sequence

from repro.engine.engine import QueryEngine
from repro.engine.planner import Plan
from repro.engine.storage import GraphStore
from repro.errors import EvaluationError
from repro.graph.digraph import Graph, NodeId
from repro.graph.io import load_graph
from repro.incremental.updates import Update
from repro.matching.base import MatchResult
from repro.pattern.parser import load_pattern, parse_pattern
from repro.pattern.pattern import Pattern
from repro.ranking.metrics import RankingMetric
from repro.ranking.social_impact import RankedMatch
from repro.viz import ascii as views


class ExpFinder:
    """End-user entry point mirroring the demo system.

    Parameters
    ----------
    workdir:
        Optional directory for file-backed storage of graphs, patterns and
        results.  Without it, everything stays in memory.
    """

    def __init__(self, workdir: str | Path | None = None) -> None:
        store = GraphStore(workdir) if workdir is not None else None
        self.engine = QueryEngine(store=store)

    # ------------------------------------------------------------------
    # data management
    # ------------------------------------------------------------------
    def add_graph(self, name: str, graph: Graph, replace: bool = False) -> None:
        """Register an in-memory graph."""
        self.engine.register_graph(name, graph, replace=replace)

    def load_graph_file(self, name: str, path: str | Path) -> Graph:
        """Register a graph from a JSON file."""
        graph = load_graph(path)
        self.engine.register_graph(name, graph)
        return graph

    def graph(self, name: str) -> Graph:
        return self.engine.graph(name)

    def save(self, name: str) -> None:
        """Persist a registered graph to the working directory store."""
        self.engine.persist_graph(name)

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    @staticmethod
    def pattern_from_text(text: str, name: str = "") -> Pattern:
        """Build a pattern from the text syntax (Pattern Builder substitute)."""
        return parse_pattern(text, name=name)

    @staticmethod
    def pattern_from_file(path: str | Path) -> Pattern:
        return load_pattern(path)

    def enable_oracle(
        self, graph_name: str, cap: int | None = None, top: int | None = None
    ) -> None:
        """Route selective bounded edges through the landmark distance
        oracle (labels build lazily; see ``QueryEngine.enable_oracle``)."""
        self.engine.enable_oracle(graph_name, cap=cap, top=top)

    def oracle_stats(self, graph_name: str) -> dict[str, Any] | None:
        """Label/build statistics of the graph's oracle (None: disabled)."""
        return self.engine.oracle_stats(graph_name)

    def match(
        self,
        graph_name: str,
        pattern: Pattern,
        **kwargs: Any,
    ) -> MatchResult:
        """``M(Q,G)`` with engine routing (cache / compressed / direct)."""
        return self.engine.evaluate(graph_name, pattern, **kwargs)

    def match_many(
        self,
        graph_name: str,
        patterns: Sequence[Pattern],
        workers: int | None = None,
        **kwargs: Any,
    ) -> list[MatchResult]:
        """Evaluate many queries in one batch (shared candidate work).

        ``workers`` > 1 farms the batch's distinct direct-route queries out
        to worker processes.
        """
        return self.engine.evaluate_many(
            graph_name, patterns, workers=workers, **kwargs
        )

    def find_experts(
        self,
        graph_name: str,
        pattern: Pattern,
        k: int = 5,
        metric: str | RankingMetric = "social-impact",
        **evaluate_kwargs: Any,
    ) -> list[RankedMatch] | list[tuple[NodeId, float]]:
        """Top-K matches of the output node, best first.

        Evaluation keywords (``use_cache``, ``use_compression``, ...) are
        forwarded to :meth:`QueryEngine.evaluate`, exactly as
        :meth:`QueryEngine.top_k` accepts them.
        """
        return self.engine.top_k(
            graph_name, pattern, k, metric=metric, **evaluate_kwargs
        )

    def explain(self, graph_name: str, pattern: Pattern) -> Plan:
        """How the engine would evaluate this query right now."""
        return self.engine.explain(graph_name, pattern)

    # ------------------------------------------------------------------
    # dynamics
    # ------------------------------------------------------------------
    def pin(self, graph_name: str, pattern: Pattern) -> None:
        """Mark a query as frequently issued: cached + incrementally maintained."""
        self.engine.pin(graph_name, pattern)

    def update(self, graph_name: str, updates: Sequence[Update]) -> dict[str, Any]:
        """Apply edge updates; returns ΔM per pinned query."""
        return self.engine.update_graph(graph_name, updates)

    def compress(
        self,
        graph_name: str,
        attrs: Sequence[str],
        method: str = "bisimulation",
        maintained: bool = True,
    ):
        """Compress a graph for faster querying; returns the CompressedGraph."""
        return self.engine.compress_graph(
            graph_name, attrs, method=method, maintained=maintained
        )

    # ------------------------------------------------------------------
    # inspection (GUI-substitute views)
    # ------------------------------------------------------------------
    def summary(self, graph_name: str, attr: str = "field") -> str:
        return views.graph_summary(self.engine.graph(graph_name), attr=attr)

    def who_is(self, graph_name: str, node: NodeId) -> str:
        """The personal-information card of one person."""
        return views.node_card(self.engine.graph(graph_name), node)

    def roll_up(self, result: MatchResult) -> str:
        """Global structure of a query result."""
        return views.roll_up(result.result_graph())

    def drill_down(self, result: MatchResult, node: NodeId) -> str:
        """Detailed view of one match inside a query result."""
        return views.drill_down(result.result_graph(), node)

    def ranking_table(self, ranked: Sequence[RankedMatch], k: int | None = None) -> str:
        if ranked and not isinstance(ranked[0], RankedMatch):
            raise EvaluationError(
                "ranking_table renders RankedMatch lists (the social-impact metric)"
            )
        return views.render_ranking(list(ranked), k=k)
