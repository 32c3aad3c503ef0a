"""Plain graph simulation — bounded simulation with every bound 1.

Graph simulation [Henzinger, Henzinger & Kopke, FOCS 1995] requires each
pattern edge to map to a single data edge.  The paper uses it two ways: as
the fast path when every bound is 1, and as a foil — Example 1 shows it is
too restrictive for social networks (this repository's paper-example tests
reproduce that: simulation finds no match where bounded simulation finds
seven pairs).

At bound 1 bounded simulation *is* graph simulation, so this module keeps
no fixpoint of its own: :func:`match_simulation` runs
:func:`~repro.matching.bounded.match_bounded` — the relation-first
matcher over a snapshot, :class:`~repro.matching.bounded.BoundedState`
without one — with every bound read as 1 and no guard.
"""

from __future__ import annotations

from typing import Iterable

from repro.graph.digraph import Graph, NodeId
from repro.graph.frozen import FrozenGraph
from repro.graph.index import AttributeIndex, candidates_from_index
from repro.matching.base import MatchResult
from repro.matching.bounded import match_bounded
from repro.pattern.pattern import Pattern


def simulation_candidates(
    graph: Graph, pattern: Pattern, index: AttributeIndex | None = None
) -> dict[str, set[NodeId]]:
    """Predicate-satisfying candidates per pattern node.

    With an :class:`~repro.graph.index.AttributeIndex`, comparisons and
    memberships (ranges included) are answered from postings and only the
    rest scan.  Without one, a single shared pass over the graph evaluates
    every distinct pattern predicate on every node.  Both paths live in
    :func:`~repro.graph.index.candidates_from_index`, so indexed and
    scanned candidates cannot drift apart.
    """
    return candidates_from_index(graph, pattern, index)


def every_bound_one(pattern: Pattern) -> Pattern:
    """``pattern`` with every edge bound read as 1 — its simulation reading.

    The pattern itself when every bound already is 1; otherwise a copy
    with the same name, predicates and output node.
    """
    if pattern.is_simulation_pattern:
        return pattern
    unit = Pattern(pattern.name)
    for node in pattern.nodes():
        unit.add_node(node, pattern.predicate(node), output=node == pattern.output_node)
    for source, target, _bound in pattern.edges():
        unit.add_edge(source, target, 1)
    return unit


def match_simulation(
    graph: Graph,
    pattern: Pattern,
    index: AttributeIndex | None = None,
    candidates: dict[str, set[NodeId]] | None = None,
    frozen: FrozenGraph | None = None,
    oracle=None,
    budget=None,
    candidate_ids=None,
) -> MatchResult:
    """Compute ``M(Q,G)`` under plain graph simulation.

    :func:`~repro.matching.bounded.match_bounded` over ``pattern`` with
    every bound read as 1, and the same arguments — except ``budget``:
    simulation patterns are never guarded, so it is accepted and dropped.
    ``stats["algorithm"]`` says ``"simulation"``.

    >>> from repro.graph.digraph import Graph
    >>> from repro.pattern.pattern import Pattern
    >>> g = Graph.from_edges([("a", "b")], nodes={"a": {"l": "X"}, "b": {"l": "Y"}})
    >>> q = Pattern(); q.add_node("X", 'l == "X"'); q.add_node("Y", 'l == "Y"')
    >>> q.add_edge("X", "Y", 1)
    >>> sorted(match_simulation(g, q).relation.pairs())
    [('X', 'a'), ('Y', 'b')]
    """
    pattern = every_bound_one(pattern)
    result = match_bounded(
        graph, pattern, index=index, candidates=candidates, frozen=frozen,
        oracle=oracle, candidate_ids=candidate_ids,
    )
    result.stats["algorithm"] = "simulation"
    return result


def simulates(graph: Graph, pattern: Pattern, pairs: Iterable[tuple[str, NodeId]]) -> bool:
    """Check whether a given set of pairs is a valid simulation relation.

    Test/diagnostic helper: verifies the two defining conditions for every
    pair (predicate satisfaction; every pattern edge mapped to a data edge
    whose endpoint is also in the relation).
    """
    by_pattern: dict[str, set[NodeId]] = {u: set() for u in pattern.nodes()}
    for pattern_node, data_node in pairs:
        by_pattern.setdefault(pattern_node, set()).add(data_node)
    for pattern_node, data_nodes in by_pattern.items():
        predicate = pattern.predicate(pattern_node)
        for data_node in data_nodes:
            if not predicate.evaluate(graph.attrs(data_node)):
                return False
            for child_pattern, _bound in pattern.out_edges(pattern_node):
                children = by_pattern.get(child_pattern, set())
                if not any(s in children for s in graph.successors(data_node)):
                    return False
    return True
