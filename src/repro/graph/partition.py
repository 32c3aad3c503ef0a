"""Pivot partitioning for sharded pattern evaluation.

Bounded-simulation evaluation is dominated by one truncated BFS per
candidate of every pattern node that has out-edges (the successor-set
construction of :mod:`repro.matching.bounded`).  Each of those searches
depends only on its own source candidate and the (immutable) graph, so
the work shards by *who runs which candidate's search*: every worker
reads the one shared frozen snapshot and computes exactly the successor
rows the sequential matcher would for the candidates it owns.

:func:`decompose` turns (pattern, candidate sets) into :class:`Shard`
values: the *pivots* of a shard are the candidates whose successor rows
the shard owns — every ``(pattern node, candidate)`` pair is owned by
exactly one shard, assigned greedily to the least-loaded shard (load = 1 +
out-degree, a cheap proxy for BFS cost) in the graph's deterministic node
order.  A shard is never a graph and no traversal happens here.

Candidate sets come from the attribute index
(:func:`repro.graph.index.candidates_from_index`) wherever the caller has
one — pivot selection is an index lookup, not a scan.  Patterns whose
every node lacks out-edges need no successor rows at all and decompose
into no shards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.errors import GraphError
from repro.graph.digraph import Graph, NodeId
from repro.graph.frozen import FrozenGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.pattern.pattern import Pattern


@dataclass(frozen=True)
class Shard:
    """One unit of sharded evaluation work.

    Attributes
    ----------
    index:
        Position of the shard in its decomposition (0-based, contiguous).
    pivots:
        ``pattern node -> tuple of owned candidates``; the successor rows
        this shard is responsible for computing.
    """

    index: int
    pivots: Mapping[str, tuple[NodeId, ...]]

    @property
    def num_pivots(self) -> int:
        return sum(len(vs) for vs in self.pivots.values())

    def __repr__(self) -> str:
        return f"<Shard {self.index}: {self.num_pivots} pivots>"


def decompose(
    graph: Graph,
    pattern: "Pattern",
    candidates: Mapping[str, set[NodeId]],
    num_shards: int,
    frozen: FrozenGraph | None = None,
) -> list[Shard]:
    """Split successor-row construction into at most ``num_shards`` shards.

    ``candidates`` maps every pattern node to its predicate-satisfying data
    nodes (typically from
    :func:`~repro.graph.index.candidates_from_index`).  Every
    ``(pattern node, candidate)`` pair for pattern nodes *with out-edges*
    becomes a pivot of exactly one shard.  Empty shards are dropped, so
    fewer than ``num_shards`` may come back; the result is deterministic
    for a given graph (node insertion order decides ties).

    ``frozen`` (a current :class:`~repro.graph.frozen.FrozenGraph` of
    ``graph``) serves the node ranks and out-degrees from the snapshot
    instead of the dict graph — identical shards.

    >>> from repro.datasets.paper_example import paper_graph, paper_pattern
    >>> from repro.matching.simulation import simulation_candidates
    >>> graph, pattern = paper_graph(), paper_pattern()
    >>> shards = decompose(graph, pattern, simulation_candidates(graph, pattern), 2)
    >>> [shard.num_pivots for shard in shards]
    [4, 3]
    >>> sorted(set().union(*[set(shard.pivots) for shard in shards]))
    ['BA', 'SA', 'SD']
    """
    if num_shards < 1:
        raise GraphError(f"num_shards must be >= 1 (got {num_shards})")
    pattern.validate()
    if frozen is not None and not frozen.matches(graph):
        raise GraphError(
            f"stale frozen snapshot: {frozen!r} does not match "
            f"graph version {graph.version}"
        )
    sources = [u for u in pattern.nodes() if any(pattern.out_edges(u))]
    missing = [u for u in sources if u not in candidates]
    if missing:
        raise GraphError(f"candidates missing pattern nodes: {missing}")

    # Rank nodes by insertion order once so pivot assignment is
    # deterministic regardless of hashing, without paying a full-graph
    # scan per pattern source node.  A snapshot's label order *is* the
    # graph's insertion order, so both substrates rank identically.
    if frozen is not None:
        order = frozen.ids()
        degree_of = frozen.out_degree
    else:
        order = {v: rank for rank, v in enumerate(graph.nodes())}
        degree_of = graph.out_degree
    loads = [0] * num_shards
    assigned: list[dict[str, list[NodeId]]] = [{} for _ in range(num_shards)]
    for u in sources:
        cand_u = candidates[u]
        for v in sorted(cand_u, key=order.__getitem__):
            lightest = min(range(num_shards), key=loads.__getitem__)
            assigned[lightest].setdefault(u, []).append(v)
            loads[lightest] += 1 + degree_of(v)

    return [
        Shard(index, {u: tuple(vs) for u, vs in pivots_by_node.items()})
        for index, pivots_by_node in enumerate(filter(None, assigned))
    ]
