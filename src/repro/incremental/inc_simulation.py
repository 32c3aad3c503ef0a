"""Incremental graph simulation (the SIGMOD 2011 module, simulation case).

At bound 1 bounded simulation *is* graph simulation, so this module keeps
no fixpoint of its own: :class:`IncrementalSimulation` is
:class:`~repro.incremental.inc_bounded.IncrementalBoundedSimulation` over
the pattern with every bound read as 1, just as
:func:`~repro.matching.simulation.match_simulation` is
:func:`~repro.matching.bounded.match_bounded` at bound 1.  With every
bound 1 the maintainer's affected area is only the tail of the updated
edge: one BFS of depth 1 from it, a diff of its successor rows, then the
usual removal cascade (deletion) or optimistic local resurrection
(insertion).
"""

from __future__ import annotations

from repro.graph.digraph import Graph
from repro.incremental.inc_bounded import IncrementalBoundedSimulation
from repro.matching.simulation import every_bound_one
from repro.pattern.pattern import Pattern


class IncrementalSimulation(IncrementalBoundedSimulation):
    """Maintains a plain-simulation match relation under edge updates.

    >>> from repro.graph.digraph import Graph
    >>> from repro.pattern.pattern import Pattern
    >>> from repro.incremental.updates import EdgeInsertion, apply_updates
    >>> g = Graph.from_edges([], nodes={"a": {"l": "X"}, "b": {"l": "Y"}})
    >>> q = Pattern(); q.add_node("X", 'l == "X"'); q.add_node("Y", 'l == "Y"')
    >>> q.add_edge("X", "Y", 1)
    >>> inc = IncrementalSimulation(g, q)
    >>> inc.relation().is_empty
    True
    >>> _ = apply_updates(g, [EdgeInsertion("a", "b")], [inc.apply])
    >>> sorted(inc.relation().pairs())
    [('X', 'a'), ('Y', 'b')]
    """

    __slots__ = ()

    def __init__(self, graph: Graph, pattern: Pattern, index=None) -> None:
        super().__init__(graph, every_bound_one(pattern), index=index)

    # benchmarks/perf/trace.py::PATCHES reads vars(IncrementalSimulation)["apply"].
    apply = IncrementalBoundedSimulation.apply
