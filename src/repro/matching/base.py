"""Match relations and match results.

``M(Q, G)`` in the paper is a *relation* between pattern nodes and data
nodes — the maximum relation satisfying the (bounded) simulation conditions,
which is unique for each Q and G.  :class:`MatchRelation` is its immutable
value type; :class:`MatchResult` wraps a relation with provenance (query,
graph, algorithm, timings) and lazily derives the result graph.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping

from repro.errors import EvaluationError
from repro.graph.digraph import Graph, NodeId
from repro.pattern.pattern import Pattern

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.matching.result_graph import ResultGraph


class MatchRelation(Mapping):
    """An immutable mapping ``pattern node -> frozenset of data nodes``.

    Per the paper's semantics, the relation is *total or empty*: if any
    pattern node has no valid match the whole relation is empty.  Builders
    enforce that via :meth:`from_sets`' ``totality`` handling; the raw
    constructor stores exactly what it is given (useful for diagnostics).

    ``_wire`` is :func:`repro.server.wire.encode_relation`'s memo of the
    relation's wire form; only that module reads or writes it.  It needs
    no invalidation because ``_sets`` never changes after construction,
    and equality and hashing ignore it.
    """

    __slots__ = ("_sets", "_wire")

    def __init__(self, sets: Mapping[str, Iterable[NodeId]]) -> None:
        self._sets: dict[str, frozenset[NodeId]] = {
            u: frozenset(vs) for u, vs in sets.items()
        }
        self._wire: tuple[dict[str, Any], str] | None = None

    @classmethod
    def from_sets(
        cls, pattern: Pattern, sets: Mapping[str, Iterable[NodeId]]
    ) -> "MatchRelation":
        """Build the paper-semantics relation from refined candidate sets.

        Every pattern node must be a key of ``sets``; if any set is empty,
        the result is the empty relation (all pattern nodes map to the empty
        set), matching the all-or-nothing definition of ``M(Q,G)``.
        """
        missing = [u for u in pattern.nodes() if u not in sets]
        if missing:
            raise EvaluationError(f"sets missing pattern nodes: {missing}")
        materialized = {u: frozenset(sets[u]) for u in pattern.nodes()}
        if any(not vs for vs in materialized.values()):
            return cls({u: frozenset() for u in pattern.nodes()})
        return cls(materialized)

    # Mapping interface ----------------------------------------------------
    def __getitem__(self, pattern_node: str) -> frozenset[NodeId]:
        return self._sets[pattern_node]

    def __iter__(self) -> Iterator[str]:
        return iter(self._sets)

    def __len__(self) -> int:
        return len(self._sets)

    # relation views ---------------------------------------------------------
    def matches_of(self, pattern_node: str) -> frozenset[NodeId]:
        """Matches of one pattern node (empty frozenset if none)."""
        return self._sets.get(pattern_node, frozenset())

    def pairs(self) -> Iterator[tuple[str, NodeId]]:
        """All ``(pattern node, data node)`` pairs."""
        for pattern_node, data_nodes in self._sets.items():
            for data_node in data_nodes:
                yield (pattern_node, data_node)

    @property
    def num_pairs(self) -> int:
        return sum(len(vs) for vs in self._sets.values())

    @property
    def is_empty(self) -> bool:
        return all(not vs for vs in self._sets.values())

    def matched_data_nodes(self) -> frozenset[NodeId]:
        """All data nodes matched by at least one pattern node."""
        out: set[NodeId] = set()
        for data_nodes in self._sets.values():
            out.update(data_nodes)
        return frozenset(out)

    def diff(self, other: "MatchRelation") -> tuple[set, set]:
        """``(added, removed)`` pairs going from ``self`` to ``other``.

        This is ``ΔM`` of the paper's Example 3.
        """
        mine = set(self.pairs())
        theirs = set(other.pairs())
        return (theirs - mine, mine - theirs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchRelation):
            return NotImplemented
        return self._sets == other._sets

    def __hash__(self) -> int:
        return hash(tuple(sorted((u, vs) for u, vs in self._sets.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{u}:{len(vs)}" for u, vs in self._sets.items())
        return f"<MatchRelation {{{inner}}}>"

    # serialization ----------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "format": "repro.relation",
            "version": 1,
            "sets": {u: sorted(vs, key=repr) for u, vs in self._sets.items()},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MatchRelation":
        if not isinstance(payload, Mapping) or payload.get("format") != "repro.relation":
            raise EvaluationError("not a repro.relation payload")
        return cls({u: frozenset(vs) for u, vs in payload["sets"].items()})


class MatchResult:
    """A match relation plus provenance and derived artefacts.

    Attributes
    ----------
    graph, pattern:
        The evaluated inputs (held by reference).
    relation:
        The :class:`MatchRelation` ``M(Q,G)``.
    stats:
        Free-form evaluation statistics: ``algorithm``, ``route``,
        ``seconds``, and anything the engine wants to record.
    """

    __slots__ = ("graph", "pattern", "relation", "stats", "_state", "_result_graph")

    def __init__(
        self,
        graph: Graph,
        pattern: Pattern,
        relation: MatchRelation,
        stats: dict[str, Any] | None = None,
        state: Any = None,
    ) -> None:
        self.graph = graph
        self.pattern = pattern
        self.relation = relation
        self.stats = stats or {}
        self._state = state
        self._result_graph: "ResultGraph | None" = None

    @property
    def state(self) -> Any:
        """The matcher's final state, or ``None``.

        A :class:`~repro.matching.bounded.BoundedState`, or a relation-first
        evaluation's :class:`~repro.matching.bounded.MatchRows` (int rows
        over a snapshot's ids).
        """
        return self._state

    @property
    def is_match(self) -> bool:
        """True iff the pattern matched (relation is total, hence nonempty)."""
        return not self.relation.is_empty

    def matches_of(self, pattern_node: str) -> frozenset[NodeId]:
        return self.relation.matches_of(pattern_node)

    def output_matches(self) -> frozenset[NodeId]:
        """Matches of the pattern's output node (the candidate experts)."""
        output = self.pattern.output_node
        if output is None:
            raise EvaluationError("pattern has no output node")
        return self.relation.matches_of(output)

    def result_graph(self) -> "ResultGraph":
        """The weighted result graph (built once, then cached)."""
        if self._result_graph is None:
            from repro.matching.result_graph import build_result_graph

            self._result_graph = build_result_graph(
                self.graph, self.pattern, self.relation, state=self._state
            )
        return self._result_graph

    def __repr__(self) -> str:
        status = "match" if self.is_match else "no-match"
        return (
            f"<MatchResult {status}: {self.relation.num_pairs} pairs, "
            f"stats={self.stats!r}>"
        )


class ChangeLog:
    """What an incremental maintainer changed since it was last drained.

    ``toggled`` holds the ``(pattern node, data node)`` pairs whose ``sim``
    membership flipped; ``dirty`` the data nodes whose result-graph out-row
    may differ now — every toggled node, every source whose successor row
    changed, and every source holding a toggled node in such a row.  Both
    sets name *candidates*: a pair that flips back stays listed, and the
    reader compares rows rather than trusting the log for equality.
    """

    __slots__ = ("toggled", "dirty")

    def __init__(self) -> None:
        self.toggled: set[tuple[str, NodeId]] = set()
        self.dirty: set[NodeId] = set()

    def drain(self) -> tuple[set[tuple[str, NodeId]], set[NodeId]]:
        """Hand over ``(toggled, dirty)`` and start an empty log."""
        drained = (self.toggled, self.dirty)
        self.toggled, self.dirty = set(), set()
        return drained


class Stopwatch:
    """Tiny perf_counter helper so matchers report comparable timings."""

    __slots__ = ("started",)

    def __init__(self) -> None:
        self.started = time.perf_counter()

    def seconds(self) -> float:
        return time.perf_counter() - self.started
