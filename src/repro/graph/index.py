"""Attribute indexes: inverted ``(attribute, value) -> node set`` postings.

Every matcher starts from predicate-satisfying candidate sets, and the scan
path (:func:`~repro.matching.simulation.simulation_candidates`) pays one
predicate evaluation per pattern node per graph node to get them.  Real
expert-finding deployments put indexes in front of that step — per-attribute
indexes created before any query runs — and this module is the engine's
version of the same idea: an :class:`AttributeIndex` over a graph's node
attributes answers equality-shaped predicates by set algebra over postings
instead of scanning.

Design points:

* **lazy** — registering a graph costs nothing; postings are built on the
  first query that needs them;
* **consistent** — the index records the graph's mutation counter
  (:attr:`~repro.graph.digraph.Graph.version`) whenever it (re)builds or is
  told about an update.  Engine-routed updates are maintained incrementally
  in O(attributes of the touched node); any out-of-band mutation is detected
  by the version mismatch and triggers a lazy rebuild instead of serving
  stale answers;
* **exactness over coverage** — :meth:`AttributeIndex.resolve` answers only
  the fragment it can answer *exactly* (equality, membership, and their
  and/or combinations) or as a verified superset (conjunctions with one
  indexable part).  Ranges, negation and ``AlwaysTrue`` fall back to the
  scan path, so index-backed candidates always equal scan-backed ones.

:func:`candidates_from_index` and :func:`batch_candidates` are the
candidate-generation entry points the matchers and the query engine's batch
evaluator route through.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, NamedTuple

from repro.errors import GraphError
from repro.graph.digraph import Graph, NodeId
from repro.pattern.predicates import AlwaysTrue, And, Cmp, In, Or, Predicate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.pattern.pattern import Pattern

PostingKey = tuple[str, Any]


def _hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


class Resolution(NamedTuple):
    """An index answer: the node set and whether it is exact.

    ``exact=False`` means ``nodes`` is a *superset* of the satisfying nodes
    (a conjunction where only some parts were indexable); the caller must
    verify members against the full predicate.
    """

    nodes: set[NodeId]
    exact: bool


class AttributeIndex:
    """Inverted index from attribute key/value pairs to node sets.

    Built lazily over a :class:`~repro.graph.digraph.Graph`; postings map
    ``(attr, value)`` to the set of nodes carrying exactly that value
    (labels are ordinary attributes, so a ``field`` or ``label`` index
    needs no special casing).  Unhashable attribute values are skipped:
    they can never equal a predicate's atomic comparison value.

    >>> from repro.graph.digraph import Graph
    >>> g = Graph.from_edges([], nodes={
    ...     "bob": {"field": "SA", "experience": 7},
    ...     "dan": {"field": "SD", "experience": 3},
    ...     "eva": {"field": "SD", "experience": 2},
    ... })
    >>> index = AttributeIndex(g)
    >>> sorted(index.lookup("field", "SD"))
    ['dan', 'eva']
    >>> from repro.pattern.predicates import Cmp, And
    >>> index.resolve(Cmp("field", "==", "SA"))
    Resolution(nodes={'bob'}, exact=True)
    >>> index.resolve(Cmp("experience", ">=", 3)) is None   # ranges fall back
    True
    """

    __slots__ = (
        "graph",
        "_postings",
        "_node_keys",
        "_unindexed_attrs",
        "_synced_version",
        "_discarded",
        "_builds",
        "_rebuilds",
        "_exact_hits",
        "_superset_hits",
        "_misses",
    )

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._postings: dict[PostingKey, set[NodeId]] | None = None
        # node -> posting keys it is filed under; makes removal O(attrs).
        self._node_keys: dict[NodeId, tuple[PostingKey, ...]] = {}
        # Attrs for which some node value could not be filed (unhashable).
        # Postings for these attrs are incomplete, so equality lookups on
        # them must decline (an unhashable value can compare equal to a
        # hashable query constant, e.g. {1} == frozenset({1})).
        self._unindexed_attrs: set[str] = set()
        self._synced_version = graph.version
        self._discarded = False  # a built index was dropped via refresh()
        self._builds = 0
        self._rebuilds = 0
        self._exact_hits = 0
        self._superset_hits = 0
        self._misses = 0

    # ------------------------------------------------------------------
    # construction / maintenance
    # ------------------------------------------------------------------
    @property
    def is_built(self) -> bool:
        """Whether postings exist right now (they build on first use)."""
        return self._postings is not None

    def _ensure(self) -> dict[PostingKey, set[NodeId]]:
        if self._postings is not None and self._synced_version == self.graph.version:
            return self._postings
        if self._postings is not None or self._discarded:
            self._rebuilds += 1
        self._discarded = False
        self._builds += 1
        postings: dict[PostingKey, set[NodeId]] = {}
        node_keys: dict[NodeId, tuple[PostingKey, ...]] = {}
        self._unindexed_attrs = set()
        for node in self.graph.nodes():
            keys = self._keys_of(self.graph.attrs(node))
            node_keys[node] = keys
            for key in keys:
                postings.setdefault(key, set()).add(node)
        self._postings = postings
        self._node_keys = node_keys
        self._synced_version = self.graph.version
        return postings

    def _keys_of(self, attrs: dict[str, Any]) -> tuple[PostingKey, ...]:
        keys = []
        for attr, value in attrs.items():
            try:
                hash(value)
            except TypeError:
                self._unindexed_attrs.add(attr)
                continue
            keys.append((attr, value))
        return tuple(keys)

    def refresh(self) -> None:
        """Force a rebuild on next use (e.g. after mutating attribute dicts
        behind the version counter's back)."""
        if self._postings is not None:
            self._discarded = True
        self._postings = None
        self._node_keys = {}

    def on_update(self, update: Any) -> None:
        """Maintain postings for one engine-routed primitive update.

        Must be called *after* the update was applied to the graph (the
        engine's update loop does exactly that), on an index that was in
        sync just before it — the caller's contract: the engine
        :meth:`refresh`-es the index when it finds an out-of-band write,
        before any batch starts.  Edge updates cannot change attributes, so
        they only advance the synchronized version; node and attribute
        updates re-file the touched node.
        """
        from repro.incremental.updates import (
            AttributeUpdate,
            EdgeDeletion,
            EdgeInsertion,
            NodeDeletion,
            NodeInsertion,
        )

        if self._postings is None:
            # Nothing built yet: stay lazy, but keep the version in sync so
            # the eventual build is not mistaken for a rebuild.
            self._synced_version = self.graph.version
            return
        if isinstance(update, (EdgeInsertion, EdgeDeletion)):
            pass
        elif isinstance(update, NodeInsertion):
            self._file_node(update.node)
        elif isinstance(update, NodeDeletion):
            self._unfile_node(update.node)
        elif isinstance(update, AttributeUpdate):
            self._unfile_node(update.node)
            self._file_node(update.node)
        else:
            raise GraphError(f"unknown update type: {update!r}")
        self._synced_version = self.graph.version

    def _file_node(self, node: NodeId) -> None:
        assert self._postings is not None
        keys = self._keys_of(self.graph.attrs(node))
        self._node_keys[node] = keys
        for key in keys:
            self._postings.setdefault(key, set()).add(node)

    def _unfile_node(self, node: NodeId) -> None:
        assert self._postings is not None
        for key in self._node_keys.pop(node, ()):
            posting = self._postings.get(key)
            if posting is not None:
                posting.discard(node)
                if not posting:
                    del self._postings[key]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def lookup(self, attr: str, value: Any) -> frozenset[NodeId]:
        """Nodes whose ``attr`` equals ``value`` (frozen snapshot).

        Attributes carrying unhashable node values have incomplete postings
        (such a value can equal a hashable query constant), so lookups on
        them — and lookups *with* an unhashable value — scan instead.
        """
        postings = self._ensure()
        unindexable = attr in self._unindexed_attrs
        if not unindexable:
            try:
                return frozenset(postings.get((attr, value), ()))
            except TypeError:
                pass  # unhashable query value: postings cannot answer it
        matches = set()
        for node in self.graph.nodes():
            node_attrs = self.graph.attrs(node)
            if attr in node_attrs and node_attrs[attr] == value:
                matches.add(node)
        return frozenset(matches)

    def resolve(self, predicate: Predicate) -> Resolution | None:
        """Answer a predicate from postings, or ``None`` to request a scan.

        Returns an exact node set for the equality fragment (``==``, ``in``,
        and ``and``/``or`` over it), a non-exact superset for conjunctions
        with at least one indexable part, and ``None`` for everything else
        (ranges, ``!=``, negation, ``AlwaysTrue``).  Structurally
        unanswerable predicates decline *without* building postings, so a
        range-only workload never pays for an index it cannot use.
        """
        if not self._could_answer(predicate):
            self._misses += 1
            return None
        self._ensure()
        result = self._resolve(predicate)
        if result is None:
            self._misses += 1
        elif result.exact:
            self._exact_hits += 1
        else:
            self._superset_hits += 1
        return result

    @classmethod
    def _could_answer(cls, predicate: Predicate) -> bool:
        """Structural answerability — decidable without any postings."""
        if isinstance(predicate, Cmp):
            return predicate.op == "==" and _hashable(predicate.value)
        if isinstance(predicate, In):
            return all(_hashable(choice) for choice in predicate.choices)
        if isinstance(predicate, Or):
            return all(cls._could_answer(part) for part in predicate.parts)
        if isinstance(predicate, And):
            return any(cls._could_answer(part) for part in predicate.parts)
        return False

    def _resolve(self, predicate: Predicate) -> Resolution | None:
        postings = self._postings
        assert postings is not None
        if isinstance(predicate, Cmp):
            if predicate.op != "==" or predicate.attr in self._unindexed_attrs:
                # Postings for an attr with unhashable node values are
                # incomplete: such a value can compare equal to a hashable
                # query constant ({1} == frozenset({1})), so only the scan
                # path answers correctly.
                return None
            try:
                posting = postings.get((predicate.attr, predicate.value), ())
            except TypeError:
                # Unhashable comparison value: same story, mirrored — scan.
                return None
            return Resolution(set(posting), True)
        if isinstance(predicate, In):
            if predicate.attr in self._unindexed_attrs:
                return None
            nodes: set[NodeId] = set()
            for choice in predicate.choices:
                try:
                    nodes |= postings.get((predicate.attr, choice), set())
                except TypeError:
                    return None
            return Resolution(nodes, True)
        if isinstance(predicate, Or):
            union: set[NodeId] = set()
            exact = True
            for part in predicate.parts:
                resolved = self._resolve(part)
                if resolved is None:
                    # A superset of an Or needs *every* branch covered.
                    return None
                union |= resolved.nodes
                exact = exact and resolved.exact
            return Resolution(union, exact)
        if isinstance(predicate, And):
            resolved_parts = [
                resolved
                for part in predicate.parts
                if (resolved := self._resolve(part)) is not None
            ]
            if not resolved_parts:
                return None
            nodes = set(resolved_parts[0].nodes)
            for other in resolved_parts[1:]:
                nodes &= other.nodes
            exact = len(resolved_parts) == len(predicate.parts) and all(
                resolved.exact for resolved in resolved_parts
            )
            return Resolution(nodes, exact)
        return None  # AlwaysTrue, Not, and anything user-defined

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._postings) if self._postings is not None else 0

    def stats(self) -> dict[str, int]:
        return {
            "postings": len(self),
            "built": int(self.is_built),
            "builds": self._builds,
            "rebuilds": self._rebuilds,
            "exact_hits": self._exact_hits,
            "superset_hits": self._superset_hits,
            "misses": self._misses,
        }

    def __repr__(self) -> str:
        state = f"{len(self)} postings" if self.is_built else "unbuilt"
        return f"<AttributeIndex {state} over {self.graph!r}>"


def predicate_key(predicate: Predicate) -> tuple:
    """``Predicate.key()``, degraded to an identity key when unhashable.

    ``Cmp``/``In`` values are typed as atoms but nothing enforces that at
    runtime; a predicate built with e.g. a list value has a ``key()`` that
    cannot enter a dict.  Such predicates keep working (scan path, no
    dedup) instead of raising from deep inside candidate generation.
    """
    key = predicate.key()
    try:
        hash(key)
    except TypeError:
        return ("unhashable", id(predicate))
    return key


def batch_candidates(
    graph: Graph,
    predicates: Iterable[Predicate],
    index: AttributeIndex | None = None,
) -> dict[tuple, set[NodeId]]:
    """Candidate sets for many predicates, keyed by :func:`predicate_key`.

    Duplicate predicates (same canonical key) are computed once.  With an
    index, equality-shaped predicates are answered from postings and
    conjunction supersets are verified member-by-member; every predicate the
    index declines is evaluated in one shared pass over the graph's nodes —
    the scan cost is paid once regardless of how many predicates need it.
    """
    by_key: dict[tuple, Predicate] = {}
    for predicate in predicates:
        by_key.setdefault(predicate_key(predicate), predicate)

    out: dict[tuple, set[NodeId]] = {}
    scan: list[tuple[tuple, Predicate]] = []
    for key, predicate in by_key.items():
        if isinstance(predicate, AlwaysTrue):
            out[key] = set(graph.nodes())
            continue
        resolved = index.resolve(predicate) if index is not None else None
        if resolved is None:
            scan.append((key, predicate))
        elif resolved.exact:
            out[key] = resolved.nodes
        else:
            out[key] = {
                node
                for node in resolved.nodes
                if predicate.evaluate(graph.attrs(node))
            }
    if scan:
        for key, _ in scan:
            out[key] = set()
        for node in graph.nodes():
            attrs = graph.attrs(node)
            for key, predicate in scan:
                if predicate.evaluate(attrs):
                    out[key].add(node)
    return out


def candidates_from_index(
    graph: Graph,
    pattern: "Pattern",
    index: AttributeIndex | None = None,
) -> dict[str, set[NodeId]]:
    """Indexed candidate generation: the drop-in replacement for the scan.

    Returns exactly what
    :func:`~repro.matching.simulation.simulation_candidates` would (each
    pattern node gets its own fresh set), but answers what it can from the
    index and shares one scan across the predicates it cannot.

    >>> from repro.graph.digraph import Graph
    >>> from repro.pattern.pattern import Pattern
    >>> g = Graph.from_edges([("a", "b")], nodes={"a": {"l": "X"}, "b": {"l": "Y"}})
    >>> q = Pattern(); q.add_node("X", 'l == "X"'); q.add_node("Y", 'l == "Y"')
    >>> index = AttributeIndex(g)
    >>> sorted((u, sorted(vs)) for u, vs in candidates_from_index(g, q, index).items())
    [('X', ['a']), ('Y', ['b'])]
    """
    predicates = {u: pattern.predicate(u) for u in pattern.nodes()}
    table = batch_candidates(graph, predicates.values(), index=index)
    return {
        u: set(table[predicate_key(predicate)])
        for u, predicate in predicates.items()
    }
