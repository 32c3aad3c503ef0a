"""Attribute indexes: inverted ``attribute -> value -> node set`` postings.

Every matcher starts from predicate-satisfying candidate sets, and the scan
path (:func:`~repro.matching.simulation.simulation_candidates`) pays one
predicate evaluation per pattern node per graph node to get them.  Real
expert-finding deployments put indexes in front of that step — per-attribute
indexes created before any query runs — and this module is the engine's
version of the same idea: an :class:`AttributeIndex` over a graph's node
attributes answers comparisons — ranges included — and memberships by set
algebra over postings instead of scanning.

Design points:

* **lazy** — registering a graph costs nothing; postings are built on the
  first query that needs them;
* **consistent** — the index records the graph's mutation counter
  (:attr:`~repro.graph.digraph.Graph.version`) whenever it (re)builds or is
  told about an update.  Engine-routed updates are maintained incrementally
  in O(attributes of the touched node); any out-of-band mutation is detected
  by the version mismatch and triggers a lazy rebuild instead of serving
  stale answers;
* **carried, not rebuilt** — a served epoch's index is the prior epoch's
  re-filed for the nodes its batch wrote (:meth:`AttributeIndex.carried`):
  the attribute dict is copied shallowly, an attribute's value dict on the
  first write to that attribute and a posting set on its first write, so a
  new epoch's first read costs what the batch touched, never |G|, and the
  prior index — still read by pinned queries — never changes.  The
  engine's :meth:`~AttributeIndex.on_update` re-files through the same
  helper, in place;
* **exactness over coverage** — :meth:`AttributeIndex.resolve` answers
  every comparison exactly, all six operators: the distinct values filed
  under an attribute are the keys of its value dict, so a range costs one
  comparison per distinct value (a ``TypeError`` is ``False``, as in
  :meth:`~repro.pattern.predicates.Cmp.evaluate`) plus a union of the
  postings that pass.  Inside a conjunction the equality parts are
  intersected first and every other part is restricted to that set.  Only
  negation, ``AlwaysTrue`` and user-defined predicates are not indexable:
  alone they fall back to the scan path, inside a conjunction they make
  the answer a superset that the caller verifies — so index-backed
  candidates always equal scan-backed ones.

:func:`candidates_from_index` and :func:`batch_candidates` are the
candidate-generation entry points the matchers and the query engine's batch
evaluator route through.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple

from repro.errors import GraphError
from repro.graph.digraph import Graph, NodeId
from repro.pattern.predicates import AlwaysTrue, And, Cmp, In, Or, Predicate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.pattern.pattern import Pattern

PostingKey = tuple[str, Any]
#: ``attr -> value -> nodes carrying exactly that value``.
Postings = dict[str, dict[Any, set[NodeId]]]

#: The value slot of a node's key for an attribute whose value is
#: unhashable: recorded per node so unfiling it can release the attribute.
_UNFILED = object()
#: The value slot of the key under which a carry records that an
#: attribute's value dict is its own (the dict, not one posting set).
_VALUES = object()


def _hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


class Resolution(NamedTuple):
    """An index answer: the node set and whether it is exact.

    ``exact=False`` means ``nodes`` is a *superset* of the satisfying nodes
    (a conjunction with a part the index cannot answer, such as a
    negation); the caller must verify members against the full predicate.
    """

    nodes: set[NodeId]
    exact: bool


class AttributeIndex:
    """Inverted index from attribute key/value pairs to node sets.

    Built lazily over a :class:`~repro.graph.digraph.Graph`; postings map
    an attribute to a dict from each value filed under it to the set of
    nodes carrying exactly that value (labels are ordinary attributes, so a
    ``field`` or ``label`` index needs no special casing).  Unhashable
    attribute values are not filed; an attribute holding one declines
    every predicate on it.

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
    >>> sorted(index.resolve(Cmp("experience", ">=", 3)).nodes)   # ranges too
    ['bob', 'dan']
    >>> index.resolve(And(Cmp("field", "==", "SD"), Cmp("experience", ">=", 3)))
    Resolution(nodes={'dan'}, exact=True)
    """

    __slots__ = (
        "graph",
        "_postings",
        "_node_keys",
        "_unfiled",
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
        self._postings: Postings | None = None
        # node -> posting keys it is filed under; makes removal O(attrs).
        # An unhashable value's key is ``(attr, _UNFILED)``.
        self._node_keys: dict[NodeId, tuple[PostingKey, ...]] = {}
        # attr -> how many nodes hold an unhashable (unfiled) value for it.
        # Postings for these attrs are incomplete, so equality lookups on
        # them must decline (an unhashable value can compare equal to a
        # hashable query constant, e.g. {1} == frozenset({1})).
        self._unfiled: dict[str, int] = {}
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

    def _ensure(self) -> Postings:
        if self._postings is not None and self._synced_version == self.graph.version:
            return self._postings
        if self._postings is not None or self._discarded:
            self._rebuilds += 1
        self._discarded = False
        self._builds += 1
        # Fresh containers, never cleared ones: a carried index may share
        # them with the index it was carried from.
        postings: Postings = {}
        node_keys: dict[NodeId, tuple[PostingKey, ...]] = {}
        unfiled: dict[str, int] = {}
        for node in self.graph.nodes():
            keys = self._keys_of(self.graph.attrs(node))
            if not keys:
                continue
            node_keys[node] = keys
            for key in keys:
                if key[1] is _UNFILED:
                    unfiled[key[0]] = unfiled.get(key[0], 0) + 1
                else:
                    postings.setdefault(key[0], {}).setdefault(key[1], set()).add(node)
        self._postings, self._node_keys, self._unfiled = postings, node_keys, unfiled
        self._synced_version = self.graph.version
        return postings

    @staticmethod
    def _keys_of(attrs: dict[str, Any]) -> tuple[PostingKey, ...]:
        keys = []
        for attr, value in attrs.items():
            try:
                hash(value)
            except TypeError:
                value = _UNFILED
            keys.append((attr, value))
        return tuple(keys)

    def _refile(self, node: NodeId, copied: set[PostingKey] | None) -> None:
        """File ``node`` under the graph's current attributes (absent: unfile).

        Only the keys that changed are written.  ``copied`` names the value
        dicts (as ``(attr, _VALUES)``) and posting sets (as ``(attr,
        value)``) this index has made its own during a carry: any other is
        shared with the prior index and is copied before its first write.
        ``None``: every container belongs to this index.
        """
        assert self._postings is not None
        old = self._node_keys.pop(node, ())
        new = self._keys_of(self.graph.attrs(node)) if node in self.graph else ()
        if new:
            self._node_keys[node] = new
        kept = set(old).intersection(new)
        for key in old:
            if key not in kept:
                self._write(key, copied, node, add=False)
        for key in new:
            if key not in kept:
                self._write(key, copied, node, add=True)

    def _write(
        self, key: PostingKey, copied: set[PostingKey] | None, node: NodeId, add: bool
    ) -> None:
        postings = self._postings
        assert postings is not None
        attr, value = key
        if value is _UNFILED:
            count = self._unfiled.get(attr, 0) + (1 if add else -1)
            if count:
                self._unfiled[attr] = count
            else:
                del self._unfiled[attr]
            return
        values = postings.get(attr)
        if values is None:
            values = postings[attr] = {}
        elif copied is not None and (attr, _VALUES) not in copied:
            values = postings[attr] = dict(values)
        posting = values.get(value)
        if posting is None:
            posting = values[value] = set()
        elif copied is not None and key not in copied:
            posting = values[value] = set(posting)
        if copied is not None:
            copied.update(((attr, _VALUES), key))
        if add:
            posting.add(node)
        else:
            posting.discard(node)
            if not posting:
                del values[value]
                if not values:
                    del postings[attr]

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
        if self._postings is None:
            # Nothing built yet: stay lazy, but keep the version in sync so
            # the eventual build is not mistaken for a rebuild.
            self._synced_version = self.graph.version
            return
        for node in _written_nodes((update,)):
            self._refile(node, None)
        self._synced_version = self.graph.version

    def carried(self, graph: Graph, primitives: Iterable[Any]) -> "AttributeIndex":
        """This index, re-filed for ``graph``, in O(nodes the batch wrote).

        ``graph`` must be a :meth:`Graph.copy` of this index's graph after
        exactly ``primitives`` (decomposed updates) were applied, and must
        not be written afterwards (an epoch's graph).  Each node a node or
        attribute primitive names is re-filed from ``graph`` itself, so a
        node inserted and deleted (or deleted and re-inserted) inside the
        batch ends as a fresh build would file it.  The attribute dict is
        copied shallowly, a value dict on the first write to its attribute
        and a posting set on its first write: this index — which pinned
        readers may still be using — never changes, and an edge-only batch
        shares its postings outright.  An index not built yet (or out of
        sync) carries nothing: the result is lazy.
        """
        carried = AttributeIndex(graph)
        if self._postings is None or self._synced_version != self.graph.version:
            return carried
        written = _written_nodes(primitives)
        carried._postings = dict(self._postings) if written else self._postings
        carried._node_keys = dict(self._node_keys) if written else self._node_keys
        carried._unfiled = dict(self._unfiled) if written else self._unfiled
        copied: set[PostingKey] = set()
        for node in written:
            carried._refile(node, copied)
        return carried

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
        unindexable = attr in self._unfiled
        if not unindexable:
            try:
                return frozenset(postings.get(attr, {}).get(value, ()))
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

        Returns an exact node set for every comparison (all six operators)
        and membership with a hashable constant, and for ``and``/``or`` over
        them; a non-exact superset for conjunctions that also hold a part
        the index cannot answer (negation, ``AlwaysTrue``, user-defined);
        and ``None`` for those parts alone, for an ``or`` with one of them
        among its branches, and for any attribute holding an unhashable
        value.  Structurally unanswerable predicates decline *without*
        building postings, so a workload the index cannot serve never pays
        for it.
        """
        if not self._could_answer(predicate):
            self._misses += 1
            return None
        self._ensure()
        result = self._resolve(predicate, None)
        if result is None:
            self._misses += 1
        elif result.exact:
            self._exact_hits += 1
        else:
            self._superset_hits += 1
        return result

    @classmethod
    def _could_answer(cls, predicate: Predicate) -> bool:
        """Structural answerability — decidable without any postings.

        A comparison or membership is answerable when its constants are
        hashable (whatever the operator), an ``or`` when every branch is,
        an ``and`` when any part is.
        """
        if isinstance(predicate, Cmp):
            return _hashable(predicate.value)
        if isinstance(predicate, In):
            return all(_hashable(choice) for choice in predicate.choices)
        if isinstance(predicate, Or):
            return all(cls._could_answer(part) for part in predicate.parts)
        if isinstance(predicate, And):
            return any(cls._could_answer(part) for part in predicate.parts)
        return False

    def _resolve(
        self, predicate: Predicate, within: set[NodeId] | None
    ) -> Resolution | None:
        """The nodes satisfying ``predicate``, intersected with ``within``
        when given (``exact=False``: a superset of them; ``None``: no
        answer, the part constrains nothing the index can see)."""
        postings = self._postings
        assert postings is not None
        if isinstance(predicate, (Cmp, In)):
            if predicate.attr in self._unfiled or not self._could_answer(predicate):
                # Postings for an attr with unhashable node values are
                # incomplete: such a value can compare equal to a hashable
                # query constant ({1} == frozenset({1})) or unequal to any,
                # so only the scan path answers correctly.
                return None
            values = postings.get(predicate.attr, {})
            return Resolution(_matching(values, predicate, within), True)
        if isinstance(predicate, Or):
            union: set[NodeId] = set()
            exact = True
            for part in predicate.parts:
                resolved = self._resolve(part, within)
                if resolved is None:
                    # A superset of an Or needs *every* branch covered.
                    return None
                union |= resolved.nodes
                exact = exact and resolved.exact
            return Resolution(union, exact)
        if isinstance(predicate, And):
            # Equality parts first: each is one posting lookup, and their
            # intersection is all that every later part has to look at.
            nodes, exact, answered = within, True, False
            for part in sorted(predicate.parts, key=_not_equality):
                resolved = self._resolve(part, nodes)
                if resolved is None:
                    exact = False
                    continue
                nodes, answered = resolved.nodes, True
                exact = exact and resolved.exact
                if not nodes:  # an empty superset is exact
                    return Resolution(nodes, True)
            return Resolution(nodes, exact) if answered and nodes is not None else None
        return None  # AlwaysTrue, Not, and anything user-defined

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """The number of ``(attr, value)`` postings."""
        if self._postings is None:
            return 0
        return sum(map(len, self._postings.values()))

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


#: The comparison each ``Cmp`` operator applies, node value first.
_COMPARE: dict[str, Callable[[Any, Any], Any]] = {
    "==": operator.eq,
    "!=": operator.ne,
    ">=": operator.ge,
    "<=": operator.le,
    ">": operator.gt,
    "<": operator.lt,
}


def _not_equality(predicate: Predicate) -> bool:
    """Sort key putting ``==`` and ``in`` parts of a conjunction first."""
    if isinstance(predicate, Cmp):
        return predicate.op != "=="
    return not isinstance(predicate, In)


def _matching(
    values: dict[Any, set[NodeId]], predicate: Cmp | In, within: set[NodeId] | None
) -> set[NodeId]:
    """The union of the postings in ``values`` whose value passes
    ``predicate``, each restricted to ``within`` when given.

    ``in``, and ``==`` with a constant equal to itself, look their postings
    up; any other comparison is evaluated once per distinct value, with a
    ``TypeError`` counting as ``False`` exactly as in ``Cmp.evaluate`` (a
    NaN constant equals nothing, not even the same NaN object a dict lookup
    would find).
    """
    if isinstance(predicate, In):
        passing = [values.get(choice) for choice in predicate.choices]
    elif predicate.op == "==" and predicate.value == predicate.value:
        passing = [values.get(predicate.value)]
    else:
        compare, constant = _COMPARE[predicate.op], predicate.value
        passing = []
        for value, posting in values.items():
            try:
                if compare(value, constant):
                    passing.append(posting)
            except TypeError:
                pass
    nodes: set[NodeId] = set()
    for posting in passing:
        if posting:
            nodes |= posting if within is None else within & posting
    return nodes


def _written_nodes(primitives: Iterable[Any]) -> dict[NodeId, None]:
    """The nodes whose attributes ``primitives`` may have written, in order."""
    from repro.incremental.updates import (
        AttributeUpdate,
        EdgeDeletion,
        EdgeInsertion,
        NodeDeletion,
        NodeInsertion,
    )

    written: dict[NodeId, None] = {}  # a dict, not a set: deterministic order
    for primitive in primitives:
        if isinstance(primitive, (NodeInsertion, NodeDeletion, AttributeUpdate)):
            written[primitive.node] = None
        elif not isinstance(primitive, (EdgeInsertion, EdgeDeletion)):
            raise GraphError(f"unknown update type: {primitive!r}")
    return written


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
    index, comparisons, memberships and their and/or combinations are
    answered from postings, and the superset of a conjunction with a part
    the index cannot answer (a negation, say) is verified member-by-member;
    every predicate the index declines is evaluated in one shared pass over
    the graph's nodes — the scan cost is paid once regardless of how many
    predicates need it.
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
