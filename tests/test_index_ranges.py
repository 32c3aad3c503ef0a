"""Ranges are set algebra too: index-backed candidates ≡ the scan, over
attributes whose values mix types.

``AttributeIndex.resolve`` answers every comparison — all six operators —
by evaluating it once per distinct value filed under the attribute (a
``TypeError`` is ``False``, as in ``Cmp.evaluate``) and taking the union of
the postings that pass.  Distinct values are dict keys, so values equal
across types (``0 / 0.0 / -0.0 / False``, ``1 / 1.0 / True``, ``(1, 2) /
(1.0, 2)``) share one posting, and a NaN is found by a dict lookup by its
identity although ``==`` says it equals nothing.  The oracle is the scan
(``simulation_candidates`` without an index), on a fresh index, after
in-place ``on_update`` batches, and along a chain of ``carried`` epochs —
where every earlier epoch must keep its answers and its postings while
later ones are carried from it.  Predicates the index should answer are
also required to come back ``exact``, so a silent fallback to the scan
cannot hide a wrong posting.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.graph.digraph import Graph
from repro.graph.index import AttributeIndex, candidates_from_index
from repro.incremental.updates import (
    AttributeUpdate,
    NodeDeletion,
    NodeInsertion,
    decompose,
)
from repro.matching.simulation import simulation_candidates
from repro.pattern.pattern import Pattern
from repro.pattern.predicates import AlwaysTrue, And, Cmp, In, Not, Or, Predicate
from tests.test_index_carry import built, content, hashable

NAN = float("nan")
#: Node values and predicate constants alike.  The one NaN object is shared,
#: so a posting lookup can find the very object ``NAN == NAN`` rejects.
VALUES = [
    0, 1, 2, 1.0, 2.5, True, False, 0.0, -0.0, NAN, None, "1", "b", (1, 2), (1.0, 2), [1],
]
ATTRS = ("a", "b")
OPS = ("==", "!=", ">=", "<=", ">", "<")

values = st.sampled_from(VALUES)
leaves = st.one_of(
    st.builds(Cmp, st.sampled_from(ATTRS), st.sampled_from(OPS), values),
    st.builds(In, st.sampled_from(ATTRS), st.lists(values, min_size=1, max_size=3)),
    st.just(AlwaysTrue()),
)
predicates = st.recursive(
    leaves,
    lambda parts: st.one_of(
        st.builds(Not, parts),
        st.lists(parts, min_size=1, max_size=3).map(lambda ps: And(*ps)),
        st.lists(parts, min_size=1, max_size=3).map(lambda ps: Or(*ps)),
    ),
    max_leaves=6,
)
patterns = st.lists(predicates, min_size=1, max_size=4)
update_codes = st.tuples(st.integers(0, 2), st.integers(0, 10**6), st.integers(0, 10**6))
batches = st.lists(st.lists(update_codes, min_size=1, max_size=4), min_size=1, max_size=8)


@st.composite
def graphs(draw) -> Graph:
    graph = Graph(name="ranges")
    for index in range(draw(st.integers(0, 8))):
        attrs = draw(st.dictionaries(st.sampled_from(ATTRS), values, max_size=2))
        graph.add_node(f"n{index}", **attrs)
    return graph


def pattern_of(predicate_list: list[Predicate]) -> Pattern:
    pattern = Pattern()
    for i, predicate in enumerate(predicate_list):
        pattern.add_node(f"P{i}", predicate)
    return pattern


def must_be_exact(predicate: Predicate, unfiled: set[str]) -> bool:
    """Comparisons and memberships with hashable constants on attributes
    holding no unhashable value, and ``and``/``or`` over them."""
    if isinstance(predicate, Cmp):
        return hashable(predicate.value) and predicate.attr not in unfiled
    if isinstance(predicate, In):
        return all(map(hashable, predicate.choices)) and predicate.attr not in unfiled
    if isinstance(predicate, (And, Or)):
        return all(must_be_exact(part, unfiled) for part in predicate.parts)
    return False


def scan(graph: Graph, predicate: Predicate) -> set:
    return {node for node in graph.nodes() if predicate.evaluate(graph.attrs(node))}


def assert_answers(index: AttributeIndex, predicate_list: list[Predicate]) -> None:
    graph = index.graph
    pattern = pattern_of(predicate_list)
    assert candidates_from_index(graph, pattern, index) == simulation_candidates(graph, pattern)
    unfiled = {
        attr
        for node in graph.nodes()
        for attr, value in graph.attrs(node).items()
        if not hashable(value)
    }
    for predicate in predicate_list:
        expected = scan(graph, predicate)
        resolved = index.resolve(predicate)
        if must_be_exact(predicate, unfiled):
            assert resolved == (expected, True), predicate
        elif resolved is not None:
            assert resolved.nodes >= expected, predicate
            if resolved.exact:
                assert resolved.nodes == expected, predicate


def apply_codes(graph: Graph, codes, on_primitive=None) -> list:
    """Apply one batch drawn as integer codes to ``graph``; its primitives."""
    primitives = []
    for kind, a, b in codes:
        nodes = list(graph.nodes())
        node = f"n{a % 10}"
        if kind == 0 and nodes:
            update = AttributeUpdate(nodes[a % len(nodes)], ATTRS[b % 2], VALUES[b % len(VALUES)])
        elif kind == 1 and nodes:
            update = NodeDeletion(nodes[a % len(nodes)])
        elif graph.has_node(node):
            update = AttributeUpdate(node, ATTRS[b % 2], VALUES[b % len(VALUES)])
        else:
            attrs = {ATTRS[b % 2]: VALUES[b % len(VALUES)]}
            if b % 3 == 0:
                attrs[ATTRS[(b + 1) % 2]] = VALUES[(b // 3) % len(VALUES)]
            update = NodeInsertion.with_attrs(node, **attrs)
        for primitive in decompose(graph, update):
            primitive.apply(graph)
            if on_primitive is not None:
                on_primitive(primitive)
            primitives.append(primitive)
    return primitives


def test_every_value_against_every_constant():
    """One node per value, every operator against every constant: the
    exhaustive core of the properties below (a NaN constant, say, is
    drawn against a NaN node too rarely for them to rely on it)."""
    graph = Graph(name="values")
    for i, value in enumerate(VALUES):
        graph.add_node(f"v{i}", a=value, b=VALUES[(i + 3) % 15])  # b: hashable only
    graph.add_node("bare")
    index = AttributeIndex(graph)
    assert_answers(index, [Cmp("a", op, value) for op in OPS for value in VALUES])
    assert_answers(index, [In("b", [value]) for value in VALUES])
    assert_answers(
        index, [And(Cmp("b", op, value), Cmp("b", "!=", 0)) for op in OPS for value in VALUES]
    )
    graph.set("v15", "a", 3)  # no unhashable value left: "a" must be exact now
    assert_answers(index, [Cmp("a", op, value) for op in OPS for value in VALUES])


SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(graph=graphs(), predicate_list=patterns)
def test_fresh_index_answers_like_the_scan(graph, predicate_list):
    assert_answers(AttributeIndex(graph), predicate_list)


@SETTINGS
@given(graph=graphs(), soup=batches, predicate_list=patterns)
def test_in_place_updates_answer_like_the_scan(graph, soup, predicate_list):
    index = built(graph)
    for codes in soup:
        apply_codes(graph, codes, index.on_update)
        assert content(index) == content(built(graph))
        assert_answers(index, predicate_list)
    assert index.stats()["rebuilds"] == 0


@SETTINGS
@given(graph=graphs(), soup=batches, predicate_list=patterns)
def test_carried_epochs_answer_like_the_scan(graph, soup, predicate_list):
    """Each epoch is carried from the one before; none of them moves."""
    epochs = [built(graph)]
    snapshots = [content(epochs[0])]
    for codes in soup:
        graph = graph.copy()
        primitives = apply_codes(graph, codes)
        epochs.append(epochs[-1].carried(graph, primitives))
        snapshots.append(content(epochs[-1]))
        assert snapshots[-1] == content(built(graph))
        for epoch, snapshot in zip(epochs, snapshots):
            assert_answers(epoch, predicate_list)
            assert content(epoch) == snapshot
