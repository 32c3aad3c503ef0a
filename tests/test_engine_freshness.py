"""One freshness rule: every answer is exact for the live graph.

``QueryEngine`` serves derived artefacts on every route but the last —
cached relations, pinned maintainers, rankings, the compressed graph, the
frozen snapshot, oracle labels, attribute postings — and all of them are
exact for one stamp, ``RegisteredGraph.synced_version``, compared with
``Graph.version`` in one place (``QueryEngine._entry``).  A write that
bypassed ``update_graph`` drops everything derived, counted in
``stats()["resyncs"]``.

Two reproductions come first: the two artefacts that used to never ask
(compression, pinned maintainers) served relations the reference matchers
reject.  Then one property, seeded and under hypothesis: whatever the
interleaving of engine updates, direct graph writes, pins, compression,
oracle switches and reads, every relation equals ``matching/reference.py``
on the live graph, every ranking equals ``rank_matches(...)[:k]``, and
``explain`` names the route the next ``evaluate`` takes.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.engine.engine import QueryEngine
from repro.graph.digraph import Graph
from repro.incremental.updates import (
    AttributeUpdate,
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
)
from repro.matching.bounded import match_bounded
from repro.matching.reference import naive_bounded, naive_simulation
from repro.pattern.pattern import Pattern
from repro.ranking.social_impact import rank_matches

NAME = "g"
LABELS = ("L0", "L1", "L2")
Code = tuple[int, int, int, int]


def make_pattern(name: str, nodes, edges) -> Pattern:
    """``nodes``: (name, condition) pairs, the first is the output node."""
    pattern = Pattern(name)
    for index, (node, condition) in enumerate(nodes):
        pattern.add_node(node, condition, output=index == 0)
    for source, target, bound in edges:
        pattern.add_edge(source, target, bound)
    return pattern


def pair_pattern(bound: int) -> Pattern:
    return make_pattern(
        f"pair{bound}",
        [("X", 'label == "L0"'), ("Y", 'label == "L1"')],
        [("X", "Y", bound)],
    )


#: Label-only patterns can take the compressed route; ``wide`` reads ``x``
#: too, so it never does.
PATTERNS = [
    pair_pattern(1),
    pair_pattern(2),
    make_pattern(
        "cycle",
        [("X", 'label == "L1"'), ("Y", 'label == "L2"')],
        [("X", "Y", 1), ("Y", "X", 1)],
    ),
    make_pattern(
        "chain",
        [("X", 'label == "L0"'), ("Y", 'label == "L1"'), ("Z", 'label == "L2"')],
        [("X", "Y", 2), ("Y", "Z", None)],
    ),
    make_pattern(
        "wide",
        [("X", 'label == "L0", x >= 2'), ("Y", 'label == "L1"')],
        [("X", "Y", 3)],
    ),
]


def reference(graph: Graph, pattern: Pattern):
    if pattern.is_simulation_pattern:
        return naive_simulation(graph, pattern)
    return naive_bounded(graph, pattern)


def reference_ranking(graph: Graph, pattern: Pattern, k: int):
    return rank_matches(match_bounded(graph, pattern).result_graph())[:k]


def small_graph() -> Graph:
    """a -> b matches the pair patterns; c, d would once c -> d exists."""
    graph = Graph(NAME)
    for node, label in [("a", "L0"), ("b", "L1"), ("c", "L0"), ("d", "L1"), ("z", "L2")]:
        graph.add_node(node, label=label, x=0)
    graph.add_edge("a", "b")
    return graph


# ----------------------------------------------------------------------
# the two artefacts that never asked
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize("maintained", [True, False])
def test_compression_does_not_outlive_a_direct_write(maintained, bound):
    graph, pattern = small_graph(), pair_pattern(bound)
    engine = QueryEngine()
    engine.register_graph(NAME, graph)
    engine.compress_graph(NAME, ("label",), maintained=maintained)
    assert engine.evaluate(NAME, pattern, cache_result=False).stats["route"] == "compressed"
    graph.add_edge("c", "d")  # no partition saw this
    result = engine.evaluate(NAME, pattern)
    assert result.stats["route"] == "direct"
    assert ("X", "c") in set(result.relation.pairs())
    assert result.relation == reference(graph, pattern)
    assert engine.stats()["resyncs"] == 1
    # the compression is gone until it is asked for again
    assert engine.explain(NAME, pattern).route == "cache"
    assert engine.evaluate(NAME, pattern, use_cache=False).stats["route"] == "direct"
    engine.compress_graph(NAME, ("label",), maintained=maintained)
    again = engine.evaluate(NAME, pattern, use_cache=False)
    assert again.stats["route"] == "compressed"
    assert again.relation == reference(graph, pattern)
    assert engine.stats()["resyncs"] == 1


@pytest.mark.parametrize("bound", [1, 2])
def test_a_stale_maintainer_is_not_restamped_by_the_next_batch(bound):
    graph, pattern = small_graph(), pair_pattern(bound)
    engine = QueryEngine()
    engine.register_graph(NAME, graph)
    engine.pin(NAME, pattern)
    engine.top_k(NAME, pattern, 3)
    graph.add_edge("c", "d")  # the maintainer never saw this ...
    summary = engine.update_graph(NAME, [AttributeUpdate("z", "x", 1)])
    # ... so the batch found nothing pinned to refresh
    assert summary["pinned_deltas"] == {} and summary["rank_maintenance"] == {}
    assert engine.cache_stats()["pinned"] == 0
    for _ in range(2):  # direct, then from the cache: the same exact answer
        result = engine.evaluate(NAME, pattern)
        assert result.relation == reference(graph, pattern)
        assert engine.top_k(NAME, pattern, 3) == reference_ranking(graph, pattern, 3)
    assert result.stats["route"] == "cache"
    assert engine.stats()["resyncs"] == 1
    # a pin is re-requested, and maintained from there on
    engine.pin(NAME, pattern)
    engine.update_graph(NAME, [EdgeDeletion("a", "b")])
    result = engine.evaluate(NAME, pattern)
    assert result.stats["route"] == "cache"
    assert result.relation == reference(graph, pattern)
    assert engine.stats()["resyncs"] == 1


# ----------------------------------------------------------------------
# any interleaving
# ----------------------------------------------------------------------
def engine_update(graph: Graph, kind: int, a: int, b: int):
    """One ``update_graph`` primitive (all five kinds), or None."""
    nodes = sorted(graph.nodes())
    source, target = nodes[a % len(nodes)], nodes[b % len(nodes)]
    kind %= 6
    if kind == 0:
        return None if graph.has_edge(source, target) else EdgeInsertion(source, target)
    if kind == 1:
        return EdgeDeletion(source, target) if graph.has_edge(source, target) else None
    if kind == 2:
        node = a % 10
        if graph.has_node(node):
            return None
        return NodeInsertion.with_attrs(node, label=LABELS[b % 3], x=b % 4)
    if kind == 3:
        return NodeDeletion(source) if len(nodes) > 2 else None
    if kind == 4:
        return AttributeUpdate(source, "label", LABELS[b % 3])
    return AttributeUpdate(source, "x", b % 4)


def direct_write(graph: Graph, kind: int, a: int, b: int) -> None:
    """One write on the registered graph that the engine is not told about."""
    nodes = sorted(graph.nodes())
    source, target = nodes[a % len(nodes)], nodes[b % len(nodes)]
    kind %= 4
    if kind == 0 and not graph.has_edge(source, target):
        graph.add_edge(source, target)
    elif kind == 1 and graph.has_edge(source, target):
        graph.remove_edge(source, target)
    elif kind == 2:
        graph.set(source, "label", LABELS[b % 3])
    elif kind == 3 and not graph.has_node(a % 10):
        graph.add_node(a % 10, label=LABELS[b % 3], x=b % 4)


def check_result(graph: Graph, pattern: Pattern, result) -> None:
    assert result.relation == reference(graph, pattern), (pattern.name, result.stats)
    assert result.stats["graph_version"] == graph.version


def step(engine: QueryEngine, graph: Graph, code: Code) -> None:
    op, a, b, c = code
    pattern = PATTERNS[a % len(PATTERNS)]
    if op in (0, 1):
        batch = []
        scratch = graph.copy()
        for offset in range(1 + op):
            update = engine_update(scratch, a + offset, b + offset, c + offset)
            if update is not None:
                update.apply(scratch)
                batch.append(update)
        summary = engine.update_graph(NAME, batch)
        assert summary["graph_version"] == graph.version
    elif op in (2, 3):
        direct_write(graph, a, b, c)
    elif op == 4:
        engine.pin(NAME, pattern)
    elif op == 5:
        engine.compress_graph(NAME, ("label",), maintained=bool(b % 2))
    elif op == 6:
        if b % 3:
            engine.enable_oracle(NAME)
        else:
            engine.disable_oracle(NAME)
    elif op == 7:
        check_result(graph, pattern, engine.evaluate(NAME, pattern))
    elif op == 8:
        check_result(graph, pattern, engine.evaluate(NAME, pattern, use_cache=False))
    elif op == 9:
        check_result(
            graph, pattern, engine.evaluate(NAME, pattern, use_compression=False)
        )
    elif op == 10:
        for query, result in zip(PATTERNS, engine.evaluate_many(NAME, PATTERNS)):
            check_result(graph, query, result)
    elif op == 11:
        k = 1 + b % 4
        assert engine.top_k(NAME, pattern, k) == reference_ranking(graph, pattern, k)
    else:
        plan = engine.explain(NAME, pattern)
        result = engine.evaluate(NAME, pattern)
        assert result.stats["route"] == plan.route
        check_result(graph, pattern, result)


def run(graph: Graph, codes: list[Code]) -> QueryEngine:
    engine = QueryEngine()
    engine.register_graph(NAME, graph)
    for code in codes:
        step(engine, graph, code)
    # whatever happened, every query is answered exactly at the end
    for pattern, result in zip(PATTERNS, engine.evaluate_many(NAME, PATTERNS)):
        check_result(graph, pattern, result)
        assert engine.top_k(NAME, pattern, 3) == reference_ranking(graph, pattern, 3)
    return engine


def seeded_graph(rng: random.Random) -> Graph:
    graph = Graph(NAME)
    size = rng.randint(3, 7)
    for node in range(size):
        graph.add_node(node, label=rng.choice(LABELS), x=rng.randint(0, 3))
    for _ in range(rng.randint(0, 14)):
        source, target = rng.randrange(size), rng.randrange(size)
        if not graph.has_edge(source, target):
            graph.add_edge(source, target)
    return graph


@pytest.mark.parametrize("seed", range(40))
def test_seeded_interleavings_answer_for_the_live_graph(seed):
    rng = random.Random(seed)
    graph = seeded_graph(rng)
    codes = [
        (rng.randrange(14), rng.randrange(10), rng.randrange(10), rng.randrange(10))
        for _ in range(40)
    ]
    engine = run(graph, codes)
    direct_writes = sum(1 for code in codes if code[0] in (2, 3))
    assert engine.stats()["resyncs"] <= direct_writes


@st.composite
def scenarios(draw):
    size = draw(st.integers(min_value=2, max_value=7))
    graph = Graph(NAME)
    for node in range(size):
        graph.add_node(
            node, label=draw(st.sampled_from(LABELS)), x=draw(st.integers(0, 3))
        )
    pairs = [(s, t) for s in range(size) for t in range(size)]
    graph.add_edges(draw(st.lists(st.sampled_from(pairs), max_size=14, unique=True)))
    digit = st.integers(0, 9)
    codes = draw(
        st.lists(st.tuples(st.integers(0, 13), digit, digit, digit), max_size=24)
    )
    return graph, codes


@settings(max_examples=80, deadline=None)
@given(scenarios())
def test_any_interleaving_answers_for_the_live_graph(scenario):
    graph, codes = scenario
    run(graph, codes)
