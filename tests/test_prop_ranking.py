"""Property-based tests for the ranking function and top-K selection."""

import math

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.graph.digraph import Graph
from repro.graph.distance import node_order_key, weighted_distances
from repro.matching.bounded import match_bounded
from repro.matching.result_graph import ResultGraph
from repro.pattern.pattern import Pattern
from repro.ranking.social_impact import rank_detail, rank_matches, top_k

LABELS = ("A", "B")


@st.composite
def matched_result_graph(draw, max_nodes=9):
    """A result graph with at least one match of the output node."""
    num_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    labels = draw(
        st.lists(st.sampled_from(LABELS), min_size=num_nodes, max_size=num_nodes)
    )
    graph = Graph()
    for index, label in enumerate(labels):
        graph.add_node(index, label=label)
    possible = [(s, t) for s in range(num_nodes) for t in range(num_nodes) if s != t]
    graph.add_edges(
        draw(st.lists(st.sampled_from(possible), max_size=20, unique=True))
    )
    pattern = Pattern()
    pattern.add_node("OUT", 'label == "A"', output=True)
    pattern.add_node("B", 'label == "B"')
    pattern.add_edge("OUT", "B", draw(st.sampled_from([1, 2, 3])))
    result = match_bounded(graph, pattern)
    return result.result_graph(), result.relation


@given(matched_result_graph())
@settings(max_examples=80, deadline=None)
def test_rank_equals_brute_force_formula(data):
    result_graph, relation = data
    for node in relation.matches_of("OUT"):
        detail = rank_detail(result_graph, node)
        descendants = weighted_distances(result_graph.out_adjacency(), node)
        ancestors = weighted_distances(result_graph.in_adjacency(), node)
        impact = set(descendants) | set(ancestors)
        if not impact:
            assert detail.rank == math.inf
        else:
            expected = (
                sum(descendants.values()) + sum(ancestors.values())
            ) / len(impact)
            assert detail.rank == expected


@given(matched_result_graph())
@settings(max_examples=60, deadline=None)
def test_rank_matches_is_sorted_and_complete(data):
    result_graph, relation = data
    ranked = rank_matches(result_graph)
    assert {r.node for r in ranked} == set(relation.matches_of("OUT"))
    values = [r.rank for r in ranked]
    assert values == sorted(values)


@given(matched_result_graph(), st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_top_k_is_prefix_of_ranking(data, k):
    result_graph, _relation = data
    full = rank_matches(result_graph)
    assert top_k(result_graph, k) == full[:k]


@given(matched_result_graph())
@settings(max_examples=60, deadline=None)
def test_ranks_are_nonnegative(data):
    result_graph, _relation = data
    for match in rank_matches(result_graph):
        assert match.rank >= 0  # weights are >= 1 and sets are nonnegative


@given(matched_result_graph(), st.integers(min_value=1, max_value=5))
@settings(max_examples=80, deadline=None)
def test_bulk_top_k_equals_naive_for_every_metric(data, k):
    """The lazy, bound-pruned bulk path is exactly the naive slice."""
    from repro.ranking.metrics import METRICS
    from repro.ranking.topk import (
        RankingContext,
        bulk_top_k_detail,
        bulk_top_k_scores,
    )

    result_graph, _relation = data
    naive = rank_matches(result_graph)
    assert bulk_top_k_detail(RankingContext(result_graph), k) == naive[:k]
    for metric in METRICS.values():
        context = RankingContext(result_graph)
        assert bulk_top_k_scores(context, k, metric) == metric.rank_all(
            result_graph
        )[:k]


#: Mixed int / str ids whose ``repr``s interleave ("1" vs 1, quotes, escapes).
NODE_IDS = st.one_of(
    st.integers(min_value=-3, max_value=30),
    st.sampled_from(["a", "b", "1", "10", "a'b", 'q"', "é", "\x00", ""]),
)


@st.composite
def weighted_result_graph(draw):
    """A result graph straight from a payload: cycles, self-loops, many ties.

    Weights are mostly 1-6 with a few long ones (a ``*`` edge's witness
    can be any path length), so equal distances reached along different
    paths are common.
    """
    nodes = draw(st.lists(NODE_IDS, min_size=1, max_size=12, unique=True))
    weights = st.one_of(
        st.integers(min_value=1, max_value=6), st.integers(min_value=7, max_value=20)
    )
    edges = draw(
        st.dictionaries(
            st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
            weights,
            max_size=40,
        )
    )
    outputs = draw(st.sets(st.sampled_from(nodes), min_size=1))
    graph = Graph()
    for node in nodes:
        graph.add_node(node)
    pattern = Pattern()
    pattern.add_node("OUT", "true", output=True)
    pattern.add_node("B", "true")
    payload = {
        "format": "repro.result_graph",
        "nodes": [
            {"id": node, "matches": ["OUT"] if node in outputs else ["B"]}
            for node in nodes
        ],
        "edges": [
            {"source": source, "target": target, "weight": weight}
            for (source, target), weight in edges.items()
        ],
    }
    return ResultGraph.from_dict(payload, graph, pattern)


@given(weighted_result_graph(), st.integers(min_value=1, max_value=6))
@settings(max_examples=150, deadline=None)
def test_bucket_queue_is_the_reference_heap(result_graph, k):
    """Context distances and scores are bit-for-bit the reference's.

    ``repr`` equality pins values, their float type and dict insertion
    order — what ``HarmonicMetric``'s in-order ``1/d`` sums depend on.
    """
    from repro.ranking.metrics import METRICS
    from repro.ranking.topk import RankingContext, bulk_top_k_scores

    context = RankingContext(result_graph)
    for node in result_graph.nodes():
        assert repr(list(context.distances_from(node).items())) == repr(
            list(weighted_distances(result_graph.out_adjacency(), node).items())
        )
        assert repr(list(context.distances_to(node).items())) == repr(
            list(weighted_distances(result_graph.in_adjacency(), node).items())
        )
    for name in ("harmonic", "closeness"):
        metric = METRICS[name]
        assert repr(bulk_top_k_scores(RankingContext(result_graph), k, metric)) == repr(
            metric.rank_all(result_graph)[:k]
        )


@given(st.lists(NODE_IDS, unique=True))
def test_node_order_key_orders_like_the_type_repr_pair(nodes):
    assert sorted(nodes, key=node_order_key) == sorted(
        nodes, key=lambda node: (type(node).__name__, repr(node))
    )


#: Leaf predicates over ``x`` in 0-3 and ``label`` in A/B: they overlap
#: one another, and the ones that admit ``A`` also match the output node.
STAR_LEAVES = ("x >= 1", "x >= 2", "x <= 2", 'label == "A"', 'label == "B"', "true")


@st.composite
def matched_star(draw):
    """A star ``OUT -> leaf`` over a small graph with self-loops and
    cycles, evaluated relation-first over a fresh snapshot."""
    from repro.graph.frozen import FrozenGraph

    num_nodes = draw(st.integers(min_value=2, max_value=10))
    graph = Graph()
    for index in range(num_nodes):
        graph.add_node(
            index,
            label=draw(st.sampled_from(LABELS)),
            x=draw(st.integers(min_value=0, max_value=3)),
        )
    possible = [(s, t) for s in range(num_nodes) for t in range(num_nodes)]
    graph.add_edges(draw(st.lists(st.sampled_from(possible), max_size=25, unique=True)))
    pattern = Pattern("star")
    pattern.add_node("OUT", 'label == "A"', output=True)
    leaves = draw(st.lists(st.sampled_from(STAR_LEAVES), min_size=1, max_size=4))
    for index, predicate in enumerate(leaves):
        pattern.add_node(f"L{index}", predicate)
        pattern.add_edge("OUT", f"L{index}", draw(st.sampled_from([1, 2, 3, None])))
    frozen = FrozenGraph.freeze(graph)
    return match_bounded(graph, pattern, frozen=frozen), frozen


@given(matched_star())
@settings(max_examples=150, deadline=None)
def test_star_distances_and_impact_are_the_reference_heaps(data):
    """Over both constructors, every match's distance sets (values, float
    type, order) and impact equal ``weighted_distances`` and
    ``rank_detail`` over the result graph."""
    from repro.ranking.topk import RankingContext

    result, frozen = data
    result_graph = result.result_graph()
    out_adj, in_adj = result_graph.out_adjacency(), result_graph.in_adjacency()
    for context in (RankingContext(result_graph), RankingContext.from_rows(result, frozen)):
        label_of = context.label_of
        for node in context.matched_by:
            label = label_of(node)
            assert repr(
                [(label_of(n), d) for n, d in context.distances_from(node).items()]
            ) == repr(list(weighted_distances(out_adj, label).items()))
            assert repr(
                [(label_of(n), d) for n, d in context.distances_to(node).items()]
            ) == repr(list(weighted_distances(in_adj, label).items()))
            assert repr(context.impact(node)) == repr(rank_detail(result_graph, label).rank)
