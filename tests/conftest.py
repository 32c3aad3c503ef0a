"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.datasets.paper_example import paper_graph, paper_pattern
from repro.graph.digraph import Graph
from repro.graph.index import predicate_key
from repro.incremental.updates import apply_updates
from repro.matching.simulation import simulation_candidates
from repro.pattern.builder import PatternBuilder
from repro.pattern.pattern import Pattern


@pytest.fixture
def fig1() -> Graph:
    """The paper's Fig. 1 collaboration network (without edge e1)."""
    return paper_graph()


@pytest.fixture
def fig1_with_e1() -> Graph:
    return paper_graph(include_e1=True)


@pytest.fixture
def fig1_query() -> Pattern:
    return paper_pattern()


@pytest.fixture
def diamond() -> Graph:
    """a -> b -> d, a -> c -> d with distinct labels."""
    graph = Graph(name="diamond")
    graph.add_node("a", label="A")
    graph.add_node("b", label="B")
    graph.add_node("c", label="C")
    graph.add_node("d", label="D")
    graph.add_edges([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    return graph


@pytest.fixture
def cycle3() -> Graph:
    """A labelled 3-cycle: x -> y -> z -> x."""
    graph = Graph(name="cycle3")
    graph.add_node("x", label="X")
    graph.add_node("y", label="Y")
    graph.add_node("z", label="Z")
    graph.add_edges([("x", "y"), ("y", "z"), ("z", "x")])
    return graph


@pytest.fixture
def chain_pattern() -> Pattern:
    """A 2-node simulation pattern over `label` attributes."""
    return (
        PatternBuilder("chain")
        .node("A", 'label == "A"', output=True)
        .node("B", 'label == "B"')
        .edge("A", "B", 1)
        .build()
    )


def make_labelled_graph(edges: list[tuple[str, str]], labels: dict[str, str]) -> Graph:
    """Helper used across test modules."""
    graph = Graph()
    for node, label in labels.items():
        graph.add_node(node, label=label)
    graph.add_edges(edges)
    return graph


def drive(maintainer, *updates) -> list:
    """Apply ``updates`` to ``maintainer.graph`` through the one update
    driver, with ``maintainer`` following; returns the primitives."""
    return apply_updates(maintainer.graph, updates, [maintainer.apply])


def batch_of(graph: Graph, pattern: Pattern, copies: int = 2) -> tuple[list, dict]:
    """``(tasks, table)`` for a ``ParallelExecutor.match_many`` batch that
    runs ``pattern`` ``copies`` times (two tasks fork two workers)."""
    keys = {u: predicate_key(pattern.predicate(u)) for u in pattern.nodes()}
    candidates = simulation_candidates(graph, pattern)
    table = {keys[u]: candidates[u] for u in pattern.nodes()}
    return [(pattern, keys)] * copies, table
