"""Property-based tests: incremental maintenance == batch recomputation.

The central contract of the incremental module (SIGMOD'11): after ANY
sequence of edge updates, the maintained relation equals what a from-scratch
evaluation on the updated graph produces — and the internal counter/index
state remains exactly what a fresh build would create.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.graph.digraph import Graph
from repro.incremental.inc_bounded import IncrementalBoundedSimulation
from repro.incremental.inc_simulation import IncrementalSimulation
from repro.incremental.updates import (
    AttributeUpdate,
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
    decompose,
)
from repro.matching.bounded import match_bounded
from repro.matching.reference import naive_simulation
from repro.matching.simulation import every_bound_one
from repro.pattern.pattern import Pattern

from tests.conftest import drive

LABELS = ("A", "B", "C")


@st.composite
def scenario(draw, max_nodes=8, max_edges=14, max_updates=10):
    """A graph, a pattern, and a valid update sequence for that graph."""
    num_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    labels = draw(
        st.lists(st.sampled_from(LABELS), min_size=num_nodes, max_size=num_nodes)
    )
    graph = Graph()
    for index, label in enumerate(labels):
        graph.add_node(index, label=label)
    possible = [(s, t) for s in range(num_nodes) for t in range(num_nodes) if s != t]
    initial = draw(
        st.lists(st.sampled_from(possible), max_size=max_edges, unique=True)
    )
    graph.add_edges(initial)

    pattern = Pattern()
    num_pattern = draw(st.integers(min_value=1, max_value=3))
    names = [f"P{i}" for i in range(num_pattern)]
    for name in names:
        pattern.add_node(name, f'label == "{draw(st.sampled_from(LABELS))}"')
    for source, target in draw(
        st.lists(st.sampled_from([(a, b) for a in names for b in names]),
                 max_size=3, unique=True)
    ):
        pattern.add_edge(source, target, draw(st.sampled_from([1, 2, 3, None])))

    # Build a valid update sequence against an evolving copy.
    scratch = graph.copy()
    updates = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_updates))):
        existing = list(scratch.edges())
        missing = [pair for pair in possible if not scratch.has_edge(*pair)]
        choices = []
        if existing:
            choices.append("delete")
        if missing:
            choices.append("insert")
        if not choices:
            break
        kind = draw(st.sampled_from(choices))
        if kind == "insert":
            source, target = draw(st.sampled_from(missing))
            update = EdgeInsertion(source, target)
        else:
            source, target = draw(st.sampled_from(existing))
            update = EdgeDeletion(source, target)
        update.apply(scratch)
        updates.append(update)
    return graph, pattern, updates


@given(scenario())
@settings(max_examples=100, deadline=None)
def test_incremental_bounded_equals_batch(data):
    graph, pattern, updates = data
    maintained = IncrementalBoundedSimulation(graph, pattern)
    for update in updates:
        drive(maintained, update)
    assert maintained.relation() == match_bounded(graph, pattern).relation
    maintained.state.check_invariants()


@given(scenario())
@settings(max_examples=100, deadline=None)
def test_incremental_simulation_equals_batch(data):
    graph, pattern, updates = data
    unit = every_bound_one(pattern)
    maintained = IncrementalSimulation(graph, unit)
    for update in updates:
        drive(maintained, update)
    assert maintained.relation() == naive_simulation(graph, unit)
    maintained.state.check_invariants()


@given(scenario(max_updates=6))
@settings(max_examples=60, deadline=None)
def test_update_then_inverse_restores_relation(data):
    graph, pattern, updates = data
    maintained = IncrementalBoundedSimulation(graph, pattern)
    initial = maintained.relation()
    for update in updates:
        drive(maintained, update)
    for update in reversed(updates):
        drive(maintained, update.inverted())
    assert maintained.relation() == initial
    maintained.state.check_invariants()


@st.composite
def node_update_scenario(draw, max_nodes=7, max_updates=8):
    """Like :func:`scenario`, but the update stream mixes edge updates with
    attribute changes, node insertions and node deletions."""
    graph, pattern, _ = draw(scenario(max_nodes=max_nodes, max_updates=0))
    scratch = graph.copy()
    updates = []
    next_id = 10_000
    for _ in range(draw(st.integers(min_value=0, max_value=max_updates))):
        nodes = list(scratch.nodes())
        kinds = ["insert_node"]
        if nodes:
            kinds.append("set_attr")
            if len(nodes) > 2:
                kinds.append("delete_node")
            missing = [
                (s, t)
                for s in nodes
                for t in nodes
                if s != t and not scratch.has_edge(s, t)
            ]
            if missing:
                kinds.append("insert_edge")
            existing = list(scratch.edges())
            if existing:
                kinds.append("delete_edge")
        kind = draw(st.sampled_from(kinds))
        if kind == "insert_node":
            update = NodeInsertion.with_attrs(
                next_id, label=draw(st.sampled_from(LABELS))
            )
            next_id += 1
        elif kind == "set_attr":
            update = AttributeUpdate(
                draw(st.sampled_from(nodes)), "label", draw(st.sampled_from(LABELS))
            )
        elif kind == "delete_node":
            update = NodeDeletion(draw(st.sampled_from(nodes)))
        elif kind == "insert_edge":
            source, target = draw(st.sampled_from(missing))
            update = EdgeInsertion(source, target)
        else:
            source, target = draw(st.sampled_from(existing))
            update = EdgeDeletion(source, target)
        for primitive in decompose(scratch, update):
            primitive.apply(scratch)
        updates.append(update)
    return graph, pattern, updates


@given(node_update_scenario())
@settings(max_examples=80, deadline=None)
def test_incremental_bounded_handles_node_updates(data):
    graph, pattern, updates = data
    maintained = IncrementalBoundedSimulation(graph, pattern)
    for update in updates:
        drive(maintained, update)
        maintained.state.check_invariants()
    assert maintained.relation() == match_bounded(graph, pattern).relation


@given(node_update_scenario())
@settings(max_examples=80, deadline=None)
def test_incremental_simulation_handles_node_updates(data):
    graph, pattern, updates = data
    unit = every_bound_one(pattern)
    maintained = IncrementalSimulation(graph, unit)
    for update in updates:
        drive(maintained, update)
        maintained.state.check_invariants()
    assert maintained.relation() == naive_simulation(graph, unit)


@given(node_update_scenario())
@settings(max_examples=50, deadline=None)
def test_maintained_compression_handles_node_updates(data):
    from repro.compression.decompress import decompress_relation
    from repro.compression.maintain import MaintainedCompression

    graph, pattern, updates = data
    maintained = MaintainedCompression(graph, attrs=("label",))
    for update in updates:
        drive(maintained, update)
        maintained.check_partition()
    compressed = maintained.compressed()
    direct = match_bounded(graph, pattern).relation
    on_quotient = match_bounded(compressed.quotient, pattern).relation
    assert decompress_relation(on_quotient, compressed) == direct


@given(scenario())
@settings(max_examples=60, deadline=None)
def test_incremental_state_equals_fresh_state(data):
    """Beyond relation equality: S/R/cnt must equal a fresh build's."""
    graph, pattern, updates = data
    maintained = IncrementalBoundedSimulation(graph, pattern)
    for update in updates:
        drive(maintained, update)
    from repro.matching.bounded import BoundedState

    fresh = BoundedState(graph, pattern)
    assert maintained.state.sim == fresh.sim
    for edge, rows in fresh.S.items():
        assert maintained.state.S[edge] == rows
    assert maintained.state.cnt == fresh.cnt
