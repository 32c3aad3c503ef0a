"""Property-based tests: compression is query-preserving, statically and
under maintenance.

The SIGMOD'12 contract: for ANY graph, ANY compression label covering the
pattern's attributes, and ANY (bounded) simulation pattern,
``decompress(M(Q, Gc)) == M(Q, G)`` — and the maintained partition keeps
that property through arbitrary update sequences of all five kinds.  The
maintained quotient is patched, never rebuilt: after every step it must
equal the quotient of the maintainer's partition, and its patched
snapshot and index a full freeze and a fresh index of it.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.compression.compress import compress
from repro.compression.decompress import decompress_relation
from repro.compression.equivalence import is_stable_partition
from repro.compression.maintain import MaintainedCompression
from repro.engine.engine import QueryEngine
from repro.graph.digraph import Graph
from repro.graph.frozen import FrozenGraph
from repro.graph.index import AttributeIndex
from repro.incremental.updates import (
    AttributeUpdate,
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
)
from repro.matching.bounded import match_bounded
from repro.matching.simulation import match_simulation
from repro.pattern.builder import PatternBuilder
from repro.pattern.pattern import Pattern
from repro.pattern.predicates import Cmp

from tests.conftest import drive

LABELS = ("A", "B")


@st.composite
def graph_and_pattern(draw, max_nodes=9, max_edges=18):
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    labels = draw(
        st.lists(st.sampled_from(LABELS), min_size=num_nodes, max_size=num_nodes)
    )
    graph = Graph()
    for index, label in enumerate(labels):
        graph.add_node(index, label=label)
    possible = [(s, t) for s in range(num_nodes) for t in range(num_nodes) if s != t]
    if possible:
        graph.add_edges(
            draw(st.lists(st.sampled_from(possible), max_size=max_edges, unique=True))
        )
    pattern = Pattern()
    names = [f"P{i}" for i in range(draw(st.integers(min_value=1, max_value=3)))]
    for name in names:
        pattern.add_node(name, f'label == "{draw(st.sampled_from(LABELS))}"')
    for source, target in draw(
        st.lists(st.sampled_from([(a, b) for a in names for b in names]),
                 max_size=3, unique=True)
    ):
        pattern.add_edge(source, target, draw(st.sampled_from([1, 2, 3, None])))
    return graph, pattern


@given(graph_and_pattern(), st.sampled_from(["bisimulation", "simulation"]))
@settings(max_examples=100, deadline=None)
def test_compression_preserves_bounded_matches(data, method):
    graph, pattern = data
    compressed = compress(graph, attrs=("label",), method=method)
    direct = match_bounded(graph, pattern).relation
    on_quotient = match_bounded(compressed.quotient, pattern).relation
    assert decompress_relation(on_quotient, compressed) == direct


@given(graph_and_pattern(), st.sampled_from(["bisimulation", "simulation"]))
@settings(max_examples=60, deadline=None)
def test_compression_preserves_plain_simulation(data, method):
    graph, pattern = data
    unit = Pattern()
    for node in pattern.nodes():
        unit.add_node(node, pattern.predicate(node))
    for source, target, _bound in pattern.edges():
        unit.add_edge(source, target, 1)
    compressed = compress(graph, attrs=("label",), method=method)
    direct = match_simulation(graph, unit).relation
    on_quotient = match_simulation(compressed.quotient, unit).relation
    assert decompress_relation(on_quotient, compressed) == direct


@given(graph_and_pattern())
@settings(max_examples=50, deadline=None)
def test_quotient_never_larger(data):
    graph, _pattern = data
    compressed = compress(graph, attrs=("label",))
    assert compressed.quotient.num_nodes <= graph.num_nodes
    assert compressed.quotient.num_edges <= graph.num_edges


@given(graph_and_pattern())
@settings(max_examples=50, deadline=None)
def test_simulation_method_at_least_as_coarse(data):
    graph, _pattern = data
    bis = compress(graph, attrs=("label",), method="bisimulation")
    sim = compress(graph, attrs=("label",), method="simulation")
    assert sim.quotient.num_nodes <= bis.quotient.num_nodes


#: What a scenario step may be: an edge insertion or deletion, a labelled
#: node insertion, a node deletion (decomposed by the update driver into
#: its edge deletions first), and label-changing / label-preserving writes.
STEP_KINDS = ("edge", "add-node", "delete-node", "relabel", "other-attr")


@st.composite
def maintained_scenario(draw, max_nodes=7, max_updates=8):
    graph, pattern = draw(graph_and_pattern(max_nodes=max_nodes))
    if graph.num_nodes < 2:
        return graph, pattern, []
    scratch = graph.copy()
    updates = []
    for step in range(draw(st.integers(min_value=0, max_value=max_updates))):
        nodes = list(scratch.nodes())
        kind = draw(st.sampled_from(STEP_KINDS))
        if kind == "add-node":
            update = NodeInsertion.with_attrs(100 + step, label=draw(st.sampled_from(LABELS)))
        elif kind == "delete-node" and len(nodes) > 2:
            update = NodeDeletion(draw(st.sampled_from(nodes)))
        elif kind == "relabel":
            node = draw(st.sampled_from(nodes))
            update = AttributeUpdate(node, "label", draw(st.sampled_from(LABELS)))
        elif kind == "other-attr":
            update = AttributeUpdate(draw(st.sampled_from(nodes)), "weight", step)
        else:
            pairs = [(s, t) for s in nodes for t in nodes if s != t]
            source, target = draw(st.sampled_from(pairs))
            update = (
                EdgeDeletion(source, target)
                if scratch.has_edge(source, target)
                else EdgeInsertion(source, target)
            )
        update.apply(scratch)
        updates.append(update)
    return graph, pattern, updates


@given(maintained_scenario())
@settings(max_examples=80, deadline=None)
def test_maintained_compression_stays_query_preserving(data):
    graph, pattern, updates = data
    maintained = MaintainedCompression(graph, attrs=("label",))
    for update in updates:
        drive(maintained, update)
    compressed = maintained.compressed()
    direct = match_bounded(graph, pattern).relation
    on_quotient = match_bounded(compressed.quotient, pattern).relation
    assert decompress_relation(on_quotient, compressed) == direct


@given(maintained_scenario())
@settings(max_examples=80, deadline=None)
def test_maintained_partition_stays_stable_and_consistent(data):
    graph, _pattern, updates = data
    maintained = MaintainedCompression(graph, attrs=("label",))
    for update in updates:
        drive(maintained, update)
        maintained.check_partition()
    label_of = lambda v: graph.get(v, "label")
    node_class = maintained.compressed().node_to_class
    numeric = {node: int(cid[1:]) for node, cid in node_class.items()}
    assert is_stable_partition(graph, label_of, numeric)


def partition_quotient(graph, compressed):
    """The quotient of ``compressed``'s partition, built from scratch."""
    quotient = Graph()
    for cid, members in compressed.members.items():
        quotient.add_node(cid, _size=len(members), label=graph.get(members[0], "label"))
    node_class = compressed.node_to_class
    for source, target in graph.edges():
        quotient.add_edge(node_class[source], node_class[target])
    return quotient


def readable(frozen):
    """What a reader sees of a snapshot: labels, rows as sets, attributes."""
    return (
        tuple(frozen.labels),
        {v: set(frozen.successors(v)) for v in frozen.labels},
        {v: set(frozen.predecessors(v)) for v in frozen.labels},
        {v: frozen.node_attrs(v) for v in frozen.labels},
    )


QUOTIENT_PREDICATES = [Cmp("label", "==", label) for label in LABELS] + [
    Cmp("_size", ">=", 2)
]


@given(maintained_scenario())
@settings(max_examples=80, deadline=None)
def test_patched_quotient_equals_rebuilt_and_snapshot_equals_full_freeze(data):
    graph, _pattern, updates = data
    maintained = MaintainedCompression(graph, attrs=("label",))
    earlier = []  # (snapshot, what it showed when handed out)
    for update in [None] + updates:
        if update is not None:
            drive(maintained, update)
        compressed = maintained.compressed()
        quotient = compressed.quotient
        assert quotient == partition_quotient(graph, compressed)
        snapshot = compressed.frozen()
        assert readable(snapshot) == readable(FrozenGraph.freeze(quotient))
        fresh = AttributeIndex(quotient)
        for predicate in QUOTIENT_PREDICATES:
            assert compressed.index.resolve(predicate) == fresh.resolve(predicate)
        for handed_out, shown in earlier:
            assert readable(handed_out) == shown
        earlier.append((snapshot, readable(snapshot)))


def _route_pattern(name, labels, edges):
    builder = PatternBuilder(name)
    for node, label in labels.items():
        builder.node(node, f'label == "{label}"')
    for source, target, bound in edges:
        builder.edge(source, target, bound)
    return builder.build()


#: Cyclic shapes (the relation-only pass needs the cascade), a ``*`` edge
#: and an all-bound-1 pattern (the simulation algorithm's plans).
ROUTE_PATTERNS = (
    _route_pattern("two-cycle", {"A": "A", "B": "B"}, [("A", "B", 2), ("B", "A", 1)]),
    _route_pattern("self-loop", {"A": "A", "B": "B"}, [("A", "A", 2), ("A", "B", 1)]),
    _route_pattern(
        "three-cycle",
        {"X": "A", "Y": "B", "Z": "A"},
        [("X", "Y", 1), ("Y", "Z", 2), ("Z", "X", 3)],
    ),
    _route_pattern("star-edge", {"A": "A", "B": "B", "C": "B"}, [("A", "B", None), ("B", "C", 2)]),
    _route_pattern(
        "unit",
        {"A": "A", "B": "B", "C": "A"},
        [("A", "B", 1), ("B", "A", 1), ("B", "C", 1)],
    ),
)


@given(maintained_scenario(), st.sampled_from(["maintained", "simulation"]))
@settings(max_examples=60, deadline=None)
def test_engine_compressed_route_equals_direct_under_updates(data, kind):
    """The engine's compressed route (relation-only over the quotient's
    snapshot) answers what the direct route answers, batch after batch.
    A maintained compression follows the updates; a static simulation one
    is dropped by each batch and built again."""
    graph, _pattern, updates = data
    engine = QueryEngine()
    engine.register_graph("g", graph)

    def compress_again():
        if kind == "maintained":
            engine.compress_graph("g", ("label",))
        else:
            engine.compress_graph("g", ("label",), method="simulation", maintained=False)

    compress_again()
    batches = [[]] + [updates[i:i + 3] for i in range(0, len(updates), 3)]
    for batch in batches:
        if batch:
            engine.update_graph("g", batch)
            if kind != "maintained":
                compress_again()
        for pattern in ROUTE_PATTERNS:
            on_quotient = engine.evaluate("g", pattern, use_cache=False)
            direct = engine.evaluate(
                "g", pattern, use_cache=False, use_compression=False
            )
            assert on_quotient.stats["route"] == "compressed"
            # A quotient kernel is not an original-graph kernel.
            assert "kernels" not in on_quotient.stats
            assert on_quotient.relation == direct.relation
            assert direct.relation == match_bounded(graph, pattern).relation
