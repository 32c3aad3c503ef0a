"""Property-based tests: compression is query-preserving, statically and
under maintenance.

The SIGMOD'12 contract: for ANY graph, ANY compression label covering the
pattern's attributes, and ANY (bounded) simulation pattern,
``decompress(M(Q, Gc)) == M(Q, G)`` — and the maintained partition keeps
that property through arbitrary update sequences.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.compression.compress import compress
from repro.compression.decompress import decompress_relation
from repro.compression.equivalence import is_stable_partition
from repro.compression.maintain import MaintainedCompression
from repro.engine.engine import QueryEngine
from repro.graph.digraph import Graph
from repro.incremental.updates import EdgeDeletion, EdgeInsertion
from repro.matching.bounded import match_bounded
from repro.matching.simulation import match_simulation
from repro.pattern.builder import PatternBuilder
from repro.pattern.pattern import Pattern

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


@st.composite
def maintained_scenario(draw, max_nodes=7, max_updates=8):
    graph, pattern = draw(graph_and_pattern(max_nodes=max_nodes))
    if graph.num_nodes < 2:
        return graph, pattern, []
    possible = [
        (s, t)
        for s in graph.nodes()
        for t in graph.nodes()
        if s != t
    ]
    scratch = graph.copy()
    updates = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_updates))):
        existing = list(scratch.edges())
        missing = [pair for pair in possible if not scratch.has_edge(*pair)]
        kinds = ([("delete", e) for e in existing] + [("insert", m) for m in missing])
        if not kinds:
            break
        kind, (source, target) = draw(st.sampled_from(kinds))
        update = (
            EdgeInsertion(source, target)
            if kind == "insert"
            else EdgeDeletion(source, target)
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
