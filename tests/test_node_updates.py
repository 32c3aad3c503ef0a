"""Tests for node-level updates (attribute changes, node insert/delete).

An extension beyond the paper's edge-only ΔG, supporting the demo GUI's
Graph Editor ("update and maintain data graphs").  The contract is the same
as for edge updates: incremental maintenance must coincide with batch
recomputation on the updated graph, for matchers and for the maintained
compression alike.
"""

import pytest

from repro.compression.compress import compress
from repro.compression.decompress import decompress_relation
from repro.compression.maintain import MaintainedCompression
from repro.datasets.paper_example import paper_graph, paper_pattern
from repro.engine.engine import QueryEngine
from repro.errors import UpdateError
from repro.graph.digraph import Graph
from repro.graph.generators import random_digraph
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
from repro.matching.reference import naive_bounded, naive_simulation
from repro.pattern.builder import PatternBuilder

from tests.conftest import drive, make_labelled_graph


class TestUpdateValues:
    def test_node_insertion_applies(self):
        g = Graph()
        NodeInsertion.with_attrs("a", field="SA", experience=7).apply(g)
        assert g.get("a", "experience") == 7

    def test_node_insertion_duplicate_raises(self):
        g = Graph()
        g.add_node("a")
        with pytest.raises(UpdateError, match="already present"):
            NodeInsertion("a").apply(g)

    def test_node_insertion_inverted(self):
        assert NodeInsertion("a").inverted() == NodeDeletion("a")

    def test_node_deletion_applies_with_edges(self):
        g = Graph.from_edges([("a", "b"), ("c", "a")])
        NodeDeletion("a").apply(g)
        assert "a" not in g
        assert g.num_edges == 0

    def test_node_deletion_missing_raises(self):
        with pytest.raises(UpdateError, match="not present"):
            NodeDeletion("a").apply(Graph())

    def test_node_deletion_not_invertible(self):
        with pytest.raises(UpdateError):
            NodeDeletion("a").inverted()

    def test_attribute_update_applies(self):
        g = Graph()
        g.add_node("a", experience=3)
        AttributeUpdate("a", "experience", 9).apply(g)
        assert g.get("a", "experience") == 9

    def test_attribute_update_missing_node_raises(self):
        with pytest.raises(UpdateError):
            AttributeUpdate("a", "x", 1).apply(Graph())

    def test_decompose_node_deletion(self):
        g = Graph.from_edges([("a", "b"), ("c", "a"), ("a", "a")])
        primitives = decompose(g, NodeDeletion("a"))
        # Self-loop once, out-edge, in-edge, then the bare deletion.
        assert len(primitives) == 4
        assert primitives[-1] == NodeDeletion("a")
        for primitive in primitives:
            primitive.apply(g)
        assert "a" not in g

    def test_decompose_passthrough_for_other_updates(self):
        g = Graph.from_edges([("a", "b")])
        update = AttributeUpdate("a", "x", 1)
        assert decompose(g, update) == [update]

    def test_decompose_missing_node_raises(self):
        with pytest.raises(UpdateError):
            decompose(Graph(), NodeDeletion("a"))


def bounded_ab(bound=2):
    return (
        PatternBuilder()
        .node("A", 'label == "A"', output=True)
        .node("B", 'label == "B"')
        .edge("A", "B", bound)
        .build()
    )


class TestIncrementalSimulationNodeUpdates:
    def test_attribute_update_gains_match(self):
        g = make_labelled_graph([("a", "b")], {"a": "X", "b": "B"})
        inc = IncrementalSimulation(g, bounded_ab(1))
        assert inc.relation().is_empty
        drive(inc, AttributeUpdate("a", "label", "A"))
        assert inc.relation().num_pairs == 2
        inc.state.check_invariants()

    def test_attribute_update_loses_match(self):
        g = make_labelled_graph([("a", "b")], {"a": "A", "b": "B"})
        inc = IncrementalSimulation(g, bounded_ab(1))
        drive(inc, AttributeUpdate("b", "label", "X"))
        assert inc.relation().is_empty
        inc.state.check_invariants()

    def test_node_insertion_then_edges(self):
        g = make_labelled_graph([], {"b": "B"})
        inc = IncrementalSimulation(g, bounded_ab(1))
        drive(inc, NodeInsertion.with_attrs("a", label="A"))
        assert inc.relation().is_empty  # no edge yet
        drive(inc, EdgeInsertion("a", "b"))
        assert inc.relation().num_pairs == 2
        inc.state.check_invariants()

    def test_node_deletion_cascades(self):
        g = make_labelled_graph([("a", "b")], {"a": "A", "b": "B"})
        inc = IncrementalSimulation(g, bounded_ab(1))
        drive(inc, NodeDeletion("b"))
        assert inc.relation().is_empty
        assert "b" not in g
        inc.state.check_invariants()


class TestIncrementalBoundedNodeUpdates:
    def test_attribute_update_gains_match(self):
        g = make_labelled_graph(
            [("a", "m"), ("m", "b")], {"a": "X", "m": "M", "b": "B"}
        )
        inc = IncrementalBoundedSimulation(g, bounded_ab(2))
        drive(inc, AttributeUpdate("a", "label", "A"))
        assert inc.relation().num_pairs == 2
        inc.state.check_invariants()

    def test_attribute_update_on_mid_chain_target(self):
        # b leaves candidacy: distances untouched but matches collapse.
        g = make_labelled_graph(
            [("a", "m"), ("m", "b")], {"a": "A", "m": "M", "b": "B"}
        )
        inc = IncrementalBoundedSimulation(g, bounded_ab(2))
        assert inc.relation().num_pairs == 2
        drive(inc, AttributeUpdate("b", "label", "X"))
        assert inc.relation().is_empty
        inc.state.check_invariants()

    def test_node_insertion_and_wiring(self):
        g = make_labelled_graph([("a", "m")], {"a": "A", "m": "M"})
        inc = IncrementalBoundedSimulation(g, bounded_ab(2))
        drive(inc, NodeInsertion.with_attrs("b", label="B"))
        assert inc.relation().is_empty
        drive(inc, EdgeInsertion("m", "b"))
        assert inc.relation().num_pairs == 2
        inc.state.check_invariants()

    def test_node_deletion_with_edges(self):
        g = make_labelled_graph(
            [("a", "m"), ("m", "b")], {"a": "A", "m": "M", "b": "B"}
        )
        inc = IncrementalBoundedSimulation(g, bounded_ab(2))
        drive(inc, NodeDeletion("m"))
        assert inc.relation().is_empty
        assert "m" not in g
        inc.state.check_invariants()

    def test_self_loop_pattern_candidacy_entry(self):
        pattern = (
            PatternBuilder()
            .node("A", 'label == "A"')
            .edge("A", "A", 2)
            .build()
        )
        g = make_labelled_graph([("x", "y"), ("y", "x")], {"x": "A", "y": "Z"})
        inc = IncrementalBoundedSimulation(g, pattern)
        # x already matches: the 2-cycle is a nonempty path back to itself.
        assert set(inc.relation().matches_of("A")) == {"x"}
        drive(inc, AttributeUpdate("y", "label", "A"))
        assert set(inc.relation().matches_of("A")) == {"x", "y"}
        inc.state.check_invariants()
        # And leaving candidacy unwinds it symmetrically.
        drive(inc, AttributeUpdate("y", "label", "Z"))
        assert set(inc.relation().matches_of("A")) == {"x"}
        inc.state.check_invariants()

    @pytest.mark.parametrize("seed", range(8))
    def test_random_mixed_node_and_edge_updates_match_oracle(self, seed):
        import random

        rng = random.Random(seed)
        g = random_digraph(12, 26, num_labels=3, seed=seed)
        pattern = (
            PatternBuilder()
            .node("A", 'label == "L0"')
            .node("B", 'label == "L1"')
            .node("C", 'label == "L2"')
            .edge("A", "B", 2)
            .edge("B", "C", 2)
            .edge("C", "A", 3)
            .build()
        )
        inc_bounded = IncrementalBoundedSimulation(g.copy(), pattern)
        inc_sim_graph = g.copy()
        unit = (
            PatternBuilder()
            .node("A", 'label == "L0"')
            .node("B", 'label == "L1"')
            .edge("A", "B", 1)
            .build()
        )
        inc_sim = IncrementalSimulation(inc_sim_graph, unit)
        next_id = 1000
        for _step in range(18):
            graph = inc_bounded.graph
            choice = rng.random()
            nodes = list(graph.nodes())
            if choice < 0.25 and nodes:
                update = AttributeUpdate(
                    rng.choice(nodes), "label", f"L{rng.randrange(3)}"
                )
            elif choice < 0.45:
                update = NodeInsertion.with_attrs(
                    next_id, label=f"L{rng.randrange(3)}", x=rng.randint(0, 9)
                )
                next_id += 1
            elif choice < 0.6 and len(nodes) > 3:
                update = NodeDeletion(rng.choice(nodes))
            else:
                candidates = [
                    (s, t)
                    for s in nodes
                    for t in nodes
                    if s != t and not graph.has_edge(s, t)
                ]
                if not candidates:
                    continue
                update = EdgeInsertion(*rng.choice(candidates))
            drive(inc_bounded, update)
            inc_bounded.state.check_invariants()
            assert inc_bounded.relation() == naive_bounded(
                inc_bounded.graph, pattern
            ), update
            # replay on the simulation maintainer (independent graph copy)
            drive(inc_sim, update)
            inc_sim.state.check_invariants()
            assert inc_sim.relation() == naive_simulation(inc_sim_graph, unit), update


class TestMaintainedCompressionNodeUpdates:
    def test_attribute_update_rehomes_node(self):
        g = make_labelled_graph([], {"x": "A", "y": "A"})
        maintained = MaintainedCompression(g, attrs=("label",))
        assert maintained.num_classes == 1
        drive(maintained, AttributeUpdate("x", "label", "B"))
        maintained.check_partition()
        assert maintained.num_classes == 2

    def test_attribute_update_same_label_is_noop_split(self):
        g = make_labelled_graph([], {"x": "A", "y": "A"})
        maintained = MaintainedCompression(g, attrs=("label",))
        drive(maintained, AttributeUpdate("x", "other", 42))
        maintained.check_partition()
        assert maintained.num_classes == 1

    def test_node_insertion_and_deletion(self):
        g = make_labelled_graph([("x", "c")], {"x": "A", "c": "C"})
        maintained = MaintainedCompression(g, attrs=("label",))
        drive(maintained, NodeInsertion.with_attrs("z", label="A"))
        maintained.check_partition()
        drive(maintained, NodeDeletion("x"))
        maintained.check_partition()
        assert "x" not in g

    @pytest.mark.parametrize("seed", range(5))
    def test_maintained_compression_with_node_updates_preserves_queries(self, seed):
        import random

        rng = random.Random(seed)
        g = random_digraph(14, 30, num_labels=2, seed=seed)
        maintained = MaintainedCompression(g, attrs=("label",))
        pattern = (
            PatternBuilder()
            .node("A", 'label == "L0"')
            .node("B", 'label == "L1"')
            .edge("A", "B", 2)
            .build()
        )
        next_id = 500
        for _step in range(12):
            nodes = list(g.nodes())
            roll = rng.random()
            if roll < 0.3 and nodes:
                update = AttributeUpdate(
                    rng.choice(nodes), "label", f"L{rng.randrange(2)}"
                )
            elif roll < 0.55:
                update = NodeInsertion.with_attrs(next_id, label=f"L{rng.randrange(2)}")
                next_id += 1
            elif roll < 0.7 and len(nodes) > 4:
                update = NodeDeletion(rng.choice(nodes))
            else:
                pairs = [
                    (s, t)
                    for s in nodes
                    for t in nodes
                    if s != t and not g.has_edge(s, t)
                ]
                if not pairs:
                    continue
                update = EdgeInsertion(*rng.choice(pairs))
            drive(maintained, update)
            maintained.check_partition()
            compressed = maintained.compressed()
            direct = match_bounded(g, pattern).relation
            on_quotient = match_bounded(compressed.quotient, pattern).relation
            assert decompress_relation(on_quotient, compressed) == direct, update


class TestEngineNodeUpdates:
    def test_engine_routes_node_updates_through_all_maintainers(self):
        engine = QueryEngine()
        graph = paper_graph()
        engine.register_graph("fig1", graph)
        pattern = paper_pattern()
        engine.pin("fig1", pattern)
        engine.compress_graph("fig1", attrs=("field",))

        # Grow the team: a new senior architect who led Dan.
        engine.update_graph(
            "fig1",
            [
                NodeInsertion.with_attrs(
                    "Amy", field="SA", specialty="system architect", experience=8
                ),
                EdgeInsertion("Amy", "Dan"),
                EdgeInsertion("Amy", "Bill"),
                EdgeInsertion("Amy", "Fred"),
            ],
        )
        # Seniority change: Walt drops below the threshold.
        summary = engine.update_graph(
            "fig1", [AttributeUpdate("Walt", "experience", 4)]
        )
        delta = summary["pinned_deltas"][pattern.canonical_key()]
        assert ("SA", "Walt") in delta["removed"]
        cached = engine.evaluate("fig1", pattern)
        assert cached.relation == match_bounded(graph, pattern).relation

        # Delete a person entirely; everything must stay consistent.
        engine.update_graph("fig1", [NodeDeletion("Bill")])
        cached = engine.evaluate("fig1", pattern)
        assert cached.stats["route"] == "cache"
        assert cached.relation == match_bounded(graph, pattern).relation


class TestMaintainersFollowTheGraph:
    """A maintainer only follows ``apply_updates``: handed a primitive the
    graph does not show yet, it refuses and keeps its state."""

    UNREFLECTED = [
        EdgeInsertion("b", "a"),
        EdgeDeletion("a", "b"),
        NodeInsertion.with_attrs("new", label="A"),
        NodeDeletion("a"),
        AttributeUpdate("x", "label", "A"),
    ]

    @staticmethod
    def maintainers(graph):
        return {
            "simulation": IncrementalSimulation(graph, bounded_ab(1)),
            "bounded": IncrementalBoundedSimulation(graph, bounded_ab(2)),
            "compression": MaintainedCompression(graph, attrs=("label",)),
        }

    @staticmethod
    def snapshot(name, maintainer):
        if name == "compression":
            compressed = maintainer.compressed()
            return compressed.node_to_class, sorted(compressed.quotient.edges())
        return maintainer.relation()

    @pytest.mark.parametrize("name", ["simulation", "bounded", "compression"])
    @pytest.mark.parametrize("primitive", UNREFLECTED, ids=lambda p: type(p).__name__)
    def test_unreflected_primitive_is_refused(self, name, primitive):
        g = make_labelled_graph([("a", "b"), ("x", "b")], {"a": "A", "b": "B", "x": "X"})
        maintainer = self.maintainers(g)[name]
        before = self.snapshot(name, maintainer)
        version = g.version
        with pytest.raises(UpdateError, match="does not reflect"):
            maintainer.apply(primitive)
        assert self.snapshot(name, maintainer) == before
        assert g.version == version

    @pytest.mark.parametrize("name", ["simulation", "bounded", "compression"])
    def test_reflected_primitives_are_followed(self, name):
        g = make_labelled_graph([("a", "b"), ("x", "b")], {"a": "A", "b": "B", "x": "X"})
        maintainer = self.maintainers(g)[name]
        drive(maintainer, *self.UNREFLECTED)
        if name == "compression":
            maintainer.check_partition()
        elif name == "simulation":
            maintainer.state.check_invariants()
            assert maintainer.relation() == naive_simulation(g, bounded_ab(1))
        else:
            maintainer.state.check_invariants()
            assert maintainer.relation() == naive_bounded(g, bounded_ab(2))
