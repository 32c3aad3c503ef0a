"""Unit tests for bounded simulation — the core matcher."""

import random

import pytest

from repro.errors import EvaluationError
from repro.graph.digraph import Graph
from repro.graph.frozen import FrozenGraph
from repro.graph.generators import random_digraph
from repro.matching.bounded import BoundedState, bounded_relation, match_bounded
from repro.matching.reference import (
    is_maximal_bounded_relation,
    is_valid_bounded_relation,
    naive_bounded,
)
from repro.matching.simulation import match_simulation
from repro.pattern.builder import PatternBuilder
from repro.pattern.pattern import Pattern
from repro.ranking.topk import context_for

from tests.conftest import make_labelled_graph


def two_node_query(bound) -> Pattern:
    return (
        PatternBuilder()
        .node("A", 'label == "A"')
        .node("B", 'label == "B"')
        .edge("A", "B", bound)
        .build()
    )


class TestBasicSemantics:
    def test_bound_allows_path_through_intermediate(self):
        g = make_labelled_graph([("a", "m"), ("m", "b")], {"a": "A", "m": "M", "b": "B"})
        assert match_bounded(g, two_node_query(2)).relation.num_pairs == 2

    def test_bound_one_requires_direct_edge(self):
        g = make_labelled_graph([("a", "m"), ("m", "b")], {"a": "A", "m": "M", "b": "B"})
        assert match_bounded(g, two_node_query(1)).relation.is_empty

    def test_path_longer_than_bound_fails(self):
        g = make_labelled_graph(
            [("a", "m1"), ("m1", "m2"), ("m2", "b")],
            {"a": "A", "m1": "M", "m2": "M", "b": "B"},
        )
        assert match_bounded(g, two_node_query(2)).relation.is_empty
        assert match_bounded(g, two_node_query(3)).relation.num_pairs == 2

    def test_unbounded_edge_is_reachability(self):
        edges = [(f"n{i}", f"n{i+1}") for i in range(10)]
        labels = {f"n{i}": "M" for i in range(11)}
        labels["n0"] = "A"
        labels["n10"] = "B"
        g = make_labelled_graph(edges, labels)
        assert match_bounded(g, two_node_query(None)).relation.num_pairs == 2
        assert match_bounded(g, two_node_query(9)).relation.is_empty

    def test_nonempty_path_semantics_for_self_loop_pattern(self):
        q = Pattern()
        q.add_node("A", 'label == "A"')
        q.add_edge("A", "A", 2)
        # A 2-cycle of A-nodes: each reaches itself in 2 and the other in 1.
        g = make_labelled_graph([("a1", "a2"), ("a2", "a1")], {"a1": "A", "a2": "A"})
        assert match_bounded(g, q).relation.num_pairs == 2
        # A single A with no cycle cannot satisfy a nonempty path to an A.
        lone = make_labelled_graph([], {"a1": "A"})
        assert match_bounded(lone, q).relation.is_empty

    def test_predicates_filter_candidates(self):
        g = Graph()
        g.add_node("senior", label="A", exp=9)
        g.add_node("junior", label="A", exp=2)
        g.add_node("b", label="B", exp=1)
        g.add_edges([("senior", "b"), ("junior", "b")])
        q = (
            PatternBuilder()
            .node("A", 'label == "A", exp >= 5')
            .node("B", 'label == "B"')
            .edge("A", "B", 1)
            .build()
        )
        assert match_bounded(g, q).relation.matches_of("A") == {"senior"}

    def test_all_or_nothing_totality(self):
        # B matches exist but C has no candidate: the whole relation is empty.
        g = make_labelled_graph([("a", "b")], {"a": "A", "b": "B"})
        q = (
            PatternBuilder()
            .node("A", 'label == "A"')
            .node("B", 'label == "B"')
            .node("C", 'label == "C"')
            .edge("A", "B", 2)
            .build()
        )
        result = match_bounded(g, q)
        assert result.relation.is_empty
        assert result.relation.matches_of("A") == frozenset()

    def test_diamond_multiple_witnesses(self, diamond: Graph):
        q = (
            PatternBuilder()
            .node("A", 'label == "A"')
            .node("D", 'label == "D"')
            .edge("A", "D", 2)
            .build()
        )
        assert match_bounded(diamond, q).relation.num_pairs == 2

    def test_cyclic_pattern_with_bounds(self, cycle3: Graph):
        q = (
            PatternBuilder()
            .node("X", 'label == "X"')
            .node("Z", 'label == "Z"')
            .edge("X", "Z", 2)
            .edge("Z", "X", 1)
            .build()
        )
        result = match_bounded(cycle3, q)
        assert sorted(result.relation.pairs()) == [("X", "x"), ("Z", "z")]

    def test_result_carries_reusable_state(self):
        g = make_labelled_graph([("a", "b")], {"a": "A", "b": "B"})
        result = match_bounded(g, two_node_query(1))
        assert isinstance(result._state, BoundedState)
        assert result.stats["algorithm"] == "bounded-simulation"


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_naive_on_random_graphs(self, seed):
        g = random_digraph(16, 40, num_labels=3, seed=seed)
        q = (
            PatternBuilder()
            .node("A", 'label == "L0"')
            .node("B", 'label == "L1"')
            .node("C", 'label == "L2"')
            .edge("A", "B", 2)
            .edge("B", "C", 3)
            .edge("C", "A", 2)
            .build()
        )
        assert match_bounded(g, q).relation == naive_bounded(g, q)

    @pytest.mark.parametrize("seed", range(6))
    def test_result_is_valid_and_locally_maximal(self, seed):
        g = random_digraph(12, 28, num_labels=2, seed=seed)
        q = (
            PatternBuilder()
            .node("A", 'label == "L0"')
            .node("B", 'label == "L1"')
            .edge("A", "B", 2)
            .build()
        )
        relation = match_bounded(g, q).relation
        sets = {u: set(relation.matches_of(u)) for u in q.nodes()}
        assert is_valid_bounded_relation(g, q, sets)
        assert is_maximal_bounded_relation(g, q, sets)

    def test_isomorphism_matches_are_contained(self):
        from repro.matching.isomorphism import find_isomorphisms

        g = random_digraph(14, 45, num_labels=2, seed=3)
        q = (
            PatternBuilder()
            .node("A", 'label == "L0"')
            .node("B", 'label == "L1"')
            .edge("A", "B", 1)
            .build()
        )
        relation = match_bounded(g, q).relation
        for mapping in find_isomorphisms(g, q):
            for pattern_node, data_node in mapping.items():
                assert data_node in relation.matches_of(pattern_node)


class TestStateInvariants:
    def test_invariants_after_batch_match(self):
        g = random_digraph(20, 60, num_labels=3, seed=5)
        q = (
            PatternBuilder()
            .node("A", 'label == "L0"')
            .node("B", 'label == "L1"')
            .edge("A", "B", 2)
            .build()
        )
        state = BoundedState(g, q)
        state.check_invariants()

    def test_match_edges_respect_bounds(self, fig1, fig1_query):
        state = BoundedState(fig1, fig1_query)
        bounds = {(s, t): b for s, t, b in fig1_query.edges()}
        assert max(b for b in bounds.values()) == 3
        for _source, _target, dist in state.match_edges():
            assert 1 <= dist <= 3

    def test_add_member_rejects_duplicates(self, fig1, fig1_query):
        state = BoundedState(fig1, fig1_query)
        with pytest.raises(EvaluationError, match="already a member"):
            state.add_member("SA", "Bob")

    def test_empty_candidate_sets_give_empty_relation(self):
        g = make_labelled_graph([], {"a": "A"})
        q = two_node_query(2)
        state = BoundedState(g, q)
        assert state.relation().is_empty


def _random_case(rng: random.Random) -> tuple[Graph, Pattern]:
    """A graph of <= 14 nodes (self-loops allowed) and a pattern of <= 4
    nodes whose edges draw bounds from 1, 2, 3 and ``*``."""
    graph = Graph()
    size = rng.randint(1, 14)
    for node in range(size):
        graph.add_node(node, label=rng.choice("AB"))
    for _ in range(rng.randint(0, 3 * size)):
        source, target = rng.randrange(size), rng.randrange(size)
        if not graph.has_edge(source, target):
            graph.add_edge(source, target)
    pattern = Pattern()
    names = [f"P{i}" for i in range(rng.randint(1, 4))]
    for name in names:
        pattern.add_node(name, f'label == "{rng.choice("AB")}"')
    bounds = [1, 1, 2, 3, None]
    pairs = [(a, b) for a in names for b in names]
    for source, target in rng.sample(pairs, min(len(pairs), rng.randint(0, len(names) + 2))):
        pattern.add_edge(source, target, rng.choice(bounds))
    return graph, pattern


def _is_cyclic(pattern: Pattern) -> bool:
    """Does some pattern node reach itself by a nonempty path?"""
    for node in pattern.nodes():
        stack = [child for child, _bound in pattern.out_edges(node)]
        seen: set[str] = set()
        while stack:
            current = stack.pop()
            if current == node:
                return True
            if current not in seen:
                seen.add(current)
                stack.extend(child for child, _bound in pattern.out_edges(current))
    return False


class TestBoundedRelation:
    def test_equals_dict_matcher_on_random_inputs(self):
        """The relation-only pass (plus cascade on cyclic patterns) equals
        the dict BoundedState, and plain simulation on bound-1 patterns."""
        rng = random.Random(37)
        cyclic = unit = 0
        for _case in range(2000):
            graph, pattern = _random_case(rng)
            relation = bounded_relation(graph, pattern, FrozenGraph.freeze(graph))
            assert relation == match_bounded(graph, pattern).relation
            if pattern.is_simulation_pattern:
                unit += 1
                assert relation == match_simulation(graph, pattern).relation
            cyclic += _is_cyclic(pattern)
        assert cyclic > 500 and unit > 300

    def test_cycle_needs_the_cascade(self):
        """A 2-cycle the first pass alone over-approximates: the edge
        ``B -> A`` runs first and keeps ``d``, whose only ``A`` successor
        ``c`` then fails ``A -> B``; ``B -> A``'s target shrank, so the
        re-pass runs it again and drops ``d``."""
        g = make_labelled_graph(
            [("a", "b"), ("b", "a"), ("d", "c")],
            {"a": "A", "b": "B", "c": "A", "d": "B"},
        )
        q = two_node_query(1)
        q.add_edge("B", "A", 1)
        relation = bounded_relation(g, q, FrozenGraph.freeze(g))
        assert sorted(relation.pairs()) == [("A", "a"), ("B", "b")]
        assert relation == match_bounded(g, q).relation

    def test_rejects_stale_snapshot(self):
        g = make_labelled_graph([("a", "b")], {"a": "A", "b": "B"})
        frozen = FrozenGraph.freeze(g)
        g.add_edge("b", "a")
        with pytest.raises(EvaluationError, match="stale frozen snapshot"):
            bounded_relation(g, two_node_query(1), frozen)

    def test_empty_candidate_set_gives_empty_relation(self):
        g = make_labelled_graph([("a", "a")], {"a": "A"})
        relation = bounded_relation(g, two_node_query(2), FrozenGraph.freeze(g))
        assert relation.is_empty and set(relation) == {"A", "B"}


@pytest.mark.xfail(
    strict=True,
    reason=(
        "known defect: without a guard the kernel log keeps each "
        "enumeration edge's per-edge route although its source group ran "
        "one shared traversal; fixing it moves bounded.kernel_edges.*, "
        "which the perf gate pins exactly (ROADMAP item 2(c))"
    ),
)
def test_kernel_log_names_the_kernel_that_ran(monkeypatch):
    """``A -2-> B`` alone routes per-source, but beside ``A -*-> C`` the
    group's depth is ``*`` and the shared bitset traversal fills both
    rows: the log must name the bitset kernel for both edges."""
    from repro.engine import planner
    from repro.graph.frozen import FrozenGraph
    from repro.matching import bounded as bounded_module
    from repro.matching.bounded import frozen_successor_rows

    ran: list[str] = []
    for name, kernel in (
        ("_per_source_rows", planner.KERNEL_PER_SOURCE),
        ("_bitset_rows", planner.KERNEL_BITSET),
    ):
        original = getattr(bounded_module, name)

        def recording(*args, _original=original, _kernel=kernel, **kwargs):
            ran.append(_kernel)
            return _original(*args, **kwargs)

        monkeypatch.setattr(bounded_module, name, recording)
    graph = random_digraph(30, 90, seed=4)
    frozen = FrozenGraph.freeze(graph)
    everyone = frozenset(range(frozen.num_nodes))
    log: dict = {}
    frozen_successor_rows(
        frozen,
        {"A": (("B", 2), ("C", None))},
        {"A": everyone, "B": everyone, "C": everyone},
        kernel_log=log,
    )
    assert ran == [planner.KERNEL_BITSET]
    assert {edge: route.kernel for edge, route in log.items()} == {
        ("A", "B"): planner.KERNEL_BITSET,
        ("A", "C"): planner.KERNEL_BITSET,
    }


# ----------------------------------------------------------------------
# lazy rows: an evaluation stops at the relation
# ----------------------------------------------------------------------

#: Every way a relation-first result's rows are read.
ROW_READERS = {
    "rows": lambda result, frozen: result.state.rows,
    "result_graph": lambda result, frozen: result.result_graph(),
    "context_for": lambda result, frozen: context_for(result, frozen),
}


@pytest.fixture
def row_calls(monkeypatch):
    """The calls made to ``frozen_successor_rows`` (their ``guard``s)."""
    from repro.matching import bounded as bounded_module

    calls: list = []
    original = bounded_module.frozen_successor_rows

    def counting(*args, **kwargs):
        calls.append(kwargs.get("guard"))
        return original(*args, **kwargs)

    monkeypatch.setattr(bounded_module, "frozen_successor_rows", counting)
    return calls


def _chain() -> Graph:
    return make_labelled_graph([("a", "m"), ("m", "b")], {"a": "A", "m": "M", "b": "B"})


def _two_cycle() -> tuple[Graph, Pattern]:
    graph = make_labelled_graph([("a", "b"), ("b", "a")], {"a": "A", "b": "B"})
    pattern = two_node_query(1)
    pattern.add_edge("B", "A", 1)
    return graph, pattern


class TestLazyRows:
    @pytest.mark.parametrize("reader", sorted(ROW_READERS))
    def test_unguarded_acyclic_builds_rows_on_first_read(self, row_calls, reader):
        graph = _chain()
        frozen = FrozenGraph.freeze(graph)
        result = match_bounded(graph, two_node_query(2), frozen=frozen)
        assert sorted(result.relation.pairs()) == [("A", "a"), ("B", "b")]
        assert row_calls == []
        assert result.stats["kernels"] == {"A->B": "bfs-enumeration"}
        ROW_READERS[reader](result, frozen)
        assert row_calls == [None]
        for read in ROW_READERS.values():
            read(result, frozen)
        assert row_calls == [None]
        assert result.state.rows == {("A", "B"): {frozen.ids()["a"]: {frozen.ids()["b"]: 2}}}
        assert result.state._pending is None  # snapshot, oracle and sets dropped

    @pytest.mark.parametrize("reader", sorted(ROW_READERS))
    def test_cyclic_builds_no_rows_until_first_read(self, row_calls, reader):
        """The re-pass settles a cycle's sets: rows are built between them
        on first read, then once, and need no cascade."""
        graph = make_labelled_graph(
            [("a", "b"), ("b", "a"), ("d", "c")],  # the re-pass drops d
            {"a": "A", "b": "B", "c": "A", "d": "B"},
        )
        _, pattern = _two_cycle()
        frozen = FrozenGraph.freeze(graph)
        result = match_bounded(graph, pattern, frozen=frozen)
        assert sorted(result.relation.pairs()) == [("A", "a"), ("B", "b")]
        assert row_calls == [] and result.state._pending is not None
        assert result.stats["kernels"] == {
            "A->B": "bfs-enumeration", "B->A": "bfs-enumeration"
        }
        ROW_READERS[reader](result, frozen)
        for read in ROW_READERS.values():
            read(result, frozen)
        assert row_calls == [None]
        ids = frozen.ids()
        assert result.state.rows == {
            ("A", "B"): {ids["a"]: {ids["b"]: 1}},
            ("B", "A"): {ids["b"]: {ids["a"]: 1}},
        }

    @pytest.mark.parametrize("bound", [1, 2])
    def test_cyclic_over_the_repass_cap_builds_rows_at_evaluation(
        self, row_calls, bound
    ):
        """A long path against ``A <-> B`` trips the re-pass cap: rows are
        built once, at evaluation, and the cascade empties the relation."""
        graph = Graph.from_edges([(index, index + 1) for index in range(199)])
        pattern = Pattern("ping-pong")
        pattern.add_node("A", None)
        pattern.add_node("B", None)
        pattern.add_edge("A", "B", bound)
        pattern.add_edge("B", "A", bound)
        frozen = FrozenGraph.freeze(graph)
        result = match_bounded(graph, pattern, frozen=frozen)
        assert row_calls == [None] and result.state._pending is None
        assert result.relation.is_empty
        assert result.relation == naive_bounded(graph, pattern)
        for read in ROW_READERS.values():
            read(result, frozen)
        assert row_calls == [None]

    def test_guarded_builds_rows_on_first_read(self, row_calls):
        """A guard bounds the same evaluation: the rows wait for their
        first read, which charges the evaluation's guard."""
        from repro.engine.estimator import QueryBudget

        graph = _chain()
        frozen = FrozenGraph.freeze(graph)
        result = match_bounded(
            graph, two_node_query(2), frozen=frozen, budget=QueryBudget(node_visits=10**6)
        )
        assert not result.relation.is_empty and row_calls == []
        for read in ROW_READERS.values():
            read(result, frozen)
        [guard] = row_calls
        assert guard is not None and guard.visits > result.stats["visits"]

    @pytest.mark.parametrize("cyclic", [False, True])
    def test_empty_relation_builds_none(self, row_calls, cyclic):
        graph = make_labelled_graph([("b", "a")], {"a": "A", "b": "B"})
        pattern = two_node_query(2)
        if cyclic:
            pattern.add_edge("B", "A", 1)
        frozen = FrozenGraph.freeze(graph)
        result = match_bounded(graph, pattern, frozen=frozen)
        assert result.relation.is_empty
        for read in ROW_READERS.values():
            read(result, frozen)
        assert row_calls == []
        assert list(result.stats["kernels"]) == ["A->B", "B->A"][: 1 + cyclic]
        assert all(not rows for rows in result.state.rows.values())
        assert result.result_graph().num_edges == 0

    def test_lazy_rows_equal_eager_rows_and_the_reference(self):
        """Seeded differential: rows built on first read equal the rows
        between the final sets; the result graph and top-K equal the
        naive reference's; the kernel log is the candidate-routed plan,
        in its order."""
        from repro.engine.estimator import QueryBudget
        from repro.graph.oracle import DistanceOracle
        from repro.matching.bounded import frozen_successor_rows
        from repro.matching.result_graph import build_result_graph
        from repro.matching.simulation import simulation_candidates
        from repro.ranking.topk import RankingContext, bulk_top_k_detail

        def evidence(ranked):
            return [
                (m.node, m.rank, list(m.ancestors.items()), list(m.descendants.items()))
                for m in ranked
            ]

        def shape(result_graph):
            return (
                {node: result_graph.matched_pattern_nodes(node) for node in result_graph.nodes()},
                set(result_graph.edges()),
            )

        rng = random.Random(42)
        lazy = matched = cyclic = cyclic_lazy = 0
        for case in range(600):
            graph, pattern = _random_case(rng)
            pattern.set_output(next(pattern.nodes()))
            frozen = FrozenGraph.freeze(graph)
            ids = frozen.ids()
            oracle = DistanceOracle.build(frozen, cap=2) if case % 2 else None
            guarded = case % 5 == 0
            result = match_bounded(
                graph,
                pattern,
                frozen=frozen,
                oracle=oracle,
                budget=QueryBudget(node_visits=10**9) if guarded else None,
            )
            where = f"case {case}"
            lazy += result.state._pending is not None
            if _is_cyclic(pattern) and not guarded and not result.relation.is_empty:
                cyclic += 1
                cyclic_lazy += result.state._pending is not None
            reference = naive_bounded(graph, pattern)
            assert result.relation == reference, where
            spec = {u: tuple(pattern.out_edges(u)) for u in pattern.nodes()}
            if not guarded:
                log: dict = {}
                candidates = simulation_candidates(graph, pattern)
                frozen_successor_rows(
                    frozen,
                    spec,
                    {u: frozenset(ids[v] for v in vs) for u, vs in candidates.items()},
                    oracle=oracle,
                    kernel_log=log,
                )
                plan = [(f"{a}->{b}", route.kernel) for (a, b), route in log.items()]
                assert list(result.stats.get("kernels", {}).items()) == plan, where
            # the first reader varies; every later read sees the same rows
            ROW_READERS[sorted(ROW_READERS)[case % 3]](result, frozen)
            final = {u: frozenset(ids[v] for v in vs) for u, vs in reference.items()}
            assert result.state.rows == frozen_successor_rows(frozen, spec, final), where
            reference_graph = build_result_graph(graph, pattern, reference)
            assert shape(result.result_graph()) == shape(reference_graph), where
            if reference.is_empty:
                continue
            matched += 1
            served = bulk_top_k_detail(context_for(result, frozen), 3)
            expected = bulk_top_k_detail(RankingContext(reference_graph), 3)
            assert evidence(served) == evidence(expected), where
        assert lazy > 100 and matched > 100
        # most unguarded cycles settle by re-passes and end lazy
        assert cyclic > 50 and cyclic_lazy > 0.9 * cyclic, (cyclic, cyclic_lazy)
