"""Index-carry differential: ``prior.carried(g2, prims)`` ≡ ``AttributeIndex(g2)``.

A publish carries the prior epoch's attribute index over its batch instead
of letting the new epoch rebuild it on first read: only the nodes a node or
attribute primitive names are re-filed, posting sets are copied on first
write, and everything else is shared.  The oracle is a fresh build of the
same graph — postings (attribute -> value -> nodes), per-node keys, the
unfiled-attribute counts and the answers of a fixed predicate set, ranges
and ``!=`` included, must all agree — and the index it was carried *from*
must not change by a single value dict or set: pinned readers are still
resolving against it.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, Phase, given, settings

from repro.graph.generators import collaboration_graph
from repro.graph.index import AttributeIndex
from repro.incremental.updates import (
    AttributeUpdate,
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
)
from repro.pattern.predicates import And, Cmp, In, Or
from tests.test_frozen_patch import CODES, VALUES, apply_batch, batch_from_codes, graphs


def hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


HASHABLE = [value for value in VALUES if hashable(value)]
PREDICATES = [
    *(Cmp(attr, "==", value) for attr in ("a", "b", "c", "loop") for value in HASHABLE),
    *(In(attr, [1, "x", None]) for attr in "abc"),
    And(Cmp("a", "==", 1), Cmp("b", "==", "x")),
    And(Cmp("a", "==", "x"), Cmp("c", ">=", 1)),
    Or(Cmp("a", "==", 0), Cmp("b", "==", True)),
    *(
        Cmp(attr, op, value)
        for attr in "abc"
        for op in ("!=", ">=", "<", ">", "<=")
        for value in (1, "x", 0.5)
    ),
    And(In("a", [1, "x"]), Cmp("b", "<=", 1), Cmp("c", "!=", None)),
    Or(Cmp("a", ">", 0), Cmp("b", "<", "y")),
]


def built(graph) -> AttributeIndex:
    index = AttributeIndex(graph)
    index.lookup("a", 0)  # force the build
    return index


def content(index: AttributeIndex) -> dict:
    """Everything a reader can observe of an index, as owned copies."""
    return {
        "postings": {
            attr: {value: set(nodes) for value, nodes in values.items()}
            for attr, values in index._postings.items()
        },
        "node_keys": dict(index._node_keys),
        "unfiled": dict(index._unfiled),
    }


def assert_equals_fresh_build(carried: AttributeIndex, graph) -> None:
    fresh = built(graph)
    assert carried.is_built and carried.graph is graph
    assert content(carried) == content(fresh)
    for predicate in PREDICATES:
        assert carried.resolve(predicate) == fresh.resolve(predicate), predicate


def identities(index: AttributeIndex) -> dict:
    """The object identity of every value dict and posting set."""
    return {
        attr: (id(values), {value: id(nodes) for value, nodes in values.items()})
        for attr, values in index._postings.items()
    }


def assert_carried_from(prior: AttributeIndex, before: dict, sets: dict) -> None:
    """The prior's content is as it was, dict for dict and set for set."""
    assert content(prior) == before
    assert identities(prior) == sets


class TestCarriedEqualsFreshBuild:
    # No shrink phase: minimising 20+ dependent batches takes minutes, and
    # the CI step runs under `timeout 120` — a failure is reported as drawn.
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        phases=[Phase.explicit, Phase.reuse, Phase.generate],
    )
    @given(
        graph=graphs(),
        soup=st.lists(st.lists(CODES, min_size=1, max_size=5), min_size=20, max_size=24),
    )
    def test_chained_batches_of_every_update_kind(self, graph, soup):
        prior = built(graph)
        for codes in soup:
            graph, primitives = apply_batch(graph, batch_from_codes(graph, codes))
            before = content(prior)
            sets = identities(prior)
            carried = prior.carried(graph, primitives)
            assert_carried_from(prior, before, sets)
            assert_equals_fresh_build(carried, graph)
            assert_carried_from(prior, before, sets)  # resolving wrote nothing back
            if all(isinstance(p, (EdgeInsertion, EdgeDeletion)) for p in primitives):
                assert carried._postings is prior._postings
            prior = carried

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_stream_on_a_collaboration_graph(self, seed):
        rng = random.Random(seed)
        graph = collaboration_graph(300, seed=seed)
        prior = built(graph)
        for _ in range(20):
            codes = [
                (rng.randrange(7), rng.randrange(10**6), rng.randrange(10**6))
                for _ in range(rng.randint(1, 6))
            ]
            graph, primitives = apply_batch(graph, batch_from_codes(graph, codes))
            carried = prior.carried(graph, primitives)
            assert_equals_fresh_build(carried, graph)
            prior = carried


class TestCarryEdges:
    def graph(self):
        graph = collaboration_graph(40, seed=1)
        graph.set(next(iter(graph.nodes())), "a", "x")
        return graph

    def test_edge_only_batch_shares_the_postings(self):
        graph = self.graph()
        prior = built(graph)
        source, target = list(graph.nodes())[:2]
        update = EdgeDeletion if graph.has_edge(source, target) else EdgeInsertion
        g2, primitives = apply_batch(graph, [update(source, target)])
        carried = prior.carried(g2, primitives)
        assert carried._postings is prior._postings
        assert carried._node_keys is prior._node_keys
        assert_equals_fresh_build(carried, g2)

    def test_an_unbuilt_prior_gives_a_lazy_index(self):
        graph = self.graph()
        prior = AttributeIndex(graph)
        node = next(iter(graph.nodes()))
        g2, primitives = apply_batch(graph, [AttributeUpdate(node, "a", "y")])
        carried = prior.carried(g2, primitives)
        assert not carried.is_built and not prior.is_built
        assert carried.graph is g2
        assert carried.resolve(Cmp("a", "==", "y")).nodes == {node}
        assert carried.stats()["builds"] == 1 and carried.stats()["rebuilds"] == 0

    def test_insert_then_delete_in_one_batch(self):
        graph = self.graph()
        prior = built(graph)
        g2, primitives = apply_batch(
            graph,
            [NodeInsertion.with_attrs("ghost", a="x", b=[1]), NodeDeletion("ghost")],
        )
        carried = prior.carried(g2, primitives)
        assert "ghost" not in carried._node_keys and "b" not in carried._unfiled
        assert_equals_fresh_build(carried, g2)

    def test_delete_then_reinsert_in_one_batch(self):
        graph = self.graph()
        node = next(iter(graph.nodes()))
        graph.set(node, "b", [1])
        prior = built(graph)
        assert prior._unfiled == {"b": 1}
        g2, primitives = apply_batch(
            graph, [NodeDeletion(node), NodeInsertion.with_attrs(node, a="fresh")]
        )
        carried = prior.carried(g2, primitives)
        assert carried._unfiled == {} and prior._unfiled == {"b": 1}
        assert carried.resolve(Cmp("a", "==", "fresh")).nodes == {node}
        assert carried.resolve(Cmp("a", "==", "x")).nodes == set()
        assert_equals_fresh_build(carried, g2)
