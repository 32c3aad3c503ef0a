"""Full-system soak test.

Everything at once, for many rounds: one engine, one evolving collaboration
network, a pinned bounded query and maintained compression — with edge
*and* node updates streaming in.
After every round the three evaluation routes and a from-scratch
recomputation must all agree.  This is the closest the test suite gets to
the demo's live scenario.
"""

import random

import pytest

from repro.engine.engine import QueryEngine
from repro.graph.generators import collaboration_graph
from repro.incremental.updates import (
    AttributeUpdate,
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
)
from repro.matching.bounded import match_bounded
from repro.pattern.builder import PatternBuilder


def standing_query():
    return (
        PatternBuilder("standing")
        .node("SA", field="SA", output=True)
        .node("SD", field="SD")
        .node("ST", field="ST")
        .edge("SA", "SD", 2)
        .edge("SD", "ST", 2)
        .build(require_output=True)
    )


def random_batch(graph, rng, size, next_id):
    batch = []
    for _ in range(size):
        nodes = list(graph.nodes())
        roll = rng.random()
        if roll < 0.1:
            batch.append(
                NodeInsertion.with_attrs(
                    f"new{next_id[0]}",
                    field=rng.choice(("SA", "SD", "ST", "BA")),
                    experience=rng.randint(1, 12),
                )
            )
            next_id[0] += 1
            break  # keep batches simple: one structural node op at a time
        if roll < 0.2 and len(nodes) > 20:
            batch.append(NodeDeletion(rng.choice(nodes)))
            break
        if roll < 0.35:
            batch.append(
                AttributeUpdate(rng.choice(nodes), "experience", rng.randint(1, 12))
            )
        elif roll < 0.7:
            pairs = None
            for _attempt in range(50):
                source, target = rng.sample(nodes, 2)
                if not graph.has_edge(source, target):
                    pairs = (source, target)
                    break
            if pairs:
                batch.append(EdgeInsertion(*pairs))
        else:
            edges = list(graph.edges())
            if edges:
                batch.append(EdgeDeletion(*rng.choice(edges)))
    # Deduplicate conflicting edge ops inside one batch (engine applies in
    # order, so only exact duplicates could clash).
    deduped = []
    seen = set()
    for update in batch:
        key = repr(update)
        if key not in seen:
            seen.add(key)
            deduped.append(update)
    return deduped


@pytest.mark.parametrize("seed", (0, 1))
def test_full_system_soak(seed):
    rng = random.Random(seed)
    engine = QueryEngine()
    graph = collaboration_graph(250, seed=seed)
    engine.register_graph("net", graph)

    query = standing_query()
    engine.pin("net", query)
    engine.compress_graph("net", attrs=("field",))

    next_id = [0]
    for round_number in range(12):
        batch = random_batch(graph, rng, size=6, next_id=next_id)
        valid = []
        probe = graph.copy()
        for update in batch:
            try:
                from repro.incremental.updates import decompose

                for primitive in decompose(probe, update):
                    primitive.apply(probe)
                valid.append(update)
            except Exception:
                continue  # skip updates invalidated by earlier ones
        engine.update_graph("net", valid)

        truth = match_bounded(graph, query).relation

        cached = engine.evaluate("net", query)
        assert cached.stats["route"] == "cache", round_number
        assert cached.relation == truth, round_number

        via_compressed = engine.evaluate("net", query, use_cache=False,
                                         cache_result=False)
        assert via_compressed.stats["route"] == "compressed", round_number
        assert via_compressed.relation == truth, round_number

        direct = engine.evaluate(
            "net", query, use_cache=False, use_compression=False, cache_result=False
        )
        assert direct.stats["route"] == "direct", round_number
        assert direct.relation == truth, round_number

    # End-of-soak consistency of internal structures.
    pinned = engine._cache.pinned_entries("net")
    assert len(pinned) == 1
    pinned[0][1].maintainer.state.check_invariants()
    from repro.compression.maintain import MaintainedCompression

    compression = engine._registered["net"].compression
    assert isinstance(compression, MaintainedCompression)
    compression.check_partition()
