"""Readers and writers share snapshots and memos without locks: a stress test.

A served epoch's :class:`FrozenGraph` is read by many handler threads while
the writer publishes the next epochs, each one patched from the snapshot
before it.  Nothing guards those reads: they are safe only because
``FrozenGraph.patched`` copies every buffer it appends to and never writes
the snapshot it starts from.  Likewise a cached relation's wire memo is
filled by whichever handler thread encodes it first, unlocked.

Both run here under a one-microsecond interpreter switch interval, so
threads interleave inside every buffer copy, row append and memo store.
A relation-first result's rows, built by whichever reader reads them
first, race the same way, and so do the packed attribute columns a
checkpoint memoises on a snapshot while the writer patches the next one
from it.  The memos of cached ranking state race too: the per-source ball
memo a snapshot keeps for the row kernel, and the reverse rows a cached
ranking context builds for whichever reader first needs them.
"""

from __future__ import annotations

import json
import pickle
import random
import sys
import threading

import pytest

from repro.graph.frozen import FrozenGraph
from repro.graph.generators import collaboration_graph
from repro.incremental.updates import (
    AttributeUpdate,
    EdgeDeletion,
    EdgeInsertion,
    NodeInsertion,
)
from repro.matching.bounded import frozen_successor_rows, match_bounded
from repro.pattern.parser import parse_pattern
from repro.ranking.topk import RankingContext, bulk_top_k_detail
from repro.server import SnapshotRegistry
from repro.server.wire import dumps, encode_relation
from tests.test_ball_memo import ordered
from tests.test_frozen_patch import apply_batch, assert_equals_full_freeze, observed

READERS = 4
PUBLISHES = 60
PATTERN = """
node SA* : field == "SA"
node SD : field == "SD"
edge SA -> SD : 2
"""


@pytest.fixture
def fast_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def run_threads(targets) -> list[BaseException]:
    """Start every target at once; the exceptions they raised."""
    errors: list[BaseException] = []
    barrier = threading.Barrier(len(targets))

    def guarded(target):
        try:
            barrier.wait()
            target()
        except BaseException as exc:  # noqa: BLE001 - reported to the test
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(target,)) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads), "a thread hung"
    return errors


def test_pinned_readers_see_their_rows_while_patched_epochs_publish(fast_switching):
    graph = collaboration_graph(150, seed=5)
    registry = SnapshotRegistry()
    registry.register("g", graph)
    rng = random.Random(5)
    nodes = list(graph.nodes())
    with registry.pin("g") as pinned:
        frozen = pinned.frozen
        before = observed(frozen)
        out_rows = {node: list(frozen.successors(node)) for node in nodes}
        in_rows = {node: list(frozen.predecessors(node)) for node in nodes}
        succ, rebuilt = frozen.successor_sets(), frozen.to_graph()
        published = threading.Event()

        def read() -> None:
            passes = 0
            while not published.is_set() or passes < 3:
                for node in nodes:
                    assert list(frozen.successors(node)) == out_rows[node]
                    assert list(frozen.predecessors(node)) == in_rows[node]
                assert frozen.successor_sets() == succ
                assert frozen.to_graph() == rebuilt
                passes += 1

        def publish() -> None:
            present = set(graph.edges())
            try:
                for step in range(PUBLISHES):
                    source, target = rng.sample(nodes, 2)
                    if (source, target) in present:
                        present.discard((source, target))
                        updates = [EdgeDeletion(source, target)]
                    else:
                        present.add((source, target))
                        updates = [EdgeInsertion(source, target)]
                    if step % 15 == 14:
                        updates.append(NodeInsertion.with_attrs(f"late{step}", field="SD"))
                    registry.publish("g", updates)
            finally:
                published.set()

        errors = run_threads([read] * READERS + [publish])
        assert errors == []
        assert pinned.frozen is frozen and observed(frozen) == before
    assert registry.counters["patches"] == PUBLISHES  # every epoch was a patch
    with registry.pin("g") as latest:
        assert latest.frozen is not frozen
        assert_equals_full_freeze(latest.frozen, latest.graph)


def race_to_encode(relation, threads: int = 8) -> list[str]:
    """Reply bodies of ``threads`` handlers encoding ``relation`` at once."""
    replies: list[str] = []

    def reply() -> None:
        replies.append(dumps({"relation": encode_relation(relation)}))

    assert run_threads([reply] * threads) == []
    return replies


def test_threads_racing_on_a_cached_relations_memo_send_equal_bytes(fast_switching):
    graph = collaboration_graph(300, seed=7)
    registry = SnapshotRegistry()
    registry.register("g", graph)
    pattern = parse_pattern(PATTERN, name="race")
    for round_ in range(8):
        with registry.pin("g") as epoch:
            relation = epoch.evaluate(pattern).relation
            assert epoch.evaluate(pattern).relation is relation  # one cached entry
            assert any(relation.pairs())  # something to encode
            expected = json.dumps({"relation": relation.to_dict()})
            replies = race_to_encode(relation)
            assert len(replies) == 8 and set(replies) == {expected}
            assert dumps({"relation": encode_relation(relation)}) == expected
        # the next round races on the next epoch's own cached relation
        registry.publish("g", [NodeInsertion.with_attrs(f"race{round_}", field="SD")])


def test_threads_racing_to_read_unread_rows_see_equal_rows(fast_switching):
    graph = collaboration_graph(300, seed=7)
    frozen = FrozenGraph.freeze(graph)
    pattern = parse_pattern(PATTERN, name="race")
    expected = match_bounded(graph, pattern, frozen=frozen).state.rows
    assert any(row for rows in expected.values() for row in rows.values())
    for _round in range(8):
        state = match_bounded(graph, pattern, frozen=frozen).state
        assert state._pending is not None  # unread: the rows are not built yet
        seen: list = []
        assert run_threads([lambda: seen.append(state.rows)] * 8) == []
        assert len(seen) == 8 and all(rows == expected for rows in seen)
        assert state._pending is None and state.rows == expected


def test_checkpoints_pack_columns_while_patches_carry_the_pairs(fast_switching):
    """A checkpoint thread packs the newest snapshots' columns while the
    writer patches each next snapshot from the last, carrying the pairs of
    the columns its batch did not write: every snapshot still saves the
    buffers of an unpacked copy."""
    graph = collaboration_graph(150, seed=9)
    chain = [FrozenGraph.freeze(graph)]
    rng = random.Random(9)
    nodes = list(graph.nodes())
    published = threading.Event()

    def checkpoint() -> None:
        while not published.is_set():
            for frozen in chain[-3:]:
                frozen.to_buffers()

    def publish() -> None:
        nonlocal graph
        try:
            for step in range(PUBLISHES):
                node, target = rng.sample(nodes, 2)
                toggle = EdgeDeletion if graph.has_edge(node, target) else EdgeInsertion
                graph, primitives = apply_batch(
                    graph, [AttributeUpdate(node, "experience", step), toggle(node, target)]
                )
                chain.append(chain[-1].patched(graph, primitives))
        finally:
            published.set()

    assert run_threads([checkpoint, checkpoint, publish]) == []
    assert len(chain) == PUBLISHES + 1
    for frozen in chain:
        assert frozen.to_buffers() == pickle.loads(pickle.dumps(frozen)).to_buffers()


def test_threads_filling_one_snapshots_ball_memo_build_equal_rows(fast_switching):
    """Eight threads build rows over one cold snapshot at once, at mixed
    depths, so they race to admit, slice and replace the same balls."""
    graph = collaboration_graph(300, seed=11)
    frozen = FrozenGraph.freeze(graph)
    everyone = frozenset(range(frozen.num_nodes))
    candidates = {"A": everyone, "B": everyone}

    def rows_at(snapshot, bound):
        return frozen_successor_rows(snapshot, {"A": (("B", bound),)}, candidates)

    expected = {
        bound: ordered(rows_at(FrozenGraph.freeze(graph), bound)) for bound in (1, 2, 3)
    }
    seen: list = []
    bounds = [1, 2, 3, 2, 3, 1, 3, 2]
    assert run_threads([
        lambda bound=bound: seen.append((bound, ordered(rows_at(frozen, bound))))
        for bound in bounds
    ]) == []
    assert len(seen) == len(bounds)
    assert all(rows == expected[bound] for bound, rows in seen)
    memo = frozen._balls
    assert memo.held == sum(size for _, _, size in memo.entries.values())
    assert memo.held <= memo.budget
    for bound in (1, 2, 3):  # and the memo the race left answers as a cold one
        assert ordered(rows_at(frozen, bound)) == expected[bound]


def test_threads_reading_one_cached_rows_context_rank_alike(fast_switching):
    """Eight threads rank one rows context with mixed ``k`` and ask for the
    in-distances of matches that have reverse rows, racing to build them."""
    pattern = parse_pattern(
        PATTERN + 'node ST : field == "ST"\nedge SD -> ST : 2\n', name="chain"
    )
    graph = collaboration_graph(300, seed=7)
    frozen = FrozenGraph.freeze(graph)
    result = match_bounded(graph, pattern, frozen=frozen)

    def answers(context, k):
        ranked = bulk_top_k_detail(context, k)
        entered = [
            node for node, matched in context.matched_by.items() if matched - {"SA"}
        ]
        return [
            (match.node, match.rank, list(match.ancestors.items())) for match in ranked
        ] + [list(context.distances_to(node).items()) for node in entered]

    expected = {
        k: answers(RankingContext.from_rows(result, frozen), k) for k in (1, 3, 5, None)
    }
    reference = RankingContext.from_rows(result, frozen)
    assert any(  # some entered match has ancestors
        reference.distances_to(node)
        for node, matched in reference.matched_by.items()
        if matched - {"SA"}
    )
    for _round in range(4):
        context = RankingContext.from_rows(result, frozen)
        assert context._in_adj is None
        seen: list = []
        ks = [1, 3, 5, None, 5, 3, 1, None]
        assert run_threads([
            lambda k=k: seen.append((k, answers(context, k))) for k in ks
        ]) == []
        assert len(seen) == len(ks)
        assert all(answer == expected[k] for k, answer in seen)
