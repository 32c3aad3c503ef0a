"""E17 — memory-mapped snapshot persistence vs. rebuild-from-dict.

The binary snapshot catalogue exists so a process that needs a
:class:`FrozenGraph` (or a :class:`DistanceOracle`) pays an ``mmap`` and a
header check instead of seconds of freeze / label construction.  Three
claims, all seeded so failures replay exactly:

* **frozen reload** — on a 1M-edge random digraph
  (``random_digraph(200_000, 1_000_000, seed=0)``), mapping a stored
  snapshot back (``GraphStore.load_snapshot``, checksum verified, version
  validated) is **>= 10x faster** than ``FrozenGraph.freeze`` from the
  dict graph.  Asserted on any host: the load is O(metadata) — the CSR
  buffers and attribute columns are zero-copy views over the mapping —
  while the freeze walks every node and edge.
* **oracle reload** — reloading stored distance-oracle labels
  (``GraphStore.load_oracle``) is **>= 10x faster** than
  ``DistanceOracle.build`` from the snapshot (a multi-source BFS per
  landmark).  Same reasoning, bigger margin.
* **identity everywhere** — the reloaded snapshot's buffers are
  byte-identical to the originals, node attributes survive, a bounded
  query over the store-loaded snapshot returns exactly the dict-backed
  relation, and reloaded oracle distances equal freshly built ones on a
  seeded sample.  (The exhaustive 127-seed store-served differential
  sweep lives in tests/test_differential.py.)

Save cost and file size are reported for the record (one-off, amortized
across every later load), with no wall-clock assertion.
"""

import random
import time

from benchmarks.conftest import cached_collab, summary_recorder
from repro.engine.storage import GraphStore
from repro.graph.frozen import FrozenGraph
from repro.graph.generators import random_digraph
from repro.graph.oracle import DistanceOracle
from repro.matching.bounded import match_bounded
from repro.pattern.builder import PatternBuilder

import pytest

NODES = 200_000
EDGES = 1_000_000
ORACLE_NODES = 50_000
SPEEDUP_FLOOR = 10.0

summary = summary_recorder(
    "E17",
    nodes=NODES,
    edges=EDGES,
    oracle_nodes=ORACLE_NODES,
    speedup_floor=SPEEDUP_FLOOR,
)


@pytest.fixture(scope="module")
def graph():
    return random_digraph(NODES, EDGES, seed=0)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return GraphStore(tmp_path_factory.mktemp("e17-store"))


def _best_of(repeats, action):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = action()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_frozen_reload_beats_refreeze(graph, store, summary):
    """mmap reload >= 10x faster than freeze-from-dict, byte-identical."""
    t_freeze, frozen = _best_of(2, lambda: FrozenGraph.freeze(graph))
    start = time.perf_counter()
    path = store.save_snapshot("e17", frozen)
    t_save = time.perf_counter() - start
    t_load, loaded = _best_of(
        3, lambda: store.load_snapshot("e17", expected_version=graph.version)
    )
    speedup = t_freeze / t_load
    print(
        f"\n[E17/frozen] {NODES} nodes / {EDGES} edges: "
        f"freeze {t_freeze:.3f}s, save {t_save:.3f}s "
        f"({path.stat().st_size / 1e6:.1f} MB), mmap reload {t_load * 1e3:.1f}ms "
        f"-> {speedup:.0f}x"
    )
    summary.record(
        "frozen_reload",
        freeze_seconds=t_freeze,
        save_seconds=t_save,
        load_seconds=t_load,
        file_bytes=path.stat().st_size,
        speedup=speedup,
    )

    # Identity: every CSR buffer byte-equal, labels and attributes intact.
    for field in ("out_starts", "out_ends", "out_targets", "in_starts", "in_ends", "in_targets"):
        assert getattr(loaded, field).tobytes() == getattr(frozen, field).tobytes(), field
    assert loaded.labels == frozen.labels
    rng = random.Random(17)
    for node in (rng.randrange(NODES) for _ in range(100)):
        assert loaded.node_attrs(node) == graph.attrs(node)

    assert speedup >= SPEEDUP_FLOOR, (
        f"mmap reload only {speedup:.1f}x faster than freeze "
        f"(floor {SPEEDUP_FLOOR}x): load {t_load:.4f}s vs freeze {t_freeze:.3f}s"
    )


def test_query_over_loaded_snapshot_is_identical(graph, store, summary):
    """A bounded query over the store-loaded snapshot matches exactly."""
    pattern = (
        PatternBuilder("e17-probe")
        .node("A", "x >= 8", label="L0", output=True)
        .node("B", "x >= 8", label="L1")
        .edge("A", "B", 2)
        .build(require_output=True)
    )
    if not store.has_snapshot("e17"):  # standalone run of this test
        store.save_snapshot("e17", FrozenGraph.freeze(graph))
    loaded = store.load_snapshot("e17", expected_version=graph.version)
    start = time.perf_counter()
    expected = match_bounded(graph, pattern)
    t_dict = time.perf_counter() - start
    start = time.perf_counter()
    got = match_bounded(graph, pattern, frozen=loaded)
    t_loaded = time.perf_counter() - start
    print(
        f"[E17/query] bounded probe: dict-backed {t_dict:.3f}s, "
        f"store-loaded snapshot {t_loaded:.3f}s, "
        f"|M| = {sum(len(v) for v in expected.relation.to_dict()['sets'].values())}"
    )
    summary.record(
        "query_identity", dict_seconds=t_dict, loaded_seconds=t_loaded
    )
    assert got.relation == expected.relation
    assert got.relation.to_dict() == expected.relation.to_dict()


def test_oracle_reload_beats_rebuild(store, summary):
    """Reloading stored labels >= 10x faster than rebuilding them."""
    graph = cached_collab(ORACLE_NODES)
    frozen = FrozenGraph.freeze(graph)
    t_build, oracle = _best_of(
        1, lambda: DistanceOracle.build(frozen, cap=2)
    )
    start = time.perf_counter()
    path = store.save_oracle("e17", oracle)
    t_save = time.perf_counter() - start
    t_load, loaded = _best_of(
        3, lambda: store.load_oracle("e17", expected_version=graph.version)
    )
    speedup = t_build / t_load
    print(
        f"[E17/oracle] cap-2 labels for {ORACLE_NODES} nodes: "
        f"build {t_build:.3f}s, save {t_save:.3f}s "
        f"({path.stat().st_size / 1e6:.1f} MB), mmap reload {t_load * 1e3:.1f}ms "
        f"-> {speedup:.0f}x"
    )
    summary.record(
        "oracle_reload",
        build_seconds=t_build,
        save_seconds=t_save,
        load_seconds=t_load,
        file_bytes=path.stat().st_size,
        speedup=speedup,
    )

    assert loaded.compatible_with(frozen)
    rng = random.Random(29)
    for _ in range(200):
        source = rng.randrange(ORACLE_NODES)
        target = rng.randrange(ORACLE_NODES)
        if source != target:
            assert loaded.distance(source, target) == oracle.distance(
                source, target
            )

    assert speedup >= SPEEDUP_FLOOR, (
        f"oracle reload only {speedup:.1f}x faster than rebuild "
        f"(floor {SPEEDUP_FLOOR}x): load {t_load:.4f}s vs build {t_build:.3f}s"
    )
