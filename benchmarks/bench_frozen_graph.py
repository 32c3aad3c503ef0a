"""E14 — frozen CSR snapshots vs. the dict-of-dicts hot path.

Three claims, all on a seeded 50k-node collaboration graph
(``collaboration_graph(50_000, seed=0)``), so failures replay exactly:

* **BFS kernel** — bounded successor-row construction (one truncated
  reachability search per source candidate, filtered against child
  candidates: the workload that dominates bounded-simulation evaluation)
  runs >= 2x faster through :func:`frozen_successor_rows` than through
  per-candidate ``bounded_descendants`` over the dict graph.  Asserted on
  any host: the win is algorithmic (shared bitset-parallel traversal + set
  algebra), not core-count-dependent.
* **evaluation kernel** — end-to-end ``match_bounded`` with a frozen
  snapshot beats the dict-backed matcher >= 2x on the same deep-bound
  workload, with a byte-identical relation.  Asserted on any host.
* **identity everywhere** — relations and successor rows from the frozen
  kernels equal the dict-backed results exactly.

Snapshot build cost is reported for the record; it is one-off, so it
carries no wall-clock assertion.

The deep ``*``-bound workload is deliberate: the paper's unbounded pattern
edges are exactly where per-candidate BFS repeats the most work, and where
the bitset kernel's shared traversal pays off hardest (typically 5-15x
here; shallow-bound patterns route through the per-source strategy and win
by smaller constant factors).
"""

import time

import pytest

from benchmarks.conftest import cached_collab, summary_recorder
from repro.graph.distance import bounded_descendants
from repro.graph.frozen import FrozenGraph
from repro.graph.index import AttributeIndex
from repro.matching.bounded import frozen_successor_rows, match_bounded
from repro.matching.simulation import simulation_candidates
from repro.pattern.builder import PatternBuilder

SIZE = 50_000

summary = summary_recorder("E14")


@pytest.fixture(scope="module")
def graph():
    return cached_collab(SIZE)


@pytest.fixture(scope="module")
def frozen(graph):
    return FrozenGraph.freeze(graph)


def reach_pattern():
    """Senior SAs that can reach (``*``) a seasoned tester.

    Selective endpoints (a few hundred sources, ~2k targets) keep the
    output small, so the timing isolates traversal — the quantity the
    snapshot exists to accelerate — rather than row materialization.
    """
    return (
        PatternBuilder("deep-reach")
        .node("SA", "experience >= 15", field="SA", output=True)
        .node("ST", "experience >= 9", field="ST")
        .edge("SA", "ST", None)
        .build(require_output=True)
    )


def test_snapshot_build_cost(graph):
    """One-off freeze cost, for the record (no wall-clock assertion)."""
    start = time.perf_counter()
    snapshot = FrozenGraph.freeze(graph)
    seconds = time.perf_counter() - start
    assert snapshot.num_nodes == graph.num_nodes
    assert snapshot.num_edges == graph.num_edges
    print(
        f"\n[E14/build] freezing {SIZE} nodes / {graph.num_edges} edges: "
        f"{seconds:.3f}s"
    )


def test_bfs_kernel_speedup(graph, frozen, summary):
    """Successor-row construction: frozen kernels >= 2x the dict path."""
    pattern = reach_pattern()
    candidates = simulation_candidates(graph, pattern)
    assert candidates["SA"] and candidates["ST"], "workload must be non-trivial"

    start = time.perf_counter()
    dict_rows = {}
    for source in sorted(candidates["SA"], key=frozen.id_of):
        reach = bounded_descendants(graph, source, None)
        dict_rows[source] = {
            node: dist for node, dist in reach.items() if node in candidates["ST"]
        }
    t_dict = time.perf_counter() - start

    ids = frozen.ids()
    candidate_ids = {
        u: frozenset(ids[v] for v in vs) for u, vs in candidates.items()
    }
    spec = {"SA": tuple(pattern.out_edges("SA"))}
    start = time.perf_counter()
    frozen_rows = frozen_successor_rows(frozen, spec, candidate_ids)
    t_frozen = time.perf_counter() - start

    labels = frozen.labels
    converted = {
        labels[source_id]: {labels[n]: d for n, d in entries.items()}
        for source_id, entries in frozen_rows[("SA", "ST")].items()
    }
    assert converted == dict_rows  # identity, always

    speedup = t_dict / t_frozen
    entries = sum(len(row) for row in dict_rows.values())
    print(
        f"\n[E14/bfs-kernel] {len(dict_rows)} sources, {entries} row entries "
        f"on {SIZE} nodes: dict {t_dict:.2f}s, frozen {t_frozen:.2f}s "
        f"-> {speedup:.1f}x"
    )
    summary.record(
        "bfs_kernel",
        seconds_dict=t_dict,
        seconds_frozen=t_frozen,
        speedup=speedup,
        sources=len(dict_rows),
    )
    assert speedup >= 2.0, (
        f"frozen successor-row kernel must be >= 2x the dict path, "
        f"got {speedup:.2f}x"
    )


def test_evaluation_kernel_speedup(graph, frozen, summary):
    """End-to-end bounded matching: frozen snapshot >= 2x, same relation."""
    pattern = reach_pattern()
    index = AttributeIndex(graph)
    index.lookup("field", "SA")  # build postings outside the timers

    start = time.perf_counter()
    plain = match_bounded(graph, pattern, index=index)
    t_dict = time.perf_counter() - start

    start = time.perf_counter()
    accelerated = match_bounded(graph, pattern, index=index, frozen=frozen)
    t_frozen = time.perf_counter() - start

    assert accelerated.relation == plain.relation  # identity, always
    assert accelerated.relation.to_dict() == plain.relation.to_dict()

    speedup = t_dict / t_frozen
    print(
        f"\n[E14/evaluation] deep-reach query on {SIZE} nodes "
        f"({plain.relation.num_pairs} pairs): dict {t_dict:.2f}s, "
        f"frozen {t_frozen:.2f}s -> {speedup:.1f}x"
    )
    summary.record(
        "evaluation",
        seconds_dict=t_dict,
        seconds_frozen=t_frozen,
        speedup=speedup,
        pairs=plain.relation.num_pairs,
    )
    assert speedup >= 2.0, (
        f"frozen evaluation must be >= 2x the dict-backed matcher, "
        f"got {speedup:.2f}x"
    )
