"""The crash-at-every-fault-point recovery sweep.

The durability claim of :mod:`repro.server.wal` is not "the happy path
persists" but "**no** kill point yields a torn state".  This module makes
that claim executable: it runs one deterministic publish scenario, kills
the process (via :class:`~repro.testing.faults.InjectedCrash`) at every
registered fault point × every hit of that point the scenario reaches,
recovers from disk into a fresh registry, and asserts the recovered
graph is *batch-atomic*:

* it equals one of the twin-replay prefix states ``S_0 .. S_n`` (the
  states a never-crashed process moves through, batch by batch) — never
  a torn intra-batch prefix;
* its prefix index covers every batch the crashed process acknowledged
  (write-ahead: an acked batch survives any later crash);
* a subsequent mixed read/write run over the recovered registry serves
  every read from the epoch of the latest publish — zero stale reads.

The sweep is deterministic end to end: the scenario derives everything
from ``seed``, and *crash at hit k of point p* names one reproducible
execution (see :mod:`repro.testing.faults`).

Scenario shape: tiny WAL segments force rotation/seal on nearly every
append, ``fsync="always"`` makes the fsync point fire per batch, and an
*inline* checkpointer (no background thread) hits the checkpoint points
on the publish path itself — so all eleven registered points fire.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.engine.storage import GraphStore
from repro.errors import ReproError
from repro.graph.digraph import Graph
from repro.graph.io import graph_to_dict
from repro.incremental.updates import decompose
from repro.server.registry import SnapshotRegistry
from repro.server.wal import Checkpointer, WriteAheadLog
from repro.server.wire import decode_updates
from repro.testing.faults import (
    FAULT_POINTS,
    FaultSpec,
    InjectedCrash,
    arm_faults,
    disarm_faults,
    fault_stats,
)

GRAPH_NAME = "sweep"


def base_graph(nodes: int = 6) -> Graph:
    """The deterministic seed graph every sweep run starts from."""
    graph = Graph(GRAPH_NAME)
    for index in range(nodes):
        graph.add_node(f"n{index}", kind="seed", index=index)
    for index in range(nodes - 1):
        graph.add_edge(f"n{index}", f"n{index + 1}")
    return graph


def scenario_batches(count: int = 6, nodes: int = 6) -> list[list[dict[str, Any]]]:
    """``count`` wire-format update batches, one deliberately invalid.

    Batch ``count // 2`` re-inserts an existing edge and fails validation
    mid-batch at publish time; replay must skip it identically (the
    deterministic-refailure contract) — the sweep exercises the failed-
    batch path at every kill point, not just the happy one.
    """
    batches: list[list[dict[str, Any]]] = []
    for index in range(count):
        if index == count // 2:
            batches.append(
                [
                    {"op": "add-node", "node": f"torn{index}", "attrs": {}},
                    {"op": "add-edge", "source": "n0", "target": "n1"},  # dup
                ]
            )
            continue
        node = f"m{index}"
        batches.append(
            [
                {"op": "add-node", "node": node, "attrs": {"kind": "update"}},
                {"op": "add-edge", "source": f"n{index % nodes}", "target": node},
                {"op": "set-attr", "node": node, "attr": "round", "value": index},
            ]
        )
    return batches


def twin_states(nodes: int, batches: list[list[dict[str, Any]]]) -> list[Graph]:
    """``S_0 .. S_n``: the never-crashed replay, one state per batch.

    An invalid batch contributes its predecessor state unchanged (it is
    all-or-nothing rejected), mirroring both live publish and recovery.
    """
    states = [base_graph(nodes)]
    for batch in batches:
        scratch = states[-1].copy(name=GRAPH_NAME)
        try:
            for update in decode_updates({"updates": batch}):
                for primitive in decompose(scratch, update):
                    primitive.apply(scratch)
        except ReproError:
            states.append(states[-1])
        else:
            states.append(scratch)
    return states


def build_stack(
    root: Path, nodes: int = 6
) -> tuple[SnapshotRegistry, WriteAheadLog, Checkpointer]:
    """A WAL-backed registry over ``root`` with sweep-friendly knobs."""
    store = GraphStore(root / "store")
    wal = WriteAheadLog(
        root / "wal",
        fsync="always",  # the fsync point must fire every batch
        segment_bytes=512,  # rotate + seal on nearly every append
    )
    registry = SnapshotRegistry(store=store, wal=wal)
    checkpointer = Checkpointer(
        registry, wal, store, every_batches=2, background=False
    )
    registry.attach_checkpointer(checkpointer)
    return registry, wal, checkpointer


def run_scenario(
    root: Path,
    batches: list[list[dict[str, Any]]],
    nodes: int = 6,
    arm: dict[str, FaultSpec] | None = None,
) -> tuple[int, bool]:
    """Register + publish every batch; returns ``(processed, crashed)``.

    A batch counts as processed when ``publish`` returned normally or
    failed validation (:class:`ReproError`) — both outcomes are final
    acknowledgements.  An :class:`InjectedCrash` stops the scenario on
    the spot (the simulated process death) and reports ``crashed=True``
    with the progress made *before* the interrupted batch.  Faults arm
    only after registration (registration is acknowledged setup; the
    sweep targets the publish/checkpoint phase).
    """
    registry, wal, _checkpointer = build_stack(root, nodes=nodes)
    disarm_faults()
    registry.register(GRAPH_NAME, base_graph(nodes))
    if arm is not None:
        arm_faults(arm)
    processed = 0
    crashed = False
    try:
        for batch in batches:
            try:
                registry.publish(GRAPH_NAME, decode_updates({"updates": batch}))
            except ReproError:
                pass
            except InjectedCrash:
                crashed = True
                break
            processed += 1
    finally:
        # A real dead process holds no locks and flushes nothing extra;
        # the WAL file handle simply drops.  Closing the log here would
        # run the seal path the crash was supposed to prevent, so only a
        # run that completed un-crashed closes cleanly.  The caller owns
        # disarming (it reads the hit counters first).
        if not crashed and arm is None:
            wal.close()
    return processed, crashed


def recover_stack(root: Path, nodes: int = 6) -> tuple[SnapshotRegistry, WriteAheadLog]:
    """What a restarted process does: open the WAL, replay, serve."""
    store = GraphStore(root / "store")
    wal = WriteAheadLog(root / "wal", fsync="always", segment_bytes=512)
    registry = SnapshotRegistry(store=store, wal=wal)
    registry.recover()
    return registry, wal


def mixed_run(registry: SnapshotRegistry, rounds: int = 3) -> None:
    """E18-style read/write interleaving; every read must be fresh.

    Each round publishes a sentinel batch and immediately pins: the
    pinned epoch must serve the sentinel (no stale epoch) and versions
    must be strictly monotonic across rounds.
    """
    last_version = -1
    for round_index in range(rounds):
        sentinel = f"sentinel{round_index}"
        registry.publish(
            GRAPH_NAME,
            decode_updates(
                {
                    "updates": [
                        {"op": "add-node", "node": sentinel, "attrs": {}},
                        {"op": "add-edge", "source": "n0", "target": sentinel},
                    ]
                }
            ),
        )
        with registry.pin(GRAPH_NAME) as epoch:
            if not epoch.graph.has_node(sentinel):
                raise AssertionError(
                    f"stale read: round {round_index} pin does not see "
                    f"{sentinel!r} (epoch {epoch.epoch_id})"
                )
            if epoch.graph.version <= last_version:
                raise AssertionError(
                    f"stale read: version regressed {last_version} -> "
                    f"{epoch.graph.version}"
                )
            last_version = epoch.graph.version


@dataclass
class SweepReport:
    """What :func:`run_crash_sweep` proved, per kill point and overall."""

    runs: int = 0
    crashes: int = 0
    #: point name -> how many distinct kill sites (hits) were exercised.
    kill_sites: dict[str, int] = field(default_factory=dict)
    #: (point, hit) -> index of the twin prefix state recovery produced.
    recovered_prefix: dict[tuple[str, int], int] = field(default_factory=dict)

    def fired_points(self) -> set[str]:
        return {point for point, hits in self.kill_sites.items() if hits > 0}


def run_crash_sweep(
    batch_count: int = 6, nodes: int = 6, max_hits_per_point: int | None = None
) -> SweepReport:
    """Crash at every (point, hit) the scenario reaches; verify recovery.

    ``max_hits_per_point`` caps the kill sites per fault point (the CI
    smoke uses a small cap; ``None`` sweeps every hit).  Raises
    ``AssertionError`` on the first torn or lossy recovery.
    """
    batches = scenario_batches(batch_count, nodes=nodes)
    states = twin_states(nodes, batches)
    report = SweepReport()

    # Dry run: how many times does each point fire in a full scenario?
    dry_root = Path(tempfile.mkdtemp(prefix="sweep-dry-"))
    try:
        arm_faults({})  # reset counters; nothing armed
        run_scenario(dry_root, batches, nodes=nodes, arm={})
        hit_counts = dict(fault_stats()["hits"])
    finally:
        disarm_faults()
        shutil.rmtree(dry_root, ignore_errors=True)
    missing = FAULT_POINTS - set(hit_counts)
    if missing:
        raise AssertionError(
            f"sweep scenario never reaches fault points: {sorted(missing)}"
        )

    for point in sorted(FAULT_POINTS):
        hits = hit_counts[point]
        if max_hits_per_point is not None:
            hits = min(hits, max_hits_per_point)
        report.kill_sites[point] = hits
        for hit in range(1, hits + 1):
            root = Path(tempfile.mkdtemp(prefix=f"sweep-{point.replace('.', '-')}-"))
            try:
                processed, crashed = run_scenario(
                    root,
                    batches,
                    nodes=nodes,
                    arm={point: FaultSpec(action="crash", after=hit)},
                )
                report.runs += 1
                report.crashes += int(crashed)

                registry, wal = recover_stack(root, nodes=nodes)
                recovered = registry.current_epoch(GRAPH_NAME).graph
                prefix = _match_prefix(recovered, states, point, hit)
                if prefix < processed:
                    raise AssertionError(
                        f"lost acknowledged batches at {point!r} hit {hit}: "
                        f"{processed} acked, recovery reached prefix {prefix}"
                    )
                report.recovered_prefix[(point, hit)] = prefix
                mixed_run(registry)
                wal.close()
            finally:
                disarm_faults()
                shutil.rmtree(root, ignore_errors=True)
    return report


def canonical_form(graph: Graph) -> str:
    """The canonical serialized form of a graph's content, version included.

    ``Graph.version`` travels with the content through ``copy()`` and the
    JSON round trip, so the twin replay (live mutations on copies) and a
    recovery (checkpoint file + replayed suffix) must arrive at the same
    count — ``graph_to_dict`` carries it as ``"graph_version"``.  Byte
    identity of this form is the invariant recovery must preserve.
    """
    payload = graph_to_dict(graph)
    payload["nodes"].sort(key=lambda entry: str(entry["id"]))
    payload["edges"].sort(key=lambda pair: (str(pair[0]), str(pair[1])))
    return json.dumps(payload, sort_keys=True)


def _match_prefix(
    recovered: Graph, states: list[Graph], point: str, hit: int
) -> int:
    """The twin prefix index ``recovered`` equals, else AssertionError.

    Scans highest-first: a rejected batch leaves two adjacent twin
    states content-identical, and the durability assertion (`prefix >=
    acked`) must credit the furthest state the content covers.
    """
    form = canonical_form(recovered)
    for index in range(len(states) - 1, -1, -1):
        if form == canonical_form(states[index]):
            return index
    raise AssertionError(
        f"torn state after crash at {point!r} hit {hit}: recovered graph "
        f"({recovered.num_nodes} nodes / {recovered.num_edges} edges, "
        f"v{recovered.version}) matches no batch-atomic prefix state"
    )
