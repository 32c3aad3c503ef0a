"""Relation-first evaluation against the dict-graph state, at full scale.

Builds the ``serve_cold`` workload of the perf harness
(``benchmarks.perf.workloads``, imported read-only) for one seed, then
evaluates every one of its evaluate and top-K patterns twice:

* **relation-first** — :func:`repro.matching.bounded.match_bounded` with
  the snapshot and distance oracle the server would use: the backward
  pass, re-run on a cycle's stale edges until its sets settle; rows
  between the sets are built when the result graph first reads them
  (at once, with one removal cascade, only when a cycle's re-pass cap
  trips; the timing below covers the evaluation alone, as an
  ``evaluate`` reply pays it);
* **dict state** — :func:`~repro.matching.bounded.match_bounded` without a
  snapshot: the candidate-indexed
  :class:`~repro.matching.bounded.BoundedState`, an independent algorithm.

Each pattern must give the same relation (serialized form), the same
result graph (nodes, edges, distances), the same kernel log — logged at
evaluation whether or not the rows are built; the reference log is what
:func:`~repro.matching.bounded.frozen_successor_rows` routes over every
candidate — and, for a top-K pattern, the same ranking (``repr`` of the
ranked matches).  Each top-K pattern is also ranked the way the server
ranks it, by ``RankingContext.from_rows`` over the relation-first
result's int rows, and that ranking must equal both the reference heap's,
:func:`~repro.ranking.social_impact.rank_matches` sliced to ``k``, and the
label constructor's, ``RankingContext(result_graph)``: node, rank, both
evidence dicts in insertion order, floats bit for bit, and attributes.
Every pattern is also rewritten with every bound set to 1, and each
distinct rewrite is evaluated by
:func:`~repro.matching.simulation.match_simulation` with the same snapshot
and oracle and compared with
:func:`~repro.matching.reference.naive_simulation`.
Any mismatch is printed, with a count per comparison, and the exit status
is 1; the median time of each construction is printed for information::

    PYTHONPATH=src:. timeout 300 python tests/relation_first_parity.py --seed 0
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    from benchmarks.perf.workloads import build
    from repro.graph.frozen import FrozenGraph
    from repro.graph.oracle import DistanceOracle
    from repro.matching.bounded import frozen_successor_rows, match_bounded
    from repro.matching.reference import naive_simulation
    from repro.matching.simulation import (
        every_bound_one,
        match_simulation,
        simulation_candidates,
    )
    from repro.pattern.parser import parse_pattern
    from repro.ranking.social_impact import rank_matches
    from repro.ranking.topk import RankingContext, bulk_top_k_detail

    workload = build("serve_cold", args.seed, scale=args.scale)
    graph = workload.graph
    frozen = FrozenGraph.freeze(graph)
    frozen.successor_sets()
    frozen.predecessor_sets()
    oracle = DistanceOracle.build(frozen, cap=workload.options["oracle"]["cap"])
    ids = frozen.ids()

    def candidate_kernels(pattern, candidates):
        log: dict = {}
        candidate_ids = {
            u: frozenset(ids[v] for v in vs) for u, vs in candidates.items()
        }
        spec = {u: tuple(pattern.out_edges(u)) for u in pattern.nodes()}
        frozen_successor_rows(
            frozen, spec, candidate_ids, oracle=oracle, kernel_log=log
        )
        return {f"{a}->{b}": route.kernel for (a, b), route in log.items()}

    def result_graph_of(result):
        built = result.result_graph()
        return (
            {node: sorted(built.matched_pattern_nodes(node)) for node in built.nodes()},
            set(built.edges()),
        )

    def evidence(ranked):
        return repr([
            (m.node, m.rank, list(m.ancestors.items()), list(m.descendants.items()), m.attrs)
            for m in ranked
        ])

    ops = [op for stream in workload.streams for op in stream]
    mismatches: list[str] = []
    heap_mismatches = label_mismatches = 0
    timings: dict[str, list[float]] = {"relation-first": [], "dict-state": []}
    counts = {"evaluate": 0, "topk": 0}
    units: dict = {}
    for op in ops:
        pattern = parse_pattern(op["pattern"])
        unit = every_bound_one(pattern)
        units.setdefault(unit.canonical_key(), (unit, f"{op['op']} {op['stratum']}"))
        candidates = simulation_candidates(graph, pattern)
        started = time.perf_counter()
        fresh = match_bounded(
            graph, pattern, candidates=candidates, frozen=frozen, oracle=oracle
        )
        timings["relation-first"].append(time.perf_counter() - started)
        started = time.perf_counter()
        reference = match_bounded(graph, pattern, candidates=candidates)
        timings["dict-state"].append(time.perf_counter() - started)
        kernels = candidate_kernels(pattern, candidates)
        counts[op["op"]] += 1
        where = f"{op['op']} {op['stratum']}"
        if fresh.relation.to_dict() != reference.relation.to_dict():
            mismatches.append(f"{where}: relation")
        if fresh.stats.get("kernels", {}) != kernels:
            mismatches.append(f"{where}: kernel log {fresh.stats.get('kernels')} != {kernels}")
        if result_graph_of(fresh) != result_graph_of(reference):
            mismatches.append(f"{where}: result graph")
        if op["op"] == "topk":
            result_graph = fresh.result_graph()
            served = bulk_top_k_detail(RankingContext.from_rows(fresh, frozen), op["k"])
            labelled = bulk_top_k_detail(RankingContext(result_graph), op["k"])
            older = bulk_top_k_detail(RankingContext(reference.result_graph()), op["k"])
            if repr(labelled) != repr(older):
                mismatches.append(f"{where}: ranking")
            if evidence(served) != evidence(rank_matches(result_graph)[: op["k"]]):
                heap_mismatches += 1
                mismatches.append(f"{where}: ranking from rows vs reference heap")
            if evidence(served) != evidence(labelled):
                label_mismatches += 1
                mismatches.append(f"{where}: ranking from rows vs label constructor")

    started = time.perf_counter()
    simulation_mismatches = 0
    for unit, where in units.values():
        candidates = simulation_candidates(graph, unit)
        simulated = match_simulation(
            graph, unit, candidates=candidates, frozen=frozen, oracle=oracle
        )
        if simulated.relation != naive_simulation(graph, unit):
            simulation_mismatches += 1
            mismatches.append(f"{where}, every bound 1: relation vs naive_simulation")
    simulation_seconds = time.perf_counter() - started

    for name, seconds in timings.items():
        print(f"{name}: median {statistics.median(seconds) * 1e3:.1f} ms over {len(seconds)}")
    print(f"checked {counts['evaluate']} evaluate + {counts['topk']} top-K patterns "
          f"(serve_cold seed {args.seed}, {args.scale}): {len(mismatches)} mismatches")
    print(f"served top-K ranking (from rows) vs reference heap: {heap_mismatches} "
          f"mismatches over {counts['topk']} patterns")
    print(f"served top-K ranking (from rows) vs label constructor: {label_mismatches} "
          f"mismatches over {counts['topk']} patterns")
    print(f"every bound 1, match_simulation vs naive_simulation: {simulation_mismatches} "
          f"mismatches over {len(units)} distinct patterns ({simulation_seconds:.1f} s)")
    for line in mismatches:
        print("  " + line)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
