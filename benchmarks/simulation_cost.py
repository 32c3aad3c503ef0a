"""In-process cost of plain graph simulation (every bound 1) over a snapshot.

Rewrites the five topologies of the query library
(:mod:`repro.datasets.queries`: star, chain, diamond, cycle and reach)
with every bound set to 1, at six output-node experience thresholds each,
and evaluates them on ``twitter_like_graph(4000)`` and
``collaboration_graph(4000)`` (seed 7): 60 patterns.  Per pattern it times
``match_simulation(graph, pattern, candidates=..., frozen=...)`` with
candidates computed beforehand and the snapshot's adjacency sets built
(the median of five runs), and checks the relation against
:func:`~repro.matching.reference.naive_simulation`.  Prints one JSON
object: per graph and topology, the median of those per-pattern times in
milliseconds, and the number of relation mismatches (which must be 0; the
exit status is 1 otherwise).

It then prints the paper's E5 maintenance table ("incremental beats batch
up to 30% changed for simulation"): on ``collaboration_graph(1500)`` and
``twitter_like_graph(1500)``, for ``every_bound_one(team_pattern())``
and a ``random_updates`` batch of 1, 5, 10, 30 and 50% of |E|, the median
over five runs of ``apply_updates`` driving an
:class:`~repro.incremental.inc_simulation.IncrementalSimulation` against
the median of a fresh ``FrozenGraph.freeze`` plus ``match_simulation`` on
the updated graph, in milliseconds.  Both relations are checked against
``naive_simulation``; their mismatches count with the ones above.

``twitter_like_graph`` depends on the hash seed, so run it from the
repository root as::

    PYTHONHASHSEED=0 PYTHONPATH=src:. python benchmarks/simulation_cost.py
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from repro.datasets.queries import QUERY_LIBRARY
from repro.graph.frozen import FrozenGraph
from repro.graph.generators import collaboration_graph, twitter_like_graph
from repro.incremental.inc_simulation import IncrementalSimulation
from repro.incremental.updates import apply_updates, random_updates
from repro.matching.reference import naive_simulation
from repro.matching.simulation import (
    every_bound_one,
    match_simulation,
    simulation_candidates,
)
from repro.pattern.builder import PatternBuilder
from repro.pattern.pattern import Pattern

TOPOLOGIES = {
    "star": "q1-team-star",
    "chain": "q2-delivery-chain",
    "diamond": "q3-review-diamond",
    "cycle": "q4-feedback-cycle",
    "reach": "q5-reachability",
}
EXPERIENCE = (1, 3, 5, 7, 9, 11)
REPEATS = 5
PERCENTS = (1, 5, 10, 30, 50)


def team_pattern(bound: int = 2, senior: int = 5) -> Pattern:
    """The recurring hiring query: SA leading SD/BA/ST within ``bound`` hops."""
    return (
        PatternBuilder("team")
        .node("SA", f"experience >= {senior}", field="SA", output=True)
        .node("SD", "experience >= 2", field="SD")
        .node("BA", "experience >= 2", field="BA")
        .node("ST", "experience >= 2", field="ST")
        .edge("SA", "SD", bound)
        .edge("SA", "BA", bound + 1)
        .edge("SD", "ST", bound)
        .edge("BA", "ST", bound)
        .build(require_output=True)
    )


def measure(graph) -> tuple[dict[str, float], int]:
    frozen = FrozenGraph.freeze(graph)
    frozen.successor_sets(), frozen.predecessor_sets()
    medians: dict[str, float] = {}
    mismatches = 0
    for topology, name in TOPOLOGIES.items():
        per_pattern = []
        for experience in EXPERIENCE:
            pattern = every_bound_one(QUERY_LIBRARY[name](experience))
            candidates = simulation_candidates(graph, pattern)
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                result = match_simulation(
                    graph, pattern, candidates=candidates, frozen=frozen
                )
                times.append(time.perf_counter() - start)
            per_pattern.append(statistics.median(times))
            if result.relation != naive_simulation(graph, pattern):
                mismatches += 1
        medians[topology] = round(statistics.median(per_pattern) * 1e3, 4)
    return medians, mismatches


def maintenance(base) -> tuple[list[dict[str, float]], int]:
    pattern = every_bound_one(team_pattern())
    rows = []
    mismatches = 0
    for percent in PERCENTS:
        batch = random_updates(base, max(1, base.num_edges * percent // 100), seed=123)
        maintained, recomputed = [], []
        for _ in range(REPEATS):
            graph = base.copy()
            maintainer = IncrementalSimulation(graph, pattern)
            start = time.perf_counter()
            apply_updates(graph, batch, [maintainer.apply])
            maintained.append(time.perf_counter() - start)
            fresh = base.copy()
            apply_updates(fresh, batch)
            start = time.perf_counter()
            result = match_simulation(fresh, pattern, frozen=FrozenGraph.freeze(fresh))
            recomputed.append(time.perf_counter() - start)
        expected = naive_simulation(graph, pattern)
        mismatches += (maintainer.relation() != expected) + (result.relation != expected)
        rows.append({
            "percent": percent,
            "updates": len(batch),
            "maintained_ms": round(statistics.median(maintained) * 1e3, 3),
            "recompute_ms": round(statistics.median(recomputed) * 1e3, 3),
        })
    return rows, mismatches


def main() -> int:
    report: dict[str, object] = {}
    mismatches = 0
    for graph in (twitter_like_graph(4000, seed=7), collaboration_graph(4000, seed=7)):
        medians, wrong = measure(graph)
        report[graph.name] = medians
        mismatches += wrong
    report["patterns"] = len(TOPOLOGIES) * len(EXPERIENCE) * 2
    table: dict[str, object] = {}
    for graph in (collaboration_graph(1500), twitter_like_graph(1500)):
        table[graph.name], wrong = maintenance(graph)
        mismatches += wrong
    report["maintenance"] = table
    report["mismatches"] = mismatches
    print(json.dumps(report, indent=2))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
