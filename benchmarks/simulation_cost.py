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

``twitter_like_graph`` depends on the hash seed, so run it from the
repository root as::

    PYTHONHASHSEED=0 PYTHONPATH=src python benchmarks/simulation_cost.py
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from repro.datasets.queries import QUERY_LIBRARY
from repro.graph.frozen import FrozenGraph
from repro.graph.generators import collaboration_graph, twitter_like_graph
from repro.matching.reference import naive_simulation
from repro.matching.simulation import match_simulation, simulation_candidates
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


def every_bound_one(pattern: Pattern) -> Pattern:
    payload = pattern.to_dict()
    for edge in payload["edges"]:
        edge["bound"] = 1
    return Pattern.from_dict(payload)


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


def main() -> int:
    report: dict[str, object] = {}
    mismatches = 0
    for graph in (twitter_like_graph(4000, seed=7), collaboration_graph(4000, seed=7)):
        medians, wrong = measure(graph)
        report[graph.name] = medians
        mismatches += wrong
    report["patterns"] = len(TOPOLOGIES) * len(EXPERIENCE) * 2
    report["mismatches"] = mismatches
    print(json.dumps(report, indent=2))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
