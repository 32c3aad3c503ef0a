"""The claims ledger: one table that says whether each benchmark claim holds.

Each row is one claim, the paper's (E4-E9) or this repository's (E11-E19,
ABL-1 to ABL-3), with its workload (generator, size, seed, pattern), metric,
measured values, threshold and whether it ``holds`` here: ``yes``, ``no``
or ``skipped`` with the reason.  Expert-finding claims depend on the query
set, so no row is read without its workload.  ``--scale full`` runs the
workloads the claims were stated on (up to 50,000-node graphs and a
1M-edge one: minutes, about 1 GB); ``--scale smoke`` runs them small, in
seconds, where speed rows say little but every identity check runs.

A speed claim that misses is a ``no`` row and the exit status stays 0.  A
result-identity check that fails (frozen ≡ dict, bulk ≡ naive top-K,
oracle ≡ enumeration rows, reload ≡ rebuild bytes, zero stale reads,
recovered ≡ canonical, maintained ≡ recomputed) prints its row as
``MISMATCH`` and the exit status is 1.

Run from the repository root (``twitter_like_graph`` depends on the hash
seed)::

    PYTHONHASHSEED=0 PYTHONPATH=src:. python benchmarks/ledger.py \\
        [--scale smoke|full] [--json PATH]

``benchmarks/ledger.json`` is a committed full-scale run, and the table in
``docs/performance.md`` is its text output.
"""

from __future__ import annotations

import argparse
import dataclasses
import http.client
import json
import math
import os
import platform
import random
import socket
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from benchmarks.simulation_cost import maintenance, team_pattern
from repro.compression.compress import compress
from repro.compression.decompress import decompress_relation
from repro.compression.maintain import MaintainedCompression
from repro.engine.engine import QueryEngine
from repro.engine.estimator import QueryBudget
from repro.engine.planner import KERNEL_ORACLE, route_edge
from repro.engine.storage import GraphStore
from repro.graph.digraph import Graph
from repro.graph.distance import bounded_descendants
from repro.graph.frozen import FrozenGraph
from repro.graph.generators import (
    collaboration_graph,
    random_digraph,
    twitter_like_graph,
)
from repro.graph.index import AttributeIndex, candidates_from_index
from repro.graph.oracle import DistanceOracle
from repro.incremental.inc_bounded import IncrementalBoundedSimulation
from repro.incremental.updates import (
    AttributeUpdate,
    EdgeInsertion,
    NodeInsertion,
    apply_updates,
    random_updates,
)
from repro.matching.bounded import (
    FROZEN_BULK_DEPTH,
    frozen_successor_rows,
    match_bounded,
)
from repro.matching.isomorphism import count_isomorphisms, has_isomorphism
from repro.matching.reference import naive_bounded
from repro.matching.result_graph import build_result_graph
from repro.matching.simulation import (
    every_bound_one,
    match_simulation,
    simulation_candidates,
)
from repro.pattern.parser import format_pattern, parse_pattern
from repro.pattern.pattern import Pattern
from repro.ranking.metrics import METRICS
from repro.ranking.social_impact import rank_matches
from repro.ranking.social_impact import top_k as naive_top_k
from repro.ranking.topk import RankingContext, bulk_top_k_detail, bulk_top_k_scores
from repro.server import ExpFinderService, QueryServer, ServiceConfig
from repro.server.registry import SnapshotRegistry
from repro.server.wal import Checkpointer, WriteAheadLog
from repro.testing.chaos import canonical_form


@dataclasses.dataclass
class Row:
    """One claim and what this run measured for it."""

    id: str
    claim: str
    workload: str
    metric: str
    measured: dict[str, Any]
    threshold: str
    holds: str


class Mismatch(Exception):
    """A result-identity check failed: the claim's two paths disagree."""


def same(got: object, expected: object, what: str) -> None:
    if got != expected:
        raise Mismatch(what)


def row(id: str, claim: str, workload: str, metric: str, measured: dict[str, Any],
        threshold: str, holds: bool | str) -> Row:
    """A row; ``holds`` is a verdict, or the reason the claim was skipped."""
    verdict = f"skipped: {holds}" if isinstance(holds, str) else "yes" if holds else "no"
    return Row(id, claim, workload, metric, measured, threshold, verdict)


def ms(seconds: float) -> float:
    return round(seconds * 1e3, 2)


def race(runs: int, *actions: Callable[[], Any]) -> list[tuple[float, Any]]:
    """Each action's fastest of ``runs`` timed calls, and its last value.

    The actions take turns, so one stall cannot pick the winner.
    """
    best = [math.inf] * len(actions)
    values: list[Any] = [None] * len(actions)
    for _ in range(runs):
        for i, action in enumerate(actions):
            start = time.perf_counter()
            values[i] = action()
            best[i] = min(best[i], time.perf_counter() - start)
    return list(zip(best, values))


def best_of(runs: int, action: Callable[[], Any]) -> tuple[float, Any]:
    return race(runs, action)[0]


def medians(runs: int, measure: Callable[[], Sequence[float]]) -> list[float]:
    """Per-component medians of ``runs`` calls of a paired measurement."""
    samples = [measure() for _ in range(runs)]
    return [statistics.median(column) for column in zip(*samples)]


def timed(action: Callable[[], Any]) -> tuple[float, Any]:
    return best_of(1, action)


def pattern(text: str) -> Pattern:
    """A pattern from its text form (``repro.pattern.parser``), ``;``-separated."""
    return parse_pattern(text.replace("; ", "\n"))


# The workloads' patterns.  Predicates read the generators' attributes:
# `field` (SA, SD, BA, ST) and `experience` (years); `*` is an unbounded edge.
INFLUENCER = ('node SA* : field == "SA"; node SD : field == "SD"; '
              'node ST : field == "ST"; edge SA -> SD : 2; edge SA -> ST : 2; '
              'edge SD -> ST : 2')
TEAM_FIELDS = ('node SA* : field == "SA"; node SD : field == "SD"; '
               'node BA : field == "BA"; node ST : field == "ST"; edge SA -> SD : 2; '
               'edge SA -> BA : 3; edge SD -> ST : 2; edge BA -> ST : 2')
RANK_TEAM = ('node SA* : field == "SA", experience >= 5; '
             'node SD : field == "SD", experience >= 2; edge SA -> SD : 2')
REACH = ('node SA* : field == "SA", experience >= 15; '
         'node ST : field == "ST", experience >= 9; edge SA -> ST : *')
SELECTIVE = ('node SA* : field == "SA", experience >= 15; '
             'node ST : field == "ST", experience >= 13; '
             'node SD : field == "SD", experience >= 14; '
             'edge SA -> ST : *; edge SA -> SD : 6')
BROAD = ('node SA* : field == "SA", experience >= 1; '
         'node ST : field == "ST", experience >= 2; '
         'node SD : field == "SD", experience >= 2; edge SA -> ST : 3; edge SA -> SD : 2')
BOMB = ('node A* : experience >= 0; node B : experience >= 0; '
        'node C : experience >= 0; edge A -> B : *; edge B -> C : *; edge C -> A : *')
PROBE = ('node A* : label == "L0", x >= 8; node B : label == "L1", x >= 8; '
         'edge A -> B : 2')


# ----------------------------------------------------------------------
# the paper's claims (E4-E9) and the ablations
# ----------------------------------------------------------------------
def e4(full: bool) -> list[Row]:
    """Query-engine cost: simulation <= bounded simulation << isomorphism."""
    sizes = (300, 1000, 2500) if full else (100, 300)
    team, unit = team_pattern(), every_bound_one(team_pattern())
    series: dict[str, dict[int, float]] = {"sim": {}, "bounded": {}, "iso": {}}
    for nodes in sizes:
        graph = collaboration_graph(nodes, seed=0)
        series["sim"][nodes] = ms(best_of(3, lambda: match_simulation(graph, unit))[0])
        series["bounded"][nodes] = ms(best_of(3, lambda: match_bounded(graph, team))[0])
        series["iso"][nodes] = ms(best_of(3, lambda: has_isomorphism(graph, unit))[0])
    embeddings = count_isomorphisms(collaboration_graph(sizes[0], seed=0),
                                    every_bound_one(team_pattern(senior=4)),
                                    limit=20_000)
    largest = sizes[-1]
    ratio = series["bounded"][largest] / series["sim"][largest]
    return [row(
        "E4-order",
        "bounded simulation (cubic) costs more than simulation (quadratic)",
        f"collaboration_graph({'/'.join(map(str, sizes))}, seed=0), no snapshot; "
        "team_pattern() and every_bound_one(team_pattern())",
        "best-of-3 ms per size; bounded / simulation at the largest size; "
        f"isomorphism embeddings at {sizes[0]} (capped at 20k)",
        {**{f"{name}_ms": values for name, values in series.items()},
         "ratio": round(ratio, 2), "embeddings": embeddings},
        "ratio > 0.8",
        ratio > 0.8,
    )]


def e5(full: bool) -> list[Row]:
    """Incremental vs. batch, plain simulation (``simulation_cost.maintenance``)."""
    nodes = 1500 if full else 300
    table, wrong = maintenance(collaboration_graph(nodes, seed=0))
    same(wrong, 0, "maintained and recomputed relations vs naive_simulation")
    workload = (
        f"collaboration_graph({nodes}, seed=0); every_bound_one(team_pattern()); "
        "random_updates(seed=123) of 1-50% of |E|"
    )
    metric = ("median-of-5 ms: apply_updates driving IncrementalSimulation vs "
              "freeze + match_simulation")
    measured = {
        f"{entry['percent']}%": f"{entry['maintained_ms']} vs {entry['recompute_ms']}"
        for entry in table
    }
    first = table[0]
    upto30 = [entry for entry in table if entry["percent"] <= 30]
    return [
        row("E5-1pct", "at ΔG = 1% the incremental module beats recomputation",
            workload, metric, measured, "maintained < recompute at 1%",
            first["maintained_ms"] < first["recompute_ms"]),
        row("E5-30pct", "incremental beats batch when up to 30% changes "
            "(paper, simulation)", workload, metric, measured,
            "maintained < recompute at every ΔG <= 30%",
            all(e["maintained_ms"] < e["recompute_ms"] for e in upto30)),
    ]


def e6(full: bool) -> list[Row]:
    """Incremental vs. batch, bounded simulation: a tighter crossover."""
    base = collaboration_graph(800 if full else 200, seed=0)
    query = team_pattern()

    def ratio_for(count: int) -> float:
        graph = base.copy()
        maintainer = IncrementalBoundedSimulation(graph, query)
        batch = random_updates(graph, count, seed=321)
        incremental, _ = timed(lambda: apply_updates(graph, batch, [maintainer.apply]))
        fresh = base.copy()
        apply_updates(fresh, batch)
        recompute, recomputed = timed(lambda: match_bounded(fresh, query))
        same(maintainer.relation(), recomputed.relation,
             f"maintained vs recomputed relation after {count} updates")
        return incremental / recompute

    large = max(1, base.num_edges * 20 // 100)
    unit, at20 = medians(3, lambda: (ratio_for(1), ratio_for(large)))
    workload = (f"collaboration_graph({base.num_nodes}, seed=0), no snapshot; "
                "team_pattern(); random_updates(seed=321)")
    metric = "incremental / recompute time, median of 3"
    measured = {"unit": round(unit, 3), "20%": round(at20, 3), "updates_20%": large}
    return [
        row("E6-unit", "a unit update beats recomputation", workload, metric,
            measured, "unit < 1", unit < 1.0),
        row("E6-erodes", "the advantage erodes as ΔG grows", workload, metric,
            measured, "20% > unit", at20 > unit),
    ]


def e7(full: bool) -> list[Row]:
    """Compression ratio: "in average, the graphs can be reduced by 57%"."""
    graphs = {"collab": collaboration_graph(1500 if full else 300, seed=0),
              "twitter": twitter_like_graph(3000 if full else 600, seed=0)}
    reductions: dict[str, float] = {}
    seconds: dict[str, float] = {}
    for name, graph in graphs.items():
        for method in ("bisimulation", "simulation"):
            key = f"{name}/{method}"
            seconds[key], compressed = timed(
                lambda: compress(graph, attrs=("field",), method=method))
            reductions[key] = round(compressed.size_reduction, 3)
    average = statistics.mean(reductions[f"{name}/bisimulation"] for name in graphs)
    workload = (f"collaboration_graph({graphs['collab'].num_nodes}, seed=0), "
                f"twitter_like_graph({graphs['twitter'].num_nodes}, seed=0); "
                "attrs=('field',)")
    return [
        row("E7-band", "both methods reduce both graphs substantially but not "
            "degenerately", workload, "size reduction of |V|+|E|; build ms",
            {"reduction": reductions,
             "build_ms": {key: ms(value) for key, value in seconds.items()}},
            "0.10 <= reduction <= 0.95 for every build",
            all(0.10 <= value <= 0.95 for value in reductions.values())),
        row("E7-average", "the graphs are reduced by 57% on average (paper)",
            workload, "mean bisimulation size reduction",
            {"average": round(average, 3)}, "average > 0.30", average > 0.30),
    ]


def e8(full: bool) -> list[Row]:
    """Compressed queries: "reduces query evaluation time by 70%"."""
    graph = twitter_like_graph(3000 if full else 600, seed=0)
    compressed = compress(graph, attrs=("field",))
    query = pattern(INFLUENCER)

    def measure() -> tuple[float, float]:
        direct_seconds, direct = timed(lambda: match_bounded(graph, query).relation)
        compressed_seconds, recovered = timed(lambda: decompress_relation(
            match_bounded(compressed.quotient, query).relation, compressed))
        same(recovered, direct, "decompressed quotient relation vs direct relation")
        return direct_seconds, compressed_seconds

    direct_seconds, compressed_seconds = medians(3, measure)
    reduction = 1.0 - compressed_seconds / direct_seconds
    return [row(
        "E8", "evaluating on the quotient cuts query time by ~70% (paper)",
        f"twitter_like_graph({graph.num_nodes}, seed=0), bisimulation on "
        f"('field',), no snapshot; {INFLUENCER}",
        "median-of-3 ms, direct vs quotient + decompression",
        {"direct_ms": ms(direct_seconds), "compressed_ms": ms(compressed_seconds),
         "reduction": round(reduction, 3)},
        "reduction > 0.4",
        reduction > 0.4,
    )]


def e9(full: bool) -> list[Row]:
    """Maintaining a compressed graph vs. recompressing it."""
    base = collaboration_graph(1000 if full else 250, seed=0)
    query = pattern(TEAM_FIELDS)

    def measure() -> tuple[float, float]:
        graph = base.copy()
        maintained = MaintainedCompression(graph, attrs=("field",))
        batch = random_updates(graph, max(1, graph.num_edges * 5 // 100), seed=777)
        maintain_seconds, _ = timed(
            lambda: apply_updates(graph, batch, [maintained.apply]))
        fresh = base.copy()
        apply_updates(fresh, batch)
        recompress_seconds, _ = timed(lambda: compress(fresh, attrs=("field",)))
        compressed = maintained.compressed()
        same(decompress_relation(
                 match_bounded(compressed.quotient, query).relation, compressed),
             match_bounded(graph, query).relation,
             "maintained quotient's decompressed relation vs direct relation")
        return maintain_seconds, recompress_seconds

    maintain_seconds, recompress_seconds = medians(3, measure)
    return [row(
        "E9", "maintenance outperforms recompression (paper)",
        f"collaboration_graph({base.num_nodes}, seed=0), attrs=('field',); "
        f"random_updates(5% of |E|, seed=777); {TEAM_FIELDS}",
        "median-of-3 ms, MaintainedCompression.apply vs compress",
        {"maintain_ms": ms(maintain_seconds), "recompress_ms": ms(recompress_seconds)},
        "maintain < 1.5 x recompress",
        maintain_seconds < recompress_seconds * 1.5,
    )]


def abl1(full: bool) -> list[Row]:
    """The bounded matcher's successor index vs. the naive fixpoint."""
    graph = collaboration_graph(800 if full else 150, seed=0)
    query = team_pattern()
    (fast_seconds, fast), (slow_seconds, slow) = race(
        3, lambda: match_bounded(graph, query).relation,
        lambda: naive_bounded(graph, query))
    same(fast, slow, "match_bounded vs naive_bounded relation")
    return [row(
        "ABL-1", "the indexed bounded matcher beats the naive fixpoint",
        f"collaboration_graph({graph.num_nodes}, seed=0), no snapshot; team_pattern()",
        "best-of-3 ms, match_bounded vs naive_bounded",
        {"indexed_ms": ms(fast_seconds), "naive_ms": ms(slow_seconds)},
        "indexed < naive",
        fast_seconds < slow_seconds,
    )]


def abl2(full: bool) -> list[Row]:
    """The engine's route ladder: cache, compressed graph, direct."""
    graph = twitter_like_graph(3000 if full else 600, seed=0)
    engine = QueryEngine()
    engine.register_graph("tw", graph.copy())
    engine.compress_graph("tw", attrs=("field", "experience"))
    query = team_pattern()
    uncached = dict(use_cache=False, cache_result=False)
    calls = {
        "direct": lambda: engine.evaluate("tw", query, use_compression=False,
                                          **uncached),
        "compressed": lambda: engine.evaluate("tw", query, **uncached),
        "cache": lambda: engine.evaluate("tw", query),
    }
    engine.evaluate("tw", query)  # warms the snapshot and the cache
    seconds, routes, relations = {}, {}, {}
    for name, call in calls.items():
        seconds[name], result = best_of(5, call)
        routes[name] = result.stats["route"]
        relations[name] = result.relation
    same(relations["compressed"], relations["direct"], "compressed vs direct route")
    same(relations["cache"], relations["direct"], "cached vs direct route")
    return [row(
        "ABL-2", "each route of the ladder serves the query it is asked to",
        f"twitter_like_graph({graph.num_nodes}, seed=0), compressed on "
        "('field', 'experience'); team_pattern()",
        "best-of-5 ms per route; route named in stats",
        {f"{name}_ms": ms(value) for name, value in seconds.items()},
        "stats route == requested route",
        all(routes[name] == name for name in calls),
    )]


def abl3(full: bool) -> list[Row]:
    """Result graph from the matcher's state vs. fresh BFS."""
    measured: dict[str, float] = {}
    wins = []
    sizes = (500, 1500) if full else (150,)
    for nodes in sizes:
        result = match_bounded(collaboration_graph(nodes, seed=0), team_pattern(senior=4))
        args = (result.graph, result.pattern, result.relation)
        (reuse, from_state), (fresh, from_bfs) = race(
            3, lambda: build_result_graph(*args, state=result._state),
            lambda: build_result_graph(*args, state=None))
        same(from_state.to_dict(), from_bfs.to_dict(),
             f"result graph from state vs fresh BFS at {nodes} nodes")
        measured[f"state_ms@{nodes}"] = ms(reuse)
        measured[f"bfs_ms@{nodes}"] = ms(fresh)
        wins.append(reuse < fresh)
    return [row(
        "ABL-3", "reusing the matcher's state builds the result graph faster "
        "than fresh BFS",
        f"collaboration_graph({'/'.join(map(str, sizes))}, seed=0), no snapshot; "
        "team_pattern(senior=4)",
        "best-of-3 ms, build_result_graph with and without state",
        measured, "state < bfs at every size", all(wins),
    )]


# ----------------------------------------------------------------------
# this repository's claims (E11-E19)
# ----------------------------------------------------------------------
def warm_index(graph: Graph) -> AttributeIndex:
    index = AttributeIndex(graph)
    index.lookup("field", "SA")  # the lazy build, outside the timers
    return index


def e11(full: bool) -> list[Row]:
    """Indexed candidate generation vs. the full-node scan."""
    graph = collaboration_graph(10_000 if full else 1000, seed=0)
    query = team_pattern()
    index = warm_index(graph)
    (scan, scanned), (indexed_seconds, indexed) = race(
        3, lambda: simulation_candidates(graph, query),
        lambda: candidates_from_index(graph, query, index))
    same(indexed, scanned, "indexed vs scanned candidates")
    (plain_seconds, plain), (with_index_seconds, with_index) = race(
        3, lambda: match_bounded(graph, query),
        lambda: match_bounded(graph, query, index=index))
    same(with_index.relation, plain.relation, "indexed vs scanned match_bounded")
    return [row(
        "E11-index", "indexed candidate generation beats the full-node scan",
        f"collaboration_graph({graph.num_nodes}, seed=0); team_pattern()",
        "best-of-3 ms, simulation_candidates vs candidates_from_index; "
        "whole match_bounded (no snapshot) without and with the index",
        {"scan_ms": ms(scan), "index_ms": ms(indexed_seconds),
         "speedup": round(scan / indexed_seconds, 1),
         "match_scan_ms": ms(plain_seconds), "match_index_ms": ms(with_index_seconds)},
        "index < scan", indexed_seconds < scan,
    )]


def e11_attr(full: bool) -> list[Row]:
    """Node-level updates: attribute flips maintained vs. recomputed."""
    base = collaboration_graph(800 if full else 200, seed=0)
    query = team_pattern(senior=4)
    rng = random.Random(11)
    nodes = list(base.nodes())
    flips = [AttributeUpdate(rng.choice(nodes), "experience", rng.randint(1, 12))
             for _ in range(10)]

    def measure() -> tuple[float, float]:
        graph = base.copy()
        maintainer = IncrementalBoundedSimulation(graph, query)
        incremental, _ = timed(lambda: apply_updates(graph, flips, [maintainer.apply]))
        fresh = base.copy()
        apply_updates(fresh, flips)
        recompute, recomputed = timed(lambda: match_bounded(fresh, query))
        same(maintainer.relation(), recomputed.relation,
             "maintained vs recomputed relation after attribute flips")
        return incremental, recompute

    incremental, recompute = medians(3, measure)
    return [row(
        "E11-attr", "maintaining attribute updates beats recomputation",
        f"collaboration_graph({base.num_nodes}, seed=0), no snapshot; "
        "team_pattern(senior=4); 10 experience flips (random.Random(11))",
        "median-of-3 ms, IncrementalBoundedSimulation vs match_bounded",
        {"incremental_ms": ms(incremental), "recompute_ms": ms(recompute)},
        "incremental < recompute", incremental < recompute,
    )]


def e12(full: bool) -> list[Row]:
    """A 4-worker evaluate_many batch vs. the single-process batch."""
    workers, cores = 4, os.cpu_count() or 1
    graph = collaboration_graph(50_000 if full else 2000, seed=0)
    patterns = [team_pattern(bound=bound, senior=senior)
                for bound in (2, 3) for senior in (2, 3, 4, 5, 6, 7)]
    engine = QueryEngine()
    engine.register_graph("bench", graph)
    uncached = dict(use_cache=False, cache_result=False)
    sequential_seconds, sequential = timed(
        lambda: engine.evaluate_many("bench", patterns, **uncached))
    parallel_seconds, parallel = timed(
        lambda: engine.evaluate_many("bench", patterns, workers=workers, **uncached))
    engine.close()
    for one, other in zip(sequential, parallel):
        same(other.relation, one.relation, "parallel vs sequential batch relation")
    speedup = sequential_seconds / parallel_seconds
    return [row(
        "E12", f"a {workers}-worker batch beats the sequential batch",
        f"collaboration_graph({graph.num_nodes}, seed=0); 12 team_pattern "
        "queries (bounds 2-3, seniority 2-7)",
        "one run each, s",
        {"sequential_s": round(sequential_seconds, 2),
         "parallel_s": round(parallel_seconds, 2),
         "speedup": round(speedup, 2), "cores": cores},
        "speedup >= 1.5",
        speedup >= 1.5 if cores >= workers
        else f"{cores} cores cannot run {workers} workers at once",
    )]


def clustered_graph(regular: int, elite: int, direct: bool) -> Graph:
    """Disjoint teams; ``direct=False`` reaches regular teams via a relay."""
    graph = Graph(name="ranking-bench")
    for index in range(elite):
        hub = f"elite{index:05d}"
        graph.add_node(hub, field="SA", experience=9)
        for member in range(3):
            graph.add_node(f"{hub}sd{member}", field="SD", experience=5)
            graph.add_edge(hub, f"{hub}sd{member}")
    for index in range(regular):
        hub = f"hub{index:05d}"
        graph.add_node(hub, field="SA", experience=7)
        members = [f"{hub}sd{member}" for member in range(4)]
        for sd in members:
            graph.add_node(sd, field="SD", experience=4)
        if direct:
            for sd in members:
                graph.add_edge(hub, sd)
        else:
            graph.add_node(f"{hub}relay", field="X", experience=1)
            graph.add_edge(hub, f"{hub}relay")
            for sd in members:
                graph.add_edge(f"{hub}relay", sd)
    return graph


def e13(full: bool) -> list[Row]:
    """Bulk top-K with bound pruning vs. ranking every match."""
    regular, elite, k = (5000 if full else 500), 24, 10
    query = pattern(RANK_TEAM)
    rows = []
    for name, direct in (("prunable", False), ("uniform", True)):
        graph = clustered_graph(regular, elite, direct)
        result_graph = match_bounded(graph, query, index=AttributeIndex(graph)
                                     ).result_graph()
        matches = len(rank_matches(result_graph))
        naive_seconds, naive = timed(lambda: naive_top_k(result_graph, k))
        context = RankingContext(result_graph)
        bulk_seconds, bulk = timed(lambda: bulk_top_k_detail(context, k))
        same(bulk, naive, f"bulk vs naive top-{k} ({name})")
        speedup = naive_seconds / bulk_seconds
        workload = (f"clustered_graph({regular} regular + {elite} elite teams, "
                    f"{name}): {matches} matches; {RANK_TEAM}; k={k}")
        measured = {"naive_ms": ms(naive_seconds), "bulk_ms": ms(bulk_seconds),
                    "speedup": round(speedup, 2),
                    "scored": context.stats["details_scored"],
                    "pruned": context.stats["pruned_by_bound"]}
        if direct:
            rows.append(row(
                "E13-uniform", "with uniform weights bulk ranking equals naive "
                "(nothing to prune; ratio recorded)", workload,
                "ms, ranking one prebuilt result graph", measured,
                "identical order, ranks and evidence", True))
            continue
        rows.append(row(
            "E13-prunable", "bound pruning makes bulk top-K >= 2x naive", workload,
            "ms, ranking one prebuilt result graph; every metric's bulk top-K "
            "checked against rank_all()[:k]", measured,
            f"speedup >= 2 and pruned >= {regular - k}",
            speedup >= 2.0 and measured["pruned"] >= regular - k))
        for metric in METRICS.values():
            same(bulk_top_k_scores(RankingContext(result_graph), k, metric),
                 metric.rank_all(result_graph)[:k], f"bulk vs naive {metric.name}")
    return rows


def candidate_ids(frozen: FrozenGraph, candidates: dict) -> dict[str, frozenset[int]]:
    ids = frozen.ids()
    return {u: frozenset(ids[v] for v in vs) for u, vs in candidates.items()}


def e14(full: bool) -> list[Row]:
    """Frozen CSR snapshots vs. the dict-of-dicts hot path."""
    graph = collaboration_graph(50_000 if full else 5000, seed=0)
    freeze_seconds, frozen = timed(lambda: FrozenGraph.freeze(graph))
    query = pattern(REACH)
    candidates = simulation_candidates(graph, query)
    workload = f"collaboration_graph({graph.num_nodes}, seed=0); {REACH}"

    def dict_rows() -> dict:
        rows = {}
        for source in sorted(candidates["SA"], key=frozen.id_of):
            reach = bounded_descendants(graph, source, None)
            rows[source] = {n: d for n, d in reach.items() if n in candidates["ST"]}
        return rows

    dict_seconds, expected = timed(dict_rows)
    spec = {"SA": tuple(query.out_edges("SA"))}
    ids = candidate_ids(frozen, candidates)
    frozen_seconds, rows = timed(lambda: frozen_successor_rows(frozen, spec, ids))
    labels = frozen.labels
    same({labels[s]: {labels[n]: d for n, d in entries.items()}
          for s, entries in rows[("SA", "ST")].items()},
         expected, "frozen vs dict successor rows")
    kernel = dict_seconds / frozen_seconds

    index = warm_index(graph)
    plain_seconds, plain = timed(lambda: match_bounded(graph, query, index=index))
    fast_seconds, fast = timed(
        lambda: match_bounded(graph, query, index=index, frozen=frozen))
    same(fast.relation.to_dict(), plain.relation.to_dict(),
         "frozen vs dict match_bounded relation")
    evaluation = plain_seconds / fast_seconds
    return [
        row("E14-kernel", "frozen successor rows are >= 2x the dict path",
            workload, "one run each, s; freeze is one-off",
            {"dict_s": round(dict_seconds, 3), "frozen_s": round(frozen_seconds, 3),
             "speedup": round(kernel, 1), "sources": len(expected),
             "freeze_s": round(freeze_seconds, 3)},
            "speedup >= 2", kernel >= 2.0),
        row("E14-evaluation", "match_bounded over a snapshot is >= 2x the dict "
            "matcher", workload, "one run each, s",
            {"dict_s": round(plain_seconds, 3), "frozen_s": round(fast_seconds, 3),
             "speedup": round(evaluation, 1), "pairs": plain.relation.num_pairs},
            "speedup >= 2", evaluation >= 2.0),
    ]


def e15(full: bool) -> list[Row]:
    """The landmark distance oracle vs. frozen BFS enumeration."""
    graph = twitter_like_graph(50_000 if full else 5000, seed=0)
    frozen = FrozenGraph.freeze(graph)
    build_seconds, oracle = timed(lambda: DistanceOracle.build(frozen))
    selective, broad = pattern(SELECTIVE), pattern(BROAD)
    on = f"twitter_like_graph({graph.num_nodes}, seed=0)"

    # kernel level: the same successor rows, enumerated vs label merges
    ids = candidate_ids(frozen, simulation_candidates(graph, selective))
    spec = {"SA": tuple(selective.out_edges("SA"))}
    log: dict = {}
    (enum_seconds, enum_rows), (oracle_seconds, oracle_rows) = race(
        2, lambda: frozen_successor_rows(frozen, spec, ids),
        lambda: frozen_successor_rows(frozen, spec, ids, oracle=oracle, kernel_log=log))
    same(oracle_rows, enum_rows, "oracle vs enumeration successor rows")
    kernel = enum_seconds / oracle_seconds
    routed = all(route.kernel == KERNEL_ORACLE for route in log.values())

    uncached = dict(use_cache=False, cache_result=False)

    def compare(query: Pattern, which: str) -> tuple[float, float, dict]:
        plain, accelerated = QueryEngine(), QueryEngine()
        plain.register_graph("g", graph)
        accelerated.register_graph("g", graph)
        accelerated.enable_oracle("g")
        warm = accelerated.evaluate("g", query, **uncached)  # builds the labels
        (plain_seconds, expected), (fast_seconds, got) = race(
            3, lambda: plain.evaluate("g", query, **uncached),
            lambda: accelerated.evaluate("g", query, **uncached))
        same(got.relation.to_dict(), expected.relation.to_dict(),
             f"oracle-enabled vs frozen BFS ({which})")
        return plain_seconds, fast_seconds, warm.stats["kernels"]

    plain_s, oracle_s, kernels = compare(selective, "selective")
    evaluation = plain_s / oracle_s
    broad_plain, broad_oracle, broad_kernels = compare(broad, "broad")
    regression = broad_oracle / broad_plain
    fell_back = bool(broad_kernels) and KERNEL_ORACLE not in broad_kernels.values()

    wide = simulation_candidates(graph, broad)  # deep-broad's SA and ST too
    deep = route_edge(("SA", "ST"), None, len(wide["SA"]), len(wide["ST"]),
                      graph.num_nodes, graph.num_edges, oracle.profile(),
                      bulk_depth=FROZEN_BULK_DEPTH)
    return [
        row("E15-kernel", "oracle-routed successor rows are >= 2x enumeration",
            f"{on}; {SELECTIVE}",
            "best-of-2 s; every edge routed to the oracle",
            {"enumeration_s": round(enum_seconds, 3),
             "oracle_s": round(oracle_seconds, 3), "speedup": round(kernel, 1),
             "build_s": round(build_seconds, 2), "routed": routed},
            "speedup >= 2 and routed", kernel >= 2.0 and routed),
        row("E15-evaluation", "a warm oracle makes engine evaluation >= 2x the "
            "frozen BFS path", f"{on}; {SELECTIVE}",
            "best-of-3 s, QueryEngine.evaluate uncached, oracle enabled or not",
            {"frozen_bfs_s": round(plain_s, 3), "oracle_s": round(oracle_s, 3),
             "speedup": round(evaluation, 2),
             "oracle_logged": KERNEL_ORACLE in kernels.values()},
            "speedup >= 2", evaluation >= 2.0),
        row("E15-broad", "with broad candidates the cost model falls back to "
            "enumeration and costs < 10%", f"{on}; {BROAD}",
            "best-of-3 s; kernels logged",
            {"frozen_bfs_s": round(broad_plain, 3),
             "oracle_enabled_s": round(broad_oracle, 3),
             "ratio": round(regression, 2),
             "kernels": sorted(set(broad_kernels.values()))},
            "ratio <= 1.10 and no oracle kernel",
            regression <= 1.10 and fell_back),
        row("E15-routing", "deep bounds over broad candidates route to the bitset "
            "kernel", f"{on}; BROAD's SA and ST joined by a * edge",
            "route_edge's choice", {"route": deep.describe()},
            "kernel == bitset", deep.kernel == "bitset"),
    ]


def e16(full: bool) -> list[Row]:
    """Runaway-query guards: one evaluation path, bounded; good queries do
    not pay."""
    bomb_graph = twitter_like_graph(20_000 if full else 2000, seed=0)
    bomb = pattern(BOMB)
    engine = QueryEngine()
    engine.register_graph("g", bomb_graph)
    uncached = dict(use_cache=False, cache_result=False)
    engine.evaluate("g", bomb, **uncached)  # freezes the snapshot
    fits_visits = 100_000
    fits = QueryBudget(node_visits=fits_visits, allow_partial=True)
    (bomb_seconds, plain_bomb), (exact_seconds, exact) = race(
        5, lambda: engine.evaluate("g", bomb, **uncached),
        lambda: engine.evaluate("g", bomb, budget=fits, **uncached))
    same(exact.relation.to_dict(), plain_bomb.relation.to_dict(),
         "bomb under a budget its pass fits vs unguarded relation")
    same(exact.stats["partial"], False, "a budget the pass fits trips nothing")
    # Below the pass's arrivals and below its time: both stop the pass.
    budget_visits = 10_000 if full else 1_000
    limit = round(bomb_seconds / 4, 4)
    visits_seconds, by_visits = timed(lambda: engine.evaluate(
        "g", bomb, budget=QueryBudget(node_visits=budget_visits, allow_partial=True),
        **uncached))
    clock_seconds, by_clock = timed(lambda: engine.evaluate(
        "g", bomb, budget=QueryBudget(seconds=limit, allow_partial=True), **uncached))
    on = f"twitter_like_graph({bomb_graph.num_nodes}, seed=0); {BOMB}"
    visits = by_visits.stats["visits"]
    bomb_ratio = exact_seconds / bomb_seconds

    good_graph = collaboration_graph(10_000 if full else 1000, seed=0)
    query = team_pattern()
    good = QueryEngine()
    good.register_graph("g", good_graph)
    generous = QueryBudget(node_visits=10**9, allow_partial=True)
    good.evaluate("g", query, **uncached)  # freezes the snapshot
    (plain_seconds, plain), (guarded_seconds, guarded) = race(
        5 if full else 15, lambda: good.evaluate("g", query, **uncached),
        lambda: good.evaluate("g", query, budget=generous, **uncached))
    same(guarded.relation.to_dict(), plain.relation.to_dict(),
         "guarded vs unguarded relation")
    same(guarded.stats["partial"], False, "a generous budget trips nothing")
    ratio = guarded_seconds / plain_seconds
    return [
        row("E16-node-budget", "a node budget below a query bomb's membership pass "
            "stops it with a partial result in seconds",
            f"{on}; QueryBudget(node_visits={budget_visits})",
            "one run, s; visits charged",
            {"seconds": round(visits_seconds, 2), "visits": visits,
             "guard": by_visits.stats.get("guard")},
            f"partial, node-budget guard, visits < {2 * budget_visits}, < 30 s",
            by_visits.stats["partial"] is True
            and by_visits.stats.get("guard") == "node-budget"
            and visits < 2 * budget_visits and visits_seconds < 30.0),
        row("E16-time-limit", "a wall-clock limit below the pass time stops the "
            "same bomb", f"{on}; QueryBudget(seconds=a quarter of the unguarded time)",
            "one run, s",
            {"seconds": round(clock_seconds, 4), "limit_s": limit,
             "guard": by_clock.stats.get("guard")},
            "partial, stopped within limit + 0.1 s",
            by_clock.stats["partial"] is True and clock_seconds < limit + 0.1),
        row("E16-bomb-exact", "a budget the bomb's pass fits answers it exactly, "
            "near unguarded speed", f"{on}; QueryBudget(node_visits={fits_visits})",
            "best-of-5 ms, QueryEngine.evaluate uncached, with and without budget",
            {"unguarded_ms": ms(bomb_seconds), "guarded_ms": ms(exact_seconds),
             "ratio": round(bomb_ratio, 2), "visits": exact.stats["visits"]},
            "identical relation, ratio <= 2", bomb_ratio <= 2.0),
        row("E16-overhead", "guards cost < 10% when nothing trips",
            f"collaboration_graph({good_graph.num_nodes}, seed=0); team_pattern(); "
            "QueryBudget(node_visits=10**9)",
            f"best-of-{5 if full else 15} ms, QueryEngine.evaluate uncached, "
            "with and without budget",
            {"unguarded_ms": ms(plain_seconds), "guarded_ms": ms(guarded_seconds),
             "ratio": round(ratio, 2), "visits": guarded.stats["visits"]},
            "ratio <= 1.10", ratio <= 1.10),
    ]


def e17(full: bool) -> list[Row]:
    """Memory-mapped snapshot persistence vs. rebuilding."""
    nodes, edges = (200_000, 1_000_000) if full else (20_000, 100_000)
    graph = random_digraph(nodes, edges, seed=0)
    oracle_graph = collaboration_graph(50_000 if full else 5000, seed=0)
    floor = 10.0
    with tempfile.TemporaryDirectory() as root:
        store = GraphStore(root)
        freeze_seconds, frozen = best_of(2, lambda: FrozenGraph.freeze(graph))
        save_seconds, path = timed(lambda: store.save_snapshot("e17", frozen))
        load_seconds, loaded = best_of(
            3, lambda: store.load_snapshot("e17", expected_version=graph.version))
        for field in ("out_starts", "out_ends", "out_targets",
                      "in_starts", "in_ends", "in_targets"):
            same(getattr(loaded, field).tobytes(), getattr(frozen, field).tobytes(),
                 f"reloaded vs frozen {field} bytes")
        same(loaded.labels, frozen.labels, "reloaded vs frozen labels")
        rng = random.Random(17)
        for node in (rng.randrange(nodes) for _ in range(100)):
            same(loaded.node_attrs(node), graph.attrs(node), "reloaded attributes")
        file_mb = round(path.stat().st_size / 1e6, 1)

        probe = pattern(PROBE)
        dict_seconds, expected = timed(lambda: match_bounded(graph, probe))
        # A fresh reload: its predecessor sets, built by the first query
        # over it, are timed apart from that query and the next one.
        cold = store.load_snapshot("e17", expected_version=graph.version)
        predecessor_seconds, _ = timed(cold.predecessor_sets)
        first_seconds, got = timed(lambda: match_bounded(graph, probe, frozen=cold))
        second_seconds, again = timed(lambda: match_bounded(graph, probe, frozen=cold))
        for result in (got, again):
            same(result.relation.to_dict(), expected.relation.to_dict(),
                 "probe over the reloaded snapshot vs dict relation")

        oracle_frozen = FrozenGraph.freeze(oracle_graph)
        build_seconds, oracle = timed(lambda: DistanceOracle.build(oracle_frozen, cap=2))
        oracle_path = store.save_oracle("e17", oracle)
        reload_seconds, reloaded = best_of(3, lambda: store.load_oracle(
            "e17", expected_version=oracle_graph.version))
        same(reloaded.compatible_with(oracle_frozen), True, "reloaded oracle version")
        rng = random.Random(29)
        for _ in range(200):
            source = rng.randrange(oracle_graph.num_nodes)
            target = rng.randrange(oracle_graph.num_nodes)
            if source != target:
                same(reloaded.distance(source, target), oracle.distance(source, target),
                     "reloaded vs built oracle distance")
        oracle_mb = round(oracle_path.stat().st_size / 1e6, 1)
    on = f"random_digraph({nodes}, {edges}, seed=0)"
    return [
        row("E17-frozen", "an mmap reload is >= 10x a freeze from the dict graph",
            on, "best-of ms; save is one-off",
            {"freeze_ms": ms(freeze_seconds), "load_ms": ms(load_seconds),
             "save_ms": ms(save_seconds), "file_mb": file_mb,
             "speedup": round(freeze_seconds / load_seconds)},
            f"speedup >= {floor:g}", freeze_seconds / load_seconds >= floor),
        row("E17-query", "a bounded query over the reloaded snapshot equals the "
            "dict-backed relation", f"{on}; {PROBE}",
            "one run each, ms: the dict query; over a fresh reload, "
            "predecessor_sets(), then the first and the second query",
            {"dict_ms": ms(dict_seconds), "predecessor_sets_ms": ms(predecessor_seconds),
             "first_ms": ms(first_seconds), "second_ms": ms(second_seconds),
             "pairs": expected.relation.num_pairs},
            "identical relation", True),
        row("E17-oracle", "reloading oracle labels is >= 10x rebuilding them",
            f"collaboration_graph({oracle_graph.num_nodes}, seed=0); cap=2",
            "ms: one build, best-of-3 loads",
            {"build_ms": ms(build_seconds), "load_ms": ms(reload_seconds),
             "file_mb": oracle_mb, "speedup": round(build_seconds / reload_seconds)},
            f"speedup >= {floor:g}", build_seconds / reload_seconds >= floor),
    ]


class Client:
    """One keep-alive HTTP/1.1 connection (the closed-loop unit)."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.conn = http.client.HTTPConnection(*address, timeout=120)
        self.conn.connect()
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def post(self, path: str, payload: dict) -> tuple[int, dict]:
        self.conn.request("POST", path, body=json.dumps(payload))
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())


def canonical(relation: dict) -> str:
    return json.dumps(relation, sort_keys=True)


def percentile(samples: list[float], fraction: float) -> float:
    ranked = sorted(samples)
    return ranked[min(len(ranked) - 1, int(fraction * len(ranked)))]


def e18(full: bool) -> list[Row]:
    """Warm epochs vs. per-request engines, and zero stale reads."""
    graph = twitter_like_graph(50_000 if full else 1500, seed=0)
    readers, bursts, warm_requests, baseline_requests = 3, 4, 60, 3
    seniors = (5, 7)  # the request mix: the hiring query at two cutoffs
    texts = {senior: format_pattern(team_pattern(senior=senior)) for senior in seniors}
    service = ExpFinderService(ServiceConfig(max_inflight=readers + 2))
    service.register_graph("twitter", graph)
    with QueryServer(service) as server:
        server.start()

        # per-request engines: register (freeze) + evaluate, torn down
        start = time.perf_counter()
        direct = {}
        for index in range(baseline_requests):
            senior = seniors[index % 2]
            engine = QueryEngine()
            engine.register_graph("twitter", graph)
            direct[senior] = canonical(engine.evaluate(
                "twitter", team_pattern(senior=senior)).relation.to_dict())
            engine.close()
        baseline_qps = baseline_requests / (time.perf_counter() - start)

        client = Client(server.address)
        served, latencies = {}, []
        start = time.perf_counter()
        for index in range(warm_requests):
            senior = seniors[index % 2]
            issued = time.perf_counter()
            status, reply = client.post("/graphs/twitter/evaluate",
                                        {"pattern": texts[senior]})
            latencies.append(time.perf_counter() - issued)
            same(status, 200, f"evaluate status: {reply}")
            served[senior] = canonical(reply["relation"])
        warm_qps = warm_requests / (time.perf_counter() - start)
        client.conn.close()
        same(served, direct, "served vs direct engine relation bytes")

        stale, reads, mixed = mixed_phase(server, graph, texts[5],
                                          readers, bursts)
        same(stale, 0, "stale or torn reads under mixed traffic")
        counters = service.stats()
    graph_stats = counters["registry"]["graphs"]["twitter-rw"]
    drained = graph_stats["pins"] == 0 and graph_stats["live_epochs"] == 1
    published = counters["registry"]["counters"]["epochs_published"]
    rejected = counters["admission"]["rejected_full"]
    on = f"twitter_like_graph({graph.num_nodes}, seed=0); team_pattern(senior=5 | 7)"
    speedup = warm_qps / baseline_qps
    return [
        row("E18-warm", "warm epochs serve >= 2x the QPS of an engine per request",
            f"{on}; one keep-alive client, {warm_requests} requests vs "
            f"{baseline_requests} per-request engines",
            "requests/s; warm p50 / p99 ms",
            {"baseline_qps": round(baseline_qps, 2), "warm_qps": round(warm_qps, 2),
             "speedup": round(speedup, 1),
             "p50_ms": ms(percentile(latencies, 0.5)),
             "p99_ms": ms(percentile(latencies, 0.99))},
            "speedup >= 2", speedup >= 2.0),
        row("E18-mixed", "readers racing update bursts see no stale or torn "
            "reply", f"{on}; {readers} readers, {bursts} attribute-toggle bursts",
            "reads per epoch checked against a twin replay",
            {"reads": reads, **mixed, "epochs_published": published,
             "rejected_full": rejected},
            "0 stale, pins drained, one live epoch, nothing rejected",
            drained and rejected == 0 and published >= 1 + bursts),
    ]


def mixed_phase(server: QueryServer, graph: Graph, text: str, readers: int,
                bursts: int) -> tuple[int, int, dict[str, Any]]:
    """Readers race a writer; returns (stale reads, reads, latency stats)."""
    query = team_pattern(senior=5)
    twin = graph.copy(name="twitter-rw")
    server.service.register_graph("twitter-rw", graph.copy(name="twitter-rw"))
    engine = QueryEngine()
    engine.register_graph("twin", twin)
    expected = {0: canonical(engine.evaluate("twin", query).relation.to_dict())}
    # toggle two SA matches out of and back into the predicate, in one batch
    targets = sorted(json.loads(expected[0])["sets"]["SA"], key=repr)[:2]
    original = {node: graph.attrs(node)["experience"] for node in targets}
    stop = threading.Event()
    reads: list[tuple[int, str]] = []
    latencies: list[float] = []

    def read_loop() -> None:
        client = Client(server.address)
        while not stop.is_set():
            issued = time.perf_counter()
            status, reply = client.post("/graphs/twitter-rw/evaluate",
                                        {"pattern": text})
            latencies.append(time.perf_counter() - issued)
            reads.append((reply.get("epoch", -1), canonical(reply.get("relation"))))
        client.conn.close()

    threads = [threading.Thread(target=read_loop) for _ in range(readers)]
    for thread in threads:
        thread.start()
    writer = Client(server.address)
    try:
        for burst in range(bursts):
            updates = [{"op": "set-attr", "node": node, "attr": "experience",
                        "value": 0 if burst % 2 == 0 else original[node]}
                       for node in targets]
            status, reply = writer.post("/graphs/twitter-rw/update",
                                        {"updates": updates})
            same(status, 200, f"update status: {reply}")
            for item in updates:
                twin.update_attrs(item["node"], experience=item["value"])
            expected[reply["epoch"]] = canonical(
                engine.evaluate("twin", query).relation.to_dict())
            time.sleep(0.05)  # let readers see this epoch before the next
    finally:
        stop.set()
        for thread in threads:
            thread.join()
        writer.conn.close()
        engine.close()
    same(len(set(expected.values())) >= 2 and len(targets) == 2, True,
         "the toggled batch changes the relation between epochs")
    stale = sum(expected.get(epoch) != relation for epoch, relation in reads)
    return stale, len(reads), {
        "epochs": sorted({epoch for epoch, _ in reads}),
        "p50_ms": ms(percentile(latencies, 0.5)),
        "p99_ms": ms(percentile(latencies, 0.99)),
    }


def e19(full: bool) -> list[Row]:
    """What durability costs: WAL overhead and crash-recovery time."""
    nodes, count = (500, 1000) if full else (200, 150)
    rounds = 5
    graph = twitter_like_graph(nodes, seed=0)
    batches = [
        [NodeInsertion.with_attrs(f"b{i}", kind="update", round=i),
         EdgeInsertion("u0", f"b{i}")]
        for i in range(count)
    ]

    def publish_all(side: Iterator[SnapshotRegistry]) -> SnapshotRegistry:
        registry = next(side)
        for batch in batches:
            registry.publish("e19", batch)
        return registry

    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        wals: list[WriteAheadLog] = []

        def registry(policy: str | None, tag: str = "") -> SnapshotRegistry:
            """A registered registry, bare or with a fresh WAL and store."""
            if policy is None:
                made = SnapshotRegistry()
            else:
                store = GraphStore(root / tag / "store")
                wal = WriteAheadLog(root / tag / "wal", fsync=policy)
                wals.append(wal)
                made = SnapshotRegistry(store=store, wal=wal)
                # the baseline stays the only checkpoint: recovery replays it all
                made.attach_checkpointer(Checkpointer(
                    made, wal, store, every_batches=10**9, background=False))
            made.register("e19", graph.copy(name="e19"))
            return made

        # Fresh registries (and directories) per round, made untimed; the
        # two sides take turns, and each keeps its fastest round.
        bare_side = iter([registry(None) for _ in range(rounds)])
        batch_side = iter([registry("batch", f"batch{i}") for i in range(rounds)])
        (bare_seconds, _), (batch_seconds, crashed) = race(
            rounds, lambda: publish_all(bare_side), lambda: publish_all(batch_side))
        seconds = {"batch": batch_seconds}
        for policy in ("always", "none"):
            single = iter([registry(policy, policy)])
            seconds[policy], _ = timed(lambda: publish_all(single))
        live_form = canonical_form(crashed.current_epoch("e19").graph)
        crashed_wal = wals[rounds - 1]  # the last batch round "crashes": no close
        for wal in wals:
            if wal is not crashed_wal:
                wal.close()
        start = time.perf_counter()
        revived_wal = WriteAheadLog(root / f"batch{rounds - 1}" / "wal", fsync="batch")
        revived = SnapshotRegistry(store=GraphStore(root / f"batch{rounds - 1}" / "store"),
                                   wal=revived_wal)
        replayed = revived.recover()["e19"]["replayed"]
        recovery_seconds = time.perf_counter() - start
        same(replayed, count, "batches replayed at recovery")
        same(canonical_form(revived.current_epoch("e19").graph), live_form,
             "recovered vs never-crashed graph (canonical form)")
        revived_wal.close()
    overhead = (seconds["batch"] - bare_seconds) / bare_seconds
    on = (f"twitter_like_graph({nodes}, seed=0); {count} batches of one node "
          "and one edge")
    return [
        row("E19-overhead", "publishing through the WAL (fsync=batch) costs < 25%",
            on, f"batches/s through a bare registry vs WAL-backed ones; bare and "
            f"fsync=batch best of {rounds} alternating rounds, fresh directories "
            "each, the other policies one run",
            {"bare": round(count / bare_seconds, 1),
             **{f"fsync={p}": round(count / v, 1) for p, v in seconds.items()},
             "overhead": round(overhead, 3)},
            "overhead < 0.25", overhead < 0.25),
        row("E19-recovery", "recovering the whole WAL suffix takes < 5 s and "
            "restores the exact graph", on, "s, open + replay",
            {"seconds": round(recovery_seconds, 2), "replayed": replayed},
            "< 5 s", recovery_seconds < 5.0),
    ]


CLAIMS: dict[str, Callable[[bool], list[Row]]] = {
    "E4": e4, "E5": e5, "E6": e6, "E7": e7, "E8": e8, "E9": e9,
    "ABL-1": abl1, "ABL-2": abl2, "ABL-3": abl3,
    "E11": e11, "E11-attr": e11_attr, "E12": e12, "E13": e13, "E14": e14,
    "E15": e15, "E16": e16, "E17": e17, "E18": e18, "E19": e19,
}

COLUMNS = ("id", "claim", "workload", "metric", "measured", "threshold", "holds")


def render(value: object, nested: bool = False) -> str:
    if isinstance(value, dict):
        text = ", ".join(f"{key}{': ' if nested else '='}{render(item, True)}"
                         for key, item in value.items())
        return "{" + text + "}" if nested else text
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def markdown_line(cells: Sequence[object]) -> str:
    return "| " + " | ".join(render(c).replace("|", "\\|") for c in cells) + " |"


def main(argv: Sequence[str] | None = None,
         claims: dict[str, Callable[[bool], list[Row]]] = CLAIMS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("smoke", "full"), default="full")
    parser.add_argument("--json", type=Path, help="also write the rows here")
    args = parser.parse_args(argv)
    full = args.scale == "full"
    print(markdown_line(COLUMNS))
    print(markdown_line(["---"] * len(COLUMNS)))
    rows: list[Row] = []
    mismatches: list[str] = []
    for group, claim in claims.items():
        try:
            found = claim(full)
        except Mismatch as error:
            mismatches.append(f"{group}: {error}")
            found = [Row(group, "result identity", "", "", {}, "identical",
                         f"MISMATCH: {error}")]
        for entry in found:
            print(markdown_line([getattr(entry, c) for c in COLUMNS]), flush=True)
        rows.extend(found)
    if args.json:  # one row per line, so two runs diff row by row
        header = json.dumps({
            "scale": args.scale,
            "host": {"cpu_count": os.cpu_count(), "machine": platform.machine(),
                     "python": platform.python_version()},
            "mismatches": mismatches,
        })
        lines = ",\n".join(json.dumps(dataclasses.asdict(entry)) for entry in rows)
        args.json.write_text(f'{header[:-1]}, "rows": [\n{lines}\n]}}\n')
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
