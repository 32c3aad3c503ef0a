"""Seeded generation of the four named workloads.

A workload is a graph plus the operations a client issues against it.
The graph is part of the workload's *definition* (fixed generator seed):
the driver compares runs made with different ``--seed`` values, and a
fresh random graph per seed moves every latency by far more than the
regression bounds (the hub structure of a 3 000-node preferential
attachment graph alone shifts miss latency by tens of percent).  What
``--seed`` draws is the request stream — which predicates, in which
order, which edges and attributes are updated — by *stratified* sampling:
every seed issues the same number of operations from every stratum, so
work counts repeat exactly for one seed and stay comparable across seeds.

``random.Random`` instances derived from the seed are the only source of
randomness; nothing here reads a clock or the global RNG.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.graph.digraph import Graph
from repro.graph.generators import collaboration_graph, twitter_like_graph
from repro.graph.io import save_graph

GRAPH_NAME = "g"
WORKLOADS = ("serve_cold", "serve_hot", "serve_mixed_durable", "embedded_dynamic")
SCALES = ("full", "smoke")

#: The five topologies of ``repro.datasets.queries`` as field-to-field
#: edges; ``SA`` is always the output node.
TOPOLOGIES: dict[str, tuple[tuple[str, str], ...]] = {
    "star": (("SA", "SD"), ("SA", "BA"), ("SA", "ST")),
    "chain": (("SA", "SD"), ("SD", "ST"), ("ST", "UX")),
    "diamond": (("SA", "SD"), ("SA", "BA"), ("SD", "ST"), ("BA", "ST")),
    "cycle": (("SA", "ST"), ("ST", "SA")),
    "reach": (("SA", "DS"),),
}

#: Graph sizes per scale.  ``full`` is sized so that, on the 2-core
#: reference box, the measured phase of each workload lasts about
#: ``--seconds`` (12) and a whole run, set-ups and verification included,
#: stays under 25 s; ``smoke`` is for the tier-1 test.
NODES = {
    "full": {
        "serve_cold": 4000,
        "serve_hot": 20000,
        "serve_mixed_durable": 10000,
        "embedded_dynamic": 4000,
    },
    "smoke": {
        "serve_cold": 300,
        "serve_hot": 400,
        "serve_mixed_durable": 300,
        "embedded_dynamic": 300,
    },
}
GRAPH_SEED = 7

#: serve_cold strata: (topology, bounds per edge, evaluate share, topk share).
#: Shallow bounds route to the per-source kernel, bounds past the oracle
#: cap and ``*`` to the bitset kernel, selective shallow edges to the
#: oracle.  Top-K draws only from shallow stars: their ranking costs
#: overlap (one mode, so the median is not a coin toss between two
#: strata) and stay ~0.1 s, where deep diamonds and chains rank for tens
#: of seconds on this graph.
_COLD_STRATA: tuple[tuple[str, tuple[int | None, ...], int, int], ...] = (
    ("star", (2, 2, 3), 8, 16),
    ("star", (2, 2, 2), 0, 16),
    ("star", (2, 3, 2), 0, 16),
    ("star", (2, None, 6), 8, 0),
    ("star", (6, 6, 7), 8, 0),
    ("star", (None, None, None), 8, 0),
    ("diamond", (2, 3, 1, 2), 8, 0),
    ("diamond", (2, 6, 2, None), 8, 0),
    ("cycle", (2, 2), 8, 0),
    ("cycle", (2, None), 8, 0),
    ("cycle", (6, 6), 8, 0),
    ("cycle", (None, None), 8, 0),
    ("chain", (2, 2, 3), 8, 0),
    ("reach", (2,), 8, 0),
    ("reach", (4,), 8, 0),
    ("reach", (6,), 8, 0),
    ("reach", (None,), 8, 0),
)

#: serve_hot working set: 8 evaluate + 2 topk entries, all bounded so the
#: untimed warm-up and the twin check stay cheap on the 20 000-node graph.
_HOT_EVALUATE: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("star", (2, 2, 3)),
    ("star", (1, 2, 2)),
    ("chain", (2, 2, 3)),
    ("chain", (1, 2, 2)),
    ("diamond", (2, 3, 1, 2)),
    ("diamond", (2, 2, 2, 1)),
    ("cycle", (2, 2)),
    ("reach", (3,)),
)
_HOT_TOPK: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("star", (2, 2, 2)),
    ("diamond", (1, 2, 1, 2)),
)

#: serve_mixed_durable read set: selective patterns, so the misses that
#: follow every publish stay cheap beside the publish itself.
_MIXED_READS: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("cycle", (2, 2)),
    ("cycle", (1, 2)),
    ("reach", (3,)),
    ("reach", (2,)),
)


#: embedded_dynamic: the three queries pinned (incrementally maintained).
_EMBEDDED_PINNED: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("star", (2, 2, 3)),
    ("diamond", (2, 3, 1, 2)),
    ("cycle", (2, 2)),
)


@dataclass
class Workload:
    """One generated workload: the graph, launcher options and operations."""

    name: str
    seed: int
    scale: str
    graph: Graph
    #: launcher options (oracle, WAL, checkpoint cadence, pinned queries)
    options: dict[str, Any]
    #: untimed requests that fill the epoch caches before the measured phase
    warmup: list[dict[str, Any]] = field(default_factory=list)
    #: one closed-loop operation list per connection (one list when embedded)
    streams: list[list[dict[str, Any]]] = field(default_factory=list)
    #: serve_mixed_durable: publishes issued after the last in-run checkpoint
    tail: list[dict[str, Any]] = field(default_factory=list)
    #: SHA-256 of the graph file, set by :meth:`save_graph`
    graph_sha: str = ""

    def save_graph(self, path: Path) -> None:
        """Write the graph file the program loads; its bytes enter the digest."""
        save_graph(self.graph, path)
        self.graph_sha = hashlib.sha256(path.read_bytes()).hexdigest()

    def digest(self) -> str:
        """SHA-256 over everything the program receives: graph file and operations."""
        payload = {
            "graph": self.graph_sha,
            "name": self.name,
            "scale": self.scale,
            "options": self.options,
            "warmup": self.warmup,
            "streams": self.streams,
            "tail": self.tail,
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()


def pattern_text(
    topology: str,
    bounds: tuple[int | None, ...],
    out_cut: int,
    cuts: dict[str, int],
    predicates: bool = True,
) -> str:
    """The parser's text form of one library topology.

    ``out_cut`` is the output node's ``experience >=`` cut-off, ``cuts``
    the other nodes'; ``predicates=False`` keeps only the ``field`` test
    (the form the compressed route of the embedded engine can answer).
    """
    edges = TOPOLOGIES[topology]
    lines = []
    for node in _nodes_of(topology):
        star = "*" if node == "SA" else ""
        condition = f'field == "{node}"'
        if predicates:
            cut = out_cut if node == "SA" else cuts[node]
            condition = f"experience >= {cut}, {condition}"
        lines.append(f"node {node}{star} : {condition}")
    for (source, target), bound in zip(edges, bounds):
        lines.append(f"edge {source} -> {target} : {'*' if bound is None else bound}")
    return "\n".join(lines) + "\n"


def _stratum(topology: str, bounds: tuple[int | None, ...]) -> str:
    return topology + "/" + ",".join("*" if b is None else str(b) for b in bounds)


class _PatternSampler:
    """Distinct patterns per stratum with an evenly spread output cut-off."""

    def __init__(self, rng: random.Random, low: int, high: int, other: tuple[int, ...]):
        self.rng = rng
        self.low = low
        self.span = high - low + 1
        self.other = other
        self.seen: set[str] = set()

    def cuts(self, count: int) -> list[int]:
        """``count`` output cut-offs covering the range evenly, in seeded order.

        The output cut-off decides how many candidates a query starts
        from, i.e. most of its cost, so every seed uses each value equally
        often and only draws where it goes.
        """
        out_cuts = [self.low + index % self.span for index in range(count)]
        self.rng.shuffle(out_cuts)
        return out_cuts

    def draw(
        self, topology: str, bounds: tuple[int | None, ...], out_cuts: list[int]
    ) -> list[str]:
        """One unseen pattern per output cut-off; the seed picks the other cut-offs."""
        others = [node for node in _nodes_of(topology) if node != "SA"]
        texts = []
        for out_cut in out_cuts:
            choices = list(self.other)
            while True:
                cuts = {node: self.rng.choice(choices) for node in others}
                text = pattern_text(topology, bounds, out_cut, cuts)
                if text not in self.seen:
                    break
                # a small stratum can run out of unseen combinations on
                # long runs: widen the cut-off range instead of looping
                choices.append(choices[-1] + 1)
            self.seen.add(text)
            texts.append(text)
        return texts

    def deal(self, slots: Sequence[tuple[str, tuple[int, ...]]]) -> list[tuple[str, str]]:
        """One ``(stratum, pattern)`` per slot, the cut-offs dealt over the slots."""
        return [
            (_stratum(topology, bounds), self.draw(topology, bounds, [out_cut])[0])
            for (topology, bounds), out_cut in zip(slots, self.cuts(len(slots)))
        ]


def _fixed_sampler(
    workload: "Workload", low: int, high: int, other: tuple[int, ...]
) -> _PatternSampler:
    """Sampler for the parts of a workload that no seed may move.

    The hot working set, the mixed reader's patterns and the pinned
    queries decide reply sizes and maintenance cost; drawn from the seed
    they moved every metric by 10-15% between seeds.  They are drawn from
    the workload's name instead, and the seed draws the request stream.
    """
    return _PatternSampler(random.Random(workload.name), low, high, other)


def _nodes_of(topology: str) -> list[str]:
    nodes: list[str] = []
    for edge in TOPOLOGIES[topology]:
        for node in edge:
            if node not in nodes:
                nodes.append(node)
    return nodes


def _scaled(base: int, seconds: float) -> int:
    """Operation count for a run meant to measure ``seconds`` (base is for 12)."""
    return max(1, round(base * seconds / 12)) if base else 0


def _evaluate(text: str, stratum: str) -> dict[str, Any]:
    return {"op": "evaluate", "pattern": text, "stratum": stratum}


def _topk(text: str, stratum: str, k: int = 10) -> dict[str, Any]:
    return {"op": "topk", "pattern": text, "k": k, "stratum": stratum}


class _UpdateSampler:
    """Seeded update primitives that are always applicable in sequence.

    Tracks the edge set of a scratch copy so no generated operation fails:
    insertions pick a missing edge, deletions an existing one.
    """

    def __init__(self, rng: random.Random, graph: Graph) -> None:
        self.rng = rng
        self.nodes = sorted(graph.nodes())
        self.edges = sorted(graph.edges())
        self.present = set(self.edges)

    def add_edge(self) -> dict[str, Any]:
        while True:
            source, target = self.rng.sample(self.nodes, 2)
            if (source, target) not in self.present:
                break
        self.present.add((source, target))
        self.edges.append((source, target))
        return {"op": "add-edge", "source": source, "target": target}

    def remove_edge(self) -> dict[str, Any]:
        index = self.rng.randrange(len(self.edges))
        self.edges[index], self.edges[-1] = self.edges[-1], self.edges[index]
        source, target = self.edges.pop()
        self.present.discard((source, target))
        return {"op": "remove-edge", "source": source, "target": target}

    def set_attr(self) -> dict[str, Any]:
        return {
            "op": "set-attr",
            "node": self.rng.choice(self.nodes),
            "attr": "experience",
            "value": self.rng.randint(1, 15),
        }

    def batch(self, size: int) -> list[dict[str, Any]]:
        """One publish batch: ~40% set-attr, ~30% add-edge, ~30% remove-edge."""
        makers = (self.set_attr, self.add_edge, self.remove_edge)
        return [
            self.rng.choices(makers, weights=(4, 3, 3))[0]() for _ in range(size)
        ]


def _graph(name: str, scale: str) -> Graph:
    nodes = NODES[scale][name]
    if name == "serve_cold":
        return twitter_like_graph(nodes, seed=GRAPH_SEED, name=GRAPH_NAME)
    return collaboration_graph(nodes, seed=GRAPH_SEED, name=GRAPH_NAME)


def build(name: str, seed: int, seconds: float = 12.0, scale: str = "full") -> Workload:
    """Generate workload ``name`` for ``seed``.

    ``seconds`` scales the *number of operations* (not a deadline), so a
    given ``(seed, seconds, scale)`` always issues exactly the same work.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r} (one of {', '.join(WORKLOADS)})")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r} (one of {', '.join(SCALES)})")
    rng = random.Random(f"{name}:{seed}")
    graph = _graph(name, scale)
    smoke = scale == "smoke"
    builder = {
        "serve_cold": _serve_cold,
        "serve_hot": _serve_hot,
        "serve_mixed_durable": _serve_mixed_durable,
        "embedded_dynamic": _embedded_dynamic,
    }[name]
    workload = Workload(name=name, seed=seed, scale=scale, graph=graph, options={})
    builder(workload, rng, seconds, smoke)
    return workload


def _serve_cold(workload: Workload, rng: random.Random, seconds: float, smoke: bool) -> None:
    # cap=4: bounds <= 4 may use label merges, deeper ones and '*' cannot,
    # so one run exercises the per-source, bitset and oracle row kernels.
    workload.options = {"oracle": {"cap": 4}}
    sampler = _PatternSampler(rng, low=3, high=10, other=(1, 2, 3))
    ops = []
    for topology, bounds, evaluate_share, topk_share in _COLD_STRATA:
        stratum = _stratum(topology, bounds)
        evaluates = min(evaluate_share, 1) if smoke else _scaled(evaluate_share, seconds)
        topks = min(topk_share, 1) if smoke else _scaled(topk_share, seconds)
        for text in sampler.draw(topology, bounds, sampler.cuts(evaluates)):
            ops.append(_evaluate(text, stratum))
        for text in sampler.draw(topology, bounds, sampler.cuts(topks)):
            ops.append(_topk(text, stratum))
    rng.shuffle(ops)
    workload.streams = [ops]


def _serve_hot(workload: Workload, rng: random.Random, seconds: float, smoke: bool) -> None:
    workload.options = {"oracle": None}
    fixed = _fixed_sampler(workload, low=4, high=7, other=(1, 2))
    working_set = [_evaluate(text, stratum) for stratum, text in fixed.deal(_HOT_EVALUATE)]
    working_set += [_topk(text, stratum) for stratum, text in fixed.deal(_HOT_TOPK)]
    workload.warmup = list(working_set)
    # Each connection issues whole seeded permutations of the working set,
    # so every entry is requested equally often whatever the seed.
    cycles = 3 if smoke else _scaled(144, seconds)
    for _connection in range(2):
        stream: list[dict[str, Any]] = []
        for _cycle in range(cycles):
            stream.extend(rng.sample(working_set, len(working_set)))
        workload.streams.append(stream)


def _serve_mixed_durable(workload: Workload, rng: random.Random, seconds: float, smoke: bool) -> None:
    # 8, not the service's default 64: a checkpoint overlaps about two
    # publishes, so a quarter of them carry a stall and the p90 sits inside
    # that group instead of on its edge
    checkpoint_every = 4 if smoke else 8
    workload.options = {
        "oracle": None,
        "wal": True,
        "fsync": "batch",
        "checkpoint_every": checkpoint_every,
    }
    selective = _fixed_sampler(workload, low=12, high=15, other=(8, 9, 10))
    reads = [_evaluate(text, stratum) for stratum, text in selective.deal(_MIXED_READS)]
    workload.warmup = list(reads)
    updates = _UpdateSampler(rng, workload.graph)
    # One connection alternates: publish a batch, then ask the four
    # patterns twice — four misses on the fresh epoch, four hits.  (A
    # second connection reading *while* the writer computes is how the
    # service is used, but its throughput is not measurable: the reader
    # waits out 0, 1 or 2 interpreter switch intervals per request
    # depending on who wins the lock after each syscall, and identical
    # runs landed on 50, 70 or 260 reads/s.)  The checkpointer thread
    # still runs beside the requests.
    rounds = (2 if smoke else _scaled(6, seconds)) * checkpoint_every
    ops: list[dict[str, Any]] = []
    for _round in range(rounds):
        ops.append({"op": "update", "updates": updates.batch(4)})
        ops.extend(reads + reads)
    workload.streams = [ops]
    # shorter than a checkpoint interval: exactly what recovery replays
    workload.tail = [
        {"op": "update", "updates": updates.batch(4)} for _ in range(checkpoint_every - 1)
    ]


def _embedded_dynamic(workload: Workload, rng: random.Random, seconds: float, smoke: bool) -> None:
    sampler = _PatternSampler(rng, low=5, high=8, other=(1, 2, 3))
    fixed = _fixed_sampler(workload, low=5, high=7, other=(2,))
    pinned = [text for _stratum_name, text in fixed.deal(_EMBEDDED_PINNED)]
    field_only = [
        pattern_text("chain", (2, 2, 3), 0, {}, predicates=False),
        pattern_text("diamond", (2, 2, 1, 2), 0, {}, predicates=False),
    ]
    workload.options = {"pinned": pinned, "compress": ["field"], "field_only": field_only}
    updates = _UpdateSampler(rng, workload.graph)
    rounds = 3 if smoke else _scaled(40, seconds)
    fresh_chains = sampler.draw("chain", (2, 2, 3), sampler.cuts(rounds))
    fresh_stars = sampler.draw("star", (2, 2, 2), sampler.cuts(rounds))
    ops: list[dict[str, Any]] = []
    for fresh in zip(fresh_chains, fresh_stars):
        for _update in range(10):
            maker = rng.choice((updates.add_edge, updates.remove_edge))
            ops.append({"op": "update", "updates": [maker()]})
        # 2 pinned (cache route), 2 field-only (compressed route), 2 fresh
        # (direct route, which also pays the re-freeze after the updates).
        ops.append({"op": "batch", "patterns": pinned[:2] + field_only + list(fresh)})
        ops.append(_topk(pinned[0], "pinned"))
    workload.streams = [ops]
