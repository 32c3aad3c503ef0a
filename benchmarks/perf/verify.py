"""Answer verification against a twin graph, outside every timed window.

The twin is the benchmark's own copy of the generated graph, advanced by
replaying the same update batches.  Expected relations come from
``match_bounded`` run *without* a frozen snapshot or oracle (the plain
dict-graph path), or — at smoke scale — from the naive reference matcher
of ``repro.matching.reference``; what is compared is the SHA-256 of the
canonical (key-sorted) relation JSON.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable

from repro.graph.digraph import Graph
from repro.incremental.updates import decompose
from repro.matching.bounded import match_bounded
from repro.matching.reference import naive_bounded
from repro.pattern.parser import parse_pattern
from repro.ranking.topk import RankingContext, bulk_top_k_detail
from repro.server.wire import decode_updates, encode_ranked, encode_relation


class Checker:
    """Counts checks attempted and failed; keeps the first few messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(message)


def canonical_digest(payload: Any) -> str:
    """SHA-256 of the key-sorted JSON form of a reply fragment."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def expected_relation(graph: Graph, text: str, reference: bool = False) -> str:
    """Canonical digest of ``M(Q,G)`` as the service should encode it."""
    pattern = parse_pattern(text)
    if reference:
        relation = naive_bounded(graph, pattern)
    else:
        relation = match_bounded(graph, pattern).relation
    return canonical_digest(encode_relation(relation))


def expected_ranking(graph: Graph, text: str, k: int) -> str:
    """Canonical digest of the top-``k`` reply rows for ``text``."""
    result = match_bounded(graph, parse_pattern(text))
    ranked = bulk_top_k_detail(RankingContext(result.result_graph()), k)
    return canonical_digest(encode_ranked(ranked))


def apply_batches(graph: Graph, batches: Iterable[list[dict[str, Any]]]) -> None:
    """Replay wire-format update batches on the twin, as the service does."""
    for batch in batches:
        for update in decode_updates({"updates": batch}):
            for primitive in decompose(graph, update):
                primitive.apply(graph)
