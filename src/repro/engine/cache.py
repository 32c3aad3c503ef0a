"""The query-result cache with user-pinned entries.

§II: "Upon receiving a pattern query Q, the query engine directly returns
M(Q,G) if it is already cached" and the incremental module "maintains the
query results of a set of frequently issued queries (decided by the users)".
Those two sentences define this module:

* plain entries live in an LRU cache keyed by (graph, pattern structure);
  any graph update invalidates them;
* *pinned* entries are exempt from eviction and survive updates — the
  engine attaches an incremental maintainer to each and refreshes the
  cached relation in place.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.errors import CacheError
from repro.matching.base import MatchRelation
from repro.pattern.pattern import Pattern

CacheKey = tuple[str, tuple]


def cache_key(graph_name: str, pattern: Pattern) -> CacheKey:
    """Structural cache key: graph identity + canonical pattern form."""
    return (graph_name, pattern.canonical_key())


@dataclass
class CacheEntry:
    """One cached result; ``maintainer`` is set only for pinned entries.

    ``graph_version`` records ``Graph.version`` at the moment the relation
    was computed (or last refreshed, for pinned entries); reads validate
    against it, so results can never outlive the graph state they answer
    for — even when a mutation bypasses the engine's update path.
    """

    relation: MatchRelation
    graph_version: int
    pinned: bool = False
    maintainer: Any = None
    hits: int = 0


class QueryCache:
    """LRU cache of match relations with pin support.

    Reads are validated against ``Graph.version`` exactly like
    :class:`RankCache`: :meth:`get` with a version other than the one
    recorded at :meth:`put` time drops the entry (pinned or not — a
    pinned entry's maintainer never saw the out-of-band mutation either,
    so its relation is just as unreliable) and reports a miss.

    Structural operations hold an internal lock: the query service shares
    one cache per snapshot epoch across reader threads, and a check-then-
    delete sequence (stale drop, eviction) torn between two threads would
    raise ``KeyError`` from inside the cache.

    >>> cache = QueryCache(capacity=2)
    >>> cache.stats()["size"]
    0
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise CacheError(f"capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._stale_drops = 0

    # ------------------------------------------------------------------
    def get(self, key: CacheKey, graph_version: int) -> CacheEntry | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            if entry.graph_version != graph_version:
                # Out-of-band mutation (a write that bypassed update_graph):
                # the relation answers for a graph that no longer exists.
                del self._entries[key]
                self._stale_drops += 1
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            entry.hits += 1
            self._hits += 1
            return entry

    def fresh(self, key: CacheKey, graph_version: int) -> bool:
        """Non-mutating version-aware lookup for planning/explain paths.

        Unlike :meth:`get` this neither drops a stale entry nor touches
        the LRU order or hit counters, so ``explain`` can ask "would the
        cache route serve this?" without perturbing the cache it is
        describing.
        """
        entry = self._entries.get(key)
        return entry is not None and entry.graph_version == graph_version

    def put(
        self,
        key: CacheKey,
        relation: MatchRelation,
        graph_version: int,
        pinned: bool = False,
        maintainer: Any = None,
    ) -> CacheEntry:
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None and existing.pinned and not pinned:
                # Refreshing a pinned entry's relation must not unpin it.
                existing.relation = relation
                existing.graph_version = graph_version
                self._entries.move_to_end(key)
                return existing
            entry = CacheEntry(
                relation=relation,
                graph_version=graph_version,
                pinned=pinned,
                maintainer=maintainer,
            )
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self._evict_if_needed()
            return entry

    def _evict_if_needed(self) -> None:
        while len(self._entries) > self.capacity:
            victim = next(
                (k for k, e in self._entries.items() if not e.pinned), None
            )
            if victim is None:
                return  # everything is pinned; allow overflow rather than drop
            del self._entries[victim]
            self._evictions += 1

    # ------------------------------------------------------------------
    def unpin(self, key: CacheKey) -> None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                raise CacheError("cannot unpin a result that is not cached")
            entry.pinned = False
            entry.maintainer = None
            self._evict_if_needed()

    def pinned_entries(self, graph_name: str) -> list[tuple[CacheKey, CacheEntry]]:
        """All pinned entries for one graph (the update path walks these)."""
        with self._lock:
            return [
                (key, entry)
                for key, entry in self._entries.items()
                if entry.pinned and key[0] == graph_name
            ]

    def invalidate_graph(self, graph_name: str, keep_pinned: bool = True) -> int:
        """Drop entries of a graph (pinned ones survive by default)."""
        with self._lock:
            doomed = [
                key
                for key, entry in self._entries.items()
                if key[0] == graph_name and not (keep_pinned and entry.pinned)
            ]
            for key in doomed:
                del self._entries[key]
            self._invalidations += len(doomed)
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "invalidations": self._invalidations,
            "stale_drops": self._stale_drops,
            "pinned": sum(1 for e in self._entries.values() if e.pinned),
        }


@dataclass
class RankEntry:
    """One cached ranking context, valid for exactly one graph version."""

    context: Any  # repro.ranking.topk.RankingContext
    graph_version: int
    hits: int = 0


class RankCache:
    """LRU cache of bulk-ranking contexts, keyed alongside the query cache.

    A ranked result is heavier than a match relation — the context holds a
    result-graph snapshot plus memoized Dijkstra runs — so it gets its own
    (smaller) LRU rather than riding in :class:`QueryCache`.  Keys are the
    same ``(graph name, canonical pattern)`` tuples; validity is checked
    against ``Graph.version`` on every read, so *any* mutation of the
    underlying graph (through the engine or out-of-band) invalidates the
    entry — except entries the engine refreshes in place through its
    pinned-query re-ranking path, which advances ``graph_version``.

    >>> cache = RankCache(capacity=2)
    >>> cache.stats()["size"]
    0
    """

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise CacheError(f"capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[CacheKey, RankEntry]" = OrderedDict()
        # Same locking rationale as QueryCache: epoch-shared across the
        # query service's reader threads.
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._stale_drops = 0
        self._invalidations = 0

    def get(self, key: CacheKey, graph_version: int) -> RankEntry | None:
        """The entry for ``key`` iff it matches ``graph_version``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            if entry.graph_version != graph_version:
                del self._entries[key]
                self._stale_drops += 1
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            entry.hits += 1
            self._hits += 1
            return entry

    def peek(self, key: CacheKey) -> RankEntry | None:
        """Raw access without version checks or stats (maintenance paths)."""
        return self._entries.get(key)

    def put(self, key: CacheKey, context: Any, graph_version: int) -> RankEntry:
        with self._lock:
            entry = RankEntry(context=context, graph_version=graph_version)
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            return entry

    def invalidate_graph(
        self, graph_name: str, keep: "set[CacheKey] | None" = None
    ) -> int:
        """Drop a graph's entries, except those in ``keep`` (refreshed ones)."""
        with self._lock:
            doomed = [
                key
                for key in self._entries
                if key[0] == graph_name and (keep is None or key not in keep)
            ]
            for key in doomed:
                del self._entries[key]
            self._invalidations += len(doomed)
            return len(doomed)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self._hits,
            "misses": self._misses,
            "stale_drops": self._stale_drops,
            "invalidations": self._invalidations,
        }
