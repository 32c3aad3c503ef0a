"""The query-result cache with user-pinned entries.

§II: "Upon receiving a pattern query Q, the query engine directly returns
M(Q,G) if it is already cached" and the incremental module "maintains the
query results of a set of frequently issued queries (decided by the users)".
Those two sentences define this module:

* plain entries live in an LRU cache keyed by (graph, pattern structure);
  any graph update invalidates them (the owner's job — neither cache
  carries a version);
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
    """One cached result; ``maintainer`` is set only for pinned entries."""

    relation: MatchRelation
    pinned: bool = False
    maintainer: Any = None
    hits: int = 0


class QueryCache:
    """LRU cache of match relations with pin support.

    The cache knows nothing about graph versions: whoever owns it keeps
    its entries exact for the graph they answer for.  ``QueryEngine``
    does so in one place (``_entry`` drops every entry of a graph — pinned
    or not — when it finds a write that bypassed ``update_graph``); an
    epoch's graph never changes.

    Structural operations hold an internal lock: the query service shares
    one cache per snapshot epoch across reader threads, and a check-then-
    delete sequence (eviction, invalidation) torn between two threads
    would raise ``KeyError`` from inside the cache.

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

    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> CacheEntry | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            entry.hits += 1
            self._hits += 1
            return entry

    def put(
        self,
        key: CacheKey,
        relation: MatchRelation,
        pinned: bool = False,
        maintainer: Any = None,
    ) -> CacheEntry:
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None and existing.pinned and not pinned:
                # Refreshing a pinned entry's relation must not unpin it.
                existing.relation = relation
                self._entries.move_to_end(key)
                return existing
            entry = CacheEntry(relation=relation, pinned=pinned, maintainer=maintainer)
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
        # What explain asks ("would the cache route serve this?"): no LRU
        # touch, no hit counted.
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
            "pinned": sum(1 for e in self._entries.values() if e.pinned),
        }


@dataclass
class RankEntry:
    """One cached ranking context."""

    context: Any  # repro.ranking.topk.RankingContext
    hits: int = 0


class RankCache:
    """LRU cache of bulk-ranking contexts, keyed alongside the query cache.

    A ranked result is heavier than a match relation — the context holds a
    result-graph snapshot plus memoized Dijkstra runs — so it gets its own
    (smaller) LRU rather than riding in :class:`QueryCache`.  Keys are the
    same ``(graph name, canonical pattern)`` tuples, and validity is the
    owner's business exactly as for :class:`QueryCache`: an engine update
    drops a graph's contexts except the ones its pinned-query re-ranking
    path refreshed in place.

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
        self._invalidations = 0

    def get(self, key: CacheKey) -> RankEntry | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            entry.hits += 1
            self._hits += 1
            return entry

    def peek(self, key: CacheKey) -> RankEntry | None:
        """Raw access without LRU touch or stats (maintenance paths)."""
        return self._entries.get(key)

    def put(self, key: CacheKey, context: Any) -> RankEntry:
        with self._lock:
            entry = RankEntry(context=context)
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
            "invalidations": self._invalidations,
        }
