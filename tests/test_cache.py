"""Unit tests for the query cache."""

import pytest

from repro.datasets.paper_example import EDGE_E1, paper_graph, paper_pattern
from repro.engine.cache import QueryCache, cache_key
from repro.engine.engine import QueryEngine
from repro.errors import CacheError
from repro.incremental.updates import AttributeUpdate, EdgeDeletion, EdgeInsertion
from repro.matching.base import MatchRelation
from repro.matching.bounded import match_bounded
from repro.pattern.builder import PatternBuilder


def relation(n=1) -> MatchRelation:
    return MatchRelation({"A": {f"v{i}" for i in range(n)}})


def key(graph="g", suffix="") -> tuple:
    pattern = PatternBuilder().node("A" + suffix).build()
    return cache_key(graph, pattern)


class TestBasics:
    def test_miss_then_hit(self):
        cache = QueryCache()
        assert cache.get(key()) is None
        cache.put(key(), relation())
        entry = cache.get(key())
        assert entry is not None
        assert entry.relation == relation()

    def test_stats_track_hits_and_misses(self):
        cache = QueryCache()
        cache.get(key())
        cache.put(key(), relation())
        cache.get(key())
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["size"] == 1

    def test_key_is_structural(self):
        """Two separately-built equal patterns share a cache slot."""
        assert cache_key("g", paper_pattern()) == cache_key("g", paper_pattern())

    def test_key_distinguishes_graphs(self):
        assert key("g1") != key("g2") or True  # same pattern, different name
        cache = QueryCache()
        cache.put(cache_key("g1", paper_pattern()), relation())
        assert cache.get(cache_key("g2", paper_pattern())) is None

    def test_contains_counts_nothing(self):
        # What explain asks: no hit, no miss, no LRU touch.
        cache = QueryCache()
        cache.put(key(), relation())
        assert key() in cache and key("other") not in cache
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_capacity_validation(self):
        with pytest.raises(CacheError):
            QueryCache(capacity=0)


class TestVersionValidation:
    """The caches carry no version: the engine keeps their entries exact,
    comparing Graph.version once, where it resolves the graph."""

    @pytest.fixture
    def engine(self):
        engine = QueryEngine()
        engine.register_graph("g", paper_graph())
        return engine

    def test_version_mismatch_drops_the_entry(self, engine):
        engine.evaluate("g", paper_pattern())
        assert cache_key("g", paper_pattern()) in engine._cache
        engine.graph("g").add_edge(*EDGE_E1)  # graph moved on: stale
        assert engine.explain("g", paper_pattern()).route == "direct"
        assert cache_key("g", paper_pattern()) not in engine._cache  # dropped
        result = engine.evaluate("g", paper_pattern())
        assert result.stats["route"] == "direct"
        assert result.relation == match_bounded(
            paper_graph(include_e1=True), paper_pattern()
        ).relation
        assert engine.stats()["resyncs"] == 1

    def test_stale_pinned_entry_is_dropped_too(self, engine):
        # A pinned entry whose maintainer never saw the mutation is just
        # as wrong as an unpinned one; staleness beats pinning.
        engine.pin("g", paper_pattern())
        engine.graph("g").add_edge(*EDGE_E1)
        result = engine.evaluate("g", paper_pattern(), cache_result=False)
        assert result.stats["route"] == "direct"
        assert engine.cache_stats()["pinned"] == 0
        assert result.relation == match_bounded(
            paper_graph(include_e1=True), paper_pattern()
        ).relation
        assert engine.stats()["resyncs"] == 1

    def test_put_refresh_updates_version(self, engine):
        engine.pin("g", paper_pattern())
        engine.update_graph("g", [EdgeInsertion(*EDGE_E1)])  # maintainer refresh
        record = engine._registered["g"]
        assert record.synced_version == engine.graph("g").version
        result = engine.evaluate("g", paper_pattern())
        assert result.stats["route"] == "cache"
        assert result.relation == match_bounded(
            paper_graph(include_e1=True), paper_pattern()
        ).relation
        assert engine.cache_stats()["pinned"] == 1
        assert engine.stats()["resyncs"] == 0


class TestEviction:
    def test_lru_eviction(self):
        cache = QueryCache(capacity=2)
        cache.put(key(suffix="1"), relation())
        cache.put(key(suffix="2"), relation())
        cache.get(key(suffix="1"))  # 1 is now most recent
        cache.put(key(suffix="3"), relation())
        assert cache.get(key(suffix="2")) is None
        assert cache.get(key(suffix="1")) is not None
        assert cache.stats()["evictions"] == 1

    def test_pinned_entries_survive_eviction(self):
        cache = QueryCache(capacity=1)
        cache.put(key(suffix="pinned"), relation(), pinned=True)
        cache.put(key(suffix="other"), relation())
        assert cache.get(key(suffix="pinned")) is not None

    def test_all_pinned_allows_overflow(self):
        cache = QueryCache(capacity=1)
        cache.put(key(suffix="1"), relation(), pinned=True)
        cache.put(key(suffix="2"), relation(), pinned=True)
        assert len(cache) == 2


class TestPinning:
    def test_pin_and_unpin(self):
        cache = QueryCache()
        cache.put(key(), relation())
        # Pinning is a put: it replaces the plain entry and attaches the
        # maintainer in one step (what QueryEngine.pin does).
        entry = cache.put(key(), relation(), pinned=True, maintainer="m")
        assert cache.stats()["pinned"] == 1 and entry.maintainer == "m"
        cache.unpin(key())
        assert cache.stats()["pinned"] == 0
        assert cache.get(key()).maintainer is None

    def test_unpin_missing_raises(self):
        with pytest.raises(CacheError):
            QueryCache().unpin(key())

    def test_put_refresh_keeps_pin(self):
        cache = QueryCache()
        cache.put(key(), relation(1), pinned=True, maintainer="m")
        cache.put(key(), relation(2))  # refresh with new relation
        entry = cache.get(key())
        assert entry.pinned
        assert entry.maintainer == "m"
        assert entry.relation == relation(2)

    def test_pinned_entries_by_graph(self):
        cache = QueryCache()
        cache.put(cache_key("g1", paper_pattern()), relation(), pinned=True)
        cache.put(cache_key("g2", paper_pattern()), relation(), pinned=True)
        assert len(cache.pinned_entries("g1")) == 1


class TestInvalidation:
    def test_invalidate_graph_drops_unpinned(self):
        cache = QueryCache()
        cache.put(cache_key("g1", paper_pattern()), relation())
        cache.put(key("g1", suffix="x"), relation())
        dropped = cache.invalidate_graph("g1")
        assert dropped == 2
        assert len(cache) == 0

    def test_invalidate_graph_keeps_pinned_by_default(self):
        cache = QueryCache()
        cache.put(key("g1", suffix="p"), relation(), pinned=True)
        cache.put(key("g1", suffix="u"), relation())
        assert cache.invalidate_graph("g1") == 1
        assert len(cache) == 1

    def test_invalidate_can_drop_pinned_too(self):
        cache = QueryCache()
        cache.put(key("g1", suffix="p"), relation(), pinned=True)
        cache.invalidate_graph("g1", keep_pinned=False)
        assert len(cache) == 0

    def test_invalidate_other_graph_untouched(self):
        cache = QueryCache()
        cache.put(key("g1"), relation())
        cache.put(key("g2"), relation())
        cache.invalidate_graph("g1")
        assert cache.get(key("g2")) is not None

    def test_clear(self):
        cache = QueryCache()
        cache.put(key(), relation())
        cache.clear()
        assert len(cache) == 0

    def test_hit_counter_per_entry(self):
        cache = QueryCache()
        cache.put(key(), relation())
        cache.get(key())
        cache.get(key())
        assert cache.get(key()).hits == 3


class TestOracleCache:
    """The engine's per-graph distance oracle: exact for the record's
    ``synced_version`` like the frozen snapshot, and kept in place across
    distance-preserving updates."""

    COLD = dict(use_cache=False, cache_result=False)

    @pytest.fixture
    def engine(self):
        engine = QueryEngine()
        engine.register_graph("g", paper_graph())
        engine.enable_oracle("g")
        return engine

    def test_miss_then_hit_with_matching_version(self, engine):
        assert engine.oracle_cache_stats()["size"] == 0
        engine.evaluate("g", paper_pattern(), **self.COLD)
        labels = engine._registered["g"].oracle
        engine.evaluate("g", paper_pattern(), **self.COLD)
        assert engine._registered["g"].oracle is labels
        stats = engine.oracle_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["builds"] == 1 and stats["size"] == 1
        assert "capacity" not in stats

    def test_version_mismatch_drops_the_entry(self, engine):
        engine.evaluate("g", paper_pattern(), **self.COLD)
        stale = engine._registered["g"].oracle
        engine.graph("g").add_edge(*EDGE_E1)  # out-of-band: labels are wrong now
        assert engine.oracle_stats("g")["state"] == "cold"
        result = engine.evaluate("g", paper_pattern(), **self.COLD)
        assert engine._registered["g"].oracle is not stale
        stats = engine.oracle_cache_stats()
        assert stats["invalidations"] == 1 and stats["builds"] == 2
        assert engine.stats()["resyncs"] == 1
        assert result.relation == match_bounded(
            paper_graph(include_e1=True), paper_pattern()
        ).relation

    def test_refresh_version_extends_validity(self, engine):
        engine.evaluate("g", paper_pattern(), **self.COLD)
        labels = engine._registered["g"].oracle
        before = engine.graph("g").version
        engine.update_graph("g", [AttributeUpdate("Bob", "experience", 9)])
        record = engine._registered["g"]
        assert record.oracle is labels
        assert record.synced_version == engine.graph("g").version > before
        assert engine.oracle_cache_stats()["refreshes"] == 1
        result = engine.evaluate("g", paper_pattern(), **self.COLD)
        assert engine.oracle_cache_stats()["builds"] == 1  # no rebuild
        assert engine.stats()["resyncs"] == 0
        assert result.relation == match_bounded(
            engine.graph("g"), paper_pattern()
        ).relation

    def test_refresh_of_absent_entry_is_a_noop(self, engine):
        engine.update_graph("g", [AttributeUpdate("Bob", "experience", 9)])
        stats = engine.oracle_cache_stats()
        assert stats["refreshes"] == 0 and stats["size"] == 0
        assert engine.oracle_stats("g")["state"] == "cold"

    def test_refresh_never_revives_stale_labels(self, engine):
        """A distance-preserving batch arriving *after* an out-of-band
        structural write must not re-stamp the outdated labels."""
        engine.evaluate("g", paper_pattern(), **self.COLD)
        engine.graph("g").add_edge(*EDGE_E1)
        engine.update_graph("g", [AttributeUpdate("Bob", "experience", 9)])
        assert engine.oracle_stats("g")["state"] == "cold"
        assert engine.oracle_cache_stats()["refreshes"] == 0
        result = engine.evaluate("g", paper_pattern(), **self.COLD)
        assert result.relation == match_bounded(
            engine.graph("g"), paper_pattern()
        ).relation

    def test_invalidate_graph(self, engine):
        engine.evaluate("g", paper_pattern(), **self.COLD)
        engine.update_graph("g", [EdgeInsertion(*EDGE_E1)])  # structural
        assert engine._registered["g"].oracle is None
        assert engine.oracle_cache_stats()["invalidations"] == 1
        engine.update_graph("g", [EdgeDeletion(*EDGE_E1)])   # nothing held
        assert engine.oracle_cache_stats()["invalidations"] == 1

    def test_peek_skips_stats(self, engine):
        """Introspection (oracle_stats, explain) reads the held labels
        without counting a hit or building a cold one; what an out-of-band
        write killed it may drop, never rebuild."""
        engine.oracle_stats("g")
        engine.explain("g", paper_pattern())
        assert engine._registered["g"].oracle is None  # still cold
        engine.evaluate("g", paper_pattern(), **self.COLD)
        before = engine.oracle_cache_stats()
        assert engine.oracle_stats("g")["state"] == "warm"
        engine.explain("g", paper_pattern())
        assert engine.oracle_cache_stats() == before
        engine.graph("g").add_edge(*EDGE_E1)
        assert engine.oracle_stats("g")["state"] == "cold"
        engine.explain("g", paper_pattern())
        assert engine._registered["g"].oracle is None  # dropped, not rebuilt
        assert engine.stats()["resyncs"] == 1
        after = engine.oracle_cache_stats()
        assert after == {**before, "size": 0, "invalidations": 1}
