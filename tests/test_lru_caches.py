"""One LRU policy per cache: the contract ``docs/caching.md`` states.

Every cache the engine keeps is a plain least-recently-used cache with a
fixed bound — plan count, region bytes, path-index bytes.  Each insert is
admitted, a lookup refreshes recency, the oldest entries go first when the
bound is reached, and ``load()`` starts every cache empty.  The region and
plan caches are also checked step by step against a reference
``OrderedDict`` model over random operation sequences.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.plan_cache import PlanCache
from repro.engine.region_cache import (
    RegionCache,
    RegionCacheStats,
    make_region_cache,
)
from repro.engine.turbo_engine import TurboHomPPEngine
from repro.graph.labeled_graph import GraphBuilder
from repro.graph.reachability import (
    PathIndexManager,
    ReachabilityIndex,
    bfs_reachable,
)
from repro.matching.region_arena import EMPTY_REGION
from repro.rdf.namespaces import Namespace

EX = Namespace("http://example.org/")
PREFIX = (
    "PREFIX ex: <http://example.org/> "
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
)
KNOWS = PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }"
KNOWS_PLUS = PREFIX + "SELECT ?x WHERE { ex:alice ex:knows+ ?x . }"
PEOPLE = PREFIX + "SELECT ?p WHERE { ?p rdf:type ex:Person . }"
EMPLOYEES = PREFIX + "SELECT ?p WHERE { ?p ex:worksFor ex:acme . }"


class _Region:
    """Minimal stand-in for a frozen region snapshot (bytes only)."""

    def __init__(self, nbytes: int):
        self.nbytes = nbytes


def _plan_key(plan: str, start: int):
    """Engine-shaped region key: ((fingerprint, alt, comp), start_vertex)."""
    return ((plan, 0, 0), start)


# ----------------------------------------------------------- region bytes
class TestRegionCacheLru:
    def test_every_insert_is_admitted_under_pressure(self):
        cache = RegionCache(250)
        cache.store(_plan_key("a", 0), _Region(200))
        cache.store(_plan_key("b", 0), _Region(200))
        assert cache.lookup(_plan_key("b", 0)) is not None
        assert cache.lookup(_plan_key("a", 0)) is None
        assert cache.evictions == 1

    def test_unpressured_store_evicts_nothing(self):
        cache = RegionCache(1000)
        cache.store(_plan_key("a", 0), _Region(100))
        snapshot = cache.stats_snapshot()
        assert (snapshot.entries, snapshot.bytes, snapshot.evictions) == (1, 100, 0)

    def test_byte_budget_evicts_oldest_first(self):
        cache = RegionCache(1000)
        for start in range(10):
            cache.store(_plan_key("a", start), _Region(150))
        assert cache.evictions == 4
        assert len(cache) == 6 and cache.current_bytes == 900
        assert all(cache.lookup(_plan_key("a", s)) is None for s in range(4))
        assert all(cache.lookup(_plan_key("a", s)) is not None for s in range(4, 10))

    def test_lookup_refreshes_recency(self):
        cache = RegionCache(500)
        cache.store("a", _Region(200))
        cache.store("b", _Region(200))
        assert cache.lookup("a") is not None  # "b" is now least recent
        cache.store("c", _Region(200))
        assert cache.lookup("b") is None
        assert cache.lookup("a") is not None
        assert cache.lookup("c") is not None

    def test_restore_replaces_entry_and_accounting(self):
        cache = RegionCache(1000)
        cache.store("a", _Region(600))
        cache.store("a", _Region(300))
        assert len(cache) == 1
        assert cache.current_bytes == 300
        assert cache.evictions == 0

    def test_restore_does_not_evict_for_its_own_old_bytes(self):
        cache = RegionCache(1000)
        cache.store("a", _Region(600))
        cache.store("b", _Region(300))
        cache.store("a", _Region(600))  # fits once its old copy is released
        assert cache.evictions == 0 and cache.current_bytes == 900
        cache.store("c", _Region(200))  # "a" was refreshed: "b" goes
        assert cache.lookup("b") is None
        assert cache.lookup("a") is not None

    def test_oversized_store_leaves_residents_alone(self):
        cache = RegionCache(1000)
        cache.store("small", _Region(400))
        cache.store("huge", _Region(1001))
        assert cache.lookup("huge") is None
        assert cache.lookup("small") is not None
        assert cache.evictions == 0 and cache.current_bytes == 400

    def test_entry_of_exactly_the_budget_is_cached(self):
        cache = RegionCache(1000)
        cache.store("a", _Region(300))
        cache.store("b", _Region(300))
        cache.store("whole", _Region(1000))
        assert len(cache) == 1 and cache.current_bytes == 1000
        assert cache.evictions == 2

    def test_empty_region_markers_are_byte_accounted(self):
        cache = RegionCache(256)  # room for two 128-byte markers
        cache.store("x", EMPTY_REGION)
        cache.store("y", EMPTY_REGION)
        assert cache.current_bytes == 256 and cache.evictions == 0
        cache.store("z", EMPTY_REGION)
        assert cache.lookup("x") is None
        assert cache.lookup("z") is EMPTY_REGION
        assert cache.evictions == 1

    def test_miss_is_counted_and_inserts_nothing(self):
        cache = RegionCache(1000)
        assert cache.lookup("absent") is None
        assert cache.misses == 1 and cache.hits == 0
        assert len(cache) == 0

    def test_worker_snapshots_merge_field_by_field(self):
        caches = [RegionCache(1000), RegionCache(1000)]
        for index, cache in enumerate(caches):
            cache.store("k", _Region(100 * (index + 1)))
            cache.lookup("k")
            cache.lookup("absent")
        total = RegionCacheStats()
        for cache in caches:
            total.merge(cache.stats_snapshot())
        assert total == RegionCacheStats(
            hits=2, misses=2, evictions=0, bytes=300, entries=2
        )
        assert caches[0].counters() == {
            "capacity_bytes": 1000, "hits": 1, "misses": 1, "evictions": 0,
            "bytes": 100, "entries": 1,
        }

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_nonpositive_budget_is_rejected(self, capacity):
        with pytest.raises(ValueError):
            RegionCache(capacity)

    @pytest.mark.parametrize("capacity", [0, None])
    def test_disabled_budget_makes_no_cache(self, capacity):
        assert make_region_cache(capacity) is None

    def test_positive_budget_makes_a_cache_of_that_size(self):
        cache = make_region_cache(4096)
        assert isinstance(cache, RegionCache)
        assert cache.capacity_bytes == 4096 and len(cache) == 0

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("store"),
                    st.integers(min_value=0, max_value=4),
                    # Mostly fitting sizes, plus one oversized (never cached).
                    st.one_of(st.integers(min_value=1, max_value=450), st.just(1001)),
                ),
                st.tuples(st.just("lookup"), st.integers(min_value=0, max_value=4)),
            ),
            max_size=80,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_byte_lru(self, ops):
        capacity = 1000
        cache = RegionCache(capacity)
        model: "OrderedDict[int, int]" = OrderedDict()
        hits = misses = evictions = 0
        for op in ops:
            if op[0] == "store":
                _, key, nbytes = op
                cache.store(key, _Region(nbytes))
                if nbytes > capacity:
                    continue
                model.pop(key, None)
                while sum(model.values()) + nbytes > capacity and model:
                    model.popitem(last=False)
                    evictions += 1
                model[key] = nbytes
            else:
                key = op[1]
                found = cache.lookup(key)
                if key in model:
                    model.move_to_end(key)
                    hits += 1
                    assert found is not None and found.nbytes == model[key]
                else:
                    misses += 1
                    assert found is None
            assert cache.stats_snapshot() == RegionCacheStats(
                hits=hits,
                misses=misses,
                evictions=evictions,
                bytes=sum(model.values()),
                entries=len(model),
            )
            assert cache.current_bytes <= capacity

    def test_concurrent_access_keeps_accounting_exact(self):
        cache = RegionCache(2000)

        def hammer(seed: int) -> None:
            for step in range(300):
                key = (seed * 7 + step) % 13
                if step % 3:
                    cache.lookup(key)
                else:
                    cache.store(key, _Region(100 + 37 * ((seed + step) % 9)))

        threads = [threading.Thread(target=hammer, args=(s,)) for s in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = cache.stats_snapshot()
        assert snapshot.bytes <= cache.capacity_bytes
        assert snapshot.bytes == sum(n for _, n in cache._entries.values())
        assert snapshot.hits + snapshot.misses == 4 * 200


# ------------------------------------------------------------- plan count
class TestPlanCacheLru:
    def test_reput_refreshes_without_evicting(self):
        cache = PlanCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # replace in place: "b" becomes least recent
        assert cache.evictions == 0 and len(cache) == 2
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 10

    def test_each_overflow_drop_is_counted(self):
        cache = PlanCache(maxsize=2)
        for key in "abcde":
            cache.put(key, key.upper())
        assert cache.counters() == {
            "size": 2, "capacity": 2, "hits": 0, "misses": 0, "evictions": 3,
        }
        assert "d" in cache and "e" in cache

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "get"]), st.integers(min_value=0, max_value=5)
            ),
            max_size=60,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_count_lru(self, ops):
        cache = PlanCache(maxsize=3)
        model: "OrderedDict[int, str]" = OrderedDict()
        hits = misses = evictions = 0
        for step, (op, key) in enumerate(ops):
            if op == "put":
                plan = f"plan-{key}-{step}"
                cache.put(key, plan)
                model[key] = plan
                model.move_to_end(key)
                while len(model) > 3:
                    model.popitem(last=False)
                    evictions += 1
            else:
                got = cache.get(key)
                if key in model:
                    model.move_to_end(key)
                    hits += 1
                    assert got == model[key]
                else:
                    misses += 1
                    assert got is None
        assert cache.counters() == {
            "size": len(model), "capacity": 3, "hits": hits,
            "misses": misses, "evictions": evictions,
        }


# ------------------------------------------------------- path-index bytes
def _chains(labels: int, length: int = 40):
    """One identical chain per edge label over shared vertices."""
    builder = GraphBuilder()
    for v in range(length + 1):
        builder.add_vertex(v, (0,))
    for label in range(labels):
        for v in range(length):
            builder.add_edge(v, label, v + 1)
    return builder.build()


class TestPathIndexLru:
    def test_probe_refreshes_recency(self):
        graph = _chains(labels=3)
        size = ReachabilityIndex.build(graph, 0).nbytes
        manager = PathIndexManager(graph, 2 * size + size // 2)  # two fit
        try:
            manager.index_for(0)
            manager.index_for(1)
            manager.index_for(0)  # hit: label 1 is now least recent
            manager.index_for(2)
            stats = manager.stats()
            assert (stats["hits"], stats["builds"], stats["evictions"]) == (1, 3, 1)
            manager.index_for(0)
            assert manager.stats()["hits"] == 2  # survived the eviction
            manager.index_for(1)
            assert manager.stats()["builds"] == 4  # was the victim: rebuilt
        finally:
            manager.close()

    def test_zero_budget_keeps_only_the_newest_index(self):
        graph = _chains(labels=2, length=10)
        manager = PathIndexManager(graph, 0)  # no closure: every probe walks
        try:
            assert manager.reachable_from(0, 0) == bfs_reachable(graph, 0, 0)
            assert manager.reaches(0, 0, 10) and not manager.reaches(0, 10, 0)
            stats = manager.stats()
            assert (stats["builds"], stats["entries"], stats["closure_hits"]) == (1, 1, 0)
            assert manager.reaching(1, 10) == bfs_reachable(graph, 1, 10, reverse=True)
            stats = manager.stats()
            assert (stats["builds"], stats["entries"], stats["evictions"]) == (2, 1, 1)
        finally:
            manager.close()

    def test_clear_drops_an_oversized_index(self):
        graph = _chains(labels=1)
        manager = PathIndexManager(graph, budget_bytes=8)  # everything is oversized
        try:
            first = manager.index_for(0)
            assert manager.index_for(0) is first  # resident: no rebuild
            assert manager.stats()["builds"] == 1
            manager.clear()
            assert manager.stats()["entries"] == 0 and manager.bytes_held == 0
            assert manager.index_for(0) is not first  # rebuilt after clear()
            assert manager.stats()["builds"] == 2
        finally:
            manager.close()


# ------------------------------------------------------- engine lifecycle
def _warm_engine(store, **kwargs) -> TurboHomPPEngine:
    # Pinned sequential: the assertions read the engine-held caches,
    # whatever the environment overrides.
    engine = TurboHomPPEngine(workers=1, **kwargs)
    engine.load(store)
    engine.query(KNOWS)
    engine.query(KNOWS_PLUS)
    return engine


class TestEngineCacheLifecycle:
    def test_load_starts_every_cache_empty(self, small_rdf_store):
        engine = _warm_engine(small_rdf_store)
        try:
            assert len(engine.plan_cache) > 0
            assert len(engine.region_cache) > 0
            assert engine.stats()["path_index"]["entries"] == 1
            engine.load(small_rdf_store)
            stats = engine.stats()
            assert stats["plan_cache"]["size"] == 0
            assert stats["plan_cache"]["misses"] == 0
            assert stats["region_cache"]["entries"] == 0
            assert stats["region_cache"]["misses"] == 0
            assert stats["path_index"]["entries"] == 0
        finally:
            engine.close()

    def test_close_keeps_plan_and_region_caches(self, small_rdf_store):
        engine = _warm_engine(small_rdf_store)
        try:
            plans, regions = len(engine.plan_cache), len(engine.region_cache)
            engine.close()
            assert len(engine.plan_cache) == plans
            assert len(engine.region_cache) == regions
            assert engine.stats()["path_index"]["entries"] == 0
            hits = engine.plan_cache.hits
            assert len(engine.query(KNOWS)) == 3
            assert engine.plan_cache.hits > hits
        finally:
            engine.close()

    def test_plan_cache_size_bounds_the_engine(self, small_rdf_store):
        engine = TurboHomPPEngine(workers=1, plan_cache_size=2)
        engine.load(small_rdf_store)
        try:
            for sparql in (PEOPLE, KNOWS, EMPLOYEES):
                engine.query(sparql)
            counters = engine.stats()["plan_cache"]
            assert (counters["size"], counters["evictions"]) == (2, 1)
            assert len(engine.query(EMPLOYEES)) == 2  # most recent: a hit
            assert engine.plan_cache.hits == 1
            assert len(engine.query(PEOPLE)) == 3  # least recent: evicted
            assert engine.plan_cache.misses == 4
        finally:
            engine.close()

    def test_zero_plan_cache_size_disables_it(self, small_rdf_store):
        engine = TurboHomPPEngine(workers=1, plan_cache_size=0)
        engine.load(small_rdf_store)
        try:
            assert engine.plan_cache is None
            assert len(engine.query(PEOPLE)) == 3
            assert len(engine.query(PEOPLE)) == 3
            assert engine.stats()["plan_cache"] is None
        finally:
            engine.close()
