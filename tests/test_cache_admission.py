"""Workload-aware cache admission: the TinyLFU filter and its integrations.

Four families of guarantees:

* **Sketch properties** — Hypothesis-checked Count-Min invariants: the
  estimate is an upper bound on the true count, and halving ages every
  key by exactly ``// 2`` (so frequency comparisons are never inverted).
* **Admission decisions** — deterministic victim-vs-candidate scenarios:
  a one-hit wonder never displaces a proven-hot resident, a hotter
  candidate does, and the accept/reject counters record both.
* **Cache integration** — the region cache only consults the policy under
  budget pressure, per-plan shares evict inside the owning plan, and LRU
  mode (no policy) behaves exactly as before.
* **Knobs and observability** — constructor/env validation in the house
  style, engine stats exposing the admission counters in both modes, and
  scheduler-driven warming repopulating process-worker caches.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.cache_admission import (
    CountMinSketch,
    DEFAULT_CACHE_SKETCH_BYTES,
    TinyLfuAdmission,
    make_admission_policy,
    resolve_cache_admission,
    resolve_cache_sketch_bytes,
    resolve_region_plan_share,
)
from repro.engine.region_cache import RegionCache
from repro.engine.turbo_engine import TurboHomPPEngine
from repro.exceptions import EngineError
from repro.matching.region_arena import EMPTY_REGION
from repro.rdf.namespaces import Namespace
from repro.rdf.store import TripleStore
from repro.rdf.terms import Triple
from repro.serving.scheduler import resolve_serve_warm_plans

EX = Namespace("http://example.org/")
PREFIX = "PREFIX ex: <http://example.org/> "

keys_strategy = st.lists(st.integers(min_value=0, max_value=200), max_size=300)


class _Region:
    """Minimal stand-in for a frozen region snapshot (bytes only)."""

    def __init__(self, nbytes: int):
        self.nbytes = nbytes


# --------------------------------------------------------------- sketch props
class TestCountMinSketch:
    @given(keys=keys_strategy)
    @settings(max_examples=60, deadline=None)
    def test_estimate_upper_bounds_true_count(self, keys):
        # A huge sample period keeps aging out of the property.
        sketch = CountMinSketch(sketch_bytes=1024, sample_period=10**9)
        for key in keys:
            sketch.add(key)
        for key in set(keys):
            assert sketch.estimate(key) >= keys.count(key)

    @given(keys=keys_strategy)
    @settings(max_examples=60, deadline=None)
    def test_halving_is_exact_and_order_preserving(self, keys):
        sketch = CountMinSketch(sketch_bytes=1024, sample_period=10**9)
        for key in keys:
            sketch.add(key)
        distinct = sorted(set(keys))
        before = {key: sketch.estimate(key) for key in distinct}
        sketch.halve()
        for key in distinct:
            # The row minimum commutes with floor halving, so each key ages
            # by exactly // 2 ...
            assert sketch.estimate(key) == before[key] // 2
        for hot in distinct:
            for cold in distinct:
                # ... which can compress a frequency gap but never invert it.
                if before[hot] > before[cold]:
                    assert sketch.estimate(hot) >= sketch.estimate(cold)

    def test_window_ages_automatically(self):
        sketch = CountMinSketch(sketch_bytes=1024, sample_period=5)
        for _ in range(4):
            assert not sketch.add("hot")
        assert sketch.add("hot")  # fifth access closes the window
        assert sketch.resets == 1
        assert sketch.ops == 0
        assert sketch.estimate("hot") == 5 // 2

    def test_counters_saturate_instead_of_wrapping(self):
        sketch = CountMinSketch(sketch_bytes=1024, sample_period=10**9)
        for salt, row in zip(sketch._SALTS, sketch._rows):
            row[sketch._column(salt, hash("k"))] = 0xFFFF
        sketch.add("k")
        assert sketch.estimate("k") <= 0xFFFF


# ---------------------------------------------------------------- admissions
class TestTinyLfuAdmission:
    def test_one_hit_wonder_never_displaces_hot_resident(self):
        policy = TinyLfuAdmission(sketch_bytes=1024, sample_period=10**9)
        for _ in range(5):
            policy.record_access("hot")
        policy.record_access("cold")  # seen exactly once (doorkeeper)
        assert not policy.admit("cold", "hot")
        assert policy.rejects == 1 and policy.accepts == 0

    def test_hotter_candidate_displaces_colder_victim(self):
        policy = TinyLfuAdmission(sketch_bytes=1024, sample_period=10**9)
        for _ in range(5):
            policy.record_access("rising")
        policy.record_access("stale")
        assert policy.admit("rising", "stale")
        assert policy.accepts == 1 and policy.rejects == 0

    def test_tie_keeps_the_resident(self):
        policy = TinyLfuAdmission(sketch_bytes=1024, sample_period=10**9)
        policy.record_access("a")
        policy.record_access("b")
        assert not policy.admit("a", "b")

    def test_doorkeeper_grants_first_access_one_count(self):
        policy = TinyLfuAdmission(sketch_bytes=1024, sample_period=10**9)
        assert policy.estimate("k") == 0
        policy.record_access("k")
        assert policy.estimate("k") == 1

    def test_aging_clears_the_doorkeeper(self):
        policy = TinyLfuAdmission(sketch_bytes=1024, sample_period=3)
        policy.record_access("a")
        policy.record_access("b")
        policy.record_access("c")  # third access ages the window
        assert policy.sketch_resets == 1
        assert policy.estimate("a") == 0  # doorkeeper credit gone

    def test_clear_forgets_learned_state(self):
        policy = TinyLfuAdmission(sketch_bytes=1024, sample_period=10**9)
        for _ in range(5):
            policy.record_access("hot")
        policy.admit("hot", "other")
        policy.clear()
        assert policy.estimate("hot") == 0
        assert policy.accepts == 0 and policy.rejects == 0

    def test_factory_modes(self):
        assert make_admission_policy("lru") is None
        assert isinstance(make_admission_policy("tinylfu"), TinyLfuAdmission)
        with pytest.raises(EngineError):
            make_admission_policy("mfu")


# --------------------------------------------------------- cache integration
def _plan_key(plan: str, start: int):
    """Engine-shaped region key: ((fingerprint, alt, comp), start_vertex)."""
    return ((plan, 0, 0), start)


class TestRegionCacheAdmission:
    def test_unpressured_cache_ignores_the_policy(self):
        cache = RegionCache(1000, admission=TinyLfuAdmission(1024))
        cache.store(_plan_key("a", 0), _Region(100))
        assert len(cache) == 1
        snapshot = cache.stats_snapshot()
        assert snapshot.admission_accepts == 0
        assert snapshot.admission_rejects == 0

    def test_cold_candidate_rejected_under_pressure(self):
        policy = TinyLfuAdmission(sketch_bytes=1024, sample_period=10**9)
        cache = RegionCache(250, admission=policy)
        hot = _plan_key("hot", 0)
        cache.store(hot, _Region(200))
        for _ in range(5):
            assert cache.lookup(hot) is not None
        # A once-seen key cannot displace the proven-hot resident.
        cold = _plan_key("cold", 0)
        assert cache.lookup(cold) is None
        cache.store(cold, _Region(200))
        assert cache.lookup(hot) is not None
        snapshot = cache.stats_snapshot()
        assert snapshot.admission_rejects >= 1
        assert snapshot.evictions == 0
        assert snapshot.entries == 1

    def test_hot_candidate_admitted_under_pressure(self):
        policy = TinyLfuAdmission(sketch_bytes=1024, sample_period=10**9)
        cache = RegionCache(250, admission=policy)
        stale = _plan_key("stale", 0)
        cache.store(stale, _Region(200))
        hot = _plan_key("hot", 0)
        for _ in range(5):
            cache.lookup(hot)  # misses, but the estimator sees the demand
        cache.store(hot, _Region(200))
        assert cache.lookup(hot) is not None
        assert cache.lookup(stale) is None
        snapshot = cache.stats_snapshot()
        assert snapshot.admission_accepts >= 1
        assert snapshot.evictions == 1

    def test_lru_mode_always_admits(self):
        cache = RegionCache(250)  # no policy: classic LRU
        cache.store(_plan_key("a", 0), _Region(200))
        cache.store(_plan_key("b", 0), _Region(200))
        assert cache.lookup(_plan_key("b", 0)) is not None
        assert cache.lookup(_plan_key("a", 0)) is None
        assert cache.evictions == 1

    def test_empty_region_markers_cache_under_admission(self):
        cache = RegionCache(1000, admission=TinyLfuAdmission(1024))
        cache.store(_plan_key("a", 0), EMPTY_REGION)
        assert cache.lookup(_plan_key("a", 0)) is EMPTY_REGION


class TestPerPlanBudgets:
    def test_plan_overflow_evicts_inside_the_plan(self):
        cache = RegionCache(1000, plan_share=0.4)  # 400 bytes per plan
        for start in range(3):
            cache.store(_plan_key("greedy", start), _Region(150))
        # Third region breaches the share: the plan's own LRU entry goes.
        assert cache.plan_evictions == 1
        assert cache.lookup(_plan_key("greedy", 0)) is None
        assert cache.lookup(_plan_key("greedy", 1)) is not None
        assert cache.lookup(_plan_key("greedy", 2)) is not None

    def test_plan_cap_protects_other_plans(self):
        cache = RegionCache(1000, plan_share=0.4)
        cache.store(_plan_key("victim?", 0), _Region(100))
        for start in range(10):
            cache.store(_plan_key("greedy", start), _Region(150))
        # The greedy plan churned inside its own share; the other plan's
        # region was never touched.
        assert cache.lookup(_plan_key("victim?", 0)) is not None
        assert cache.evictions == 0 and cache.plan_evictions > 0

    def test_region_larger_than_plan_share_is_not_cached(self):
        cache = RegionCache(1000, plan_share=0.4)
        cache.store(_plan_key("a", 0), _Region(500))
        assert len(cache) == 0

    def test_full_share_keeps_exact_legacy_behaviour(self):
        cache = RegionCache(1000, plan_share=1.0)
        for start in range(10):
            cache.store(_plan_key("a", start), _Region(150))
        assert cache.plan_evictions == 0
        assert cache.evictions == 4  # plain byte-budget LRU

    def test_plan_share_validation(self):
        with pytest.raises(ValueError):
            RegionCache(1000, plan_share=0.0)
        with pytest.raises(ValueError):
            RegionCache(1000, plan_share=1.5)


# ------------------------------------------------------------------- knobs
class TestKnobs:
    def test_resolve_cache_admission(self, monkeypatch):
        # Clear the variable first: CI sweeps the suite with it set.
        monkeypatch.delenv("REPRO_CACHE_ADMISSION", raising=False)
        assert resolve_cache_admission() == "tinylfu"
        assert resolve_cache_admission("lru") == "lru"
        monkeypatch.setenv("REPRO_CACHE_ADMISSION", "lru")
        assert resolve_cache_admission() == "lru"
        assert resolve_cache_admission("tinylfu") == "tinylfu"  # arg wins
        monkeypatch.setenv("REPRO_CACHE_ADMISSION", "mfu")
        with pytest.raises(EngineError):
            resolve_cache_admission()

    def test_resolve_cache_sketch_bytes(self, monkeypatch):
        assert resolve_cache_sketch_bytes() == DEFAULT_CACHE_SKETCH_BYTES
        assert resolve_cache_sketch_bytes(4096) == 4096
        monkeypatch.setenv("REPRO_CACHE_SKETCH_BYTES", "2048")
        assert resolve_cache_sketch_bytes() == 2048
        for bad in ("zero", "0", "-1"):
            monkeypatch.setenv("REPRO_CACHE_SKETCH_BYTES", bad)
            with pytest.raises(EngineError):
                resolve_cache_sketch_bytes()
        with pytest.raises(EngineError):
            resolve_cache_sketch_bytes(True)

    def test_resolve_region_plan_share(self, monkeypatch):
        assert resolve_region_plan_share() == 1.0
        assert resolve_region_plan_share(0.5) == 0.5
        monkeypatch.setenv("REPRO_REGION_CACHE_PLAN_SHARE", "0.25")
        assert resolve_region_plan_share() == 0.25
        for bad in ("lots", "0", "1.5", "-0.5"):
            monkeypatch.setenv("REPRO_REGION_CACHE_PLAN_SHARE", bad)
            with pytest.raises(EngineError):
                resolve_region_plan_share()
        with pytest.raises(EngineError):
            resolve_region_plan_share(True)

    def test_resolve_serve_warm_plans(self, monkeypatch):
        assert resolve_serve_warm_plans(0) == 0
        assert resolve_serve_warm_plans(12) == 12
        monkeypatch.setenv("REPRO_SERVE_WARM_PLANS", "3")
        assert resolve_serve_warm_plans() == 3
        monkeypatch.setenv("REPRO_SERVE_WARM_PLANS", "-1")
        with pytest.raises(EngineError):
            resolve_serve_warm_plans()
        with pytest.raises(EngineError):
            resolve_serve_warm_plans(True)

    def test_engine_ctor_validates_admission_knobs(self):
        with pytest.raises(EngineError):
            TurboHomPPEngine(cache_admission="mfu")
        with pytest.raises(EngineError):
            TurboHomPPEngine(cache_sketch_bytes=0)
        with pytest.raises(EngineError):
            TurboHomPPEngine(region_cache_plan_share=2.0)


# ----------------------------------------------------------- engine surface
@pytest.fixture
def store():
    store = TripleStore()
    store.load(
        [Triple(EX[f"s{i}"], EX.knows, EX[f"o{i % 4}"]) for i in range(16)]
    )
    store.freeze()
    return store


class TestEngineIntegration:
    def test_default_engine_carries_tinylfu_policy(self, store, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_ADMISSION", raising=False)
        engine = TurboHomPPEngine()
        engine.load(store)
        assert engine.cache_admission == "tinylfu"
        assert engine.region_cache.admission is not None

    def test_lru_engine_carries_no_policy(self, store):
        engine = TurboHomPPEngine(cache_admission="lru")
        engine.load(store)
        assert engine.region_cache.admission is None
        engine.query(PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }")
        counters = engine.stats()["region_cache"]
        assert counters["admission_accepts"] == 0
        assert counters["admission_rejects"] == 0

    def test_plan_listener_observes_fingerprints(self, store):
        engine = TurboHomPPEngine()
        engine.load(store)
        seen = []
        engine.set_plan_listener(seen.append)
        sparql = PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }"
        engine.query(sparql)
        engine.query(sparql)
        assert len(seen) == 2 and seen[0] == seen[1]
        engine.set_plan_listener(None)
        engine.query(sparql)
        assert len(seen) == 2

    def test_warm_cached_plans_prepopulates_regions(self, store):
        engine = TurboHomPPEngine()
        engine.load(store)
        seen = []
        engine.set_plan_listener(seen.append)
        sparql = PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }"
        engine.query(sparql)
        # stats() sums worker-held counters too, so the assertion holds in
        # every execution mode (the CI env sweeps force process shards).
        hits_before = engine.stats()["region_cache"]["hits"]
        assert engine.warm_cached_plans(seen) == 1
        engine.query(sparql)
        assert engine.stats()["region_cache"]["hits"] > hits_before
        # Unknown fingerprints warm nothing.
        assert engine.warm_cached_plans([("no", "such", "plan")]) == 0

    def test_warming_does_not_skew_plan_cache_counters(self, store):
        engine = TurboHomPPEngine()
        engine.load(store)
        seen = []
        engine.set_plan_listener(seen.append)
        engine.query(PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }")
        before = engine.plan_cache.counters()
        engine.warm_cached_plans(seen)
        after = engine.plan_cache.counters()
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"]

    def test_process_mode_warming_survives_pool_restart(self, store):
        engine = TurboHomPPEngine(workers=2)
        engine.load(store)
        try:
            seen = []
            engine.set_plan_listener(seen.append)
            sparql = PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }"
            engine.query(sparql)
            generation = engine.pool_generation()
            assert generation >= 1
            engine.close()  # worker caches are gone with the processes
            assert engine.pool_generation() == generation
            assert engine.warm_cached_plans(set(seen)) == 1
            assert engine.pool_generation() > generation
            hits_before = engine.stats()["region_cache"]["hits"]
            engine.query(sparql)
            assert engine.stats()["region_cache"]["hits"] > hits_before
        finally:
            engine.close()
