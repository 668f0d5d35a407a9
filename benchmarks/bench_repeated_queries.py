"""Repeated-query serving (ours) — plan caching and LIMIT-bounded streaming.

Two properties of the compile-once / stream-everywhere engine are measured
on LUBM:

* **warm vs cold plan cache** — a repeated query skips the query
  transformation, start-vertex selection, query-tree construction and
  filter classification entirely (the plan cache hits), so its median
  latency must beat the cold median (cache cleared before every run);
* **LIMIT-bounded latency** — ``LIMIT k`` terminates matching after ``k``
  embeddings, so on a pattern with vastly more embeddings than ``k`` the
  bounded query must be measurably faster than the unbounded one.

Run with ``pytest benchmarks/bench_repeated_queries.py -q -s`` to see the
timing table; both properties are asserted, so this file doubles as a
regression gate in CI.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.datasets import load_lubm
from repro.engine.turbo_engine import TurboHomPPEngine
from repro.sparql.parser import parse_sparql

#: Medians over this many runs keep the comparisons robust to scheduler noise.
REPEATS = 15

_PREFIXES = """\
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
"""

#: A pattern with thousands of embeddings at scale 1 — the LIMIT-bounded
#: latency workload (every student takes courses).
_FANOUT_QUERY = _PREFIXES + "SELECT ?x ?y WHERE { ?x ub:takesCourse ?y . }"
_FANOUT_LIMIT = 10


@pytest.fixture(scope="module")
def serving_setup():
    """LUBM(1) loaded into a TurboHOM++ engine with a plan cache."""
    dataset = load_lubm(universities=1)
    engine = TurboHomPPEngine()
    engine.load(dataset.store)
    return dataset, engine


def _hit_ratio(counters: dict) -> float:
    """Hit ratio of a cache-counter dict with ``hits``/``misses`` keys."""
    return counters["hits"] / max(1, counters["hits"] + counters["misses"])


def _median_ms(run, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        begin = time.perf_counter()
        run()
        times.append((time.perf_counter() - begin) * 1000.0)
    return statistics.median(times)


@pytest.mark.parametrize("query_id", ["Q1", "Q4", "Q7"])
def test_cached_plan_beats_cold_compile(serving_setup, query_id):
    """Warm (cached plan) execution must beat the cold (compile) median."""
    dataset, engine = serving_setup
    parsed = parse_sparql(dataset.queries[query_id]).strip_modifiers()

    def cold():
        engine.plan_cache.clear()
        engine.query(parsed)

    def warm():
        engine.query(parsed)

    warm()  # populate the cache before timing warm runs
    engine.plan_cache.clear()
    warm()
    warm_median = _median_ms(warm)
    # Counters are read before the cold phase (cold() clears them each run).
    stats = engine.stats()
    plan_rate = _hit_ratio(stats["plan_cache"])
    region_rate = _hit_ratio(stats["region_cache"])
    cold_median = _median_ms(cold)
    print(
        f"\nrepeated-query {query_id}: cold median {cold_median:.3f} ms, "
        f"warm median {warm_median:.3f} ms "
        f"(x{cold_median / max(warm_median, 1e-9):.2f}, "
        f"plan hits {plan_rate:.2f}, region hits {region_rate:.2f})"
    )
    assert warm_median < cold_median, (
        f"{query_id}: warm plan-cache median ({warm_median:.3f} ms) should beat "
        f"the cold median ({cold_median:.3f} ms)"
    )


def test_limit_bounded_latency(serving_setup):
    """LIMIT k on a high-fanout pattern must beat the unbounded run."""
    _, engine = serving_setup
    unbounded = parse_sparql(_FANOUT_QUERY)
    bounded = parse_sparql(_FANOUT_QUERY + f" LIMIT {_FANOUT_LIMIT}")

    total = len(engine.query(unbounded))
    assert total >= 10 * _FANOUT_LIMIT, "workload must dwarf the limit"

    unbounded_median = _median_ms(lambda: engine.query(unbounded))
    bounded_median = _median_ms(lambda: engine.query(bounded))
    print(
        f"\nLIMIT-bounded: {total} embeddings unbounded {unbounded_median:.3f} ms, "
        f"LIMIT {_FANOUT_LIMIT} {bounded_median:.3f} ms "
        f"(x{unbounded_median / max(bounded_median, 1e-9):.2f})"
    )
    assert bounded_median < unbounded_median, (
        f"LIMIT {_FANOUT_LIMIT} ({bounded_median:.3f} ms) should terminate matching "
        f"early and beat the unbounded run ({unbounded_median:.3f} ms)"
    )


def test_limit_bounded_work_is_bounded(serving_setup):
    """Beyond wall clock: the matcher must stop after LIMIT solutions."""
    _, engine = serving_setup
    bounded = parse_sparql(_FANOUT_QUERY + f" LIMIT {_FANOUT_LIMIT}")
    result = engine.query(bounded)
    assert len(result) == _FANOUT_LIMIT
    stats = engine.bgp_solver()._matcher.last_statistics
    assert stats.solutions <= _FANOUT_LIMIT
