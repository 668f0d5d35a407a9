"""SPARQL serving under concurrency — latency, throughput, admission.

The serving front-end exists so that many clients can share one loaded
engine; this benchmark pins the properties that make that safe and fast,
on LUBM(1):

* **closed-loop correctness + latency** — a handful of keep-alive clients
  issue a skewed query mix back-to-back at an engine on 2 shard workers;
  every response must parse and carry *exactly* the multiset the engine
  produces sequentially (zero dropped or invalid responses), and the run
  reports p50/p99 latency and aggregate QPS;
* **streaming vs materialized serialization** — encoding straight off the
  batch stream must not lose to materializing the full ResultSet first
  (it skips the row-dict detour entirely);
* **open-loop burst admission** — a burst wider than
  ``max_inflight + queue_depth`` degrades into fast 503s while every
  admitted query still completes correctly;
* **workload-aware admission** — on a Zipf-skewed multi-plan mix whose
  region working set overflows the cache budget, TinyLFU admission must
  beat plain LRU by >= 1.3x on warm region hit ratio *and* improve warm
  QPS (the reason ``REPRO_CACHE_ADMISSION`` defaults to ``tinylfu``).

Run with ``pytest benchmarks/bench_serving.py -q -s`` for the tables; all
gates are asserted, so this file doubles as the serving regression gate
in CI.
"""

from __future__ import annotations

import http.client
import json
import random
import statistics
import threading
import time
import urllib.parse

import pytest

from repro.datasets import load_lubm
from repro.engine.turbo_engine import TurboHomPPEngine
from repro.serving import ServerThread
from repro.rdf.terms import Literal
from repro.sparql.binding_batch import BatchResult
from repro.sparql.serializers import serialize_json

#: Closed-loop shape: CLIENTS keep-alive connections, ROUNDS requests each.
CLIENTS = 4
ROUNDS = 12

#: Skewed mix: the hot query dominates, two heavier ones trail (the usual
#: serving profile — many cheap point lookups, occasional analytics).
MIX = ["Q1"] * 8 + ["Q4"] * 3 + ["Q7"] * 1

REPEATS = 11


@pytest.fixture(scope="module")
def lubm():
    return load_lubm(universities=1)


def _term_value(term):
    """A term as its JSON-results ``value`` field (None = unbound)."""
    if term is None:
        return "None"
    if isinstance(term, Literal):
        return term.lexical
    return str(term)


def _expected_multisets(engine, dataset):
    expected = {}
    for query_id in set(MIX):
        result = engine.query(dataset.queries[query_id])
        expected[query_id] = sorted(
            tuple(_term_value(row[var]) for var in result.variables)
            for row in result
        )
    return expected


def _response_multiset(body):
    data = json.loads(body)
    variables = data["head"]["vars"]
    return sorted(
        tuple(row.get(var, {}).get("value", "None") for var in variables)
        for row in data["results"]["bindings"]
    )


def _percentile(samples, fraction):
    ordered = sorted(samples)
    return ordered[int(fraction * (len(ordered) - 1))]


def test_closed_loop_latency_and_parity(lubm):
    """Concurrent clients: zero bad responses, sequential-oracle parity."""
    engine = TurboHomPPEngine(workers=2)
    engine.load(lubm.store)
    try:
        expected = _expected_multisets(engine, lubm)
        latencies = []
        failures = []
        with ServerThread(engine, max_inflight=CLIENTS) as server:
            def client(index):
                conn = http.client.HTTPConnection(
                    "127.0.0.1", server.port, timeout=120
                )
                try:
                    for round_index in range(ROUNDS):
                        query_id = MIX[(index + round_index * CLIENTS) % len(MIX)]
                        target = "/sparql?query=" + urllib.parse.quote(
                            lubm.queries[query_id]
                        )
                        begin = time.perf_counter()
                        conn.request("GET", target)
                        response = conn.getresponse()
                        body = response.read()
                        latencies.append(
                            (time.perf_counter() - begin) * 1000.0
                        )
                        if response.status != 200:
                            failures.append((index, query_id, response.status))
                        elif _response_multiset(body) != expected[query_id]:
                            failures.append((index, query_id, "wrong rows"))
                finally:
                    conn.close()

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)
            ]
            wall_begin = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            wall = time.perf_counter() - wall_begin

        total = CLIENTS * ROUNDS
        assert len(latencies) == total, "dropped responses"
        assert not failures, f"invalid responses: {failures[:5]}"
        p50 = _percentile(latencies, 0.50)
        p99 = _percentile(latencies, 0.99)
        print(
            f"\nserving closed-loop: {CLIENTS} clients x "
            f"{ROUNDS} requests, p50 {p50:.2f} ms, p99 {p99:.2f} ms, "
            f"{total / wall:.1f} QPS, 0 dropped/invalid"
        )
    finally:
        engine.close()


def test_streaming_beats_materialized_serialization(lubm):
    """Serializing off the batch stream must not lose to materializing."""
    engine = TurboHomPPEngine()
    engine.load(lubm.store)
    try:
        # The high-fanout pattern: thousands of rows through the encoder.
        query = (
            "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
            "SELECT ?x ?y WHERE { ?x ub:takesCourse ?y . }"
        )

        def streaming():
            with engine.query_batches(query) as result:
                return b"".join(serialize_json(result.variables, result))

        def materialized():
            result = engine.query(query)  # full row-dict ResultSet first
            from repro.sparql.binding_batch import batches_from_bindings

            return b"".join(
                serialize_json(
                    result.variables,
                    batches_from_bindings(result.variables, iter(result.rows)),
                )
            )

        assert json.loads(streaming()) == json.loads(materialized())

        def median_ms(run):
            times = []
            for _ in range(REPEATS):
                begin = time.perf_counter()
                run()
                times.append((time.perf_counter() - begin) * 1000.0)
            return statistics.median(times)

        materialized_median = median_ms(materialized)
        streaming_median = median_ms(streaming)
        print(
            f"\nserialization: streaming {streaming_median:.2f} ms, "
            f"materialized {materialized_median:.2f} ms "
            f"(x{materialized_median / max(streaming_median, 1e-9):.2f})"
        )
        # Noise guard: streaming must at least hold the line (it does
        # strictly less work — no intermediate Binding dicts).
        assert streaming_median <= materialized_median * 1.15, (
            f"streaming serialization ({streaming_median:.2f} ms) regressed "
            f"against materialized ({materialized_median:.2f} ms)"
        )
    finally:
        engine.close()


class _GatedEngine:
    """Holds every query before its first batch until ``release`` is set."""

    def __init__(self, inner):
        self.inner = inner
        self.release = threading.Event()
        self.started = threading.Event()

    def _parse_checked(self, query):
        return self.inner._parse_checked(query)

    def query_batches(self, query):
        result = self.inner.query_batches(query)

        def gated():
            with result:
                self.started.set()
                self.release.wait(timeout=60)
                yield from result

        return BatchResult(result.variables, gated())


def test_open_loop_burst_sheds_load(lubm):
    """A burst beyond max_inflight + queue_depth: fast 503s, no hangs."""
    engine = TurboHomPPEngine()
    engine.load(lubm.store)
    gated = _GatedEngine(engine)
    query = urllib.parse.quote(lubm.queries["Q1"])
    burst = 4
    try:
        with ServerThread(
            gated, max_inflight=1, queue_depth=2, timeout_ms=60_000
        ) as server:
            statuses = []
            lock = threading.Lock()

            def holder():
                status, _ = _get(server.port, query)
                with lock:
                    statuses.append(status)

            def burst_client():
                status, _ = _get(server.port, query)
                with lock:
                    statuses.append(status)

            hold = threading.Thread(target=holder)
            hold.start()
            assert gated.started.wait(timeout=30)
            clients = [
                threading.Thread(target=burst_client) for _ in range(burst)
            ]
            begin = time.perf_counter()
            for thread in clients:
                thread.start()
            # Rejections must come back while the slot is still held.
            deadline = time.time() + 30
            while time.time() < deadline:
                with lock:
                    if statuses.count(503) >= burst - 2:
                        break
                time.sleep(0.01)
            shed_ms = (time.perf_counter() - begin) * 1000.0
            gated.release.set()
            hold.join(timeout=60)
            for thread in clients:
                thread.join(timeout=60)

        assert sorted(statuses) == [200, 200, 200, 503, 503], statuses
        print(
            f"\nserving open-loop burst: {burst + 1} arrivals into "
            f"1 slot + 2 queued -> 2 fast 503s in {shed_ms:.1f} ms, "
            f"3 correct 200s after release"
        )
    finally:
        engine.close()


def _get(port, quoted_query):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("GET", "/sparql?query=" + quoted_query)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


# ------------------------------------------------------- admission gate
#: Distinct plans in the skewed mix.  The variants differ only in variable
#: names — identical exploration cost and results, distinct plan-cache
#: fingerprints — so every plan contributes the same region working set.
ADMISSION_PLANS = 10

#: Zipf exponent and request count of the skewed serving mix.
ADMISSION_ZIPF_EXPONENT = 1.2
ADMISSION_REQUESTS = 300

#: Requests spent seeding caches/frequencies before the warm measurement.
ADMISSION_SEED = 60

#: Cache budget in units of one plan's region bytes: the 10-plan working
#: set overflows a 2-plan budget five times over.
ADMISSION_BUDGET_PLANS = 2.0


@pytest.fixture(scope="module")
def lubm_admission():
    # Larger than the latency fixture: the gate needs region exploration
    # (not per-request fixed costs) to dominate each query's runtime.
    return load_lubm(universities=6)


def _admission_variant(rank):
    # Same star shape for every rank — the variable names are part of the
    # plan fingerprint, so each rank compiles (and caches regions) as its
    # own plan while costing exactly the same to explore.
    return (
        "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
        f"SELECT ?x{rank} ?y{rank} ?z{rank} WHERE {{ "
        f"?x{rank} ub:takesCourse ?y{rank} . ?x{rank} ub:memberOf ?z{rank} }}"
    )


def _drain_batches(engine, sparql):
    """Run one query on the batch stream, returning its row count."""
    rows = 0
    with engine.query_batches(sparql) as result:
        for batch in result:
            rows += batch.rows
    return rows


def _run_admission_mix(lubm, mode, budget_bytes, sequence):
    """One engine's pass over the skewed mix; returns (hit_ratio, qps, rows)."""
    engine = TurboHomPPEngine(
        workers=1,  # pin: the gate reads the engine-held cache
        cache_admission=mode,
        region_cache_bytes=budget_bytes,
    )
    engine.load(lubm.store)
    try:
        rows = 0
        for rank in sequence[:ADMISSION_SEED]:
            rows += _drain_batches(engine, _admission_variant(rank))
        seeded = engine.stats()["region_cache"]
        begin = time.perf_counter()
        for rank in sequence[ADMISSION_SEED:]:
            rows += _drain_batches(engine, _admission_variant(rank))
        elapsed = time.perf_counter() - begin
        warm = engine.stats()["region_cache"]
        hits = warm["hits"] - seeded["hits"]
        misses = warm["misses"] - seeded["misses"]
        hit_ratio = hits / max(1, hits + misses)
        qps = (len(sequence) - ADMISSION_SEED) / elapsed
        return hit_ratio, qps, rows, warm
    finally:
        engine.close()


def test_tinylfu_admission_beats_lru_on_skewed_mix(lubm_admission):
    """The tentpole gate: frequency-aware admission on an overflowing mix.

    Ten equal-cost plans under Zipf(1.2) traffic share a region budget
    that holds only two plans' regions.  Plain LRU admits every insert, so
    the cold tail continuously flushes the hot plans' regions; TinyLFU
    keeps the proven-hot regions resident.  Gates: >= 1.3x warm hit ratio
    and > 1.05x warm QPS, measured after a shared seeding phase.
    """
    # Size the budget from a measured plan: one variant's full region set.
    probe = TurboHomPPEngine(
        workers=1, region_cache_bytes=1 << 30
    )
    probe.load(lubm_admission.store)
    try:
        _drain_batches(probe, _admission_variant(0))
        plan_bytes = probe.stats()["region_cache"]["bytes"]
    finally:
        probe.close()
    assert plan_bytes > 0
    budget_bytes = int(ADMISSION_BUDGET_PLANS * plan_bytes)
    working_set = ADMISSION_PLANS * plan_bytes
    assert working_set > 2 * budget_bytes, "mix must overflow the budget"

    weights = [
        1.0 / (rank + 1) ** ADMISSION_ZIPF_EXPONENT
        for rank in range(ADMISSION_PLANS)
    ]
    sequence = random.Random(7).choices(
        range(ADMISSION_PLANS), weights=weights, k=ADMISSION_REQUESTS
    )

    lru_hit, lru_qps, lru_rows, lru_stats = _run_admission_mix(
        lubm_admission, "lru", budget_bytes, sequence
    )
    lfu_hit, lfu_qps, lfu_rows, lfu_stats = _run_admission_mix(
        lubm_admission, "tinylfu", budget_bytes, sequence
    )

    assert lfu_rows == lru_rows, "admission must not change results"
    print(
        f"\nadmission gate: {ADMISSION_PLANS} plans, zipf "
        f"{ADMISSION_ZIPF_EXPONENT}, budget {budget_bytes / 1024:.0f} KiB "
        f"(working set {working_set / 1024:.0f} KiB)\n"
        f"  lru     hit {lru_hit:5.1%}  {lru_qps:7.1f} QPS  "
        f"evictions {lru_stats['evictions']}\n"
        f"  tinylfu hit {lfu_hit:5.1%}  {lfu_qps:7.1f} QPS  "
        f"rejects {lfu_stats['admission_rejects']} "
        f"accepts {lfu_stats['admission_accepts']} "
        f"resets {lfu_stats['sketch_resets']}\n"
        f"  -> hit x{lfu_hit / max(lru_hit, 1e-9):.2f}, "
        f"QPS x{lfu_qps / lru_qps:.2f}"
    )
    assert lfu_stats["admission_rejects"] > 0, "gate never pressured admission"
    assert lfu_hit >= 1.3 * lru_hit, (
        f"TinyLFU warm hit ratio {lfu_hit:.1%} must be >= 1.3x "
        f"LRU's {lru_hit:.1%}"
    )
    assert lfu_qps > 1.05 * lru_qps, (
        f"TinyLFU warm QPS {lfu_qps:.1f} must improve on LRU's {lru_qps:.1f}"
    )
