"""HTTP behaviour of the SPARQL serving front-end.

Protocol conformance (GET/POST request forms, content negotiation, error
statuses), admission control (503 when the in-flight + queue budget is
exhausted), per-query deadlines (504 both while queued and while running),
keep-alive reuse, and — the reason the front-end exists — correct,
complete result streams under concurrent clients.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import threading
import urllib.parse
import warnings

import pytest

from repro.engine.turbo_engine import TurboEngine, TurboHomEngine, TurboHomPPEngine
from repro.serving import (
    QueryScheduler,
    RunningQuery,
    ServerThread,
    SparqlServer,
    resolve_serve_max_inflight,
    resolve_serve_queue_depth,
    resolve_serve_timeout_ms,
)
from repro.exceptions import EngineError
from repro.sparql.binding_batch import BatchResult

KNOWS_QUERY = "SELECT ?s ?o WHERE { ?s <http://example.org/knows> ?o }"
PERSON_QUERY = (
    "SELECT ?p WHERE { ?p <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
    "<http://example.org/Person> }"
)


def get(port, target, headers=None, timeout=30):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", target, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def sparql_get(port, query, headers=None):
    return get(port, "/sparql?query=" + urllib.parse.quote(query), headers)


def json_rows(body):
    return json.loads(body)["results"]["bindings"]


@pytest.fixture
def engine(small_rdf_store):
    engine = TurboEngine()
    engine.load(small_rdf_store)
    yield engine
    engine.close()


class GatedEngine:
    """Engine wrapper whose queries stall before their first batch.

    ``release`` lets the batches flow; ``started`` signals that a query
    reached the stall point (i.e. it was admitted and holds a slot).  The
    wait is bounded so a failed test cannot hang the suite.
    """

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
                self.release.wait(timeout=30)
                yield from result

        return BatchResult(result.variables, gated())


class TestProtocol:
    def test_get_post_form_and_post_direct_agree(self, engine):
        with ServerThread(engine) as server:
            status, headers, body = sparql_get(server.port, PERSON_QUERY)
            assert status == 200
            assert headers["Content-Type"] == "application/sparql-results+json"
            assert headers["Transfer-Encoding"] == "chunked"
            expected = sorted(row["p"]["value"] for row in json_rows(body))

            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            conn.request(
                "POST",
                "/sparql",
                body=urllib.parse.urlencode({"query": PERSON_QUERY}),
                headers={"Content-Type": "application/x-www-form-urlencoded"},
            )
            form_body = conn.getresponse().read()
            conn.request(
                "POST",
                "/sparql",
                body=PERSON_QUERY,
                headers={"Content-Type": "application/sparql-query"},
            )
            direct_body = conn.getresponse().read()
            conn.close()
            for body in (form_body, direct_body):
                assert sorted(row["p"]["value"] for row in json_rows(body)) == expected

    def test_content_negotiation_selects_format(self, engine):
        with ServerThread(engine) as server:
            status, headers, body = sparql_get(
                server.port, PERSON_QUERY, {"Accept": "text/csv"}
            )
            assert status == 200
            assert headers["Content-Type"] == "text/csv"
            assert body.startswith(b"p\r\n")
            status, headers, body = sparql_get(
                server.port,
                PERSON_QUERY,
                {"Accept": "text/tab-separated-values;q=0.9, text/html"},
            )
            assert headers["Content-Type"] == "text/tab-separated-values"
            assert body.startswith(b"?p\n")

    def test_error_statuses(self, engine):
        with ServerThread(engine) as server:
            port = server.port
            assert sparql_get(port, "NOT SPARQL")[0] == 400
            assert get(port, "/sparql")[0] == 400  # missing query param
            assert sparql_get(port, PERSON_QUERY, {"Accept": "text/html"})[0] == 406
            assert get(port, "/missing")[0] == 404
            assert get(port, "/health")[0] == 200
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            conn.request(
                "POST", "/sparql", body=b"{}", headers={"Content-Type": "text/turtle"}
            )
            response = conn.getresponse()
            assert (response.status, bool(response.read())) == (415, True)
            conn.request("DELETE", "/sparql?query=x")
            response = conn.getresponse()
            assert (response.status, bool(response.read())) == (405, True)
            conn.close()

    def test_keep_alive_serves_sequential_requests(self, engine):
        with ServerThread(engine) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            seen = []
            for _ in range(3):
                conn.request(
                    "GET", "/sparql?query=" + urllib.parse.quote(PERSON_QUERY)
                )
                response = conn.getresponse()
                seen.append(sorted(r["p"]["value"] for r in json_rows(response.read())))
            conn.close()
            assert seen[0] == seen[1] == seen[2]

    def test_stats_endpoint_reports_scheduler(self, engine):
        with ServerThread(engine) as server:
            sparql_get(server.port, PERSON_QUERY)
            status, _, body = get(server.port, "/stats")
            assert status == 200
            stats = json.loads(body)
            assert stats["scheduler"]["admitted"] >= 1
            assert stats["scheduler"]["completed"] >= 1
            assert stats["scheduler"]["inflight"] == 0

    def test_stats_schema_pins_cache_surfaces(self, engine):
        # The /stats payload is the serving observability contract: the
        # scheduler block and the engine's three plain-LRU cache surfaces.
        with ServerThread(engine) as server:
            sparql_get(server.port, PERSON_QUERY)
            stats = json.loads(get(server.port, "/stats")[2])
            assert set(stats["scheduler"]) == {
                "max_inflight", "queue_depth", "timeout_ms", "inflight",
                "waiting", "admitted", "completed", "rejected", "timed_out",
                "failed", "cancelled",
            }
            engine_stats = stats["engine"]
            assert set(engine_stats["plan_cache"]) == {
                "size", "capacity", "hits", "misses", "evictions",
            }
            assert set(engine_stats["parse_cache"]) == set(engine_stats["plan_cache"])
            assert set(engine_stats["region_cache"]) == {
                "capacity_bytes", "bytes", "entries", "hits", "misses",
                "evictions",
            }
            assert set(engine_stats["path_index"]) == {
                "budget_bytes", "entries", "bytes", "builds", "hits", "misses",
                "evictions", "closure_hits",
            }


class TestAdmissionAndDeadlines:
    def test_overload_rejected_with_503(self, engine):
        gated = GatedEngine(engine)
        with ServerThread(gated, max_inflight=1, queue_depth=0, timeout_ms=0) as server:
            results = {}

            def blocked_client():
                results["blocked"] = sparql_get(server.port, PERSON_QUERY)

            worker = threading.Thread(target=blocked_client)
            worker.start()
            try:
                assert gated.started.wait(timeout=10)
                status, headers, body = sparql_get(server.port, PERSON_QUERY)
                assert status == 503
                assert headers.get("Retry-After") == "1"
            finally:
                gated.release.set()
                worker.join(timeout=30)
            # The admitted query still completed correctly.
            status, _, body = results["blocked"]
            assert status == 200
            assert len(json_rows(body)) == 3

    def test_running_query_times_out_with_504(self, engine):
        gated = GatedEngine(engine)
        with ServerThread(gated, max_inflight=1, timeout_ms=200) as server:
            try:
                status, _, body = sparql_get(server.port, PERSON_QUERY)
                assert status == 504
                assert b"deadline" in body
            finally:
                gated.release.set()
            # The slot was reclaimed: a released engine answers again.
            status, _, body = sparql_get(server.port, PERSON_QUERY)
            assert status == 200

    def test_queued_query_times_out_with_504(self, engine):
        gated = GatedEngine(engine)
        with ServerThread(
            gated, max_inflight=1, queue_depth=4, timeout_ms=300
        ) as server:
            results = {}

            def blocked_client():
                results["blocked"] = sparql_get(server.port, PERSON_QUERY)

            worker = threading.Thread(target=blocked_client)
            worker.start()
            try:
                assert gated.started.wait(timeout=10)
                # Queued behind the gated query; its deadline expires first.
                status, _, body = sparql_get(server.port, PERSON_QUERY)
                assert status == 504
                assert b"waiting for a slot" in body
            finally:
                gated.release.set()
                worker.join(timeout=30)
            assert results["blocked"][0] in (200, 504)

    def test_env_knob_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_INFLIGHT", "8")
        assert resolve_serve_max_inflight() == 8
        monkeypatch.setenv("REPRO_SERVE_TIMEOUT_MS", "0")
        assert resolve_serve_timeout_ms() == 0
        monkeypatch.setenv("REPRO_SERVE_QUEUE_DEPTH", "2")
        assert resolve_serve_queue_depth() == 2
        monkeypatch.setenv("REPRO_SERVE_MAX_INFLIGHT", "zero")
        with pytest.raises(EngineError):
            resolve_serve_max_inflight()
        with pytest.raises(EngineError):
            resolve_serve_max_inflight(0)
        with pytest.raises(EngineError):
            resolve_serve_timeout_ms(-1)
        with pytest.raises(EngineError):
            resolve_serve_queue_depth(-1)


class TestShutdownRace:
    def test_put_owns_no_coroutine_when_the_loop_stops_first(self):
        """The loop goes away between the producer's hand-off and the callback.

        Whatever ``_put`` scheduled is dropped unrun when the loop closes;
        if that was a ``Queue.put`` coroutine it surfaces as a "never
        awaited" RuntimeWarning at GC time, inside whichever test runs next.
        """
        loop = asyncio.new_event_loop()  # never run: scheduled callbacks drop
        scheduler = QueryScheduler(max_inflight=1)
        try:
            run = RunningQuery(scheduler, loop, None)
            run.stop_event.set()  # the stalled producer gives up at its poll
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run._put(b"chunk")
                loop.close()
                del run
                gc.collect()
            assert not [w for w in caught if w.category is RuntimeWarning]
            # With the loop closed the hand-off itself reports the stop.
            assert RunningQuery(scheduler, loop, None)._put(b"chunk") is False
        finally:
            scheduler.close()


class TestConcurrentClients:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_streams_complete_under_concurrency(self, small_rdf_store, workers):
        # The serving acceptance pin: concurrent clients over a sequential
        # or sharded engine each receive the complete, correct multiset
        # their query produces alone — no interleaved or truncated streams.
        engine = TurboEngine(workers=workers)
        engine.load(small_rdf_store)
        try:
            mix = [KNOWS_QUERY, PERSON_QUERY]
            expected = []
            for query in mix:
                result = engine.query(query)
                expected.append(
                    sorted(
                        tuple(str(row[var]) for var in result.variables)
                        for row in result
                    )
                )
            with ServerThread(engine, max_inflight=4) as server:
                failures = []

                def client(index):
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", server.port, timeout=60
                    )
                    try:
                        for round_index in range(4):
                            pick = (index + round_index) % len(mix)
                            conn.request(
                                "GET",
                                "/sparql?query=" + urllib.parse.quote(mix[pick]),
                            )
                            response = conn.getresponse()
                            if response.status != 200:
                                failures.append((index, response.status))
                                return
                            data = json.loads(response.read())
                            got = sorted(
                                tuple(
                                    row[var]["value"]
                                    for var in data["head"]["vars"]
                                )
                                for row in data["results"]["bindings"]
                            )
                            if got != expected[pick]:
                                failures.append((index, pick, got))
                    finally:
                        conn.close()

                threads = [
                    threading.Thread(target=client, args=(i,)) for i in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not failures
        finally:
            engine.close()


class TestRetiredCacheKnobs:
    """Every cache is a plain LRU: the admission, per-plan-share, warming
    and path-index budget knobs are gone from the constructors and the
    environment."""

    @pytest.mark.parametrize(
        "factory, keyword",
        [
            pytest.param(cls, keyword, id=f"{cls.__name__}-{keyword}")
            for cls in (TurboEngine, TurboHomEngine, TurboHomPPEngine)
            for keyword in (
                "cache_admission", "cache_sketch_bytes", "region_cache_plan_share",
                "path_index_bytes",
            )
        ]
        + [
            pytest.param(
                lambda **kw: SparqlServer(TurboEngine(workers=1), **kw),
                "warm_plans",
                id="SparqlServer-warm_plans",
            ),
            pytest.param(QueryScheduler, "warm_plans", id="QueryScheduler-warm_plans"),
        ],
    )
    def test_retired_keyword_is_a_type_error(self, factory, keyword):
        with pytest.raises(TypeError, match=keyword):
            factory(**{keyword: 1})

    @pytest.mark.parametrize("value", ["bogus", "-1"])
    def test_retired_env_vars_are_not_read(self, monkeypatch, small_rdf_store, value):
        for name in (
            "REPRO_CACHE_ADMISSION", "REPRO_CACHE_SKETCH_BYTES",
            "REPRO_REGION_CACHE_PLAN_SHARE", "REPRO_SERVE_WARM_PLANS",
            "REPRO_PATH_INDEX_BYTES",
        ):
            monkeypatch.setenv(name, value)
        engine = TurboEngine()
        engine.load(small_rdf_store)
        try:
            expected = sorted(str(row["p"]) for row in engine.query(PERSON_QUERY))
            assert expected
            with ServerThread(engine) as server:
                status, _, body = sparql_get(server.port, PERSON_QUERY)
                assert status == 200
                assert sorted(r["p"]["value"] for r in json_rows(body)) == expected
        finally:
            engine.close()
