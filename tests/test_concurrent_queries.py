"""Concurrency regressions flushed out by the serving front-end.

Three bugs, three pins:

* concurrent queries against one engine used to interleave on the shared
  matcher pool and truncate or cross-contaminate each other's streams —
  the ``StreamGate`` serializes pool access, and these tests hammer a
  sequential and a sharded engine from multiple threads, comparing every
  result against the same query run alone;
* ``ORDER BY`` compared numeric literals lexicographically
  (``"100" < "27"``) — ``_sort_key`` now ranks numeric-typed literals by
  value on both the batch and scalar pipelines;
* ``TurboEngine.close()`` mid-stream used to truncate silently and a
  second ``close()`` could trip over shared state — close is now
  idempotent, an open stream fails loudly with :class:`EngineError`, and
  the engine stays usable afterwards.
"""

from __future__ import annotations

import threading

import pytest

from repro.baselines.bitmap_engine import BitmapEngine
from repro.engine.turbo_engine import TurboEngine
from repro.exceptions import EngineError
from repro.rdf.namespaces import Namespace, RDF, XSD
from repro.rdf.store import TripleStore
from repro.rdf.terms import IRI, Literal, Triple

EX = Namespace("http://example.org/")

KNOWS_QUERY = "SELECT ?s ?o WHERE { ?s <http://example.org/knows> ?o }"
PERSON_QUERY = (
    "SELECT ?p WHERE { ?p <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
    "<http://example.org/Person> }"
)


@pytest.fixture(scope="module")
def ring_store():
    """A few hundred people in a knows-ring: streams span many batches."""
    store = TripleStore()
    people = [EX[f"p{i}"] for i in range(300)]
    triples = []
    for i, person in enumerate(people):
        triples.append(Triple(person, RDF.type, EX.Person))
        triples.append(Triple(person, EX.knows, people[(i + 1) % len(people)]))
        triples.append(Triple(person, EX.knows, people[(i + 7) % len(people)]))
    store.load(triples)
    store.freeze()
    return store


def rows_of(result):
    variables = result.variables
    return sorted(tuple(str(row[var]) for var in variables) for row in result)


class TestConcurrentQueryParity:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_two_threads_get_complete_streams(self, ring_store, workers):
        # Regression: without pool-stream serialization, the second
        # thread's iter_match_batches superseded the first thread's job
        # mid-stream, silently truncating its results.
        engine = TurboEngine(workers=workers)
        engine.load(ring_store)
        try:
            mix = [KNOWS_QUERY, PERSON_QUERY]
            expected = [rows_of(engine.query(query)) for query in mix]
            barrier = threading.Barrier(2)
            failures = []

            def worker(index):
                barrier.wait()
                for round_index in range(6):
                    pick = (index + round_index) % len(mix)
                    got = rows_of(engine.query(mix[pick]))
                    if got != expected[pick]:
                        failures.append(
                            (index, pick, len(got), len(expected[pick]))
                        )
                        return

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not failures, f"truncated/contaminated streams: {failures}"
        finally:
            engine.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_interleaved_batch_streams(self, ring_store, workers):
        # Two open batch streams pulled alternately from two threads: the
        # gate makes the second stream wait, so both drain completely.
        engine = TurboEngine(workers=workers)
        engine.load(ring_store)
        try:
            expected = rows_of(engine.query(KNOWS_QUERY))
            counts = {}

            def drain(name):
                total = 0
                with engine.query_batches(KNOWS_QUERY) as result:
                    for batch in result:
                        total += batch.rows
                counts[name] = total

            threads = [
                threading.Thread(target=drain, args=(name,)) for name in ("a", "b")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert counts == {"a": len(expected), "b": len(expected)}
        finally:
            engine.close()


class TestOrderByNumericLiterals:
    @pytest.fixture(scope="class")
    def ages_store(self):
        store = TripleStore()
        ages = [("a", "100"), ("b", "27"), ("c", "9"), ("d", "31")]
        triples = [
            Triple(EX[name], EX.age, Literal(age, XSD.integer))
            for name, age in ages
        ]
        triples.append(Triple(EX.e, EX.age, Literal("2.5", XSD.decimal)))
        store.load(triples)
        store.freeze()
        return store

    @pytest.mark.parametrize("engine_class", [TurboEngine, BitmapEngine])
    def test_numeric_order_by_value_not_text(self, ages_store, engine_class):
        # Regression: "100" sorted before "27" (lexicographic comparison
        # of the lexical forms).  Numeric-typed literals order by value —
        # in the batch sort kernel and in the baselines' reference algebra.
        engine = engine_class()
        engine.load(ages_store)
        try:
            result = engine.query(
                "SELECT ?p ?age WHERE { ?p <http://example.org/age> ?age } "
                "ORDER BY ?age"
            )
            ages = [row["age"].lexical for row in result]
            assert ages == ["2.5", "9", "27", "31", "100"]
            descending = engine.query(
                "SELECT ?p ?age WHERE { ?p <http://example.org/age> ?age } "
                "ORDER BY DESC(?age)"
            )
            assert [row["age"].lexical for row in descending] == list(
                reversed(ages)
            )
        finally:
            if engine_class is TurboEngine:  # the baselines hold no pools
                engine.close()

    def test_mixed_types_keep_total_order(self, ages_store):
        # An ill-typed numeric literal must not crash the sort; it falls
        # back to the string rank after the numeric ones.
        store = TripleStore()
        store.load(
            [
                Triple(EX.a, EX.v, Literal("10", XSD.integer)),
                Triple(EX.b, EX.v, Literal("not-a-number", XSD.integer)),
                Triple(EX.c, EX.v, Literal("2", XSD.integer)),
                Triple(EX.d, EX.v, IRI("http://example.org/zzz")),
            ]
        )
        store.freeze()
        engine = TurboEngine()
        engine.load(store)
        try:
            result = engine.query(
                "SELECT ?v WHERE { ?s <http://example.org/v> ?v } ORDER BY ?v"
            )
            lexicals = [
                value.lexical if isinstance(value, Literal) else str(value)
                for value in (row["v"] for row in result)
            ]
            assert lexicals[:2] == ["2", "10"]  # numerics first, by value
            assert set(lexicals[2:]) == {"not-a-number", "http://example.org/zzz"}
        finally:
            engine.close()


class TestCloseSafety:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_double_close_is_idempotent(self, ring_store, workers):
        engine = TurboEngine(workers=workers)
        engine.load(ring_store)
        assert len(engine.query(PERSON_QUERY)) == 300
        engine.close()
        engine.close()  # must not raise

    def test_close_while_stream_open_fails_loudly(self, ring_store):
        # Regression: closing the engine retired the pool job underneath
        # an open stream, which then simply stopped — indistinguishable
        # from a complete result.  Now it raises.
        engine = TurboEngine(workers=2)
        engine.load(ring_store)
        result = engine.query_batches(KNOWS_QUERY)
        next(iter(result))  # the stream is live
        engine.close()
        with pytest.raises(EngineError, match="closed while a result stream"):
            for _ in result:
                pass

    def test_unstarted_stream_observes_close(self, ring_store):
        engine = TurboEngine(workers=2)
        engine.load(ring_store)
        result = engine.query_batches(KNOWS_QUERY)
        engine.close()
        with pytest.raises(EngineError, match="closed while a result stream"):
            next(iter(result))

    def test_engine_usable_after_close(self, ring_store):
        engine = TurboEngine(workers=2)
        engine.load(ring_store)
        before = rows_of(engine.query(KNOWS_QUERY))
        engine.close()
        # Streams opened *after* close run against rebuilt pools and are
        # not poisoned by the previous close event.
        after = rows_of(engine.query(KNOWS_QUERY))
        assert after == before
        engine.close()
