"""The columnar batch result pipeline: parity, queue transport, validation.

* **Parity** — the batch pipeline must be indistinguishable (as solution
  multisets) from oracles that share no ``TurboEngine`` code:
  :class:`GenericMatcher` at the matcher level (isomorphism + homomorphism),
  the bitmap and RDF-3X-style baseline engines — own BGP evaluation plus
  the scalar reference algebra — at the engine level, across the DISTINCT /
  ORDER BY / LIMIT / OFFSET / OPTIONAL / UNION feature surface,
  sequential and on process shards.
* **Queue transport** — on process shards, every batch crosses the worker
  boundary through the result queue (counted by ``queue_batches``), and a
  batch pickles one buffer per column, never one object per solution
  (pinned by the pickle's opcode count, which must not grow with rows).
* **Batch shape** — a shard worker owns one batch per job and ships it
  full: an unlimited job delivers ⌈solutions / 256⌉ batches plus at most
  one tail per worker, never one batch per candidate region; and the merge
  loop never blocks on a job that has already finished.
* **Validation** — the worker-count knob (argument and environment
  override) and the retired ``execution_mode`` argument must raise a clear
  ``ValueError`` at engine
  construction, not deep inside a pool.
* **Stats** — ``TurboEngine.stats()`` must report plan-cache
  hits/misses/evictions and pipeline/transport counters.
* **Late materialization** — ids must decode to RDF terms only for rows
  that reach the ``ResultSet`` boundary.
"""

from __future__ import annotations

import math
import pickletools
import random
from array import array
from collections import Counter, deque
from multiprocessing.reduction import ForkingPickler

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bitmap_engine import BitmapEngine
from repro.baselines.rdf3x import RDF3XEngine
from repro.engine.turbo_engine import TurboEngine, TurboHomPPEngine
from repro.exceptions import EngineError
from repro.matching.config import MatchConfig
from repro.matching.generic import GenericMatcher
from repro.matching.process_shard import ProcessShardPool
from repro.matching.shard_protocol import StreamOutcome, merge_solution_batches
from repro.matching.solution_batch import SOLUTION_BATCH_SIZE, SolutionBatch
from repro.matching.turbo import TurboMatcher
from repro.rdf.namespaces import Namespace, RDF
from repro.rdf.store import TripleStore
from repro.rdf.terms import Literal, Triple
from repro.sparql.binding_batch import KIND_ID
from repro.sparql.parser import parse_sparql

from test_shard_parity import (
    random_multigraph,
    random_multigraph_query,
    solution_multiset,
)
from test_shard_lifecycle import make_pool, star_graph, star_query

EX = Namespace("http://example.org/")
PREFIX = (
    "PREFIX ex: <http://example.org/> "
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
)

MODES = {
    "isomorphism": MatchConfig.isomorphism,
    "homomorphism": MatchConfig.turbo_hom_pp,
}

#: The engine-level feature surface the engine and its oracles must agree on.
FEATURE_QUERIES = [
    "SELECT ?p WHERE { ?p rdf:type ex:Person . }",
    "SELECT ?a ?b WHERE { ?a ex:knows ?b . ?a ex:worksFor ex:acme . }",
    "SELECT ?x ?y ?z WHERE { ?x ex:knows ?y . ?y ex:knows ?z . ?z ex:knows ?x . }",
    "SELECT ?p ?o WHERE { ex:alice ?p ?o . }",
    "SELECT ?x ?t WHERE { ?x rdf:type ?t . ?x ex:worksFor ex:acme . }",
    "SELECT ?x ?y WHERE { ?x rdf:type ex:Person . ?y rdf:type ex:Company . }",
    "SELECT ?x WHERE { ?x ex:age ?a . FILTER (?a > 30) }",
    "SELECT ?x ?y WHERE { ?x ex:age ?a . ?y ex:age ?b . FILTER (?a > ?b) }",
    "SELECT ?p ?a WHERE { ?p rdf:type ex:Person . OPTIONAL { ?p ex:age ?a } }",
    "SELECT ?p WHERE { ?p rdf:type ex:Person . OPTIONAL { ?p ex:worksFor ?c } FILTER (!BOUND(?c)) }",
    "SELECT ?x WHERE { { ?x ex:worksFor ex:acme } UNION { ?x ex:age ?a . FILTER (?a < 30) } }",
    "SELECT ?x ?n WHERE { { ?x ex:worksFor ex:acme } UNION { ?x ex:knows ex:alice } OPTIONAL { ?x ex:name ?n } }",
    "SELECT DISTINCT ?c WHERE { ?a ex:worksFor ?c . }",
    "SELECT ?a ?b WHERE { ?a ex:knows ?b . } ORDER BY ?a LIMIT 2",
    "SELECT ?a ?b WHERE { ?a ex:knows ?b . } LIMIT 2 OFFSET 1",
    "SELECT DISTINCT ?a WHERE { ?a ex:knows ?b . } ORDER BY ?a LIMIT 2 OFFSET 1",
]


def random_store(rng: random.Random) -> TripleStore:
    """A small random RDF store exercising types, literals and relations."""
    store = TripleStore()
    entities = [EX[f"e{i}"] for i in range(8)]
    integer = "http://www.w3.org/2001/XMLSchema#integer"
    triples = [
        Triple(EX.acme, RDF.type, EX.Company),
        Triple(EX.alice, EX.name, Literal("Alice")),
    ]
    for _ in range(22):
        triples.append(
            Triple(
                rng.choice(entities),
                rng.choice((EX.knows, EX.worksFor)),
                rng.choice(entities + [EX.acme, EX.alice]),
            )
        )
    for entity in entities:
        if rng.random() < 0.7:
            triples.append(
                Triple(entity, RDF.type, rng.choice((EX.Person, EX.Robot)))
            )
        if rng.random() < 0.6:
            triples.append(
                Triple(entity, EX.age, Literal(str(rng.randint(10, 60)), integer))
            )
    store.load(triples)
    store.freeze()
    return store


# ---------------------------------------------------------- matcher-level parity
class TestMatcherBatchParity:
    """Flattened batch streams ≡ the GenericMatcher oracle, iso + hom."""

    @pytest.mark.parametrize("mode_name", sorted(MODES))
    @pytest.mark.parametrize("seed", (1597, 5, 977))
    def test_sequential_batches_match_oracle(self, seed, mode_name):
        rng = random.Random(seed)
        graph = random_multigraph(rng)
        query = random_multigraph_query(rng)
        config = MODES[mode_name]()
        oracle = solution_multiset(GenericMatcher(graph, config).match(query))
        matcher = TurboMatcher(graph, config)
        flattened = [
            row
            for batch in matcher.iter_match_batches(query)
            for row in batch.iter_rows()
        ]
        assert solution_multiset(flattened) == oracle
        # The row adapter is the same enumeration as the batch stream.
        assert flattened == matcher.match(query)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_pool_batches_match_oracle(self, seed):
        rng = random.Random(seed)
        graph = random_multigraph(rng)
        query = random_multigraph_query(rng)
        config = MatchConfig.turbo_hom_pp()
        oracle = solution_multiset(GenericMatcher(graph, config).match(query))
        processes = ProcessShardPool(graph, config, workers=2, chunk_size=2)
        try:
            process_rows = [
                row
                for batch in processes.iter_match_batches(query)
                for row in batch.iter_rows()
            ]
            assert solution_multiset(process_rows) == oracle
        finally:
            processes.close()

    def test_batch_limit_slices_exactly(self):
        graph = star_graph(spokes=100, hubs=3)
        pool = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=2, chunk_size=1)
        try:
            rows = [
                row
                for batch in pool.iter_match_batches(star_query(), max_results=7)
                for row in batch.iter_rows()
            ]
            assert len(rows) == 7
            assert pool.last_stats is not None and pool.last_stats.solutions == 7
        finally:
            pool.close()


# ----------------------------------------------------------- engine-level parity
#: Connected, expansion-free BGPs (one plan component, vertex variables
#: only), for comparing solver batches against GenericMatcher id tuples.
MATCHER_LEVEL_BGPS = [
    "SELECT ?a ?b WHERE { ?a ex:knows ?b . ?a ex:worksFor ex:acme . }",
    "SELECT ?x ?y ?z WHERE { ?x ex:knows ?y . ?y ex:knows ?z . ?z ex:knows ?x . }",
    "SELECT ?x ?y WHERE { ?x ex:knows ?y . ?x rdf:type ex:Person . }",
]


class TestEnginePipelineParity:
    """engine ≡ independent baselines, across the feature surface."""

    @pytest.fixture
    def engines(self, small_rdf_store):
        engine = TurboHomPPEngine(workers=1)
        oracle = BitmapEngine()
        engine.load(small_rdf_store)
        oracle.load(small_rdf_store)
        yield engine, oracle

    @pytest.mark.parametrize("sparql", FEATURE_QUERIES)
    def test_engine_equals_bitmap_sequential(self, engines, assert_same_answers, sparql):
        engine, oracle = engines
        assert_same_answers(engine, oracle, PREFIX + sparql)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_engine_equals_bitmap_random_stores(self, assert_same_answers, seed):
        store = random_store(random.Random(seed))
        engine = TurboHomPPEngine(workers=1)
        oracle = BitmapEngine()
        engine.load(store)
        oracle.load(store)
        for sparql in FEATURE_QUERIES:
            assert_same_answers(engine, oracle, PREFIX + sparql)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_isomorphism_solver_equals_generic_matcher(self, seed):
        """The baselines are homomorphism-only, so the isomorphism leg
        compares the solver's id columns with GenericMatcher on the plan's
        own transformed query graph."""
        config = MatchConfig.isomorphism()
        engine = TurboEngine(type_aware=True, config=config, workers=1)
        engine.load(random_store(random.Random(seed)))
        solver = engine.bgp_solver()
        for sparql in MATCHER_LEVEL_BGPS:
            patterns = parse_sparql(PREFIX + sparql).where.triples
            (alternative,) = solver.plan(patterns).alternatives
            (component,) = alternative.components
            variables = [v for v in component.query.vertices if v.is_variable]
            oracle = Counter(
                tuple(solution[v.index] for v in variables)
                for solution in GenericMatcher(engine.graph, config).match(component.query)
            )
            got = Counter(
                tuple(batch.raw(v.name, row) for v in variables)
                for batch in solver.solve_batches(patterns)
                for row in range(batch.rows)
            )
            assert got == oracle, f"{sparql} (seed {seed})"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sequential_and_sharded_engine_equal_bitmap(
        self, small_rdf_store, assert_same_answers, workers
    ):
        engine = TurboHomPPEngine(workers=workers)
        oracle = BitmapEngine()
        engine.load(small_rdf_store)
        oracle.load(small_rdf_store)
        try:
            for sparql in FEATURE_QUERIES:
                assert_same_answers(engine, oracle, PREFIX + sparql)
        finally:
            engine.close()

    def test_engine_equals_rdf3x_baseline(self, small_rdf_store, assert_same_answers):
        """A second cross-implementation oracle: the RDF-3X-style baseline."""
        engine = TurboHomPPEngine(workers=1)
        baseline = RDF3XEngine()
        engine.load(small_rdf_store)
        baseline.load(small_rdf_store)
        for sparql in FEATURE_QUERIES:
            if "OPTIONAL" in sparql:
                continue  # mirrors the paper's no-OPTIONAL footnote
            assert_same_answers(engine, baseline, PREFIX + sparql)


# ------------------------------------------------------------ queue transport
class TestQueueTransport:
    def test_id_batches_move_through_the_queue(self):
        graph = star_graph(spokes=500, hubs=4)
        pool = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=2, chunk_size=1)
        try:
            solutions, _ = pool.match(star_query())
            assert len(solutions) == 4 * 500
            assert pool.transport.queue_batches > 0
            assert pool.transport.solutions == len(solutions)
        finally:
            pool.close()

    @pytest.mark.parametrize("width", [1, 2, 6])
    def test_batch_pickle_does_not_grow_with_rows(self, width):
        """The queue pickles a batch as one buffer per column: a full batch
        takes no more pickle opcodes than a two-row one, so no row is ever
        pickled as an object of its own."""

        def opcodes(rows: int) -> int:
            batch = SolutionBatch([array("q", range(rows)) for _ in range(width)], rows)
            return sum(1 for _ in pickletools.genops(bytes(ForkingPickler.dumps(batch))))

        assert opcodes(SOLUTION_BATCH_SIZE) <= opcodes(2)

    def test_retired_ring_slots_is_a_type_error(self):
        with pytest.raises(TypeError, match="ring_slots"):
            ProcessShardPool(star_graph(spokes=2), workers=2, ring_slots=0)


# ---------------------------------------------------------------- batch shape
class TestBatchShape:
    """Batches belong to the worker, not to the candidate region."""

    #: 600 hubs of 3 spokes: 600 candidate regions, 3 solutions each.
    HUBS, SPOKES = 600, 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unlimited_job_ships_full_batches_plus_one_tail_per_worker(self, workers):
        graph = star_graph(spokes=self.SPOKES, hubs=self.HUBS)
        query = star_query()
        solutions = self.HUBS * self.SPOKES
        oracle = solution_multiset(
            TurboMatcher(graph, MatchConfig.turbo_hom_pp()).iter_match(query)
        )
        assert sum(oracle.values()) == solutions
        pool = make_pool(graph, workers)
        try:
            batches = list(pool.iter_match_batches(query))
            assert solution_multiset(
                row for batch in batches for row in batch.iter_rows()
            ) == oracle
            partial = [batch for batch in batches if batch.rows < SOLUTION_BATCH_SIZE]
            assert len(partial) <= workers
            assert all(batch.rows <= SOLUTION_BATCH_SIZE for batch in batches)
            assert len(batches) <= math.ceil(solutions / SOLUTION_BATCH_SIZE) + workers
            if workers > 1:
                assert pool.transport.queue_batches == len(batches)
                assert pool.transport.solutions == solutions
        finally:
            pool.close()


class TestMergeLoop:
    """``merge_solution_batches`` against a scripted transport."""

    @staticmethod
    def run(script, finished_after):
        """Drive the loop; ``finished()`` turns True after that many polls.

        Returns the delivered batches and the ``(finished, timeout)`` pair
        of every ``poll`` call.
        """
        pending = deque(script)
        polls = []

        def finished():
            return len(polls) >= finished_after

        def poll(timeout):
            polls.append((finished(), timeout))
            return pending.popleft() if pending else None

        delivered = list(
            merge_solution_batches(poll, finished, None, StreamOutcome())
        )
        return delivered, polls

    @staticmethod
    def batch(rows):
        return SolutionBatch([array("q", range(rows))], rows)

    @pytest.mark.parametrize("finished_after", [0, 2])
    def test_finished_job_is_never_polled_with_a_timeout(self, finished_after):
        """A wake token can be dropped on a full queue, so the loop must not
        rely on one: once ``finished()`` is true only the non-blocking drain
        runs — no poll may sleep out a POLL_INTERVAL."""
        script = [self.batch(4), self.batch(5), SolutionBatch.empty(), self.batch(6)]
        delivered, polls = self.run(script, finished_after)
        assert [batch.rows for batch in delivered] == [4, 5, 6]
        assert len(polls) == len(script) + 1  # ends on the first empty poll
        assert all(timeout > 0 for done, timeout in polls if not done)
        assert all(timeout == 0 for done, timeout in polls if done)


# ---------------------------------------------------------------- validation
class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"execution_mode": "threads", "workers": 2},
            {"execution_mode": "procceses", "workers": 2},
            {"execution_mode": "processes"},
            {"execution_mode": "processes", "workers": 1},
        ],
        ids=["threads", "typo", "processes-workers-unset", "processes-workers-1"],
    )
    def test_retired_execution_mode_argument_is_rejected(self, monkeypatch, kwargs):
        # Never read from the environment: an env worker count does not
        # stand in for the explicit ``workers > 1`` the one accepted
        # spelling (see test_shard_lifecycle) must come with.
        monkeypatch.setenv("REPRO_EXECUTION_WORKERS", "2")
        with pytest.raises(EngineError, match="retired"):
            TurboHomPPEngine(**kwargs)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_non_positive_worker_argument(self, workers):
        with pytest.raises(ValueError, match="positive"):
            TurboHomPPEngine(workers=workers)

    @pytest.mark.parametrize("value", ["zero", "0", "-3", "2.5"])
    def test_malformed_worker_env(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_EXECUTION_WORKERS", value)
        with pytest.raises(ValueError, match="REPRO_EXECUTION_WORKERS"):
            TurboHomPPEngine()

    def test_explicit_workers_win_over_the_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTION_WORKERS", "2")
        assert TurboHomPPEngine().workers == 2
        assert TurboHomPPEngine(workers=1).workers == 1
        assert TurboHomPPEngine(workers=3).workers == 3

    def test_stale_execution_mode_env_changes_nothing(self, monkeypatch, small_rdf_store):
        monkeypatch.setenv("REPRO_EXECUTION_MODE", "threads")
        monkeypatch.delenv("REPRO_EXECUTION_WORKERS", raising=False)
        engine = TurboHomPPEngine()
        engine.load(small_rdf_store)
        assert len(engine.query(PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }")) == 3
        assert engine.workers == 1 and engine._executor is None
        assert "execution_mode" not in engine.stats()


# --------------------------------------------------------------------- stats
class TestEngineStats:
    def test_plan_cache_and_pipeline_counters(self, small_rdf_store):
        engine = TurboHomPPEngine(plan_cache_size=2, workers=1)
        engine.load(small_rdf_store)
        queries = [
            "SELECT ?a ?b WHERE { ?a ex:knows ?b . }",
            "SELECT ?a WHERE { ?a ex:worksFor ex:acme . }",
            "SELECT ?p WHERE { ?p rdf:type ex:Person . }",
        ]
        for sparql in queries:
            engine.query(PREFIX + sparql)
        engine.query(PREFIX + queries[-1])  # warm repeat → hit
        stats = engine.stats()
        assert stats["workers"] == 1
        assert stats["pipeline"]["solutions"] > 0
        assert stats["pipeline"]["batches"] > 0
        cache = stats["plan_cache"]
        assert cache["misses"] == 3
        assert cache["hits"] == 1
        assert cache["evictions"] == 1  # capacity 2, three distinct plans
        assert cache["size"] == 2
        assert stats["transport"] is None  # sequential: nothing crosses processes

    def test_transport_counters_in_process_mode(self, small_rdf_store):
        engine = TurboHomPPEngine(workers=2)
        engine.load(small_rdf_store)
        try:
            engine.query(PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }")
            transport = engine.stats()["transport"]
            assert set(transport) == {"queue_batches", "solutions"}
            assert transport["queue_batches"] > 0
            assert transport["solutions"] == 3
        finally:
            engine.close()


# ------------------------------------------------------- late materialization
class TestLateMaterialization:
    @pytest.fixture
    def fanout_store(self):
        store = TripleStore()
        triples = [
            Triple(EX[f"p{i}"], EX.knows, EX[f"q{j}"])
            for i in range(40)
            for j in range(30)
        ]
        store.load(triples)
        store.freeze()
        return store

    def test_solver_batches_carry_raw_id_columns(self, small_rdf_store):
        engine = TurboHomPPEngine(workers=1)
        engine.load(small_rdf_store)
        solver = engine.bgp_solver()
        patterns = parse_sparql(
            PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }"
        ).where.triples
        batches = list(solver.solve_batches(patterns))
        assert batches
        for batch in batches:
            assert set(batch.variables) == {"a", "b"}
            assert all(batch.kinds[var] == KIND_ID for var in batch.variables)

    def test_distinct_limit_decodes_only_delivered_rows(self, fanout_store, decoded_cells):
        """1200 embeddings, DISTINCT → 40, LIMIT 2 → exactly 2 decodes."""
        engine = TurboHomPPEngine(workers=1)
        engine.load(fanout_store)
        result = engine.query(
            PREFIX + "SELECT DISTINCT ?x WHERE { ?x ex:knows ?y . } LIMIT 2"
        )
        assert len(result) == 2
        # DISTINCT deduplicated and LIMIT sliced on raw ids; only the two
        # delivered rows (one projected variable each) were materialized.
        assert decoded_cells() == 2
