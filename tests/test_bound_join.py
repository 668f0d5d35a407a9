"""Bound joins: a small left side restricts the right side's BGP.

* **Differential** — derandomized Hypothesis draws layered stores whose
  ``ex:p`` left side has 0, 1, 256 or 257 rows, on both sides of the
  256-row rule; OPTIONAL, UNION and nested OPTIONAL answers must equal the
  independent baselines' (``BitmapEngine``, and ``RDF3XEngine`` where
  there is no OPTIONAL) under the isomorphism and homomorphism configs.
  The layers (A → B → C → D) keep distinct query vertices on disjoint data
  vertices, so the homomorphism-only baselines are valid oracles for the
  isomorphism config too.  The queries cover a left column with
  OPTIONAL-unbound cells, a predicate-variable (term-kind) join variable,
  a restricted vertex that is not the plan's start vertex (a re-root) and
  one that carries an ``rdf:type`` label.  A 700-row base is matched once
  in one process; on process shards it is restarted after the right
  sides, which still ship through the shard transport.
* **Counts** — never timings: one BSBM Q7 instance is one bound join whose
  matcher solutions are the rows of its BGPs restricted to the product;
  ``query_batches`` pulls nothing before the first ``next()``; a bound
  OPTIONAL on process shards adds no ring batch; closing such a stream
  mid-way leaks no ``/dev/shm`` segment or spill directory.
* **Spill** — a bound right side larger than a 4 kB join budget still
  spills, with the same answers.
"""

from __future__ import annotations

import glob
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bitmap_engine import BitmapEngine
from repro.baselines.rdf3x import RDF3XEngine
from repro.engine.turbo_engine import TurboEngine, TurboHomPPEngine
from repro.matching.config import MatchConfig
from repro.rdf.namespaces import Namespace, RDF
from repro.rdf.store import TripleStore
from repro.rdf.terms import Literal, Triple
from repro.sparql.parser import parse_sparql

EX = Namespace("http://example.org/")
PREFIX = (
    "PREFIX ex: <http://example.org/> "
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
)

B_NODES, C_NODES, D_NODES, SPECIAL = 300, 60, 40, 5

CONFIGS = {
    "hom": MatchConfig.turbo_hom_pp,
    "iso": MatchConfig.isomorphism,
}

#: One bound join while the ``ex:p`` left side has at most 256 rows, none
#: beyond.
ONE_WHILE_SMALL = {0: 1, 1: 1, 256: 1, 257: 0}

#: (query, bound joins per left-side size, where the count is fixed).
QUERIES = [
    # OPTIONAL: ?b is restricted; the plan starts at ?c (60 objects against
    # ≈200 subjects), so a left side with fewer distinct ?b re-roots.
    ("SELECT * WHERE { ?a ex:p ?b . OPTIONAL { ?b ex:q ?c } }", ONE_WHILE_SMALL),
    # UNION: a single-vertex alternative with a label, and a structural one.
    (
        "SELECT * WHERE { ?a ex:p ?b . "
        "{ ?b rdf:type ex:Special } UNION { ?b ex:q ?c } }",
        ONE_WHILE_SMALL,
    ),
    # Nested OPTIONAL: the inner join's left side is the outer right side.
    (
        "SELECT * WHERE { ?a ex:p ?b . "
        "OPTIONAL { ?b ex:q ?c . OPTIONAL { ?c ex:s ?d } } }",
        None,
    ),
    # The second OPTIONAL joins on ?c, unbound wherever the first found no
    # ex:q edge (see also test_optional_unbound_column_is_not_restricted).
    (
        "SELECT * WHERE { ?a ex:p ?b . OPTIONAL { ?b ex:q ?c } "
        "OPTIONAL { ?c ex:s ?d } }",
        None,
    ),
    # A restricted vertex with an rdf:type label.
    (
        "SELECT * WHERE { ?a ex:p ?b . "
        "OPTIONAL { ?b rdf:type ex:B . ?b ex:q ?c } }",
        ONE_WHILE_SMALL,
    ),
    # A predicate variable joins in the term domain: never restricted.
    (
        "SELECT * WHERE { ex:b1 ?pp ?o . OPTIONAL { ?s ?pp ?o2 } }",
        dict.fromkeys(ONE_WHILE_SMALL, 0),
    ),
    (
        "SELECT ?pp ?o ?s WHERE { ex:b1 ?pp ?o . "
        "{ ?s ?pp ?o } UNION { ?o ?pp ?s } }",
        dict.fromkeys(ONE_WHILE_SMALL, 0),
    ),
]


def layered_store(seed: int, left_rows: int) -> TripleStore:
    """``left_rows`` A → B ``ex:p`` edges over a fixed B → C → D layering."""
    rng = random.Random(seed)
    triples = [
        Triple(EX[f"a{i}"], EX.p, EX[f"b{rng.randrange(B_NODES)}"])
        for i in range(left_rows)
    ]
    for j in range(B_NODES):
        b = EX[f"b{j}"]
        if j % 3:
            triples.append(Triple(b, RDF.type, EX.B))
        if j < SPECIAL:
            triples.append(Triple(b, RDF.type, EX.Special))
        for _ in range(rng.randrange(3)):
            triples.append(Triple(b, EX.q, EX[f"c{rng.randrange(C_NODES)}"]))
        if rng.random() < 0.5:
            triples.append(Triple(b, EX.val, Literal(str(j % 7))))
    for k in range(C_NODES):
        for _ in range(rng.randrange(3)):
            triples.append(Triple(EX[f"c{k}"], EX.s, EX[f"d{rng.randrange(D_NODES)}"]))
    store = TripleStore()
    store.load(triples)
    store.freeze()
    return store


def bound_joins(engine) -> int:
    return engine.stats()["operators"]["bound_joins"]


def spill_dirs():
    return set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-spill-*")))


# ----------------------------------------------------------------- differential
class TestBoundJoinParity:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("left_rows", [0, 1, 256, 257])
    @settings(derandomize=True, max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_answers_equal_the_baselines(
        self, assert_same_answers, left_rows, config, seed
    ):
        store = layered_store(seed, left_rows)
        engine = TurboEngine(type_aware=True, config=CONFIGS[config]())
        bitmap, rdf3x = BitmapEngine(), RDF3XEngine()
        for loaded in (engine, bitmap, rdf3x):
            loaded.load(store)
        try:
            for sparql, counts in QUERIES:
                before = bound_joins(engine)
                oracle = bitmap if "OPTIONAL" in sparql else rdf3x
                assert_same_answers(engine, oracle, PREFIX + sparql)
                if counts is not None:
                    assert bound_joins(engine) - before == counts[left_rows], sparql
        finally:
            engine.close()

    def test_optional_unbound_column_is_not_restricted(self, assert_same_answers):
        """?c is unbound in a1's row, which joins every ``ex:s`` row: a
        restriction to the bound ?c values would keep only (a1, b1, c0, d0)."""
        store = TripleStore()
        store.load(
            [
                Triple(EX.a0, EX.p, EX.b0),
                Triple(EX.a1, EX.p, EX.b1),
                Triple(EX.b0, EX.q, EX.c0),
            ]
            + [Triple(EX[f"c{i}"], EX.s, EX[f"d{i}"]) for i in range(4)]
        )
        store.freeze()
        engine = TurboHomPPEngine()
        oracle = BitmapEngine()
        engine.load(store)
        oracle.load(store)
        try:
            sparql = PREFIX + QUERIES[3][0]
            assert_same_answers(engine, oracle, sparql)
            assert len(engine.query(sparql)) == 5
            assert bound_joins(engine) == 2  # the first OPTIONAL, twice
        finally:
            engine.close()

    def test_restricted_vertex_re_roots_the_component(self, assert_same_answers):
        store = layered_store(seed=3, left_rows=4)
        engine = TurboHomPPEngine(workers=1)
        oracle = BitmapEngine()
        engine.load(store)
        oracle.load(store)
        sparql = PREFIX + QUERIES[0][0]
        right = parse_sparql(sparql).where.optionals[0]
        (component,) = engine.bgp_solver().plan(right.triples).alternatives[0].components
        names = [vertex.name for vertex in component.query.vertices]
        assert names[component.prepared.start_vertex] == "c"
        try:
            assert_same_answers(engine, oracle, sparql)
            assert list(component.reroots) == [names.index("b")]
            # The re-rooted regions are cached under their own key suffix:
            # a warm rerun hits them and answers the same.
            hits = engine.stats()["region_cache"]["hits"]
            assert_same_answers(engine, oracle, sparql)
            assert engine.stats()["region_cache"]["hits"] > hits
        finally:
            engine.close()

    @pytest.mark.parametrize("sparql", [QUERIES[0][0], QUERIES[3][0]])
    def test_large_base_keeps_the_right_side_on_shards(
        self, assert_same_answers, sparql
    ):
        """A base over 256 rows is closed and restarted after the right sides
        are built.  They run on the shard pool (one job per thread at a
        time) without superseding the open base and without moving to the
        parent process."""
        store = layered_store(seed=5, left_rows=700)
        engine = TurboHomPPEngine(workers=2)
        oracle = BitmapEngine()
        engine.load(store)
        oracle.load(store)
        right_rows = len(oracle.query(PREFIX + "SELECT * WHERE { ?b ex:q ?c }"))
        try:
            engine.bgp_solver()  # builds the executor whose transport counts
            before = engine.stats()["transport"]["solutions"]
            assert_same_answers(engine, oracle, PREFIX + sparql)
            shipped = engine.stats()["transport"]["solutions"] - before
            assert bound_joins(engine) == 0
            # The restarted 700-row base and the first right side, at least.
            assert shipped >= 700 + right_rows
        finally:
            engine.close()

    def test_large_base_in_one_process_is_matched_once(self):
        """Without worker jobs nothing needs a restart: the held batches are
        chained in front of the rest of the base."""
        store = layered_store(seed=5, left_rows=700)
        engine = TurboHomPPEngine(workers=1)
        oracle = BitmapEngine()
        engine.load(store)
        oracle.load(store)
        right_rows = len(oracle.query(PREFIX + "SELECT * WHERE { ?b ex:q ?c }"))
        try:
            engine.query(PREFIX + QUERIES[0][0])
            assert bound_joins(engine) == 0
            assert engine.stats()["pipeline"]["solutions"] == 700 + right_rows
        finally:
            engine.close()


# ----------------------------------------------------------------------- counts
class TestBoundJoinCounts:
    def test_bsbm_q7_restricts_the_nested_optional(self, bsbm_small):
        """Q7's nested ``OPTIONAL { ?review bsbm:rating1 ?rating }`` matches
        the requested product's reviews, not every review in the store."""
        sparql = bsbm_small.queries["Q7"]
        product = "inst:Product1"
        assert product in sparql
        prefixes = sparql[: sparql.index("SELECT")]
        oracle = BitmapEngine()
        oracle.load(bsbm_small.store)

        def rows(pattern: str) -> int:
            return len(oracle.query(prefixes + "SELECT * WHERE { " + pattern + " }"))

        offers = (
            f"?offer bsbm:product {product} . ?offer bsbm:price ?price . "
            "?offer bsbm:vendor ?vendor . ?vendor rdfs:label ?vendorName ."
        )
        reviews = f"?review bsbm:reviewFor {product} ."
        expected = (
            rows(f"{product} rdfs:label ?productLabel .")
            + rows(offers)
            + rows(reviews)
            + rows(reviews + " ?review bsbm:rating1 ?rating .")
        )
        assert rows("?review bsbm:rating1 ?rating .") > rows(reviews)

        engine = TurboHomPPEngine()
        engine.load(bsbm_small.store)
        try:
            result = engine.query(sparql)
            stats = engine.stats()
            assert result.same_solutions(oracle.query(sparql))
            assert stats["operators"]["bound_joins"] == 1
            assert stats["pipeline"]["solutions"] == expected
        finally:
            engine.close()

    def test_nothing_is_pulled_before_the_first_next(self, bsbm_small):
        engine = TurboHomPPEngine()
        engine.load(bsbm_small.store)
        try:
            stream = engine.query_batches(bsbm_small.queries["Q7"])
            stats = engine.stats()
            assert stats["pipeline"]["solutions"] == 0
            assert stats["operators"]["bound_joins"] == 0
            next(stream)
            assert engine.stats()["pipeline"]["solutions"] > 0
            stream.close()
        finally:
            engine.close()

    def test_bound_optional_adds_no_ring_batch(self):
        store = layered_store(seed=7, left_rows=0)
        engine = TurboHomPPEngine(workers=2)
        engine.load(store)
        engine.bgp_solver()  # builds the executor whose transport counts
        try:
            def ring_batches(sparql: str) -> int:
                before = engine.stats()["transport"]["ring_batches"]
                engine.query(PREFIX + sparql)
                return engine.stats()["transport"]["ring_batches"] - before

            left = "?b rdf:type ex:Special . "
            assert ring_batches(
                "SELECT * WHERE { " + left + "OPTIONAL { ?b ex:q ?c } }"
            ) == 0
            assert bound_joins(engine) == 1
            # The same right side without a shared variable runs on shards.
            assert ring_batches(
                "SELECT * WHERE { " + left + "OPTIONAL { ?x ex:q ?c } }"
            ) > 0
        finally:
            engine.close()

    @pytest.mark.parametrize("left_rows", [40, 700])
    def test_closing_mid_stream_leaks_nothing(self, left_rows):
        """Bound (small left side) and unbound (left side held open on the
        shard pool) alike: no shm segment, no spill directory."""
        segments, spills = set(os.listdir("/dev/shm")), spill_dirs()
        engine = TurboHomPPEngine(workers=2, join_memory_bytes=4096)
        engine.load(layered_store(seed=9, left_rows=left_rows))
        stream = engine.query_batches(
            PREFIX + "SELECT * WHERE { ?a ex:p ?b . ?b ex:val ?v . "
            "OPTIONAL { ?b ex:q ?c . ?c ex:s ?d } }"
        )
        next(stream)
        stream.close()
        engine.close()
        assert set(os.listdir("/dev/shm")) <= segments
        assert spill_dirs() <= spills


# ------------------------------------------------------------------------ spill
def department_store() -> TripleStore:
    """Five departments; ``ex:dept0`` alone has 400 students."""
    triples = []
    for d in range(5):
        triples.append(Triple(EX[f"dept{d}"], EX.code, Literal(f"D{d}")))
    for i in range(600):
        student = EX[f"student{i}"]
        department = EX.dept0 if i < 400 else EX[f"dept{1 + i % 4}"]
        triples.append(Triple(student, EX.memberOf, department))
        triples.append(Triple(student, EX.name, Literal(f"n{i}")))
    store = TripleStore()
    store.load(triples)
    store.freeze()
    return store


def test_bound_right_side_over_the_budget_still_spills(assert_same_answers):
    """One department on the left, all 400 of its students on the right:
    the restricted right side (≈ 9.6 kB of id cells) exceeds a 4 kB budget."""
    store = department_store()
    engine = TurboHomPPEngine(join_memory_bytes=4096, join_partitions=4)
    oracle = BitmapEngine()
    engine.load(store)
    oracle.load(store)
    try:
        assert_same_answers(
            engine,
            oracle,
            PREFIX + 'SELECT * WHERE { ?d ex:code "D0" . '
            "OPTIONAL { ?s ex:memberOf ?d . ?s ex:name ?n } }",
        )
        stats = engine.stats()
        assert stats["operators"]["bound_joins"] == 1
        assert stats["operators"]["bound_ids"] == 1
        # One department row, then only its 400 students: restricted.
        assert stats["pipeline"]["solutions"] == 1 + 400
        assert stats["operators"]["spilled_partitions"] > 0
    finally:
        engine.close()
