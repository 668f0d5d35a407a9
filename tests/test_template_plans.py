"""Template plans: one compile per query template, bound per instance.

The plan cache keys a BGP on its template (subject/object constants lifted
into slots, see ``docs/caching.md``), and a hit binds the cached plan to the
instance's constants instead of compiling.  These tests hold the bound plans
to the answers of the independent ``BitmapEngine`` and of an engine that
compiles every query (``plan_cache_size=0``):

* **Parity** — instances of the BSBM templates and LUBM queries run in a
  row on one engine: a constant the data lacks (before and after a present
  one), a literal constant, one constant in two places and then two
  distinct ones, two ``rdf:type`` classes (two plans), the variable
  predicates of Q9/Q11 (whose ``rdf:type`` reading folds a slot into a
  vertex label) and a bound-join right side re-rooted at its restricted
  vertex while a non-start constant pins it.  The direct transformation
  (every constant a label) runs the same instances.
* **Counts** — 20 instances of one template compile once and hit 19 times;
  two instances on shard workers never share a shipped worker payload.
* **Parse cache** — ``stats()["parse_cache"]``, survival across
  ``load()``, no mutation of a cached ``SelectQuery`` by evaluation, no
  cached syntax error, and consistent counters under a serving engine's
  concurrent queries.
"""

from __future__ import annotations

import re
import threading

import pytest

import repro.engine.turbo_engine as turbo_engine
from repro.baselines.bitmap_engine import BitmapEngine
from repro.datasets.bsbm import BSBM_QUERIES
from repro.engine.plan_cache import bgp_fingerprint
from repro.engine.turbo_engine import TurboEngine, TurboHomEngine, TurboHomPPEngine
from repro.exceptions import ReproError
from repro.matching.process_shard import ProcessShardPool
from repro.rdf.namespaces import Namespace
from repro.rdf.store import TripleStore
from repro.rdf.terms import Triple
from repro.serving.server import ServerThread
from repro.sparql.parser import parse_sparql

BSBM_PREFIXES = (
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
    "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "
    "PREFIX bsbm: <http://www4.wiwiss.fu-berlin.de/bizer/bsbm/v01/vocabulary/> "
    "PREFIX inst: <http://www4.wiwiss.fu-berlin.de/bizer/bsbm/v01/instances/> "
)
LUBM_PREFIXES = (
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
)
DEPT = "<http://www.Department{}.University0.edu>"
COURSE = "<http://www.Department0.University0.edu/{}>"

EX = Namespace("http://example.org/")
EX_PREFIX = "PREFIX ex: <http://example.org/> "


def bsbm(template: str, **numbers: int) -> str:
    """A BSBM query text with ``inst:<Name>1`` replaced by ``inst:<Name><n>``."""
    return re.sub(
        r"inst:(Product|Offer|Review)1\b",
        lambda match: f"inst:{match.group(1)}{numbers.get(match.group(1), 1)}",
        BSBM_QUERIES[template],
    )


#: Instance sequences of one template each, run in order on one engine.
BSBM_CASES = {
    # Present, absent (the plan was compiled for a present product), present.
    "Q2-missing-product": [
        bsbm("Q2", Product=3), bsbm("Q2", Product=999999), bsbm("Q2", Product=5),
    ],
    # Compiled for an absent product first, then bound to present ones.
    "Q8-missing-first": [
        bsbm("Q8", Product=999999), bsbm("Q8", Product=2), bsbm("Q8", Product=7),
    ],
    "Q10-offers": [bsbm("Q10", Product=n) for n in (1, 4, 9, 4)],
    "Q12-offer": [bsbm("Q12", Offer=n) for n in (1, 17, 999999, 2)],
    # Predicate variables: the rdf:type reading binds a constant subject's
    # type variable (Q9) and folds a constant object into a label (Q11).
    "Q9-review": [bsbm("Q9", Review=n) for n in (3, 999999, 8, 3)],
    "Q11-offer": [bsbm("Q11", Offer=n) for n in (1, 999999, 6)],
    "class-valued-slot": [
        BSBM_PREFIXES + f"SELECT ?x ?p WHERE {{ ?x ?p {term} . }}"
        for term in ("bsbm:Offer", "inst:Product1", "bsbm:Product", "inst:Nowhere")
    ],
}

#: LUBM instances.  ub:worksFor is a subproperty of ub:memberOf.
LUBM_CASES = {
    "Q1-courses": [
        LUBM_PREFIXES + "SELECT ?x WHERE { ?x rdf:type ub:GraduateStudent . "
        f"?x ub:takesCourse {COURSE.format(name)} . }}"
        for name in ("GraduateCourse0", "GraduateCourse1", "NoSuchCourse", "GraduateCourse0")
    ],
    # A constant subject with a variable predicate: the rdf:type reading
    # binds ?o from the subject's label set, which differs per instance.
    "typed-subjects": [
        LUBM_PREFIXES + f"SELECT ?p ?o WHERE {{ {COURSE.format(name)} ?p ?o . }}"
        for name in (
            "AssistantProfessor0", "GraduateCourse0", "NoSuchEntity", "AssociateProfessor0",
        )
    ],
    "one-then-two-constants": [
        LUBM_PREFIXES + "SELECT ?x WHERE { "
        f"?x ub:worksFor {DEPT.format(a)} . ?x ub:memberOf {DEPT.format(b)} . }}"
        for a, b in ((0, 0), (1, 1), (0, 1), (1, 0), (2, 2))
    ],
}


def literal_case(store):
    """Instances whose slot is a literal: two present names and an absent one."""
    engine = BitmapEngine()
    engine.load(store)
    names = sorted(
        {
            row["n"].lexical
            for row in engine.query(
                LUBM_PREFIXES + "SELECT ?n WHERE { ?x rdf:type ub:FullProfessor . "
                "?x ub:name ?n . }"
            )
        }
    )[:2]
    return [
        LUBM_PREFIXES + f'SELECT ?x ?e WHERE {{ ?x ub:name "{name}" . '
        "?x ub:emailAddress ?e . }"
        for name in names + ["Nobody Here"]
    ]


def run_instances(store, texts, assert_same_answers, engine_class=TurboHomPPEngine):
    """Answer every instance like ``BitmapEngine`` and a compile-always engine."""
    engine, uncached, oracle = engine_class(), engine_class(plan_cache_size=0), BitmapEngine()
    for each in (engine, uncached, oracle):
        each.load(store)
    try:
        for text in texts:
            assert_same_answers(engine, oracle, text)
            assert_same_answers(engine, uncached, text)
        return engine.stats()["plan_cache"]
    finally:
        engine.close()
        uncached.close()


class TestTemplateParity:
    @pytest.mark.parametrize("engine_class", [TurboHomPPEngine, TurboHomEngine])
    @pytest.mark.parametrize("case", sorted(BSBM_CASES))
    def test_bsbm_instances(self, bsbm_small, assert_same_answers, case, engine_class):
        counters = run_instances(
            bsbm_small.store, BSBM_CASES[case], assert_same_answers, engine_class
        )
        # Every instance after the first binds a cached template.
        assert counters["hits"] >= 2 * len(BSBM_CASES[case]) - counters["misses"]

    @pytest.mark.parametrize("engine_class", [TurboHomPPEngine, TurboHomEngine])
    @pytest.mark.parametrize("case", sorted(LUBM_CASES))
    def test_lubm_instances(self, lubm1, assert_same_answers, case, engine_class):
        run_instances(lubm1.store, LUBM_CASES[case], assert_same_answers, engine_class)

    def test_literal_constant(self, lubm1, assert_same_answers):
        texts = literal_case(lubm1.store)
        counters = run_instances(lubm1.store, texts, assert_same_answers)
        # Each instance runs twice (against both references).
        assert (counters["misses"], counters["hits"]) == (1, 2 * len(texts) - 1)

    def test_shared_and_distinct_constants_are_two_templates(self, lubm1):
        (same, other) = [
            parse_sparql(text).where.triples
            for text in LUBM_CASES["one-then-two-constants"][:3:2]
        ]
        same_key, same_slots = bgp_fingerprint(same)
        other_key, other_slots = bgp_fingerprint(other)
        assert same_key != other_key  # one query vertex against two
        assert (len(same_slots), len(other_slots)) == (1, 2)
        counters = run_instances(
            lubm1.store, LUBM_CASES["one-then-two-constants"],
            lambda engine, oracle, text: engine.query(text),
        )
        assert counters["misses"] == 2

    def test_two_type_classes_compile_two_plans(self, lubm1, assert_same_answers):
        texts = [
            LUBM_PREFIXES + f"SELECT ?x WHERE {{ ?x rdf:type ub:{cls} . "
            f"?x ub:takesCourse {COURSE.format(course)} . }}"
            for cls in ("GraduateStudent", "UndergraduateStudent")
            for course in ("GraduateCourse0", "Course0")
        ]
        counters = run_instances(lubm1.store, texts, assert_same_answers)
        assert (counters["misses"], counters["hits"]) == (2, 6)


# --------------------------------------------------- bound join, re-rooted
def rerooted_store() -> TripleStore:
    """b → c over three predicates, c → d over three, d → k over one.

    Every predicate has two subjects, so the right side below starts at
    ``?c`` (two candidates, the lowest rank), with the constant outside
    the ranked top three.
    """
    triples = [Triple(EX.a0, EX.p, EX.b0)]
    for i in range(2):
        b, c, d = EX[f"b{i}"], EX[f"c{i}"], EX[f"d{i}"]
        triples += [Triple(b, EX[f"q{j}"], c) for j in range(3)]
        triples += [Triple(c, EX[f"r{j}"], d) for j in range(3)]
        triples.append(Triple(d, EX.s, EX[f"k{i}"]))
    store = TripleStore()
    store.load(triples)
    store.freeze()
    return store


def rerooted_query(constant: str) -> str:
    return EX_PREFIX + (
        "SELECT * WHERE { ?a ex:p ?b . OPTIONAL { "
        "?b ex:q0 ?c . ?b ex:q1 ?c . ?b ex:q2 ?c . "
        "?c ex:r0 ?d . ?c ex:r1 ?d . ?c ex:r2 ?d . "
        f"?d ex:s ex:{constant} . }} }}"
    )


class TestReRootedBoundJoin:
    def test_instances_differing_in_a_pinned_constant(self, assert_same_answers):
        store = rerooted_store()
        engine, oracle = TurboHomPPEngine(workers=1), BitmapEngine()
        engine.load(store)
        oracle.load(store)
        try:
            right = parse_sparql(rerooted_query("k0")).where.optionals[0]
            (component,) = engine.bgp_solver().plan(right.triples).alternatives[0].components
            names = [vertex.name for vertex in component.query.vertices]
            assert names[component.prepared.start_vertex] == "c"
            answers = []
            for constant in ("k0", "k1", "k0", "k1"):
                sparql = rerooted_query(constant)
                assert_same_answers(engine, oracle, sparql)
                (row,) = engine.query(sparql).rows
                answers.append(sum(value is not None for value in row.values()))
            # k0 completes the OPTIONAL for b0; k1 leaves it unbound.
            assert answers == [4, 2, 4, 2]
            assert list(component.reroots) == [names.index("b")]
            assert engine.stats()["region_cache"]["hits"] > 0
        finally:
            engine.close()


# ------------------------------------------------------------------ counts
class TestCompileOnce:
    def test_twenty_instances_compile_once(self, bsbm_small, monkeypatch):
        compiles = []
        compile_query = turbo_engine.compile_query

        def counting(*args, **kwargs):
            compiles.append(args)
            return compile_query(*args, **kwargs)

        monkeypatch.setattr(turbo_engine, "compile_query", counting)
        engine = TurboHomPPEngine()
        engine.load(bsbm_small.store)
        try:
            for product in range(1, 21):
                engine.query(bsbm("Q2", Product=product))
            counters = engine.stats()["plan_cache"]
            assert len(compiles) == 1
            assert (counters["misses"], counters["hits"], counters["size"]) == (1, 19, 1)
        finally:
            engine.close()

    @pytest.mark.parametrize("plan_cache_size", [0, 128])
    def test_shard_payload_is_per_instance(
        self, bsbm_small, assert_same_answers, monkeypatch, plan_cache_size
    ):
        keys = []
        iter_match_batches = ProcessShardPool.iter_match_batches

        def recording(self, *args, **kwargs):
            keys.append(kwargs.get("plan_key"))
            return iter_match_batches(self, *args, **kwargs)

        monkeypatch.setattr(ProcessShardPool, "iter_match_batches", recording)
        engine = TurboEngine(workers=2, plan_cache_size=plan_cache_size)
        oracle = BitmapEngine()
        engine.load(bsbm_small.store)
        oracle.load(bsbm_small.store)
        try:
            for product in (3, 5, 3):
                assert_same_answers(engine, oracle, bsbm("Q10", Product=product))
            assert len(keys) == 3 and None not in keys
            assert keys[0] != keys[1] and keys[0] == keys[2]
            (template, first), (same_template, second) = keys[0][0], keys[1][0]
            assert template == same_template and first != second
        finally:
            engine.close()


# ------------------------------------------------------------- parse cache
PEOPLE = EX_PREFIX + (
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
    "SELECT ?p WHERE { ?p rdf:type ex:Person . }"
)
KNOWS = EX_PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }"
#: Sequence and alternation rewrite into BGP/UNION algebra at parse time;
#: ``+`` stays a path leaf.
PATHS = [
    EX_PREFIX + "SELECT ?a ?c WHERE { ?a ex:knows/ex:knows ?c . }",
    EX_PREFIX + "SELECT ?a ?c WHERE { ?a ex:knows|ex:worksFor ?c . }",
    EX_PREFIX + "SELECT ?a ?c WHERE { ?a ex:knows+ ?c . OPTIONAL { ?c ex:age ?g } }",
    EX_PREFIX + "SELECT ?a (COUNT(*) AS ?n) WHERE { ?a ^ex:knows ?c . } GROUP BY ?a",
]


class TestParseCache:
    def test_counters_and_reload(self, small_rdf_store):
        engine = TurboHomPPEngine(plan_cache_size=8)
        engine.load(small_rdf_store)
        try:
            for text in (PEOPLE, KNOWS, PEOPLE, PEOPLE):
                engine.query(text)
            counters = engine.stats()["parse_cache"]
            assert {key: counters[key] for key in ("hits", "misses", "size", "capacity")} == {
                "hits": 2, "misses": 2, "size": 2, "capacity": 8,
            }
            engine.load(small_rdf_store)  # an AST does not depend on the data
            assert engine.stats()["parse_cache"]["size"] == 2
            assert len(engine.query(PEOPLE)) == 3
            assert engine.stats()["parse_cache"]["hits"] == 3
        finally:
            engine.close()

    def test_zero_size_disables_it(self, small_rdf_store):
        engine = TurboHomPPEngine(plan_cache_size=0)
        engine.load(small_rdf_store)
        try:
            assert len(engine.query(PEOPLE)) == 3
            assert engine.parse_cache is None
            assert engine.stats()["parse_cache"] is None
        finally:
            engine.close()

    @pytest.mark.parametrize("text", [PEOPLE, KNOWS] + PATHS)
    def test_cached_query_is_not_mutated(self, small_rdf_store, text):
        engine = TurboHomPPEngine()
        engine.load(small_rdf_store)
        try:
            first = engine.query(text)
            cached = engine.parse_cache.get(text)
            before = repr(cached)
            second = engine.query(text)
            list(engine.query_batches(text))
            assert repr(engine.parse_cache.get(text)) == before
            assert engine.parse_cache.get(text) is cached
            assert first.as_multiset(first.variables) == second.as_multiset(first.variables)
        finally:
            engine.close()

    def test_syntax_error_is_never_cached(self, small_rdf_store):
        engine = TurboHomPPEngine()
        engine.load(small_rdf_store)
        broken = EX_PREFIX + "SELECT ?a WHERE { ?a ex:knows "
        try:
            for _ in range(2):
                with pytest.raises(ReproError):
                    engine.query(broken)
            assert broken not in engine.parse_cache
            counters = engine.stats()["parse_cache"]
            assert (counters["size"], counters["hits"]) == (0, 0)
        finally:
            engine.close()

    def test_concurrent_serving_queries(self, small_rdf_store):
        import http.client
        import json
        import urllib.parse

        engine = TurboEngine()
        engine.load(small_rdf_store)
        texts = [PEOPLE, KNOWS] + PATHS[:2]
        expected = {text: len(engine.query(text)) for text in texts}
        errors = []
        requests_per_thread = 12

        with ServerThread(engine) as server:

            def http_client(index):
                conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
                try:
                    for step in range(requests_per_thread):
                        text = texts[(index + step) % len(texts)]
                        conn.request(
                            "GET", "/sparql?query=" + urllib.parse.quote(text),
                            headers={"Accept": "application/sparql-results+json"},
                        )
                        response = conn.getresponse()
                        body = response.read()
                        rows = json.loads(body)["results"]["bindings"]
                        if response.status != 200 or len(rows) != expected[text]:
                            errors.append((text, response.status, len(rows)))
                except Exception as error:  # noqa: BLE001 - reported below
                    errors.append(error)
                finally:
                    conn.close()

            def local_client(index):
                try:
                    for step in range(requests_per_thread):
                        text = texts[(index + step) % len(texts)]
                        if len(engine.query(text)) != expected[text]:
                            errors.append(text)
                except Exception as error:  # noqa: BLE001 - reported below
                    errors.append(error)

            threads = [
                threading.Thread(target=target, args=(index,))
                for index in range(3)
                for target in (http_client, local_client)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        engine.close()
        assert errors == []
        counters = engine.stats()["parse_cache"]
        assert counters["size"] == len(texts)
        # Every lookup counted exactly once: the warm-up pass missed each
        # text once and everything after it hit.
        assert counters["misses"] == len(texts)
        assert counters["hits"] == len(threads) * requests_per_thread
