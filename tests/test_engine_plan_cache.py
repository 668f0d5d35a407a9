"""The query-plan layer: canonical fingerprints, the LRU plan cache, and
plan reuse across repeated queries (compile-once / stream-everywhere)."""

import pytest

from repro.engine.plan_cache import PlanCache, bgp_fingerprint
from repro.engine.turbo_engine import TurboHomPPEngine
from repro.rdf.namespaces import Namespace
from repro.rdf.terms import IRI, Literal
from repro.sparql import expressions as expr
from repro.sparql.ast import TriplePattern, Variable
from repro.sparql.parser import parse_sparql

EX = Namespace("http://example.org/")
PREFIX = "PREFIX ex: <http://example.org/> PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "


def _patterns(sparql: str):
    return parse_sparql(PREFIX + sparql).where.triples


class TestFingerprint:
    def test_pattern_order_is_canonicalized(self):
        forward = _patterns("SELECT * WHERE { ?a ex:knows ?b . ?b ex:worksFor ?c . }")
        backward = _patterns("SELECT * WHERE { ?b ex:worksFor ?c . ?a ex:knows ?b . }")
        assert bgp_fingerprint(forward) == bgp_fingerprint(backward)

    def test_different_constants_differ(self, small_rdf_store):
        # Subject/object constants are slots: one template key, different
        # slot constants -- and the bound plans still answer differently.
        one = "SELECT ?a WHERE { ?a ex:knows ex:bob . }"
        other = "SELECT ?a WHERE { ?a ex:knows ex:carol . }"
        (one_key, one_slots), (other_key, other_slots) = (
            bgp_fingerprint(_patterns(one)), bgp_fingerprint(_patterns(other))
        )
        assert one_key == other_key
        assert (one_slots, other_slots) == ((EX.bob,), (EX.carol,))
        engine = TurboHomPPEngine()
        engine.load(small_rdf_store)
        try:
            assert [row["a"] for row in engine.query(PREFIX + one)] == [EX.alice]
            assert [row["a"] for row in engine.query(PREFIX + other)] == [EX.bob]
            assert (engine.plan_cache.misses, engine.plan_cache.hits) == (1, 1)
        finally:
            engine.close()

    def test_type_class_stays_in_the_key(self):
        # A type-aware rdf:type class is a vertex label, not a vertex.
        person = _patterns("SELECT * WHERE { ?a rdf:type ex:Person . ?a ex:knows ex:bob . }")
        company = _patterns("SELECT * WHERE { ?a rdf:type ex:Company . ?a ex:knows ex:bob . }")
        assert bgp_fingerprint(person)[0] != bgp_fingerprint(company)[0]
        assert bgp_fingerprint(person)[1] == (EX.bob,)
        # Under the direct transformation the class is a vertex like any other.
        direct = bgp_fingerprint(person, type_aware=False)
        assert direct[0] == bgp_fingerprint(company, type_aware=False)[0]
        assert set(direct[1]) == {EX.Person, EX.bob}

    def test_equal_constants_share_a_slot(self):
        same = _patterns("SELECT * WHERE { ex:bob ex:knows ?a . ?a ex:knows ex:bob . }")
        two = _patterns("SELECT * WHERE { ex:bob ex:knows ?a . ?a ex:knows ex:carol . }")
        assert bgp_fingerprint(same)[0] != bgp_fingerprint(two)[0]
        assert bgp_fingerprint(same)[1] == (EX.bob,)

    def test_different_variable_names_differ(self):
        # Variable names are part of the result schema, so they must be part
        # of the key (a plan binds solutions by variable name).
        one = _patterns("SELECT * WHERE { ?a ex:knows ?b . }")
        other = _patterns("SELECT * WHERE { ?a ex:knows ?c . }")
        assert bgp_fingerprint(one) != bgp_fingerprint(other)

    def test_variable_never_collides_with_concrete_term(self):
        variable = TriplePattern(Variable("x"), IRI(str(EX.p)), Variable("y"))
        iri = TriplePattern(IRI("x"), IRI(str(EX.p)), Variable("y"))
        literal = TriplePattern(Variable("x"), IRI(str(EX.p)), Literal("?y"))
        assert bgp_fingerprint([variable]) != bgp_fingerprint([iri])
        assert bgp_fingerprint([variable]) != bgp_fingerprint([literal])

    def test_literal_escaping_prevents_datatype_forgery(self):
        # A lexical form that *spells* a datatype suffix must not collide
        # with the literal that actually has that datatype.
        forged = TriplePattern(
            Variable("x"), IRI(str(EX.p)), Literal('a"^^<http://x>')
        )
        typed = TriplePattern(
            Variable("x"), IRI(str(EX.p)), Literal("a", IRI("http://x"))
        )
        assert bgp_fingerprint([forged]) != bgp_fingerprint([typed])

    def test_filters_are_part_of_the_key(self):
        patterns = _patterns("SELECT * WHERE { ?x ex:age ?a . }")
        loose = [expr.Comparison(">", expr.Var("a"), expr.Constant(20))]
        tight = [expr.Comparison(">", expr.Var("a"), expr.Constant(30))]
        assert bgp_fingerprint(patterns, loose) != bgp_fingerprint(patterns, tight)
        assert bgp_fingerprint(patterns, loose) == bgp_fingerprint(patterns, list(loose))
        assert bgp_fingerprint(patterns) != bgp_fingerprint(patterns, loose)

    def test_pattern_count_matters(self):
        one = _patterns("SELECT * WHERE { ?a ex:knows ?b . }")
        two = _patterns("SELECT * WHERE { ?a ex:knows ?b . ?a ex:knows ?b . }")
        assert bgp_fingerprint(one) != bgp_fingerprint(two)


class TestPlanCache:
    def test_hit_and_miss_counters(self):
        cache = PlanCache(maxsize=4)
        assert cache.get("a") is None
        cache.put("a", "plan-a")
        assert cache.get("a") == "plan-a"
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_eviction_order(self):
        cache = PlanCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a": "b" is now least recent
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_clear_resets_everything(self):
        cache = PlanCache(maxsize=2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)


class TestEnginePlanReuse:
    @pytest.fixture
    def engine(self, small_rdf_store):
        engine = TurboHomPPEngine()
        engine.load(small_rdf_store)
        return engine

    def test_repeated_query_hits_the_cache(self, engine):
        query = PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . ?a ex:worksFor ex:acme . }"
        first = engine.query(query)
        assert engine.plan_cache.misses == 1
        second = engine.query(query)
        assert engine.plan_cache.hits >= 1
        assert engine.plan_cache.misses == 1
        assert first.same_solutions(second)

    def test_reordered_bgp_shares_the_plan(self, engine):
        one = PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . ?a ex:worksFor ex:acme . }"
        two = PREFIX + "SELECT ?a ?b WHERE { ?a ex:worksFor ex:acme . ?a ex:knows ?b . }"
        first = engine.query(one)
        second = engine.query(two)
        assert engine.plan_cache.misses == 1
        assert engine.plan_cache.hits >= 1
        assert first.same_solutions(second)

    def test_different_filters_compile_different_plans(self, engine):
        engine.query(PREFIX + "SELECT ?x WHERE { ?x ex:age ?a . FILTER (?a > 30) }")
        engine.query(PREFIX + "SELECT ?x WHERE { ?x ex:age ?a . FILTER (?a > 20) }")
        assert engine.plan_cache.misses == 2

    def test_matching_order_is_cached_across_executions(self, small_rdf_store):
        # Pinned to in-process execution: under process sharding the order is
        # computed (and +REUSE-cached) inside each worker's plan copy, so the
        # parent-side slot legitimately stays empty.
        engine = TurboHomPPEngine(workers=1)
        engine.load(small_rdf_store)
        query = PREFIX + "SELECT ?x ?y ?z WHERE { ?x ex:knows ?y . ?y ex:knows ?z . ?z ex:knows ?x . }"
        engine.query(query)
        solver = engine.bgp_solver()
        parsed = parse_sparql(query)
        plan = solver.plan(parsed.where.triples, [])
        # +REUSE stored the matching order inside the cached plan, so a later
        # execution of the same query never recomputes it.
        assert plan.alternatives[0].components[0].prepared.order_cache.order is not None

    def test_load_clears_stale_plans(self, engine, small_rdf_store):
        query = PREFIX + "SELECT ?p WHERE { ?p rdf:type ex:Person . }"
        engine.query(query)
        assert len(engine.plan_cache) > 0
        engine.load(small_rdf_store)
        assert len(engine.plan_cache) == 0
        assert len(engine.query(query)) == 3

    def test_cache_can_be_disabled(self, small_rdf_store):
        engine = TurboHomPPEngine()
        engine.plan_cache = None
        engine.load(small_rdf_store)
        query = PREFIX + "SELECT ?p WHERE { ?p rdf:type ex:Person . }"
        assert len(engine.query(query)) == 3
        assert len(engine.query(query)) == 3

    def test_eviction_still_answers_correctly(self, small_rdf_store):
        engine = TurboHomPPEngine()
        engine.plan_cache = PlanCache(maxsize=1)
        engine.load(small_rdf_store)
        people = PREFIX + "SELECT ?p WHERE { ?p rdf:type ex:Person . }"
        knows = PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }"
        for _ in range(2):
            assert len(engine.query(people)) == 3
            assert len(engine.query(knows)) == 3
        # maxsize=1 with alternating queries evicts every time: all misses.
        assert engine.plan_cache.hits == 0
        assert engine.plan_cache.misses == 4
