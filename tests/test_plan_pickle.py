"""QueryPlan pickling: the contract process-shard workers depend on.

A compiled :class:`~repro.engine.plan.QueryPlan` must round-trip through
pickle preserving its canonical fingerprint, the precompiled matcher state
(start selection, query tree, +REUSE matching order) and the push-down
filter closures — and a plan rehydrated in a *fresh spawned process* must
produce exactly the bindings the compiling process produces.
"""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from repro.engine.plan import PushdownPredicate
from repro.engine.turbo_engine import TurboHomPPEngine
from repro.matching.turbo import TurboMatcher
from repro.rdf.namespaces import Namespace, RDF
from repro.rdf.store import TripleStore
from repro.rdf.terms import IRI, Literal, Triple
from repro.sparql.parser import parse_sparql

EX = Namespace("http://example.org/")
PREFIX = (
    "PREFIX ex: <http://example.org/> "
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
)

TRIANGLE = PREFIX + (
    "SELECT ?x ?y ?z WHERE { ?x ex:knows ?y . ?y ex:knows ?z . ?z ex:knows ?x . }"
)
FILTERED = PREFIX + "SELECT ?p ?a WHERE { ?p ex:age ?a . FILTER (?a > 30) }"


@pytest.fixture
def engine(small_rdf_store):
    # Pinned to in-process execution: these tests warm the +REUSE matching
    # order in the engine-held plan, which process sharding (the
    # REPRO_EXECUTION_WORKERS sweep) legitimately leaves to the workers.
    engine = TurboHomPPEngine(workers=1)
    engine.load(small_rdf_store)
    return engine


def compiled_plan(engine, sparql):
    parsed = parse_sparql(sparql)
    solver = engine.bgp_solver()
    return solver, solver.plan(parsed.where.triples, parsed.where.filters)


class TestRoundTrip:
    def test_fingerprint_survives_pickle(self, engine):
        _, plan = compiled_plan(engine, TRIANGLE)
        assert plan.fingerprint is not None
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.fingerprint == plan.fingerprint

    def test_prepared_state_survives_pickle(self, engine):
        _, plan = compiled_plan(engine, TRIANGLE)
        # Execute once so +REUSE stores the matching order inside the plan.
        engine.query(TRIANGLE)
        clone = pickle.loads(pickle.dumps(plan))
        for original_alt, cloned_alt in zip(plan.alternatives, clone.alternatives):
            for original, cloned in zip(original_alt.components, cloned_alt.components):
                assert cloned.prepared.start_vertex == original.prepared.start_vertex
                assert list(cloned.prepared.start_candidates) == list(
                    original.prepared.start_candidates
                )
                assert cloned.prepared.tree.paths() == original.prepared.tree.paths()
                assert cloned.prepared.order_cache.order == original.prepared.order_cache.order
        # The warmed order really was present to copy.
        assert plan.alternatives[0].components[0].prepared.order_cache.order is not None

    def test_pushdown_closures_survive_and_rebind(self, engine):
        solver, plan = compiled_plan(engine, FILTERED)
        component = plan.alternatives[0].components[0]
        assert component.pushdown, "the FILTER should have compiled to a push-down"
        clone = pickle.loads(pickle.dumps(plan))
        cloned_component = clone.alternatives[0].components[0]
        for vertex, predicate in cloned_component.pushdown.items():
            assert isinstance(predicate, PushdownPredicate)
            original = component.pushdown[vertex]
            assert predicate.name == original.name
            assert len(predicate.conditions) == len(original.conditions)
            # Unbound until bind(): using it must fail loudly, not silently.
            with pytest.raises(RuntimeError, match="bind"):
                predicate(0)
            predicate.bind(solver.mapping)
            for data_vertex in range(engine.graph.vertex_count):
                assert predicate(data_vertex) == original(data_vertex)

    def test_plan_cache_key_addresses_the_same_plan_after_reload(self, engine):
        """The fingerprint is stable across independent compilations."""
        _, plan_one = compiled_plan(engine, FILTERED)
        engine.plan_cache.clear()
        _, plan_two = compiled_plan(engine, FILTERED)
        assert plan_one.fingerprint == plan_two.fingerprint


# ------------------------------------------------- fresh-process rehydration
def _match_rehydrated_plan(graph_bytes, plan_bytes, mapping_bytes, config, output):
    """Child-process half of the spawn test: unpickle, rehydrate, match."""
    graph = pickle.loads(graph_bytes)
    plan = pickle.loads(plan_bytes)
    mapping = pickle.loads(mapping_bytes)
    component = plan.alternatives[0].components[0]
    for predicate in component.pushdown.values():
        predicate.bind(mapping)
    matcher = TurboMatcher(graph, config)
    solutions = matcher.match(
        component.query,
        vertex_predicates=component.pushdown,
    )
    output.put(sorted(map(tuple, solutions)))


@pytest.mark.parametrize("sparql", [TRIANGLE, FILTERED], ids=["triangle", "filtered"])
def test_rehydrated_plan_matches_in_fresh_spawned_process(engine, sparql):
    """A spawned interpreter (no inherited state) reproduces the bindings."""
    solver, plan = compiled_plan(engine, sparql)
    component = plan.alternatives[0].components[0]
    expected = sorted(
        map(
            tuple,
            TurboMatcher(engine.graph, engine.config).match(
                component.query, vertex_predicates=component.pushdown
            ),
        )
    )

    ctx = multiprocessing.get_context("spawn")
    output = ctx.Queue()
    child = ctx.Process(
        target=_match_rehydrated_plan,
        args=(
            pickle.dumps(engine.graph),
            pickle.dumps(plan),
            pickle.dumps(engine.mapping),
            engine.config,
            output,
        ),
    )
    child.start()
    result = output.get(timeout=60)
    child.join(timeout=60)
    assert child.exitcode == 0
    assert result == expected
