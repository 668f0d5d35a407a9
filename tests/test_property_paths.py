"""Property-path parity sweeps and reachability-index unit tests.

The invariant: reachability indexes return the same solutions **as
unordered multisets** as a brute-force transitive-closure oracle computed
straight from the triple list (it shares no code with the engine), on
random multigraphs with cycles, under both homomorphism and isomorphism
match configs and under sequential and process-sharded execution — both
when probes read closure postings and when they walk the condensation DAG
(``PathIndexManager.CLOSURE_SHARE = 0``).

On top of the sweep: parse-error cases, eviction, oversized indexes and
concurrent first probes in the manager, the baseline-engine capability
gate, and the ``stats()`` counter surface documented in
``docs/result_pipeline.md``.
"""

from __future__ import annotations

import os
import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.base import EngineError
from repro.engine.turbo_engine import TurboEngine, TurboHomEngine, TurboHomPPEngine
from repro.exceptions import SPARQLSyntaxError
from repro.graph.labeled_graph import GraphBuilder
from repro.graph.reachability import (
    DEFAULT_PATH_INDEX_BYTES,
    PathIndexManager,
    ReachabilityIndex,
    bfs_reachable,
)
from repro.matching.config import MatchConfig
from repro.rdf.store import TripleStore
from repro.rdf.terms import IRI, Triple
from repro.sparql import parse_sparql

P = "http://ex.test/p"
Q = "http://ex.test/q"

#: Seeds pinned on top of the Hypothesis sweep: dense cycles, disconnected
#: islands, and a constant endpoint absent from the graph.
REGRESSION_SEEDS = (7, 1597, 4242)


def node(i: int) -> IRI:
    return IRI(f"http://ex.test/n{i}")


def random_store(rng: random.Random, vertices: int = 8, p_edges: int = 13, q_edges: int = 5):
    """A random cyclic multigraph over two predicates (rdf:type-free)."""
    triples = set()
    for _ in range(p_edges):
        triples.add(Triple(node(rng.randrange(vertices)), IRI(P), node(rng.randrange(vertices))))
    for _ in range(q_edges):
        triples.add(Triple(node(rng.randrange(vertices)), IRI(Q), node(rng.randrange(vertices))))
    ordered = sorted(triples, key=str)
    store = TripleStore()
    for triple in ordered:
        store.add(triple)
    return store, ordered


# ------------------------------------------------------------------ the oracle
def adjacency(triples, predicate: str, inverse: bool = False):
    adj = {}
    for triple in triples:
        if str(triple.predicate) == predicate:
            s, o = triple.subject, triple.object
            if inverse:
                s, o = o, s
            adj.setdefault(s, set()).add(o)
    return adj


def reach_1plus(adj, start):
    """Terms reachable from ``start`` in 1+ hops (includes start iff cyclic)."""
    seen, frontier = set(), [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def all_terms(triples):
    terms = set()
    for triple in triples:
        terms.add(triple.subject)
        terms.add(triple.object)
    return terms


def rows_multiset(result) -> Counter:
    variables = sorted(result.variables)
    return Counter(tuple(str(binding[v]) for v in variables) for binding in result)


def oracle_forms(triples, c: IRI):
    """(sparql, expected-multiset) pairs over the triple list.

    All path-only forms; the BGP-join form is appended separately because
    its expectation is homomorphism-specific.
    """
    fwd = adjacency(triples, P)
    bwd = adjacency(triples, P, inverse=True)
    closure = reach_1plus(fwd, c)
    domain = all_terms(triples)
    forms = [
        (
            f"SELECT ?x WHERE {{ <{c}> <{P}>+ ?x }}",
            Counter((str(t),) for t in closure),
        ),
        (
            f"SELECT ?x WHERE {{ <{c}> <{P}>* ?x }}",
            Counter((str(t),) for t in closure | {c}),
        ),
        (
            f"SELECT ?x WHERE {{ <{c}> <{P}>? ?x }}",
            Counter((str(t),) for t in fwd.get(c, set()) | {c}),
        ),
        (
            f"SELECT ?x WHERE {{ ?x <{P}>+ <{c}> }}",
            Counter((str(t),) for t in reach_1plus(bwd, c)),
        ),
        (
            f"SELECT ?x WHERE {{ <{c}> ^<{P}>+ ?x }}",
            Counter((str(t),) for t in reach_1plus(bwd, c)),
        ),
        (
            f"SELECT ?x ?y WHERE {{ ?x <{P}>+ ?y }}",
            Counter(
                (str(u), str(v)) for u in domain for v in reach_1plus(fwd, u)
            ),
        ),
        (
            f"SELECT ?x ?y WHERE {{ ?x <{P}>* ?y }}",
            Counter(
                (str(u), str(v))
                for u in domain
                for v in reach_1plus(fwd, u) | {u}
            ),
        ),
        (
            f"SELECT ?x WHERE {{ ?x <{P}>+ ?x }}",
            Counter((str(u),) for u in domain if u in reach_1plus(fwd, u)),
        ),
    ]
    return forms


def join_form(triples):
    """``?x q ?z . ?x p+ ?y`` — multiset multiplicity = one row per q edge."""
    fwd = adjacency(triples, P)
    expected = Counter()
    for triple in triples:
        if str(triple.predicate) == Q:
            for v in reach_1plus(fwd, triple.subject):
                expected[(str(triple.subject), str(v))] += 1
    return (
        f"SELECT ?x ?y WHERE {{ ?x <{Q}> ?z . ?x <{P}>+ ?y }}",
        expected,
    )


# ------------------------------------------------------------- parity sweeps
def engine_matrix():
    """Type-aware and direct engines; hom and iso match configs."""
    return [
        ("type-aware", TurboHomPPEngine()),
        ("direct-hom", TurboHomEngine()),
        ("isomorphism", TurboEngine(config=MatchConfig.isomorphism())),
    ]


def run_parity(seed: int) -> None:
    """Parity with closure postings, then with every probe walking the DAG."""
    run_parity_once(seed)
    # A monkeypatch context, not the fixture: Hypothesis rejects
    # function-scoped fixtures.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PathIndexManager, "CLOSURE_SHARE", 0)
        run_parity_once(seed)


def run_parity_once(seed: int) -> None:
    rng = random.Random(seed)
    store, triples = random_store(rng)
    constant = node(rng.randrange(10))  # may be absent from the graph
    forms = oracle_forms(triples, constant)
    join_sparql, join_expected = join_form(triples)
    engines = engine_matrix()
    try:
        for _, engine in engines:
            engine.load(store)
        for sparql, expected in forms:
            for name, engine in engines:
                got = rows_multiset(engine.query(sparql))
                assert got == expected, (seed, name, sparql)
        # The BGP join form is homomorphism-specific (iso forbids ?x == ?z).
        for name, engine in engines:
            if name == "isomorphism":
                continue
            got = rows_multiset(engine.query(join_sparql))
            assert got == join_expected, (seed, name, join_sparql)
    finally:
        for _, engine in engines:
            engine.close()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_path_parity_sweep(seed):
    run_parity(seed)


@pytest.mark.parametrize("seed", REGRESSION_SEEDS)
def test_path_parity_pinned(seed):
    run_parity(seed)


def test_path_parity_processes():
    """Process-sharded execution matches sequential on a cyclic workload."""
    rng = random.Random(99)
    store, triples = random_store(rng, vertices=10, p_edges=18)
    queries = [
        f"SELECT ?x ?y WHERE {{ ?x <{P}>+ ?y }}",
        f"SELECT ?x ?y WHERE {{ ?x <{Q}> ?z . ?x <{P}>* ?y }}",
    ]
    sequential = TurboHomPPEngine(workers=1)
    processes = TurboHomPPEngine(workers=2)
    try:
        sequential.load(store)
        processes.load(store)
        for sparql in queries:
            assert rows_multiset(sequential.query(sparql)) == rows_multiset(
                processes.query(sparql)
            )
    finally:
        sequential.close()
        processes.close()


# --------------------------------------------------------- rewrites & parsing
def test_sequence_and_alternation_rewrite():
    """Non-transitive shapes become BGP + UNION; synthetic vars stay hidden."""
    store = TripleStore()
    store.add(Triple(node(0), IRI(P), node(1)))
    store.add(Triple(node(1), IRI(Q), node(2)))
    store.add(Triple(node(0), IRI(Q), node(3)))
    engine = TurboHomPPEngine()
    engine.load(store)
    try:
        rows = rows_multiset(
            engine.query(f"SELECT ?x WHERE {{ <{node(0)}> <{P}>/<{Q}> ?x }}")
        )
        assert rows == Counter([(str(node(2)),)])
        rows = rows_multiset(
            engine.query(f"SELECT ?x WHERE {{ <{node(0)}> <{P}>|<{Q}> ?x }}")
        )
        assert rows == Counter([(str(node(1)),), (str(node(3)),)])
        # SELECT * never leaks __path<N> join variables.
        result = engine.query(f"SELECT * WHERE {{ <{node(0)}> <{P}>/<{Q}> ?x }}")
        assert sorted(result.variables) == ["x"]
        # Sequences of transitive steps thread through synthetic variables.
        rows = rows_multiset(
            engine.query(f"SELECT ?x WHERE {{ <{node(0)}> <{P}>+/<{Q}> ?x }}")
        )
        assert rows == Counter([(str(node(2)),)])
    finally:
        engine.close()


@pytest.mark.parametrize(
    "sparql",
    [
        "SELECT ?x WHERE { ?x ?p+ ?y }",  # variable predicate under a modifier
        "SELECT ?x WHERE { ?x (?p|<http://ex.test/q>) ?y }",  # ... in alternation
        "SELECT ?x WHERE { ?x <http://ex.test/p>/ ?y }",  # dangling sequence
        "SELECT ?x WHERE { ?x (<http://ex.test/p> ?y }",  # unclosed group
    ],
)
def test_path_parse_errors(sparql):
    with pytest.raises(SPARQLSyntaxError):
        parse_sparql(sparql)


def test_plan_shape_distinguishes_path_modifiers():
    """p+ and p* on the same structure must not share a cached plan."""
    plus = parse_sparql(f"SELECT ?x WHERE {{ <{node(0)}> <{P}>+ ?x }}")
    star = parse_sparql(f"SELECT ?x WHERE {{ <{node(0)}> <{P}>* ?x }}")
    assert (
        plus.where.paths[0].fingerprint() != star.where.paths[0].fingerprint()
    )


# ------------------------------------------------------------ index manager
def chain_graph(labels: int, length: int):
    """One chain of ``length`` edges per label, over shared vertices."""
    builder = GraphBuilder()
    for v in range(length + 1):
        builder.add_vertex(v, (0,))
    for label in range(labels):
        for v in range(length):
            builder.add_edge(v, label, v + 1)
    return builder.build()


def test_manager_lru_eviction_under_tiny_budget():
    graph = chain_graph(labels=4, length=40)
    probe = ReachabilityIndex.build(graph, 0)
    budget = probe.nbytes + probe.nbytes // 2  # room for ~1.5 indexes
    manager = PathIndexManager(graph, budget)
    for label in range(4):
        index = manager.index_for(label)
        assert index is not None
        assert index.reaches(0, 40)
    stats = manager.stats()
    assert stats["builds"] == 4
    assert stats["evictions"] >= 3
    assert stats["bytes"] <= budget
    assert stats["entries"] >= 1
    # Re-probing the most recent label is a hit; the evicted one rebuilds.
    manager.index_for(3)
    assert manager.stats()["hits"] == 1
    manager.clear()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_walk_index_matches_bfs_kernel(seed):
    """With the closure aborted, walks of the condensation DAG must agree
    with the BFS kernel on every (source, target) pair of a random cyclic
    multigraph — bound-bound probes, enumeration in both directions."""
    rng = random.Random(seed)
    vertices = rng.randint(4, 12)
    builder = GraphBuilder()
    for v in range(vertices):
        builder.add_vertex(v, (0,))
    for _ in range(rng.randint(4, 26)):
        builder.add_edge(rng.randrange(vertices), 0, rng.randrange(vertices))
    graph = builder.build()
    index = ReachabilityIndex.build(graph, 0, closure_entry_limit=0)
    assert index.clo_off is None  # the closure really was aborted
    for source in range(vertices):
        expected = bfs_reachable(graph, 0, source)
        assert index.reachable_from(source) == expected
        for target in range(vertices):
            assert index.reaches(source, target) == (target in expected)
        assert index.reaching(source) == bfs_reachable(
            graph, 0, source, reverse=True
        )


def test_manager_oversized_index_answers_and_stays_the_only_entry():
    graph = chain_graph(labels=2, length=40)
    manager = PathIndexManager(graph, budget_bytes=8)  # everything is oversized
    try:
        index = manager.index_for(0)
        assert index.nbytes > manager.budget_bytes
        assert manager.index_for(0) is index  # kept: a hit, no rebuild
        assert manager.reaches(0, 0, 40) and not manager.reaches(0, 40, 0)
        assert manager.reachable_from(0, 0) == bfs_reachable(graph, 0, 0)
        stats = manager.stats()
        assert (stats["builds"], stats["entries"]) == (1, 1)
        assert stats["bytes"] == index.nbytes
        # The next build evicts it: the newest index is the only entry.
        assert manager.reaching(1, 40) == bfs_reachable(graph, 1, 40, reverse=True)
        stats = manager.stats()
        assert (stats["builds"], stats["entries"], stats["evictions"]) == (2, 1, 1)
        assert stats["bytes"] == manager.index_for(1).nbytes
    finally:
        manager.close()


def test_concurrent_first_probes_build_once():
    """Threads racing the first probe of a predicate share one build and
    count its bytes once (the chain is long enough for its closure build
    to outlast a thread switch)."""
    graph = chain_graph(labels=1, length=2000)
    manager = PathIndexManager(graph, DEFAULT_PATH_INDEX_BYTES)
    workers = max(4, (os.cpu_count() or 1) + 1)
    barrier = threading.Barrier(workers, timeout=60)
    results = []

    def first_probe():
        barrier.wait()
        results.append(manager.reachable_from(0, 0))

    threads = [threading.Thread(target=first_probe) for _ in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [list(range(1, 2001))] * workers
    assert manager.stats()["builds"] == 1
    assert manager.bytes_held == manager.index_for(0).nbytes


# ---------------------------------------------------------- gates & counters
def test_baseline_engine_rejects_paths():
    from repro.baselines.rdf3x import RDF3XEngine

    store = TripleStore()
    store.add(Triple(node(0), IRI(P), node(1)))
    engine = RDF3XEngine()
    engine.load(store)
    with pytest.raises(EngineError, match="property paths"):
        engine.query(f"SELECT ?x WHERE {{ <{node(0)}> <{P}>+ ?x }}")


def test_stats_counters_meter_path_evaluation():
    rng = random.Random(3)
    store, _ = random_store(rng)
    engine = TurboHomPPEngine()
    try:
        engine.load(store)
        engine.query(f"SELECT ?x ?y WHERE {{ ?x <{P}>+ ?y }}")
        stats = engine.stats()
        assert stats["operators"]["path_rows_emitted"] > 0
        path_stats = stats["path_index"]
        assert path_stats["builds"] == 1
        assert path_stats["entries"] == 1
        assert path_stats["bytes"] > 0
        engine.query(f"SELECT ?x ?y WHERE {{ ?x <{P}>* ?y }}")
        assert engine.stats()["path_index"]["hits"] >= 1
        # load() invalidates: the manager is rebuilt lazily on next use.
        engine.load(store)
        assert engine.stats()["path_index"]["entries"] == 0
    finally:
        engine.close()


def test_paths_inside_optional_and_union():
    store = TripleStore()
    store.add(Triple(node(0), IRI(P), node(1)))
    store.add(Triple(node(1), IRI(P), node(2)))
    store.add(Triple(node(3), IRI(Q), node(0)))
    store.add(Triple(node(4), IRI(Q), node(4)))
    engine = TurboHomPPEngine()
    try:
        engine.load(store)
        rows = rows_multiset(
            engine.query(
                f"SELECT ?x ?y WHERE {{ ?x <{Q}> ?z "
                f"OPTIONAL {{ ?z <{P}>+ ?y }} }}"
            )
        )
        assert rows == Counter(
            [
                (str(node(3)), str(node(1))),
                (str(node(3)), str(node(2))),
                (str(node(4)), "None"),
            ]
        )
        rows = rows_multiset(
            engine.query(
                f"SELECT ?x WHERE {{ {{ <{node(0)}> <{P}>+ ?x }} "
                f"UNION {{ ?x <{Q}> <{node(0)}> }} }}"
            )
        )
        assert rows == Counter(
            [(str(node(1)),), (str(node(2)),), (str(node(3)),)]
        )
    finally:
        engine.close()
