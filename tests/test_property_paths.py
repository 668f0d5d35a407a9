"""Property-path parity sweeps and reachability-index unit tests.

The tentpole invariant: both evaluation strategies — interval-labelled
reachability indexes (the default) and the BFS kernel fallback
(``path_index_bytes=0``) — return the same solutions **as unordered
multisets** as a brute-force transitive-closure oracle computed straight
from the triple list (it shares no code with the engine), on random multigraphs with
cycles, under both homomorphism and isomorphism match configs and under
thread- and process-sharded execution.

On top of the sweep: parse-error cases, ``REPRO_PATH_INDEX_BYTES``
validation and eviction behaviour, the shared-memory manifest attach from a
genuinely spawned process, the baseline-engine capability gate, and the
``stats()`` counter surface documented in ``docs/result_pipeline.md``.
"""

from __future__ import annotations

import multiprocessing
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.base import EngineError, resolve_path_index_bytes
from repro.engine.turbo_engine import TurboEngine, TurboHomEngine, TurboHomPPEngine
from repro.exceptions import SPARQLSyntaxError
from repro.graph.labeled_graph import GraphBuilder
from repro.graph.reachability import PathIndexManager, ReachabilityIndex, bfs_reachable
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
    """One engine per evaluation strategy; hom and iso match configs."""
    return [
        # The indexed engine pins an explicit budget so it keeps exercising
        # the index strategy even under the CI REPRO_PATH_INDEX_BYTES=0 pass.
        ("indexed", TurboHomPPEngine(path_index_bytes=64 << 20)),
        ("bfs-fallback", TurboHomPPEngine(path_index_bytes=0)),
        ("direct-hom", TurboHomEngine()),
        ("isomorphism", TurboEngine(config=MatchConfig.isomorphism())),
    ]


def run_parity(seed: int) -> None:
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
        # Shard workers get the indexes exported into shared memory.
        assert processes.stats()["path_index"]["shared"] is True
        assert sequential.stats()["path_index"]["shared"] is False
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


# ------------------------------------------------- knob validation & eviction
@pytest.mark.parametrize("bad", [-1, True, "many"])
def test_path_index_bytes_ctor_validation(bad):
    with pytest.raises(EngineError):
        TurboHomPPEngine(path_index_bytes=bad)


@pytest.mark.parametrize("bad", ["-1", "nope", "1.5"])
def test_path_index_bytes_env_validation(monkeypatch, bad):
    monkeypatch.setenv("REPRO_PATH_INDEX_BYTES", bad)
    with pytest.raises(EngineError):
        resolve_path_index_bytes(None)


def test_path_index_bytes_env_applies(monkeypatch):
    monkeypatch.setenv("REPRO_PATH_INDEX_BYTES", "0")
    store = TripleStore()
    store.add(Triple(node(0), IRI(P), node(1)))
    engine = TurboHomPPEngine()
    try:
        engine.load(store)
        rows = rows_multiset(engine.query(f"SELECT ?x WHERE {{ <{node(0)}> <{P}>+ ?x }}"))
        assert rows == Counter([(str(node(1)),)])
        stats = engine.stats()["path_index"]
        assert stats["budget_bytes"] == 0
        assert stats["entries"] == 0
        assert stats["bfs_fallbacks"] > 0
    finally:
        engine.close()


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
def test_interval_only_index_matches_bfs_kernel(seed):
    """With the closure aborted, the GRAIL interval labels alone must agree
    with the BFS kernel on every (source, target) pair of a random cyclic
    multigraph — both the O(1) rejects and the pruned positive walks."""
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


def test_manager_oversized_index_pins_bfs_fallback():
    graph = chain_graph(labels=1, length=40)
    manager = PathIndexManager(graph, budget_bytes=8)  # everything is oversized
    assert manager.index_for(0) is None
    assert manager.index_for(0) is None  # pinned: no rebuild attempt
    stats = manager.stats()
    assert stats["oversized"] == 1
    assert stats["bfs_fallbacks"] >= 1
    assert manager.reaches(0, 0, 40)  # falls back to the BFS kernel
    assert manager.reachable_from(0, 0) == bfs_reachable(graph, 0, 0)


# ------------------------------------------------------- shared-memory attach
def _probe_shared_index(manifest, source, queue):
    index, shm = ReachabilityIndex.attach_shared(manifest)
    try:
        queue.put(
            (sorted(index.reachable_from(source)), index.reaches(source, source))
        )
    finally:
        del index
        shm.close()


def test_shared_index_attach_from_spawned_process():
    graph = chain_graph(labels=1, length=12)
    index = ReachabilityIndex.build(graph, 0)
    handle = index.export_shared()
    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    try:
        worker = ctx.Process(
            target=_probe_shared_index, args=(handle.manifest, 0, queue)
        )
        worker.start()
        reachable, cyclic = queue.get(timeout=60)
        worker.join(timeout=60)
        assert worker.exitcode == 0
        assert reachable == index.reachable_from(0) == list(range(1, 13))
        assert cyclic is False
    finally:
        handle.unlink()


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
    engine = TurboHomPPEngine(path_index_bytes=64 << 20)
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
