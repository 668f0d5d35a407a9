"""Shared fixtures: the paper's running examples and small benchmark datasets,
plus the leak check every test module runs under."""

from __future__ import annotations

import gc
import glob
import multiprocessing
import os
import tempfile
import threading
from dataclasses import replace

import pytest

from repro.datasets import load_bsbm, load_btc, load_lubm, load_yago
from repro.graph.labeled_graph import GraphBuilder
from repro.graph.query_graph import QueryGraph
from repro.graph.transform import GraphMapping
from repro.rdf.namespaces import Namespace, RDF
from repro.rdf.store import TripleStore
from repro.rdf.terms import IRI, Literal, Triple
from repro.sparql.parser import parse_sparql

EX = Namespace("http://example.org/")


def _leak_snapshot():
    """What no test may leave behind: ``/dev/shm`` entries, live child
    processes, ``repro-spill-*`` directories and non-daemon threads (each
    one would keep the interpreter from exiting)."""
    return {
        "/dev/shm entries": set(os.listdir("/dev/shm")),
        "child processes": set(multiprocessing.active_children()),
        "spill directories": set(
            glob.glob(os.path.join(tempfile.gettempdir(), "repro-spill-*"))
        ),
        "non-daemon threads": {
            thread
            for thread in threading.enumerate()
            if not thread.daemon and thread is not threading.main_thread()
        },
    }


def _leaks_since(before):
    """Each kind of leftover that appeared after the ``before`` snapshot."""
    now = _leak_snapshot()
    return {kind: now[kind] - before[kind] for kind in now if now[kind] - before[kind]}


@pytest.fixture(autouse=True, scope="module")
def no_leak_per_module():
    """After a whole test module and a ``gc.collect()``, nothing it started
    may remain: pools dropped without ``close()`` are reaped by their
    finalizers, so what is left here was leaked for good."""
    before = _leak_snapshot()
    yield
    gc.collect()
    leaked = _leaks_since(before)
    assert not leaked, f"the test module left behind {leaked}"


@pytest.fixture
def new_leaks():
    """A callable returning the leftovers that appeared since the test began
    (no ``gc.collect()``: an explicit close is what such a test checks)."""
    before = _leak_snapshot()
    return lambda: _leaks_since(before)


# Vertex labels used by the hand-built labeled graphs (Figure 1 of the paper).
LABEL_A, LABEL_B, LABEL_C, LABEL_D, LABEL_E = 0, 1, 2, 3, 4
# Edge labels.
EDGE_A, EDGE_B, EDGE_C = 0, 1, 2


@pytest.fixture
def figure1_data_graph():
    """The data graph g1 of Figure 1 (vertices v0..v5)."""
    builder = GraphBuilder()
    builder.add_vertex(0, (LABEL_A,))            # v0 {A}
    builder.add_vertex(1, (LABEL_B,))            # v1 {B}
    builder.add_vertex(2, (LABEL_A, LABEL_D))    # v2 {A,D}
    builder.add_vertex(3, (LABEL_B,))            # v3 {B}
    builder.add_vertex(4, (LABEL_C,))            # v4 {C}
    builder.add_vertex(5, (LABEL_C, LABEL_E))    # v5 {C,E}
    builder.add_edge(0, EDGE_A, 1)               # v0 -a-> v1
    builder.add_edge(0, EDGE_B, 4)               # v0 -b-> v4
    builder.add_edge(2, EDGE_A, 1)               # v2 -a-> v1
    builder.add_edge(2, EDGE_A, 3)               # v2 -a-> v3
    builder.add_edge(2, EDGE_B, 5)               # v2 -b-> v5
    builder.add_edge(3, EDGE_C, 4)               # v3 -c-> v4
    builder.add_edge(3, EDGE_C, 5)               # v3 -c-> v5
    return builder.build()


@pytest.fixture
def figure1_query_graph():
    """The query graph q1 of Figure 1 (u0..u4)."""
    query = QueryGraph()
    u0 = query.add_vertex("u0")                                  # blank label
    u1 = query.add_vertex("u1", frozenset((LABEL_B,)))
    u2 = query.add_vertex("u2")                                  # blank label
    u3 = query.add_vertex("u3", frozenset((LABEL_B,)))
    u4 = query.add_vertex("u4", frozenset((LABEL_C,)))
    # q1 edges: u0 -a-> u1, u0 -b-> u4, u2 -a-> u1, u2 -a-> u3, u3 -c-> u4
    query.add_edge(u0, u1, EDGE_A)
    query.add_edge(u0, u4, EDGE_B)
    query.add_edge(u2, u1, EDGE_A)
    query.add_edge(u2, u3, EDGE_A)
    query.add_edge(u3, u4, EDGE_C)
    return query


@pytest.fixture
def small_rdf_store():
    """A small RDF store with typed people and a couple of relations."""
    store = TripleStore()
    triples = [
        Triple(EX.alice, RDF.type, EX.Person),
        Triple(EX.bob, RDF.type, EX.Person),
        Triple(EX.carol, RDF.type, EX.Person),
        Triple(EX.acme, RDF.type, EX.Company),
        Triple(EX.alice, EX.knows, EX.bob),
        Triple(EX.bob, EX.knows, EX.carol),
        Triple(EX.carol, EX.knows, EX.alice),
        Triple(EX.alice, EX.worksFor, EX.acme),
        Triple(EX.bob, EX.worksFor, EX.acme),
        Triple(EX.alice, EX.age, Literal("31", IRI("http://www.w3.org/2001/XMLSchema#integer"))),
        Triple(EX.bob, EX.age, Literal("27", IRI("http://www.w3.org/2001/XMLSchema#integer"))),
        Triple(EX.alice, EX.name, Literal("Alice")),
    ]
    store.load(triples)
    store.freeze()
    return store


@pytest.fixture(scope="session")
def lubm1():
    """LUBM(1) with inference — the main integration fixture."""
    return load_lubm(universities=1)


@pytest.fixture(scope="session")
def lubm2():
    """LUBM(2) — used by scaling tests."""
    return load_lubm(universities=2)


@pytest.fixture(scope="session")
def bsbm_small():
    """A small BSBM dataset."""
    return load_bsbm(products=60)


@pytest.fixture(scope="session")
def yago_small():
    """A small YAGO-like dataset."""
    return load_yago(people=150)


@pytest.fixture(scope="session")
def btc_small():
    """A small BTC-like dataset."""
    return load_btc(entities=200)


def _assert_same_answers(engine, oracle, sparql):
    """``engine`` answers ``sparql`` like the independent ``oracle`` engine.

    Results compare as multisets.  A LIMIT/OFFSET slice is only determined
    up to *which* rows it keeps — any rows when un-ORDERed, any of the tied
    rows under ORDER BY — so a sliced query must instead return the oracle's
    row count, the oracle's sort-key sequence, and only rows out of the
    oracle's un-sliced multiset.
    """
    query = parse_sparql(sparql)
    got, expected = engine.query(query), oracle.query(query)
    assert set(got.variables) == set(expected.variables), sparql
    order = sorted(got.variables)
    if query.limit is None and not query.offset:
        assert got.as_multiset(order) == expected.as_multiset(order), sparql
        return
    keys = [str(var) for var, _ in query.order_by]
    assert [tuple(row.get(key) for key in keys) for row in got] == [
        tuple(row.get(key) for key in keys) for row in expected
    ], sparql
    unsliced = oracle.query(replace(query, limit=None, offset=0))
    assert not got.as_multiset(order) - unsliced.as_multiset(order), sparql


@pytest.fixture(scope="session")
def assert_same_answers():
    """The cross-engine comparison helper (a fixture so Hypothesis tests and
    every test module share one copy without importing ``conftest``)."""
    return _assert_same_answers


class CountingTable(list):
    """A vertex → term table that counts its lookups: one per decoded cell."""

    def __init__(self, table):
        super().__init__(table)
        self.lookups = 0

    def __getitem__(self, index):
        self.lookups += 1
        return list.__getitem__(self, index)


@pytest.fixture
def decoded_cells(monkeypatch):
    """A callable returning how many cells engines loaded since have decoded.

    Every id → term decode goes through the table ``GraphMapping.vertex_terms``
    builds at ``load()``, so counting its lookups counts decoded cells no
    matter which operator or boundary decodes them.
    """
    tables = []
    build = GraphMapping.vertex_terms

    def counting_vertex_terms(mapping):
        table = CountingTable(build(mapping))
        tables.append(table)
        return table

    monkeypatch.setattr(GraphMapping, "vertex_terms", counting_vertex_terms)
    return lambda: sum(table.lookups for table in tables)
