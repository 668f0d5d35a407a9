"""Query graph model and the direct / type-aware transformations."""

import hashlib
import json
import random

import pytest

from repro.engine.turbo_engine import TurboEngine
from repro.exceptions import GraphError
from repro.graph.query_graph import QueryGraph
from repro.graph.transform import (
    IMPOSSIBLE,
    direct_transform,
    direct_transform_query,
    transform_stats,
    type_aware_transform,
    type_aware_transform_query,
)
from repro.rdf.namespaces import Namespace, RDF, RDFS
from repro.rdf.store import TripleStore
from repro.rdf.terms import Literal, Triple
from repro.sparql.parser import parse_sparql

EX = Namespace("http://example.org/")


class TestQueryGraph:
    def test_add_vertex_merges_labels(self):
        query = QueryGraph()
        first = query.add_vertex("x", frozenset((1,)))
        second = query.add_vertex("x", frozenset((2,)))
        assert first == second
        assert query.vertices[first].labels == frozenset((1, 2))

    def test_conflicting_vertex_ids_rejected(self):
        query = QueryGraph()
        query.add_vertex("x", vertex_id=3)
        with pytest.raises(GraphError):
            query.add_vertex("x", vertex_id=4)

    def test_edges_and_degree(self):
        query = QueryGraph()
        a = query.add_vertex("a")
        b = query.add_vertex("b")
        c = query.add_vertex("c")
        query.add_edge(a, b, 0)
        query.add_edge(c, a, 1)
        assert query.degree(a) == 2
        assert query.neighbors(a) == {b, c}
        assert [e.label for e in query.out_edges(a)] == [0]
        assert [e.label for e in query.in_edges(a)] == [1]
        assert len(query.edges_between(a, b)) == 1

    def test_connectivity(self):
        query = QueryGraph()
        a = query.add_vertex("a")
        b = query.add_vertex("b")
        query.add_vertex("c")
        query.add_edge(a, b, 0)
        assert not query.is_connected()
        assert query.connected_components() == [[0, 1], [2]]

    def test_predicate_variables(self):
        query = QueryGraph()
        a = query.add_vertex("a")
        b = query.add_vertex("b")
        query.add_edge(a, b, None, "p")
        assert query.predicate_variables() == ["p"]


@pytest.fixture
def typed_store():
    store = TripleStore()
    store.load(
        [
            Triple(EX.Grad, RDFS.subClassOf, EX.Student),
            Triple(EX.ann, RDF.type, EX.Grad),
            Triple(EX.bob, RDF.type, EX.Student),
            Triple(EX.ann, EX.knows, EX.bob),
            Triple(EX.ann, EX.name, Literal("Ann")),
        ]
    )
    store.freeze()
    return store


class TestDirectTransform:
    def test_every_node_is_a_vertex_with_its_own_label(self, typed_store):
        graph, mapping = direct_transform(typed_store)
        assert graph.vertex_count == typed_store.dictionary.node_count
        ann = typed_store.dictionary.lookup_node(EX.ann)
        assert graph.vertex_labels(ann) == frozenset((ann,))
        assert mapping.kind == "direct"
        assert mapping.vertex_for_node(ann) == ann

    def test_every_triple_is_an_edge(self, typed_store):
        graph, _ = direct_transform(typed_store)
        assert graph.edge_count == len(typed_store)

    def test_query_transformation(self, typed_store):
        _, mapping = direct_transform(typed_store)
        parsed = parse_sparql(
            "PREFIX ex: <http://example.org/> PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
            "SELECT ?x WHERE { ?x rdf:type ex:Student . ?x ex:knows ?y . }"
        )
        result = direct_transform_query(parsed.where.triples, mapping)
        query = result.query_graph
        # rdf:type stays an ordinary edge: 4 vertices (x, Student, y, ...) and 2 edges.
        assert query.edge_count() == 2
        assert query.vertex_count() == 3
        assert not result.type_variable_patterns

    def test_unknown_constant_gets_impossible_label(self, typed_store):
        _, mapping = direct_transform(typed_store)
        parsed = parse_sparql(
            "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x ex:knows ex:nobody . }"
        )
        query = direct_transform_query(parsed.where.triples, mapping).query_graph
        constant = [v for v in query.vertices if not v.is_variable][0]
        assert constant.labels == frozenset((IMPOSSIBLE,))


class TestTypeAwareTransform:
    def test_class_vertices_disappear(self, typed_store):
        graph, mapping = type_aware_transform(typed_store)
        # Vertices: ann, bob, and the literal "Ann"; Grad/Student are labels only.
        assert graph.vertex_count == 3
        assert mapping.vertex_for_node(typed_store.dictionary.lookup_node(EX.Student)) == IMPOSSIBLE

    def test_type_and_subclass_edges_removed(self, typed_store):
        graph, _ = type_aware_transform(typed_store)
        assert graph.edge_count == 2  # knows + name

    def test_labels_include_transitive_superclasses(self, typed_store):
        graph, mapping = type_aware_transform(typed_store)
        dictionary = typed_store.dictionary
        ann = mapping.vertex_for_node(dictionary.lookup_node(EX.ann))
        labels = graph.vertex_labels(ann)
        assert dictionary.lookup_node(EX.Grad) in labels
        assert dictionary.lookup_node(EX.Student) in labels

    def test_term_roundtrip_through_mapping(self, typed_store):
        _, mapping = type_aware_transform(typed_store)
        ann_vertex = mapping.vertex_for_node(typed_store.dictionary.lookup_node(EX.ann))
        assert mapping.term_for_vertex(ann_vertex) == EX.ann

    def test_query_type_pattern_folds_into_label(self, typed_store):
        _, mapping = type_aware_transform(typed_store)
        parsed = parse_sparql(
            "PREFIX ex: <http://example.org/> PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
            "SELECT ?x WHERE { ?x rdf:type ex:Student . ?x ex:knows ?y . }"
        )
        result = type_aware_transform_query(parsed.where.triples, mapping)
        query = result.query_graph
        assert query.vertex_count() == 2
        assert query.edge_count() == 1
        x_vertex = query.vertices[query.vertex_index("x")]
        assert typed_store.dictionary.lookup_node(EX.Student) in x_vertex.labels

    def test_query_constant_uses_id_attribute(self, typed_store):
        _, mapping = type_aware_transform(typed_store)
        parsed = parse_sparql(
            "PREFIX ex: <http://example.org/> SELECT ?y WHERE { ex:ann ex:knows ?y . }"
        )
        query = type_aware_transform_query(parsed.where.triples, mapping).query_graph
        constant = [v for v in query.vertices if not v.is_variable][0]
        expected = mapping.vertex_for_node(typed_store.dictionary.lookup_node(EX.ann))
        assert constant.vertex_id == expected

    def test_query_type_variable_pattern_is_deferred(self, typed_store):
        _, mapping = type_aware_transform(typed_store)
        parsed = parse_sparql(
            "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
            "SELECT ?x ?t WHERE { ?x rdf:type ?t . }"
        )
        result = type_aware_transform_query(parsed.where.triples, mapping)
        assert result.type_variable_patterns == [("x", "t")]

    def test_stats_helper_reports_both_transformations(self, typed_store):
        rows = transform_stats("toy", typed_store)
        kinds = {row.kind: row for row in rows}
        assert kinds["type-aware"].edges < kinds["direct"].edges


class TestTransformOnLUBM:
    def test_table1_shape_on_lubm(self, lubm1):
        direct_graph, _ = direct_transform(lubm1.store)
        typed_graph, _ = type_aware_transform(lubm1.store)
        assert typed_graph.edge_count < direct_graph.edge_count
        assert typed_graph.vertex_count <= direct_graph.vertex_count
        # Every data triple that is not rdf:type / rdfs:subClassOf survives.
        type_pred = lubm1.store.dictionary.lookup_predicate(RDF.type)
        subclass_pred = lubm1.store.dictionary.lookup_predicate(RDFS.subClassOf)
        schema_edges = sum(
            1 for _, p, _ in lubm1.store.iter_triples() if p in (type_pred, subclass_pred)
        )
        assert typed_graph.edge_count == direct_graph.edge_count - schema_edges


def _canonical(store):
    """A copy of ``store`` whose dictionary ids do not depend on the hash seed.

    Dataset generators encode terms in set-iteration order, so their node ids
    move with ``PYTHONHASHSEED``; loading the decoded triples in a fixed
    order pins them.
    """
    copy = TripleStore()
    copy.load(sorted(store.decode_all(), key=repr))
    return copy


def _layout_digest(graph, mapping):
    """SHA-256 over every flat array the query path reads.

    Label sets, both directions' eight CSR slots (``type_keys`` as pairs),
    the inverse-label and predicate posting indexes, the degrees and the
    vertex → node table.
    """
    parts = [graph.vertex_count, graph.edge_count, [sorted(s) for s in graph.labels]]
    for csr in (graph._out, graph._in):
        parts.append(
            [
                list(csr.label_off), list(csr.label_keys),
                list(csr.nbr_off), list(csr.nbr),
                list(csr.type_off), [list(key) for key in csr.type_keys],
                list(csr.type_nbr_off), list(csr.type_nbr),
            ]
        )
    for index in (graph._inverse_label, graph._pred_subjects, graph._pred_objects):
        parts.append([list(index.keys), list(index.off), list(index.postings)])
    parts.append(list(graph._degree))
    parts.append(mapping.vertex_to_node)
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


class TestLayoutDigest:
    """The CSR build writes the arrays the query path has always read.

    The digests were taken from the build this one replaced (a global sort
    of one ``(vertex, (edge label, vertex label), neighbour)`` row per
    neighbour label).  A change to the layout must update them on purpose.
    """

    def test_type_aware_lubm1(self, lubm1):
        graph, mapping = type_aware_transform(_canonical(lubm1.store))
        assert _layout_digest(graph, mapping) == (
            "462bd6fe48401e1b32670dd2aa49bc68b2faf729ca0349f9e8481a4aad113a3d"
        )

    def test_direct_bsbm(self, bsbm_small):
        graph, mapping = direct_transform(_canonical(bsbm_small.store))
        assert _layout_digest(graph, mapping) == (
            "5a06f6719836d054e6e9a8cf319c1c9e2a7f95c78dc316d86eac239c8f7576b4"
        )


def _random_typed_triples(rng):
    """Entities, literals and classes with every shape the transform folds.

    ``rdfs:subClassOf`` chains plus a cycle (C3 ⊑ C4 ⊑ C3), a class that is
    the subject of a data triple, and a node with nothing but type triples.
    """
    classes = [EX[f"C{i}"] for i in range(6)]
    entities = [EX[f"e{i}"] for i in range(10)]
    predicates = [EX[f"p{i}"] for i in range(3)]
    triples = [
        Triple(classes[3], RDFS.subClassOf, classes[4]),
        Triple(classes[4], RDFS.subClassOf, classes[3]),
        Triple(classes[1], predicates[0], entities[2]),
        Triple(EX.typeOnly, RDF.type, classes[rng.randrange(6)]),
    ]
    for _ in range(rng.randrange(0, 6)):
        sub, sup = rng.sample(classes, 2)
        triples.append(Triple(sub, RDFS.subClassOf, sup))
    for _ in range(rng.randrange(0, 15)):
        triples.append(Triple(rng.choice(entities), RDF.type, rng.choice(classes)))
    for _ in range(rng.randrange(0, 25)):
        obj = rng.choice(entities + [Literal(str(rng.randrange(4)))])
        triples.append(Triple(rng.choice(entities), rng.choice(predicates), obj))
    return triples


class TestTypeAwareReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_reference_transform(self, seed):
        triples = _random_typed_triples(random.Random(seed))
        store = TripleStore()
        store.load(triples)
        graph, mapping = type_aware_transform(store)

        schema = (RDF.type, RDFS.subClassOf)
        data = {(t.subject, t.predicate, t.object) for t in triples if t.predicate not in schema}
        direct = {}
        for t in triples:
            if t.predicate == RDF.type:
                direct.setdefault(t.subject, set()).add(t.object)
        parents = {}
        for t in triples:
            if t.predicate == RDFS.subClassOf:
                parents.setdefault(t.subject, set()).add(t.object)

        def closure(types):
            # Brute force: grow the set until no subClassOf edge adds a class.
            result = set(types)
            while True:
                grown = result.union(*(parents.get(c, set()) for c in result))
                if grown == result:
                    return result
                result = grown

        nodes = {s for s, _, _ in data} | {o for _, _, o in data} | set(direct)
        vertex_terms = [mapping.term_for_vertex(v) for v in graph.vertices()]
        assert sorted(vertex_terms, key=repr) == sorted(nodes, key=repr)
        for v, term in enumerate(vertex_terms):
            labels = {mapping.term_for_label(label) for label in graph.vertex_labels(v)}
            assert labels == closure(direct.get(term, ()))
        edges = {
            (vertex_terms[s], mapping.term_for_edge_label(p), vertex_terms[o])
            for s, p, o in graph.iter_edges()
        }
        assert edges == data
        assert graph.edge_count == len(data)


class TestEngineLoadStats:
    def test_stats_report_last_load(self, typed_store):
        engine = TurboEngine()
        try:
            assert engine.stats()["load"] is None
            engine.load(typed_store)
            load = engine.stats()["load"]
            assert set(load) == {"transform_ms", "vertices", "edges"}
            assert (load["vertices"], load["edges"]) == (3, 2)
            assert load["transform_ms"] > 0
        finally:
            engine.close()

    def test_stats_follow_the_transform(self, typed_store):
        engine = TurboEngine(type_aware=False)
        try:
            engine.load(typed_store)
            load = engine.stats()["load"]
            assert load["vertices"] == typed_store.dictionary.node_count
            assert load["edges"] == len(typed_store)
        finally:
            engine.close()
