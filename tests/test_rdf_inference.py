"""RDFS ontology and materialization rules."""

import os
import subprocess
import sys

from repro.rdf.inference import Ontology, RDFSInferencer
from repro.rdf.namespaces import Namespace, OWL, RDF, RDFS
from repro.rdf.terms import Literal, Triple

EX = Namespace("http://example.org/")


def make_ontology() -> Ontology:
    ontology = Ontology()
    ontology.add_subclass(EX.GraduateStudent, EX.Student)
    ontology.add_subclass(EX.Student, EX.Person)
    ontology.add_subproperty(EX.undergradDegreeFrom, EX.degreeFrom)
    ontology.add_inverse(EX.degreeFrom, EX.hasAlumnus)
    ontology.add_domain(EX.teaches, EX.Teacher)
    ontology.add_range(EX.teaches, EX.Course)
    return ontology


class TestOntology:
    def test_transitive_superclasses(self):
        ontology = make_ontology()
        assert ontology.superclasses(EX.GraduateStudent) == {EX.Student, EX.Person}

    def test_subclasses_inverse_view(self):
        ontology = make_ontology()
        assert EX.GraduateStudent in ontology.subclasses(EX.Person)

    def test_superproperties(self):
        ontology = make_ontology()
        assert ontology.superproperties(EX.undergradDegreeFrom) == {EX.degreeFrom}

    def test_inverses_are_symmetric(self):
        ontology = make_ontology()
        assert EX.hasAlumnus in ontology.inverses(EX.degreeFrom)
        assert EX.degreeFrom in ontology.inverses(EX.hasAlumnus)

    def test_unknown_class_has_no_superclasses(self):
        assert make_ontology().superclasses(EX.Unknown) == frozenset()

    def test_from_triples_roundtrip(self):
        ontology = make_ontology()
        rebuilt = Ontology.from_triples(ontology.schema_triples())
        assert rebuilt.superclasses(EX.GraduateStudent) == {EX.Student, EX.Person}
        assert rebuilt.superproperties(EX.undergradDegreeFrom) == {EX.degreeFrom}
        assert EX.hasAlumnus in rebuilt.inverses(EX.degreeFrom)

    def test_classes_collects_both_sides(self):
        assert EX.Person in make_ontology().classes

    def test_cycle_does_not_hang(self):
        ontology = Ontology()
        ontology.add_subclass(EX.A, EX.B)
        ontology.add_subclass(EX.B, EX.A)
        assert EX.B in ontology.superclasses(EX.A)


class TestInferencer:
    def test_rdfs9_type_propagation(self):
        inferencer = RDFSInferencer(make_ontology())
        result = set(inferencer.materialize([Triple(EX.ann, RDF.type, EX.GraduateStudent)]))
        assert Triple(EX.ann, RDF.type, EX.Student) in result
        assert Triple(EX.ann, RDF.type, EX.Person) in result

    def test_rdfs7_subproperty(self):
        inferencer = RDFSInferencer(make_ontology())
        result = set(inferencer.materialize([Triple(EX.ann, EX.undergradDegreeFrom, EX.mit)]))
        assert Triple(EX.ann, EX.degreeFrom, EX.mit) in result

    def test_inverse_property(self):
        inferencer = RDFSInferencer(make_ontology())
        result = set(inferencer.materialize([Triple(EX.ann, EX.degreeFrom, EX.mit)]))
        assert Triple(EX.mit, EX.hasAlumnus, EX.ann) in result

    def test_chained_subproperty_then_inverse(self):
        # undergradDegreeFrom ⊑ degreeFrom, degreeFrom inverseOf hasAlumnus:
        # the LUBM Q13 chain requires fixpoint iteration.
        inferencer = RDFSInferencer(make_ontology())
        result = set(inferencer.materialize([Triple(EX.ann, EX.undergradDegreeFrom, EX.mit)]))
        assert Triple(EX.mit, EX.hasAlumnus, EX.ann) in result

    def test_domain_and_range(self):
        inferencer = RDFSInferencer(make_ontology())
        result = set(inferencer.materialize([Triple(EX.bob, EX.teaches, EX.algebra)]))
        assert Triple(EX.bob, RDF.type, EX.Teacher) in result
        assert Triple(EX.algebra, RDF.type, EX.Course) in result

    def test_literal_objects_get_no_type_or_inverse(self):
        ontology = Ontology()
        ontology.add_range(EX.name, EX.Thing)
        ontology.add_inverse(EX.name, EX.nameOf)
        inferencer = RDFSInferencer(ontology)
        result = inferencer.materialize([Triple(EX.bob, EX.name, Literal("Bob"))])
        assert all(not isinstance(t.subject, Literal) for t in result)
        assert len(result) == 1

    def test_original_triples_are_preserved_and_not_duplicated(self):
        inferencer = RDFSInferencer(make_ontology())
        original = [
            Triple(EX.ann, RDF.type, EX.Student),
            Triple(EX.ann, RDF.type, EX.Student),
        ]
        result = inferencer.materialize(original)
        assert result.count(Triple(EX.ann, RDF.type, EX.Student)) == 1

    def test_no_ontology_means_no_new_triples(self):
        inferencer = RDFSInferencer(Ontology())
        triples = [Triple(EX.a, EX.p, EX.b)]
        assert inferencer.materialize(triples) == triples


#: Prints the id → term tables of LUBM(1), nodes then predicates.
_DUMP_LUBM_IDS = """
from repro.datasets import load_lubm
dictionary = load_lubm(universities=1).store.dictionary
for node in range(dictionary.node_count):
    print(repr(dictionary.decode_node(node)))
for predicate in range(dictionary.predicate_count):
    print(repr(dictionary.decode_predicate(predicate)))
"""


class TestDeterministicIds:
    def test_lubm_ids_do_not_depend_on_the_hash_seed(self):
        """Entailed triples come out in one order whatever the string-hash
        salt, so the dictionary ids a loader assigns repeat across runs."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        tables = []
        for seed in ("1", "2"):
            environment = dict(os.environ, PYTHONHASHSEED=seed)
            environment["PYTHONPATH"] = src + os.pathsep + environment.get("PYTHONPATH", "")
            result = subprocess.run(
                [sys.executable, "-c", _DUMP_LUBM_IDS],
                env=environment, capture_output=True, text=True, timeout=120,
                check=True,
            )
            tables.append(result.stdout)
        assert tables[0] and tables[0] == tables[1]
