"""RDFS-style inference (materialization of entailed triples).

The LUBM and BSBM benchmarks are run against *original plus inferred*
triples (Section 7.1: "In order to obtain inferred triples, we use the
state-of-the-art RDF inference engine").  This module provides that
substrate: an :class:`Ontology` holding the schema (subclass / subproperty
hierarchies, domains, ranges, inverse properties) and an
:class:`RDFSInferencer` that materializes the entailed triples:

* ``rdfs9``  — ``(x rdf:type C)`` and ``C subClassOf D``  ⇒ ``(x rdf:type D)``
* ``rdfs7``  — ``(x P y)`` and ``P subPropertyOf Q``        ⇒ ``(x Q y)``
* ``rdfs2``  — ``(x P y)`` and ``P domain C``               ⇒ ``(x rdf:type C)``
* ``rdfs3``  — ``(x P y)`` and ``P range C``                ⇒ ``(y rdf:type C)``
* ``inverse``— ``(x P y)`` and ``P inverseOf Q``            ⇒ ``(y Q x)``

The transitive closures of subClassOf / subPropertyOf are computed once on
the ontology, so the materialization is a single pass over the data.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

from repro.rdf.namespaces import OWL, RDF_TYPE, RDFS
from repro.rdf.terms import IRI, Literal, Term, Triple


def _transitive_closure(edges: Dict[IRI, Set[IRI]]) -> Dict[IRI, Set[IRI]]:
    """Compute the transitive closure of a sparse relation (DFS per node)."""
    closure: Dict[IRI, Set[IRI]] = {}
    for start in edges:
        seen: Set[IRI] = set()
        stack = list(edges.get(start, ()))
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(edges.get(node, ()))
        closure[start] = seen
    return closure


class Ontology:
    """Schema-level knowledge: class and property hierarchies.

    Instances are usually built either programmatically (benchmark
    generators) or from schema triples via :meth:`from_triples`.
    """

    def __init__(self) -> None:
        self._subclass: Dict[IRI, Set[IRI]] = defaultdict(set)
        self._subproperty: Dict[IRI, Set[IRI]] = defaultdict(set)
        self._domain: Dict[IRI, Set[IRI]] = defaultdict(set)
        self._range: Dict[IRI, Set[IRI]] = defaultdict(set)
        self._inverse: Dict[IRI, Set[IRI]] = defaultdict(set)
        self._subclass_closure: Dict[IRI, Set[IRI]] = {}
        self._subproperty_closure: Dict[IRI, Set[IRI]] = {}
        self._dirty = True

    # ------------------------------------------------------------ declaration
    def add_subclass(self, child: IRI, parent: IRI) -> None:
        """Declare ``child rdfs:subClassOf parent``."""
        self._subclass[child].add(parent)
        self._dirty = True

    def add_subproperty(self, child: IRI, parent: IRI) -> None:
        """Declare ``child rdfs:subPropertyOf parent``."""
        self._subproperty[child].add(parent)
        self._dirty = True

    def add_domain(self, prop: IRI, cls: IRI) -> None:
        """Declare ``prop rdfs:domain cls``."""
        self._domain[prop].add(cls)
        self._dirty = True

    def add_range(self, prop: IRI, cls: IRI) -> None:
        """Declare ``prop rdfs:range cls``."""
        self._range[prop].add(cls)
        self._dirty = True

    def add_inverse(self, prop: IRI, inverse: IRI) -> None:
        """Declare ``prop owl:inverseOf inverse`` (symmetrically)."""
        self._inverse[prop].add(inverse)
        self._inverse[inverse].add(prop)
        self._dirty = True

    @classmethod
    def from_triples(cls, triples: Iterable[Triple]) -> "Ontology":
        """Extract the schema statements from a triple stream."""
        ontology = cls()
        for s, p, o in triples:
            if p == RDFS.subClassOf and isinstance(s, IRI) and isinstance(o, IRI):
                ontology.add_subclass(s, o)
            elif p == RDFS.subPropertyOf and isinstance(s, IRI) and isinstance(o, IRI):
                ontology.add_subproperty(s, o)
            elif p == RDFS.domain and isinstance(s, IRI) and isinstance(o, IRI):
                ontology.add_domain(s, o)
            elif p == RDFS.range and isinstance(s, IRI) and isinstance(o, IRI):
                ontology.add_range(s, o)
            elif p == OWL.inverseOf and isinstance(s, IRI) and isinstance(o, IRI):
                ontology.add_inverse(s, o)
        return ontology

    # ---------------------------------------------------------------- queries
    def _ensure_closures(self) -> None:
        if self._dirty:
            self._subclass_closure = _transitive_closure(self._subclass)
            self._subproperty_closure = _transitive_closure(self._subproperty)
            self._dirty = False

    def superclasses(self, cls: IRI) -> FrozenSet[IRI]:
        """All (transitive) superclasses of a class, excluding the class itself."""
        self._ensure_closures()
        return frozenset(self._subclass_closure.get(cls, set()))

    def superproperties(self, prop: IRI) -> FrozenSet[IRI]:
        """All (transitive) superproperties of a property."""
        self._ensure_closures()
        return frozenset(self._subproperty_closure.get(prop, set()))

    def subclasses(self, cls: IRI) -> FrozenSet[IRI]:
        """All (transitive) subclasses of a class, excluding the class itself."""
        self._ensure_closures()
        return frozenset(
            child for child, parents in self._subclass_closure.items() if cls in parents
        )

    def domains(self, prop: IRI) -> FrozenSet[IRI]:
        """Declared domains of a property."""
        return frozenset(self._domain.get(prop, set()))

    def ranges(self, prop: IRI) -> FrozenSet[IRI]:
        """Declared ranges of a property."""
        return frozenset(self._range.get(prop, set()))

    def inverses(self, prop: IRI) -> FrozenSet[IRI]:
        """Declared inverse properties of a property."""
        return frozenset(self._inverse.get(prop, set()))

    def schema_triples(self) -> Iterator[Triple]:
        """Serialize the ontology as schema triples."""
        for child, parents in sorted(self._subclass.items()):
            for parent in sorted(parents):
                yield Triple(child, RDFS.subClassOf, parent)
        for child, parents in sorted(self._subproperty.items()):
            for parent in sorted(parents):
                yield Triple(child, RDFS.subPropertyOf, parent)
        for prop, classes in sorted(self._domain.items()):
            for cls in sorted(classes):
                yield Triple(prop, RDFS.domain, cls)
        for prop, classes in sorted(self._range.items()):
            for cls in sorted(classes):
                yield Triple(prop, RDFS.range, cls)
        for prop, inverses in sorted(self._inverse.items()):
            for inverse in sorted(inverses):
                yield Triple(prop, OWL.inverseOf, inverse)

    @property
    def classes(self) -> Set[IRI]:
        """All classes mentioned in subclass axioms."""
        result: Set[IRI] = set(self._subclass)
        for parents in self._subclass.values():
            result.update(parents)
        return result


class RDFSInferencer:
    """Materializes RDFS (+ inverseOf) entailments over a triple stream.

    Materialization runs to a fixpoint so that rule chains compose — e.g.
    ``undergraduateDegreeFrom ⊑ degreeFrom`` followed by
    ``degreeFrom owl:inverseOf hasAlumnus`` yields ``hasAlumnus`` triples, the
    chain LUBM query 13 relies on.
    """

    def __init__(self, ontology: Ontology):
        self.ontology = ontology

    def _direct_consequences(
        self, triple: Triple, ordered: Callable[[str, Term], Tuple[IRI, ...]]
    ) -> List[Triple]:
        """One application of every rule to a single triple.

        ``ordered(rule, term)`` is the ontology's ``rule(term)`` set in sorted
        order, so the entailed triples — and the dictionary ids a loader
        assigns them — do not depend on the interpreter's string-hash seed.
        """
        s, p, o = triple
        if p == RDF_TYPE:
            return [Triple(s, RDF_TYPE, parent) for parent in ordered("superclasses", o)]
        derived = [Triple(s, super_prop, o) for super_prop in ordered("superproperties", p)]
        object_is_literal = isinstance(o, Literal)
        if not object_is_literal:
            derived.extend(Triple(o, inverse, s) for inverse in ordered("inverses", p))  # type: ignore[arg-type]
        derived.extend(Triple(s, RDF_TYPE, cls) for cls in ordered("domains", p))
        if not object_is_literal:
            derived.extend(Triple(o, RDF_TYPE, cls) for cls in ordered("ranges", p))  # type: ignore[arg-type]
        return derived

    def infer(self, triples: Iterable[Triple]) -> Iterator[Triple]:
        """Yield the original triples followed by newly entailed ones.

        Duplicates are suppressed, so the output is a set-like stream that can
        be loaded directly into a :class:`~repro.rdf.store.TripleStore`.
        """
        # Each rule's sorted answer per term, computed once per run.
        answers: Dict[Tuple[str, Term], Tuple[IRI, ...]] = {}

        def ordered(rule: str, term: Term) -> Tuple[IRI, ...]:
            key = (rule, term)
            answer = answers.get(key)
            if answer is None:
                answer = answers[key] = tuple(sorted(getattr(self.ontology, rule)(term)))
            return answer

        seen: Set[Triple] = set()
        frontier: List[Triple] = []
        for triple in triples:
            if triple not in seen:
                seen.add(triple)
                frontier.append(triple)
                yield triple
        # Semi-naive fixpoint: only newly derived triples are re-expanded.
        while frontier:
            next_frontier: List[Triple] = []
            for triple in frontier:
                for derived in self._direct_consequences(triple, ordered):
                    if derived not in seen:
                        seen.add(derived)
                        next_frontier.append(derived)
                        yield derived
            frontier = next_frontier

    def materialize(self, triples: Iterable[Triple]) -> List[Triple]:
        """Eagerly compute the entailed triple list."""
        return list(self.infer(triples))
