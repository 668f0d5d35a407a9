"""Dictionary encoding of RDF terms to dense integer identifiers.

Every engine in this repository (TurboHOM++, RDF-3X-style, TripleBit-style,
bitmap) shares one :class:`Dictionary` per dataset so that query times never
include dictionary look-ups — matching the paper's measurement protocol
("we measure the elapsed time excluding the dictionary look-up time",
Section 7.1).

Entities (IRIs / blank nodes) and literals share a single id space; predicates
get their own id space, mirroring the separation between vertex ids and edge
labels in the labeled-graph view.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.rdf.terms import IRI, Literal, Term, Triple


class Dictionary:
    """Bidirectional mapping between RDF terms and dense integer ids."""

    def __init__(self) -> None:
        self._term_to_id: Dict[Term, int] = {}
        self._id_to_term: List[Term] = []
        self._pred_to_id: Dict[IRI, int] = {}
        self._id_to_pred: List[IRI] = []

    # ------------------------------------------------------------------ nodes
    def encode_node(self, term: Term) -> int:
        """Return the id for a subject/object term, assigning one if new."""
        node_id = self._term_to_id.get(term)
        if node_id is None:
            node_id = len(self._id_to_term)
            self._term_to_id[term] = node_id
            self._id_to_term.append(term)
        return node_id

    def lookup_node(self, term: Term) -> Optional[int]:
        """Return the id for a term, or None if the term is unknown."""
        return self._term_to_id.get(term)

    def decode_node(self, node_id: int) -> Term:
        """Return the term for a node id."""
        return self._id_to_term[node_id]

    # ------------------------------------------------------------- predicates
    def encode_predicate(self, predicate: IRI) -> int:
        """Return the id for a predicate, assigning one if new."""
        pred_id = self._pred_to_id.get(predicate)
        if pred_id is None:
            pred_id = len(self._id_to_pred)
            self._pred_to_id[predicate] = pred_id
            self._id_to_pred.append(predicate)
        return pred_id

    def lookup_predicate(self, predicate: IRI) -> Optional[int]:
        """Return the id for a predicate, or None if unknown."""
        return self._pred_to_id.get(predicate)

    def decode_predicate(self, pred_id: int) -> IRI:
        """Return the predicate IRI for a predicate id."""
        return self._id_to_pred[pred_id]

    # ---------------------------------------------------------------- triples
    def encode_triple(self, triple: Triple) -> Tuple[int, int, int]:
        """Encode a triple into ``(subject id, predicate id, object id)``."""
        return (
            self.encode_node(triple.subject),
            self.encode_predicate(triple.predicate),
            self.encode_node(triple.object),
        )

    def encode_triples(self, triples: Iterable[Triple]) -> Iterator[Tuple[int, int, int]]:
        """Encode an iterable of triples lazily."""
        for triple in triples:
            yield self.encode_triple(triple)

    def decode_triple(self, encoded: Tuple[int, int, int]) -> Triple:
        """Decode an ``(s, p, o)`` id triple back to RDF terms."""
        s, p, o = encoded
        return Triple(self.decode_node(s), self.decode_predicate(p), self.decode_node(o))

    # ------------------------------------------------------------------ sizes
    @property
    def node_count(self) -> int:
        """Number of distinct subject/object terms seen so far."""
        return len(self._id_to_term)

    @property
    def predicate_count(self) -> int:
        """Number of distinct predicates seen so far."""
        return len(self._id_to_pred)

    def __len__(self) -> int:
        return self.node_count

    def nodes(self) -> Iterator[Tuple[int, Term]]:
        """Iterate over ``(id, term)`` pairs."""
        return enumerate(self._id_to_term)

    def predicates(self) -> Iterator[Tuple[int, IRI]]:
        """Iterate over ``(id, predicate)`` pairs."""
        return enumerate(self._id_to_pred)

    def is_literal(self, node_id: int) -> bool:
        """True if the node id denotes a literal."""
        return isinstance(self._id_to_term[node_id], Literal)
