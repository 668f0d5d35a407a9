"""RDF term and triple data model.

The model intentionally stays close to the RDF abstract syntax: a triple is
``(subject, predicate, object)`` where the subject is an IRI or blank node,
the predicate is an IRI, and the object is an IRI, blank node, or literal.
Terms are immutable and hashable so they can be used as dictionary keys in
the dictionary encoder and the triple store.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union


class IRI(str):
    """An IRI reference.

    Subclassing ``str`` keeps the memory footprint minimal for large datasets
    while still allowing ``isinstance`` based dispatch.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"IRI({str.__repr__(self)})"

    def n3(self) -> str:
        """Render in N-Triples syntax."""
        return f"<{self}>"


class BlankNode(str):
    """A blank node label (without the leading ``_:``)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"BlankNode({str.__repr__(self)})"

    def n3(self) -> str:
        """Render in N-Triples syntax."""
        return f"_:{self}"


#: The XSD namespace IRI; ``repro.rdf.namespaces.XSD`` is built from it,
#: since that module imports this one.
XSD_NAMESPACE = "http://www.w3.org/2001/XMLSchema#"
# ``Literal.to_python`` runs once per FILTER comparison: its datatype IRIs
# are built once here.
_INTEGER_TYPES = frozenset(IRI(XSD_NAMESPACE + local) for local in ("integer", "int", "long"))
_FLOAT_TYPES = frozenset(IRI(XSD_NAMESPACE + local) for local in ("decimal", "double", "float"))
_XSD_BOOLEAN = IRI(XSD_NAMESPACE + "boolean")


class Literal(NamedTuple):
    """An RDF literal with optional datatype IRI and language tag."""

    lexical: str
    datatype: Optional[IRI] = None
    language: Optional[str] = None

    def n3(self) -> str:
        """Render in N-Triples syntax."""
        escaped = (
            self.lexical.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace("\t", "\\t")
        )
        if self.language:
            return f'"{escaped}"@{self.language}'
        if self.datatype:
            return f'"{escaped}"^^<{self.datatype}>'
        return f'"{escaped}"'

    def to_python(self) -> Union[int, float, bool, str]:
        """Convert to the closest Python value based on the XSD datatype."""
        datatype = self.datatype
        if datatype in _INTEGER_TYPES:
            try:
                return int(self.lexical)
            except ValueError:
                return self.lexical
        if datatype in _FLOAT_TYPES:
            try:
                return float(self.lexical)
            except ValueError:
                return self.lexical
        if datatype == _XSD_BOOLEAN:
            return self.lexical in ("true", "1")
        return self.lexical


Term = Union[IRI, BlankNode, Literal]


class Triple(NamedTuple):
    """An RDF triple ``(subject, predicate, object)``."""

    subject: Union[IRI, BlankNode]
    predicate: IRI
    object: Term

    def n3(self) -> str:
        """Render in N-Triples syntax (without the trailing dot)."""
        return f"{_n3(self.subject)} {_n3(self.predicate)} {_n3(self.object)}"


def _n3(term: Term) -> str:
    """N-Triples rendering of any term."""
    return term.n3()


def literal(value: Union[int, float, bool, str]) -> Literal:
    """Build a typed literal from a Python value."""
    from repro.rdf.namespaces import XSD

    if isinstance(value, bool):
        return Literal("true" if value else "false", XSD.boolean)
    if isinstance(value, int):
        return Literal(str(value), XSD.integer)
    if isinstance(value, float):
        return Literal(repr(value), XSD.double)
    return Literal(str(value))
