"""Common RDF namespaces and a tiny namespace helper.

``Namespace("http://x/")`` produces IRIs via attribute or item access, e.g.
``LUBM.GraduateStudent`` or ``LUBM["GraduateStudent"]``.
"""

from __future__ import annotations

from repro.rdf.terms import IRI, XSD_NAMESPACE


class Namespace:
    """IRI factory bound to a common prefix."""

    def __init__(self, base: str):
        self._base = base

    @property
    def base(self) -> str:
        """The namespace IRI prefix."""
        return self._base

    def term(self, local: str) -> IRI:
        """Build the IRI for a local name."""
        return IRI(self._base + local)

    def __getattr__(self, local: str) -> IRI:
        if local.startswith("_"):
            raise AttributeError(local)
        return self.term(local)

    def __getitem__(self, local: str) -> IRI:
        return self.term(local)

    def __contains__(self, iri: str) -> bool:
        return str(iri).startswith(self._base)

    def local(self, iri: str) -> str:
        """Strip the namespace prefix from an IRI."""
        return str(iri)[len(self._base):]

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"Namespace({self._base!r})"


RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
RDFS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
XSD = Namespace(XSD_NAMESPACE)
OWL = Namespace("http://www.w3.org/2002/07/owl#")

#: The two predicates given special treatment by the type-aware transformation.
RDF_TYPE = RDF.type
RDFS_SUBCLASSOF = RDFS.subClassOf
RDFS_SUBPROPERTYOF = RDFS.subPropertyOf
RDFS_DOMAIN = RDFS.domain
RDFS_RANGE = RDFS.range
