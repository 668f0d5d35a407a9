"""RDF term model and namespace helpers."""

import pytest

from repro.rdf.namespaces import Namespace, RDF, XSD
from repro.rdf.terms import BlankNode, IRI, Literal, Triple, literal


class TestTerms:
    def test_iri_is_string_like(self):
        iri = IRI("http://example.org/a")
        assert iri == "http://example.org/a"
        assert iri.n3() == "<http://example.org/a>"

    def test_blank_node_rendering(self):
        assert BlankNode("b1").n3() == "_:b1"

    def test_plain_literal_rendering(self):
        assert Literal("hi").n3() == '"hi"'

    def test_typed_literal_rendering(self):
        rendered = Literal("5", XSD.integer).n3()
        assert rendered == '"5"^^<http://www.w3.org/2001/XMLSchema#integer>'

    def test_language_literal_rendering(self):
        assert Literal("hallo", None, "de").n3() == '"hallo"@de'

    def test_literal_escaping(self):
        assert Literal('say "hi"\n').n3() == '"say \\"hi\\"\\n"'

    def test_literal_to_python_integer(self):
        assert Literal("42", XSD.integer).to_python() == 42

    def test_literal_to_python_double(self):
        assert Literal("3.5", XSD.double).to_python() == pytest.approx(3.5)

    def test_literal_to_python_boolean(self):
        assert Literal("true", XSD.boolean).to_python() is True
        assert Literal("false", XSD.boolean).to_python() is False

    def test_literal_to_python_plain_string(self):
        assert Literal("plain").to_python() == "plain"

    def test_literal_to_python_malformed_number_falls_back_to_text(self):
        assert Literal("not-a-number", XSD.integer).to_python() == "not-a-number"

    @pytest.mark.parametrize(
        "lexical, datatype, expected",
        [
            ("42", XSD.integer, 42),
            ("-7", XSD.int, -7),
            ("9000000000", XSD.long, 9000000000),
            ("2.50", XSD.decimal, 2.5),
            ("1e3", XSD.double, 1000.0),
            ("0.25", XSD.float, 0.25),
            ("true", XSD.boolean, True),
            ("1", XSD.boolean, True),
            ("false", XSD.boolean, False),
            ("0", XSD.boolean, False),
            ("42", None, "42"),
            ("42", XSD.string, "42"),
            ("12x", XSD.int, "12x"),
            ("", XSD.long, ""),
            ("1,5", XSD.decimal, "1,5"),
            ("NaN-ish", XSD.float, "NaN-ish"),
        ],
    )
    def test_literal_to_python_conversions(self, lexical, datatype, expected):
        value = Literal(lexical, datatype).to_python()
        assert value == expected
        assert type(value) is type(expected)

    def test_literal_to_python_builds_no_namespace_iris(self, monkeypatch):
        # The datatype sets are module constants: converting a literal must
        # not go through Namespace attribute lookups on every call.
        def forbidden(self, local):
            raise AssertionError(f"Namespace.__getattr__({local!r}) called")

        literals = [Literal("3", XSD.integer), Literal("0.5", XSD.double),
                    Literal("true", XSD.boolean), Literal("x")]
        monkeypatch.setattr(Namespace, "__getattr__", forbidden)
        assert [lit.to_python() for lit in literals] == [3, 0.5, True, "x"]

    def test_triple_n3(self):
        triple = Triple(IRI("http://s"), IRI("http://p"), Literal("o"))
        assert triple.n3() == '<http://s> <http://p> "o"'

    def test_literal_factory(self):
        assert literal(5) == Literal("5", XSD.integer)
        assert literal(True) == Literal("true", XSD.boolean)
        assert literal("x") == Literal("x")
        assert literal(2.5).datatype == XSD.double

    def test_terms_are_hashable(self):
        seen = {IRI("http://a"), BlankNode("a"), Literal("a")}
        assert len(seen) == 3


class TestNamespace:
    def test_attribute_and_item_access_agree(self):
        ns = Namespace("http://example.org/")
        assert ns.thing == ns["thing"] == IRI("http://example.org/thing")

    def test_contains_and_local(self):
        ns = Namespace("http://example.org/")
        assert ns.thing in ns
        assert ns.local(ns.thing) == "thing"

    def test_well_known_namespaces(self):
        assert RDF.type == "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
        assert XSD.integer.endswith("#integer")

    def test_private_attribute_access_raises(self):
        ns = Namespace("http://example.org/")
        with pytest.raises(AttributeError):
            ns._missing
