"""Wire-format conformance of the streaming SPARQL result serializers.

Covers the three formats' term encodings (typed and language-tagged
literals, IRIs, blank nodes, unbound variables), their escaping rules
(RFC 4180 CSV quoting, N-Triples TSV escapes, non-ASCII JSON), content
negotiation, and the streaming contract itself: serializers consume
batches incrementally (a ``LIMIT k`` query decodes exactly ``k`` rows)
and surface evaluation errors before emitting any bytes.
"""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.engine.turbo_engine import TurboEngine
from repro.rdf.namespaces import Namespace, XSD
from repro.rdf.terms import BlankNode, IRI, Literal
from repro.sparql.binding_batch import BindingBatch, KIND_TERM
from repro.sparql.serializers import (
    SERIALIZERS,
    SPARQL_CSV,
    SPARQL_JSON,
    SPARQL_TSV,
    negotiate,
    serialize_csv,
    serialize_json,
    serialize_tsv,
)

EX = Namespace("http://example.org/")


def term_batch(variables, rows):
    """A term-kind batch from row tuples (None = unbound)."""
    columns = {var: [row[i] for row in rows] for i, var in enumerate(variables)}
    kinds = {var: KIND_TERM for var in variables}
    return BindingBatch(tuple(variables), columns, kinds, len(rows))


@pytest.fixture
def mixed_batches():
    """Two batches exercising every term shape plus an unbound cell."""
    variables = ("s", "v")
    first = term_batch(
        variables,
        [
            (EX.alice, Literal("Al, \"Bo\"\nC")),
            (EX.bob, Literal("42", XSD.integer)),
        ],
    )
    second = term_batch(
        variables,
        [
            (BlankNode("b0"), Literal("chat", None, "fr")),
            (EX.carol, None),
            (EX.dan, Literal("naïve\ttab")),
        ],
    )
    return variables, [first, second]


def render(serializer, variables, batches) -> bytes:
    return b"".join(serializer(variables, iter(batches)))


class TestJSONFormat:
    def test_shape_and_term_encodings(self, mixed_batches):
        variables, batches = mixed_batches
        data = json.loads(render(serialize_json, variables, batches))
        assert data["head"]["vars"] == ["s", "v"]
        rows = data["results"]["bindings"]
        assert len(rows) == 5
        assert rows[0]["s"] == {"type": "uri", "value": str(EX.alice)}
        assert rows[0]["v"] == {"type": "literal", "value": 'Al, "Bo"\nC'}
        assert rows[1]["v"] == {
            "type": "literal",
            "value": "42",
            "datatype": str(XSD.integer),
        }
        assert rows[2]["s"] == {"type": "bnode", "value": "b0"}
        assert rows[2]["v"] == {"type": "literal", "value": "chat", "xml:lang": "fr"}

    def test_unbound_variable_omitted_from_row(self, mixed_batches):
        variables, batches = mixed_batches
        rows = json.loads(render(serialize_json, variables, batches))["results"][
            "bindings"
        ]
        assert rows[3] == {"s": {"type": "uri", "value": str(EX.carol)}}

    def test_non_ascii_survives_round_trip(self, mixed_batches):
        variables, batches = mixed_batches
        rows = json.loads(render(serialize_json, variables, batches))["results"][
            "bindings"
        ]
        assert rows[4]["v"]["value"] == "naïve\ttab"

    def test_empty_result_is_valid_document(self):
        data = json.loads(render(serialize_json, ("x",), []))
        assert data == {"head": {"vars": ["x"]}, "results": {"bindings": []}}

    def test_one_chunk_per_batch_plus_envelope(self, mixed_batches):
        variables, batches = mixed_batches
        chunks = list(serialize_json(variables, iter(batches)))
        # head, one chunk per non-empty batch, closing bracket.
        assert len(chunks) == 4


class TestCSVFormat:
    def test_lexical_forms_and_rfc4180_quoting(self, mixed_batches):
        variables, batches = mixed_batches
        text = render(serialize_csv, variables, batches).decode("utf-8")
        assert "\r\n" in text
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["s", "v"]
        # csv.reader undoing our quoting proves RFC 4180 conformance.
        assert rows[1] == [str(EX.alice), 'Al, "Bo"\nC']
        assert rows[2] == [str(EX.bob), "42"]  # plain lexical form, no type
        assert rows[3] == ["_:b0", "chat"]
        assert rows[4] == [str(EX.carol), ""]  # unbound = empty field

    def test_empty_result_is_header_only(self):
        assert render(serialize_csv, ("a", "b"), []) == b"a,b\r\n"


class TestTSVFormat:
    def test_sparql_syntax_terms(self, mixed_batches):
        variables, batches = mixed_batches
        lines = render(serialize_tsv, variables, batches).decode("utf-8").splitlines()
        assert lines[0] == "?s\t?v"
        assert lines[2] == f"<{EX.bob}>\t\"42\"^^<{XSD.integer}>"
        assert lines[3] == '_:b0\t"chat"@fr'
        assert lines[4] == f"<{EX.carol}>\t"  # unbound = empty field
        # Embedded tab/newline are escaped, keeping one row per line.
        assert lines[5] == f'<{EX.dan}>\t"naïve\\ttab"'
        assert len(lines) == 6


class TestNegotiation:
    def test_defaults_and_aliases(self):
        assert negotiate(None) == SPARQL_JSON
        assert negotiate("") == SPARQL_JSON
        assert negotiate("*/*") == SPARQL_JSON
        assert negotiate("application/json") == SPARQL_JSON
        assert negotiate("text/*") == SPARQL_CSV
        assert negotiate("text/tab-separated-values") == SPARQL_TSV

    def test_quality_values_rank_alternatives(self):
        accept = "text/csv;q=0.9, application/sparql-results+json;q=0.1"
        assert negotiate(accept) == SPARQL_CSV
        assert negotiate("text/csv;q=0, */*;q=0.5") == SPARQL_JSON

    def test_unsupported_only_is_none(self):
        assert negotiate("text/html") is None
        assert negotiate("application/xml;q=0.9, text/html") is None

    def test_server_preference_breaks_ties(self):
        assert negotiate("text/csv, application/sparql-results+json") == SPARQL_JSON


class TestStreamingContract:
    def test_error_surfaces_before_any_bytes(self):
        def failing_batches():
            raise RuntimeError("evaluation failed")
            yield  # pragma: no cover

        for serializer in SERIALIZERS.values():
            chunks = serializer(("x",), failing_batches())
            with pytest.raises(RuntimeError, match="evaluation failed"):
                next(chunks)

    def test_serializers_pull_batches_lazily(self, mixed_batches):
        variables, batches = mixed_batches
        pulled = []

        def tracking():
            for batch in batches:
                pulled.append(batch)
                yield batch

        chunks = serialize_csv(variables, tracking())
        assert next(chunks)  # header (first batch pulled eagerly for errors)
        assert len(pulled) == 1
        assert next(chunks)
        assert len(pulled) == 1  # first batch's rows, second not pulled yet
        assert next(chunks)
        assert len(pulled) == 2

    def test_limit_k_decodes_exactly_k_rows(self, small_rdf_store):
        # The end-to-end late-materialization pin: streaming a LIMIT-2
        # query through a serializer decodes 2 rows, not the full result.
        engine = TurboEngine()
        engine.load(small_rdf_store)
        query = "SELECT ?s ?o WHERE { ?s <http://example.org/knows> ?o } LIMIT 2"
        with engine.query_batches(query) as result:
            body = b"".join(serialize_json(result.variables, result))
        assert len(json.loads(body)["results"]["bindings"]) == 2
        assert engine.stats()["operators"]["rows_decoded"] == 2
        engine.close()
