"""The result edge against per-cell, per-row reference implementations.

Hypothesis draws :class:`BindingBatch` streams that mix id and term
columns, with ``NULL_ID`` cells, projected variables a batch does not bind,
zero-variable and zero-row batches, over IRIs, blank nodes and literals
(plain, language-tagged, typed) whose text holds non-ASCII and control
characters, quotes, backslashes, commas, CR and LF, and projections that
repeat a variable.  Ids decode through a
vertex → term table with a trailing ``None`` slot, as in an engine.

* ``ResultSet.from_batches`` rows equal a per-cell reference decode.
* ``serialize_json``/``csv``/``tsv`` chunks equal, byte for byte, the
  row-at-a-time writers below: one dict and one ``json.dumps`` per JSON
  row, one generator over the quoting characters per CSV cell.
"""

from __future__ import annotations

import json
from array import array
from typing import Dict, Iterator, List, Optional, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf.terms import BlankNode, IRI, Literal, Term
from repro.sparql.binding_batch import KIND_ID, KIND_TERM, NULL_ID, BindingBatch
from repro.sparql.results import ResultSet
from repro.sparql.serializers import serialize_csv, serialize_json, serialize_tsv

VARIABLES = ("a", "b", "c", "ñ")


# ------------------------------------------------------------ reference side
def reference_column(batch: BindingBatch, var: str, terms: Sequence[Term]):
    """One column decoded cell by cell, nulls by an explicit test."""
    column = batch.columns.get(var)
    if column is None:
        return [None] * batch.rows
    if batch.kinds[var] == KIND_ID:
        return [None if value < 0 else terms[value] for value in column]
    return list(column)


def reference_rows(batches, terms) -> List[Dict[str, Optional[Term]]]:
    rows = []
    for batch in batches:
        columns = [reference_column(batch, var, terms) for var in batch.variables]
        for row in range(batch.rows):
            rows.append(
                {var: columns[i][row] for i, var in enumerate(batch.variables)}
            )
    return rows


def _json_term(term: Term) -> Dict[str, str]:
    if isinstance(term, Literal):
        encoded = {"type": "literal", "value": term.lexical}
        if term.language:
            encoded["xml:lang"] = term.language
        elif term.datatype:
            encoded["datatype"] = str(term.datatype)
        return encoded
    if isinstance(term, BlankNode):
        return {"type": "bnode", "value": str(term)}
    return {"type": "uri", "value": str(term)}


def reference_json(names, batches, terms) -> Iterator[bytes]:
    yield (
        '{"head": {"vars": ' + json.dumps(list(names)) + '}, "results": {"bindings": ['
    ).encode("utf-8")
    emitted = False
    for batch in batches:
        columns = [reference_column(batch, var, terms) for var in names]
        rows = []
        for row in range(batch.rows):
            binding = {
                var: _json_term(columns[index][row])
                for index, var in enumerate(names)
                if columns[index][row] is not None
            }
            rows.append(json.dumps(binding, ensure_ascii=False))
        if not rows:
            continue
        prefix = ", " if emitted else ""
        emitted = True
        yield (prefix + ", ".join(rows)).encode("utf-8")
    yield b"]}}"


def _csv_value(term: Optional[Term]) -> str:
    if term is None:
        return ""
    if isinstance(term, Literal):
        text = term.lexical
    elif isinstance(term, BlankNode):
        text = f"_:{term}"
    else:
        text = str(term)
    if any(ch in text for ch in (",", '"', "\n", "\r")):
        return '"' + text.replace('"', '""') + '"'
    return text


def reference_csv(names, batches, terms) -> Iterator[bytes]:
    yield (",".join(names) + "\r\n").encode("utf-8")
    for batch in batches:
        columns = [reference_column(batch, var, terms) for var in names]
        chunk = "".join(
            ",".join(_csv_value(columns[index][row]) for index in range(len(names)))
            + "\r\n"
            for row in range(batch.rows)
        )
        if chunk:
            yield chunk.encode("utf-8")


def reference_tsv(names, batches, terms) -> Iterator[bytes]:
    yield ("\t".join(f"?{var}" for var in names) + "\n").encode("utf-8")
    for batch in batches:
        columns = [reference_column(batch, var, terms) for var in names]
        chunk = "".join(
            "\t".join(
                "" if columns[index][row] is None else columns[index][row].n3()
                for index in range(len(names))
            )
            + "\n"
            for row in range(batch.rows)
        )
        if chunk:
            yield chunk.encode("utf-8")


# ---------------------------------------------------------------- strategies
#: Text with the characters every format escapes or quotes, plus any other
#: encodable code point (surrogates cannot be UTF-8 encoded by either side).
TEXT = st.text(
    st.one_of(
        st.sampled_from('",\\\r\n\t\x00\x1f\x7fé€😀 '),
        st.characters(exclude_categories=("Cs",)),
    ),
    max_size=6,
)

TERMS = st.one_of(
    TEXT.map(IRI),
    TEXT.map(BlankNode),
    TEXT.map(Literal),
    st.builds(Literal, TEXT, TEXT.map(IRI)),
    st.builds(Literal, TEXT, st.none(), TEXT),
    st.builds(Literal, TEXT, TEXT.map(IRI), TEXT),
)


@st.composite
def batch_streams(draw):
    """``(projected variables, batches, vertex terms)``."""
    terms = draw(st.lists(TERMS, min_size=1, max_size=8))
    decode = (terms + [None]).__getitem__
    # Projections, and so projected batches, may repeat a variable
    # (``SELECT ?x ?x``).
    projected = draw(st.lists(st.sampled_from(VARIABLES), max_size=4))
    batches = []
    for _ in range(draw(st.integers(0, 4))):
        variables = draw(st.lists(st.sampled_from(VARIABLES), max_size=4))
        rows = draw(st.integers(0, 5))
        columns, kinds = {}, {}
        for var in dict.fromkeys(variables):
            if draw(st.booleans()):
                ids = st.integers(NULL_ID, len(terms) - 1)
                columns[var] = array("q", draw(st.lists(ids, min_size=rows, max_size=rows)))
                kinds[var] = KIND_ID
            else:
                cells = st.one_of(st.none(), TERMS)
                columns[var] = draw(st.lists(cells, min_size=rows, max_size=rows))
                kinds[var] = KIND_TERM
        batches.append(BindingBatch(variables, columns, kinds, rows, decode))
    return projected, batches, terms


EDGE = settings(derandomize=True, max_examples=150, deadline=None)


# --------------------------------------------------------------------- tests
@EDGE
@given(batch_streams())
def test_from_batches_equals_per_cell_decode(stream):
    projected, batches, terms = stream
    result = ResultSet.from_batches(projected, iter(batches))
    expected = reference_rows(batches, terms)
    assert result.variables == projected
    assert result.rows == expected
    # Key order too: rows are dicts keyed in each batch's variable order.
    assert [list(row) for row in result.rows] == [list(row) for row in expected]


@EDGE
@given(batch_streams())
def test_serializers_are_byte_identical_to_row_writers(stream):
    projected, batches, terms = stream
    for writer, reference in (
        (serialize_json, reference_json),
        (serialize_csv, reference_csv),
        (serialize_tsv, reference_tsv),
    ):
        assert list(writer(projected, iter(batches))) == list(
            reference(projected, iter(batches), terms)
        ), writer.__name__


def test_json_body_parses_back_to_the_terms():
    """One hand-written case read back by a JSON parser, not an oracle."""
    terms = [IRI('http://ex/"q"'), Literal("a\\b\r\n,é", None, "fr")]
    batch = BindingBatch(
        ("x", "y"),
        {"x": array("q", [0, NULL_ID]), "y": [terms[1], BlankNode("b\n1")]},
        {"x": KIND_ID, "y": KIND_TERM},
        2,
        (terms + [None]).__getitem__,
    )
    body = json.loads(b"".join(serialize_json(["x", "y", "z"], iter([batch]))))
    assert body["results"]["bindings"] == [
        {
            "x": {"type": "uri", "value": 'http://ex/"q"'},
            "y": {"type": "literal", "value": "a\\b\r\n,é", "xml:lang": "fr"},
        },
        {"y": {"type": "bnode", "value": "b\n1"}},
    ]
