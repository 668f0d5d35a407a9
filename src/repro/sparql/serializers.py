"""Streaming SPARQL 1.1 result serializers over columnar batch streams.

The wire twins of :class:`~repro.sparql.results.ResultSet`: each writer
consumes a :class:`~repro.sparql.binding_batch.BindingBatch` stream and
yields encoded byte chunks, decoding ids **per emitted batch** via
:meth:`BindingBatch.term_column` — a ``LIMIT k`` query therefore decodes
(and serializes) exactly ``k`` rows, and a large result never exists as a
row-dict list anywhere between the matcher and the socket.  Cells are
encoded column by column and then joined row-wise.

Three formats, per the SPARQL 1.1 results recommendations:

* ``application/sparql-results+json`` — the Query Results JSON Format
  (``{"head": {"vars": [...]}, "results": {"bindings": [...]}}``; unbound
  variables are omitted from their row object);
* ``text/csv`` — plain lexical forms, RFC 4180 quoting, CRLF rows,
  unbound as empty fields (the lossy human-facing format);
* ``text/tab-separated-values`` — terms in SPARQL syntax (``<iri>``,
  ``"literal"^^<dt>``, ``_:bnode``) with a ``?var`` header row.

Writers pull the *first* batch before emitting their header, so an
evaluation error surfaces to the caller before any bytes were produced —
what lets an HTTP front-end still answer with an error status instead of
aborting a started response.

:func:`negotiate` maps an HTTP ``Accept`` header to one of the writers
(q-values honoured, unknown types skipped, ``*/*`` → JSON).
"""

from __future__ import annotations

import json
import re
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.rdf.terms import BlankNode, Literal, Term
from repro.sparql.binding_batch import BindingBatch

#: The supported result media types (negotiation targets).
SPARQL_JSON = "application/sparql-results+json"
SPARQL_CSV = "text/csv"
SPARQL_TSV = "text/tab-separated-values"

#: A writer: ``(variables, batches) -> byte chunks``.
Serializer = Callable[[Sequence[str], Iterator[BindingBatch]], Iterator[bytes]]


# ----------------------------------------------------------------- JSON format
#: The string escaper ``json.dumps(..., ensure_ascii=False)`` applies.
_json_string = json.encoder.encode_basestring


def _json_cells(var: str, column: List[Optional[Term]]) -> List[Optional[str]]:
    """Each cell's ``"var": {...}`` row-object member (None = unbound, omitted).

    Byte for byte what ``json.dumps(row, ensure_ascii=False)`` writes for it.
    """
    key = _json_string(var) + ': {"type": '
    cells: List[Optional[str]] = []
    for term in column:
        if term is None:
            cells.append(None)
        elif isinstance(term, Literal):
            if term.language:
                extra = ', "xml:lang": ' + _json_string(term.language)
            elif term.datatype:
                extra = ', "datatype": ' + _json_string(str(term.datatype))
            else:
                extra = ""
            cells.append(f'{key}"literal", "value": {_json_string(term.lexical)}{extra}}}')
        elif isinstance(term, BlankNode):
            cells.append(f'{key}"bnode", "value": {_json_string(str(term))}}}')
        else:
            cells.append(f'{key}"uri", "value": {_json_string(str(term))}}}')
    return cells


def serialize_json(
    variables: Sequence[str], batches: Iterator[BindingBatch]
) -> Iterator[bytes]:
    """SPARQL Query Results JSON Format, one chunk per batch."""
    names = list(variables)
    members = list(dict.fromkeys(names))  # a row object holds each key once
    stream = iter(batches)
    first = next(stream, None)
    yield (
        '{"head": {"vars": ' + json.dumps(names) + '}, "results": {"bindings": ['
    ).encode("utf-8")
    emitted = False
    for batch in _chain_first(first, stream):
        if not batch.rows:
            continue
        columns = [_json_cells(var, batch.term_column(var)) for var in members]
        rows = [", ".join(filter(None, cells)) for cells in _rows(columns, batch.rows)]
        prefix = ", " if emitted else ""
        emitted = True
        yield (prefix + "{" + "}, {".join(rows) + "}").encode("utf-8")
    yield b"]}}"


# ------------------------------------------------------------------ CSV format
#: A CSV field needs RFC 4180 quoting when it holds any of these.
_csv_needs_quotes = re.compile('[,"\n\r]').search


def _csv_value(term: Optional[Term]) -> str:
    """Plain lexical form, RFC 4180-quoted when needed (unbound = empty)."""
    if term is None:
        return ""
    if isinstance(term, Literal):
        text = term.lexical
    elif isinstance(term, BlankNode):
        text = f"_:{term}"
    else:
        text = str(term)
    if _csv_needs_quotes(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def serialize_csv(
    variables: Sequence[str], batches: Iterator[BindingBatch]
) -> Iterator[bytes]:
    """SPARQL 1.1 CSV results: lexical forms, CRLF rows."""
    names = list(variables)
    stream = iter(batches)
    first = next(stream, None)
    yield (",".join(names) + "\r\n").encode("utf-8")
    for batch in _chain_first(first, stream):
        if batch.rows:
            columns = [list(map(_csv_value, batch.term_column(var))) for var in names]
            rows = map(",".join, _rows(columns, batch.rows))
            yield ("\r\n".join(rows) + "\r\n").encode("utf-8")


# ------------------------------------------------------------------ TSV format
def _tsv_value(term: Optional[Term]) -> str:
    """SPARQL-syntax term (N-Triples shape; unbound = empty field)."""
    return "" if term is None else term.n3()


def serialize_tsv(
    variables: Sequence[str], batches: Iterator[BindingBatch]
) -> Iterator[bytes]:
    """SPARQL 1.1 TSV results: ``?var`` header, N-Triples-syntax terms."""
    names = list(variables)
    stream = iter(batches)
    first = next(stream, None)
    yield ("\t".join(f"?{var}" for var in names) + "\n").encode("utf-8")
    for batch in _chain_first(first, stream):
        if batch.rows:
            columns = [list(map(_tsv_value, batch.term_column(var))) for var in names]
            rows = map("\t".join, _rows(columns, batch.rows))
            yield ("\n".join(rows) + "\n").encode("utf-8")


def _rows(columns: List[List[Optional[str]]], rows: int) -> Iterable[Tuple]:
    """Encoded columns turned row-wise (empty rows when nothing is projected)."""
    return zip(*columns) if columns else [()] * rows


def _chain_first(
    first: Optional[BindingBatch], rest: Iterator[BindingBatch]
) -> Iterator[BindingBatch]:
    """Re-attach the eagerly pulled first batch to its stream."""
    if first is not None:
        yield first
    yield from rest


#: Writer registry, in server preference order (JSON first).
SERIALIZERS: Dict[str, Serializer] = {
    SPARQL_JSON: serialize_json,
    SPARQL_CSV: serialize_csv,
    SPARQL_TSV: serialize_tsv,
}

#: Accept-header aliases that negotiate to a canonical media type.
_ALIASES = {
    "application/json": SPARQL_JSON,
    "text/json": SPARQL_JSON,
    "*/*": SPARQL_JSON,
    "application/*": SPARQL_JSON,
    "text/*": SPARQL_CSV,
}


def negotiate(accept: Optional[str]) -> Optional[str]:
    """Pick a result media type from an HTTP ``Accept`` header.

    Returns the canonical media type of the best supported alternative
    (q-values honoured, ties broken by server preference: JSON, CSV, TSV),
    or ``None`` when the header rules every supported format out —
    the caller's 406.  A missing/empty header means no preference: JSON.
    """
    if accept is None or not accept.strip():
        return SPARQL_JSON
    preference = {media: index for index, media in enumerate(SERIALIZERS)}
    best: Optional[Tuple[float, int]] = None
    chosen: Optional[str] = None
    for clause in accept.split(","):
        parts = [part.strip() for part in clause.split(";")]
        media = parts[0].lower()
        quality = 1.0
        for param in parts[1:]:
            if param.startswith("q="):
                try:
                    quality = float(param[2:])
                except ValueError:
                    quality = 0.0
        resolved = _ALIASES.get(media, media)
        if resolved not in SERIALIZERS or quality <= 0.0:
            continue
        rank = (quality, -preference[resolved])
        if best is None or rank > best:
            best = rank
            chosen = resolved
    return chosen
