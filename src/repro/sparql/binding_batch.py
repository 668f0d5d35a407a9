"""Columnar binding batches: the engine-level unit of result movement.

A :class:`~repro.sparql.results.Binding` is one dict of variable → decoded
RDF term; a :class:`BindingBatch` is up to a few hundred of them stored
column-major, with vertex **ids** (not terms) in the columns wherever
possible.  This is what lets the batch result pipeline practice *late
materialization*: solutions travel from the matcher through joins, DISTINCT
and LIMIT/OFFSET as flat integer arrays, and ids are decoded to RDF terms
only for the rows that actually reach the
:class:`~repro.sparql.results.ResultSet` boundary or a wire serializer
(:meth:`BindingBatch.term_column`).

Columns come in two kinds:

* ``id`` — an ``array('q')`` of data-vertex ids, decoded through the
  batch's ``decoder`` (the engine's ``GraphMapping.vertex_terms`` lookup).
  Vertex ids are non-negative, so :data:`NULL_ID` (−1) doubles as the
  null/OPTIONAL mask — no separate bitmap is needed.
* ``term`` — a plain list of already-materialized terms (``None`` = null),
  used for the few variables that are never vertex-valued: predicate
  variables, ``rdf:type ?t`` type variables and forced bindings.

The id→term mapping is injective (vertices, graph nodes and dictionary
terms are in bijection), so equality on ids is equality on terms: joins and
DISTINCT can compare raw ids.  Producers keep each variable's kind
consistent across a stream (operators resolve ``id`` vs ``term`` to
``term`` by decoding when two streams disagree), which is what makes raw
comparison sound end-to-end.

:meth:`iter_bindings` is the adapter back to ``Binding`` dicts (the
``ResultSet`` boundary and ``TurboBGPSolver.solve``);
:func:`batches_from_bindings` is the opposite adapter, lifting the baseline
engines' row streams into term-kind batches for the wire serializers.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.rdf.terms import Term

#: The null/OPTIONAL mask value of id columns (vertex ids are >= 0).
NULL_ID = -1

#: Column kinds.
KIND_ID = "id"
KIND_TERM = "term"

#: An id→term decoder; it maps :data:`NULL_ID` to ``None`` (an engine's
#: decoder is its vertex → term table's ``__getitem__``).
Decoder = Callable[[int], Optional[Term]]

Column = Union[array, List[Optional[Term]]]


def resolve_kind(left: Optional[str], right: Optional[str]) -> str:
    """The common column kind of two inputs (``None`` = variable absent).

    Ids stay ids only when nothing forces terms; any disagreement decodes
    to the term domain, where values from both kinds compare correctly.
    """
    if left == KIND_TERM or right == KIND_TERM:
        return KIND_TERM
    if left == KIND_ID or right == KIND_ID:
        return KIND_ID
    return KIND_TERM


class BindingBatch:
    """A columnar batch of solution bindings (late-materialized)."""

    __slots__ = ("variables", "columns", "kinds", "rows", "decoder")

    def __init__(
        self,
        variables: Sequence[str],
        columns: Dict[str, Column],
        kinds: Dict[str, str],
        rows: int,
        decoder: Optional[Decoder] = None,
    ):
        self.variables: Tuple[str, ...] = tuple(variables)
        self.columns = columns
        self.kinds = kinds
        self.rows = rows
        self.decoder = decoder

    # ------------------------------------------------------------ construction
    @classmethod
    def unit(cls, decoder: Optional[Decoder] = None) -> "BindingBatch":
        """One row binding nothing (the identity of the join algebra)."""
        return cls((), {}, {}, 1, decoder)

    # ------------------------------------------------------------------ access
    def kind(self, var: str) -> Optional[str]:
        """The column kind of ``var``, or None when the batch never binds it."""
        return self.kinds.get(var)

    def raw(self, var: str, row: int):
        """The raw column value: an id (int), a term, or None for null."""
        column = self.columns.get(var)
        if column is None:
            return None
        value = column[row]
        if self.kinds[var] == KIND_ID:
            return None if value < 0 else value
        return value

    def term(self, var: str, row: int) -> Optional[Term]:
        """The materialized term of one cell (None for null/missing)."""
        column = self.columns.get(var)
        if column is None:
            return None
        if self.kinds[var] == KIND_ID:
            return self.decoder(column[row])
        return column[row]

    def term_column(self, var: str) -> List[Optional[Term]]:
        """One whole column, materialized: one decoder call per id cell."""
        column = self.columns.get(var)
        if column is None:
            return [None] * self.rows
        if self.kinds[var] == KIND_ID:
            return list(map(self.decoder, column))
        return list(column)

    def iter_bindings(self) -> List[Dict[str, Optional[Term]]]:
        """Materialize the batch into ``Binding`` dicts, column by column."""
        if not self.variables:
            return [{} for _ in range(self.rows)]
        first, *rest = self.variables
        block = [{first: term} for term in self.term_column(first)]
        for var in rest:
            for row, term in zip(block, self.term_column(var)):
                row[var] = term
        return block

    # -------------------------------------------------------------- reshaping
    def project(self, variables: Sequence[str]) -> "BindingBatch":
        """Keep only ``variables`` (missing ones become null term columns)."""
        columns: Dict[str, Column] = {}
        kinds: Dict[str, str] = {}
        for var in variables:
            column = self.columns.get(var)
            if column is None:
                columns[var] = [None] * self.rows
                kinds[var] = KIND_TERM
            else:
                columns[var] = column
                kinds[var] = self.kinds[var]
        return BindingBatch(variables, columns, kinds, self.rows, self.decoder)

    def take(self, rows: Sequence[int]) -> "BindingBatch":
        """Select a subset of rows (FILTER survivors)."""
        columns: Dict[str, Column] = {}
        for var in self.variables:
            column = self.columns[var]
            if self.kinds[var] == KIND_ID:
                columns[var] = array("q", (column[row] for row in rows))
            else:
                columns[var] = [column[row] for row in rows]
        return BindingBatch(self.variables, columns, dict(self.kinds), len(rows), self.decoder)

    def slice(self, start: int, stop: Optional[int]) -> "BindingBatch":
        """Row range ``[start:stop]`` — LIMIT/OFFSET without touching cells."""
        columns = {var: column[start:stop] for var, column in self.columns.items()}
        end = self.rows if stop is None else min(stop, self.rows)
        return BindingBatch(
            self.variables, columns, dict(self.kinds), max(0, end - start), self.decoder
        )

    def __len__(self) -> int:
        return self.rows

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"BindingBatch(vars={list(self.variables)}, rows={self.rows})"


class BatchBuilder:
    """Row-appending builder for operator output batches.

    The output schema (variables + kinds) is fixed up front by the operator
    (see :func:`resolve_kind`); ``append`` stores one row of raw values in
    that schema — ``None`` nulls become :data:`NULL_ID` in id columns.
    """

    __slots__ = ("variables", "kinds", "columns", "rows", "decoder")

    def __init__(self, variables: Sequence[str], kinds: Dict[str, str], decoder: Optional[Decoder]):
        self.variables = tuple(variables)
        self.kinds = dict(kinds)
        self.columns: Dict[str, Column] = {
            var: (array("q") if self.kinds[var] == KIND_ID else [])
            for var in self.variables
        }
        self.rows = 0
        self.decoder = decoder

    def append(self, values: Sequence) -> None:
        """Append one row (values aligned with ``variables``)."""
        kinds = self.kinds
        for var, value in zip(self.variables, values):
            if kinds[var] == KIND_ID:
                self.columns[var].append(NULL_ID if value is None else value)
            else:
                self.columns[var].append(value)
        self.rows += 1

    def batch(self) -> BindingBatch:
        return BindingBatch(self.variables, self.columns, self.kinds, self.rows, self.decoder)


class BatchResult:
    """A streaming query result: projected variables plus a batch iterator.

    What :meth:`Engine.query_batches` returns — the streaming twin of a
    :class:`~repro.sparql.results.ResultSet`.  Iterating yields
    :class:`BindingBatch` objects whose rows are final (joined, sliced,
    deduplicated); :meth:`close` abandons the stream, which cancels the
    evaluation underneath (matcher pools fan the stop out to their
    workers).  Usable as a context manager so serving code cannot leak a
    running query on an error path.
    """

    __slots__ = ("variables", "_batches")

    def __init__(self, variables: Sequence[str], batches: Iterator[BindingBatch]):
        self.variables: List[str] = list(variables)
        self._batches = iter(batches)

    def __iter__(self) -> "BatchResult":
        return self

    def __next__(self) -> BindingBatch:
        return next(self._batches)

    def close(self) -> None:
        """Abandon the stream (cancels the evaluation; idempotent)."""
        close = getattr(self._batches, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "BatchResult":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def to_result_set(self):
        """Drain the remaining batches into a materialized ResultSet."""
        from repro.sparql.results import ResultSet

        return ResultSet.from_batches(self.variables, self)


#: Row granularity of the row→batch adapter below.
ADAPTER_BATCH_ROWS = 256


def batches_from_bindings(
    variables: Sequence[str],
    rows: Iterator["Binding"],
    batch_rows: int = ADAPTER_BATCH_ROWS,
) -> Iterator[BindingBatch]:
    """Adapt ``Binding`` dicts into term-kind batches.

    The shim behind :meth:`Engine.query_batches` for solvers without a
    batch surface (the baselines' scalar reference algebra): rows are packed
    into term columns lazily, so they stream through the batch-consuming
    serializers with the same bounded footprint (minus late
    materialization, which a row-at-a-time solver never had).
    """
    names = tuple(variables)
    kinds = {var: KIND_TERM for var in names}
    columns: List[List[Optional[Term]]] = [[] for _ in names]
    count = 0
    for row in rows:
        for index, var in enumerate(names):
            columns[index].append(row.get(var))
        count += 1
        if count >= batch_rows:
            yield BindingBatch(names, dict(zip(names, columns)), dict(kinds), count)
            columns = [[] for _ in names]
            count = 0
    if count:
        yield BindingBatch(names, dict(zip(names, columns)), dict(kinds), count)


def slice_batches(
    stream: Iterator[BindingBatch], offset: int, end: Optional[int]
) -> Iterator[BindingBatch]:
    """Row-level ``[offset:end]`` over a batch stream, slicing whole batches.

    The stream is abandoned (and, transitively, matching is cancelled) as
    soon as ``end`` rows passed — the batch pipeline's LIMIT/OFFSET.
    """
    seen = 0
    for batch in stream:
        lo = max(0, offset - seen)
        hi = batch.rows if end is None else min(batch.rows, end - seen)
        seen += batch.rows
        if hi <= lo:
            if end is not None and seen >= end:
                return
            continue
        yield batch if (lo == 0 and hi == batch.rows) else batch.slice(lo, hi)
        if end is not None and seen >= end:
            return
