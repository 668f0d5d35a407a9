"""GROUP BY / COUNT kernels: columnar grouping on raw id columns.

The batch kernel groups on **raw column values** — vertex ids for id
columns (``NULL_ID`` is the in-domain null), terms otherwise — relying on
the injective id→term decode for correctness, exactly like the join and
DISTINCT kernels.  Group keys therefore never decode while grouping runs;
emitted group-key columns keep their id kind and decode at the ResultSet
boundary, so a billion input rows collapsing into twenty groups decode
twenty rows.

Count columns materialize as ``xsd:integer`` literals (term kind): counts
are born at the aggregation operator, there is nothing to decode late.

Both kernels implement the same semantics — :func:`batch_aggregate` for
``TurboEngine``'s batch pipeline, :func:`scalar_aggregate` over ``Binding``
dicts for the baseline engines' reference algebra
(:mod:`repro.engine.evaluator`), which the parity tests compare against:

* ``COUNT(*)`` counts rows per group;
* ``COUNT(?v)`` counts rows where ``?v`` is bound;
* ``COUNT(DISTINCT ?v)`` counts distinct bound values of ``?v``;
* with ``GROUP BY``, groups emit in first-seen order; without it, the
  whole input is one group — and an *empty* input still emits one row of
  zero counts (SPARQL's global-aggregation semantics).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.engine.operators.context import OperatorCounters
from repro.rdf.namespaces import XSD
from repro.rdf.terms import Literal
from repro.sparql.ast import Aggregate
from repro.sparql.binding_batch import (
    KIND_ID,
    KIND_TERM,
    NULL_ID,
    BatchBuilder,
    BindingBatch,
)
from repro.sparql.results import Binding

#: Output batch granularity of the grouping kernel.
GROUP_OUTPUT_ROWS = 1024


def _count_literal(value: int) -> Literal:
    return Literal(str(value), XSD.integer)


def _group_labels(batch: BindingBatch, group_vars: Sequence[str]):
    """One group label per row, with ``NULL_ID`` cells normalized to None.

    Single-variable grouping labels rows with the raw cell itself (an
    unmodified id column is returned as-is, zero copy); multi-variable
    grouping zips the normalized columns into key tuples.  The
    normalization makes null cells coincide with batches that never bind
    the variable at all.
    """
    if len(group_vars) == 1:
        var = group_vars[0]
        column = batch.columns.get(var)
        if column is None:
            return [None] * batch.rows
        if batch.kind(var) == KIND_ID and column.count(NULL_ID):
            return [None if value == NULL_ID else value for value in column]
        return column
    columns = []
    for var in group_vars:
        column = batch.columns.get(var)
        if column is None:
            columns.append([None] * batch.rows)
        elif batch.kind(var) == KIND_ID and column.count(NULL_ID):
            columns.append([None if value == NULL_ID else value for value in column])
        else:
            columns.append(column)
    return list(zip(*columns))


def batch_aggregate(
    stream: Iterator[BindingBatch],
    group_vars: Sequence[str],
    aggregates: Sequence[Aggregate],
    counters: Optional[OperatorCounters] = None,
) -> Iterator[BindingBatch]:
    """Group a batch stream and emit one row per group, first-seen order.

    The kernel works column-at-a-time, never row-at-a-time: per batch it
    builds one label per row, then updates each aggregate with C-speed
    bulk operations — ``Counter(labels)`` for row counts,
    ``set.update(zip(labels, column))`` for distinct pairs, and
    ``array.count(NULL_ID)`` for null detection (an all-bound count column
    reuses the label counts outright).
    """
    specs: List[Tuple[Optional[str], bool]] = [
        (None if a.variable is None else str(a.variable), a.distinct)
        for a in aggregates
    ]
    aliases = [str(a.alias) for a in aggregates]
    grouped = bool(group_vars)
    value_specs = [
        (i, var) for i, (var, distinct) in enumerate(specs)
        if var is not None and not distinct
    ]
    distinct_specs = [
        (i, var) for i, (var, distinct) in enumerate(specs)
        if var is not None and distinct
    ]
    seen: Dict[object, None] = {}  # group label -> None, first-seen order
    star_total = 0
    star_counts: Counter = Counter()
    value_totals: List[int] = [0] * len(specs)
    value_counts: List[Counter] = [Counter() for _ in specs]
    distinct_values: List[set] = [set() for _ in specs]
    distinct_is_id: Dict[int, bool] = {}
    key_kinds: Dict[str, str] = {}
    decoder = None
    for batch in stream:
        if batch.rows == 0:
            continue
        if decoder is None:
            decoder = batch.decoder
        for var in group_vars:
            kind = batch.kind(var)
            if kind is not None and var not in key_kinds:
                key_kinds[var] = kind
        if grouped:
            labels = _group_labels(batch, group_vars)
            batch_counts = Counter(labels)
            star_counts.update(batch_counts)
            for label in batch_counts:
                if label not in seen:
                    seen[label] = None
        else:
            labels = None
            batch_counts = None
            star_total += batch.rows
        for i, var in value_specs:
            column = batch.columns.get(var)
            if column is None:
                continue
            if batch.kind(var) == KIND_ID:
                nulls = column.count(NULL_ID)
                if not grouped:
                    value_totals[i] += batch.rows - nulls
                elif nulls == 0:
                    # All bound: the per-label non-null count is the
                    # per-label row count, already tallied.
                    value_counts[i].update(batch_counts)
                else:
                    value_counts[i].update(
                        label
                        for label, value in zip(labels, column)
                        if value != NULL_ID
                    )
            elif not grouped:
                value_totals[i] += sum(1 for value in column if value is not None)
            else:
                value_counts[i].update(
                    label
                    for label, value in zip(labels, column)
                    if value is not None
                )
        for i, var in distinct_specs:
            column = batch.columns.get(var)
            if column is None:
                continue
            if i not in distinct_is_id:
                distinct_is_id[i] = batch.kind(var) == KIND_ID
            if grouped:
                distinct_values[i].update(zip(labels, column))
            else:
                distinct_values[i].update(column)
    variables = list(group_vars) + aliases
    kinds = {var: key_kinds.get(var, KIND_TERM) for var in group_vars}
    kinds.update({alias: KIND_TERM for alias in aliases})
    builder = BatchBuilder(variables, kinds, decoder)
    if not grouped:
        if counters is not None:
            counters.groups_emitted += 1
        row: List = []
        for i, (var, distinct) in enumerate(specs):
            if var is None:
                row.append(_count_literal(star_total))
            elif distinct:
                values = distinct_values[i]
                values.discard(NULL_ID if distinct_is_id.get(i) else None)
                row.append(_count_literal(len(values)))
            else:
                row.append(_count_literal(value_totals[i]))
        builder.append(row)
        yield builder.batch()
        return
    if not seen:
        return
    if counters is not None:
        counters.groups_emitted += len(seen)
    # Distinct pairs collapse into per-label counts once, at emission.
    distinct_counts: Dict[int, Counter] = {}
    for i, _ in distinct_specs:
        is_id = distinct_is_id.get(i, False)
        distinct_counts[i] = Counter(
            label
            for label, value in distinct_values[i]
            if (value != NULL_ID if is_id else value is not None)
        )
    single = len(group_vars) == 1
    for label in seen:
        row = [label] if single else list(label)
        for i, (var, distinct) in enumerate(specs):
            if var is None:
                row.append(_count_literal(star_counts[label]))
            elif distinct:
                row.append(_count_literal(distinct_counts[i][label]))
            else:
                row.append(_count_literal(value_counts[i][label]))
        builder.append(row)
        if builder.rows >= GROUP_OUTPUT_ROWS:
            yield builder.batch()
            builder = BatchBuilder(variables, kinds, decoder)
    if builder.rows:
        yield builder.batch()


def scalar_aggregate(
    rows: Iterable[Binding],
    group_vars: Sequence[str],
    aggregates: Sequence[Aggregate],
) -> Iterator[Binding]:
    """COUNT / GROUP BY over ``Binding`` dicts (the baselines' reference algebra)."""
    specs: List[Tuple[Optional[str], bool]] = [
        (None if a.variable is None else str(a.variable), a.distinct)
        for a in aggregates
    ]
    aliases = [str(a.alias) for a in aggregates]
    groups: Dict[Tuple, List] = {}
    for row in rows:
        key = tuple(row.get(var) for var in group_vars)
        states = groups.get(key)
        if states is None:
            states = groups[key] = [set() if distinct else 0 for _, distinct in specs]
        for i, (var, distinct) in enumerate(specs):
            if var is None:
                states[i] += 1
                continue
            value = row.get(var)
            if value is None:
                continue
            if distinct:
                states[i].add(value)
            else:
                states[i] += 1
    if not groups and not group_vars:
        groups[()] = [set() if distinct else 0 for _, distinct in specs]
    for key, states in groups.items():
        binding: Binding = dict(zip(group_vars, key))
        for alias, state in zip(aliases, states):
            binding[alias] = _count_literal(
                len(state) if isinstance(state, set) else state
            )
        yield binding
