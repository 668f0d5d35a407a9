"""ORDER BY over batch streams with key-only decode before the sort.

The baselines' reference algebra decodes every row, sorts, then slices
(:meth:`repro.sparql.results.ResultSet.order_by`).  This kernel keeps the
whole result columnar: it materializes the batch stream, decodes
**only the sort-key columns** (and only one term per *distinct* id — the
memo turns high-fanout joins into near-free key decodes), sorts row
indices with exactly the reference comparator (stable sorts in reversed key
order; unbound sorts first; see
:func:`repro.sparql.results._sort_key`), applies the LIMIT/OFFSET slice to
the sorted indices, and only then copies the surviving rows into output
batches — non-key columns of dropped rows are never decoded (they stay id
columns even in the output, decoding at the ResultSet boundary).
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.operators.join import cell_value
from repro.sparql.binding_batch import (
    KIND_ID,
    BatchBuilder,
    BindingBatch,
    resolve_kind,
)
from repro.sparql.results import _sort_key

#: Output batch granularity after the sort.
SORT_OUTPUT_ROWS = 1024


def batch_order_by(
    stream: Iterator[BindingBatch],
    keys: Sequence[Tuple[str, bool]],
    limit: Optional[int],
    offset: int,
) -> Iterator[BindingBatch]:
    """Sort a batch stream by ``(variable, ascending)`` keys, then slice."""
    batches = [batch for batch in stream if batch.rows]
    if not batches:
        return
    base: List[int] = []
    total = 0
    for batch in batches:
        base.append(total)
        total += batch.rows
    order: List[int] = list(range(total))  # global row ordinals
    # Decoded key columns, one list per sort variable, aligned with the
    # global ordinals; ids decode once per distinct value via the memo.
    for var, ascending in reversed(list(keys)):
        decoded: List = []
        memo: Dict[int, object] = {}
        for batch in batches:
            column = batch.columns.get(var)
            if column is None:
                decoded.extend([None] * batch.rows)
            elif batch.kinds[var] == KIND_ID:
                decode = batch.decoder
                assert decode is not None, "id column without a decoder"
                for value in column:
                    if value < 0:
                        decoded.append(None)
                    else:
                        term = memo.get(value)
                        if term is None:
                            term = memo[value] = decode(value)
                        decoded.append(term)
            else:
                decoded.extend(column)
        sort_keys = [(value is not None, _sort_key(value)) for value in decoded]
        order.sort(key=sort_keys.__getitem__, reverse=not ascending)
    end = None if limit is None else offset + limit
    order = order[offset:end]
    if not order:
        return
    # One resolved output schema across all input batches.
    variables: List[str] = []
    kinds: Dict[str, str] = {}
    decoder = None
    for batch in batches:
        if decoder is None:
            decoder = batch.decoder
        for var in batch.variables:
            if var not in kinds:
                variables.append(var)
                kinds[var] = batch.kinds[var]
            else:
                kinds[var] = resolve_kind(kinds[var], batch.kinds[var])
    builder = BatchBuilder(variables, kinds, decoder)
    for ordinal in order:
        bi = bisect.bisect_right(base, ordinal) - 1
        batch = batches[bi]
        row = ordinal - base[bi]
        builder.append([cell_value(batch, row, var, kinds[var]) for var in variables])
        if builder.rows >= SORT_OUTPUT_ROWS:
            yield builder.batch()
            builder = BatchBuilder(variables, kinds, decoder)
    if builder.rows:
        yield builder.batch()
