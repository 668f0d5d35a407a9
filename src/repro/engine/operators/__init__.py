"""Composable batch operator kernels over BindingBatch streams.

The package decomposes the former evaluator monolith into one module per
relational kernel, each consuming and producing
:class:`~repro.sparql.binding_batch.BindingBatch` streams:

* :mod:`~repro.engine.operators.join` — hybrid hash join / left outer join
  with byte-budgeted build sides, graceful spilling and recursive
  repartitioning;
* :mod:`~repro.engine.operators.filter` — FILTER as a columnar stream
  predicate;
* :mod:`~repro.engine.operators.distinct` — streaming DISTINCT on packed
  raw row keys;
* :mod:`~repro.engine.operators.sort` — ORDER BY with key-only decode
  before the sort and full decode only after the LIMIT slice;
* :mod:`~repro.engine.operators.aggregate` — GROUP BY / COUNT kernels
  grouping on raw id columns (plus ``scalar_aggregate``, the same
  semantics over ``Binding`` rows for the baselines' reference algebra);
* :mod:`~repro.engine.operators.path` — SPARQL 1.1 property-path steps
  (``p+`` / ``p*`` / ``p?``) joined into the stream via per-predicate
  reachability indexes;
* :mod:`~repro.engine.operators.limit` — LIMIT/OFFSET by batch slicing;
* :mod:`~repro.engine.operators.pipeline` — the batch query pipeline that
  composes the kernels for a parsed query;
* :mod:`~repro.engine.operators.context` — per-engine execution context:
  memory budgets, spill directory lifecycle and observability counters;
* :mod:`~repro.engine.operators.spill` — the serialized column-span spill
  file format shared by the join's build and probe sides.

See ``docs/query_algebra.md`` for the operator catalog and invariants.
"""

from repro.engine.operators.aggregate import batch_aggregate, scalar_aggregate
from repro.engine.operators.context import (
    DEFAULT_JOIN_MEMORY_BYTES,
    DEFAULT_JOIN_PARTITIONS,
    OperatorContext,
    OperatorCounters,
)
from repro.engine.operators.distinct import batch_distinct
from repro.engine.operators.filter import batch_filter
from repro.engine.operators.join import batch_hash_join, batch_left_outer_join
from repro.engine.operators.limit import batch_limit_offset
from repro.engine.operators.path import PathResolver, batch_path_apply
from repro.engine.operators.pipeline import (
    evaluate_group_batches,
    evaluate_query_batches,
)
from repro.engine.operators.sort import batch_order_by

__all__ = [
    "DEFAULT_JOIN_MEMORY_BYTES",
    "DEFAULT_JOIN_PARTITIONS",
    "OperatorContext",
    "OperatorCounters",
    "PathResolver",
    "batch_aggregate",
    "batch_distinct",
    "batch_filter",
    "batch_hash_join",
    "batch_left_outer_join",
    "batch_limit_offset",
    "batch_order_by",
    "batch_path_apply",
    "evaluate_group_batches",
    "evaluate_query_batches",
    "scalar_aggregate",
]
