"""The batch query pipeline: operator kernels composed for a parsed query.

Every ``TurboEngine`` query runs through here (the baselines' scalar
reference algebra lives in :mod:`repro.engine.evaluator`).  The pipeline
shape is::

    solve_batches → [joins/filters per group] → aggregate? → project →
    distinct? → (order_by+slice | limit/offset) → ResultSet.from_batches

with the aggregate kernel sitting *before* projection (it may consume
variables the query does not project) and the sort kernel owning the
LIMIT/OFFSET slice so non-key columns of dropped rows never decode.

A ``limit_hint`` is threaded into the solver only when every operator above
it preserves rows: DISTINCT, ORDER BY and aggregation (grouping must consume
the full input) block it.  The query's aggregate/path shape is forwarded to
the solver so its plan cache keys differently shaped plans apart.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Set, Tuple

from repro.engine.base import BGPSolver
from repro.engine.operators.aggregate import batch_aggregate
from repro.engine.operators.context import OperatorContext, OperatorCounters
from repro.engine.operators.distinct import batch_distinct
from repro.engine.operators.filter import batch_filter
from repro.engine.operators.join import batch_hash_join, batch_left_outer_join
from repro.engine.operators.limit import batch_limit_offset
from repro.engine.operators.path import batch_path_apply, require_path_resolver
from repro.engine.operators.sort import batch_order_by
from repro.sparql import expressions as expr
from repro.sparql.ast import GraphPattern, SelectQuery
from repro.sparql.binding_batch import BindingBatch, slice_batches
from repro.sparql.results import ResultSet


def _count_decoded(
    stream: Iterator[BindingBatch], counters: OperatorCounters
) -> Iterator[BindingBatch]:
    """Meter the rows that cross the ResultSet decode boundary."""
    for batch in stream:
        counters.rows_decoded += batch.rows
        yield batch


def evaluate_query_batches(query: SelectQuery, solver: BGPSolver) -> ResultSet:
    """Evaluate a SELECT query on the batch pipeline."""
    projection, batches = stream_query_batches(query, solver)
    return ResultSet.from_batches(projection, batches)


def stream_query_batches(
    query: SelectQuery, solver: BGPSolver
) -> Tuple[List[str], Iterator[BindingBatch]]:
    """The streaming core of the batch pipeline: ``(projection, batches)``.

    Every batch that crosses this boundary is final — joined, deduplicated,
    sorted and sliced — so consumers (``ResultSet.from_batches``, the wire
    serializers) may decode it incrementally without ever materializing the
    full result.  Emitted rows are metered through ``rows_decoded``, which
    is what pins the streaming path to late materialization: a ``LIMIT k``
    query decodes exactly the rows it emits.  Closing the returned
    generator cancels the evaluation (the stop/cancel machinery of the
    matcher pools runs from the generator chain's ``finally`` blocks).
    """
    context = solver.operator_context()
    counters = context.counters
    projection = [str(v) for v in query.projection()]
    aggregate = query.is_aggregate()
    limit_hint: Optional[int] = None
    if (
        query.limit is not None
        and not query.order_by
        and not query.distinct
        and not aggregate
    ):
        # Row-preserving pipeline above the group: the group needs to
        # produce at most offset+limit rows.  DISTINCT collapses rows,
        # ORDER BY and aggregation need the full result, so none admits a
        # hint.
        limit_hint = query.limit + query.offset
    from repro.engine.plan import compose_plan_shape

    plan_shape = compose_plan_shape(query.aggregate_shape(), query.where.paths)

    batches = evaluate_group_batches(
        query.where, solver, limit_hint, context, plan_shape
    )
    if aggregate:
        batches = batch_aggregate(
            batches, [str(v) for v in query.group_by], query.aggregates, counters
        )
    batches = (batch.project(projection) for batch in batches)
    if query.distinct:
        batches = batch_distinct(batches, projection)
    if query.order_by:
        batches = batch_order_by(
            batches,
            [(str(v), asc) for v, asc in query.order_by],
            query.limit,
            query.offset,
        )
    elif query.limit is not None or query.offset:
        batches = batch_limit_offset(batches, query.limit, query.offset)
    return projection, _count_decoded(batches, counters)


def evaluate_group_batches(
    group: GraphPattern,
    solver: BGPSolver,
    limit_hint: Optional[int] = None,
    context: Optional[OperatorContext] = None,
    plan_shape: Optional[str] = None,
) -> Iterator[BindingBatch]:
    """Stream the solutions of a group graph pattern as columnar batches.

    ``limit_hint`` bounds how many solutions the caller will consume; it is
    forwarded to the BGP solver only when the group has no filters, paths or
    UNION blocks (OPTIONAL never drops left rows, so it is hint-safe).
    """
    if context is None:
        context = solver.operator_context()
    cheap, expensive = expr.split_filters(group.filters)

    # 1. Basic graph pattern (columnar batches straight from the solver).
    if group.triples:
        bgp_hint = (
            limit_hint
            if not (group.filters or group.unions or group.paths)
            else None
        )
        stream: Iterator[BindingBatch] = iter(
            solver.solve_batches(
                group.triples, cheap, limit_hint=bgp_hint, plan_shape=plan_shape
            )
        )
    else:
        stream = iter((BindingBatch.unit(),))
    bound = _bindable_variables_of_triples(group)

    # 1b. Property-path steps join the stream like extra patterns (each row
    #     constrains the endpoints; closure probes hit the path indexes).
    if group.paths:
        resolver = require_path_resolver(solver)
        for path in group.paths:
            stream = batch_path_apply(stream, path, resolver, context)
            bound.update(str(v) for v in path.variables())

    # 2. UNION blocks join with the rest of the group.
    for union in group.unions:
        union_bound: Set[str] = set()
        for alternative in union.alternatives:
            union_bound |= _bindable_variables(alternative)
        union_stream = itertools.chain.from_iterable(
            evaluate_group_batches(alternative, solver, None, context, plan_shape)
            for alternative in union.alternatives
        )
        stream = batch_hash_join(
            stream, union_stream, sorted(bound & union_bound), context
        )
        bound |= union_bound

    # 3. OPTIONAL blocks: left outer join in declaration order.
    for optional in group.optionals:
        optional_bound = _bindable_variables(optional)
        stream = batch_left_outer_join(
            stream,
            evaluate_group_batches(optional, solver, None, context, plan_shape),
            sorted(bound & optional_bound),
            sorted(optional_bound),
            context,
        )
        bound |= optional_bound

    # 4. FILTER conditions (all of them, cheap ones included for safety).
    for condition in itertools.chain(cheap, expensive):
        stream = batch_filter(stream, condition)

    if limit_hint is not None:
        stream = slice_batches(stream, 0, limit_hint)
    return stream


# ---------------------------------------------------------- join attributes
# Shared with the baselines' reference algebra (repro.engine.evaluator
# imports these): join attributes are derived from the query structure,
# never by sweeping the binding streams.
def _bindable_variables_of_triples(group: GraphPattern) -> Set[str]:
    """Variables the group's own triple patterns bind."""
    result: Set[str] = set()
    for pattern in group.triples:
        result.update(str(v) for v in pattern.variables())
    return result


def _bindable_variables(group: GraphPattern) -> Set[str]:
    """Variables a group's solutions can carry as keys (recursively).

    Unlike :meth:`GraphPattern.variables` this excludes filter-only
    variables, which never appear in a solution — including them would put
    permanent ``None`` components into every hash key and degrade the joins
    to wildcard scans.
    """
    result = _bindable_variables_of_triples(group)
    for path in group.paths:
        result.update(str(v) for v in path.variables())
    for union in group.unions:
        for alternative in union.alternatives:
            result |= _bindable_variables(alternative)
    for optional in group.optionals:
        result |= _bindable_variables(optional)
    return result
