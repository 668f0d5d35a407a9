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

Each UNION and OPTIONAL join is a *bound join* when its left side is small:
the left stream is pulled first, and if it ends within
:data:`BOUND_JOIN_ROWS` rows its distinct ids restrict the right side's BGP
(see :func:`_join_chain` and ``docs/query_algebra.md``).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.engine.base import BGPSolver, Restriction
from repro.engine.operators.aggregate import batch_aggregate
from repro.engine.operators.context import OperatorContext, OperatorCounters
from repro.engine.operators.distinct import batch_distinct
from repro.engine.operators.filter import batch_filter
from repro.engine.operators.join import batch_hash_join, batch_left_outer_join
from repro.engine.operators.limit import batch_limit_offset
from repro.engine.operators.path import batch_path_apply, require_path_resolver
from repro.engine.operators.sort import batch_order_by
from repro.matching.solution_batch import SOLUTION_BATCH_SIZE
from repro.sparql import expressions as expr
from repro.sparql.ast import GraphPattern, SelectQuery
from repro.sparql.binding_batch import KIND_ID, NULL_ID, BindingBatch, slice_batches
from repro.sparql.results import ResultSet

#: A join whose left side ends within this many rows is a bound join: one
#: matcher batch, the most a restricted search starts from.
BOUND_JOIN_ROWS = SOLUTION_BATCH_SIZE


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
    restrict: Optional[Restriction] = None,
) -> Iterator[BindingBatch]:
    """Stream the solutions of a group graph pattern as columnar batches.

    ``limit_hint`` bounds how many solutions the caller will consume; it is
    forwarded to the BGP solver only when the group has no filters, paths or
    UNION blocks (OPTIONAL never drops left rows, so it is hint-safe).
    ``restrict`` is a bound join's map from variables of the group's own
    triple patterns to the ids the enclosing join's left side binds them
    to; it is forwarded to the group's BGP.
    """
    if context is None:
        context = solver.operator_context()
    cheap, expensive = expr.split_filters(group.filters)

    def base() -> Iterator[BindingBatch]:
        # 1. Basic graph pattern (columnar batches straight from the solver).
        if group.triples:
            bgp_hint = (
                limit_hint
                if not (group.filters or group.unions or group.paths)
                else None
            )
            stream: Iterator[BindingBatch] = iter(
                solver.solve_batches(
                    group.triples,
                    cheap,
                    limit_hint=bgp_hint,
                    plan_shape=plan_shape,
                    restrict=restrict,
                )
            )
        else:
            stream = iter((BindingBatch.unit(),))
        # 1b. Property-path steps join the stream like extra patterns (each
        #     row constrains the endpoints; closure probes hit the path
        #     indexes).
        if group.paths:
            resolver = require_path_resolver(solver)
            for path in group.paths:
                stream = batch_path_apply(stream, path, resolver, context)
        return stream

    bound = _bindable_variables_of_triples(group)
    for path in group.paths:
        bound.update(str(v) for v in path.variables())

    # 2. UNION blocks join with the rest of the group, then 3. OPTIONAL
    #    blocks left-outer-join in declaration order.
    joins: List[_Join] = []
    for union in group.unions:
        union_bound: Set[str] = set()
        for alternative in union.alternatives:
            union_bound |= _bindable_variables(alternative)
        joins.append((union.alternatives, sorted(bound & union_bound), None))
        bound |= union_bound
    for optional in group.optionals:
        optional_bound = _bindable_variables(optional)
        joins.append(
            ((optional,), sorted(bound & optional_bound), sorted(optional_bound))
        )
        bound |= optional_bound
    stream = base()
    if joins:
        stream = _join_chain(stream, base, joins, solver, context, plan_shape)

    # 4. FILTER conditions (all of them, cheap ones included for safety).
    for condition in itertools.chain(cheap, expensive):
        stream = batch_filter(stream, condition)

    if limit_hint is not None:
        stream = slice_batches(stream, 0, limit_hint)
    return stream


#: One UNION or OPTIONAL step of a group: the right groups (a UNION's
#: alternatives or the one OPTIONAL group), the shared variables, and the
#: variables an OPTIONAL binds (None for a UNION: inner join).
_Join = Tuple[Sequence[GraphPattern], List[str], Optional[List[str]]]


def _join_chain(
    left: Iterator[BindingBatch],
    base: Callable[[], Iterator[BindingBatch]],
    joins: Sequence[_Join],
    solver: BGPSolver,
    context: OperatorContext,
    plan_shape: Optional[str],
) -> Iterator[BindingBatch]:
    """The group's base stream ``left`` joined with its UNION and OPTIONAL steps.

    Every step is a :func:`_bound_join`.  When the solver's streams hold
    worker jobs (process shards), the base is pulled here first: if it
    passes :data:`BOUND_JOIN_ROWS` rows it is closed and ``base()`` starts
    it again, and each step builds its whole right side before its left
    side is pulled, as joins always did.  Holding the base open instead
    would leave its shard job running while the right sides start theirs,
    and the pool runs one job per thread.  The restart re-matches the
    rows pulled so far.  A base that ends within the threshold is held, and
    nothing the steps pull afterwards holds a job open: their left sides
    derive from it and from right sides already built.

    Lazy: nothing is pulled before the first ``next()``.
    """
    if solver.streams_hold_workers():
        held, ended = _hold(left)
        if not ended:
            _close(left)
            stream = base()
            for groups, shared, optional_variables in joins:
                right = _right_side(groups, [None] * len(groups), solver, context, plan_shape)
                stream = _join(stream, right, shared, optional_variables, context)
            yield from stream
            return
        left = iter(held)
    for groups, shared, optional_variables in joins:
        left = _bound_join(
            left, groups, shared, optional_variables, solver, context, plan_shape
        )
    yield from left


def _bound_join(
    left: Iterator[BindingBatch],
    groups: Sequence[GraphPattern],
    shared: List[str],
    optional_variables: Optional[List[str]],
    solver: BGPSolver,
    context: OperatorContext,
    plan_shape: Optional[str],
) -> Iterator[BindingBatch]:
    """Join ``left`` with the concatenated solutions of ``groups``.

    The left stream is pulled first.  If it ends within
    :data:`BOUND_JOIN_ROWS` rows, each group's BGP is evaluated with the
    left's distinct ids for every shared variable that the group's own
    triple patterns bind and that is id-kind and non-null in every left
    row.  Such a variable binds every right row it appears in, so a right
    row whose id is not among them is compatible with no left row, and
    dropping it changes neither join.  A longer left side is chained back
    together and joined unrestricted (:func:`_join_chain` says why no
    worker job is open then).

    The left stream is closed on exit.
    """
    try:
        held, ended = _hold(left)
        if ended:
            probe: Iterator[BindingBatch] = iter(held)
            ids = _left_ids(held, shared)
            restricts: List[Optional[Restriction]] = [
                {var: ids[var] for var in _bindable_variables_of_triples(group) if var in ids}
                for group in groups
            ]
            if any(restricts):
                context.counters.bound_joins += 1
                context.counters.bound_ids += sum(
                    len(values) for restrict in restricts for values in restrict.values()
                )
        else:
            probe = itertools.chain(held, left)
            restricts = [None] * len(groups)
        right = _right_side(groups, restricts, solver, context, plan_shape)
        yield from _join(probe, right, shared, optional_variables, context)
    finally:
        _close(left)


def _hold(left: Iterator[BindingBatch]) -> Tuple[List[BindingBatch], bool]:
    """Pull ``left`` until it ends (True) or passes :data:`BOUND_JOIN_ROWS` rows."""
    held: List[BindingBatch] = []
    rows = 0
    for batch in left:
        held.append(batch)
        rows += batch.rows
        if rows > BOUND_JOIN_ROWS:
            return held, False
    return held, True


def _close(stream: Iterator[BindingBatch]) -> None:
    close = getattr(stream, "close", None)
    if close is not None:
        close()


def _right_side(
    groups: Sequence[GraphPattern],
    restricts: Sequence[Optional[Restriction]],
    solver: BGPSolver,
    context: OperatorContext,
    plan_shape: Optional[str],
) -> Iterator[BindingBatch]:
    """The concatenated solutions of ``groups``, each under its restriction."""
    return itertools.chain.from_iterable(
        evaluate_group_batches(group, solver, None, context, plan_shape, restrict)
        for group, restrict in zip(groups, restricts)
    )


def _join(
    left: Iterator[BindingBatch],
    right: Iterator[BindingBatch],
    shared: List[str],
    optional_variables: Optional[List[str]],
    context: OperatorContext,
) -> Iterator[BindingBatch]:
    """Inner join (UNION) or left outer join (OPTIONAL).

    The kernels are looked up by their module names at call time (the
    spine tracer wraps them there).
    """
    if optional_variables is None:
        return batch_hash_join(left, right, shared, context)
    return batch_left_outer_join(left, right, shared, optional_variables, context)


def _left_ids(
    held: Sequence[BindingBatch], shared: Sequence[str]
) -> Dict[str, FrozenSet[int]]:
    """Distinct ids per shared variable that is id-kind and non-null in every held row."""
    ids: Dict[str, FrozenSet[int]] = {}
    for var in shared:
        values: Set[int] = set()
        for batch in held:
            if not batch.rows:
                continue
            if batch.kind(var) != KIND_ID:
                break
            values.update(batch.columns[var])
        else:
            if NULL_ID not in values:
                ids[var] = frozenset(values)
    return ids


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
