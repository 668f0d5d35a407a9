"""Shared SPARQL algebra evaluation on top of a BGP solver.

Every engine (TurboHOM++, RDF-3X-style, TripleBit-style, bitmap) answers a
basic graph pattern in its own way; everything above the BGP level — FILTER
semantics, OPTIONAL (left outer join), UNION, joins between group parts,
GROUP BY / COUNT aggregation, projection, DISTINCT, ORDER BY, LIMIT/OFFSET
— is identical and lives in the shared algebra.

The algebra has one production implementation and one reference:

* the **batch** operators in :mod:`repro.engine.operators` are composable
  kernels over columnar :class:`~repro.sparql.binding_batch.BindingBatch`
  streams (hybrid hash join with byte-budgeted, spillable build sides;
  streaming DISTINCT; columnar GROUP BY/COUNT; key-only-decode ORDER BY;
  property paths), composed by
  :func:`repro.engine.operators.pipeline.evaluate_query_batches` — the only
  path ``TurboEngine`` queries take;
* the **scalar** operators in this module work on one ``Binding`` dict at
  a time.  They are the reference algebra of the baseline engines
  (RDF-3X-style, TripleBit-style, bitmap), whose solvers have no batch
  surface: a baseline shares neither matcher, plan nor operator kernel with
  ``TurboEngine``, which is what makes it an independent oracle for the
  parity tests and the benchmark's digest checks.  Transitive property
  paths are outside the reference (no baseline supports them).

:func:`evaluate_query` picks the implementation from
``solver.supports_batches()``.

The scalar algebra is lazy end-to-end: :func:`evaluate_group` composes
generator operators (hash join, hash left-outer join for OPTIONAL, lazy
UNION concatenation, filters as stream predicates) over the solver's
streaming ``solve``, so a ``LIMIT k`` query stops pulling — and therefore
stops *matching* — after ``k`` solutions instead of trimming a
materialized list.  A ``limit_hint`` is additionally threaded into the
solver whenever no downstream operator can drop rows.

Join attributes are derived from the query structure (the variables each
subtree can bind), not by sweeping the binding lists, so the operators never
scan their inputs just to discover the schema.

Filters are split per Section 5.1: *inexpensive* single-variable filters are
offered to the BGP solver for push-down into pattern matching; *expensive*
filters (multi-variable joins, regular expressions, BOUND) are applied as
stream predicates after the group's joins.  All filters are re-checked, so
push-down is purely an optimization and cannot change the semantics.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.engine.base import BGPSolver
from repro.engine.operators.aggregate import scalar_aggregate
from repro.engine.operators.pipeline import (
    _bindable_variables,
    _bindable_variables_of_triples,
    evaluate_group_batches,
    evaluate_query_batches,
)
from repro.exceptions import EngineError
from repro.sparql import expressions as expr
from repro.sparql.ast import GraphPattern, SelectQuery
from repro.sparql.results import Binding, ResultSet

__all__ = [
    "evaluate_query",
    "evaluate_group",
    "evaluate_group_batches",
    "stream_query_rows",
]


def evaluate_query(query: SelectQuery, solver: BGPSolver) -> ResultSet:
    """Evaluate a SELECT query with the given BGP solver."""
    if solver.supports_batches():
        return evaluate_query_batches(query, solver)
    projection, rows = stream_query_rows(query, solver)
    return ResultSet(projection, rows)


def stream_query_rows(
    query: SelectQuery, solver: BGPSolver
) -> Tuple[List[str], Iterator[Binding]]:
    """The streaming core of the reference algebra: ``(projection, rows)``.

    For solvers without a batch surface (the baselines): rows stream lazily
    except through ORDER BY, which is inherently blocking.  The caller must
    not use this for batch-capable solvers (``evaluate_query`` dispatches
    first).
    """
    projection = [str(v) for v in query.projection()]
    aggregate = query.is_aggregate()
    limit_hint: Optional[int] = None
    if (
        query.limit is not None
        and not query.order_by
        and not query.distinct
        and not aggregate
    ):
        # Row-preserving pipeline above the group: the group needs to produce
        # at most offset+limit rows.  DISTINCT collapses rows, ORDER BY and
        # aggregation need the full result, so none admits a hint.
        limit_hint = query.limit + query.offset

    solutions = evaluate_group(query.where, solver, limit_hint)
    if aggregate:
        solutions = scalar_aggregate(
            solutions, [str(v) for v in query.group_by], query.aggregates
        )
    rows: Iterator[Binding] = (
        {var: binding.get(var) for var in projection} for binding in solutions
    )
    if query.distinct:
        rows = _distinct_stream(rows, projection)
    if query.order_by:
        result = ResultSet(projection, rows)
        result = result.order_by([(str(v), asc) for v, asc in query.order_by])
        if query.limit is not None or query.offset:
            result = result.slice(query.limit, query.offset)
        return projection, iter(result.rows)
    if query.limit is not None or query.offset:
        end = None if query.limit is None else query.offset + query.limit
        rows = itertools.islice(rows, query.offset, end)
    return projection, rows


def evaluate_group(
    group: GraphPattern,
    solver: BGPSolver,
    limit_hint: Optional[int] = None,
) -> Iterator[Binding]:
    """Stream the solutions of a group graph pattern.

    ``limit_hint`` bounds how many solutions the caller will consume; it is
    forwarded to the BGP solver only when the group has no filters and no
    UNION blocks (OPTIONAL never drops left rows, so it is hint-safe).
    """
    if group.paths:
        raise EngineError("the reference algebra does not evaluate property paths")
    cheap, expensive = expr.split_filters(group.filters)

    # 1. Basic graph pattern (streamed straight from the solver).
    if group.triples:
        bgp_hint = limit_hint if not (group.filters or group.unions) else None
        stream = iter(solver.solve(group.triples, cheap, limit_hint=bgp_hint))
    else:
        stream = iter(({},))
    bound = _bindable_variables_of_triples(group)

    # 2. UNION blocks join with the rest of the group (alternatives stream
    #    lazily, one after the other).
    for union in group.unions:
        union_bound: Set[str] = set()
        for alternative in union.alternatives:
            union_bound |= _bindable_variables(alternative)
        union_stream = itertools.chain.from_iterable(
            evaluate_group(alternative, solver)
            for alternative in union.alternatives
        )
        stream = _hash_join(stream, union_stream, sorted(bound & union_bound))
        bound |= union_bound

    # 3. OPTIONAL blocks: left outer join in declaration order.
    for optional in group.optionals:
        optional_bound = _bindable_variables(optional)
        stream = _hash_left_outer_join(
            stream,
            evaluate_group(optional, solver),
            sorted(bound & optional_bound),
            sorted(optional_bound),
        )
        bound |= optional_bound

    # 4. FILTER conditions (all of them, cheap ones included for safety).
    for condition in itertools.chain(cheap, expensive):
        stream = _filter_stream(stream, condition)

    if limit_hint is not None:
        stream = itertools.islice(stream, limit_hint)
    return stream


# ----------------------------------------------------------------------- joins
def _compatible(left: Binding, right: Binding, shared: Sequence[str]) -> bool:
    """SPARQL compatibility: shared variables must agree (None is a wildcard)."""
    for var in shared:
        lv = left.get(var)
        rv = right.get(var)
        if lv is not None and rv is not None and lv != rv:
            return False
    return True


def _merge(left: Binding, right: Binding) -> Binding:
    """Merge two compatible bindings (right fills unbound variables)."""
    merged = dict(left)
    for var, value in right.items():
        if merged.get(var) is None:
            merged[var] = value
    return merged


def _build_index(
    rows: Iterable[Binding], shared: Sequence[str]
) -> Dict[Tuple, List[Binding]]:
    """Materialize the build side of a hash join, keyed on the join variables."""
    index: Dict[Tuple, List[Binding]] = {}
    for binding in rows:
        key = tuple(binding.get(var) for var in shared)
        index.setdefault(key, []).append(binding)
    return index


def _probe(index: Dict[Tuple, List[Binding]], key: Tuple) -> Iterable[Binding]:
    """Probe the hash index, scanning everything when the key has wildcards."""
    if any(part is None for part in key):
        for bucket in index.values():
            yield from bucket
        return
    yield from index.get(key, [])
    # Buckets whose key contains None may still be compatible.
    for other_key, bucket in index.items():
        if other_key != key and any(part is None for part in other_key):
            yield from bucket


def _hash_join(
    left: Iterator[Binding],
    right: Iterable[Binding],
    shared: Sequence[str],
) -> Iterator[Binding]:
    """Inner hash join: materialize ``right`` as the build side, stream ``left``.

    ``shared`` are the join attributes, derived from the query structure by
    the caller (no sweep over the bindings themselves).
    """
    if not shared:
        right_rows = list(right)
        if not right_rows:
            return
        for left_binding in left:
            for right_binding in right_rows:
                yield _merge(left_binding, right_binding)
        return
    index = _build_index(right, shared)
    if not index:
        return
    for binding in left:
        key = tuple(binding.get(var) for var in shared)
        for candidate in _probe(index, key):
            if _compatible(binding, candidate, shared):
                yield _merge(binding, candidate)


def _hash_left_outer_join(
    left: Iterator[Binding],
    right: Iterable[Binding],
    shared: Sequence[str],
    right_variables: Sequence[str],
) -> Iterator[Binding]:
    """SPARQL OPTIONAL: keep left rows with no compatible right row (as nulls)."""
    index = _build_index(right, shared)
    for binding in left:
        matched = False
        if index:
            key = tuple(binding.get(var) for var in shared)
            for candidate in _probe(index, key):
                if _compatible(binding, candidate, shared):
                    matched = True
                    yield _merge(binding, candidate)
        if not matched:
            extended = dict(binding)
            for var in right_variables:
                extended.setdefault(var, None)
            yield extended


# --------------------------------------------------------------------- streams
def _filter_stream(
    stream: Iterator[Binding], condition: expr.Expression
) -> Iterator[Binding]:
    """Apply one FILTER condition as a stream predicate."""
    for binding in stream:
        if expr.evaluate_filter(condition, binding):
            yield binding


def _distinct_stream(
    rows: Iterator[Binding], variables: Sequence[str]
) -> Iterator[Binding]:
    """Streaming DISTINCT, preserving first-seen order."""
    seen: Set[Tuple] = set()
    for row in rows:
        key = tuple(row.get(var) for var in variables)
        if key not in seen:
            seen.add(key)
            yield row
