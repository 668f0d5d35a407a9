"""Engine and BGP-solver interfaces shared by TurboHOM++ and the baselines.

An :class:`Engine` owns a loaded dataset and answers SPARQL queries; the
query-shape handling (FILTER / OPTIONAL / UNION / solution modifiers) lives
in :mod:`repro.engine.evaluator` and is shared, so a concrete engine only
has to provide

* :meth:`Engine.load` — build its index structures from a
  :class:`~repro.rdf.store.TripleStore`, and
* a :class:`BGPSolver` — enumerate the solutions of a basic graph pattern.

This mirrors the paper's experimental setup: all systems answer the same
SPARQL text, but each has its own storage and BGP evaluation strategy.
"""

from __future__ import annotations

import abc
import os
from typing import FrozenSet, Iterable, List, Mapping, Optional, Sequence, Union

from repro.engine.plan_cache import PlanCache
from repro.exceptions import EngineError
from repro.rdf.store import TripleStore
from repro.sparql import expressions as expr
from repro.sparql.ast import SelectQuery, TriplePattern
from repro.sparql.parser import parse_sparql
from repro.sparql.results import Binding, ResultSet


#: Environment override for the worker count of engines constructed without
#: an explicit ``workers`` — lets a CI job (or an operator) re-run an
#: unmodified workload on process shards: ``REPRO_EXECUTION_WORKERS=2``.
EXECUTION_WORKERS_ENV = "REPRO_EXECUTION_WORKERS"

#: Environment override for the cross-query candidate-region cache budget
#: (bytes) of engines constructed without an explicit ``region_cache_bytes``.
#: ``0`` disables region caching entirely; unset keeps the default budget
#: (see :data:`repro.engine.region_cache.DEFAULT_REGION_CACHE_BYTES`).
REGION_CACHE_BYTES_ENV = "REPRO_REGION_CACHE_BYTES"

#: Environment override for the hybrid hash join's build-side byte budget
#: of engines constructed without an explicit ``join_memory_bytes``.  ``0``
#: disables spilling (unbounded in-memory build sides); unset keeps the
#: default (see
#: :data:`repro.engine.operators.context.DEFAULT_JOIN_MEMORY_BYTES`).
JOIN_MEMORY_BYTES_ENV = "REPRO_JOIN_MEMORY_BYTES"

#: A bound join's ``restrict`` map: variable name → the data-vertex ids the
#: join's small left side binds it to (see :meth:`BGPSolver.supports_batches`).
Restriction = Mapping[str, FrozenSet[int]]


def resolve_int_setting(
    value: Optional[int], env_name: str, default: int, minimum: int, label: str
) -> int:
    """Validate one integer setting, falling back to its environment variable.

    An explicit non-None ``value`` always wins; ``None`` consults
    ``env_name`` and finally ``default``.  ``minimum`` is 0 (non-negative)
    or 1 (positive).  Values below it, non-integers and malformed
    environment values raise at construction, never deep inside a query.
    """
    requirement = "a positive integer" if minimum > 0 else "a non-negative integer"
    if value is None:
        env = os.environ.get(env_name, "").strip()
        if not env:
            return default
        try:
            value = int(env)
        except ValueError as error:
            raise EngineError(f"invalid {env_name}={env!r}") from error
        if value < minimum:
            raise EngineError(
                f"invalid {env_name}={env!r}: {label} must be {requirement}"
            )
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise EngineError(f"{label} must be {requirement}, got {value!r}")
    return value


def resolve_region_cache_bytes(capacity: Optional[int], default: int) -> int:
    """Region-cache byte budget: ``capacity``, ``REPRO_REGION_CACHE_BYTES``
    or ``default``; ``0`` disables region caching."""
    return resolve_int_setting(
        capacity, REGION_CACHE_BYTES_ENV, default, 0, "region_cache_bytes"
    )


def resolve_join_memory_bytes(budget: Optional[int] = None) -> int:
    """Join-memory byte budget: ``budget``, ``REPRO_JOIN_MEMORY_BYTES`` or
    the package default; ``0`` disables spilling (unbounded build sides)."""
    from repro.engine.operators.context import DEFAULT_JOIN_MEMORY_BYTES

    return resolve_int_setting(
        budget, JOIN_MEMORY_BYTES_ENV, DEFAULT_JOIN_MEMORY_BYTES, 0,
        "join_memory_bytes",
    )


def resolve_join_partitions(partitions: Optional[int] = None) -> int:
    """Validate the hybrid hash join's partition fan-out (at least 2).

    ``None`` is the fixed default fan-out; no environment variable is read.
    """
    from repro.engine.operators.context import DEFAULT_JOIN_PARTITIONS

    if partitions is None:
        return DEFAULT_JOIN_PARTITIONS
    if not isinstance(partitions, int) or isinstance(partitions, bool) or partitions < 2:
        raise EngineError(
            f"join_partitions must be an integer >= 2, got {partitions!r}"
        )
    return partitions


def resolve_worker_count(workers: Optional[int] = None) -> int:
    """Worker count: ``workers``, ``REPRO_EXECUTION_WORKERS`` or 1.

    ``1`` runs the in-process matcher, more run that many shard worker
    processes; non-positive counts raise at construction, never deep
    inside a pool.
    """
    return resolve_int_setting(workers, EXECUTION_WORKERS_ENV, 1, 1, "workers")


class BGPSolver(abc.ABC):
    """Evaluates one basic graph pattern (a list of triple patterns)."""

    @abc.abstractmethod
    def solve(
        self,
        patterns: Sequence[TriplePattern],
        cheap_filters: Sequence[expr.Expression] = (),
        limit_hint: Optional[int] = None,
    ) -> Iterable[Binding]:
        """Yield bindings (variable name → decoded RDF term) for the BGP.

        ``cheap_filters`` are single-variable filters the solver *may* push
        into its evaluation; the caller re-applies every filter afterwards,
        so pushing is purely an optimization.

        ``limit_hint`` is the evaluator's promise that it will consume at
        most that many bindings (it only passes one when no downstream
        operator can drop rows): solvers may stop evaluation after that many
        solutions instead of enumerating the full result.
        """

    def supports_filter_pushdown(self) -> bool:
        """True when the solver makes use of ``cheap_filters``."""
        return False

    def path_resolver(self):
        """The solver's :class:`~repro.engine.operators.path.PathResolver`.

        ``None`` (the default) means the solver cannot evaluate
        :class:`~repro.sparql.ast.PathPattern` leaves; engine front-ends
        reject such queries up front via :attr:`Engine.supports_paths`.
        """
        return None

    def streams_hold_workers(self) -> bool:
        """True when an open :meth:`solve_batches` stream may hold a job on
        a worker pool that runs one job per thread at a time.

        A second stream started from the same thread would supersede that
        job, so the batch pipeline never holds such a stream open while it
        starts another.
        """
        return False

    def operator_context(self):
        """The :class:`~repro.engine.operators.context.OperatorContext`
        shared by this solver's batch operator kernels.

        The default lazily builds one from the environment knobs; engines
        that own configuration (``TurboEngine``) override this to return
        the engine-held context so ``stats()`` and ``close()`` see it.
        """
        context = getattr(self, "_operator_context", None)
        if context is None:
            from repro.engine.operators.context import OperatorContext

            context = OperatorContext(
                join_memory_bytes=resolve_join_memory_bytes(None),
                join_partitions=resolve_join_partitions(None),
            )
            self._operator_context = context
        return context

    # ----------------------------------------------------------- batch surface
    def supports_batches(self) -> bool:
        """True when :meth:`solve_batches` streams columnar batches.

        Solvers that return True must implement ``solve_batches(patterns,
        cheap_filters, limit_hint, plan_shape, restrict=None)`` yielding
        :class:`~repro.sparql.binding_batch.BindingBatch` objects with the
        exact multiset semantics of :meth:`solve`; the evaluator then runs
        the batch operator kernels and materializes terms only at the
        :class:`~repro.sparql.results.ResultSet` boundary (``plan_shape`` is
        an opaque string folded into the solver's plan-cache key, see
        :func:`repro.engine.plan_cache.bgp_fingerprint`).  ``restrict`` is a
        bound join's map from variable name to the frozenset of data-vertex
        ids the join's small left side binds it to: the solver may drop rows
        binding such a variable to any other id, or ignore the map entirely,
        just as it may ignore ``cheap_filters``.  The default is
        the scalar reference algebra of the baseline engines, which shares
        no code with the batch kernels and is what tests compare against.
        """
        return False


class Engine(abc.ABC):
    """A loaded RDF query engine."""

    #: Human-readable engine name used in benchmark tables.
    name: str = "engine"
    #: Whether the engine supports OPTIONAL (the open-source baselines do not,
    #: mirroring the paper's Table 6 footnote).
    supports_optional: bool = True
    #: Whether the engine supports SPARQL 1.1 property paths whose
    #: transitive steps need a reachability index (``p+`` / ``p*`` / ``p?``).
    #: Non-transitive path shapes rewrite into plain BGP/UNION algebra at
    #: parse time and work everywhere.
    supports_paths: bool = False

    def __init__(self) -> None:
        self._store: Optional[TripleStore] = None
        #: Bounded text → :class:`SelectQuery` LRU in front of the parser
        #: (None parses every text).  Cached queries are shared: evaluation
        #: never mutates them.
        self.parse_cache: Optional[PlanCache[SelectQuery]] = None

    # ---------------------------------------------------------------- loading
    @abc.abstractmethod
    def load(self, store: TripleStore) -> None:
        """Build the engine's internal structures from a triple store."""

    @property
    def store(self) -> TripleStore:
        """The loaded triple store."""
        if self._store is None:
            raise EngineError(f"{self.name}: no dataset loaded")
        return self._store

    @abc.abstractmethod
    def bgp_solver(self) -> BGPSolver:
        """The engine's basic-graph-pattern solver."""

    # ---------------------------------------------------------------- queries
    def _parse_checked(self, query: Union[str, SelectQuery]) -> SelectQuery:
        """Parse a query and reject feature surface this engine lacks."""
        parsed = self._parse(query) if isinstance(query, str) else query
        if not self.supports_optional and _uses_optional(parsed):
            raise EngineError(f"{self.name} does not support OPTIONAL")
        if not self.supports_paths and _uses_paths(parsed):
            raise EngineError(
                f"{self.name} does not support transitive property paths"
            )
        return parsed

    def _parse(self, text: str) -> SelectQuery:
        """The parsed query for ``text``, from the parse cache when possible.

        A text that fails to parse raises before anything is stored, so
        syntax errors are never cached.
        """
        cache = self.parse_cache
        if cache is None:
            return parse_sparql(text)
        parsed = cache.get(text)
        if parsed is None:
            parsed = parse_sparql(text)
            cache.put(text, parsed)
        return parsed

    def query(self, query: Union[str, SelectQuery]) -> ResultSet:
        """Answer a SPARQL SELECT query."""
        from repro.engine.evaluator import evaluate_query

        return evaluate_query(self._parse_checked(query), self.bgp_solver())

    def query_batches(self, query: Union[str, SelectQuery]):
        """Answer a SELECT query as a stream of columnar batches.

        The streaming twin of :meth:`query`: returns a
        :class:`~repro.sparql.binding_batch.BatchResult` whose batches are
        final (joined, deduplicated, sorted, sliced) and decode
        incrementally — the entry point the wire serializers and the
        serving front-end consume, never materializing a row-dict
        :class:`~repro.sparql.results.ResultSet`.  Solvers without a batch
        surface (the baselines) stream the reference algebra's rows through
        a term-column adapter with identical semantics.  Closing the result
        (or abandoning it mid-iteration) cancels the evaluation.
        """
        from repro.engine.evaluator import stream_query_rows
        from repro.engine.operators.pipeline import stream_query_batches
        from repro.sparql.binding_batch import BatchResult, batches_from_bindings

        parsed = self._parse_checked(query)
        solver = self.bgp_solver()
        if solver.supports_batches():
            projection, batches = stream_query_batches(parsed, solver)
        else:
            projection, rows = stream_query_rows(parsed, solver)
            batches = batches_from_bindings(projection, rows)
        return BatchResult(projection, batches)

    def count(self, query: Union[str, SelectQuery]) -> int:
        """Number of solutions of a query."""
        return len(self.query(query))

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<{type(self).__name__} name={self.name!r}>"


def _any_group(query: SelectQuery, predicate) -> bool:
    """True when ``predicate`` holds for any group pattern of the query."""

    def walk(group) -> bool:
        if predicate(group):
            return True
        for union in group.unions:
            if any(walk(alt) for alt in union.alternatives):
                return True
        return any(walk(opt) for opt in group.optionals)

    return walk(query.where)


def _uses_optional(query: SelectQuery) -> bool:
    """True when the query contains an OPTIONAL clause anywhere."""
    return _any_group(query, lambda group: bool(group.optionals))


def _uses_paths(query: SelectQuery) -> bool:
    """True when the query contains a transitive path pattern anywhere."""
    return _any_group(query, lambda group: bool(group.paths))
