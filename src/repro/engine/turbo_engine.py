"""SPARQL engines backed by the TurboHOM / TurboHOM++ matcher.

:class:`TurboEngine` loads a :class:`~repro.rdf.store.TripleStore`, applies
either the direct or the type-aware transformation, and answers basic graph
patterns with a :class:`~repro.matching.turbo.TurboMatcher`.  The two paper
systems are thin subclasses:

* :class:`TurboHomEngine` — direct transformation, no TurboHOM++
  optimizations (the system of Figure 6),
* :class:`TurboHomPPEngine` — type-aware transformation plus +INT / -NLF /
  -DEG / +REUSE (the system of Tables 3–7).

Query answering follows a compile-once / stream-everywhere split:

* **compile** — :meth:`TurboBGPSolver.plan` looks the BGP up in the
  engine-held :class:`~repro.engine.plan_cache.PlanCache` (keyed on the
  BGP's template key, its subject/object constants lifted into slots) and
  binds the cached plan to the instance's constants; only on a miss does it
  run :func:`~repro.engine.plan.compile_query`, which performs the query
  transformation, component split, start-vertex selection, query-tree
  construction, filter-requirement derivation and push-down compilation;
* **stream** — :meth:`TurboBGPSolver.solve_batches` is a chain of
  generators over columnar batches: the matcher's id columns are adopted
  as :class:`~repro.sparql.binding_batch.BindingBatch` columns, and
  predicate-variable expansion (the ``Me`` mapping of Definition 2),
  ``rdf:type ?t`` type-variable expansion and the cross product between
  connected components are lazy decorators on that stream; a ``limit_hint``
  from the evaluator terminates matching early instead of trimming a
  materialized list, and a bound join's ``restrict`` map roots a component
  at a restricted vertex the way a constant roots it.

Batches are the only representation inside the engine: pending
predicate-variable choices ride beside each batch as a per-row list internal
to the solver, so algebra operators and projections only ever see plain
variable columns, and :meth:`TurboBGPSolver.solve` is a row adapter over
the same stream.

``workers`` alone picks the execution path: 1 runs the in-process
:class:`~repro.matching.turbo.TurboMatcher`, more run one engine-held
:class:`~repro.engine.shard_executor.ShardExecutor` whose persistent worker
processes attach the graph's shared-memory CSR export and cache rehydrated
plans by fingerprint (see ``docs/execution_modes.md``).
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.engine.base import (
    BGPSolver,
    Engine,
    Restriction,
    resolve_join_memory_bytes,
    resolve_join_partitions,
    resolve_region_cache_bytes,
    resolve_worker_count,
)
from repro.engine.operators.context import OperatorContext
from repro.engine.operators.path import PathResolver
from repro.engine.plan import (
    AlternativePlan,
    ComponentPlan,
    QueryPlan,
    TypeVariableBinder,
    compile_query,
    slot_node_ids,
)
from repro.engine.plan_cache import PlanCache, bgp_fingerprint
from repro.engine.region_cache import (
    DEFAULT_REGION_CACHE_BYTES,
    RegionCache,
    make_region_cache,
)
from repro.engine.shard_executor import ShardExecutor
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.reachability import (
    DEFAULT_PATH_INDEX_BYTES,
    PathIndexCounters,
    PathIndexManager,
)
from repro.graph.transform import (
    GraphMapping,
    direct_transform,
    type_aware_transform,
)
from repro.matching.config import MatchConfig
from repro.matching.solution_batch import SolutionBatch
from repro.matching.start_vertex import restricted_start_candidates
from repro.matching.turbo import PreparedQuery, TurboMatcher
from repro.rdf.store import TripleStore
from repro.rdf.terms import Term
from repro.sparql import expressions as expr
from repro.sparql.ast import TriplePattern
from repro.exceptions import EngineError
from repro.sparql.binding_batch import (
    KIND_ID,
    KIND_TERM,
    BatchBuilder,
    BatchResult,
    BindingBatch,
    Decoder,
    slice_batches,
)
from repro.sparql.results import Binding


@dataclass
class PipelineCounters:
    """Cumulative result-pipeline counters, surfaced by :meth:`TurboEngine.stats`.

    ``batches``/``solutions`` count what the solver pulled out of the
    matcher layer; the shard transport counters live on the process pool
    and are merged in by the engine.
    """

    batches: int = 0
    solutions: int = 0


def _merge_choices(
    left: Optional[Dict[str, List[Term]]],
    right: Dict[str, List[Term]],
) -> Dict[str, List[Term]]:
    """Combine predicate-variable choices from two query components.

    A predicate variable shared by both components must label an edge in
    each, so its candidate terms are *intersected* — overwriting would let a
    label that only fits one component leak into the result.  Fresh dicts
    and lists are built so cached plan/solution state is never mutated.
    """
    if left is None:
        return dict(right)
    merged = dict(left)
    for name, terms in right.items():
        if name in merged:
            allowed = set(terms)
            merged[name] = [term for term in merged[name] if term in allowed]
        else:
            merged[name] = terms
    return merged


class TurboBGPSolver(BGPSolver):
    """BGP solver running the TurboMatcher over a transformed graph."""

    def __init__(
        self,
        graph: LabeledGraph,
        mapping: GraphMapping,
        config: MatchConfig,
        type_aware: bool,
        decode: Decoder,
        plan_cache: Optional[PlanCache] = None,
        executor: Optional[ShardExecutor] = None,
        counters: Optional[PipelineCounters] = None,
        region_cache: Optional[RegionCache] = None,
        operator_context: Optional[OperatorContext] = None,
        path_manager: Optional[PathIndexManager] = None,
    ):
        self.graph = graph
        self.mapping = mapping
        self.config = config
        self.type_aware = type_aware
        self.decode = decode  # ``GraphMapping.vertex_terms``'s lookup
        self.plan_cache = plan_cache
        #: Cross-query candidate-region cache of the sequential matcher
        #: (process shards hold per-worker caches instead); keyed below by
        #: plan fingerprint + component coordinates, so it is only
        #: consulted for fingerprinted plans.
        self.region_cache = region_cache
        self.counters = counters if counters is not None else PipelineCounters()
        #: Shared operator-kernel context (join budgets, spill lifecycle,
        #: operator counters); engine-held when the engine built this
        #: solver, lazily env-configured otherwise (see the base class).
        self._operator_context = operator_context
        #: Per-predicate reachability-index manager backing transitive
        #: property paths (engine-held; None means this solver cannot
        #: evaluate PathPattern leaves).
        self.path_manager = path_manager
        self._path_resolver: Optional[PathResolver] = None
        # The sequential matcher is stateless between calls and shared by
        # every component stream; the shard executor (persistent worker
        # processes) is engine-held so it spans queries.
        self._matcher = TurboMatcher(graph, config)
        self._executor = executor

    def supports_filter_pushdown(self) -> bool:
        return True

    def supports_batches(self) -> bool:
        return True

    def streams_hold_workers(self) -> bool:
        return self._executor is not None

    def path_resolver(self) -> Optional[PathResolver]:
        """Resolver for property-path evaluation (None without a manager)."""
        if self.path_manager is None:
            return None
        if (
            self._path_resolver is None
            or self._path_resolver.manager is not self.path_manager
        ):
            self._path_resolver = PathResolver(
                self.graph, self.mapping, self.path_manager, self.decode
            )
        return self._path_resolver

    # ------------------------------------------------------------------ solve
    def solve_batches(
        self,
        patterns: Sequence[TriplePattern],
        cheap_filters: Sequence[expr.Expression] = (),
        limit_hint: Optional[int] = None,
        plan_shape: Optional[str] = None,
        restrict: Optional[Restriction] = None,
    ) -> Iterator[BindingBatch]:
        """Stream the bindings of a basic graph pattern as columnar batches.

        The matcher's :class:`~repro.matching.solution_batch.SolutionBatch`
        columns are adopted as id columns of the emitted
        :class:`~repro.sparql.binding_batch.BindingBatch` objects, so on the
        hot path (one component, no predicate/type-variable expansion) no
        per-solution object is ever built and no id is decoded — terms
        materialize at the :class:`~repro.sparql.results.ResultSet`
        boundary.

        ``limit_hint`` promises the caller needs at most that many rows: it
        is always enforced at the top of the stream, and — when the plan is
        a single component without expansion decorators — pushed all the way
        into the matcher so candidate regions stop being explored.
        ``plan_shape`` (the query's aggregate/path shape) is folded into the
        plan-cache key so differently shaped queries never share a cached
        plan slot.

        ``restrict`` (a bound join's small left side) maps variables to the
        data-vertex ids the caller will join them against; rows binding
        such a variable to another id may be dropped, never added.  It does
        not enter the plan key: per component, the restricted vertex with
        the fewest ids roots the search when it beats the plan's start
        candidates (:meth:`_restricted_start`).
        """
        plan = self.plan(patterns, cheap_filters, plan_shape)
        deep_limit = limit_hint if plan.supports_direct_limit() else None
        stream = self._execute_batches(plan, deep_limit, restrict or {})
        if limit_hint is not None:
            stream = slice_batches(stream, 0, limit_hint)
        return stream

    def solve(
        self,
        patterns: Sequence[TriplePattern],
        cheap_filters: Sequence[expr.Expression] = (),
        limit_hint: Optional[int] = None,
    ) -> Iterator[Binding]:
        """Row adapter over :meth:`solve_batches` (the ``BGPSolver`` contract)."""
        batches = self.solve_batches(patterns, cheap_filters, limit_hint)
        return (row for batch in batches for row in batch.iter_bindings())

    def plan(
        self,
        patterns: Sequence[TriplePattern],
        cheap_filters: Sequence[expr.Expression] = (),
        plan_shape: Optional[str] = None,
    ) -> QueryPlan:
        """The compiled plan for a BGP.

        A cached plan of the same template is bound to this instance's slot
        constants (:meth:`QueryPlan.bind`); only a miss compiles.  Shard
        workers address their plan caches by fingerprint, so plans are
        fingerprinted even when the engine cache is off.
        """
        if self.plan_cache is None and self._executor is None:
            return self._compile(patterns, cheap_filters)
        key, constants = bgp_fingerprint(
            patterns, cheap_filters, plan_shape, self.type_aware
        )
        template = self.plan_cache.get(key) if self.plan_cache is not None else None
        if template is not None:
            return template.bind(
                slot_node_ids(constants, self.mapping), self.graph, self.mapping, self.config
            )
        plan = self._compile(patterns, cheap_filters, constants)
        plan.template_key = key
        if self.plan_cache is not None:
            self.plan_cache.put(key, plan)
        return plan

    def _compile(
        self,
        patterns: Sequence[TriplePattern],
        cheap_filters: Sequence[expr.Expression],
        slots: Sequence[Term] = (),
    ) -> QueryPlan:
        return compile_query(
            patterns, cheap_filters, self.graph, self.mapping, self.config,
            self.type_aware, slots,
        )

    def _region_key(
        self, plan: QueryPlan, alternative_index: int, component_index: int
    ):
        """Stable region-cache key prefix for one plan component.

        None (cache bypass) for unfingerprinted plans — without the
        canonical fingerprint a key could not distinguish two different
        BGPs, so only cacheable plans get region caching.  The fingerprint
        holds the slot constants' ids, so every instance of a template has
        its own regions.
        """
        if self.region_cache is None or plan.fingerprint is None:
            return None
        return (plan.fingerprint, alternative_index, component_index)

    # -------------------------------------------------------------- execution
    @staticmethod
    def _term_variables(plan: QueryPlan) -> Set[str]:
        """Variables that any alternative binds in the *term* domain.

        Predicate variables, ``rdf:type ?t`` type variables and forced
        bindings produce RDF terms, not vertex ids.  A variable that is
        term-bound in one alternative but vertex-bound in another must be
        decoded everywhere, so the whole solve stream stays kind-consistent
        per variable (what lets the evaluator compare raw columns).
        """
        names: Set[str] = set()
        for alternative in plan.alternatives:
            names.update(alternative.forced)
            for binder in alternative.type_binders:
                names.add(binder.type_variable)
            for component in alternative.components:
                names.update(component.predicate_variable_edges)
        return names

    def _execute_batches(
        self, plan: QueryPlan, deep_limit: Optional[int], restrict: Restriction
    ) -> Iterator[BindingBatch]:
        """Stream the plan's alternatives as batches (lazy concatenation)."""
        term_variables = self._term_variables(plan)
        for alternative_index, alternative in enumerate(plan.alternatives):
            expansion_free = (
                not alternative.forced
                and not alternative.type_binders
                and all(
                    not component.predicate_variable_edges
                    for component in alternative.components
                )
            )
            if expansion_free and len(alternative.components) == 1:
                # Hot path: id columns flow straight through.
                for batch, _ in self._component_batches(
                    plan, alternative_index, 0, deep_limit, term_variables, restrict
                ):
                    yield batch
                continue
            stream = self._stream_component_batches(
                plan, alternative_index, term_variables, restrict
            )
            if expansion_free:
                for batch, _ in stream:
                    yield batch
            else:
                yield from self._expand_batches(stream, alternative, term_variables)

    def _component_batches(
        self,
        plan: QueryPlan,
        alternative_index: int,
        component_index: int,
        deep_limit: Optional[int],
        term_variables: Set[str],
        restrict: Restriction,
    ) -> Iterator[Tuple[BindingBatch, Optional[List[Dict[str, List[Term]]]]]]:
        """One component's matcher batches, adopted into binding batches.

        Yields ``(batch, choices)`` where ``choices`` carries the pending
        predicate-variable candidate terms per row (None when the component
        has none), consumed by :meth:`_expand_batches`.

        A restricted component runs in the parent even with shard workers:
        it has at most a few hundred start vertices, so shipping them to a
        worker is pure overhead.  A re-rooted one caches its regions under
        the plan's region key plus the root.
        """
        component = plan.alternatives[alternative_index].components[component_index]
        query = component.query
        restricted = self._restricted_start(component, restrict) if restrict else None
        prepared = component.prepared if restricted is None else restricted
        region_key = self._region_key(plan, alternative_index, component_index)
        if region_key is not None and prepared.start_vertex != component.prepared.start_vertex:
            region_key += (prepared.start_vertex,)
        region_cache = self.region_cache if region_key is not None else None
        if restricted is None and self._executor is not None and query.vertex_count() > 1:
            solution_batches: Iterable[SolutionBatch] = (
                self._executor.iter_component_batches(
                    plan, alternative_index, component_index, deep_limit
                )
            )
        else:
            solution_batches = self._matcher.iter_match_batches(
                query,
                vertex_predicates=component.pushdown,
                max_results=deep_limit,
                prepared=prepared,
                region_cache=region_cache,
                region_key=region_key,
            )
        for solution_batch in solution_batches:
            self.counters.batches += 1
            self.counters.solutions += solution_batch.rows
            yield self._adopt_solution_batch(component, solution_batch, term_variables)

    def _restricted_start(
        self, component: ComponentPlan, restrict: Restriction
    ) -> Optional[PreparedQuery]:
        """The component's start state under a bound join's restriction.

        A restricted vertex is a multi-valued constant: the one with the
        fewest allowed ids wins, and it must beat the plan's start-candidate
        count, ``choose_start``'s own rule.  Its start candidates are the
        allowed ids that pass the label, ID, degree and NLF checks, in
        O(ids).  When it is the plan's start vertex the tree stays;
        otherwise the component re-roots at it (the tree memoised on the
        plan).  None runs the plan as is.
        """
        prepared = component.prepared
        best: Optional[Tuple[int, FrozenSet[int]]] = None
        for vertex in component.query.vertices:
            ids = restrict.get(vertex.name) if vertex.is_variable else None
            if ids is not None and (best is None or len(ids) < len(best[1])):
                best = (vertex.index, ids)
        if best is None or len(best[1]) >= len(prepared.start_candidates):
            return None
        root, ids = best
        candidates = restricted_start_candidates(
            self.graph, component.query, root, ids, self.config
        )
        if root == prepared.start_vertex:
            tree, order_cache = prepared.tree, prepared.order_cache
        else:
            tree, order_cache = component.rooted_at(root)
        return PreparedQuery(
            component.query, root, candidates, tree, prepared.requirements, order_cache
        )

    def _adopt_solution_batch(
        self,
        component: ComponentPlan,
        solution_batch: SolutionBatch,
        term_variables: Set[str],
    ) -> Tuple[BindingBatch, Optional[List[Dict[str, List[Term]]]]]:
        """Wrap matcher columns as binding columns (zero-copy for id columns)."""
        variables: List[str] = []
        columns: Dict[str, object] = {}
        kinds: Dict[str, str] = {}
        for vertex in component.query.vertices:
            if not vertex.is_variable:
                continue
            name = vertex.name
            column = solution_batch.columns[vertex.index]
            variables.append(name)
            if name in term_variables:
                # Term-bound elsewhere in the plan: decode the whole column
                # once so the stream stays kind-consistent for this name.
                columns[name] = list(map(self.decode, column))
                kinds[name] = KIND_TERM
            else:
                columns[name] = column
                kinds[name] = KIND_ID
        batch = BindingBatch(variables, columns, kinds, solution_batch.rows, self.decode)
        if not component.predicate_variable_edges:
            return batch, None
        choices = [
            self._solution_choices(component, solution_batch, row)
            for row in range(solution_batch.rows)
        ]
        return batch, choices

    def _solution_choices(
        self, component: ComponentPlan, solution_batch: SolutionBatch, row: int
    ) -> Dict[str, List[Term]]:
        """Predicate-variable candidate terms of one solution row.

        The allowed edge labels between the matched endpoints, read out of
        the columnar batch; :meth:`_expand_row_choices` binds them.
        """
        columns = solution_batch.columns
        choices: Dict[str, List[Term]] = {}
        for name, endpoints in component.predicate_variable_edges.items():
            allowed: Optional[set] = None
            for source, target in endpoints:
                labels = set(
                    self.graph.edge_labels_between(columns[source][row], columns[target][row])
                )
                allowed = labels if allowed is None else (allowed & labels)
            choices[name] = sorted(
                (self.mapping.term_for_edge_label(label) for label in (allowed or set())),
                key=str,
            )
        return choices

    def _stream_component_batches(
        self,
        plan: QueryPlan,
        alternative_index: int,
        term_variables: Set[str],
        restrict: Restriction,
    ) -> Iterator[Tuple[BindingBatch, Optional[List[Dict[str, List[Term]]]]]]:
        """Batch cross product of the alternative's connected components.

        The first component streams; the others are materialized once (they
        must be re-iterated per outer row) and checked for emptiness before
        the outer stream is ever pulled, so an empty component costs nothing
        on the expensive side.
        Components bind disjoint variables, so merged rows are plain column
        concatenation; shared predicate-variable *choices* intersect via
        :func:`_merge_choices`.
        """
        components = plan.alternatives[alternative_index].components
        if not components:
            yield BindingBatch.unit(self.decode), None
            return
        if len(components) == 1:
            yield from self._component_batches(
                plan, alternative_index, 0, None, term_variables, restrict
            )
            return
        rest: List[List[Tuple[BindingBatch, int, Optional[Dict[str, List[Term]]]]]] = []
        for component_index in range(1, len(components)):
            rows: List[Tuple[BindingBatch, int, Optional[Dict[str, List[Term]]]]] = []
            for batch, choices in self._component_batches(
                plan, alternative_index, component_index, None, term_variables,
                restrict,
            ):
                for row in range(batch.rows):
                    rows.append((batch, row, choices[row] if choices else None))
            if not rows:
                return
            rest.append(rows)
        for first_batch, first_choices in self._component_batches(
            plan, alternative_index, 0, None, term_variables, restrict
        ):
            variables = list(first_batch.variables)
            kinds = dict(first_batch.kinds)
            for rows in rest:
                part = rows[0][0]
                for var in part.variables:
                    if var not in kinds:
                        variables.append(var)
                        kinds[var] = part.kinds[var]
            builder = BatchBuilder(variables, kinds, self.decode)
            merged_choices: Optional[List[Dict[str, List[Term]]]] = (
                []
                if first_choices is not None or any(
                    rows[0][2] is not None for rows in rest
                )
                else None
            )
            for row in range(first_batch.rows):
                base = [first_batch.raw(var, row) for var in first_batch.variables]
                base_choice = first_choices[row] if first_choices else None
                for parts in itertools.product(*rest):
                    values = list(base)
                    choices = dict(base_choice) if base_choice else None
                    for part_batch, part_row, part_choice in parts:
                        values.extend(
                            part_batch.raw(var, part_row)
                            for var in part_batch.variables
                        )
                        if part_choice:
                            choices = _merge_choices(choices, part_choice)
                    builder.append(values)
                    if merged_choices is not None:
                        merged_choices.append(choices or {})
            if builder.rows:
                yield builder.batch(), merged_choices

    def _expand_batches(
        self,
        stream: Iterator[Tuple[BindingBatch, Optional[List[Dict[str, List[Term]]]]]],
        alternative: AlternativePlan,
        term_variables: Set[str],
    ) -> Iterator[BindingBatch]:
        """Row-multiplying decorators of one alternative, batch-wise.

        Ports predicate-choice expansion, type-variable expansion and forced
        bindings onto columnar rows: vertex variables stay raw ids, the
        expansion variables (all in ``term_variables``) append term columns.
        """
        choice_names: Set[str] = set()
        for component in alternative.components:
            choice_names.update(component.predicate_variable_edges)
        extra = sorted(
            set(itertools.chain(
                choice_names,
                (binder.type_variable for binder in alternative.type_binders),
                alternative.forced,
            ))
        )
        for batch, choices in stream:
            variables = list(batch.variables)
            kinds = dict(batch.kinds)
            for name in extra:
                if name not in kinds:
                    variables.append(name)
                    kinds[name] = KIND_TERM
            builder = BatchBuilder(variables, kinds, self.decode)
            for row in range(batch.rows):
                base = {var: batch.raw(var, row) for var in batch.variables}
                rows = [base]
                if choices is not None:
                    rows = self._expand_row_choices(base, choices[row])
                if alternative.type_binders:
                    rows = [
                        expanded
                        for current in rows
                        for expanded in self._expand_row_types(
                            current, alternative.type_binders
                        )
                    ]
                for current in rows:
                    if alternative.forced:
                        conflict = any(
                            current.get(name) not in (None, value)
                            for name, value in alternative.forced.items()
                        )
                        if conflict:
                            continue
                        current = dict(current)
                        current.update(alternative.forced)
                    builder.append([current.get(var) for var in variables])
            if builder.rows:
                yield builder.batch()

    @staticmethod
    def _expand_row_choices(
        base: Dict[str, Any], choices: Dict[str, List[Term]]
    ) -> List[Dict[str, Any]]:
        """Expand one row's pending predicate-variable choices.

        A choice variable the row already binds (the same name also matched
        a query vertex) constrains the expansion to that value instead of
        being overwritten (choice variables are always in the term domain,
        see :meth:`_term_variables`).
        """
        if not choices:
            return [base]
        names = sorted(choices)
        pools = []
        for name in names:
            existing = base.get(name)
            terms = choices[name]
            if existing is not None:
                terms = [term for term in terms if term == existing]
            pools.append(terms)
        expanded = []
        for combo in itertools.product(*pools):
            row = dict(base)
            row.update(zip(names, combo))
            expanded.append(row)
        return expanded

    def _expand_row_types(
        self, row: Dict[str, Any], binders: Sequence[TypeVariableBinder]
    ) -> List[Dict[str, Any]]:
        """Bind one row's type variables from vertex label sets.

        Type-aware graphs only.  An id-domain subject *is* its data vertex,
        so no term → dictionary → vertex round trip is needed.
        """
        results = [row]
        for binder in binders:
            next_results: List[Dict[str, Any]] = []
            for current in results:
                data_vertex = self._row_data_vertex(binder, current)
                if data_vertex is None or data_vertex < 0:
                    continue
                labels = self.graph.vertex_labels(data_vertex)
                existing = current.get(binder.type_variable)
                for label in sorted(labels):
                    type_term = self.mapping.term_for_label(label)
                    if existing is not None and existing != type_term:
                        continue
                    extended = dict(current)
                    extended[binder.type_variable] = type_term
                    next_results.append(extended)
            results = next_results
        return results

    def _row_data_vertex(
        self, binder: TypeVariableBinder, row: Dict[str, Any]
    ) -> Optional[int]:
        """The data vertex answering a type binder for one columnar row."""
        if not binder.subject_is_variable:
            return binder.subject_vertex_id
        value = row.get(binder.subject_name)
        if value is None:
            return None
        if isinstance(value, int):
            return value  # id-domain column: already the data vertex
        node_id = self.mapping.dictionary.lookup_node(value)
        if node_id is None:
            return None
        return self.mapping.vertex_for_node(node_id)

# --------------------------------------------------------------------- engine
class TurboEngine(Engine):
    """Engine front-end over the TurboMatcher (direct or type-aware)."""

    name = "TurboEngine"
    supports_optional = True
    supports_paths = True

    def __init__(
        self,
        type_aware: bool = True,
        config: Optional[MatchConfig] = None,
        workers: Optional[int] = None,
        plan_cache_size: int = 128,
        execution_mode: Optional[str] = None,
        region_cache_bytes: Optional[int] = None,
        join_memory_bytes: Optional[int] = None,
        join_partitions: Optional[int] = None,
    ):
        super().__init__()
        self.type_aware = type_aware
        self.config = config if config is not None else MatchConfig.turbo_hom_pp()
        #: How BGPs are executed: 1 runs the in-process matcher, more run
        #: that many shard worker processes over a shared-memory graph
        #: export.  ``None`` defers to ``REPRO_EXECUTION_WORKERS`` and then
        #: 1.  Validated here, at construction — a non-positive count raises
        #: immediately instead of failing deep inside a worker pool.
        self.workers = resolve_worker_count(workers)
        # Retired argument, kept (never read from the environment) until the
        # frozen benchmarks/spine/run.py stops passing it: the one spelling
        # still accepted restates what an explicit ``workers > 1`` says.
        if execution_mode is not None and not (
            execution_mode == "processes" and workers is not None and workers > 1
        ):
            raise EngineError(
                f"execution_mode={execution_mode!r} is retired: workers alone "
                "picks sequential (1) or process shards (> 1)"
            )
        self.graph: Optional[LabeledGraph] = None
        self.mapping: Optional[GraphMapping] = None
        self._decode: Optional[Decoder] = None
        #: What the last :meth:`load` built and how long its transform took
        #: (``stats()["load"]``); None before the first load.
        self._load_stats: Optional[Dict[str, float]] = None
        #: Compiled-plan cache shared by every query of this engine, and
        #: the text → ``SelectQuery`` cache in front of the parser, of the
        #: same size (``plan_cache_size=0`` disables both).
        self.plan_cache: Optional[PlanCache] = (
            PlanCache(plan_cache_size) if plan_cache_size else None
        )
        self.parse_cache = PlanCache(plan_cache_size) if plan_cache_size else None
        #: Byte budget of the cross-query candidate-region cache.  ``None``
        #: defers to ``REPRO_REGION_CACHE_BYTES`` and then the default;
        #: ``0`` disables region caching.  Validated here, at construction.
        self.region_cache_bytes = resolve_region_cache_bytes(
            region_cache_bytes, DEFAULT_REGION_CACHE_BYTES
        )
        #: Engine-held region cache of the sequential matcher.  With
        #: ``workers > 1`` each shard worker holds its own cache of the same
        #: budget; region keys are plan fingerprints, so the cache is
        #: invalidated together with the plan cache (and on load()).
        self.region_cache: Optional[RegionCache] = make_region_cache(
            self.region_cache_bytes
        )
        #: Build-side byte budget of one hybrid hash join (``0`` = unbounded,
        #: no spilling) and its partition fan-out.  ``None`` defers to
        #: ``REPRO_JOIN_MEMORY_BYTES`` and then the default budget, and to
        #: the fixed default fan-out.  Validated here, at construction.
        self.join_memory_bytes = resolve_join_memory_bytes(join_memory_bytes)
        self.join_partitions = resolve_join_partitions(join_partitions)
        #: Engine-held operator context: join budgets, the spill-file
        #: lifecycle (temp files removed by :meth:`close`, plus a finalizer
        #: safety net for crashed workers) and the operator counters behind
        #: ``stats()["operators"]``.
        self.operator_context = OperatorContext(
            join_memory_bytes=self.join_memory_bytes,
            join_partitions=self.join_partitions,
        )
        #: Result-pipeline counters (batches/solutions moved), shared with
        #: the solver and reported by :meth:`stats`.
        self.pipeline_counters = PipelineCounters()
        self._solver: Optional[TurboBGPSolver] = None
        self._executor: Optional[ShardExecutor] = None
        self._path_manager: Optional[PathIndexManager] = None
        #: Serializes lazy solver/pool construction so two threads firing
        #: their first query cannot race two worker pools into existence
        #: (one of which would leak unjoined processes).
        self._solver_lock = threading.Lock()
        #: Close-cycle marker captured by every open result stream: close()
        #: sets it (and installs a fresh one), making in-flight streams end
        #: with a clear EngineError at their next batch boundary instead of
        #: silently truncating or deadlocking.
        self._close_event = threading.Event()

    def load(self, store: TripleStore) -> None:
        """Transform the store into the engine's labeled graph."""
        self._store = store
        started = time.perf_counter()
        if self.type_aware:
            self.graph, self.mapping = type_aware_transform(store)
        else:
            self.graph, self.mapping = direct_transform(store)
        self._load_stats = {
            "transform_ms": (time.perf_counter() - started) * 1e3,
            "vertices": self.graph.vertex_count,
            "edges": self.graph.edge_count,
        }
        self._decode = self.mapping.vertex_terms().__getitem__
        # New graph: compiled plans, cached regions and the worker pool are
        # stale (shard workers restart with empty caches when the pool is
        # rebuilt, so they need no extra fan-out).  Parsed queries do not
        # depend on the data: the parse cache stays.
        if self.plan_cache is not None:
            self.plan_cache.clear()
        if self.region_cache is not None:
            self.region_cache.clear()
        self.close()
        self._solver = None

    def bgp_solver(self) -> TurboBGPSolver:
        if self.graph is None or self.mapping is None:
            raise RuntimeError(f"{self.name}: load() must be called before querying")
        with self._solver_lock:
            return self._bgp_solver_locked()

    def _bgp_solver_locked(self) -> TurboBGPSolver:
        if self._solver is None:
            if self.workers > 1 and self._executor is None:
                self._executor = ShardExecutor(
                    self.graph, self.mapping, self.config, workers=self.workers,
                    region_cache_bytes=self.region_cache_bytes,
                )
            if self._path_manager is None:
                # Reachability indexes build lazily per predicate inside the
                # manager; path steps always run in this process.
                self._path_manager = PathIndexManager(
                    self.graph, DEFAULT_PATH_INDEX_BYTES
                )
            self._solver = TurboBGPSolver(
                self.graph,
                self.mapping,
                self.config,
                self.type_aware,
                self._decode,
                plan_cache=self.plan_cache,
                executor=self._executor,
                counters=self.pipeline_counters,
                region_cache=self.region_cache,
                operator_context=self.operator_context,
                path_manager=self._path_manager,
            )
        # Keep the memoized solver honest if the engine's caches were
        # swapped or disabled after the first query.
        self._solver.plan_cache = self.plan_cache
        self._solver.region_cache = self.region_cache
        self._solver.path_manager = self._path_manager
        return self._solver

    # ------------------------------------------------------------- streaming
    def query_batches(self, query) -> BatchResult:
        """Streaming query surface with deterministic close semantics.

        Wraps the base implementation so a concurrent :meth:`close` makes
        an open stream raise a clear :class:`EngineError` at its next batch
        boundary (the pools retire their jobs, so that boundary arrives
        promptly) instead of silently truncating the result.
        """
        result = super().query_batches(query)
        return BatchResult(
            result.variables, self._guard_stream(result, self._close_event)
        )

    def _guard_stream(
        self, batches: BatchResult, closed: threading.Event
    ) -> Iterator[BindingBatch]:
        try:
            while True:
                if closed.is_set():
                    raise EngineError(
                        f"{self.name}: engine closed while a result stream was open"
                    )
                try:
                    batch = next(batches)
                except StopIteration:
                    if closed.is_set():
                        # The pool retired our job mid-stream: this is a
                        # truncation, not a completed result.
                        raise EngineError(
                            f"{self.name}: engine closed while a result stream "
                            "was open"
                        ) from None
                    return
                yield batch
        finally:
            batches.close()

    def stats(self) -> Dict[str, object]:
        """Operational counters: plan cache, result pipeline, shard transport.

        One call answers what benchmarks used to re-derive by hand:

        * ``plan_cache`` — hits / misses / evictions / current size (None
          when caching is disabled); a hit binds a cached template plan,
        * ``parse_cache`` — the same counters for the text → AST cache in
          front of the parser (None when disabled; kept across
          :meth:`load`),
        * ``region_cache`` — cross-query candidate-region cache counters
          (bytes held, entries, hits / misses / evictions; None when
          disabled).  With shard workers these are the *summed* per-worker
          caches, refreshed by each worker's job-completion report,
        * ``pipeline`` — batches/solutions pulled out of the matcher layer,
        * ``transport`` — with shard workers, the batches and solutions that
          crossed the worker boundary through the result queue (None for a
          sequential engine, where results never leave the address space),
        * ``operators`` — batch operator-kernel counters (hybrid-join
          spill volume, repartition passes, budget fallbacks, groups
          emitted by aggregation, rows decoded at the ResultSet boundary,
          property-path rows emitted, bound joins and the ids they
          restricted) plus the configured join budget and fan-out,
        * ``path_index`` — the per-predicate reachability-index LRU behind
          transitive property paths: the byte budget, resident
          entries/bytes, build / hit / miss / eviction counts and the probes
          answered from closure postings,
        * ``load`` — the last :meth:`load`: wall time of the RDF → graph
          transform in ms and the vertex / edge counts of the graph it built
          (None before the first load).
        """
        plan_cache: Optional[Dict[str, int]] = None
        if self.plan_cache is not None:
            plan_cache = self.plan_cache.counters()
        transport: Optional[Dict[str, int]] = None
        if self._executor is not None:
            shard = self._executor.pool.transport
            transport = {
                "queue_batches": shard.queue_batches,
                "solutions": shard.solutions,
            }
        region_cache: Optional[Dict[str, int]] = None
        if self._executor is not None:
            region_cache = self._executor.pool.region_cache_counters()
        elif self.region_cache is not None:
            region_cache = self.region_cache.counters()
        if self._path_manager is not None:
            path_index = self._path_manager.stats()
        else:
            path_index = {
                "budget_bytes": DEFAULT_PATH_INDEX_BYTES,
                "entries": 0,
                "bytes": 0,
                **PathIndexCounters().snapshot(),
            }
        return {
            "workers": self.workers,
            "plan_cache": plan_cache,
            "parse_cache": (
                self.parse_cache.counters() if self.parse_cache is not None else None
            ),
            "region_cache": region_cache,
            "pipeline": {
                "batches": self.pipeline_counters.batches,
                "solutions": self.pipeline_counters.solutions,
            },
            "transport": transport,
            "operators": {
                "join_memory_bytes": self.join_memory_bytes,
                "join_partitions": self.join_partitions,
                **self.operator_context.counters.snapshot(),
            },
            "path_index": path_index,
            "load": dict(self._load_stats) if self._load_stats is not None else None,
        }

    def close(self) -> None:
        """Shut down the shard executor and spill storage.

        Safe to call repeatedly and safe to call while result streams are
        open: in-flight :meth:`query_batches` streams observe the close
        marker and raise a clear :class:`EngineError` at their next batch
        boundary (the pools retire their jobs first, so that boundary
        arrives instead of deadlocking on a torn-down pool).  The engine
        stays usable — a later query lazily rebuilds the solver and pools.
        """
        # Flip the close marker first (and install a fresh one for streams
        # opened after this close), so a stream racing the teardown below
        # errors out instead of reading from a half-closed pool.
        closed, self._close_event = self._close_event, threading.Event()
        closed.set()
        # Spill files are query-scoped; any that survive here were leaked
        # by an interrupted query (or a crashed worker), so sweep the
        # context's temp directory.  The context stays usable: the next
        # spill recreates its directory lazily.
        self.operator_context.cleanup()
        if self._executor is not None:
            self._executor.close()
            self._executor = None
        # Reachability indexes are graph-scoped: drop them so a reload
        # never serves stale closures.
        if self._path_manager is not None:
            self._path_manager.close()
            self._path_manager = None
        # Drop the memoized solver too: it holds the closed executor,
        # and a later query must build (and the next close() must find) a
        # fresh engine-tracked one instead of resurrecting the old.
        self._solver = None


class TurboHomEngine(TurboEngine):
    """TurboHOM: direct transformation, unoptimized homomorphism matching."""

    name = "TurboHOM"

    def __init__(
        self,
        workers: Optional[int] = None,
        execution_mode: Optional[str] = None,
        plan_cache_size: int = 128,
        region_cache_bytes: Optional[int] = None,
        join_memory_bytes: Optional[int] = None,
        join_partitions: Optional[int] = None,
    ):
        super().__init__(
            type_aware=False,
            config=MatchConfig.homomorphism_baseline(),
            workers=workers,
            execution_mode=execution_mode,
            plan_cache_size=plan_cache_size,
            region_cache_bytes=region_cache_bytes,
            join_memory_bytes=join_memory_bytes,
            join_partitions=join_partitions,
        )


class TurboHomPPEngine(TurboEngine):
    """TurboHOM++: type-aware transformation with all optimizations."""

    name = "TurboHOM++"

    def __init__(
        self,
        config: Optional[MatchConfig] = None,
        workers: Optional[int] = None,
        execution_mode: Optional[str] = None,
        plan_cache_size: int = 128,
        region_cache_bytes: Optional[int] = None,
        join_memory_bytes: Optional[int] = None,
        join_partitions: Optional[int] = None,
    ):
        super().__init__(
            type_aware=True,
            config=config if config is not None else MatchConfig.turbo_hom_pp(),
            workers=workers,
            execution_mode=execution_mode,
            plan_cache_size=plan_cache_size,
            region_cache_bytes=region_cache_bytes,
            join_memory_bytes=join_memory_bytes,
            join_partitions=join_partitions,
        )
