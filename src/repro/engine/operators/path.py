"""Property-path operator: transitive steps over reachability indexes.

:class:`~repro.sparql.ast.PathPattern` leaves (``p+`` / ``p*`` / ``p?``,
optionally inverse) join the group's solution stream like an extra pattern:
each input row constrains the path's endpoints, and the operator emits one
output row per endpoint pair the path relates.  Closure probes go through
the engine's :class:`~repro.graph.reachability.PathIndexManager` — a
closure-posting bisect (or a walk of the condensation DAG) per pair
instead of a BFS — while single-hop steps (``p?``) read the CSR adjacency
windows directly.

:func:`batch_path_apply` is the one kernel.  Endpoint columns stay raw
vertex ids end-to-end (appended through a
:class:`~repro.sparql.binding_batch.BatchBuilder`); only rows whose
endpoints live in the term domain (a constant absent from the graph, an
upstream term-kind column) demote the output columns to terms.  Its
reference is independent of the engine: the tests compare against a
brute-force closure over the store's triples, with and without closure
postings.

Zero-length semantics follow SPARQL 1.1: ``p*``/``p?`` relate every term
to itself, *including* terms that do not occur in the graph (a bound
endpoint always self-matches), and with both endpoints unbound the
zero-length part ranges over the graph's vertices.  Solutions per start
node are sets (the spec's ALP semantics): a cyclic ``p+`` never emits a
duplicate endpoint pair.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.exceptions import EngineError
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.reachability import PathIndexManager
from repro.graph.transform import IMPOSSIBLE, GraphMapping
from repro.rdf.terms import Term
from repro.sparql.ast import PathPattern, Variable
from repro.sparql.binding_batch import (
    KIND_ID,
    KIND_TERM,
    BatchBuilder,
    BindingBatch,
    Decoder,
)

#: A raw endpoint value: a data-vertex id, or a term outside the graph.
PathValue = Union[int, Term]


class PathResolver:
    """Everything path evaluation needs from one engine's loaded dataset.

    Bundles the CSR graph (one-hop adjacency), the graph mapping
    (term → vertex), the engine's :class:`PathIndexManager` (closure
    probes, counters) and its vertex → term decoder.
    Handed out by ``BGPSolver.path_resolver()``; solvers without one cannot
    evaluate :class:`~repro.sparql.ast.PathPattern` leaves.
    """

    __slots__ = ("graph", "mapping", "manager", "decode")

    def __init__(self, graph: LabeledGraph, mapping: GraphMapping,
                 manager: PathIndexManager, decode: Decoder):
        self.graph = graph
        self.mapping = mapping
        self.manager = manager
        #: The engine's id → term decoder, also attached to emitted batches.
        self.decode = decode

    # ------------------------------------------------------------------ terms
    def edge_label(self, predicate: Term) -> Optional[int]:
        """The predicate's edge label, or None when no such edge exists.

        Predicate ids double as edge labels in both graph transformations;
        a predicate the dictionary never saw labels no edge, so the path's
        1+-hop part is empty (zero-length self-matches still apply).
        """
        return self.mapping.dictionary.lookup_predicate(predicate)

    def vertex_for_term(self, term: Term) -> int:
        """The term's data vertex, or ``IMPOSSIBLE`` when it has none.

        Terms without a vertex (unknown terms; class IRIs under the
        type-aware transformation) only participate in zero-length
        self-matches.
        """
        node_id = self.mapping.dictionary.lookup_node(term)
        if node_id is None:
            return IMPOSSIBLE
        return self.mapping.vertex_for_node(node_id)

    # -------------------------------------------------------------- adjacency
    def targets(self, edge_label: int, vertex: int) -> List[int]:
        """Distinct one-hop targets of ``vertex`` (sorted CSR window)."""
        base, lo, hi = self.graph.out_window(vertex, edge_label)
        return _distinct_sorted(base, lo, hi)

    def sources(self, edge_label: int, vertex: int) -> List[int]:
        """Distinct one-hop sources reaching ``vertex``."""
        base, lo, hi = self.graph.in_window(vertex, edge_label)
        return _distinct_sorted(base, lo, hi)

    def has_edge(self, edge_label: int, source: int, target: int) -> bool:
        """Direct-edge test (the ``p?`` probe; no index involved)."""
        return self.graph.has_edge(source, target, edge_label)

    def start_vertices(self, edge_label: int) -> List[int]:
        """Sorted vertices with at least one outgoing edge of the label."""
        return self.graph.predicate_subjects(edge_label)

    # ---------------------------------------------------------------- closure
    def reaches(self, edge_label: int, source: int, target: int) -> bool:
        """1+-hop reachability probe (through the manager's index)."""
        return self.manager.reaches(edge_label, source, target)

    def closure_from(self, edge_label: int, source: int) -> List[int]:
        """Sorted distinct vertices reachable in 1+ hops."""
        return self.manager.reachable_from(edge_label, source)

    def closure_to(self, edge_label: int, target: int) -> List[int]:
        """Sorted distinct vertices reaching ``target`` in 1+ hops."""
        return self.manager.reaching(edge_label, target)

    def vertices(self) -> range:
        """All data vertices (the zero-length identity's range)."""
        return self.graph.vertices()


def _distinct_sorted(base: Sequence[int], lo: int, hi: int) -> List[int]:
    """Distinct values of a sorted window run (multigraph edges collapse)."""
    result: List[int] = []
    previous = None
    for i in range(lo, hi):
        value = base[i]
        if value != previous:
            result.append(value)
            previous = value
    return result


# -------------------------------------------------------------- pair kernel
def _pairs(
    path: PathPattern,
    resolver: PathResolver,
    edge_label: Optional[int],
    start: Optional[PathValue],
    end: Optional[PathValue],
    same_variable: bool,
) -> Iterator[Tuple[PathValue, PathValue]]:
    """Endpoint pairs the path relates, under one row's constraints.

    ``start``/``end`` are in *forward orientation* (an inverse path's
    endpoints were swapped by the caller): a vertex id, a term without a
    vertex, or None for unbound.  ``same_variable`` constrains both
    endpoints to the same unbound variable (``?x p+ ?x``).  Pairs are
    distinct per start node (ALP set semantics).
    """
    zero = path.min_hops == 0
    single = path.max_hops == 1

    start_is_term = start is not None and not isinstance(start, int)
    end_is_term = end is not None and not isinstance(end, int)
    if start_is_term or end_is_term:
        # A non-vertex endpoint only self-matches (zero-length).
        if not zero:
            return
        if start is not None and end is not None:
            if start == end:
                yield start, end
        elif start is not None:
            yield start, start
        else:
            yield end, end
        return

    if start is not None and end is not None:
        if _related(path, resolver, edge_label, start, end, zero, single):
            yield start, end
        return

    if start is not None:
        values = _forward_set(path, resolver, edge_label, start, zero, single)
        for value in values:
            yield start, value
        return

    if end is not None:
        values = _backward_set(path, resolver, edge_label, end, zero, single)
        for value in values:
            yield value, end
        return

    # Both endpoints unbound: zero-length identity over every vertex, plus
    # the 1+-hop pairs from every vertex with an outgoing edge.
    if zero:
        for vertex in resolver.vertices():
            yield vertex, vertex
    if edge_label is None:
        return
    for source in resolver.start_vertices(edge_label):
        if single:
            values: Iterable[int] = resolver.targets(edge_label, source)
        else:
            values = resolver.closure_from(edge_label, source)
        for value in values:
            if zero and value == source:
                continue  # already emitted by the identity part
            if same_variable and value != source:
                continue
            yield source, value


def _related(
    path: PathPattern,
    resolver: PathResolver,
    edge_label: Optional[int],
    start: int,
    end: int,
    zero: bool,
    single: bool,
) -> bool:
    """Does the path relate two bound vertices?"""
    if zero and start == end:
        return True
    if edge_label is None:
        return False
    if single:
        return resolver.has_edge(edge_label, start, end)
    return resolver.reaches(edge_label, start, end)


def _forward_set(
    path: PathPattern,
    resolver: PathResolver,
    edge_label: Optional[int],
    start: int,
    zero: bool,
    single: bool,
) -> List[int]:
    """Distinct end vertices of paths from a bound start vertex."""
    if edge_label is None:
        return [start] if zero else []
    if single:
        values = resolver.targets(edge_label, start)
    else:
        values = resolver.closure_from(edge_label, start)
    if zero and not _contains(values, start):
        values = sorted(values + [start])
    return values


def _backward_set(
    path: PathPattern,
    resolver: PathResolver,
    edge_label: Optional[int],
    end: int,
    zero: bool,
    single: bool,
) -> List[int]:
    """Distinct start vertices of paths into a bound end vertex."""
    if edge_label is None:
        return [end] if zero else []
    if single:
        values = resolver.sources(edge_label, end)
    else:
        values = resolver.closure_to(edge_label, end)
    if zero and not _contains(values, end):
        values = sorted(values + [end])
    return values


def _contains(values: Sequence[int], needle: int) -> bool:
    from bisect import bisect_left

    i = bisect_left(values, needle)
    return i < len(values) and values[i] == needle


# ------------------------------------------------------------ batch operator
def batch_path_apply(
    stream: Iterator[BindingBatch],
    path: PathPattern,
    resolver: PathResolver,
    context,
) -> Iterator[BindingBatch]:
    """Join one :class:`PathPattern` into a batch stream.

    Endpoint variables already bound by a row constrain the path (a null
    cell is unbound, matching the join algebra's wildcard semantics);
    unbound endpoint variables are appended as new columns — id columns on
    the hot path, term columns only when a term-domain endpoint forces it.
    """
    counters = context.counters
    edge_label = resolver.edge_label(path.predicate)
    subject, obj = path.subject, path.object
    if path.inverse:
        start_term, end_term = obj, subject
    else:
        start_term, end_term = subject, obj
    same_variable = (
        isinstance(start_term, Variable)
        and isinstance(end_term, Variable)
        and str(start_term) == str(end_term)
    )
    start_var = str(start_term) if isinstance(start_term, Variable) else None
    end_var = str(end_term) if isinstance(end_term, Variable) else None
    endpoint_vars: List[str] = []
    for name in (start_var, end_var):
        if name is not None and name not in endpoint_vars:
            endpoint_vars.append(name)

    const_values: List[Optional[PathValue]] = []
    for endpoint in (start_term, end_term):
        if isinstance(endpoint, Variable):
            const_values.append(None)
        else:
            vertex = resolver.vertex_for_term(endpoint)
            const_values.append(endpoint if vertex < 0 else vertex)
    const_start, const_end = const_values
    # A constant endpoint without a vertex forces endpoint columns into the
    # term domain (its self-match value is the term itself).
    term_forced = any(
        value is not None and not isinstance(value, int) for value in const_values
    )

    for batch in stream:
        # Endpoint columns leave in the id domain unless some input forces
        # terms; an existing id column a term value must fill (null cells
        # under an absent-term constant) demotes to terms batch-wide.
        term_mode = term_forced or any(
            batch.kind(name) == KIND_TERM for name in endpoint_vars
        )
        variables = list(batch.variables)
        kinds = dict(batch.kinds)
        for name in endpoint_vars:
            if name in kinds:
                if term_mode:
                    kinds[name] = KIND_TERM
            else:
                variables.append(name)
                kinds[name] = KIND_TERM if term_mode else KIND_ID
        builder = BatchBuilder(variables, kinds, resolver.decode)

        for row in range(batch.rows):
            start = (
                const_start
                if start_var is None
                else _row_value(batch, start_var, row, resolver)
            )
            end = (
                const_end
                if end_var is None
                else _row_value(batch, end_var, row, resolver)
            )
            for pair_start, pair_end in _pairs(
                path, resolver, edge_label, start, end, same_variable
            ):
                filled = {}
                if start_var is not None:
                    filled[start_var] = pair_start
                if end_var is not None:
                    filled[end_var] = pair_end
                values: List[object] = []
                for var in variables:
                    if var in filled:
                        value: object = filled[var]
                    else:
                        value = batch.raw(var, row)
                    if (
                        kinds[var] == KIND_TERM
                        and isinstance(value, int)
                    ):
                        value = resolver.decode(value)
                    values.append(value)
                builder.append(values)
                counters.path_rows_emitted += 1
        if builder.rows:
            yield builder.batch()


def _row_value(
    batch: BindingBatch, var: str, row: int, resolver: PathResolver
) -> Optional[PathValue]:
    """One endpoint cell as a path value: vertex id, non-vertex term, or None."""
    value = batch.raw(var, row)
    if value is None or isinstance(value, int):
        return value
    vertex = resolver.vertex_for_term(value)
    return value if vertex < 0 else vertex


def require_path_resolver(solver) -> PathResolver:
    """The solver's path resolver, or a clear error for solvers without one."""
    resolver = solver.path_resolver()
    if resolver is None:
        raise EngineError(
            "this BGP solver does not support property paths "
            "(no path resolver configured)"
        )
    return resolver
