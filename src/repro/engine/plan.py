"""The compile side of the compile-once / stream-everywhere split.

TurboHOM++ wins by doing per-query preparation once and then streaming
matches.  :func:`compile_query` performs *all* of that preparation for a
SPARQL basic graph pattern —

* the (direct or type-aware) query-graph transformation, including the
  expansion of variable-predicate patterns into their edge / rdf:type
  interpretation alternatives,
* the split into connected components, each with its precompiled
  :class:`~repro.matching.turbo.PreparedQuery` (start query vertex, start
  data vertices, query tree, degree/NLF filter requirements, shared
  ``+REUSE`` matching-order slot),
* push-down predicate closures compiled from the inexpensive single-variable
  filters,
* the binder tables for predicate variables (which query edges constrain
  each ``?p``) and for ``?x rdf:type ?t`` type variables

— and packages it into an immutable :class:`QueryPlan`.  Execution
(:mod:`repro.engine.turbo_engine`) only streams: it never transforms,
ranks start vertices, writes query trees or classifies filters.  Combined
with the :class:`~repro.engine.plan_cache.PlanCache`, every instance of a
query template after the first skips this compile: :meth:`QueryPlan.bind`
points the cached plan's slot vertices at the instance's constants (see
``docs/caching.md``, "Template plans").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import EMPTY_LABELS, QueryGraph, QueryVertex
from repro.graph.transform import (
    IMPOSSIBLE,
    GraphMapping,
    QueryTransformResult,
    constant_vertex_name,
    direct_transform_query,
    type_aware_transform_query,
)
from repro.matching.candidate_region import VertexPredicate
from repro.matching.config import MatchConfig
from repro.matching.matching_order import OrderCache
from repro.matching.query_tree import QueryTree, write_query_tree
from repro.matching.start_vertex import candidate_start_vertices, filter_start_candidates
from repro.matching.turbo import PreparedQuery, prepare_query
from repro.rdf.namespaces import RDF, RDF_TYPE
from repro.rdf.terms import Term
from repro.sparql import expressions as expr
from repro.sparql.ast import PathPattern, TriplePattern, Variable


@dataclass
class ComponentPlan:
    """One connected component of the transformed query, ready to execute."""

    #: The component's standalone query graph.
    query: QueryGraph
    #: Precompiled matcher state (start vertex/candidates, tree, filter
    #: requirements, shared matching-order slot).
    prepared: PreparedQuery
    #: Push-down predicate closures, keyed by component query-vertex index.
    pushdown: Dict[int, VertexPredicate] = field(default_factory=dict)
    #: For each predicate variable: the (source, target) component vertex
    #: index pairs of the query edges it labels (the ``Me`` binder input).
    predicate_variable_edges: Dict[str, List[Tuple[int, int]]] = field(default_factory=dict)
    #: Query trees and ``+REUSE`` order slots re-rooted at another vertex,
    #: by root; filled on demand by :meth:`rooted_at`.
    reroots: Dict[int, Tuple[QueryTree, OrderCache]] = field(default_factory=dict)
    #: ``(vertex index, slot)`` of each constant vertex whose ``vertex_id``
    #: is a slot constant's data vertex.
    id_slots: Tuple[Tuple[int, int], ...] = ()
    #: ``(vertex index, slots, fixed labels)`` of each vertex whose labels
    #: include slot constants: the direct transformation's constants, and
    #: the objects of variable-predicate patterns read as ``rdf:type``.
    label_slots: Tuple[Tuple[int, Tuple[int, ...], FrozenSet[int]], ...] = ()

    def rooted_at(self, root: int) -> Tuple[QueryTree, OrderCache]:
        """The component's query tree rooted at ``root``, with its order slot.

        A bound join roots a component at a restricted vertex the way
        ``choose_start`` roots it at a constant; the tree depends only on
        the query graph and the root, so each one is built once per plan.
        """
        rerooted = self.reroots.get(root)
        if rerooted is None:
            rerooted = (write_query_tree(self.query, root), OrderCache())
            self.reroots[root] = rerooted
        return rerooted

    def bind(
        self,
        vertex_ids: Sequence[int],
        labels: Sequence[int],
        graph: LabeledGraph,
        config: MatchConfig,
    ) -> "ComponentPlan":
        """This component with its slot vertices set to another instance's
        data vertex ids / labels (both indexed by slot).

        A shallow query-graph copy carries the new vertices.  When only
        ``vertex_id`` attributes change, the tree, requirements, push-down
        predicates, ``+REUSE`` slot and re-rooted trees are shared with the
        template, and the start candidates are recomputed only when the
        start vertex is a slot (one id, O(1)).  Labels steer the start
        choice and the NLF requirements, so a component with label slots
        is prepared afresh.
        """
        if not (self.id_slots or self.label_slots):
            return self
        vertices = list(self.query.vertices)
        for index, slot in self.id_slots:
            vertex = vertices[index]
            vertices[index] = QueryVertex(
                index, vertex.name, vertex.labels, vertex_ids[slot], vertex.is_variable
            )
        for index, slots, fixed in self.label_slots:
            vertex = vertices[index]
            vertices[index] = QueryVertex(
                index, vertex.name, fixed | frozenset(labels[slot] for slot in slots),
                vertex.vertex_id, vertex.is_variable,
            )
        query = self.query.with_vertices(vertices)
        if self.label_slots:
            prepared, reroots = prepare_query(graph, query, config), {}
        else:
            template = self.prepared
            start = template.start_vertex
            candidates = template.start_candidates
            if any(index == start for index, _ in self.id_slots):
                candidates = filter_start_candidates(
                    graph, query, start, candidate_start_vertices(graph, query, start), config
                )
            prepared = PreparedQuery(
                query, start, candidates, template.tree, template.requirements,
                template.order_cache,
            )
            reroots = self.reroots
        return ComponentPlan(
            query, prepared, self.pushdown, self.predicate_variable_edges, reroots,
            self.id_slots, self.label_slots,
        )


@dataclass
class TypeVariableBinder:
    """Precompiled resolution of one ``?x rdf:type ?t`` pattern."""

    #: Name of the subject's query vertex (a variable name or synthetic
    #: constant name).
    subject_name: str
    #: The type variable to bind from the matched vertex's label set.
    type_variable: str
    #: True when the subject is itself a variable (bound in the solution).
    subject_is_variable: bool
    #: The subject's concrete data vertex id when it is a constant
    #: (``None``/negative means unsatisfiable).
    subject_vertex_id: Optional[int]
    #: The slot holding the constant subject (None for a variable subject).
    subject_slot: Optional[int] = None


@dataclass
class AlternativePlan:
    """One interpretation of the BGP's variable predicates.

    Under the type-aware transformation a variable-predicate pattern has two
    disjoint interpretations — an ordinary edge or ``rdf:type`` — so a BGP
    with ``n`` such patterns compiles into ``2**n`` alternatives whose
    solutions are concatenated.  The direct transformation always yields a
    single alternative.
    """

    #: Predicate variables this alternative forces to ``rdf:type``.
    forced: Dict[str, Term]
    #: Connected components, matched independently and cross-producted.
    components: List[ComponentPlan]
    #: Binder table for ``?x rdf:type ?t`` patterns of this alternative
    #: (everything execution needs from the transform result — the full
    #: :class:`QueryTransformResult` is deliberately not retained, keeping
    #: cached plans small).
    type_binders: List[TypeVariableBinder] = field(default_factory=list)

    def bind(
        self,
        vertex_ids: Sequence[int],
        labels: Sequence[int],
        graph: LabeledGraph,
        config: MatchConfig,
    ) -> "AlternativePlan":
        """This alternative bound to another instance's slot constants."""
        return AlternativePlan(
            forced=self.forced,
            components=[
                component.bind(vertex_ids, labels, graph, config)
                for component in self.components
            ],
            type_binders=[
                binder if binder.subject_slot is None
                else replace(binder, subject_vertex_id=vertex_ids[binder.subject_slot])
                for binder in self.type_binders
            ],
        )


@dataclass
class QueryPlan:
    """A fully compiled basic graph pattern.

    Plans are picklable: shard worker processes rehydrate them from the
    canonical ``fingerprint`` into per-worker plan caches (the push-down
    predicates drop their graph mapping on pickle and are re-bound worker
    side, see :class:`PushdownPredicate`).
    """

    alternatives: List[AlternativePlan]
    #: Template key of the BGP (set by the solver, see
    #: :func:`~repro.engine.plan_cache.bgp_fingerprint`); None for a plan
    #: nothing addresses.
    template_key: Optional[object] = None
    #: Dictionary node ids of the slot constants this plan is bound to
    #: (``IMPOSSIBLE`` for a term the data lacks), by slot.
    slot_nodes: Tuple[int, ...] = ()

    @property
    def fingerprint(self) -> Optional[object]:
        """``(template key, slot node ids)``: the per-instance address of
        the plan's candidate regions and of its shard-worker payloads."""
        if self.template_key is None:
            return None
        return (self.template_key, self.slot_nodes)

    def bind(
        self,
        slot_nodes: Tuple[int, ...],
        graph: LabeledGraph,
        mapping: GraphMapping,
        config: MatchConfig,
    ) -> "QueryPlan":
        """This template plan bound to an instance with other slot constants.

        Each slot node id maps to its data vertex and to its label exactly
        as the query transformations map a constant.  Nothing is compiled:
        see :meth:`ComponentPlan.bind`.
        """
        if slot_nodes == self.slot_nodes:
            return self
        vertex_ids = [mapping.vertex_for_node(node) for node in slot_nodes]
        return QueryPlan(
            [
                alternative.bind(vertex_ids, slot_nodes, graph, config)
                for alternative in self.alternatives
            ],
            self.template_key,
            slot_nodes,
        )

    def supports_direct_limit(self) -> bool:
        """True when a result limit may be pushed into the matcher itself.

        Safe only when nothing downstream of the raw matcher stream can drop
        or multiply solutions: a single alternative with a single component
        and no predicate-variable or type-variable expansion.
        """
        if len(self.alternatives) != 1:
            return False
        alternative = self.alternatives[0]
        if alternative.forced or alternative.type_binders:
            return False
        if len(alternative.components) != 1:
            return False
        return not alternative.components[0].predicate_variable_edges


def compose_plan_shape(
    shape: Optional[str], paths: Sequence[PathPattern]
) -> Optional[str]:
    """Fold a group's path patterns into its plan-shape fingerprint part.

    The shape string joins the aggregate shape in the plan-cache key (see
    :func:`repro.engine.plan_cache.bgp_fingerprint`), so a BGP evaluated
    under different surrounding path patterns never shares a cached plan
    slot with its path-free twin.  Path order is canonicalized by sorting;
    groups without paths keep their shape (and their cache keys) unchanged.
    """
    if not paths:
        return shape
    part = "paths[" + ";".join(sorted(p.fingerprint() for p in paths)) + "]"
    return part if shape is None else f"{shape}|{part}"


def slot_node_ids(constants: Sequence[Term], mapping: GraphMapping) -> Tuple[int, ...]:
    """Dictionary node id of each slot constant (``IMPOSSIBLE`` when absent)."""
    lookup = mapping.dictionary.lookup_node
    nodes = []
    for term in constants:
        node = lookup(term)
        nodes.append(IMPOSSIBLE if node is None else node)
    return tuple(nodes)


def compile_query(
    patterns: Sequence[TriplePattern],
    cheap_filters: Sequence[expr.Expression],
    graph: LabeledGraph,
    mapping: GraphMapping,
    config: MatchConfig,
    type_aware: bool,
    slots: Sequence[Term] = (),
) -> QueryPlan:
    """Compile a basic graph pattern (plus push-down filters) into a plan.

    ``slots`` are the constants :func:`~repro.engine.plan_cache.bgp_fingerprint`
    lifted out of the template key; the plan records which query vertices
    hold them, so :meth:`QueryPlan.bind` can serve the template's other
    instances.
    """
    slot_of = {constant_vertex_name(term): slot for slot, term in enumerate(slots)}
    alternatives: List[AlternativePlan] = []
    for rewritten, forced in _predicate_interpretations(patterns, type_aware):
        transformed = _transform(rewritten, mapping, type_aware)
        # Type-aware labels take slots only from patterns read as rdf:type.
        label_slots = (
            _label_slots(patterns, rewritten, slot_of, mapping, type_aware)
            if slot_of and (forced or not type_aware) else {}
        )
        components = _component_plans(
            transformed.query_graph, cheap_filters, graph, mapping, config,
            slot_of, label_slots,
        )
        alternatives.append(
            AlternativePlan(
                forced=forced,
                components=components,
                type_binders=_type_binders(transformed, slot_of),
            )
        )
    return QueryPlan(alternatives=alternatives, slot_nodes=slot_node_ids(slots, mapping))


# ------------------------------------------------------------- interpretation
def _predicate_interpretations(
    patterns: Sequence[TriplePattern],
    type_aware: bool,
) -> List[Tuple[List[TriplePattern], Dict[str, Term]]]:
    """Expand variable predicates into their edge / rdf:type alternatives.

    Under the type-aware transformation rdf:type is not an edge, so a
    pattern with a *variable* predicate must additionally consider the
    interpretation "the predicate is rdf:type".  The interpretations are
    disjoint (no rdf:type edges exist in the graph), so executing all
    alternatives and concatenating needs no deduplication.
    """
    if not type_aware:
        return [(list(patterns), {})]
    variable_predicate_indices = [
        index
        for index, pattern in enumerate(patterns)
        if isinstance(pattern.predicate, Variable)
    ]
    if not variable_predicate_indices:
        return [(list(patterns), {})]
    interpretations: List[Tuple[List[TriplePattern], Dict[str, Term]]] = []
    for choice in itertools.product(("edge", "type"), repeat=len(variable_predicate_indices)):
        rewritten = list(patterns)
        forced: Dict[str, Term] = {}
        for position, interpretation in zip(variable_predicate_indices, choice):
            if interpretation == "type":
                original = patterns[position]
                rewritten[position] = TriplePattern(
                    original.subject, RDF.type, original.object
                )
                forced[str(original.predicate)] = RDF.type
        interpretations.append((rewritten, forced))
    return interpretations


def _transform(
    patterns: Sequence[TriplePattern],
    mapping: GraphMapping,
    type_aware: bool,
) -> QueryTransformResult:
    if type_aware:
        return type_aware_transform_query(patterns, mapping)
    return direct_transform_query(patterns, mapping)


# ----------------------------------------------------------------------- slots
def _vertex_name(term) -> str:
    """Query-vertex name of a pattern term, as the transformations name it."""
    return str(term) if isinstance(term, Variable) else constant_vertex_name(term)


def _label_slots(
    patterns: Sequence[TriplePattern],
    rewritten: Sequence[TriplePattern],
    slot_of: Dict[str, int],
    mapping: GraphMapping,
    type_aware: bool,
) -> Dict[str, Tuple[Tuple[int, ...], FrozenSet[int]]]:
    """Vertices whose labels include slot constants: name → (slots, fixed labels).

    Under the direct transformation every constant vertex is labelled with
    its own node id.  Under the type-aware one, a variable-predicate
    pattern read as ``rdf:type`` folds its constant object (a slot) into the
    subject's labels, beside the fixed classes of real ``rdf:type``
    patterns on the same subject.
    """
    if not type_aware:
        return {name: ((slot,), EMPTY_LABELS) for name, slot in slot_of.items()}
    sources: Dict[str, List[int]] = {}
    for original, pattern in zip(patterns, rewritten):
        if pattern is not original and not isinstance(pattern.object, Variable):
            sources.setdefault(_vertex_name(pattern.subject), []).append(
                slot_of[constant_vertex_name(pattern.object)]
            )
    if not sources:
        return {}
    fixed: Dict[str, Set[int]] = {}
    for original, pattern in zip(patterns, rewritten):
        name = _vertex_name(pattern.subject)
        if (
            pattern is original
            and name in sources
            and not isinstance(pattern.predicate, Variable)
            and pattern.predicate == RDF_TYPE
            and not isinstance(pattern.object, Variable)
        ):
            node = mapping.dictionary.lookup_node(pattern.object)
            fixed.setdefault(name, set()).add(IMPOSSIBLE if node is None else node)
    return {
        name: (tuple(slots), frozenset(fixed.get(name, ())))
        for name, slots in sources.items()
    }


# ------------------------------------------------------------------ components
def _component_plans(
    query: QueryGraph,
    cheap_filters: Sequence[expr.Expression],
    graph: LabeledGraph,
    mapping: GraphMapping,
    config: MatchConfig,
    slot_of: Dict[str, int],
    label_slots: Dict[str, Tuple[Tuple[int, ...], FrozenSet[int]]],
) -> List[ComponentPlan]:
    plans: List[ComponentPlan] = []
    for component in query.connected_components():
        subquery = _extract_component(query, component)
        plans.append(
            ComponentPlan(
                query=subquery,
                prepared=prepare_query(graph, subquery, config),
                pushdown=_vertex_predicates(subquery, cheap_filters, mapping),
                predicate_variable_edges=_predicate_variable_edges(subquery),
                id_slots=tuple(
                    (vertex.index, slot_of[vertex.name])
                    for vertex in subquery.vertices
                    if vertex.vertex_id is not None and vertex.name in slot_of
                ),
                label_slots=tuple(
                    (vertex.index, *label_slots[vertex.name])
                    for vertex in subquery.vertices
                    if vertex.name in label_slots
                ),
            )
        )
    return plans


def _extract_component(query: QueryGraph, component: List[int]) -> QueryGraph:
    """Copy one connected component into a standalone query graph."""
    if len(component) == query.vertex_count():
        return query
    subquery = QueryGraph()
    index_map: Dict[int, int] = {}
    for old_index in component:
        vertex = query.vertices[old_index]
        new_index = subquery.add_vertex(
            vertex.name, vertex.labels, vertex.vertex_id, vertex.is_variable
        )
        index_map[old_index] = new_index
    in_component = set(component)
    for edge in query.edges:
        if edge.source in in_component and edge.target in in_component:
            subquery.add_edge(
                index_map[edge.source],
                index_map[edge.target],
                edge.label,
                edge.predicate_variable,
            )
    return subquery


def _predicate_variable_edges(query: QueryGraph) -> Dict[str, List[Tuple[int, int]]]:
    """Endpoint pairs of each predicate variable's edges, for ``Me`` binding."""
    edges: Dict[str, List[Tuple[int, int]]] = {}
    for edge in query.edges:
        if edge.predicate_variable:
            edges.setdefault(edge.predicate_variable, []).append((edge.source, edge.target))
    return edges


class PushdownPredicate:
    """A compiled single-variable filter, applied during candidate generation.

    Callable like the closure it replaces, but picklable: the graph mapping
    (which holds the full term dictionary) is dropped on pickle and
    re-injected with :meth:`bind` after rehydration in a shard worker, so a
    shipped plan carries only the variable name and filter expressions.
    """

    __slots__ = ("name", "conditions", "_mapping")

    def __init__(
        self,
        name: str,
        conditions: Sequence[expr.Expression],
        mapping: Optional[GraphMapping],
    ):
        self.name = name
        self.conditions = list(conditions)
        self._mapping = mapping

    def bind(self, mapping: GraphMapping) -> None:
        """Attach the mapping of the process this predicate now runs in."""
        self._mapping = mapping

    def __call__(self, data_vertex: int) -> bool:
        if self._mapping is None:
            raise RuntimeError(
                "PushdownPredicate used before bind(); rehydrated plans must be "
                "bound to a graph mapping first"
            )
        binding = {self.name: self._mapping.term_for_vertex(data_vertex)}
        return all(expr.evaluate_filter(c, binding) for c in self.conditions)

    def __getstate__(self):
        return (self.name, self.conditions)

    def __setstate__(self, state):
        self.name, self.conditions = state
        self._mapping = None


def _vertex_predicates(
    query: QueryGraph,
    cheap_filters: Sequence[expr.Expression],
    mapping: GraphMapping,
) -> Dict[int, VertexPredicate]:
    """Compile single-variable filters into candidate-generation predicates."""
    predicates: Dict[int, VertexPredicate] = {}
    if not cheap_filters:
        return predicates
    by_variable: Dict[str, List[expr.Expression]] = {}
    for condition in cheap_filters:
        variables = set(condition.variables())
        if len(variables) != 1:
            continue
        by_variable.setdefault(next(iter(variables)), []).append(condition)
    for vertex in query.vertices:
        if not vertex.is_variable or vertex.name not in by_variable:
            continue
        predicates[vertex.index] = PushdownPredicate(
            vertex.name, by_variable[vertex.name], mapping
        )
    return predicates


# ------------------------------------------------------------- type variables
def _type_binders(
    transformed: QueryTransformResult, slot_of: Dict[str, int]
) -> List[TypeVariableBinder]:
    """Resolve each ``?x rdf:type ?t`` pattern's subject vertex at compile time."""
    binders: List[TypeVariableBinder] = []
    for subject_name, type_variable in transformed.type_variable_patterns:
        vertex_index = transformed.query_graph.vertex_index(subject_name)
        if vertex_index is None:
            # The subject vertex vanished from the query graph — the pattern
            # can never be satisfied.
            binders.append(TypeVariableBinder(subject_name, type_variable, False, None))
            continue
        subject_vertex = transformed.query_graph.vertices[vertex_index]
        binders.append(
            TypeVariableBinder(
                subject_name,
                type_variable,
                subject_vertex.is_variable,
                subject_vertex.vertex_id,
                None if subject_vertex.is_variable else slot_of.get(subject_name),
            )
        )
    return binders
