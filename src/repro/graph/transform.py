"""RDF ⟷ labeled-graph transformations (Sections 3.2 and 4.1).

Two transformations of a dictionary-encoded :class:`TripleStore` are
provided:

* :func:`direct_transform` — every subject/object becomes a vertex whose
  label set is ``{its own id}``; every triple becomes an edge labeled by its
  predicate id (Figure 4).  ``rdf:type`` edges are kept as ordinary edges.
* :func:`type_aware_transform` — the two-attribute vertex model (Figure 7,
  Definition 3): ``rdf:type`` / ``rdfs:subClassOf`` triples are folded into
  vertex label sets (type ids), the class vertices disappear, and the
  remaining triples become edges.

Both hand the vertex count, the label sets and the edge list to
:class:`LabeledGraph` in one call.  The type-aware transformation computes
the superclass closure once per distinct set of direct types and shares the
resulting frozenset among every vertex with that set.

The corresponding query transformations convert a SPARQL basic graph pattern
into a :class:`QueryGraph` against the matching data graph.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.graph.labeled_graph import EMPTY_LABELS, LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.rdf.dictionary import Dictionary
from repro.rdf.namespaces import RDF, RDFS
from repro.rdf.store import TripleStore
from repro.rdf.terms import Term
from repro.sparql.ast import TriplePattern, Variable

#: Label / vertex-id sentinel guaranteed not to exist in any data graph.
#: Query constants that are unknown to the dictionary map to it, which makes
#: the corresponding candidate set empty and the query return zero solutions.
IMPOSSIBLE = -1


@dataclass
class GraphMapping:
    """Book-keeping connecting dictionary node ids to graph vertex ids.

    For the direct transformation the mapping is the identity.  For the
    type-aware transformation, class nodes are dropped and the remaining
    nodes are renumbered densely; vertex labels are class node ids.
    """

    kind: str
    dictionary: Dictionary
    node_to_vertex: Optional[Dict[int, int]] = None
    vertex_to_node: Optional[List[int]] = None
    type_predicates: FrozenSet[int] = frozenset()

    def vertex_for_node(self, node_id: int) -> int:
        """Graph vertex for a dictionary node id (IMPOSSIBLE if absent)."""
        if self.node_to_vertex is None:
            return node_id
        return self.node_to_vertex.get(node_id, IMPOSSIBLE)

    def node_for_vertex(self, vertex: int) -> int:
        """Dictionary node id for a graph vertex."""
        if self.vertex_to_node is None:
            return vertex
        return self.vertex_to_node[vertex]

    def term_for_vertex(self, vertex: int) -> Term:
        """Decode a graph vertex back to its RDF term."""
        return self.dictionary.decode_node(self.node_for_vertex(vertex))

    def vertex_terms(self) -> List[Optional[Term]]:
        """The vertex → term table: ``table[v]`` is vertex ``v``'s term.

        A trailing ``None`` slot makes ``table[NULL_ID]`` (−1) ``None``, so
        ``table.__getitem__`` decodes a whole id column with no null branch.
        One 8 B list slot per vertex: the terms are the dictionary's objects.
        """
        nodes = self.vertex_to_node
        if nodes is None:
            nodes = range(self.dictionary.node_count)
        return [*map(self.dictionary.decode_node, nodes), None]

    def term_for_label(self, label: int) -> Term:
        """Decode a vertex label back to its RDF term (class IRI)."""
        return self.dictionary.decode_node(label)

    def term_for_edge_label(self, edge_label: int) -> Term:
        """Decode an edge label back to its predicate IRI."""
        return self.dictionary.decode_predicate(edge_label)


@dataclass
class TransformStats:
    """Size statistics of a transformed graph (Table 1 rows)."""

    name: str
    kind: str
    vertices: int
    edges: int

    def as_row(self) -> Dict[str, object]:
        """Render as a flat dict for the benchmark tables."""
        return {"dataset": self.name, "transform": self.kind, "|V|": self.vertices, "|E|": self.edges}


def _type_predicate_ids(dictionary: Dictionary) -> Tuple[Optional[int], Optional[int]]:
    """Ids of rdf:type and rdfs:subClassOf, when present in the data."""
    return (
        dictionary.lookup_predicate(RDF.type),
        dictionary.lookup_predicate(RDFS.subClassOf),
    )


# --------------------------------------------------------------------- direct
def direct_transform(store: TripleStore) -> Tuple[LabeledGraph, GraphMapping]:
    """Direct transformation of an RDF store (Section 3.2).

    Every node id becomes a vertex labeled with its own id; every triple
    becomes an edge labeled by its predicate id.
    """
    dictionary = store.dictionary
    vertex_count = dictionary.node_count
    labels = [frozenset((node_id,)) for node_id in range(vertex_count)]
    graph = LabeledGraph(vertex_count, labels, store.iter_triples())
    mapping = GraphMapping(kind="direct", dictionary=dictionary)
    return graph, mapping


# ----------------------------------------------------------------- type-aware
def type_aware_transform(store: TripleStore) -> Tuple[LabeledGraph, GraphMapping]:
    """Type-aware transformation of an RDF store (Definition 3).

    rdf:type / rdfs:subClassOf triples are folded into vertex label sets; the
    class nodes themselves are only materialized as vertices if they also
    participate in ordinary (non-schema) triples.
    """
    dictionary = store.dictionary
    type_pred, subclass_pred = _type_predicate_ids(dictionary)

    # 1. Collect direct types and the subclass hierarchy.
    direct_types: Dict[int, Set[int]] = defaultdict(set)
    superclass_edges: Dict[int, Set[int]] = defaultdict(set)
    data_triples: List[Tuple[int, int, int]] = []
    for s, p, o in store.iter_triples():
        if p == type_pred:
            direct_types[s].add(o)
        elif p == subclass_pred:
            superclass_edges[s].add(o)
        else:
            data_triples.append((s, p, o))

    # 2. Label sets: the direct types plus everything reachable from them
    #    over the subclass hierarchy (Definition 3, rule 7: "there is a path
    #    ... using triples in T't ∪ T'sc").  The closure runs once per
    #    distinct direct-type set, and every vertex with that set shares the
    #    one resulting frozenset.
    closed: Dict[FrozenSet[int], FrozenSet[int]] = {}

    def label_set(types: Set[int]) -> FrozenSet[int]:
        key = frozenset(types)
        labels = closed.get(key)
        if labels is None:
            seen = set(key)
            stack = list(key)
            while stack:
                for parent in superclass_edges.get(stack.pop(), ()):
                    if parent not in seen:
                        seen.add(parent)
                        stack.append(parent)
            labels = closed[key] = frozenset(seen)
        return labels

    # 3. Vertices: subjects/objects of data triples plus subjects of rdf:type
    #    triples, numbered densely in node-id order.
    vertex_nodes: Set[int] = set(direct_types)
    for s, _, o in data_triples:
        vertex_nodes.add(s)
        vertex_nodes.add(o)
    vertex_to_node = sorted(vertex_nodes)
    node_to_vertex = {node: index for index, node in enumerate(vertex_to_node)}
    labels = [
        label_set(direct_types[node]) if node in direct_types else EMPTY_LABELS
        for node in vertex_to_node
    ]
    edges = [(node_to_vertex[s], p, node_to_vertex[o]) for s, p, o in data_triples]
    graph = LabeledGraph(len(vertex_to_node), labels, edges)

    type_predicates = frozenset(
        pid for pid in (type_pred, subclass_pred) if pid is not None
    )
    mapping = GraphMapping(
        kind="type-aware",
        dictionary=dictionary,
        node_to_vertex=node_to_vertex,
        vertex_to_node=vertex_to_node,
        type_predicates=type_predicates,
    )
    return graph, mapping


# --------------------------------------------------------------- query graphs
@dataclass
class QueryTransformResult:
    """A transformed query plus the patterns that could not be embedded.

    ``type_variable_patterns`` holds ``?x rdf:type ?t`` patterns (only
    possible under the type-aware transformation) which the engine resolves
    after matching by enumerating the matched vertex's label set.
    """

    query_graph: QueryGraph
    type_variable_patterns: List[Tuple[str, str]] = field(default_factory=list)


def constant_vertex_name(term: Term) -> str:
    """Synthetic query-vertex name for a constant term."""
    return f"!const:{term!r}"


def direct_transform_query(
    patterns: Sequence[TriplePattern],
    mapping: GraphMapping,
) -> QueryTransformResult:
    """Build the direct-transformation query graph of a BGP (Figure 5).

    Constants become query vertices labeled with their own node id;
    variables become blank-labeled vertices.
    """
    dictionary = mapping.dictionary
    query = QueryGraph()

    def vertex_for(term) -> int:
        if isinstance(term, Variable):
            return query.add_vertex(str(term))
        node_id = dictionary.lookup_node(term)
        label = node_id if node_id is not None else IMPOSSIBLE
        return query.add_vertex(constant_vertex_name(term), frozenset((label,)), is_variable=False)

    for pattern in patterns:
        source = vertex_for(pattern.subject)
        target = vertex_for(pattern.object)
        if isinstance(pattern.predicate, Variable):
            query.add_edge(source, target, None, str(pattern.predicate))
        else:
            pred_id = dictionary.lookup_predicate(pattern.predicate)
            query.add_edge(source, target, pred_id if pred_id is not None else IMPOSSIBLE)
    return QueryTransformResult(query_graph=query)


def type_aware_transform_query(
    patterns: Sequence[TriplePattern],
    mapping: GraphMapping,
) -> QueryTransformResult:
    """Build the type-aware query graph of a BGP (Figure 8).

    ``?x rdf:type C`` patterns with a constant class are folded into the
    label set of ``?x``; patterns whose class is a variable are returned
    separately for post-matching resolution.  Constant subjects/objects use
    the ID attribute of the two-attribute vertex model.
    """
    dictionary = mapping.dictionary
    query = QueryGraph()
    type_variable_patterns: List[Tuple[str, str]] = []

    def vertex_for(term) -> int:
        if isinstance(term, Variable):
            return query.add_vertex(str(term))
        node_id = dictionary.lookup_node(term)
        vertex_id = mapping.vertex_for_node(node_id) if node_id is not None else IMPOSSIBLE
        return query.add_vertex(constant_vertex_name(term), vertex_id=vertex_id, is_variable=False)

    for pattern in patterns:
        predicate = pattern.predicate
        if not isinstance(predicate, Variable) and predicate == RDF.type:
            # Fold the type into the subject's label set when the class is
            # concrete; otherwise defer to post-matching resolution.
            subject_index = vertex_for(pattern.subject)
            if isinstance(pattern.object, Variable):
                type_variable_patterns.append(
                    (query.vertices[subject_index].name, str(pattern.object))
                )
            else:
                class_id = dictionary.lookup_node(pattern.object)
                label = class_id if class_id is not None else IMPOSSIBLE
                query.vertices[subject_index].labels = (
                    query.vertices[subject_index].labels | frozenset((label,))
                )
            continue
        if not isinstance(predicate, Variable) and predicate == RDFS.subClassOf:
            # Schema pattern against a type-aware graph: the edge no longer
            # exists.  Treat it as unsatisfiable rather than silently wrong.
            source = vertex_for(pattern.subject)
            target = vertex_for(pattern.object)
            query.add_edge(source, target, IMPOSSIBLE)
            continue
        source = vertex_for(pattern.subject)
        target = vertex_for(pattern.object)
        if isinstance(predicate, Variable):
            query.add_edge(source, target, None, str(predicate))
        else:
            pred_id = dictionary.lookup_predicate(predicate)
            query.add_edge(source, target, pred_id if pred_id is not None else IMPOSSIBLE)
    return QueryTransformResult(
        query_graph=query,
        type_variable_patterns=type_variable_patterns,
    )


def transform_stats(name: str, store: TripleStore) -> List[TransformStats]:
    """Compute Table-1 style statistics for both transformations of a store."""
    rows: List[TransformStats] = []
    for kind, transform in (("direct", direct_transform), ("type-aware", type_aware_transform)):
        graph, _ = transform(store)
        rows.append(TransformStats(name=name, kind=kind, vertices=graph.vertex_count, edges=graph.edge_count))
    return rows
