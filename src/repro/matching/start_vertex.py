"""``ChooseStartQueryVertex`` (Section 2.2 / 4.2).

The start query vertex should have as few candidate regions as possible.
Candidates are first ranked by ``rank(u) = freq(g, L(u)) / deg(u)`` (lower is
better: rare labels, high degree); then, for the ``top_k`` least-ranked
vertices, the number of candidate start vertices is estimated exactly by
applying the degree / NLF filters, and the minimum wins.

Special cases handled as in Section 4.2:

* a query vertex with a concrete data vertex ID has frequency 1 (or 0 when
  the id does not exist in the graph),
* a query vertex with neither label nor ID uses the predicate index of an
  incident labeled edge to estimate its frequency.

A query vertex restricted to a few allowed ids (a bound join's left side,
see ``docs/query_algebra.md``) is a multi-valued constant:
:func:`restricted_start_candidates` checks only those ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.matching.config import MatchConfig
from repro.matching.filters import passes_filters, vertex_requirements


@dataclass(frozen=True)
class StartSelection:
    """The outcome of ``ChooseStartQueryVertex``, in a cacheable form.

    Selection depends only on the (immutable) data graph, the query graph and
    the match configuration, so a compiled query plan can store it and every
    later execution of the same query skips the ranking and exact-count
    estimation entirely.
    """

    #: Chosen start query vertex index.
    vertex: int
    #: Candidate start data vertices (already degree/NLF-filtered when the
    #: configuration enables those filters).
    candidates: List[int]


def candidate_start_vertices(
    graph: LabeledGraph,
    query: QueryGraph,
    query_vertex: int,
) -> List[int]:
    """Data vertices that can start a candidate region for ``query_vertex``.

    This applies the label containment test and the ID-attribute test, but
    not the degree / NLF filters (those are applied by the caller so the
    -NLF / -DEG optimizations remain observable).
    """
    vertex = query.vertices[query_vertex]
    if vertex.vertex_id is not None:
        if vertex.vertex_id < 0 or vertex.vertex_id >= graph.vertex_count:
            return []
        if vertex.labels and not vertex.labels <= graph.vertex_labels(vertex.vertex_id):
            return []
        return [vertex.vertex_id]
    if vertex.labels:
        return graph.vertices_with_labels(vertex.labels)
    # No label, no ID: use the predicate index of an incident labeled edge.
    # The candidates are selected by posting-list *size* (CSR offsets only);
    # the winning list is materialized once at the end.
    best: Optional[Tuple[int, bool, int]] = None  # (count, outgoing, edge label)
    for edge in query.out_edges(query_vertex):
        if edge.label is not None and edge.label >= 0:
            count = graph.predicate_subject_count(edge.label)
            if best is None or count < best[0]:
                best = (count, True, edge.label)
    for edge in query.in_edges(query_vertex):
        if edge.label is not None and edge.label >= 0:
            count = graph.predicate_object_count(edge.label)
            if best is None or count < best[0]:
                best = (count, False, edge.label)
    if best is not None:
        _, outgoing, edge_label = best
        if outgoing:
            return graph.predicate_subjects(edge_label)
        return graph.predicate_objects(edge_label)
    return list(graph.vertices())


def estimate_frequency(graph: LabeledGraph, query: QueryGraph, query_vertex: int) -> int:
    """``freq(g, L(u))`` with the ID-attribute and predicate-index special cases."""
    vertex = query.vertices[query_vertex]
    if vertex.vertex_id is not None:
        if vertex.vertex_id < 0 or vertex.vertex_id >= graph.vertex_count:
            return 0
        if vertex.labels and not vertex.labels <= graph.vertex_labels(vertex.vertex_id):
            return 0
        return 1
    if vertex.labels:
        return graph.label_frequency(vertex.labels)
    best: Optional[int] = None
    for edge in query.out_edges(query_vertex):
        if edge.label is not None and edge.label >= 0:
            count = graph.predicate_subject_count(edge.label)
            best = count if best is None else min(best, count)
    for edge in query.in_edges(query_vertex):
        if edge.label is not None and edge.label >= 0:
            count = graph.predicate_object_count(edge.label)
            best = count if best is None else min(best, count)
    return best if best is not None else graph.vertex_count


def filter_start_candidates(
    graph: LabeledGraph,
    query: QueryGraph,
    query_vertex: int,
    candidates: Iterable[int],
    config: MatchConfig,
) -> List[int]:
    """Apply the degree / NLF filters ``config`` enables to start candidates."""
    if not (config.use_degree_filter or config.use_nlf_filter):
        return list(candidates)
    requirements = vertex_requirements(query, query_vertex, config.homomorphism)
    return [
        v
        for v in candidates
        if passes_filters(
            graph,
            query,
            query_vertex,
            v,
            config.homomorphism,
            config.use_degree_filter,
            config.use_nlf_filter,
            requirements,
        )
    ]


def restricted_start_candidates(
    graph: LabeledGraph,
    query: QueryGraph,
    query_vertex: int,
    allowed: Iterable[int],
    config: MatchConfig,
) -> List[int]:
    """The ``allowed`` data vertices that can start a region for ``query_vertex``.

    The per-vertex form of :func:`candidate_start_vertices` plus the degree /
    NLF filters: each allowed id must exist, equal the ID attribute when the
    query vertex has one, and carry the query vertex's labels.  Costs
    O(|allowed|), whatever the label's frequency.
    """
    vertex = query.vertices[query_vertex]
    pinned, labels = vertex.vertex_id, vertex.labels
    candidates = [
        v
        for v in sorted(allowed)
        if 0 <= v < graph.vertex_count
        and (pinned is None or v == pinned)
        and (not labels or labels <= graph.vertex_labels(v))
    ]
    return filter_start_candidates(graph, query, query_vertex, candidates, config)


def choose_start_vertex(
    graph: LabeledGraph,
    query: QueryGraph,
    config: MatchConfig,
) -> Tuple[int, List[int]]:
    """Pick the start query vertex and return it with its start data vertices.

    Returns ``(query vertex index, candidate start data vertices)``.  The
    candidate list already reflects the degree / NLF filters when they are
    enabled by ``config``.
    """
    selection = choose_start(graph, query, config)
    return selection.vertex, selection.candidates


def choose_start(
    graph: LabeledGraph,
    query: QueryGraph,
    config: MatchConfig,
) -> StartSelection:
    """``ChooseStartQueryVertex`` returning a cacheable :class:`StartSelection`."""
    ranked: List[Tuple[float, int]] = []
    for u in range(query.vertex_count()):
        frequency = estimate_frequency(graph, query, u)
        degree = max(1, query.degree(u))
        ranked.append((frequency / degree, u))
    ranked.sort()
    top_k = [u for _, u in ranked[: max(1, config.start_vertex_top_k)]]

    best_vertex = top_k[0]
    best_candidates: Optional[List[int]] = None
    for u in top_k:
        candidates = filter_start_candidates(
            graph, query, u, candidate_start_vertices(graph, query, u), config
        )
        if best_candidates is None or len(candidates) < len(best_candidates):
            best_vertex = u
            best_candidates = candidates
            if not candidates:
                break
    return StartSelection(best_vertex, best_candidates if best_candidates is not None else [])
