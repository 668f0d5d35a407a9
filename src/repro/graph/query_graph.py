"""Query graph model for the subgraph matching engines.

A :class:`QueryGraph` is the labeled-graph counterpart of a SPARQL basic
graph pattern.  Each :class:`QueryVertex` carries

* ``labels`` — required vertex labels (empty for an untyped variable),
* ``vertex_id`` — a concrete data vertex id when the SPARQL term is a
  constant (the ID attribute of the two-attribute vertex model, Section 4.1),
* ``name`` — the SPARQL variable name (or a synthetic name for constants).

Each :class:`QueryEdge` carries the edge label (``None`` when the predicate
is a variable) and, for predicate variables, the variable name so that the
e-graph homomorphism can report the edge-label mapping ``Me``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.exceptions import GraphError

EMPTY_LABELS: FrozenSet[int] = frozenset()


@dataclass
class QueryVertex:
    """A query vertex."""

    index: int
    name: str
    labels: FrozenSet[int] = EMPTY_LABELS
    vertex_id: Optional[int] = None
    #: True when the vertex corresponds to a SPARQL variable that must appear
    #: in the result (as opposed to a constant we only match against).
    is_variable: bool = True


@dataclass
class QueryEdge:
    """A directed query edge (source -> target)."""

    source: int
    target: int
    label: Optional[int] = None
    predicate_variable: Optional[str] = None

    def endpoints(self) -> Tuple[int, int]:
        """The (source, target) pair."""
        return (self.source, self.target)


class QueryGraph:
    """A small directed multigraph describing the pattern to match."""

    def __init__(self) -> None:
        self.vertices: List[QueryVertex] = []
        self.edges: List[QueryEdge] = []
        self._by_name: Dict[str, int] = {}
        self._out: Dict[int, List[int]] = {}
        self._in: Dict[int, List[int]] = {}

    # ----------------------------------------------------------- construction
    def add_vertex(
        self,
        name: str,
        labels: FrozenSet[int] = EMPTY_LABELS,
        vertex_id: Optional[int] = None,
        is_variable: bool = True,
    ) -> int:
        """Add a vertex (or merge labels into an existing one) and return its index."""
        if name in self._by_name:
            index = self._by_name[name]
            vertex = self.vertices[index]
            vertex.labels = vertex.labels | labels
            if vertex_id is not None:
                if vertex.vertex_id is not None and vertex.vertex_id != vertex_id:
                    raise GraphError(f"conflicting vertex ids for query vertex {name!r}")
                vertex.vertex_id = vertex_id
            return index
        index = len(self.vertices)
        self.vertices.append(QueryVertex(index, name, frozenset(labels), vertex_id, is_variable))
        self._by_name[name] = index
        self._out[index] = []
        self._in[index] = []
        return index

    def add_labels(self, name: str, labels: FrozenSet[int]) -> None:
        """Union extra labels into an existing vertex."""
        index = self._by_name[name]
        self.vertices[index].labels = self.vertices[index].labels | labels

    def add_edge(
        self,
        source: int,
        target: int,
        label: Optional[int] = None,
        predicate_variable: Optional[str] = None,
    ) -> int:
        """Add a directed edge and return its index."""
        edge_index = len(self.edges)
        self.edges.append(QueryEdge(source, target, label, predicate_variable))
        self._out[source].append(edge_index)
        self._in[target].append(edge_index)
        return edge_index

    def with_vertices(self, vertices: List[QueryVertex]) -> "QueryGraph":
        """A shallow copy with another vertex list and the same edges.

        ``vertices`` must keep every index and name: the copy shares this
        graph's edge lists and name index, so only per-vertex attributes
        (a constant's ``vertex_id`` or labels) may differ.  Neither graph may
        be modified afterwards.
        """
        copy = QueryGraph.__new__(QueryGraph)
        copy.vertices = vertices
        copy.edges = self.edges
        copy._by_name = self._by_name
        copy._out = self._out
        copy._in = self._in
        return copy

    # ----------------------------------------------------------------- access
    def vertex_index(self, name: str) -> Optional[int]:
        """Index of the vertex with a given name, or None."""
        return self._by_name.get(name)

    def vertex_count(self) -> int:
        """Number of query vertices."""
        return len(self.vertices)

    def edge_count(self) -> int:
        """Number of query edges."""
        return len(self.edges)

    def out_edges(self, vertex: int) -> List[QueryEdge]:
        """Outgoing edges of a vertex."""
        return [self.edges[i] for i in self._out[vertex]]

    def in_edges(self, vertex: int) -> List[QueryEdge]:
        """Incoming edges of a vertex."""
        return [self.edges[i] for i in self._in[vertex]]

    def incident_edges(self, vertex: int) -> List[QueryEdge]:
        """All edges touching a vertex."""
        return self.out_edges(vertex) + self.in_edges(vertex)

    def degree(self, vertex: int) -> int:
        """Total degree of a vertex."""
        return len(self._out[vertex]) + len(self._in[vertex])

    def neighbors(self, vertex: int) -> Set[int]:
        """All vertices adjacent to ``vertex`` (either direction)."""
        result: Set[int] = set()
        for edge in self.out_edges(vertex):
            result.add(edge.target)
        for edge in self.in_edges(vertex):
            result.add(edge.source)
        return result

    def edges_between(self, a: int, b: int) -> List[QueryEdge]:
        """All edges connecting two vertices, in either direction."""
        return [
            edge
            for edge in self.edges
            if (edge.source == a and edge.target == b) or (edge.source == b and edge.target == a)
        ]

    def variable_names(self) -> List[str]:
        """Names of vertices that correspond to SPARQL variables."""
        return [v.name for v in self.vertices if v.is_variable]

    def predicate_variables(self) -> List[str]:
        """Names of predicate variables mentioned by any edge."""
        return sorted({e.predicate_variable for e in self.edges if e.predicate_variable})

    def is_connected(self) -> bool:
        """True when the underlying undirected graph is connected (or empty)."""
        if not self.vertices:
            return True
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for n in self.neighbors(v):
                if n not in seen:
                    seen.add(n)
                    stack.append(n)
        return len(seen) == len(self.vertices)

    def connected_components(self) -> List[List[int]]:
        """Vertex indices grouped by connected component."""
        seen: Set[int] = set()
        components: List[List[int]] = []
        for start in range(len(self.vertices)):
            if start in seen:
                continue
            component = []
            stack = [start]
            seen.add(start)
            while stack:
                v = stack.pop()
                component.append(v)
                for n in self.neighbors(v):
                    if n not in seen:
                        seen.add(n)
                        stack.append(n)
            components.append(sorted(component))
        return components

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"QueryGraph(|V|={len(self.vertices)}, |E|={len(self.edges)})"
