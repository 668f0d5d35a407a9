"""In-memory labeled directed multigraph on a compact CSR core (Figure 9).

A :class:`LabeledGraph` stores every posting list of the paper's Figure 9
structures in *contiguous offset/neighbour arrays* (compressed sparse row
layout) instead of nested dictionaries of lists:

* **per-edge-label adjacency** — for each direction (outgoing / incoming) a
  :class:`_DirectionCSR` holds one flat neighbour array; the group of
  neighbours reachable from vertex ``v`` via edge label ``l`` is the window
  ``nbr[nbr_off[g] : nbr_off[g + 1]]`` where ``g`` is found by a bounded
  binary search of ``l`` in the vertex's sorted label-key window
  ``label_keys[label_off[v] : label_off[v + 1]]``,
* **per-neighbour-type adjacency** — the same three-level layout keyed by
  the pair ``(edge label, vertex label)``, used when both the predicate and
  the neighbour's type are known (Section 4.2),
* **inverse vertex label list** (label → sorted vertices) and the
  **predicate index** (edge label → sorted subjects / sorted objects) as
  sorted key arrays with parallel offset/posting arrays.

Every posting group is a sorted, duplicate-free integer run inside one flat
array, so the ``+INT`` bulk-intersection optimization operates on zero-copy
``(array, lo, hi)`` windows (see :mod:`repro.utils.intersect`) instead of
materialized list slices.  The flat arrays are plain Python lists — in
CPython a list *is* a contiguous pointer array and indexes faster than
``array('q')`` (which re-boxes every element on access).  The adjacency
accessors return windows; the few accessors that return a ``List[int]``
(the label and predicate look-ups) copy their run once.

A :class:`LabeledGraph` is built in one step from a vertex count, one label
set per vertex and an edge list: the RDF transformations call the
constructor directly, and :class:`GraphBuilder` accumulates vertices and
edges one at a time (tests, examples) before delegating to it.  The build
sorts the edges once per direction; a single pass over those rows writes the
per-label level and, as each ``(vertex, edge label)`` group closes, spreads
the group's already sorted neighbours into one bucket per vertex label,
which yields the neighbour-type level without a second sort.  The predicate
index is read off the finished per-label groups.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from itertools import groupby
from operator import itemgetter
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.exceptions import GraphError
from repro.utils.intersect import (
    Window,
    as_window,
    intersect_windows,
    union_windows,
)

EMPTY_LABELS: FrozenSet[int] = frozenset()
_EMPTY_LIST: List[int] = []
#: The canonical empty posting window.
_EMPTY_WINDOW: Window = (_EMPTY_LIST, 0, 0)
#: Group key of a sorted ``(vertex, edge label, neighbour)`` row.
_VERTEX_AND_LABEL = itemgetter(0, 1)


class GraphBuilder:
    """Mutable accumulator for building a :class:`LabeledGraph` piecewise.

    Vertex ids may arrive in any order; :meth:`build` sizes the graph to the
    largest id seen.  Bulk loaders that already hold the vertex count, the
    label sets and the edge list call :class:`LabeledGraph` directly.
    """

    def __init__(self) -> None:
        self._labels: Dict[int, Set[int]] = defaultdict(set)
        self._edges: Set[Tuple[int, int, int]] = set()
        self._max_vertex = -1

    def add_vertex(self, vertex: int, labels: Iterable[int] = ()) -> None:
        """Declare a vertex and add labels to it."""
        if vertex < 0:
            raise GraphError(f"vertex ids must be non-negative, got {vertex}")
        self._labels[vertex].update(labels)
        self._max_vertex = max(self._max_vertex, vertex)

    def add_edge(self, source: int, edge_label: int, target: int) -> None:
        """Add a directed labeled edge, creating endpoints as needed."""
        self.add_vertex(source)
        self.add_vertex(target)
        self._edges.add((source, edge_label, target))

    def build(self) -> "LabeledGraph":
        """Freeze into an immutable :class:`LabeledGraph`."""
        vertex_count = self._max_vertex + 1
        labels = [frozenset(self._labels.get(v, ())) for v in range(vertex_count)]
        return LabeledGraph(vertex_count, labels, self._edges)


class _DirectionCSR:
    """One direction of the adjacency, compressed into flat offset arrays.

    Two parallel three-level CSR structures share the class: one keyed by the
    edge label alone and one keyed by the neighbour type ``(edge label,
    vertex label)``.  Level one is the per-vertex window into the sorted key
    array, level two the per-key window into the flat neighbour array.
    """

    __slots__ = (
        "label_off",
        "label_keys",
        "nbr_off",
        "nbr",
        "type_off",
        "type_keys",
        "type_nbr_off",
        "type_nbr",
    )

    def __init__(
        self,
        vertex_count: int,
        rows: List[Tuple[int, int, int]],
        sorted_labels: Sequence[Tuple[int, ...]],
    ) -> None:
        # ``rows`` are (vertex, edge label, neighbour), sorted and unique;
        # ``sorted_labels[n]`` is neighbour ``n``'s label set as an ascending
        # tuple, one shared tuple object per distinct label set.
        label_off = [0] * (vertex_count + 1)
        label_keys: List[int] = []
        nbr_off: List[int] = []
        nbr: List[int] = []
        type_off = [0] * (vertex_count + 1)
        type_keys: List[Tuple[int, int]] = []
        type_nbr_off: List[int] = []
        type_nbr: List[int] = []
        for (vertex, edge_label), group in groupby(rows, _VERTEX_AND_LABEL):
            neighbors = [row[2] for row in group]
            label_off[vertex + 1] += 1
            label_keys.append(edge_label)
            nbr_off.append(len(nbr))
            nbr += neighbors
            # The group's neighbour-type groups: its sorted neighbours spread
            # into one bucket per vertex label, emitted in label order.
            first = sorted_labels[neighbors[0]]
            if len(neighbors) == 1 or all(sorted_labels[n] is first for n in neighbors):
                for vertex_label in first:
                    type_keys.append((edge_label, vertex_label))
                    type_nbr_off.append(len(type_nbr))
                    type_nbr += neighbors
                type_off[vertex + 1] += len(first)
                continue
            buckets: Dict[int, List[int]] = defaultdict(list)
            for neighbor in neighbors:
                for vertex_label in sorted_labels[neighbor]:
                    buckets[vertex_label].append(neighbor)
            for vertex_label in sorted(buckets):
                type_keys.append((edge_label, vertex_label))
                type_nbr_off.append(len(type_nbr))
                type_nbr += buckets[vertex_label]
            type_off[vertex + 1] += len(buckets)
        nbr_off.append(len(nbr))
        type_nbr_off.append(len(type_nbr))
        for vertex in range(vertex_count):
            label_off[vertex + 1] += label_off[vertex]
            type_off[vertex + 1] += type_off[vertex]
        self.label_off = label_off
        self.label_keys = label_keys
        self.nbr_off = nbr_off
        self.nbr = nbr
        self.type_off = type_off
        self.type_keys = type_keys
        self.type_nbr_off = type_nbr_off
        self.type_nbr = type_nbr

    # ------------------------------------------------------------- look-ups
    def window(self, vertex: int, edge_label: int) -> Window:
        """Zero-copy neighbour window for ``(vertex, edge label)``."""
        lo = self.label_off[vertex]
        hi = self.label_off[vertex + 1]
        i = bisect_left(self.label_keys, edge_label, lo, hi)
        if i < hi and self.label_keys[i] == edge_label:
            return (self.nbr, self.nbr_off[i], self.nbr_off[i + 1])
        return _EMPTY_WINDOW

    def any_label_windows(self, vertex: int) -> List[Window]:
        """One window per edge-label group of ``vertex``."""
        lo = self.label_off[vertex]
        hi = self.label_off[vertex + 1]
        return [(self.nbr, self.nbr_off[g], self.nbr_off[g + 1]) for g in range(lo, hi)]

    def type_window(self, vertex: int, edge_label: int, vertex_label: int) -> Window:
        """Zero-copy neighbour window for one neighbour type."""
        lo = self.type_off[vertex]
        hi = self.type_off[vertex + 1]
        key = (edge_label, vertex_label)
        i = bisect_left(self.type_keys, key, lo, hi)
        if i < hi and self.type_keys[i] == key:
            return (self.type_nbr, self.type_nbr_off[i], self.type_nbr_off[i + 1])
        return _EMPTY_WINDOW

    def type_windows_for_label(self, vertex: int, vertex_label: int) -> List[Window]:
        """Windows of every ``(*, vertex_label)`` type group of ``vertex``."""
        lo = self.type_off[vertex]
        hi = self.type_off[vertex + 1]
        return [
            (self.type_nbr, self.type_nbr_off[g], self.type_nbr_off[g + 1])
            for g in range(lo, hi)
            if self.type_keys[g][1] == vertex_label
        ]

    def degree(self, vertex: int) -> int:
        """Number of adjacency entries (distinct (label, neighbour) pairs)."""
        lo = self.label_off[vertex]
        hi = self.label_off[vertex + 1]
        return self.nbr_off[hi] - self.nbr_off[lo]


def _group_owners(csr: _DirectionCSR) -> Dict[int, List[int]]:
    """Edge label -> ascending vertices that own a group of that label."""
    owners: Dict[int, List[int]] = defaultdict(list)
    label_off = csr.label_off
    label_keys = csr.label_keys
    for vertex in range(len(label_off) - 1):
        for g in range(label_off[vertex], label_off[vertex + 1]):
            owners[label_keys[g]].append(vertex)
    return owners


class _PostingIndex:
    """Sorted-key index over one flat posting array (labels / predicates)."""

    __slots__ = ("keys", "off", "postings")

    def __init__(self, groups: Dict[int, List[int]]) -> None:
        # ``groups`` maps each key to its ascending, duplicate-free postings.
        self.keys: List[int] = sorted(groups)
        self.off: List[int] = [0]
        self.postings: List[int] = []
        for key in self.keys:
            self.postings += groups[key]
            self.off.append(len(self.postings))

    def window(self, key: int) -> Window:
        i = bisect_left(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            return (self.postings, self.off[i], self.off[i + 1])
        return _EMPTY_WINDOW

    def get(self, key: int) -> List[int]:
        base, lo, hi = self.window(key)
        return base[lo:hi]

    def count(self, key: int) -> int:
        _, lo, hi = self.window(key)
        return hi - lo


class LabeledGraph:
    """Read-only labeled directed multigraph on CSR posting arrays."""

    def __init__(
        self,
        vertex_count: int,
        labels: Sequence[FrozenSet[int]],
        edges: Iterable[Tuple[int, int, int]],
    ) -> None:
        if len(labels) != vertex_count:
            raise GraphError("labels must have one entry per vertex")
        self.vertex_count = vertex_count
        self.labels: List[FrozenSet[int]] = list(labels)

        out_rows = sorted(set(edges))
        in_rows = sorted([(t, l, s) for (s, l, t) in out_rows])
        # Rows are sorted by their first element, so the ends bound every
        # source (out rows) and every target (in rows).
        if out_rows and not (
            0 <= out_rows[0][0] and out_rows[-1][0] < vertex_count
            and 0 <= in_rows[0][0] and in_rows[-1][0] < vertex_count
        ):
            raise GraphError(
                f"edge endpoints must lie in [0, {vertex_count}), got "
                f"sources {out_rows[0][0]}..{out_rows[-1][0]} and "
                f"targets {in_rows[0][0]}..{in_rows[-1][0]}"
            )
        self.edge_count = len(out_rows)

        # One ascending label tuple per distinct label set, shared by every
        # vertex carrying that set.
        distinct = {label_set: tuple(sorted(label_set)) for label_set in set(self.labels)}
        sorted_labels = [distinct[label_set] for label_set in self.labels]
        self._out = _DirectionCSR(vertex_count, out_rows, sorted_labels)
        self._in = _DirectionCSR(vertex_count, in_rows, sorted_labels)

        # Inverse vertex label list: label -> ascending vertices carrying it.
        inverse: Dict[int, List[int]] = defaultdict(list)
        for vertex, vertex_labels in enumerate(sorted_labels):
            for label in vertex_labels:
                inverse[label].append(vertex)
        self._inverse_label = _PostingIndex(inverse)

        # Predicate index: edge label -> ascending subjects / objects, read
        # off the per-label groups of each direction.
        self._pred_subjects = _PostingIndex(_group_owners(self._out))
        self._pred_objects = _PostingIndex(_group_owners(self._in))

        # Total degree per vertex: distinct (label, neighbour) entries, both
        # directions (a self-loop counts once per direction).
        self._degree: List[int] = [
            self._out.degree(v) + self._in.degree(v) for v in range(vertex_count)
        ]

    # ------------------------------------------------------------------ views
    def vertices(self) -> range:
        """All vertex ids."""
        return range(self.vertex_count)

    def vertex_labels(self, vertex: int) -> FrozenSet[int]:
        """Label set of a vertex."""
        return self.labels[vertex]

    def degree(self, vertex: int) -> int:
        """Total (in + out) degree."""
        return self._degree[vertex]

    def edge_labels(self) -> Set[int]:
        """All edge labels present in the graph."""
        return set(self._pred_subjects.keys)

    def iter_edges(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate over ``(source, edge label, target)`` edges."""
        csr = self._out
        for v in range(self.vertex_count):
            for g in range(csr.label_off[v], csr.label_off[v + 1]):
                edge_label = csr.label_keys[g]
                for i in range(csr.nbr_off[g], csr.nbr_off[g + 1]):
                    yield (v, edge_label, csr.nbr[i])

    # -------------------------------------------------------------- adjacency
    def out_window(self, vertex: int, edge_label: Optional[int] = None) -> Window:
        """Outgoing neighbours as a zero-copy ``(base, lo, hi)`` window.

        With a blank edge label the per-label groups are merged, which
        materializes a fresh list wrapped as a window.
        """
        if edge_label is not None:
            return self._out.window(vertex, edge_label)
        return as_window(union_windows(self._out.any_label_windows(vertex)))

    def in_window(self, vertex: int, edge_label: Optional[int] = None) -> Window:
        """Incoming counterpart of :meth:`out_window`."""
        if edge_label is not None:
            return self._in.window(vertex, edge_label)
        return as_window(union_windows(self._in.any_label_windows(vertex)))

    def neighbors_by_type_window(
        self,
        vertex: int,
        edge_label: Optional[int],
        vertex_labels: FrozenSet[int],
        outgoing: bool = True,
    ) -> Window:
        """Adjacent vertices matching a neighbour type, as a posting window.

        Implements the adjacency look-up rules of Section 4.2:

        * one vertex label + one edge label — direct CSR group look-up
          (zero-copy),
        * several vertex labels — intersect the per-label groups,
        * blank vertex label — fall back to the per-edge-label group,
        * blank edge label — union over all edge labels (restricted to the
          requested vertex labels when given).
        """
        csr = self._out if outgoing else self._in
        if edge_label is not None:
            if not vertex_labels:
                return csr.window(vertex, edge_label)
            if len(vertex_labels) == 1:
                (vertex_label,) = vertex_labels
                return csr.type_window(vertex, edge_label, vertex_label)
            windows = [
                csr.type_window(vertex, edge_label, vertex_label)
                for vertex_label in vertex_labels
            ]
            return as_window(intersect_windows(windows))
        # Blank edge label: union over every edge label.
        if not vertex_labels:
            return as_window(union_windows(csr.any_label_windows(vertex)))
        per_label = [
            union_windows(csr.type_windows_for_label(vertex, vertex_label))
            for vertex_label in vertex_labels
        ]
        if len(per_label) == 1:
            return as_window(per_label[0])
        return as_window(intersect_windows([as_window(lst) for lst in per_label]))

    def count_neighbors_by_type(
        self,
        vertex: int,
        edge_label: Optional[int],
        vertex_labels: FrozenSet[int],
        outgoing: bool = True,
    ) -> int:
        """Number of adjacent vertices matching a neighbour type.

        The common NLF-filter case (one concrete edge label, at most one
        vertex label) is answered from the CSR offsets alone, without
        touching the posting arrays.
        """
        _, lo, hi = self.neighbors_by_type_window(
            vertex, edge_label, vertex_labels, outgoing
        )
        return hi - lo

    def has_edge(self, source: int, target: int, edge_label: Optional[int] = None) -> bool:
        """Edge existence test (any label when ``edge_label`` is None)."""
        csr = self._out
        if edge_label is not None:
            # Inlined CSR group look-up — this probe is the inner loop of the
            # original (non-+INT) IsJoinable strategy.
            label_off = csr.label_off
            label_keys = csr.label_keys
            lo = label_off[source]
            hi = label_off[source + 1]
            g = bisect_left(label_keys, edge_label, lo, hi)
            if g >= hi or label_keys[g] != edge_label:
                return False
            nbr = csr.nbr
            nbr_lo = csr.nbr_off[g]
            nbr_hi = csr.nbr_off[g + 1]
            i = bisect_left(nbr, target, nbr_lo, nbr_hi)
            return i < nbr_hi and nbr[i] == target
        for base, lo, hi in csr.any_label_windows(source):
            i = bisect_left(base, target, lo, hi)
            if i < hi and base[i] == target:
                return True
        return False

    def edge_labels_between(self, source: int, target: int) -> List[int]:
        """All edge labels connecting source to target (for predicate variables)."""
        csr = self._out
        result: List[int] = []
        for g in range(csr.label_off[source], csr.label_off[source + 1]):
            lo, hi = csr.nbr_off[g], csr.nbr_off[g + 1]
            i = bisect_left(csr.nbr, target, lo, hi)
            if i < hi and csr.nbr[i] == target:
                result.append(csr.label_keys[g])
        return result

    # ----------------------------------------------------------------- labels
    def vertices_with_labels(self, labels: FrozenSet[int]) -> List[int]:
        """Sorted vertices carrying *all* the given labels."""
        if not labels:
            return list(range(self.vertex_count))
        windows = [self._inverse_label.window(label) for label in labels]
        if len(windows) == 1:
            base, lo, hi = windows[0]
            return base[lo:hi]
        return intersect_windows(windows)

    def label_frequency(self, labels: FrozenSet[int]) -> int:
        """``freq(g, L(u))`` — number of vertices carrying all the labels."""
        if not labels:
            return self.vertex_count
        if len(labels) == 1:
            return self._inverse_label.count(next(iter(labels)))
        return len(self.vertices_with_labels(labels))

    # -------------------------------------------------------- predicate index
    def predicate_subjects(self, edge_label: int) -> List[int]:
        """Sorted vertices with at least one outgoing edge of this label."""
        return self._pred_subjects.get(edge_label)

    def predicate_objects(self, edge_label: int) -> List[int]:
        """Sorted vertices with at least one incoming edge of this label."""
        return self._pred_objects.get(edge_label)

    def predicate_subject_count(self, edge_label: int) -> int:
        """Number of subjects of a predicate, from the offsets alone."""
        return self._pred_subjects.count(edge_label)

    def predicate_object_count(self, edge_label: int) -> int:
        """Number of objects of a predicate, from the offsets alone."""
        return self._pred_objects.count(edge_label)

    # ------------------------------------------------------------------ stats
    def stats(self) -> Dict[str, int]:
        """Size statistics used by Table 1."""
        return {
            "vertices": self.vertex_count,
            "edges": self.edge_count,
            "vertex_labels": len(self._inverse_label.keys),
            "edge_labels": len(self._pred_subjects.keys),
        }

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"LabeledGraph(|V|={self.vertex_count}, |E|={self.edge_count})"
