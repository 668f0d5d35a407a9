"""Per-predicate reachability indexes for transitive property paths.

A :class:`ReachabilityIndex` answers "does vertex ``u`` reach vertex ``v``
over edges of one predicate label?" (and the enumeration forms of that
question) without a BFS per probe.  The build pipeline, all on flat
``array('q')`` arrays in the same discipline as the CSR graph:

1. **vertex slice** — only vertices incident to the predicate participate;
   they are collected sorted in ``verts`` and addressed by local id
   (binary search).
2. **condensation** — an *iterative* Tarjan pass groups the slice into
   strongly connected components (``scc_of`` per local vertex, member
   lists in the ``scc_off``/``scc_members`` CSR).  Tarjan emits an SCC
   only after every SCC it reaches, so emission ids are a reverse
   topological order: every condensation edge goes from a higher SCC id
   to a lower one (the invariant both the closure build and the walk
   lean on).  Self-reachability inside an SCC is the ``cyclic`` bit
   (size > 1 or a self-loop).
3. **closure postings** — when the transitive closure fits its share of
   the byte budget, per-SCC sorted reachable-SCC rows in a
   ``clo_off``/``clo_nbr`` CSR turn positive probes into one binary
   search and enumeration into one slice.  When it does not, probes walk
   the condensation DAG; a bound-bound walk skips every SCC whose id is
   below the target's, which by the ordering above cannot reach it.

:class:`PathIndexManager` owns the per-label indexes in a byte-bounded
LRU.  :func:`bfs_reachable` / :func:`bfs_reaches` over the CSR windows are
the parity oracle the tests hold the index against.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.graph.labeled_graph import LabeledGraph
from repro.utils.stats import CounterBundle

#: Default byte budget of one engine's path-index LRU (64 MiB).
DEFAULT_PATH_INDEX_BYTES = 64 * 1024 * 1024

#: Array fields of one index (all ``array('q')``).
_INDEX_ARRAYS = (
    "verts",
    "scc_of",
    "scc_off",
    "scc_members",
    "cyclic",
    "dag_off",
    "dag_nbr",
    "rdag_off",
    "rdag_nbr",
)

#: Closure arrays, present only when the closure fit its entry limit.
_CLOSURE_ARRAYS = ("clo_off", "clo_nbr")


# ----------------------------------------------------------------- BFS oracle
def bfs_reachable(
    graph: LabeledGraph, edge_label: int, start: int, reverse: bool = False
) -> List[int]:
    """Vertices reachable from ``start`` in 1+ hops of one predicate.

    The per-probe kernel the index is tested and measured against.
    ``reverse`` walks incoming edges (the ``reaching`` direction).  The
    result is sorted; ``start`` itself appears only when it lies on a
    cycle.
    """
    window = graph.in_window if reverse else graph.out_window
    seen: Set[int] = set()
    frontier = [start]
    while frontier:
        next_frontier: List[int] = []
        for vertex in frontier:
            base, lo, hi = window(vertex, edge_label)
            for i in range(lo, hi):
                neighbor = base[i]
                if neighbor not in seen:
                    seen.add(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return sorted(seen)


def bfs_reaches(graph: LabeledGraph, edge_label: int, source: int, target: int) -> bool:
    """True when ``source`` reaches ``target`` in 1+ hops of one predicate."""
    seen: Set[int] = set()
    frontier = [source]
    while frontier:
        next_frontier: List[int] = []
        for vertex in frontier:
            base, lo, hi = graph.out_window(vertex, edge_label)
            for i in range(lo, hi):
                neighbor = base[i]
                if neighbor == target:
                    return True
                if neighbor not in seen:
                    seen.add(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return False


# ------------------------------------------------------------------- counters
@dataclass
class PathIndexCounters(CounterBundle):
    """Counters behind ``stats()["path_index"]``."""

    #: Index builds (cache misses that constructed an index).
    builds: int = 0
    #: Probes answered by an already-cached index.
    hits: int = 0
    #: Probes that found no cached index for their label.
    misses: int = 0
    #: Indexes dropped to keep the LRU under its byte budget.
    evictions: int = 0
    #: Probes answered from materialized closure postings.
    closure_hits: int = 0

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy (merged into the ``path_index`` stats payload)."""
        return self.as_dict()


# ---------------------------------------------------------------------- index
class ReachabilityIndex:
    """Condensation (plus closure postings, when they fit) of one predicate."""

    __slots__ = _INDEX_ARRAYS + _CLOSURE_ARRAYS + (
        "edge_label",
        "scc_count",
        "counters",
    )

    def __init__(self) -> None:
        self.counters: Optional[PathIndexCounters] = None
        self.clo_off: Optional[Sequence[int]] = None
        self.clo_nbr: Optional[Sequence[int]] = None

    # ------------------------------------------------------------------ build
    @classmethod
    def build(
        cls,
        graph: LabeledGraph,
        edge_label: int,
        closure_entry_limit: int = 0,
        counters: Optional[PathIndexCounters] = None,
    ) -> "ReachabilityIndex":
        """Condense one predicate's edges and materialize their closure.

        ``closure_entry_limit`` bounds the materialized transitive-closure
        postings (in entries); the closure build aborts — leaving probes to
        walk the condensation DAG — as soon as it would exceed the bound.
        """
        index = cls()
        index.edge_label = edge_label
        index.counters = counters

        subjects = graph.predicate_subjects(edge_label)
        objects = graph.predicate_objects(edge_label)
        verts = sorted(set(subjects) | set(objects))
        index.verts = array("q", verts)
        n = len(verts)
        local = {vertex: i for i, vertex in enumerate(verts)}

        # Local adjacency CSR over the vertex slice.
        adj_off = array("q", bytes(8 * (n + 1)))
        adj_nbr = array("q")
        self_loop = bytearray(n)
        for u, vertex in enumerate(verts):
            base, lo, hi = graph.out_window(vertex, edge_label)
            for i in range(lo, hi):
                target = local[base[i]]
                adj_nbr.append(target)
                if target == u:
                    self_loop[u] = 1
            adj_off[u + 1] = len(adj_nbr)

        index._condense(n, adj_off, adj_nbr, self_loop)
        index._materialize_closure(closure_entry_limit)
        return index

    def _condense(
        self, n: int, adj_off: array, adj_nbr: array, self_loop: bytearray
    ) -> None:
        """Iterative Tarjan SCC pass + condensation CSRs (both directions)."""
        UNVISITED = -1
        scc_of = array("q", [UNVISITED] * n)
        disc = array("q", [UNVISITED] * n)
        low = array("q", bytes(8 * n))
        on_stack = bytearray(n)
        scc_stack: List[int] = []
        scc_count = 0
        clock = 0
        # Explicit DFS stack of (vertex, next-edge cursor) frames.
        for root in range(n):
            if disc[root] != UNVISITED:
                continue
            frames: List[List[int]] = [[root, adj_off[root]]]
            disc[root] = low[root] = clock
            clock += 1
            scc_stack.append(root)
            on_stack[root] = 1
            while frames:
                frame = frames[-1]
                u = frame[0]
                cursor = frame[1]
                if cursor < adj_off[u + 1]:
                    frame[1] = cursor + 1
                    v = adj_nbr[cursor]
                    if disc[v] == UNVISITED:
                        disc[v] = low[v] = clock
                        clock += 1
                        scc_stack.append(v)
                        on_stack[v] = 1
                        frames.append([v, adj_off[v]])
                    elif on_stack[v]:
                        if disc[v] < low[u]:
                            low[u] = disc[v]
                    continue
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    if low[u] < low[parent]:
                        low[parent] = low[u]
                if low[u] == disc[u]:
                    # Root of an SCC: pop its members.  Emission order is
                    # reverse topological — every SCC this one reaches has
                    # already been emitted, so condensation edges always go
                    # from higher SCC id to lower.
                    while True:
                        w = scc_stack.pop()
                        on_stack[w] = 0
                        scc_of[w] = scc_count
                        if w == u:
                            break
                    scc_count += 1

        self.scc_of = scc_of
        self.scc_count = scc_count

        # Member lists (counting sort — scc ids are dense).
        scc_off = array("q", bytes(8 * (scc_count + 1)))
        for u in range(n):
            scc_off[scc_of[u] + 1] += 1
        for s in range(scc_count):
            scc_off[s + 1] += scc_off[s]
        members = array("q", bytes(8 * n))
        cursor_arr = array("q", scc_off[:scc_count])
        for u in range(n):  # ascending u => member runs stay sorted
            s = scc_of[u]
            members[cursor_arr[s]] = u
            cursor_arr[s] += 1
        self.scc_off = scc_off
        self.scc_members = members

        # Cyclic bit: size > 1 or a self-loop member.
        cyclic = array("q", bytes(8 * scc_count))
        for s in range(scc_count):
            if scc_off[s + 1] - scc_off[s] > 1:
                cyclic[s] = 1
        for u in range(n):
            if self_loop[u]:
                cyclic[scc_of[u]] = 1
        self.cyclic = cyclic

        # Condensation DAG edges, deduplicated, as forward + reverse CSRs.
        edges: Set[Tuple[int, int]] = set()
        for u in range(n):
            su = scc_of[u]
            for i in range(adj_off[u], adj_off[u + 1]):
                sv = scc_of[adj_nbr[i]]
                if su != sv:
                    edges.add((su, sv))
        self.dag_off, self.dag_nbr = _edge_csr(scc_count, sorted(edges))
        self.rdag_off, self.rdag_nbr = _edge_csr(
            scc_count, sorted((v, u) for (u, v) in edges)
        )

    def _materialize_closure(self, entry_limit: int) -> None:
        """Per-SCC reachable-SCC postings, if they fit ``entry_limit``.

        SCC ids are reverse topological (edges go high → low), so an
        ascending pass can union each SCC's successor rows, which are
        already complete.
        """
        if entry_limit <= 0:
            return
        dag_off, dag_nbr = self.dag_off, self.dag_nbr
        rows: List[array] = []
        total = 0
        for s in range(self.scc_count):
            reach: Set[int] = set()
            for i in range(dag_off[s], dag_off[s + 1]):
                succ = dag_nbr[i]
                reach.add(succ)
                reach.update(rows[succ])
            row = array("q", sorted(reach))
            total += len(row)
            if total > entry_limit:
                return
            rows.append(row)
        clo_off = array("q", bytes(8 * (self.scc_count + 1)))
        clo_nbr = array("q", bytes(8 * total))
        cursor = 0
        for s, row in enumerate(rows):
            clo_nbr[cursor:cursor + len(row)] = row
            cursor += len(row)
            clo_off[s + 1] = cursor
        self.clo_off = clo_off
        self.clo_nbr = clo_nbr

    # ------------------------------------------------------------------- size
    @property
    def nbytes(self) -> int:
        """Resident byte size of the flat arrays (what the LRU budgets)."""
        total = 0
        for name in _INDEX_ARRAYS + _CLOSURE_ARRAYS:
            values = getattr(self, name)
            if values is not None:
                total += 8 * len(values)
        return total

    # ----------------------------------------------------------------- probes
    def _local(self, vertex: int) -> int:
        """Local id of a data vertex, or -1 when the predicate never sees it."""
        verts = self.verts
        i = bisect_left(verts, vertex)
        if i < len(verts) and verts[i] == vertex:
            return i
        return -1

    def _scc_reaches(self, source: int, target: int) -> bool:
        """Does SCC ``source`` reach SCC ``target`` (1+ condensation edges)?"""
        counters = self.counters
        if self.clo_off is not None:
            if counters is not None:
                counters.closure_hits += 1
            lo, hi = self.clo_off[source], self.clo_off[source + 1]
            i = bisect_left(self.clo_nbr, target, lo, hi)
            return i < hi and self.clo_nbr[i] == target
        # DFS of the condensation.  Edges go from higher SCC ids to lower,
        # so no SCC with an id below the target's can reach it.
        dag_off, dag_nbr = self.dag_off, self.dag_nbr
        stack = [source]
        seen: Set[int] = {source}
        while stack:
            s = stack.pop()
            for i in range(dag_off[s], dag_off[s + 1]):
                succ = dag_nbr[i]
                if succ == target:
                    return True
                if succ > target and succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return False

    def _scc_descendants(self, source: int) -> List[int]:
        """SCC ids reachable from ``source`` over 1+ condensation edges."""
        if self.clo_off is not None:
            if self.counters is not None:
                self.counters.closure_hits += 1
            lo, hi = self.clo_off[source], self.clo_off[source + 1]
            return list(self.clo_nbr[lo:hi])
        dag_off, dag_nbr = self.dag_off, self.dag_nbr
        seen: Set[int] = set()
        stack = [source]
        while stack:
            s = stack.pop()
            for i in range(dag_off[s], dag_off[s + 1]):
                succ = dag_nbr[i]
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return sorted(seen)

    def _scc_ancestors(self, target: int) -> List[int]:
        """SCC ids that reach ``target`` (walk of the reverse condensation)."""
        rdag_off, rdag_nbr = self.rdag_off, self.rdag_nbr
        seen: Set[int] = set()
        stack = [target]
        while stack:
            s = stack.pop()
            for i in range(rdag_off[s], rdag_off[s + 1]):
                pred = rdag_nbr[i]
                if pred not in seen:
                    seen.add(pred)
                    stack.append(pred)
        return sorted(seen)

    def _expand(self, sccs: Sequence[int], include: Optional[int]) -> List[int]:
        """Member data vertices of the SCCs (+ one cyclic SCC), sorted."""
        scc_off, members, verts = self.scc_off, self.scc_members, self.verts
        result: List[int] = []
        ids = list(sccs)
        if include is not None:
            ids.append(include)
        for s in ids:
            result.extend(
                verts[members[i]] for i in range(scc_off[s], scc_off[s + 1])
            )
        result.sort()
        return result

    def reaches(self, source: int, target: int) -> bool:
        """True when ``source`` reaches ``target`` in 1+ predicate hops."""
        lu = self._local(source)
        if lu < 0:
            return False
        lv = self._local(target)
        if lv < 0:
            return False
        su, sv = self.scc_of[lu], self.scc_of[lv]
        if su == sv:
            return bool(self.cyclic[su])
        return self._scc_reaches(su, sv)

    def reachable_from(self, source: int) -> List[int]:
        """Sorted data vertices reachable from ``source`` in 1+ hops."""
        lu = self._local(source)
        if lu < 0:
            return []
        su = self.scc_of[lu]
        own = su if self.cyclic[su] else None
        return self._expand(self._scc_descendants(su), own)

    def reaching(self, target: int) -> List[int]:
        """Sorted data vertices that reach ``target`` in 1+ hops."""
        lv = self._local(target)
        if lv < 0:
            return []
        sv = self.scc_of[lv]
        own = sv if self.cyclic[sv] else None
        return self._expand(self._scc_ancestors(sv), own)


def _edge_csr(node_count: int, edges: Sequence[Tuple[int, int]]) -> Tuple[array, array]:
    """Offset/neighbour arrays from sorted, deduplicated edge pairs."""
    off = array("q", bytes(8 * (node_count + 1)))
    nbr = array("q", bytes(8 * len(edges)))
    for i, (u, v) in enumerate(edges):
        off[u + 1] += 1
        nbr[i] = v
    for u in range(node_count):
        off[u + 1] += off[u]
    return off, nbr


# -------------------------------------------------------------------- manager
class PathIndexManager:
    """Byte-bounded LRU of per-predicate reachability indexes.

    One manager per engine: indexes build lazily on the first transitive
    probe of a predicate and the LRU evicts whole indexes to stay under
    ``budget_bytes``.  The newest index always stays, so an index larger
    than the whole budget is the only resident entry until the next build.

    The closure postings get a fixed share of the budget per index: small
    predicates answer probes from sorted postings, large ones walk the
    condensation DAG.

    One lock covers lookup, build and eviction: concurrent first probes of
    a predicate build its index once and count its bytes once.
    """

    #: Fraction of the byte budget one index's closure postings may claim.
    CLOSURE_SHARE = 0.25

    def __init__(self, graph: LabeledGraph, budget_bytes: int) -> None:
        self.graph = graph
        self.budget_bytes = budget_bytes
        self.counters = PathIndexCounters()
        self._indexes: "OrderedDict[int, ReachabilityIndex]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ cache
    @property
    def bytes_held(self) -> int:
        """Resident bytes across all cached indexes."""
        return self._bytes

    def index_for(self, edge_label: int) -> ReachabilityIndex:
        """The cached (or freshly built) index of one predicate."""
        with self._lock:
            index = self._indexes.get(edge_label)
            if index is not None:
                self.counters.hits += 1
                self._indexes.move_to_end(edge_label)
                return index
            self.counters.misses += 1
            closure_limit = int(self.budget_bytes * self.CLOSURE_SHARE) // 8
            index = ReachabilityIndex.build(
                self.graph, edge_label, closure_limit, self.counters
            )
            self.counters.builds += 1
            self._indexes[edge_label] = index
            self._bytes += index.nbytes
            while self._bytes > self.budget_bytes and len(self._indexes) > 1:
                _, victim = self._indexes.popitem(last=False)
                self._bytes -= victim.nbytes
                self.counters.evictions += 1
            return index

    # ----------------------------------------------------------------- probes
    def reaches(self, edge_label: int, source: int, target: int) -> bool:
        """1+ hop reachability probe."""
        return self.index_for(edge_label).reaches(source, target)

    def reachable_from(self, edge_label: int, source: int) -> List[int]:
        """Sorted vertices reachable from ``source`` in 1+ hops."""
        return self.index_for(edge_label).reachable_from(source)

    def reaching(self, edge_label: int, target: int) -> List[int]:
        """Sorted vertices reaching ``target`` in 1+ hops."""
        return self.index_for(edge_label).reaching(target)

    # -------------------------------------------------------------- lifecycle
    def stats(self) -> Dict[str, object]:
        """The ``stats()["path_index"]`` payload."""
        with self._lock:
            return {
                "budget_bytes": self.budget_bytes,
                "entries": len(self._indexes),
                "bytes": self._bytes,
                **self.counters.snapshot(),
            }

    def clear(self) -> None:
        """Drop every cached index."""
        with self._lock:
            self._indexes.clear()
            self._bytes = 0

    close = clear
