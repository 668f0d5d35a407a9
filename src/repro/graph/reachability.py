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
   to a lower one (the invariant both the interval labelling and the
   closure build lean on).
3. **interval labels** — two GRAIL-style post-order interval labellings of
   the condensation DAG (different child orders).  A DFS rooted at every
   source gives each SCC ``[lo, hi]`` with ``hi`` its post-order rank and
   ``lo`` the minimum rank under it; if ``u`` reaches ``v`` then ``u``'s
   interval contains ``v``'s in *both* labellings.  Non-containment is an
   O(1) certain "no"; containment answers "maybe" and falls through to a
   DFS walk that prunes every branch whose interval excludes the target.
4. **closure postings** (optional) — for predicates whose transitive
   closure fits a byte budget, per-SCC sorted reachable-SCC rows in a
   ``clo_off``/``clo_nbr`` CSR turn positive probes into one binary
   search and enumeration into one slice.  Self-reachability inside an
   SCC is the ``cyclic`` bit (size > 1 or a self-loop), kept out of the
   rows.

:class:`PathIndexManager` owns the per-label indexes in a byte-bounded LRU
(``REPRO_PATH_INDEX_BYTES``; ``0`` disables indexing entirely), falls back
to the module-level BFS kernels for oversized predicates, and — in shared
mode — exports every index through a ``multiprocessing.shared_memory``
manifest (the same pack/attach pattern as
:meth:`repro.graph.labeled_graph.LabeledGraph.export_shared`) so shard
worker processes can attach the labels zero-copy.

The BFS kernels double as the parity oracle: with the budget at 0 every
reachability question is answered by :func:`bfs_reachable` /
:func:`bfs_reaches` over the CSR windows, and the Hypothesis sweep in
``tests/test_property_paths.py`` holds the two implementations equal.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.graph.labeled_graph import LabeledGraph
from repro.utils.stats import CounterBundle

#: Default byte budget of one engine's path-index LRU (64 MiB).
DEFAULT_PATH_INDEX_BYTES = 64 * 1024 * 1024

#: Array fields of one index, in manifest order (all ``array('q')``).
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
    "lo1",
    "hi1",
    "lo2",
    "hi2",
)

#: Closure arrays, present only when the closure fast path was built.
_CLOSURE_ARRAYS = ("clo_off", "clo_nbr")


# ------------------------------------------------------------- BFS fallback
def bfs_reachable(
    graph: LabeledGraph, edge_label: int, start: int, reverse: bool = False
) -> List[int]:
    """Vertices reachable from ``start`` in 1+ hops of one predicate.

    The scalar-twin kernel the index is measured against (and the fallback
    when indexing is disabled or a predicate exceeds the byte budget).
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
    #: Predicates whose freshly built index exceeded the whole budget
    #: (discarded; the label is pinned to the BFS fallback).
    oversized: int = 0
    #: Probes answered by the BFS kernels (budget 0 or oversized label).
    bfs_fallbacks: int = 0
    #: Positive probes that needed the pruned DFS walk over the DAG.
    pruned_walks: int = 0
    #: Negative probes settled by the interval labels alone (O(1) "no").
    interval_rejects: int = 0
    #: Probes answered from materialized closure postings.
    closure_hits: int = 0

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy (merged into the ``path_index`` stats payload)."""
        return self.as_dict()


# ---------------------------------------------------------------------- index
class ReachabilityIndex:
    """Interval-labelled condensation of one predicate's edge set."""

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
        """Condense one predicate's edges and label the condensation DAG.

        ``closure_entry_limit`` bounds the materialized transitive-closure
        postings (in entries); the closure build aborts — leaving the index
        interval-only — as soon as it would exceed the bound.
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
        index._label_intervals()
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

    def _label_intervals(self) -> None:
        """Two GRAIL post-order interval labellings (opposite child orders)."""
        self.lo1, self.hi1 = _grail_labels(
            self.scc_count, self.dag_off, self.dag_nbr, self.rdag_off, reverse=False
        )
        self.lo2, self.hi2 = _grail_labels(
            self.scc_count, self.dag_off, self.dag_nbr, self.rdag_off, reverse=True
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

    def _interval_contains(self, ancestor: int, descendant: int) -> bool:
        """Necessary condition for ``ancestor`` reaching ``descendant``."""
        return (
            self.lo1[ancestor] <= self.lo1[descendant]
            and self.hi1[descendant] <= self.hi1[ancestor]
            and self.lo2[ancestor] <= self.lo2[descendant]
            and self.hi2[descendant] <= self.hi2[ancestor]
        )

    def _scc_reaches(self, source: int, target: int) -> bool:
        """Does SCC ``source`` reach SCC ``target`` (1+ condensation edges)?"""
        counters = self.counters
        if self.clo_off is not None:
            if counters is not None:
                counters.closure_hits += 1
            lo, hi = self.clo_off[source], self.clo_off[source + 1]
            i = bisect_left(self.clo_nbr, target, lo, hi)
            return i < hi and self.clo_nbr[i] == target
        if not self._interval_contains(source, target):
            if counters is not None:
                counters.interval_rejects += 1
            return False
        # Interval "maybe": DFS from source, pruning interval-excluded arms.
        if counters is not None:
            counters.pruned_walks += 1
        dag_off, dag_nbr = self.dag_off, self.dag_nbr
        stack = [source]
        seen: Set[int] = {source}
        while stack:
            s = stack.pop()
            for i in range(dag_off[s], dag_off[s + 1]):
                succ = dag_nbr[i]
                if succ == target:
                    return True
                if succ not in seen and self._interval_contains(succ, target):
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

    # ---------------------------------------------------------- shared memory
    def export_shared(self, name: Optional[str] = None) -> "SharedIndexHandle":
        """Pack the flat arrays into one shared-memory segment.

        Same contract as :meth:`LabeledGraph.export_shared`: the returned
        handle owns the segment, its picklable manifest is everything a
        worker needs to :meth:`attach_shared`, and the creator unlinks the
        handle when the index is retired.
        """
        from multiprocessing import shared_memory

        names = list(_INDEX_ARRAYS)
        if self.clo_off is not None:
            names.extend(_CLOSURE_ARRAYS)
        layout: Dict[str, Tuple[int, int]] = {}
        total = 0
        for array_name in names:
            values = getattr(self, array_name)
            layout[array_name] = (total, len(values))
            total += 8 * len(values)
        segment = shared_memory.SharedMemory(name=name, create=True, size=max(total, 8))
        for array_name in names:
            offset, count = layout[array_name]
            values = getattr(self, array_name)
            if count:
                segment.buf[offset:offset + 8 * count] = array("q", values).tobytes()
        manifest = SharedIndexManifest(
            segment=segment.name,
            edge_label=self.edge_label,
            scc_count=self.scc_count,
            arrays=layout,
        )
        return SharedIndexHandle(segment, manifest)

    @classmethod
    def attach_shared(cls, manifest: "SharedIndexManifest"):
        """Rebuild a read-only index over a shared segment (zero-copy views).

        Returns ``(index, shm)``; the caller keeps ``shm`` alive for the
        index's lifetime and must not unlink it (the exporter owns it).
        """
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=manifest.segment)
        buf = shm.buf

        index = cls()
        index.edge_label = manifest.edge_label
        index.scc_count = manifest.scc_count
        for array_name in _INDEX_ARRAYS + _CLOSURE_ARRAYS:
            entry = manifest.arrays.get(array_name)
            if entry is None:
                continue
            offset, count = entry
            setattr(index, array_name, buf[offset:offset + 8 * count].cast("q"))
        return index, shm


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


def _grail_labels(
    scc_count: int,
    dag_off: array,
    dag_nbr: array,
    rdag_off: array,
    reverse: bool,
) -> Tuple[array, array]:
    """One GRAIL labelling: post-order ``hi`` ranks, subtree-minimum ``lo``.

    ``reverse`` flips both the root order and each node's child order, so
    the two labellings disagree wherever the DAG branches — what makes the
    conjunction of the two containment checks a much tighter filter than
    either alone.  ``lo`` absorbs the labels of already-visited children
    too (non-tree DAG edges), preserving the containment guarantee:
    ``u`` reaches ``v`` ⇒ ``[lo[v], hi[v]] ⊆ [lo[u], hi[u]]``.
    """
    lo = array("q", bytes(8 * scc_count))
    hi = array("q", [-1] * scc_count)
    rank = 0
    roots = [s for s in range(scc_count) if rdag_off[s + 1] == rdag_off[s]]
    if reverse:
        roots.reverse()
    for root in roots:
        if hi[root] >= 0:
            continue
        # Frames: [node, cursor, low-so-far]; cursor walks the child window.
        frames: List[List[int]] = [[root, 0, scc_count]]
        while frames:
            frame = frames[-1]
            s, cursor, low = frame
            begin, end = dag_off[s], dag_off[s + 1]
            if cursor < end - begin:
                frame[1] = cursor + 1
                child = dag_nbr[end - 1 - cursor] if reverse else dag_nbr[begin + cursor]
                if hi[child] >= 0:
                    # Already labelled (shared descendant): absorb its lo.
                    if lo[child] < frame[2]:
                        frame[2] = lo[child]
                    continue
                frames.append([child, 0, scc_count])
                continue
            frames.pop()
            hi[s] = rank
            lo[s] = min(frame[2], rank)
            rank += 1
            if frames and lo[s] < frames[-1][2]:
                frames[-1][2] = lo[s]
    return lo, hi


@dataclass(frozen=True)
class SharedIndexManifest:
    """Everything a process needs to attach one exported index.

    Picklable and small: the segment name, the predicate label, and per
    flat array its byte offset and element count (8-byte signed integers).
    """

    segment: str
    edge_label: int
    scc_count: int
    arrays: Dict[str, Tuple[int, int]]


def _release_index_segment(segment) -> None:
    """Close and unlink a shared-memory segment, tolerating repeats."""
    try:
        segment.close()
    except (BufferError, OSError):  # pragma: no cover - platform cleanup races
        pass
    try:
        segment.unlink()
    except FileNotFoundError:
        pass


class SharedIndexHandle:
    """Owner of one exported index segment (finalizer-backed cleanup)."""

    def __init__(self, segment, manifest: SharedIndexManifest):
        import weakref

        self.shm = segment
        self.manifest = manifest
        self._finalizer = weakref.finalize(self, _release_index_segment, segment)

    @property
    def name(self) -> str:
        """The shared-memory segment name (``/dev/shm`` entry on Linux)."""
        return self.manifest.segment

    def unlink(self) -> None:
        """Close the mapping and remove the segment. Idempotent."""
        self._finalizer()

    close = unlink


# -------------------------------------------------------------------- manager
class PathIndexManager:
    """Byte-bounded LRU of per-predicate reachability indexes.

    One manager per engine: indexes build lazily on the first transitive
    probe of a predicate, the LRU evicts whole indexes to stay under
    ``budget_bytes``, and a predicate whose index alone exceeds the budget
    is pinned to the BFS fallback (built once, measured, discarded).  With
    ``budget_bytes=0`` every probe takes the BFS kernels — the
    oracle-comparable fallback CI exercises via ``REPRO_PATH_INDEX_BYTES=0``.

    ``shared=True`` (an engine with shard workers) additionally exports each
    index through a shared-memory manifest; :meth:`manifests` hands the
    picklable attachment records to shard workers, which rebuild the
    flat-array views zero-copy via :meth:`ReachabilityIndex.attach_shared`.
    Segments are unlinked on eviction and on :meth:`close`.

    The closure fast path gets a fixed share of the budget per index (an
    index whose interval labels fit but whose closure would not simply
    skips the closure), so small predicates answer probes from sorted
    postings while large ones stay on interval checks + pruned walks.
    """

    #: Fraction of the byte budget one index's closure postings may claim.
    CLOSURE_SHARE = 0.25

    def __init__(
        self,
        graph: LabeledGraph,
        budget_bytes: int,
        shared: bool = False,
    ) -> None:
        self.graph = graph
        self.budget_bytes = budget_bytes
        self.shared = shared
        self.counters = PathIndexCounters()
        self._indexes: "OrderedDict[int, ReachabilityIndex]" = OrderedDict()
        self._handles: Dict[int, SharedIndexHandle] = {}
        self._too_big: Set[int] = set()
        self._bytes = 0

    # ------------------------------------------------------------------ cache
    @property
    def bytes_held(self) -> int:
        """Resident bytes across all cached indexes."""
        return self._bytes

    def index_for(self, edge_label: int) -> Optional[ReachabilityIndex]:
        """The cached (or freshly built) index, or None for BFS fallback."""
        if self.budget_bytes <= 0 or edge_label in self._too_big:
            self.counters.bfs_fallbacks += 1
            return None
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
        if index.nbytes > self.budget_bytes:
            self.counters.oversized += 1
            self._too_big.add(edge_label)
            self.counters.bfs_fallbacks += 1
            return None
        self._indexes[edge_label] = index
        self._bytes += index.nbytes
        if self.shared:
            self._handles[edge_label] = index.export_shared()
        while self._bytes > self.budget_bytes and len(self._indexes) > 1:
            victim_label, victim = self._indexes.popitem(last=False)
            self._bytes -= victim.nbytes
            self.counters.evictions += 1
            handle = self._handles.pop(victim_label, None)
            if handle is not None:
                handle.unlink()
        return index

    def manifests(self) -> Dict[int, SharedIndexManifest]:
        """Attachment manifests of every exported index (shared mode only)."""
        return {label: handle.manifest for label, handle in self._handles.items()}

    # ----------------------------------------------------------------- probes
    def reaches(self, edge_label: int, source: int, target: int) -> bool:
        """1+ hop reachability probe (index or BFS fallback)."""
        index = self.index_for(edge_label)
        if index is None:
            return bfs_reaches(self.graph, edge_label, source, target)
        return index.reaches(source, target)

    def reachable_from(self, edge_label: int, source: int) -> List[int]:
        """Sorted vertices reachable from ``source`` in 1+ hops."""
        index = self.index_for(edge_label)
        if index is None:
            return bfs_reachable(self.graph, edge_label, source)
        return index.reachable_from(source)

    def reaching(self, edge_label: int, target: int) -> List[int]:
        """Sorted vertices reaching ``target`` in 1+ hops."""
        index = self.index_for(edge_label)
        if index is None:
            return bfs_reachable(self.graph, edge_label, target, reverse=True)
        return index.reaching(target)

    # -------------------------------------------------------------- lifecycle
    def stats(self) -> Dict[str, object]:
        """The ``stats()["path_index"]`` payload."""
        return {
            "budget_bytes": self.budget_bytes,
            "entries": len(self._indexes),
            "bytes": self._bytes,
            "shared": self.shared,
            **self.counters.snapshot(),
        }

    def clear(self) -> None:
        """Drop every cached index (and unlink exported segments)."""
        self._indexes.clear()
        self._too_big.clear()
        self._bytes = 0
        for handle in self._handles.values():
            handle.unlink()
        self._handles.clear()

    close = clear
