"""``SubgraphSearch`` and ``IsJoinable`` (Algorithm 2) with the ``+INT`` optimization.

The search walks the matching order; at each step the candidate set comes
from the candidate region keyed by the parent's matched data vertex, and
non-tree edges to already-matched query vertices are verified:

* **original IsJoinable** — for each candidate, each non-tree edge is tested
  with a binary-search membership probe (``use_intersection=False``),
* **+INT** — the candidate span is intersected in bulk with the CSR
  adjacency *windows* of the already-matched endpoints, one k-way sorted
  intersection per step instead of per-candidate probes (Section 4.3), read
  straight from the posting arrays; the surviving candidates are the one
  list the step builds.

The injectivity test (line 4–6 of Algorithm 2) is applied only under
isomorphism semantics; removing it is exactly the modification that turns
TurboISO into TurboHOM (Section 2.2).

The core is :class:`SubgraphSearcher`, an **explicit-stack enumerator** over
:class:`~repro.matching.region_arena.RegionArena` slices: per-depth cursor
arrays replace the recursive generator (no Python frame per depth), and
:meth:`SubgraphSearcher.fill` writes each complete mapping **directly into
SolutionBatch columns** — no per-solution list is ever allocated on the
batch path.  One searcher is reused across consecutive regions (and pooled
per thread via :func:`acquire_searcher`): the non-tree-edge grouping and
split are cached as long as the query, tree, matching order and config are
unchanged, which under ``+REUSE`` means once per query.

:func:`subgraph_search_iter` (one ``List[int]`` per solution) is the thin
row adapter kept for oracle tests and callers outside the batch pipeline.

``SearchStatistics.recursions`` deliberately keeps its historical meaning —
one count per *expansion step* (region entry plus every accepted candidate),
exactly what the recursive core counted as calls — so the ablation and
Figure 15/16 benchmarks report unchanged semantics over the iterative core.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence

from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryEdge, QueryGraph
from repro.matching.config import MatchConfig
from repro.matching.query_tree import QueryTree
from repro.matching.region_arena import RegionArena
from repro.matching.solution_batch import SolutionBatch
from repro.utils.intersect import Window, _intersect_two, intersect_windows

#: The shared candidate list of a ``+INT`` step that nothing survives.
_NO_CANDIDATES: List[int] = []


class SearchStatistics:
    """Counters exposed for profiling and the ablation benchmarks.

    ``recursions`` counts expansion steps (one per region entry plus one per
    accepted candidate at any depth) — the exact call count of the former
    recursive core, kept stable so work accounting and the benchmark tables
    are comparable across the rewrite.
    """

    def __init__(self) -> None:
        self.recursions = 0
        self.joinable_probes = 0
        self.intersection_calls = 0
        self.solutions = 0

    def merge(self, other: "SearchStatistics") -> None:
        """Accumulate counters from another statistics object."""
        self.recursions += other.recursions
        self.joinable_probes += other.joinable_probes
        self.intersection_calls += other.intersection_calls
        self.solutions += other.solutions


def _non_tree_edges_by_vertex(
    query: QueryGraph, tree: QueryTree, order: Sequence[int]
) -> Dict[int, List[QueryEdge]]:
    """Non-tree edges grouped by the vertex matched *later* in the order.

    Each non-tree edge must be checked exactly once — at the moment its
    second endpoint is bound.  Grouping by the later endpoint guarantees the
    other endpoint is already matched at check time.
    """
    position = {vertex: index for index, vertex in enumerate(order)}
    grouped: Dict[int, List[QueryEdge]] = {vertex: [] for vertex in order}
    for edge in tree.non_tree_edges:
        later = edge.source if position[edge.source] >= position[edge.target] else edge.target
        grouped[later].append(edge)
    return grouped


def _adjacency_window_for_edge(
    graph: LabeledGraph, edge: QueryEdge, current: int, mapping: Sequence[int]
) -> Window:
    """Data vertices matchable to ``current`` so that ``edge`` exists.

    ``edge`` connects ``current`` to an already-matched query vertex; the
    returned window views the data vertices adjacent to the matched endpoint
    in the direction required by the edge.
    """
    if edge.source == current:
        matched = mapping[edge.target]
        return graph.in_window(matched, edge.label)
    matched = mapping[edge.source]
    return graph.out_window(matched, edge.label)


class SubgraphSearcher:
    """Explicit-stack enumerator of one candidate region's mappings.

    Lifecycle: :meth:`reset` binds the searcher to a region (cheap — the
    per-(query, tree, order, config) static structures are cached across
    resets), then :meth:`fill` is called repeatedly to append complete
    solutions into columnar batch collectors until :attr:`exhausted`.
    The per-depth cursors live in reusable grow-only arrays, so a pooled
    searcher enumerates region after region; the only list a step builds
    is the candidate list of a ``+INT`` intersection.
    """

    __slots__ = (
        "exhausted",
        "_graph",
        "_query",
        "_tree",
        "_config",
        "_order",
        "_stats",
        "_region",
        "_width",
        "_total",
        "_homomorphism",
        "_use_intersection",
        "_mapping",
        "_used",
        "_chosen",
        "_pool",
        "_spans",
        "_slices",
        "_stride",
        "_currents",
        "_parents",
        "_loops",
        "_cross",
        "_root_loops",
        "_seq_base",
        "_seq_pos",
        "_seq_hi",
        "_pwindows",
        "_pedges",
        "_wbuf",
        "_depth",
        "_entering",
    )

    def __init__(self) -> None:
        self.exhausted = True
        self._graph: Optional[LabeledGraph] = None
        self._query: Optional[QueryGraph] = None
        self._tree: Optional[QueryTree] = None
        self._config: Optional[MatchConfig] = None
        self._order: Optional[Sequence[int]] = None
        self._stats: Optional[SearchStatistics] = None
        self._region: Optional[RegionArena] = None
        self._width = 0
        self._total = 0
        self._homomorphism = True
        self._use_intersection = True
        self._mapping: List[int] = []
        self._used: Dict[int, int] = {}
        self._chosen: List[int] = []
        self._pool: Optional[array] = None
        self._spans: Optional[array] = None
        self._slices: Optional[Dict[int, int]] = None
        self._stride = 0
        self._currents: List[int] = []
        self._parents: List[int] = []
        self._loops: List[List[QueryEdge]] = []
        self._cross: List[List[QueryEdge]] = []
        self._root_loops: List[QueryEdge] = []
        self._seq_base: List[object] = []
        self._seq_pos: List[int] = []
        self._seq_hi: List[int] = []
        self._pwindows: List[List[Window]] = []
        self._pedges: List[List[QueryEdge]] = []
        self._wbuf: List[Window] = []
        self._depth = 0
        #: True when ``_depth``'s candidate cursor is still to be computed
        #: (its parent was just matched).
        self._entering = False

    # ------------------------------------------------------------ preparation
    def _prepare_static(
        self,
        graph: LabeledGraph,
        query: QueryGraph,
        tree: QueryTree,
        order: Sequence[int],
        config: MatchConfig,
    ) -> None:
        """Derive the per-(query, tree, order) structures; cached across resets."""
        total = len(order)
        non_tree = _non_tree_edges_by_vertex(query, tree, order)
        # Non-tree edges grouped at the root can only be self-loops (every
        # other vertex comes later in the order).
        self._root_loops = non_tree.get(order[0], [])
        currents: List[int] = [0] * total
        parents: List[int] = [0] * total
        loops: List[List[QueryEdge]] = [[] for _ in range(total)]
        cross: List[List[QueryEdge]] = [[] for _ in range(total)]
        for depth in range(total):
            vertex = order[depth]
            currents[depth] = vertex
            parents[depth] = tree.parent.get(vertex, vertex)
            if depth == 0:
                continue
            for edge in non_tree[vertex]:
                (loops if edge.source == edge.target else cross)[depth].append(edge)
        self._currents = currents
        self._parents = parents
        self._loops = loops
        self._cross = cross
        # Grow the per-depth cursor state to the new order length.
        while len(self._seq_base) < total:
            self._seq_base.append(None)
            self._seq_pos.append(0)
            self._seq_hi.append(0)
            self._chosen.append(-1)
            self._pwindows.append([])
            self._pedges.append([])
        self._query = query
        self._tree = tree
        self._order = order
        self._config = config
        self._total = total
        self._width = query.vertex_count()
        self._homomorphism = config.homomorphism
        self._use_intersection = config.use_intersection

    def reset(
        self,
        graph: LabeledGraph,
        query: QueryGraph,
        tree: QueryTree,
        region: RegionArena,
        order: Sequence[int],
        config: MatchConfig,
        stats: SearchStatistics,
    ) -> None:
        """Bind the searcher to one region and rewind the enumeration.

        ``order[0]`` must be the tree root, already bound to the region's
        start data vertex (exactly the contract of the former recursive
        core).
        """
        if (
            self._query is not query
            or self._tree is not tree
            or self._config is not config
            or self._graph is not graph
            or self._order != order
        ):
            self._prepare_static(graph, query, tree, order, config)
        self._graph = graph
        self._stats = stats
        self._region = region
        self._pool = region.pool
        self._spans = region.spans
        self._slices = region.slices
        self._stride = region.stride
        width = self._width
        mapping = self._mapping
        if len(mapping) < width:
            mapping.extend([-1] * (width - len(mapping)))
        start = region.start_data_vertex
        mapping[tree.root] = start
        used = self._used
        used.clear()
        if not self._homomorphism:
            used[start] = 1
        # Root self-loop check (?x p ?x at the start vertex) before anything
        # else — on failure the region has no solutions at all.
        has_edge = graph.has_edge
        for edge in self._root_loops:
            stats.joinable_probes += 1
            if not has_edge(start, start, edge.label):
                self.exhausted = True
                return
        stats.recursions += 1  # the region-entry expansion step
        self.exhausted = False
        # fill() computes depth 1's candidate cursor when it first runs.
        self._depth = 0 if self._total == 1 else 1
        self._entering = True

    def detach(self) -> None:
        """Drop every external reference held by this searcher.

        Pooled searchers outlive match calls; without this, a parked
        searcher would pin the graph it last searched (keeping a replaced
        graph alive after the engine reloads) plus the last region's
        arrays.  The grow-only integer buffers are deliberately kept: they
        reference nothing and are the whole point of pooling.
        """
        self.exhausted = True
        self._graph = None
        self._query = None
        self._tree = None
        self._config = None
        self._order = None
        self._stats = None
        self._region = None
        self._pool = None
        self._spans = None
        self._slices = None
        self._used.clear()
        self._wbuf.clear()
        for windows in self._pwindows:
            windows.clear()
        for probes in self._pedges:
            probes.clear()
        for index in range(len(self._seq_base)):
            self._seq_base[index] = None
        self._currents = []
        self._parents = []
        self._loops = []
        self._cross = []
        self._root_loops = []

    def fill(self, columns: Sequence[array], budget: int) -> int:
        """Append up to ``budget`` complete solutions into ``columns``.

        ``columns`` are :meth:`SolutionBatch.collector` arrays indexed by
        query vertex; each appended row is ``width`` flat integer appends —
        no per-solution list.  Returns the number of rows appended; the
        region is done when :attr:`exhausted` turns True.
        """
        if self.exhausted or budget <= 0:
            return 0
        stats = self._stats
        mapping = self._mapping
        width = self._width
        if self._total == 1:
            # Single-vertex-with-self-loops query: the root mapping is the
            # only (already verified) solution of this region.
            stats.solutions += 1
            for index in range(width):
                columns[index].append(mapping[index])
            self.exhausted = True
            return 1

        graph = self._graph
        has_edge = graph.has_edge
        in_window = graph.in_window
        out_window = graph.out_window
        homomorphism = self._homomorphism
        used = self._used
        chosen = self._chosen
        currents = self._currents
        parents = self._parents
        loops_by = self._loops
        cross_by = self._cross
        pwindows = self._pwindows
        pedges = self._pedges
        seq_base = self._seq_base
        seq_pos = self._seq_pos
        seq_hi = self._seq_hi
        pool = self._pool
        spans = self._spans
        slices_get = self._slices.get
        stride = self._stride
        use_intersection = self._use_intersection
        probing = not use_intersection
        last = self._total - 1
        depth = self._depth
        appended = 0
        appends = [column.append for column in columns]
        # Counters kept in locals for the duration of the scan and flushed
        # on every exit — the stats object stays authoritative at any yield
        # point while the inner loop never touches an attribute.
        recursions = 0
        solutions = 0
        probe_count = 0
        intersection_count = 0

        entering = self._entering
        self._entering = False
        while True:
            current = currents[depth]
            if entering:
                # Enter ``depth`` (its parent was just matched): the
                # candidates are the region's span keyed by the parent's data
                # vertex, narrowed by the non-tree edges to matched vertices.
                entering = False
                slot = slices_get(current * stride + mapping[parents[depth]], -1)
                if slot < 0:
                    pos = hi = 0
                else:
                    pos = spans[2 * slot]
                    hi = spans[2 * slot + 1]
                base = pool
                cross_edges = cross_by[depth]
                if cross_edges and use_intersection:
                    # +INT: one bulk intersection of the span with every
                    # cross-edge window (Section 4.3); the survivors become
                    # this depth's candidate list.
                    intersection_count += 1
                    if len(cross_edges) == 1:
                        # The dominant shape: one non-tree edge, intersected
                        # directly with its adjacency window.
                        edge = cross_edges[0]
                        if edge.source == current:
                            wbase, wlo, whi = in_window(mapping[edge.target], edge.label)
                        else:
                            wbase, wlo, whi = out_window(mapping[edge.source], edge.label)
                        if whi - wlo == 1 and pos < hi:
                            # Degree-1 adjacency (the star-closure / chain
                            # shape): one bounded bisect into the span.
                            value = wbase[wlo]
                            index = bisect_left(pool, value, pos, hi)
                            if index < hi and pool[index] == value:
                                base = [value]
                            else:
                                base = _NO_CANDIDATES
                        else:
                            base = _intersect_two((pool, pos, hi), (wbase, wlo, whi))
                    else:
                        wbuf = self._wbuf
                        wbuf.clear()
                        wbuf.append((pool, pos, hi))
                        for edge in cross_edges:
                            wbuf.append(
                                _adjacency_window_for_edge(graph, edge, current, mapping)
                            )
                        base = intersect_windows(wbuf)
                    pos = 0
                    hi = len(base)
                elif cross_edges:
                    # Original IsJoinable: one binary-search membership probe
                    # per candidate inside each fixed window.  Blank-label
                    # edges stay on per-candidate has_edge probes — their
                    # "window" would be a fresh union of every per-label
                    # posting list of the matched endpoint, an O(degree)
                    # copy per step.
                    probe_windows = pwindows[depth]
                    probe_edges = pedges[depth]
                    probe_windows.clear()
                    probe_edges.clear()
                    for edge in cross_edges:
                        if edge.label is None:
                            probe_edges.append(edge)
                        else:
                            probe_windows.append(
                                _adjacency_window_for_edge(graph, edge, current, mapping)
                            )
                seq_base[depth] = base
                seq_hi[depth] = hi
            else:
                base = seq_base[depth]
                pos = seq_pos[depth]
                hi = seq_hi[depth]
            loop_edges = loops_by[depth]
            if probing and cross_by[depth]:
                windows = pwindows[depth]
                probes = pedges[depth]
            else:
                windows = ()
                probes = ()
            while pos < hi:
                candidate = base[pos]
                pos += 1
                if not homomorphism and used.get(candidate):
                    continue
                joinable = True
                for wbase, wlo, whi in windows:
                    probe_count += 1
                    index = bisect_left(wbase, candidate, wlo, whi)
                    if index >= whi or wbase[index] != candidate:
                        joinable = False
                        break
                if joinable and probes:
                    for edge in probes:
                        probe_count += 1
                        if edge.source == current:
                            exists = has_edge(candidate, mapping[edge.target], edge.label)
                        else:
                            exists = has_edge(mapping[edge.source], candidate, edge.label)
                        if not exists:
                            joinable = False
                            break
                if joinable and loop_edges:
                    for edge in loop_edges:
                        # Self-loop pattern (?x p ?x): the candidate must
                        # carry the loop itself.
                        probe_count += 1
                        if not has_edge(candidate, candidate, edge.label):
                            joinable = False
                            break
                if not joinable:
                    continue
                recursions += 1  # accepted-candidate expansion step
                if depth == last:
                    solutions += 1
                    mapping[current] = candidate
                    for index in range(width):
                        appends[index](mapping[index])
                    appended += 1
                    if appended >= budget:
                        seq_pos[depth] = pos
                        self._depth = depth
                        stats.recursions += recursions
                        stats.solutions += solutions
                        stats.joinable_probes += probe_count
                        stats.intersection_calls += intersection_count
                        return appended
                    continue
                mapping[current] = candidate
                if not homomorphism:
                    used[candidate] = used.get(candidate, 0) + 1
                chosen[depth] = candidate
                seq_pos[depth] = pos
                depth += 1
                entering = True
                break
            if entering:
                continue
            # This depth is exhausted: backtrack.
            depth -= 1
            if depth == 0:
                self.exhausted = True
                stats.recursions += recursions
                stats.solutions += solutions
                stats.joinable_probes += probe_count
                stats.intersection_calls += intersection_count
                return appended
            if not homomorphism:
                used[chosen[depth]] -= 1


# ----------------------------------------------------------------- pooling
#: Reusable searchers per thread, mirroring the arena pool — one acquire per
#: match loop / worker chunk, not per region.
_local = threading.local()
MAX_POOLED_SEARCHERS = 4


def acquire_searcher() -> SubgraphSearcher:
    """A reusable searcher from this thread's pool (fresh when dry)."""
    free = getattr(_local, "searchers", None)
    if free:
        return free.pop()
    return SubgraphSearcher()


def release_searcher(searcher: SubgraphSearcher) -> None:
    """Return a searcher to this thread's pool (external refs dropped)."""
    searcher.detach()
    free = getattr(_local, "searchers", None)
    if free is None:
        free = []
        _local.searchers = free
    if len(free) < MAX_POOLED_SEARCHERS:
        free.append(searcher)


# ---------------------------------------------------------------- adapters
def subgraph_search_iter(
    graph: LabeledGraph,
    query: QueryGraph,
    tree: QueryTree,
    region: RegionArena,
    order: Sequence[int],
    config: MatchConfig,
    stats: Optional[SearchStatistics] = None,
) -> Iterator[List[int]]:
    """Yield every mapping of one candidate region, one solution at a time.

    Row adapter over :class:`SubgraphSearcher` kept for the oracle tests;
    each yielded list is a fresh copy, safe for the consumer to keep.
    Solutions are produced one ``fill`` step at a time,
    so abandoning the generator stops the search exactly where the old
    recursive core would have (no read-ahead).  The batch pipeline never
    goes through here (pinned by the zero-per-solution-allocation test).
    """
    stats = stats if stats is not None else SearchStatistics()
    searcher = acquire_searcher()
    try:
        searcher.reset(graph, query, tree, region, order, config, stats)
        width = query.vertex_count()
        columns = SolutionBatch.collector(width)
        while not searcher.exhausted:
            for column in columns:
                del column[:]
            if searcher.fill(columns, 1):
                yield [column[0] for column in columns]
    finally:
        release_searcher(searcher)

