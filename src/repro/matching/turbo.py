"""The TurboISO / TurboHOM / TurboHOM++ matcher (Algorithm 1 driver).

:class:`TurboMatcher` ties together start-vertex selection, query-tree
construction, candidate-region exploration, matching-order determination and
subgraph search.  Its behaviour (isomorphism vs homomorphism, which
optimizations are active) is entirely determined by the
:class:`~repro.matching.config.MatchConfig` it is constructed with, so the
paper's systems are just three factory functions:

* :func:`turbo_iso` — subgraph isomorphism (TurboISO),
* :func:`turbo_hom` — e-graph homomorphism without the TurboHOM++
  optimizations (the "direct modification" of Section 2.2),
* :func:`turbo_hom_pp` — e-graph homomorphism with +INT, -NLF, -DEG, +REUSE.

The primitive API is :meth:`TurboMatcher.iter_match_batches`: candidate
regions are explored into a pooled, reusable
:class:`~repro.matching.region_arena.RegionArena` and enumerated by the
explicit-stack :class:`~repro.matching.subgraph_search.SubgraphSearcher`,
which writes matched vertices **directly into the columnar batch being
built** — no per-solution list, no generator frame per depth.
:meth:`iter_match` is the row-iterating adapter over that stream, and
:meth:`match` and :meth:`count` are thin conveniences on top.  The
start-vertex loop itself is the module-level :func:`iter_region_batches`,
which the process shard workers run too.

Per-query preparation (start-vertex selection, query-tree construction,
filter-requirement derivation, the shared ``+REUSE`` matching-order slot) is
factored into :func:`prepare_query` / :class:`PreparedQuery` so the engine's
plan cache can run it once per *distinct* query and hand the precompiled
state to every later execution; ``iter_match(..., prepared=...)`` then goes
straight to candidate-region exploration.  On top of that, a caller may pass
a **region cache** (see :mod:`repro.engine.region_cache`) plus a stable
``region_key``: explored regions are snapshotted under
``(region_key, start_data_vertex)`` and repeated executions skip exploration
entirely (``MatchStatistics.regions_reused`` counts the hits).

The matcher operates on vertex mappings only; edge-label mappings for
predicate variables (the ``Me`` of Definition 2) are enumerated by the
caller via :meth:`LabeledGraph.edge_labels_between`, which keeps the hot
search loop free of per-edge bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.matching.candidate_region import (
    VertexPredicate,
    explore_candidate_region,
    query_requirements,
)
from repro.matching.config import MatchConfig
from repro.matching.filters import VertexRequirements
from repro.matching.matching_order import OrderCache, determine_matching_order
from repro.matching.query_tree import QueryTree, write_query_tree
from repro.matching.region_arena import EMPTY_REGION, acquire_arena, release_arena
from repro.matching.solution_batch import SOLUTION_BATCH_SIZE, SolutionBatch
from repro.matching.start_vertex import (
    candidate_start_vertices,
    choose_start,
    filter_start_candidates,
)
from repro.matching.subgraph_search import (
    SearchStatistics,
    acquire_searcher,
    release_searcher,
)

#: A solution maps query vertex index -> data vertex id.
Solution = List[int]


@dataclass
class PreparedQuery:
    """Precompiled per-query matching state (everything before Algorithm 1's
    start-vertex loop).

    All fields depend only on the immutable data graph, the query graph and
    the :class:`MatchConfig`, so a prepared query can be cached and reused by
    every execution of the same query.  ``order_cache`` is deliberately
    mutable: under ``+REUSE`` the first region's matching order is stored
    there and reused across regions *and* across executions.
    """

    query: QueryGraph
    start_vertex: int
    start_candidates: List[int]
    #: Query tree rooted at ``start_vertex`` (None for single-vertex queries).
    tree: Optional[QueryTree]
    #: Per-vertex degree/NLF requirements for candidate-region exploration.
    requirements: Dict[int, VertexRequirements]
    #: Shared ``+REUSE`` matching-order slot.
    order_cache: OrderCache


def prepare_query(
    graph: LabeledGraph,
    query: QueryGraph,
    config: MatchConfig,
) -> PreparedQuery:
    """Run all per-query preparation of a connected query once.

    For single-vertex queries the candidate list is already degree/NLF
    filtered (when the configuration enables those filters), mirroring what
    :func:`~repro.matching.start_vertex.choose_start` does for structural
    queries.
    """
    if query.vertex_count() == 1 and query.edge_count() == 0:
        candidates = filter_start_candidates(
            graph, query, 0, candidate_start_vertices(graph, query, 0), config
        )
        return PreparedQuery(query, 0, candidates, None, {}, OrderCache())
    selection = choose_start(graph, query, config)
    tree = write_query_tree(query, selection.vertex)
    requirements = query_requirements(query, config)
    return PreparedQuery(
        query, selection.vertex, selection.candidates, tree, requirements, OrderCache()
    )


@dataclass
class MatchStatistics:
    """Aggregated profiling counters for one match call."""

    start_vertices: int = 0
    candidate_regions: int = 0
    region_vertices: int = 0
    solutions: int = 0
    #: Candidate regions served from a region cache instead of being
    #: re-explored (the ``+REUSE``-across-queries analogue).
    regions_reused: int = 0
    search: SearchStatistics = field(default_factory=SearchStatistics)


class TurboMatcher:
    """Candidate-region subgraph matcher over a :class:`LabeledGraph`."""

    def __init__(self, graph: LabeledGraph, config: Optional[MatchConfig] = None):
        self.graph = graph
        self.config = config if config is not None else MatchConfig.turbo_hom_pp()
        self.last_statistics = MatchStatistics()

    # -------------------------------------------------------------- main API
    def iter_match_batches(
        self,
        query: QueryGraph,
        vertex_predicates: Optional[Dict[int, VertexPredicate]] = None,
        max_results: Optional[int] = None,
        prepared: Optional[PreparedQuery] = None,
        batch_size: int = SOLUTION_BATCH_SIZE,
        region_cache=None,
        region_key=None,
    ) -> Iterator[SolutionBatch]:
        """Stream solutions as columnar batches straight off the search core.

        The primitive entry point: solutions are packed column-major as the
        explicit-stack searcher produces them, so the engine's batch
        pipeline (and the shard transports) move flat arrays that were never
        row-materialized.  ``max_results`` (or the config's ``max_results``)
        stops enumeration after exactly that many solutions.  ``prepared``
        supplies precompiled per-query state (from :func:`prepare_query`,
        typically via a cached query plan).  ``region_cache``/``region_key``
        enable cross-query candidate-region reuse: ``region_key`` must
        uniquely identify (query, config) — the engine passes
        ``(plan fingerprint, alternative, component)``.
        ``self.last_statistics`` reflects the work done so far at any point
        of the iteration.
        """
        limit = max_results if max_results is not None else self.config.max_results
        if limit is not None and limit <= 0:
            return
        stats = MatchStatistics()
        self.last_statistics = stats
        predicates = vertex_predicates or {}

        if query.vertex_count() == 0:
            stats.solutions += 1
            yield SolutionBatch((), 1)
            return
        if prepared is None:
            # A prepared plan component is connected by construction.
            if not query.is_connected():
                raise ValueError(
                    "TurboMatcher requires a connected query graph; split disconnected "
                    "patterns into components (the engine layer does this automatically)"
                )
            prepared = prepare_query(self.graph, query, self.config)
        if query.vertex_count() == 1 and query.edge_count() == 0:
            yield from self._iter_single_vertex_batches(
                predicates, stats, prepared, limit, batch_size
            )
            return

        stats.start_vertices = len(prepared.start_candidates)
        yield from iter_region_batches(
            self.graph, self.config, query, prepared, predicates,
            prepared.start_candidates, limit, stats, batch_size,
            region_cache, region_key,
        )

    def iter_match(
        self,
        query: QueryGraph,
        vertex_predicates: Optional[Dict[int, VertexPredicate]] = None,
        max_results: Optional[int] = None,
        prepared: Optional[PreparedQuery] = None,
        region_cache=None,
        region_key=None,
        batch_size: int = SOLUTION_BATCH_SIZE,
    ) -> Iterator[Solution]:
        """Stream all vertex mappings one at a time (row adapter).

        Same semantics, limits and statistics as :meth:`iter_match_batches`;
        each yielded list is a fresh row the consumer may keep.  Solutions
        surface in ``batch_size`` groups — pass ``batch_size=1`` when the
        consumer may stop mid-stream and read-ahead work must not happen.
        """
        for batch in self.iter_match_batches(
            query, vertex_predicates, max_results, prepared, batch_size,
            region_cache=region_cache, region_key=region_key,
        ):
            yield from batch.iter_rows()

    def match(
        self,
        query: QueryGraph,
        vertex_predicates: Optional[Dict[int, VertexPredicate]] = None,
        max_results: Optional[int] = None,
    ) -> List[Solution]:
        """Return all vertex mappings of ``query`` in the data graph."""
        return list(self.iter_match(query, vertex_predicates, max_results))

    def count(self, query: QueryGraph, vertex_predicates=None) -> int:
        """Count solutions without materializing them (or their rows)."""
        counter = 0
        for batch in self.iter_match_batches(query, vertex_predicates):
            counter += batch.rows
        return counter

    # ---------------------------------------------------------- special case
    def _iter_single_vertex_batches(
        self,
        predicates: Dict[int, VertexPredicate],
        stats: MatchStatistics,
        prepared: PreparedQuery,
        limit: Optional[int],
        batch_size: int,
    ) -> Iterator[SolutionBatch]:
        """Algorithm 1, lines 2–4: queries with a single vertex and no edge.

        The degree/NLF filters were already applied by :func:`prepare_query`,
        so only the runtime vertex predicates remain.
        """
        predicate = predicates.get(0)
        columns = SolutionBatch.collector(1)
        rows = 0
        produced = 0
        for data_vertex in prepared.start_candidates:
            if predicate is not None and not predicate(data_vertex):
                continue
            columns[0].append(data_vertex)
            rows += 1
            produced += 1
            stats.solutions += 1
            if rows >= batch_size:
                yield SolutionBatch(columns, rows)
                columns = SolutionBatch.collector(1)
                rows = 0
            if limit is not None and produced >= limit:
                break
        if rows:
            yield SolutionBatch(columns, rows)


def iter_region_batches(
    graph: LabeledGraph,
    config: MatchConfig,
    query: QueryGraph,
    prepared: PreparedQuery,
    predicates: Dict[int, VertexPredicate],
    starts: Iterable[int],
    limit: Optional[int],
    stats: MatchStatistics,
    batch_size: int = SOLUTION_BATCH_SIZE,
    region_cache=None,
    region_key=None,
) -> Iterator[SolutionBatch]:
    """Algorithm 1, lines 9–15: one candidate region per start data vertex.

    The one start-vertex loop of the repo: the sequential matcher runs it
    over ``prepared.start_candidates``, and every shard worker runs it over
    the start vertices of the chunks it claims.  Each region is explored
    into one pooled arena and enumerated by one pooled searcher, which packs
    solutions straight into the batch being built; a batch ships when it
    holds ``batch_size`` rows, at ``limit`` rows in total (then the loop
    ends), and once more, partly filled, when ``starts`` runs out.  Rows
    therefore gather across regions, so a stream is full batches plus one
    tail.  ``region_cache``/``region_key`` snapshot explored regions under
    ``(region_key, start_data_vertex)`` and skip exploration on a hit.
    ``stats`` is current at every yield.
    """
    tree = prepared.tree
    assert tree is not None
    requirements = prepared.requirements
    root_predicate = predicates.get(prepared.start_vertex)
    order_cache = prepared.order_cache if config.reuse_matching_order else None
    caching = region_cache is not None and region_key is not None
    width = query.vertex_count()
    arena = acquire_arena()
    searcher = acquire_searcher()
    try:
        columns = SolutionBatch.collector(width)
        rows = 0
        produced = 0
        for start_data_vertex in starts:
            if root_predicate is not None and not root_predicate(start_data_vertex):
                continue
            if caching:
                region = region_cache.lookup((region_key, start_data_vertex))
                if region is None:
                    region = explore_candidate_region(
                        graph, query, tree, config, start_data_vertex,
                        predicates, requirements, arena,
                    )
                    region_cache.store(
                        (region_key, start_data_vertex),
                        EMPTY_REGION if region is None else region.snapshot(),
                    )
                else:
                    stats.regions_reused += 1
                    if region is EMPTY_REGION:
                        region = None
            else:
                region = explore_candidate_region(
                    graph, query, tree, config, start_data_vertex,
                    predicates, requirements, arena,
                )
            if region is None:
                continue
            stats.candidate_regions += 1
            stats.region_vertices += region.size()
            order = determine_matching_order(tree, region, order_cache)
            searcher.reset(graph, query, tree, region, order, config, stats.search)
            while not searcher.exhausted:
                budget = batch_size - rows
                if limit is not None and limit - produced < budget:
                    budget = limit - produced
                appended = searcher.fill(columns, budget)
                rows += appended
                produced += appended
                stats.solutions += appended
                if rows >= batch_size or (limit is not None and produced >= limit):
                    yield SolutionBatch(columns, rows)
                    if limit is not None and produced >= limit:
                        return
                    columns = SolutionBatch.collector(width)
                    rows = 0
        if rows:
            yield SolutionBatch(columns, rows)
    finally:
        release_arena(arena)
        release_searcher(searcher)


# ---------------------------------------------------------------- factories
def turbo_iso(graph: LabeledGraph) -> TurboMatcher:
    """TurboISO: subgraph isomorphism with the original filters."""
    return TurboMatcher(graph, MatchConfig.isomorphism())


def turbo_hom(graph: LabeledGraph) -> TurboMatcher:
    """TurboHOM: e-graph homomorphism, no TurboHOM++ optimizations."""
    return TurboMatcher(graph, MatchConfig.homomorphism_baseline())


def turbo_hom_pp(graph: LabeledGraph, config: Optional[MatchConfig] = None) -> TurboMatcher:
    """TurboHOM++: e-graph homomorphism with all four optimizations."""
    return TurboMatcher(graph, config if config is not None else MatchConfig.turbo_hom_pp())
