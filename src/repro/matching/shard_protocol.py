"""The job/merge protocol of the process shard pool.

:class:`~repro.matching.process_shard.ProcessShardPool` parallelizes
following Section 5.2 of the paper: the start data vertices of a prepared
query are split into small dynamic chunks, workers repeatedly claim a
chunk and run candidate-region exploration + subgraph search on it, and
the consumer merges streamed solution batches.  This module holds the
transport-independent pieces of that scheme, kept apart from the pool's
process and shared-memory plumbing so they can be driven in-process (the
engine's cache warming and the tests do):

* :func:`run_chunk` — the per-chunk matching core (regions, matching order,
  work accounting).  It is the only place a shard worker runs the matcher.
* :class:`ShardCollector` — the batch a worker is filling for one job.
  ``run_chunk`` packs solutions into it region after region and chunk
  after chunk; it ships when full and once more when the worker leaves
  the job, so batches cross the transport as full as the sequential
  matcher's.
* :func:`chunk_ranges` — the dynamic-chunk partition of the start-candidate
  list.
* :func:`merge_solution_batches` — the consumer-side merge loop: poll for
  batches, honour the result limit, drain after all workers finished.
* :class:`ParallelStats` — the work-partition outcome of one match.

Results move as columnar :class:`~repro.matching.solution_batch.
SolutionBatch` objects end-to-end: workers pack solutions into flat
per-vertex arrays as the search produces them, the merge loop slices whole
batches against the result limit, and the pool's ``iter_match`` surface
is a thin row-iterating adapter.  The transport (a shared-memory ring +
``multiprocessing`` queues + a shared cancel counter) is supplied by the
pool through the collector's ``emit`` / ``stopped`` and the merge loop's
``poll`` / ``finished`` callables.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.matching.candidate_region import VertexPredicate, explore_candidate_region
from repro.matching.config import MatchConfig
from repro.matching.matching_order import determine_matching_order
from repro.matching.region_arena import EMPTY_REGION, acquire_arena, release_arena
from repro.matching.solution_batch import SOLUTION_BATCH_SIZE, SolutionBatch
from repro.matching.subgraph_search import (
    SearchStatistics,
    acquire_searcher,
    release_searcher,
)
from repro.matching.turbo import PreparedQuery, TurboMatcher

#: How long the consumer waits for one batch before re-checking liveness.
POLL_INTERVAL = 0.05


@dataclass
class ParallelStats:
    """Outcome of a parallel match."""

    workers: int
    chunk_size: int
    elapsed_ms: float
    solutions: int
    per_worker_work: List[int] = field(default_factory=list)
    per_chunk_work: List[int] = field(default_factory=list)

    @property
    def total_work(self) -> int:
        """Sum of per-worker work units."""
        return sum(self.per_worker_work)

    @property
    def work_speedup(self) -> float:
        """Idealized speedup assuming perfectly parallel workers.

        ``total work / max per-worker work`` — the dynamic-chunking load
        balance the paper's Figure 16 measures on NUMA hardware.
        """
        busiest = max(self.per_worker_work, default=0)
        if busiest == 0:
            return float(len(self.per_worker_work) or 1)
        return self.total_work / busiest

    def simulated_speedup(self, workers: Optional[int] = None) -> float:
        """Speed-up of a simulated dynamic schedule over ``workers`` workers.

        The measured ``work_speedup`` under-reports load balance when there
        are fewer cores than workers or the whole workload drains before the
        other workers even start.  This helper replays the recorded
        per-chunk work through a greedy longest-processing-time schedule,
        which is what the paper's dynamic chunking achieves on real
        hardware.
        """
        worker_count = workers if workers is not None else self.workers
        if worker_count <= 1 or not self.per_chunk_work:
            return 1.0
        loads = [0] * worker_count
        for work in sorted(self.per_chunk_work, reverse=True):
            loads[loads.index(min(loads))] += work
        busiest = max(loads)
        total = sum(self.per_chunk_work)
        if busiest == 0:
            return float(worker_count)
        return total / busiest


class StreamGate:
    """Cross-thread serialization of one pool's solution streams.

    The shard pool runs jobs strictly serialized over shared queues, and a
    new match historically *superseded* a still-open stream.  That is the
    right call within one thread — the thread driving the old generator is
    the one asking for a new stream, so blocking it would deadlock — but
    across threads it silently truncated the first consumer's results.

    The gate keeps both behaviours apart: the thread that owns the open
    stream may start a new one immediately (it inherits the lease and the
    pool supersedes the predecessor as before), while any *other* thread
    blocks in :meth:`acquire` until the open stream finishes.  Leases make
    hand-off safe: a superseded generator's cleanup finds its lease revoked
    and leaves the lock alone.

    ``force_release`` unblocks waiters during pool shutdown; the pool
    retires the active job first, so a revoked stream ends instead of
    yielding more data.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Protects the (owner thread, lease) pair; never held while
        #: blocking on ``_lock``.
        self._guard = threading.Lock()
        self._owner: Optional[int] = None
        self._lease: Optional[object] = None

    def acquire(self) -> object:
        """Take (or inherit) the stream lock; returns the new lease token."""
        me = threading.get_ident()
        lease = object()
        with self._guard:
            if self._lease is not None and self._owner == me:
                # Same-thread overlap: hand the lease to the new stream so
                # the superseded predecessor's cleanup becomes a no-op.
                self._lease = lease
                return lease
        self._lock.acquire()
        with self._guard:
            self._owner = me
            self._lease = lease
        return lease

    def release(self, lease: object) -> None:
        """Release the lock if ``lease`` still owns it (else: superseded)."""
        with self._guard:
            if self._lease is not lease:
                return
            self._lease = None
            self._owner = None
            self._lock.release()

    def force_release(self) -> None:
        """Revoke any outstanding lease (pool shutdown): waiters proceed."""
        with self._guard:
            if self._lease is None:
                return
            self._lease = None
            self._owner = None
            self._lock.release()


def chunk_ranges(total: int, chunk_size: int) -> List[Tuple[int, int]]:
    """Half-open index ranges partitioning ``range(total)`` into dynamic chunks.

    Chunks are deliberately small (the paper's dynamic chunking): workers
    claim them one at a time, which evens out skewed candidate-region sizes.
    """
    size = max(1, chunk_size)
    return [(begin, min(begin + size, total)) for begin in range(0, total, size)]


class ShardCollector:
    """The batch one worker is filling for one job.

    A worker creates one collector when it joins a job and hands it to
    every :func:`run_chunk` call of that job, so rows accumulate across
    candidate regions *and* across chunks.  The batch ships through
    ``emit`` when it holds ``min(SOLUTION_BATCH_SIZE, limit)`` rows — the
    sequential matcher's rule, so a ``LIMIT k`` job never waits for rows
    beyond the ``k`` that end it — and once more, partly filled, when the
    worker leaves the job and calls :meth:`flush` itself.  Every job
    therefore delivers full batches plus at most one tail per worker.

    ``emit`` delivers one batch to the consumer and returns False once the
    consumer stopped; ``stopped`` is the job's cancel flag.  After a stop
    nothing is emitted: held rows are dropped, since the consumer already
    has every row it asked for.
    """

    __slots__ = ("target", "emit", "stopped", "columns", "rows")

    def __init__(
        self,
        width: int,
        limit: Optional[int],
        emit: Callable[[SolutionBatch], bool],
        stopped: Callable[[], bool],
    ):
        self.target = (
            SOLUTION_BATCH_SIZE if limit is None else min(SOLUTION_BATCH_SIZE, limit)
        )
        self.emit = emit
        self.stopped = stopped
        self.columns = SolutionBatch.collector(width)
        self.rows = 0

    @classmethod
    def for_warming(cls, stopped: Callable[[], bool]) -> "ShardCollector":
        """The collector of a ``warm_only`` pass: it carries the stop flag
        :func:`run_chunk` polls and is never filled."""
        return cls(0, None, lambda batch: True, stopped)

    def flush(self) -> bool:
        """Ship the held rows, if any; False once the consumer stopped."""
        batch = SolutionBatch(self.columns, self.rows)
        self.columns = SolutionBatch.collector(batch.width)
        self.rows = 0
        if self.stopped():
            return False
        return batch.rows == 0 or self.emit(batch)


def run_chunk(
    graph: LabeledGraph,
    config: MatchConfig,
    query: QueryGraph,
    prepared: PreparedQuery,
    predicates: Dict[int, VertexPredicate],
    root_predicate: Optional[VertexPredicate],
    chunk: Sequence[int],
    collector: ShardCollector,
    region_cache=None,
    region_key=None,
    warm_only: bool = False,
) -> int:
    """Match every start data vertex of one chunk into the worker's collector.

    This is the worker-side matching core of Algorithm 1's start-vertex loop
    (lines 9–15), run by every shard worker and by the engine's in-process
    cache warming.
    One pooled region arena and one explicit-stack searcher serve the whole
    chunk: exploration writes into the arena, the searcher packs solutions
    straight into ``collector``'s columns (no per-solution lists), and both
    buffers are reused region after region.  The collector belongs to the
    worker, not to the chunk: rows it still holds when this call returns
    travel with the next chunk's, and the worker ships the tail with one
    last :meth:`ShardCollector.flush` when it leaves the job.  A region larger
    than a batch still streams out in full batches, which bounds worker
    memory and lets a stop interrupt mid-region; ``collector.stopped`` is
    also polled between candidate regions so cancellation takes effect
    promptly.
    ``region_cache``/``region_key`` enable cross-query region reuse exactly
    as in :meth:`TurboMatcher.iter_match_batches` — each shard worker holds
    its own cache, in-process warming fills the engine's.
    ``warm_only`` turns the chunk into a cache-warming pass: regions are
    explored (and stored) exactly as usual, but the subgraph search is
    skipped and the collector stays untouched — the scheduler-driven warm-up
    uses this to pre-populate worker caches after a pool (re)start.  Returns
    the chunk's work units (candidate-region vertices explored plus search
    recursions), the load-balance quantity the Figure 16 benchmark reports.
    """
    work = 0
    order_cache = prepared.order_cache if config.reuse_matching_order else None
    tree = prepared.tree
    stopped = collector.stopped
    target = collector.target
    caching = region_cache is not None and region_key is not None
    arena = acquire_arena()
    searcher = acquire_searcher()
    try:
        for start_data_vertex in chunk:
            # Per-region stop check: cancellation takes effect between
            # regions (and, below, between batches).
            if stopped():
                break
            if root_predicate is not None and not root_predicate(start_data_vertex):
                continue
            if caching:
                region = region_cache.lookup((region_key, start_data_vertex))
                if region is None:
                    region = explore_candidate_region(
                        graph, query, tree, config, start_data_vertex, predicates,
                        prepared.requirements, arena,
                    )
                    region_cache.store(
                        (region_key, start_data_vertex),
                        EMPTY_REGION if region is None else region.snapshot(),
                    )
                elif region is EMPTY_REGION:
                    region = None
            else:
                region = explore_candidate_region(
                    graph, query, tree, config, start_data_vertex, predicates,
                    prepared.requirements, arena,
                )
            if region is None:
                continue
            work += region.size()
            if warm_only:
                continue
            order = determine_matching_order(tree, region, order_cache)
            search_stats = SearchStatistics()
            searcher.reset(graph, query, tree, region, order, config, search_stats)
            while not searcher.exhausted:
                collector.rows += searcher.fill(
                    collector.columns, target - collector.rows
                )
                if collector.rows >= target and not collector.flush():
                    break
            work += search_stats.recursions
    finally:
        release_arena(arena)
        release_searcher(searcher)
    return work


def run_sequential_batches(
    graph: LabeledGraph,
    config: MatchConfig,
    query: QueryGraph,
    predicates: Dict[int, VertexPredicate],
    limit: Optional[int],
    prepared: Optional[PreparedQuery],
    on_finish: Callable[[int, int, float], None],
    region_cache=None,
    region_key=None,
) -> Iterator[SolutionBatch]:
    """The shard pool's single-worker / single-vertex fallback.

    Streams columnar batches straight from the in-process
    :class:`TurboMatcher` (identical semantics, simpler bookkeeping than a
    one-shard job); on exhaustion calls ``on_finish(solutions, work,
    elapsed_ms)`` so the owning pool can publish its statistics object.
    """
    start_time = time.perf_counter()
    matcher = TurboMatcher(graph, config)
    solutions_count = 0
    for batch in matcher.iter_match_batches(
        query, vertex_predicates=predicates, max_results=limit, prepared=prepared,
        region_cache=region_cache, region_key=region_key,
    ):
        solutions_count += batch.rows
        yield batch
    elapsed = (time.perf_counter() - start_time) * 1000.0
    sequential = matcher.last_statistics
    work = sequential.region_vertices + sequential.search.recursions
    on_finish(solutions_count, work, elapsed)


@dataclass
class StreamOutcome:
    """How a merged solution stream ended (filled by the merge loop)."""

    delivered: int = 0
    #: True when the stream stopped because the result limit was reached (as
    #: opposed to running to exhaustion).  Worker errors are only surfaced
    #: after an exhaustive run — after an intentional early stop the
    #: delivered solutions are complete and the sequential path would never
    #: have touched the failing region either.
    stopped_early: bool = False


def merge_solution_batches(
    poll: Callable[[float], Optional[SolutionBatch]],
    finished: Callable[[], bool],
    limit: Optional[int],
    outcome: StreamOutcome,
) -> Iterator[SolutionBatch]:
    """Merge worker batches into one stream, honouring ``limit`` by slicing.

    ``poll(timeout)`` returns the next batch, a zero-row batch for a wake
    token or consumed control message, or ``None`` when nothing arrived
    within the timeout (it may also raise to propagate a worker failure).
    ``finished`` turns True once every worker has left the job; batches
    already queued at that point are drained before the stream ends (workers
    enqueue all output before reporting completion, in FIFO order).
    """
    draining = False
    while True:
        # Completion is checked before every blocking poll, not only after
        # an idle one: a finished job needs nothing but the non-blocking
        # drain, and a worker's wake token may have been dropped on a full
        # queue, so waiting for one could sleep out a whole POLL_INTERVAL.
        if not draining and finished():
            draining = True
        batch = poll(0.0 if draining else POLL_INTERVAL)
        if batch is None:
            if draining:
                return
            continue
        if batch.rows == 0:
            continue  # wake token / control message: re-check completion
        if limit is not None and outcome.delivered + batch.rows >= limit:
            take = limit - outcome.delivered
            outcome.delivered = limit
            outcome.stopped_early = True
            yield batch.head(take)
            return
        outcome.delivered += batch.rows
        yield batch
