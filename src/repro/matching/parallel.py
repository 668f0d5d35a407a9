"""Parallel matching by partitioning starting data vertices (Section 5.2).

After the query tree is written, every starting data vertex can be processed
independently — candidate-region exploration, matching-order determination
and subgraph search (Algorithm 1, lines 9–15).  The paper distributes small
dynamic chunks of starting vertices over NUMA-pinned threads.

This reproduction distributes the same dynamic chunks over a **persistent**
thread pool: the worker threads are started lazily on the first match and
then reused by every later query (a :class:`_MatchJob` per call), so serving
many short queries does not pay thread spin-up per query.  Because CPython's
GIL serializes pure-Python bytecode, wall-clock speedup is not representative
of the paper's NUMA hardware; the :class:`ParallelStats` therefore also
reports the *work-partition speedup* ``total work / max per-worker work``
(work = candidate-region vertices explored plus search recursions), which is
the load-balance quantity Figure 16 actually demonstrates.  Both metrics are
reported by the Figure 16 benchmark.

The primitive API is :meth:`ParallelMatcher.iter_match_batches`: workers
push columnar :class:`~repro.matching.solution_batch.SolutionBatch` objects
onto a queue and the generator drains it, so the consumer streams solutions
while workers are still searching, without a full result list ever being
materialized by the matcher itself (:meth:`iter_match` is the row-iterating
adapter over the same stream).  A ``max_results`` limit (threaded
down from the engine's ``limit_hint``) or an abandoned generator sets the
job's stop event, so workers cease searching instead of enumerating
embeddings nobody will read.
"""

from __future__ import annotations

import queue
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.matching.candidate_region import VertexPredicate
from repro.matching.config import MatchConfig
from repro.matching.shard_protocol import (
    ShardCollector,
    StreamGate,
    StreamOutcome,
    chunk_ranges,
    merge_solution_batches,
    run_chunk,
    run_sequential_batches,
)
from repro.matching.solution_batch import SolutionBatch
from repro.matching.turbo import PreparedQuery, Solution, prepare_query


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

        CPython's GIL serializes the actual threads, so the measured
        ``work_speedup`` under-reports load balance when the whole workload
        drains before the other threads even start.  This helper replays the
        recorded per-chunk work through a greedy longest-processing-time
        schedule, which is what the paper's dynamic chunking achieves on real
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


class _MatchJob:
    """One query's worth of work, shared by every pool worker.

    Carries everything a worker needs (so the long-lived worker threads hold
    no reference to the :class:`ParallelMatcher` and cannot keep it alive),
    plus the consumer-facing queues, the stop event and the shared counters.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        config: MatchConfig,
        query: QueryGraph,
        prepared: PreparedQuery,
        predicates: Dict[int, VertexPredicate],
        chunk_size: int,
        expected_workers: int,
        limit: Optional[int],
        region_cache=None,
        region_key=None,
        warm_only: bool = False,
    ):
        self.graph = graph
        self.config = config
        self.query = query
        self.prepared = prepared
        self.predicates = predicates
        self.root_predicate = predicates.get(prepared.start_vertex)
        self.expected_workers = expected_workers
        #: Result limit of the stream: a worker's batch ships as soon as it
        #: holds this many rows (see :class:`ShardCollector`).
        self.limit = limit
        #: Cross-query region cache (the engine's, shared by every worker
        #: thread) plus the stable per-(query, config) key prefix.
        self.region_cache = region_cache
        self.region_key = region_key
        #: Cache-warming pass: explore + cache regions, skip the search.
        self.warm_only = warm_only

        # Dynamic chunking: workers repeatedly pop small chunks of starting
        # vertices, which evens out skewed candidate-region sizes.
        self.chunks: "queue.Queue[Sequence[int]]" = queue.Queue()
        candidates = prepared.start_candidates
        for begin, end in chunk_ranges(len(candidates), chunk_size):
            self.chunks.put(candidates[begin:end])

        #: Bounded handoff of columnar solution batches (backpressure: a slow
        #: consumer suspends the workers instead of accumulating the full
        #: result set).  ``None`` entries are wake tokens a finishing worker
        #: leaves so the consumer re-checks job completion promptly.
        self.output: "queue.Queue[Optional[SolutionBatch]]" = queue.Queue(
            maxsize=max(2 * expected_workers, 8)
        )
        #: Set when the consumer stops early (result limit reached or the
        #: generator abandoned): workers finish their current batch and move
        #: on to the next job instead of searching the rest of the queue.
        self.stop = threading.Event()
        #: Work counters and errors are reported through shared state (under
        #: a lock) rather than queue markers, so delivering them can never
        #: block on the bounded queue.
        self.lock = threading.Lock()
        self.per_worker_work = [0] * expected_workers
        self.per_chunk_work: List[int] = []
        self.errors: List[BaseException] = []
        self.finished_workers = 0
        #: Set by the last worker to leave the job; the consumer waits on it
        #: before aggregating statistics (the pool equivalent of join()).
        self.done = threading.Event()

    # ------------------------------------------------------------- worker side
    def emit(self, batch: SolutionBatch) -> bool:
        """Stop-aware bounded put; False once the consumer stopped."""
        while not self.stop.is_set():
            try:
                self.output.put(batch, timeout=0.05)
                return True
            except queue.Full:
                continue
        return False

    def run(self, worker_index: int) -> None:
        """Drain start-vertex chunks until the job is exhausted or stopped.

        The per-chunk matching core is the shared
        :func:`~repro.matching.shard_protocol.run_chunk`, so thread and
        process shards execute identical semantics; this worker's one
        :class:`ShardCollector` gathers rows across all the chunks it
        claims and ships its tail when the worker leaves the job.
        """
        local_work = 0
        local_chunk_work: List[int] = []
        collector = ShardCollector(
            self.query.vertex_count(), self.limit, self.emit, self.stop.is_set
        )
        try:
            while not self.stop.is_set():
                try:
                    chunk = self.chunks.get_nowait()
                except queue.Empty:
                    break
                chunk_work = run_chunk(
                    self.graph, self.config, self.query, self.prepared,
                    self.predicates, self.root_predicate, chunk, collector,
                    region_cache=self.region_cache, region_key=self.region_key,
                    warm_only=self.warm_only,
                )
                local_work += chunk_work
                local_chunk_work.append(chunk_work)
            collector.flush()
        except BaseException as exc:  # noqa: BLE001 - re-raised on the consumer side
            with self.lock:
                self.errors.append(exc)
        finally:
            with self.lock:
                self.per_worker_work[worker_index] += local_work
                self.per_chunk_work.extend(local_chunk_work)
                self.finished_workers += 1
                last = self.finished_workers >= self.expected_workers
            if last:
                self.done.set()
            try:
                # Wake token so a consumer blocked in a poll notices this
                # worker finished without waiting out the timeout; dropping
                # it when the queue is full is fine — the consumer then has
                # batches to read and re-checks completion before it blocks
                # again.
                self.output.put_nowait(None)
            except queue.Full:
                pass


def _pool_worker(jobs: "queue.Queue[Optional[_MatchJob]]", worker_index: int) -> None:
    """Long-lived pool thread: process jobs until the shutdown sentinel.

    Deliberately a module-level function over the jobs queue only, so pool
    threads never hold a reference to their :class:`ParallelMatcher` and the
    matcher stays garbage-collectable (its finalizer shuts the pool down).
    """
    while True:
        job = jobs.get()
        if job is None:
            return
        job.run(worker_index)


def _shutdown_pool(jobs: "queue.Queue[Optional[_MatchJob]]", workers: int) -> None:
    """Ask every pool thread to exit (used by close() and the GC finalizer)."""
    for _ in range(workers):
        jobs.put(None)


class ParallelMatcher:
    """Matches queries by distributing starting vertices over a worker pool.

    The pool is lazy and persistent: threads start on the first parallel
    match and are reused for every subsequent query, which is what makes an
    engine-held matcher cheap for high-throughput repeated-query serving.
    :meth:`close` shuts the pool down explicitly; an abandoned matcher shuts
    it down via a GC finalizer (worker threads never reference the matcher).
    """

    def __init__(
        self,
        graph: LabeledGraph,
        config: Optional[MatchConfig] = None,
        workers: int = 4,
        chunk_size: int = 8,
    ):
        self.graph = graph
        self.config = config if config is not None else MatchConfig.turbo_hom_pp()
        self.workers = max(1, workers)
        self.chunk_size = max(1, chunk_size)
        self.last_stats: Optional[ParallelStats] = None
        self._jobs: "queue.Queue[Optional[_MatchJob]]" = queue.Queue()
        self._threads: List[threading.Thread] = []
        self._finalizer: Optional[weakref.finalize] = None
        #: Jobs whose consumer generator may still be alive.  close() must
        #: stop them *before* joining the workers: a worker blocked on a full
        #: bounded output queue only re-checks its job's stop event, so
        #: joining without stopping active jobs would deadlock.
        self._active_jobs: "weakref.WeakSet[_MatchJob]" = weakref.WeakSet()
        #: Serializes streams across threads (same-thread overlap keeps the
        #: historical supersede semantics; see :class:`StreamGate`).
        self._gate = StreamGate()

    # ------------------------------------------------------------------- pool
    def _ensure_pool(self) -> None:
        """Start the worker threads if they are not running yet."""
        if self._threads and all(thread.is_alive() for thread in self._threads):
            return
        self._threads = [
            threading.Thread(
                target=_pool_worker,
                args=(self._jobs, index),
                name=f"turbohom-pool-{index}",
                daemon=True,
            )
            for index in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()
        self._finalizer = weakref.finalize(self, _shutdown_pool, self._jobs, self.workers)

    def close(self) -> None:
        """Shut the worker pool down and join its threads.

        Safe to call multiple times; a later match transparently restarts
        the pool.  Any job still being consumed is stopped first (its
        generator keeps draining already-delivered batches but the workers
        cease searching), so closing the matcher mid-iteration cannot
        deadlock on the bounded result queue.
        """
        if not self._threads:
            self._gate.force_release()
            return
        # Shutdown ordering: stop active jobs, then enqueue the sentinels,
        # then join.  A worker blocked in a stop-aware put on a full output
        # queue needs its job stopped before it can reach the sentinel.
        for job in list(self._active_jobs):
            job.stop.set()
        # Unblock any thread queued behind a stream that will never finish
        # normally; its job was just stopped, so the revoked stream ends.
        self._gate.force_release()
        if self._finalizer is not None:
            self._finalizer()  # pushes one sentinel per worker, exactly once
            self._finalizer = None
        for thread in self._threads:
            thread.join()
        self._threads = []
        # Fresh queue: any unconsumed sentinels must not kill a restarted pool.
        self._jobs = queue.Queue()

    # ------------------------------------------------------------------ match
    def match(
        self,
        query: QueryGraph,
        vertex_predicates: Optional[Dict[int, VertexPredicate]] = None,
        max_results: Optional[int] = None,
        prepared: Optional[PreparedQuery] = None,
    ) -> Tuple[List[Solution], ParallelStats]:
        """Return all solutions plus parallel execution statistics."""
        solutions = list(self.iter_match(query, vertex_predicates, max_results, prepared))
        assert self.last_stats is not None
        return solutions, self.last_stats

    def iter_match(
        self,
        query: QueryGraph,
        vertex_predicates: Optional[Dict[int, VertexPredicate]] = None,
        max_results: Optional[int] = None,
        prepared: Optional[PreparedQuery] = None,
        region_cache=None,
        region_key=None,
    ) -> Iterator[Solution]:
        """Stream solutions one at a time (row adapter over the batches)."""
        for batch in self.iter_match_batches(
            query, vertex_predicates, max_results, prepared, region_cache, region_key
        ):
            yield from batch.iter_rows()

    def iter_match_batches(
        self,
        query: QueryGraph,
        vertex_predicates: Optional[Dict[int, VertexPredicate]] = None,
        max_results: Optional[int] = None,
        prepared: Optional[PreparedQuery] = None,
        region_cache=None,
        region_key=None,
        warm_only: bool = False,
    ) -> Iterator[SolutionBatch]:
        """Stream columnar solution batches as the pool workers produce them.

        ``max_results`` (or the config's ``max_results``) stops workers once
        that many solutions were delivered (the final batch is sliced to the
        limit); ``prepared`` supplies precompiled per-query state so repeated
        queries skip start-vertex selection and query-tree construction.
        ``self.last_stats`` is populated once the generator is exhausted.

        Jobs are serialized per pool.  Starting a new match from the thread
        whose earlier stream is still open *supersedes* the old stream,
        which keeps whatever it already delivered and then ends (that
        thread cannot drive both, so waiting would deadlock).  A match
        started from any *other* thread blocks until the open stream
        finishes, so concurrent consumers always see complete results.
        """
        start_time = time.perf_counter()
        predicates = vertex_predicates or {}

        limit = max_results if max_results is not None else self.config.max_results
        if limit is not None and limit <= 0:
            self.last_stats = ParallelStats(
                workers=self.workers,
                chunk_size=self.chunk_size,
                elapsed_ms=0.0,
                solutions=0,
            )
            return

        if query.vertex_count() <= 1 or self.workers == 1:
            def publish(solutions_count: int, work: int, elapsed: float) -> None:
                self.last_stats = ParallelStats(
                    workers=1,
                    chunk_size=self.chunk_size,
                    elapsed_ms=elapsed,
                    solutions=solutions_count,
                    per_worker_work=[work],
                    per_chunk_work=[work],
                )

            yield from run_sequential_batches(
                self.graph, self.config, query, predicates, limit, prepared, publish,
                region_cache=region_cache, region_key=region_key,
            )
            return

        if prepared is None:
            prepared = prepare_query(self.graph, query, self.config)
        # Cross-thread serialization: a second thread waits here until the
        # open stream finishes; the owning thread passes straight through
        # (inheriting the lease) and supersedes its predecessor below.
        lease = self._gate.acquire()
        try:
            job = _MatchJob(
                self.graph, self.config, query, prepared, predicates,
                self.chunk_size, self.workers, limit,
                region_cache=region_cache, region_key=region_key,
                warm_only=warm_only,
            )
            self._ensure_pool()
            # Jobs are serialized per pool: a predecessor whose stream was
            # left open (suspended, not closed) would keep workers parked in
            # its bounded output queue and starve this job — supersede it.
            # Only the thread that owns the old stream can reach this point
            # while it is open; the old stream keeps whatever was already
            # queued for it and then ends.
            for previous in list(self._active_jobs):
                if not previous.done.is_set():
                    previous.stop.set()
                    previous.done.wait()
            self._active_jobs.add(job)
            for _ in range(self.workers):
                self._jobs.put(job)
        except BaseException:
            self._gate.release(lease)
            raise

        def poll(timeout: float) -> Optional[SolutionBatch]:
            """Next batch, a zero-row batch for a wake token, None when idle."""
            try:
                batch = job.output.get(timeout=timeout) if timeout else job.output.get_nowait()
            except queue.Empty:
                return None
            return batch if batch is not None else SolutionBatch.empty()

        outcome = StreamOutcome()
        try:
            yield from merge_solution_batches(poll, job.done.is_set, limit, outcome)
        finally:
            # Reached on exhaustion, on the result limit, and on generator
            # abandonment: tell workers to stop after their current batch
            # (emit() and the region loop poll the event), then wait for all
            # of them to leave the job before aggregating statistics.
            job.stop.set()
            job.done.wait()
            elapsed = (time.perf_counter() - start_time) * 1000.0
            self.last_stats = ParallelStats(
                workers=self.workers,
                chunk_size=self.chunk_size,
                elapsed_ms=elapsed,
                solutions=outcome.delivered,
                per_worker_work=job.per_worker_work,
                per_chunk_work=job.per_chunk_work,
            )
            self._gate.release(lease)
        # A worker error is surfaced only when the enumeration ran to
        # exhaustion.  After an intentional early stop (max_results reached)
        # the delivered solutions are complete and the sequential path would
        # never have touched the failing region either — raising here would
        # make the same query non-deterministically raise or succeed
        # depending on worker timing.
        if job.errors and not outcome.stopped_early:
            raise job.errors[0]
