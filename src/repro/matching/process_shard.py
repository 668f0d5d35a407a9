"""Multi-process shard execution over shared-memory CSR graphs.

CPython's GIL holds pure-Python matching to one core no matter how many
threads run it, so the paper's parallel embedding enumeration (Section 5.2,
Figure 16) needs real processes to saturate real hardware.
:class:`ProcessShardPool` is the repo's one parallel matcher, built so the
expensive state crosses the process boundary exactly once:

* **graph** — the :class:`~repro.graph.labeled_graph.LabeledGraph` CSR flat
  arrays are exported once into a ``multiprocessing.shared_memory`` segment
  (:meth:`LabeledGraph.export_shared`); each worker re-attaches zero-copy
  views (:meth:`LabeledGraph.attach_shared`), so the graph is never pickled
  and workers share one physical copy of the posting arrays;
* **plans** — per-query compiled state (a :class:`ShardPayload` of query
  graph, :class:`~repro.matching.turbo.PreparedQuery` and push-down
  predicates) is pickled to each worker the *first* time its ``plan_key``
  (canonical plan fingerprint) is seen and rehydrated into a per-worker LRU
  plan cache; repeated queries ship only the fingerprint;
* **work** — start-candidate index ranges are distributed through one shared
  chunk queue (the paper's dynamic chunking), a shared cancel counter fans
  ``limit_hint`` / abandoned-generator stops out to every shard, and a
  worker crash or exception is propagated to the consumer instead of
  hanging it;
* **results** — each worker fills one :class:`~repro.matching.
  shard_protocol.ShardCollector` per job, across all the candidate regions
  and chunks it claims, and ships it only when it is full (256 rows, or
  the job's limit) or when the worker leaves the job: what bounds this
  path is the number of messages, not the bytes, so a query crosses the
  boundary in about as many batches as the sequential matcher yields.
  Every batch travels as one ``("batch", job, worker, batch)`` message
  through the bounded result queue that also carries the control
  messages; a :class:`~repro.matching.solution_batch.SolutionBatch`
  pickles as one buffer per column, never per solution.  The queue's
  bound is the only backpressure, and :attr:`ProcessShardPool.transport`
  counts the batches and solutions that crossed it.

The matching semantics per chunk and the consumer-side merge loop live in
:mod:`repro.matching.shard_protocol`, apart from the transport.

Wall-clock speedup additionally requires multiple cores; the
:class:`~repro.matching.shard_protocol.ParallelStats` work-partition
metrics report the load balance either way.
"""

from __future__ import annotations

import itertools
import pickle
import queue
import threading
import time
import traceback
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

import multiprocessing

from repro.graph.labeled_graph import LabeledGraph, SharedGraphHandle
from repro.graph.query_graph import QueryGraph
from repro.matching.candidate_region import VertexPredicate
from repro.matching.config import MatchConfig
from repro.matching.shard_protocol import (
    ParallelStats,
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

#: How many rehydrated payloads each worker keeps, mirrored by the pool's
#: shipped-key LRU so parent and workers always agree on what is cached.
PAYLOAD_CACHE_SIZE = 64

#: How long (seconds) the pool waits for workers to acknowledge a shutdown
#: sentinel before terminating them.
_SHUTDOWN_GRACE = 5.0


class ShardWorkerError(RuntimeError):
    """A shard worker failed in a way its original exception cannot express.

    Raised when a worker process dies outright (killed, segfault) or when
    its exception could not be pickled back; carries the worker-side
    traceback text when one was captured.
    """


@dataclass
class ShardTransportStats:
    """Cumulative counters of the shard results that crossed the process boundary.

    ``queue_batches`` counts the batches delivered through the result
    queue (the only transport), ``solutions`` the rows they carried.  The
    engine surfaces these through :meth:`TurboEngine.stats`.
    """

    queue_batches: int = 0
    solutions: int = 0


@dataclass
class ShardPayload:
    """Everything a worker needs to execute one prepared (component) query.

    Pickled to workers once per ``plan_key`` and cached there; push-down
    predicates that expose a ``bind`` method (see
    :class:`~repro.engine.plan.PushdownPredicate`) are re-bound to the
    worker's context (the engine's graph mapping) after rehydration.
    """

    query: QueryGraph
    prepared: PreparedQuery
    predicates: Dict[int, VertexPredicate] = field(default_factory=dict)

    def bind(self, context: Any) -> None:
        """Re-bind context-dependent predicates after unpickling."""
        for predicate in self.predicates.values():
            bind = getattr(predicate, "bind", None)
            if bind is not None:
                bind(context)

    @property
    def root_predicate(self) -> Optional[VertexPredicate]:
        return self.predicates.get(self.prepared.start_vertex)


# --------------------------------------------------------------- worker side
def _put_error(results, job_id: int, worker_index: int, exc: BaseException, cancel) -> None:
    """Report a worker exception; fall back to text when it cannot pickle."""
    try:
        payload: Optional[bytes] = pickle.dumps(exc)
    except Exception:  # noqa: BLE001 - any pickling failure downgrades to text
        payload = None
    _put_message(
        results, ("error", job_id, worker_index, payload, traceback.format_exc()), cancel
    )


def _lru_touch(cache: "OrderedDict[Any, Any]", key: Any, value: Any) -> None:
    """Insert/refresh ``key`` and evict beyond :data:`PAYLOAD_CACHE_SIZE`.

    The single LRU policy shared by the worker-side payload caches and the
    parent-side shipped-key mirror: both sides see every job in the same
    order, so running the *same* code keeps their eviction decisions in
    lockstep — which is what guarantees a key the parent believes is
    shipped is still cached by every worker.
    """
    cache[key] = value
    cache.move_to_end(key)
    while len(cache) > PAYLOAD_CACHE_SIZE:
        cache.popitem(last=False)


def _put_message(results, message, cancel) -> None:
    """Deliver a control message, giving up only at pool teardown.

    During a normal job cancel the consumer is draining the queue, so the
    bounded put always completes; only when the whole pool is being torn
    down (:data:`_CANCEL_ALL`) is nobody left to drain, and the message is
    dropped so the worker can reach its shutdown sentinel.
    """
    while True:
        try:
            results.put(message, timeout=0.05)
            return
        except queue.Full:
            if cancel.value >= _CANCEL_ALL:
                return


def _shard_worker_main(
    worker_index: int,
    manifest,
    config: MatchConfig,
    context_bytes: Optional[bytes],
    control,
    chunks,
    results,
    cancel,
    region_cache_bytes: int = 0,
) -> None:
    """Long-lived worker process: attach the graph once, then serve jobs.

    The control queue is per worker (job headers are broadcast, ``None`` is
    the shutdown sentinel); the chunk queue is shared for dynamic load
    balancing.  A job header carries the stream's result limit, which sizes
    the worker's :class:`ShardCollector` so ``LIMIT k`` ships after ``k``
    rows instead of a full batch.
    ``region_cache_bytes`` sizes this worker's private cross-query region
    cache (0 disables it), an LRU exactly like the engine-held cache; the
    cache counters travel back as a cumulative :class:`~repro.engine.region_cache.
    RegionCacheStats` snapshot on every ``done`` message.  The worker
    intentionally never unlinks the shared graph segment — the exporting
    process owns it.
    """
    graph, shm = LabeledGraph.attach_shared(manifest)
    context = pickle.loads(context_bytes) if context_bytes is not None else None
    cache: "OrderedDict[Any, ShardPayload]" = OrderedDict()
    region_cache = None
    if region_cache_bytes:
        # Lazy import: the engine layer imports this module at its own
        # import time, so the upward import must not run at module scope.
        from repro.engine.region_cache import RegionCache

        region_cache = RegionCache(region_cache_bytes)
    try:
        while True:
            message = control.get()
            if message is None:
                return
            _, job_id, plan_key, payload_bytes, limit = message

            payload: Optional[ShardPayload] = None
            try:
                if payload_bytes is not None:
                    payload = pickle.loads(payload_bytes)
                    payload.bind(context)
                    if plan_key is not None:
                        _lru_touch(cache, plan_key, payload)
                else:
                    payload = cache[plan_key]
                    cache.move_to_end(plan_key)
            except BaseException as exc:  # noqa: BLE001 - reported to the consumer
                _put_error(results, job_id, worker_index, exc, cancel)
                payload = None

            def stopped(job_id=job_id) -> bool:
                return cancel.value >= job_id

            def emit(batch: SolutionBatch, job_id=job_id, stopped=stopped) -> bool:
                """Ship one batch through the result queue: a cancel-aware
                bounded put, False once the consumer stopped."""
                message = ("batch", job_id, worker_index, batch)
                while not stopped():
                    try:
                        results.put(message, timeout=0.05)
                        return True
                    except queue.Full:
                        continue
                return False

            work = 0
            chunk_works: List[int] = []
            failed = payload is None
            # One collector for the whole job: rows gather across regions
            # and chunks and ship full, the tail on the "end" marker.
            collector = None if failed else ShardCollector(
                payload.query.vertex_count(), limit, emit, stopped
            )
            while True:
                chunk_message = chunks.get()
                kind, chunk_job = chunk_message[0], chunk_message[1]
                if chunk_job < job_id:
                    # Stale entry from an older, cancelled job: discard.
                    continue
                if chunk_job > job_id:
                    # A future job's entry (only possible after a consumer
                    # gave this job up): hand it back and keep draining.
                    chunks.put(chunk_message)
                    time.sleep(0.01)
                    continue
                leaving = kind == "end"
                if not leaving and (failed or stopped()):
                    continue
                try:
                    if leaving:
                        if not failed:
                            collector.flush()
                    else:
                        lo, hi = chunk_message[2], chunk_message[3]
                        chunk_work = run_chunk(
                            graph, config, payload.query, payload.prepared,
                            payload.predicates, payload.root_predicate,
                            payload.prepared.start_candidates[lo:hi], collector,
                            region_cache=region_cache, region_key=plan_key,
                        )
                        work += chunk_work
                        chunk_works.append(chunk_work)
                except BaseException as exc:  # noqa: BLE001 - reported to the consumer
                    _put_error(results, job_id, worker_index, exc, cancel)
                    failed = True
                if leaving:
                    break
            cache_counters = (
                region_cache.stats_snapshot() if region_cache is not None else None
            )
            _put_message(
                results,
                ("done", job_id, worker_index, work, chunk_works, cache_counters),
                cancel,
            )
    finally:
        # Release every memoryview into the segment before closing it:
        # the graph's CSR views (and any frames still holding them) must be
        # gone or mmap refuses to close with "exported pointers exist".
        import gc

        del graph
        gc.collect()
        try:
            shm.close()
        except BufferError:  # pragma: no cover - lingering views at teardown
            pass


# --------------------------------------------------------------- parent side
def _teardown_pool(processes, controls, handle: Optional[SharedGraphHandle], cancel) -> None:
    """Stop workers and unlink the graph segment (close() and GC path)."""
    if cancel is not None:
        # Unpark any worker sitting in a cancel-aware bounded put before
        # asking it to exit.
        _raise_cancel(cancel, _CANCEL_ALL)
    for control in controls:
        try:
            control.put_nowait(None)
        except Exception:  # noqa: BLE001 - queue may already be broken
            pass
    deadline = time.monotonic() + _SHUTDOWN_GRACE
    for process in processes:
        process.join(timeout=max(0.0, deadline - time.monotonic()))
    for process in processes:
        if process.is_alive():
            process.terminate()
            process.join(timeout=_SHUTDOWN_GRACE)
    if handle is not None:
        handle.unlink()


#: Cancel-counter value that stops every job past and future of one pool
#: generation (used while tearing the pool down so no worker can stay
#: parked in a bounded put).
_CANCEL_ALL = 1 << 62

#: Orders the parent's own threads when they raise a pool's cancel counter.
#: Reentrant: a GC finalizer tearing down another pool can run inside it.
_CANCEL_WRITE = threading.RLock()


def _raise_cancel(cancel, floor: int) -> None:
    """Raise the shared cancel counter to at least ``floor``.

    The counter is a lock-free shared int64: the parent is its only writer
    and workers only read it.  A lock shared with the workers could be held
    by one when it is killed, and the parent's next cancel would then wait
    on it forever.
    """
    with _CANCEL_WRITE:
        if cancel.value < floor:
            cancel.value = floor


class _JobState:
    """Parent-side bookkeeping of one in-flight process-shard job."""

    __slots__ = (
        "job_id", "done_workers", "per_worker_work", "per_chunk_work", "errors",
        "retired",
    )

    def __init__(self, job_id: int, workers: int):
        self.job_id = job_id
        self.done_workers: Set[int] = set()
        self.per_worker_work = [0] * workers
        self.per_chunk_work: List[int] = []
        self.errors: List[BaseException] = []
        #: True once the pool has finished (or forgotten) this job: its
        #: generator must not touch the queues any more — a newer job may
        #: own them, or the pool may be closed.
        self.retired = False


class ProcessShardPool:
    """Matches queries by sharding start candidates over worker processes.

    ``iter_match`` / ``iter_match_batches`` stream like
    :class:`~repro.matching.turbo.TurboMatcher`'s and ``match`` also returns
    the :class:`ParallelStats`, but workers are OS processes
    attached to the shared-memory CSR export of the graph, and result
    batches return through one bounded result queue.  The pool is
    lazy and persistent: processes start on the first parallel match and
    are reused by every later query.  ``worker_context`` (e.g. the engine's
    :class:`~repro.graph.transform.GraphMapping`) is pickled to each worker
    once at startup and used to re-bind push-down predicates.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        config: Optional[MatchConfig] = None,
        workers: int = 4,
        chunk_size: int = 8,
        start_method: Optional[str] = None,
        worker_context: Any = None,
        region_cache_bytes: int = 0,
    ):
        self.graph = graph
        self.config = config if config is not None else MatchConfig.turbo_hom_pp()
        self.workers = max(1, workers)
        self.chunk_size = max(1, chunk_size)
        self.start_method = start_method
        self.worker_context = worker_context
        self.region_cache_bytes = max(0, region_cache_bytes)
        self.last_stats: Optional[ParallelStats] = None
        self.transport = ShardTransportStats()
        #: How many times worker processes have been (re)started.
        self.generation = 0
        #: Latest cumulative region-cache counter snapshot per worker index
        #: (a :class:`~repro.engine.region_cache.RegionCacheStats`),
        #: refreshed by every ``done`` message;
        #: :meth:`region_cache_counters` sums them field-by-field.
        self._region_counters: Dict[int, Any] = {}
        self._job_ids = itertools.count(1)
        self._processes: List[Any] = []
        self._controls: List[Any] = []
        self._chunks: Any = None
        self._results: Any = None
        self._cancel: Any = None
        self._handle: Optional[SharedGraphHandle] = None
        self._shipped: "OrderedDict[Any, None]" = OrderedDict()
        self._finalizer: Optional[weakref.finalize] = None
        self._broken = False
        #: The job whose messages currently own the result queue.  Jobs are
        #: strictly serialized: dispatching a new one first cancels and
        #: drains any predecessor whose stream was left open.
        self._active_job: Optional[_JobState] = None
        #: Serializes streams across threads (same-thread overlap keeps the
        #: historical supersede semantics; see :class:`StreamGate`).
        self._gate = StreamGate()

    # ------------------------------------------------------------------- pool
    def _context(self):
        if self.start_method is not None:
            return multiprocessing.get_context(self.start_method)
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context("fork" if "fork" in methods else "spawn")

    def _ensure_pool(self) -> None:
        """Export the graph and start the workers if needed."""
        if self._broken:
            self.close()
        if self._processes and all(process.is_alive() for process in self._processes):
            return
        if self._processes:
            # A worker vanished between jobs: rebuild from scratch.
            self.close()
        ctx = self._context()
        self._handle = self.graph.export_shared()
        context_bytes = (
            pickle.dumps(self.worker_context) if self.worker_context is not None else None
        )
        self._chunks = ctx.Queue()
        self._results = ctx.Queue(maxsize=max(2 * self.workers, 8))
        self._cancel = ctx.RawValue("q", 0)
        self._controls = [ctx.Queue() for _ in range(self.workers)]
        self._shipped = OrderedDict()
        self._processes = [
            ctx.Process(
                target=_shard_worker_main,
                args=(
                    index, self._handle.manifest, self.config, context_bytes,
                    self._controls[index], self._chunks, self._results, self._cancel,
                    self.region_cache_bytes,
                ),
                name=f"turbohom-shard-{index}",
                daemon=True,
            )
            for index in range(self.workers)
        ]
        for process in self._processes:
            process.start()
        self.generation += 1
        self._finalizer = weakref.finalize(
            self, _teardown_pool,
            self._processes, self._controls, self._handle, self._cancel,
        )
        self._broken = False

    def close(self) -> None:
        """Shut the workers down and unlink the shared graph segment.

        Safe to call multiple times; a later match transparently restarts
        the pool (with a fresh export of the graph).  A stream still open on
        the pool is retired: it stops yielding instead of deadlocking.
        """
        if self._active_job is not None:
            # The queues are going away with the workers; the open stream's
            # cleanup must not wait on them.
            self._active_job.retired = True
            self._active_job = None
        # Unblock any thread queued behind a stream that will never finish
        # normally; the job was just retired, so the revoked stream ends.
        self._gate.force_release()
        if self._finalizer is not None:
            self._finalizer()  # terminates workers and unlinks, exactly once
            self._finalizer = None
        self._processes = []
        self._controls = []
        self._chunks = None
        self._results = None
        self._cancel = None
        self._handle = None
        self._shipped = OrderedDict()
        self._broken = False
        # The workers (and their private region caches) are gone; stale
        # cumulative snapshots must not survive into the next pool.
        self._region_counters = {}

    def region_cache_counters(self) -> Optional[Dict[str, int]]:
        """Aggregate region-cache counters across the shard workers.

        None when the per-worker caches are disabled; otherwise the summed
        hits/misses/evictions plus total cached bytes/entries, in the shape
        :meth:`TurboEngine.stats` reports.
        """
        if not self.region_cache_bytes:
            return None
        from repro.engine.region_cache import RegionCacheStats

        total = RegionCacheStats()
        for snapshot in self._region_counters.values():
            total.merge(snapshot)
        return {
            "capacity_bytes": self.region_cache_bytes * self.workers,
            **total.as_dict(),
        }

    def _mark_broken(self) -> None:
        """Remember that the pool must be rebuilt before its next job."""
        self._broken = True

    def _check_alive(self, job: _JobState) -> None:
        """Raise (and retire the pool) if a worker died mid-job."""
        dead = [
            process for process in self._processes
            if not process.is_alive() and process.pid is not None
        ]
        if not dead:
            return
        self._mark_broken()
        codes = ", ".join(str(process.exitcode) for process in dead)
        raise ShardWorkerError(
            f"{len(dead)} shard worker(s) died mid-query (exit codes: {codes})"
        )

    # ------------------------------------------------------------------ match
    def match(
        self,
        query: QueryGraph,
        vertex_predicates: Optional[Dict[int, VertexPredicate]] = None,
        max_results: Optional[int] = None,
        prepared: Optional[PreparedQuery] = None,
        plan_key: Any = None,
    ) -> Tuple[List[Solution], ParallelStats]:
        """Return all solutions plus parallel execution statistics."""
        solutions = list(
            self.iter_match(query, vertex_predicates, max_results, prepared, plan_key)
        )
        assert self.last_stats is not None
        return solutions, self.last_stats

    def iter_match(
        self,
        query: QueryGraph,
        vertex_predicates: Optional[Dict[int, VertexPredicate]] = None,
        max_results: Optional[int] = None,
        prepared: Optional[PreparedQuery] = None,
        plan_key: Any = None,
    ) -> Iterator[Solution]:
        """Stream solutions one at a time (row adapter over the batches)."""
        for batch in self.iter_match_batches(
            query, vertex_predicates, max_results, prepared, plan_key
        ):
            yield from batch.iter_rows()

    def iter_match_batches(
        self,
        query: QueryGraph,
        vertex_predicates: Optional[Dict[int, VertexPredicate]] = None,
        max_results: Optional[int] = None,
        prepared: Optional[PreparedQuery] = None,
        plan_key: Any = None,
    ) -> Iterator[SolutionBatch]:
        """Stream columnar batches as the shard workers produce them.

        ``plan_key`` (the canonical plan fingerprint plus component
        coordinates) addresses the per-worker plan cache: the pickled
        payload is shipped only the first time a key is seen.  Semantics
        match :meth:`TurboMatcher.iter_match_batches` as a multiset —
        including the sequential fallback for single-vertex queries / one
        worker and result limits — with worker errors propagated only on
        exhaustive runs.

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
                self.graph, self.config, query, predicates, limit, prepared, publish
            )
            return

        if prepared is None:
            prepared = prepare_query(self.graph, query, self.config)
        # Cross-thread serialization: a second thread waits here until the
        # open stream finishes; the owning thread passes straight through
        # (inheriting the lease) and supersedes its predecessor below.
        lease = self._gate.acquire()
        try:
            self._ensure_pool()
            self._supersede_active_job()

            job = _JobState(next(self._job_ids), self.workers)
            # Pickle before any dispatch or bookkeeping: an unpicklable
            # payload (e.g. a lambda predicate) must raise to the caller
            # without leaving a phantom active job the next match would wait
            # on forever.
            payload_bytes: Optional[bytes] = None
            if plan_key is None or plan_key not in self._shipped:
                payload_bytes = pickle.dumps(ShardPayload(query, prepared, predicates))
            if plan_key is not None:
                # Mirror of the workers' payload LRU (same _lru_touch policy
                # on the same job sequence), so a key present here is
                # guaranteed to still be cached by every worker.
                _lru_touch(self._shipped, plan_key, None)
            for control in self._controls:
                control.put(("job", job.job_id, plan_key, payload_bytes, limit))
            for lo, hi in chunk_ranges(len(prepared.start_candidates), self.chunk_size):
                self._chunks.put(("range", job.job_id, lo, hi))
            for _ in range(self.workers):
                self._chunks.put(("end", job.job_id))
            self._active_job = job
        except BaseException:
            self._gate.release(lease)
            raise

        def handle_control(message) -> None:
            kind = message[0]
            if kind == "done":
                job.done_workers.add(message[2])
                job.per_worker_work[message[2]] += message[3]
                job.per_chunk_work.extend(message[4])
                if message[5] is not None:
                    self._region_counters[message[2]] = message[5]
            elif kind == "error":
                exc_bytes, text = message[3], message[4]
                if exc_bytes is not None:
                    try:
                        job.errors.append(pickle.loads(exc_bytes))
                        return
                    except Exception:  # noqa: BLE001 - fall back to the text form
                        pass
                job.errors.append(ShardWorkerError(f"shard worker failed:\n{text}"))

        def poll(timeout: float) -> Optional[SolutionBatch]:
            """Next batch, a zero-row batch for a control message, None idle."""
            if job.retired:
                # A newer job (or close()) took the queues over: this stream
                # ends quietly instead of stealing the successor's messages.
                return None
            try:
                message = (
                    self._results.get(timeout=timeout)
                    if timeout
                    else self._results.get_nowait()
                )
            except queue.Empty:
                if timeout:
                    self._check_alive(job)
                return None
            if message[1] != job.job_id:
                return SolutionBatch.empty()  # stale leftovers of an older job
            if message[0] == "batch":
                self.transport.queue_batches += 1
                self.transport.solutions += message[3].rows
                return message[3]
            handle_control(message)
            return SolutionBatch.empty()

        def finished() -> bool:
            return job.retired or len(job.done_workers) >= self.workers

        outcome = StreamOutcome()
        try:
            yield from merge_solution_batches(poll, finished, limit, outcome)
        finally:
            # Reached on exhaustion, on the result limit, and on generator
            # abandonment: fan the stop out to every shard (workers poll the
            # cancel counter between regions and batches), then wait for all
            # of them to report done before aggregating statistics.
            self._finish_job(job)
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
        # exhaustion; after an intentional early stop the delivered
        # solutions are complete (see StreamOutcome.stopped_early).
        if job.errors and not outcome.stopped_early:
            raise job.errors[0]

    def _supersede_active_job(self) -> None:
        """Cancel and drain a predecessor whose stream was left open.

        Jobs are strictly serialized on the shared queues: a still-open
        stream would otherwise deadlock against the new consumer (each
        discarding the other's messages as stale).  The superseded stream
        keeps whatever it already delivered and simply stops.
        """
        previous = self._active_job
        self._active_job = None
        if previous is None or previous.retired:
            return
        if len(previous.done_workers) < self.workers:
            _raise_cancel(self._cancel, previous.job_id)
            self._await_job_end(previous)
        previous.retired = True

    def _finish_job(self, job: _JobState) -> None:
        """Cancel a job's shards and wait for them to leave it (idempotent)."""
        if job.retired:
            return
        cancel = self._cancel
        if cancel is None:
            # The pool was closed while this stream was suspended.
            job.retired = True
            return
        _raise_cancel(cancel, job.job_id)
        self._await_job_end(job)
        job.retired = True
        if self._active_job is job:
            self._active_job = None

    def _await_job_end(self, job: _JobState) -> None:
        """Drain the result queue until every worker left the job.

        Runs inside a ``finally`` block, so a dead worker retires the pool
        instead of raising (the consumer path already raised if it could).
        """
        while len(job.done_workers) < self.workers:
            try:
                message = self._results.get(timeout=0.05)
            except queue.Empty:
                if any(not process.is_alive() for process in self._processes):
                    self._mark_broken()
                    return
                continue
            if message[1] != job.job_id or message[0] == "batch":
                continue
            kind = message[0]
            if kind == "done":
                job.done_workers.add(message[2])
                job.per_worker_work[message[2]] += message[3]
                job.per_chunk_work.extend(message[4])
                if message[5] is not None:
                    self._region_counters[message[2]] = message[5]
            elif kind == "error":
                # Late errors after a stop are recorded but not raised.
                job.errors.append(ShardWorkerError("shard worker failed during cancel"))
