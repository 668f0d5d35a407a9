"""Multi-process shard execution over one in-memory CSR graph.

CPython's GIL holds pure-Python matching to one core no matter how many
threads run it, so the paper's parallel embedding enumeration (Section 5.2,
Figure 16) needs real processes to saturate real hardware.
:class:`ProcessShardPool` is the repo's one parallel matcher, built so the
expensive state crosses the process boundary at most once:

* **graph** — the pool's :class:`~repro.graph.labeled_graph.LabeledGraph`
  and its predicate-binding context are plain process arguments.  Where
  the platform forks, every worker inherits them copy-on-write and nothing
  is pickled, so parent and workers read one physical copy of the posting
  arrays, as the paper's threads read one graph; under spawn they are
  pickled once per worker at pool start;
* **plans** — per-query compiled state (a :class:`ShardPayload` of query
  graph, :class:`~repro.matching.turbo.PreparedQuery` and push-down
  predicates) is pickled to each worker the *first* time its ``plan_key``
  (canonical plan fingerprint) is seen and rehydrated into a per-worker LRU
  plan cache; repeated queries ship only the fingerprint;
* **work** — each worker owns one duplex pipe to the parent, and the parent
  is the only dispatcher.  It sends a worker the job header and one reply
  of start-candidate index chunks; the worker claims each reply as it takes
  it, and the parent answers every claim with the next reply, ``[]`` at the
  end (the paper's dynamic chunking, one reply ahead of the work, replies
  shrinking as the job drains).  A shared cancel
  counter fans ``limit_hint`` / abandoned-generator stops out to every
  shard, and the parent waits on the pipes and the process sentinels
  together, so a worker crash or exception reaches the consumer instead of
  hanging it;
* **results** — each worker runs the sequential matcher's start-vertex
  loop (:func:`~repro.matching.turbo.iter_region_batches`) once per job,
  over the start vertices of every range it claims, so rows gather across
  candidate regions and ranges and a batch ships only when it is full
  (256 rows, or the job's limit) or when the worker runs out of ranges:
  a query crosses the boundary in about as many batches as the sequential
  matcher yields.  Every batch travels as one ``("batch", batch)`` message
  on the worker's pipe; a :class:`~repro.matching.solution_batch.SolutionBatch`
  pickles as one buffer per column, never per solution.  The pipe's OS
  buffer is the only backpressure, and :attr:`ProcessShardPool.transport`
  counts the batches and solutions that crossed it.

The chunk partition, the stream gate and the work-partition statistics live
in :mod:`repro.matching.shard_protocol`, apart from the transport.

Wall-clock speedup additionally requires multiple cores; the
:class:`~repro.matching.shard_protocol.ParallelStats` work-partition
metrics report the load balance either way.
"""

from __future__ import annotations

import itertools
import pickle
import threading
import time
import traceback
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

import multiprocessing

from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.matching.candidate_region import VertexPredicate
from repro.matching.config import MatchConfig
from repro.matching.shard_protocol import ParallelStats, StreamGate, chunk_ranges
from repro.matching.solution_batch import SolutionBatch
from repro.matching.turbo import (
    MatchStatistics,
    PreparedQuery,
    Solution,
    TurboMatcher,
    iter_region_batches,
    prepare_query,
)

#: How many rehydrated payloads each worker keeps, mirrored by the pool's
#: shipped-key LRU so parent and workers always agree on what is cached.
PAYLOAD_CACHE_SIZE = 64

#: A claim is answered with ``1 / (REPLY_SPLIT × workers)`` of the chunks
#: not handed out yet, at least one (guided self-scheduling): while many are
#: left, few large replies keep the parent's wake-ups few, and single chunks
#: at the end keep the workers finishing together.
REPLY_SPLIT = 4

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

    ``queue_batches`` counts the batches delivered through the worker pipes
    (the only transport), ``solutions`` the rows they carried.  The engine
    surfaces these through :meth:`TurboEngine.stats`.
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


# --------------------------------------------------------------- worker side
class _Shutdown(Exception):
    """The pool's shutdown sentinel arrived while a job was open."""


def _send_error(conn, exc: BaseException) -> None:
    """Report a worker exception; fall back to text when it cannot pickle."""
    try:
        payload: Optional[bytes] = pickle.dumps(exc)
    except Exception:  # noqa: BLE001 - any pickling failure downgrades to text
        payload = None
    conn.send(("error", payload, traceback.format_exc()))


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


def _job_ranges(conn, job_id: int) -> Iterator[Tuple[int, int]]:
    """The ``(lo, hi)`` chunks the parent hands this worker, up to an empty reply.

    Each reply (a list of chunks) is claimed as soon as it is taken, so the
    parent's answer — the next chunks, or ``[]`` at the end — is on its way
    while these run.
    """
    while True:
        reply = conn.recv()
        if reply is None:
            raise _Shutdown
        if not reply:
            return
        conn.send(("claim", job_id))
        yield from reply


def _claim_starts(
    ranges: Iterator[Tuple[int, int]],
    candidates: List[int],
    stats: MatchStatistics,
    chunk_works: List[int],
    stopped,
) -> Iterator[int]:
    """The start vertices of every range this worker claims.

    Feeds :func:`~repro.matching.turbo.iter_region_batches` (the dynamic
    chunking of Section 5.2): a range is taken only when the previous one
    is used up, the cancel counter is read before each start vertex, and
    each range's work (candidate-region vertices plus search recursions,
    the Figure 16 load-balance unit) is appended to ``chunk_works`` when
    the range ends — also when the worker stops in the middle of it and
    closes this generator.
    """
    for lo, hi in ranges:
        if stopped():
            continue
        before = stats.region_vertices + stats.search.recursions
        try:
            for index in range(lo, hi):
                if stopped():
                    break
                yield candidates[index]
        finally:
            chunk_works.append(stats.region_vertices + stats.search.recursions - before)


def _shard_worker_main(
    graph: LabeledGraph,
    config: MatchConfig,
    context: Any,
    conn,
    cancel,
    region_cache_bytes: int = 0,
) -> None:
    """Long-lived worker process: serve jobs over the pool's graph.

    ``graph`` and ``context`` are the pool's own objects, handed over as
    process arguments (inherited under fork, pickled once under spawn).
    ``conn`` is this worker's end of its pipe: a job header
    ``("job", job_id, plan_key, payload_bytes, limit)`` is followed by
    replies of chunks (:func:`_job_ranges`), and ``None`` shuts the worker down, also
    in the middle of a job.  Each job runs :func:`~repro.matching.turbo.
    iter_region_batches` once, over the start vertices of the ranges the
    worker claims (:func:`_claim_starts`), so rows gather across regions and
    ranges and ship as full batches plus one tail.  Like the sequential
    matcher, a worker stops after ``limit`` rows of its own.  Once the
    consumer stopped, batches are dropped instead of shipped and the worker
    claims its way to the parent's empty reply; a ``done`` message closes
    every job.  ``region_cache_bytes`` sizes this worker's private
    cross-query region cache (0 disables it), an LRU exactly like the
    engine-held cache; the cache counters travel back as a cumulative
    :class:`~repro.engine.region_cache.RegionCacheStats` snapshot on every
    ``done`` message.
    """
    cache: "OrderedDict[Any, ShardPayload]" = OrderedDict()
    region_cache = None
    if region_cache_bytes:
        # Lazy import: the engine layer imports this module at its own
        # import time, so the upward import must not run at module scope.
        from repro.engine.region_cache import RegionCache

        region_cache = RegionCache(region_cache_bytes)
    while True:
        header = conn.recv()
        if header is None:
            return
        _, job_id, plan_key, payload_bytes, limit = header

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
            _send_error(conn, exc)
            payload = None

        def stopped(job_id=job_id) -> bool:
            return cancel.value >= job_id

        stats = MatchStatistics()
        chunk_works: List[int] = []
        ranges = _job_ranges(conn, job_id)
        try:
            if payload is not None:
                starts = _claim_starts(
                    ranges, payload.prepared.start_candidates, stats, chunk_works,
                    stopped,
                )
                batches = iter_region_batches(
                    graph, config, payload.query, payload.prepared,
                    payload.predicates, starts, limit, stats,
                    region_cache=region_cache, region_key=plan_key,
                )
                try:
                    for batch in batches:
                        if stopped():
                            break  # the consumer has every row it asked for
                        conn.send(("batch", batch))
                except _Shutdown:
                    raise
                except BaseException as exc:  # noqa: BLE001 - reported to the consumer
                    _send_error(conn, exc)
                finally:
                    batches.close()
                    starts.close()  # counts a range left mid-way
            for _ in ranges:
                pass  # claim the rest of the job's chunks up to the end
        except _Shutdown:
            return
        work = stats.region_vertices + stats.search.recursions
        cache_counters = (
            region_cache.stats_snapshot() if region_cache is not None else None
        )
        conn.send(("done", work, chunk_works, cache_counters))


# --------------------------------------------------------------- parent side
def _teardown_pool(processes, conns, io) -> None:
    """Stop the workers (close() and GC path).

    Workers still in a job take the shutdown sentinel at their next claim.
    Their pipes are drained while they are joined, so one blocked in
    ``send`` on a full pipe gets there too.
    """
    from multiprocessing.connection import wait

    with io:
        for conn in conns:
            try:
                conn.send(None)
            except OSError:  # the worker is already gone
                pass
        deadline = time.monotonic() + _SHUTDOWN_GRACE
        live = {process.sentinel: conn for process, conn in zip(processes, conns)}
        while live:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            for ready in wait([*live, *live.values()], timeout=remaining):
                if isinstance(ready, int):
                    del live[ready]
                    continue
                try:
                    ready.recv_bytes()
                except (EOFError, OSError):
                    pass
        for process in processes:
            if process.is_alive():
                process.terminate()
            process.join(timeout=_SHUTDOWN_GRACE)


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
        "job_id", "ranges", "handed", "split", "running", "per_worker_work",
        "per_chunk_work", "errors", "stopped", "retired",
    )

    def __init__(self, job_id: int, ranges: List[Tuple[int, int]], workers: int):
        self.job_id = job_id
        #: The job's chunks; the first ``handed`` of them went to workers.
        self.ranges = ranges
        self.handed = 0
        self.split = REPLY_SPLIT * workers
        #: Indices of the workers that have not sent ``done`` yet.
        self.running = set(range(workers))
        self.per_worker_work = [0] * workers
        self.per_chunk_work: List[int] = []
        self.errors: List[BaseException] = []
        #: True once the consumer stopped (limit, abandon, supersede): claims
        #: are answered ``[]``, batches dropped and errors not kept.
        self.stopped = False
        #: True once the pool has finished (or forgotten) this job: its
        #: generator must not touch the pipes any more — a newer job may
        #: own them, or the pool may be closed.
        self.retired = False

    def reply(self) -> List[Tuple[int, int]]:
        """The chunks that answer one claim (``[]`` ends the worker's job)."""
        if self.stopped:
            return []
        take = max(1, (len(self.ranges) - self.handed) // self.split)
        chunks = self.ranges[self.handed:self.handed + take]
        self.handed += len(chunks)
        return chunks


class ProcessShardPool:
    """Matches queries by sharding start candidates over worker processes.

    ``iter_match`` / ``iter_match_batches`` stream like
    :class:`~repro.matching.turbo.TurboMatcher`'s and ``match`` also returns
    the :class:`ParallelStats`, but workers are OS processes that read the
    pool's own graph, and result batches return through one pipe per
    worker.  The pool is lazy and persistent: processes start on the first
    parallel match and are reused by every later query.  The graph and
    ``worker_context`` (e.g. the engine's
    :class:`~repro.graph.transform.GraphMapping`, used to re-bind push-down
    predicates) are process arguments: a forked worker inherits them, a
    spawned one receives them pickled once at startup.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        config: Optional[MatchConfig] = None,
        workers: int = 4,
        chunk_size: int = 8,
        worker_context: Any = None,
        region_cache_bytes: int = 0,
    ):
        self.graph = graph
        self.config = config if config is not None else MatchConfig.turbo_hom_pp()
        self.workers = max(1, workers)
        self.chunk_size = max(1, chunk_size)
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
        #: The parent's end of each worker's pipe, by worker index.
        self._conns: List[Any] = []
        #: Held while reading or writing the pipes, so a close() from another
        #: thread never interleaves with the thread serving a job.
        self._io = threading.Lock()
        self._cancel: Any = None
        self._shipped: "OrderedDict[Any, None]" = OrderedDict()
        self._finalizer: Optional[weakref.finalize] = None
        self._broken = False
        #: The job whose messages currently own the pipes.  Jobs are
        #: strictly serialized: dispatching a new one first cancels and
        #: drains any predecessor whose stream was left open.
        self._active_job: Optional[_JobState] = None
        #: Serializes streams across threads (same-thread overlap keeps the
        #: historical supersede semantics; see :class:`StreamGate`).
        self._gate = StreamGate()

    # ------------------------------------------------------------------- pool
    def _context(self):
        """Fork where the platform has it, else spawn."""
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context("fork" if "fork" in methods else "spawn")

    def _ensure_pool(self) -> None:
        """Start the workers if needed.

        Runs under the caller's stream lease, so a broken pool (or one whose
        worker vanished between jobs) is rebuilt without :meth:`close`'s
        release of the gate: a thread waiting on it must keep waiting.
        """
        if self._broken or not all(process.is_alive() for process in self._processes):
            self._stop_workers()
        if self._processes:
            return
        ctx = self._context()
        self._cancel = ctx.RawValue("q", 0)
        self._shipped = OrderedDict()
        for index in range(self.workers):
            conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_shard_worker_main,
                args=(
                    self.graph, self.config, self.worker_context, child_conn,
                    self._cancel, self.region_cache_bytes,
                ),
                name=f"turbohom-shard-{index}",
                daemon=True,
            )
            process.start()
            # The worker now holds the only copy of its end (later workers
            # fork after this close), so its death reads as end-of-file.
            child_conn.close()
            self._processes.append(process)
            self._conns.append(conn)
        self.generation += 1
        self._finalizer = weakref.finalize(
            self, _teardown_pool, self._processes, self._conns, self._io,
        )
        self._broken = False

    def close(self) -> None:
        """Shut the workers down.

        Safe to call multiple times; a later match transparently restarts
        the pool.  A stream still open on the pool is retired: it stops
        yielding instead of deadlocking.
        """
        if self._active_job is not None:
            # The pipes are going away with the workers; the open stream's
            # cleanup must not wait on them.  The cancel lets its workers
            # reach the shutdown sentinel at their next claim.
            _raise_cancel(self._cancel, self._active_job.job_id)
            self._active_job.stopped = self._active_job.retired = True
            self._active_job = None
        # Unblock any thread queued behind a stream that will never finish
        # normally; the job was just retired, so the revoked stream ends.
        self._gate.force_release()
        self._stop_workers()

    def _stop_workers(self) -> None:
        """Stop this generation's workers and forget its pipes and caches."""
        if self._finalizer is not None:
            self._finalizer()  # stops the workers, exactly once
            self._finalizer = None
        self._processes = []
        self._conns = []
        self._cancel = None
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
        exhaustive runs: after an intentional early stop the delivered
        solutions are complete, and the sequential path would never have
        touched the failing region either.

        Jobs are serialized per pool.  Starting a new match from the thread
        whose earlier stream is still open *supersedes* the old stream,
        which keeps whatever it already delivered and then ends quietly
        (that thread cannot drive both, so waiting would deadlock).  A match
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
            # One worker or one query vertex: the in-process matcher, with
            # the whole match as one chunk of work.
            matcher = TurboMatcher(self.graph, self.config)
            yield from matcher.iter_match_batches(query, predicates, limit, prepared)
            matched = matcher.last_statistics
            work = matched.region_vertices + matched.search.recursions
            self.last_stats = ParallelStats(
                workers=1,
                chunk_size=self.chunk_size,
                elapsed_ms=(time.perf_counter() - start_time) * 1000.0,
                solutions=matched.solutions,
                per_worker_work=[work],
                per_chunk_work=[work],
            )
            return

        if prepared is None:
            prepared = prepare_query(self.graph, query, self.config)
        # Cross-thread serialization: a second thread waits here until the
        # open stream finishes; the owning thread passes straight through
        # (inheriting the lease) and supersedes its predecessor below.
        lease = self._gate.acquire()
        try:
            self._supersede_active_job()
            self._ensure_pool()
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
            ranges = chunk_ranges(len(prepared.start_candidates), self.chunk_size)
            job = _JobState(next(self._job_ids), ranges, self.workers)
            header = ("job", job.job_id, plan_key, payload_bytes, limit)
            with self._io:
                for conn in self._conns:
                    conn.send(header)
                    conn.send(job.reply())
            self._active_job = job
        except BaseException:
            self._gate.release(lease)
            raise

        delivered = 0
        try:
            for batch in self._serve(job):
                self.transport.queue_batches += 1
                self.transport.solutions += batch.rows
                if limit is not None and delivered + batch.rows >= limit:
                    take, delivered = limit - delivered, limit
                    job.stopped = True
                    yield batch.head(take)
                    break
                delivered += batch.rows
                yield batch
        finally:
            # Reached on exhaustion, on the result limit, and on generator
            # abandonment: fan the stop out to every shard (workers read the
            # cancel counter between regions and batches), then serve every
            # worker to its ``done`` before aggregating statistics.
            self._finish_job(job)
            self.last_stats = ParallelStats(
                workers=self.workers,
                chunk_size=self.chunk_size,
                elapsed_ms=(time.perf_counter() - start_time) * 1000.0,
                solutions=delivered,
                per_worker_work=job.per_worker_work,
                per_chunk_work=job.per_chunk_work,
            )
            self._gate.release(lease)
        if job.errors and not job.stopped:
            raise job.errors[0]

    def _serve(self, job: _JobState) -> Iterator[SolutionBatch]:
        """Answer ``job``'s claims and yield its batches until every worker is done.

        Blocks on the running workers' pipes and process sentinels together
        and yields at most one batch per wake-up, so the sentinels are
        checked again before the next pipe is read: a dead worker raises
        :class:`ShardWorkerError` (and retires the pool) at the next call,
        even if it died in the middle of a message.  Ready pipes are read
        round-robin, starting after the worker whose batch went out last.
        Once the job is stopped, claims are answered ``[]`` and batches
        and errors are dropped; once it is retired, the generator ends
        without touching the pipes.
        """
        # Imported here, not at module scope: an engine with one worker never
        # waits on a pipe, and importing it with this module (it pulls in
        # ``subprocess``, ``locale`` and ``fcntl``) cut the spine's
        # sequential ``lubm_warm`` median queries_per_s by a fifth (eight
        # round-robin runs on a 2-vCPU box).
        from multiprocessing.connection import wait

        conns, processes, io = self._conns, self._processes, self._io
        turn = 0
        while job.running and not job.retired:
            sentinels = {processes[index].sentinel: index for index in job.running}
            ready = wait([*sentinels, *(conns[index] for index in job.running)])
            batch: Optional[SolutionBatch] = None
            with io:
                if job.retired:
                    return
                dead = [sentinels[item] for item in ready if isinstance(item, int)]
                if dead:
                    self._broken = True
                    raise _death_error(processes, dead)
                order = sorted(job.running, key=lambda index: (index - turn) % len(conns))
                for index in order:
                    conn = conns[index]
                    if conn not in ready:
                        continue
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        self._broken = True
                        raise _death_error(processes, [index]) from None
                    kind = message[0]
                    if kind == "claim":
                        conn.send(job.reply())
                    elif kind == "batch":
                        if not job.stopped:
                            batch, turn = message[1], index + 1
                            break
                    elif kind == "done":
                        job.running.discard(index)
                        job.per_worker_work[index] += message[1]
                        job.per_chunk_work.extend(message[2])
                        if message[3] is not None:
                            self._region_counters[index] = message[3]
                    elif not job.stopped:
                        job.errors.append(_worker_error(message[1], message[2]))
            if batch is not None:
                yield batch

    def _supersede_active_job(self) -> None:
        """Stop and drain a predecessor whose stream was left open.

        Jobs are strictly serialized on the pipes.  The superseded stream
        keeps whatever it already delivered and ends quietly: its late
        worker errors belong to a stream its consumer abandoned, so they
        are dropped.
        """
        previous = self._active_job
        if previous is not None:
            previous.stopped = True
            self._finish_job(previous)

    def _finish_job(self, job: _JobState) -> None:
        """Stop a job's shards and serve them to ``done`` (idempotent).

        Runs inside a ``finally`` block, so a dead worker retires the pool
        instead of raising (the consumer path already raised if it could).
        """
        if job.retired:
            return
        try:
            if job.running:
                job.stopped = True
                _raise_cancel(self._cancel, job.job_id)
                for _ in self._serve(job):
                    pass
        except ShardWorkerError:
            pass  # _serve marked the pool broken
        finally:
            job.retired = True
            if self._active_job is job:
                self._active_job = None


def _death_error(processes, dead: List[int]) -> ShardWorkerError:
    """The error for workers that died mid-job, with their exit codes."""
    codes = []
    for index in dead:
        processes[index].join(timeout=1.0)  # reaped, so the exit code is known
        codes.append(str(processes[index].exitcode))
    return ShardWorkerError(
        f"{len(dead)} shard worker(s) died mid-query (exit codes: {', '.join(codes)})"
    )


def _worker_error(exc_bytes: Optional[bytes], text: str) -> BaseException:
    """The exception a worker reported, or its traceback text as one."""
    if exc_bytes is not None:
        try:
            return pickle.loads(exc_bytes)
        except Exception:  # noqa: BLE001 - fall back to the text form
            pass
    return ShardWorkerError(f"shard worker failed:\n{text}")
