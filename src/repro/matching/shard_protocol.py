"""The transport-independent parts of the process shard pool.

:class:`~repro.matching.process_shard.ProcessShardPool` parallelizes
following Section 5.2 of the paper: the start data vertices of a prepared
query are split into small dynamic chunks, workers repeatedly claim a
chunk and run candidate-region exploration + subgraph search on it, and
the consumer receives their solutions as streamed batches.  This module
holds the pieces of that scheme that do not touch the worker pipes:

* :func:`chunk_ranges` — the dynamic-chunk partition of the start-candidate
  list.
* :class:`StreamGate` — the cross-thread serialization of one pool's
  streams.
* :class:`ParallelStats` — the work-partition outcome of one match.

Every worker runs the sequential matcher's start-vertex loop,
:func:`~repro.matching.turbo.iter_region_batches`, over the start vertices
of the chunks it claims, so results move as columnar
:class:`~repro.matching.solution_batch.SolutionBatch` objects end-to-end,
and the pool's ``iter_match`` surface is a thin row-iterating adapter.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import List, Optional, Tuple


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

    The shard pool runs jobs strictly serialized over its worker pipes, and
    a new match historically *superseded* a still-open stream.  That is the
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
