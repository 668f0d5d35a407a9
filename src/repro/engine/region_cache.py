"""Cross-query candidate-region caching: a byte-size-bounded LRU of arenas.

Candidate-region exploration is pure work over the immutable data graph: for
a fixed (query, config) pair the region rooted at a start data vertex never
changes.  The plan cache already removes per-query *compilation* from the
serving hot path; :class:`RegionCache` removes per-execution *exploration* —
the repeated-query workload :mod:`benchmarks.bench_repeated_queries` models
re-runs the same plans over and over, and every run used to re-explore every
region from scratch.

Entries are frozen :meth:`~repro.matching.region_arena.RegionArena.snapshot`
copies (or the :data:`~repro.matching.region_arena.EMPTY_REGION` marker for
start vertices whose region came up empty — a negative result worth exactly
as much), keyed by ``((plan fingerprint, alternative, component),
start_data_vertex)``.  The fingerprint (template key plus the instance's
slot constant ids) pins the BGP *and* its push-down filters, and the cache
is owned by one engine (one graph, one :class:`MatchConfig`), so a key can
never alias across semantically different explorations.  Snapshots are read-only and safe to share across
concurrent query threads; with ``workers > 1`` each shard worker holds its
own cache (see :mod:`repro.matching.process_shard`) and reports its
counters back with every job as a :class:`RegionCacheStats` snapshot.

The budget is **bytes, not entries** — regions range from a handful of
candidates to graph-sized — and an entry larger than the whole budget is
simply not cached (it would evict everything for one key).  Every insert is
admitted; under pressure the least-recently-used entries go first.

Invalidation follows the plan cache: :meth:`TurboEngine.load` clears both,
and worker processes restart (with empty caches) whenever the pool is
rebuilt.  ``REPRO_REGION_CACHE_BYTES`` (0 disables) sizes the cache for
engines that don't pass the constructor knob; see ``docs/caching.md``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Optional

from repro.matching.region_arena import EMPTY_REGION
from repro.utils.stats import CounterBundle

#: Default byte budget (64 MiB) — enough for tens of thousands of typical
#: regions while staying far below a loaded graph's own footprint.
DEFAULT_REGION_CACHE_BYTES = 64 << 20

#: Accounted bytes of an EMPTY_REGION entry (key tuple + dict slot).
_EMPTY_ENTRY_BYTES = 128


@dataclass
class RegionCacheStats(CounterBundle):
    """One cache's counters (also the picklable cross-process carrier).

    Process-shard workers attach a snapshot to every ``done`` message and
    the pool sums them with the field-driven :meth:`CounterBundle.merge`,
    so a counter added here is aggregated everywhere without touching the
    transport.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes: int = 0
    entries: int = 0


class RegionCache:
    """Thread-safe, byte-size-bounded LRU of frozen candidate regions."""

    def __init__(self, capacity_bytes: int = DEFAULT_REGION_CACHE_BYTES):
        if capacity_bytes <= 0:
            raise ValueError("RegionCache capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        #: key -> (frozen RegionArena | EMPTY_REGION, accounted bytes)
        self._entries: "OrderedDict[Hashable, tuple]" = OrderedDict()

    # ------------------------------------------------------------------ access
    def lookup(self, key: Hashable):
        """The cached region for ``key`` (or :data:`EMPTY_REGION`); None on miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def store(self, key: Hashable, region) -> None:
        """Cache a frozen region snapshot (or the EMPTY_REGION marker).

        Oversized regions (larger than the whole budget) are dropped rather
        than cached; re-storing a key replaces the entry and its accounting.
        Least-recently-used entries are evicted until the new one fits.
        """
        nbytes = _EMPTY_ENTRY_BYTES if region is EMPTY_REGION else region.nbytes
        if nbytes > self.capacity_bytes:
            return
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self.current_bytes -= previous[1]
            while self.current_bytes + nbytes > self.capacity_bytes and self._entries:
                _, victim_bytes = self._entries.popitem(last=False)[1]
                self.current_bytes -= victim_bytes
                self.evictions += 1
            self._entries[key] = (region, nbytes)
            self.current_bytes += nbytes

    # --------------------------------------------------------------- lifecycle
    def clear(self) -> None:
        """Drop every entry and reset the counters (plan-cache invalidation)."""
        with self._lock:
            self._entries.clear()
            self.current_bytes = 0
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats_snapshot(self) -> RegionCacheStats:
        """Every counter as one mergeable, picklable snapshot."""
        with self._lock:
            return RegionCacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                bytes=self.current_bytes,
                entries=len(self._entries),
            )

    def counters(self) -> Dict[str, int]:
        """Counter snapshot in the shape :meth:`TurboEngine.stats` reports."""
        return {"capacity_bytes": self.capacity_bytes, **self.stats_snapshot().as_dict()}

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"RegionCache(bytes={self.current_bytes}/{self.capacity_bytes}, "
            f"entries={len(self)}, hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )


def make_region_cache(capacity_bytes: Optional[int]) -> Optional[RegionCache]:
    """A cache for a resolved byte budget; None when disabled (0)."""
    if not capacity_bytes:
        return None
    return RegionCache(capacity_bytes)
