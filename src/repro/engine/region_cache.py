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
start_data_vertex)``.  The fingerprint pins the BGP *and* its push-down
filters, and the cache is owned by one engine (one graph, one
:class:`MatchConfig`), so a key can never alias across semantically
different explorations.  Snapshots are read-only and safe to share across
concurrent query threads; with ``workers > 1`` each shard worker holds its
own cache (see :mod:`repro.matching.process_shard`) and reports its
counters back with every job as a :class:`RegionCacheStats` snapshot.

The budget is **bytes, not entries** — regions range from a handful of
candidates to graph-sized — and an entry larger than the whole budget is
simply not cached (it would evict everything for one key).  Two additional
controls defend the budget under a served (multi-plan, skewed) mix:

* an optional **admission policy** (see
  :mod:`repro.engine.cache_admission`): when an insert would overflow the
  budget, the candidate must beat the LRU eviction victim's estimated
  request frequency, so one-hit-wonder queries stop flushing the regions
  that carry the hit ratio;
* an optional **per-plan share** (``plan_share < 1.0``): one plan
  fingerprint may hold at most that fraction of the budget, evicting its
  *own* least-recent regions beyond it, so a single region-heavy hot plan
  cannot monopolize the cache.

Invalidation follows the plan cache: :meth:`TurboEngine.load` clears both
(including learned frequency state), and worker processes restart (with
empty caches) whenever the pool is rebuilt.  ``REPRO_REGION_CACHE_BYTES``
(0 disables) sizes the cache for engines that don't pass the constructor
knob; see ``docs/caching.md``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Optional

from repro.engine.cache_admission import TinyLfuAdmission
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
    #: Evictions forced by the per-plan share (a plan displacing its own
    #: least-recent regions), counted separately from budget pressure.
    plan_evictions: int = 0
    admission_accepts: int = 0
    admission_rejects: int = 0
    sketch_resets: int = 0
    bytes: int = 0
    entries: int = 0


class RegionCache:
    """Thread-safe, byte-size-bounded LRU of frozen candidate regions."""

    def __init__(
        self,
        capacity_bytes: int = DEFAULT_REGION_CACHE_BYTES,
        admission: Optional[TinyLfuAdmission] = None,
        plan_share: float = 1.0,
    ):
        if capacity_bytes <= 0:
            raise ValueError("RegionCache capacity_bytes must be positive")
        if not 0.0 < plan_share <= 1.0:
            raise ValueError("RegionCache plan_share must be in (0, 1]")
        self.capacity_bytes = capacity_bytes
        self.plan_share = plan_share
        #: Byte cap one plan fingerprint may occupy (== capacity at 1.0).
        self.plan_capacity_bytes = max(1, int(capacity_bytes * plan_share))
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.plan_evictions = 0
        self._admission = admission
        self._lock = threading.Lock()
        #: key -> (frozen RegionArena | EMPTY_REGION, accounted bytes)
        self._entries: "OrderedDict[Hashable, tuple]" = OrderedDict()
        #: plan group -> accounted bytes (only maintained under a share cap).
        self._plan_bytes: Dict[Hashable, int] = {}

    @property
    def admission(self) -> Optional[TinyLfuAdmission]:
        return self._admission

    @staticmethod
    def _plan_group(key: Hashable) -> Hashable:
        """The plan identity a cache key charges its per-plan budget to.

        Engine keys are ``((fingerprint, alternative, component), start)``:
        all components of one plan share the plan's budget.  Foreign key
        shapes fall back to their stable prefix, so direct users of the
        cache still get a consistent (if per-key) grouping.
        """
        if isinstance(key, tuple) and len(key) == 2:
            region_key = key[0]
            if isinstance(region_key, tuple) and len(region_key) == 3:
                return region_key[0]
            return region_key
        return key

    # ------------------------------------------------------------------ access
    def lookup(self, key: Hashable):
        """The cached region for ``key`` (or :data:`EMPTY_REGION`); None on miss."""
        with self._lock:
            if self._admission is not None:
                self._admission.record_access(key)
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def store(self, key: Hashable, region) -> None:
        """Cache a frozen region snapshot (or the EMPTY_REGION marker).

        Oversized regions (larger than the whole budget, or than one
        plan's share) are dropped rather than cached; re-storing a key
        replaces the entry and its accounting.  Under pressure — the
        global budget or the key's per-plan share would overflow — each
        eviction victim is cleared with the admission policy first: a
        candidate that cannot beat the victim's estimated request
        frequency is simply not cached, and the residents stay.
        """
        nbytes = _EMPTY_ENTRY_BYTES if region is EMPTY_REGION else region.nbytes
        if nbytes > self.capacity_bytes or nbytes > self.plan_capacity_bytes:
            return
        plan_limited = self.plan_share < 1.0
        group = self._plan_group(key) if plan_limited else None
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self.current_bytes -= previous[1]
                if plan_limited:
                    self._charge_plan(group, -previous[1])
            if plan_limited and not self._evict_plan_overflow(key, group, nbytes):
                return
            if not self._evict_budget_overflow(key, nbytes, plan_limited):
                return
            self._entries[key] = (region, nbytes)
            self.current_bytes += nbytes
            if plan_limited:
                self._charge_plan(group, nbytes)

    def _charge_plan(self, group: Hashable, delta: int) -> None:
        total = self._plan_bytes.get(group, 0) + delta
        if total > 0:
            self._plan_bytes[group] = total
        else:
            self._plan_bytes.pop(group, None)

    def _evict_plan_overflow(self, key: Hashable, group: Hashable, nbytes: int) -> bool:
        """Make room inside ``group``'s share; False = candidate rejected."""
        while self._plan_bytes.get(group, 0) + nbytes > self.plan_capacity_bytes:
            victim_key = next(
                (k for k in self._entries if self._plan_group(k) == group), None
            )
            if victim_key is None:  # accounting says full but no entry: bail out
                return True
            if self._admission is not None and not self._admission.admit(
                key, victim_key
            ):
                return False
            _, victim_bytes = self._entries.pop(victim_key)
            self.current_bytes -= victim_bytes
            self._charge_plan(group, -victim_bytes)
            self.plan_evictions += 1
        return True

    def _evict_budget_overflow(
        self, key: Hashable, nbytes: int, plan_limited: bool
    ) -> bool:
        """Make room in the global budget; False = candidate rejected."""
        while self.current_bytes + nbytes > self.capacity_bytes and self._entries:
            victim_key = next(iter(self._entries))
            if self._admission is not None and not self._admission.admit(
                key, victim_key
            ):
                return False
            _, victim_bytes = self._entries.popitem(last=False)[1]
            self.current_bytes -= victim_bytes
            if plan_limited:
                self._charge_plan(self._plan_group(victim_key), -victim_bytes)
            self.evictions += 1
        return True

    # --------------------------------------------------------------- lifecycle
    def clear(self) -> None:
        """Drop every entry and reset the counters (plan-cache invalidation).

        Learned admission state is reset with the entries: after a
        :meth:`TurboEngine.load` the old graph's frequencies are
        meaningless.
        """
        with self._lock:
            self._entries.clear()
            self._plan_bytes.clear()
            self.current_bytes = 0
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.plan_evictions = 0
            if self._admission is not None:
                self._admission.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats_snapshot(self) -> RegionCacheStats:
        """Every counter as one mergeable, picklable snapshot."""
        with self._lock:
            admission = self._admission
            return RegionCacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                plan_evictions=self.plan_evictions,
                admission_accepts=admission.accepts if admission else 0,
                admission_rejects=admission.rejects if admission else 0,
                sketch_resets=admission.sketch_resets if admission else 0,
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


def make_region_cache(
    capacity_bytes: Optional[int],
    admission: Optional[TinyLfuAdmission] = None,
    plan_share: float = 1.0,
) -> Optional[RegionCache]:
    """A cache for a resolved byte budget; None when disabled (0)."""
    if not capacity_bytes:
        return None
    return RegionCache(capacity_bytes, admission=admission, plan_share=plan_share)
