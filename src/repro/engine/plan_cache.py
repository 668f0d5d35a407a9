"""Plan caching: canonical BGP/filter fingerprints and a bounded LRU cache.

TurboHOM++'s per-query preparation — query-graph transformation, start-vertex
selection, query-tree construction, filter classification — is pure work over
the immutable data graph, so for the repeated-query serving scenario it only
has to run once per *distinct* query.  :func:`bgp_fingerprint` derives a
canonical key from a basic graph pattern plus the filters offered for
push-down, and :class:`PlanCache` keeps the most recently used compiled
:class:`~repro.engine.plan.QueryPlan` objects under those keys.

The fingerprint is canonical in the sense that

* triple-pattern order does not matter (patterns are sorted — a reordered
  BGP matches the same embeddings, and a cached plan binds solutions by
  variable name, so a plan compiled from either ordering answers both), and
* variables, IRIs and literals can never collide (variables render as
  ``?name``, concrete terms in N-Triples syntax with quoting/escaping).

Filters *are* part of the key because inexpensive single-variable filters are
compiled into push-down predicate closures stored inside the plan.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Generic, Hashable, Optional, Sequence, Tuple, TypeVar

from repro.sparql import expressions as expr
from repro.sparql.ast import TriplePattern

PlanT = TypeVar("PlanT")

#: A fingerprint: (sorted pattern keys, sorted filter keys[, plan shape]).
Fingerprint = Tuple[Tuple[str, ...], ...]


def bgp_fingerprint(
    patterns: Sequence[TriplePattern],
    filters: Sequence[expr.Expression] = (),
    shape: Optional[str] = None,
) -> Fingerprint:
    """Canonical cache key for a basic graph pattern plus push-down filters.

    ``shape`` carries the query's aggregate/grouping shape (see
    :meth:`repro.sparql.ast.SelectQuery.aggregate_shape`): plans compiled for
    an aggregate query carry grouping state, so a cached plan may only be
    reused when the aggregate shape matches exactly.  Plain queries omit the
    component entirely, keeping their keys identical to pre-aggregation ones.
    """
    key = (
        tuple(sorted(pattern.fingerprint() for pattern in patterns)),
        tuple(sorted(condition.fingerprint() for condition in filters)),
    )
    if shape is not None:
        return key + ((shape,),)
    return key


class PlanCache(Generic[PlanT]):
    """A small thread-safe LRU cache for compiled query plans.

    ``maxsize`` bounds memory (plans hold candidate lists, which can be
    large); hit/miss counters feed the repeated-query benchmark and make
    cache behaviour observable in tests.
    """

    def __init__(self, maxsize: int = 128):
        if maxsize <= 0:
            raise ValueError("PlanCache maxsize must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._plans: "OrderedDict[Hashable, PlanT]" = OrderedDict()

    def get(self, key: Hashable) -> Optional[PlanT]:
        """The cached plan for ``key``, refreshing its recency; None on miss."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.misses += 1
                return None
            self._plans.move_to_end(key)
            self.hits += 1
            return plan

    def put(self, key: Hashable, plan: PlanT) -> None:
        """Store a plan, evicting the least recently used entries if full."""
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every cached plan and reset the hit/miss counters."""
        with self._lock:
            self._plans.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._plans

    def counters(self) -> Dict[str, int]:
        """Counter snapshot in the shape :meth:`TurboEngine.stats` reports."""
        with self._lock:
            return {
                "size": len(self._plans),
                "capacity": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"PlanCache(size={len(self)}/{self.maxsize}, "
            f"hits={self.hits}, misses={self.misses}, evictions={self.evictions})"
        )
