"""Plan caching: template keys for BGPs and a bounded LRU cache.

TurboHOM++'s per-query preparation — query-graph transformation, start-vertex
selection, query-tree construction, filter classification — is pure work over
the immutable data graph, so it only has to run once per query *template*.
:func:`bgp_fingerprint` splits a basic graph pattern plus the filters offered
for push-down into a template key and the constants that fill its slots, and
:class:`PlanCache` keeps the most recently used compiled
:class:`~repro.engine.plan.QueryPlan` objects under those keys; the solver
binds a cached plan to each instance's slot constants
(:meth:`~repro.engine.plan.QueryPlan.bind`) instead of compiling it again.

A *slot* ``$k`` stands for a subject or object constant.  Slots are numbered
in the order the sorted patterns mention them, and equal constants share a
slot, so ``<a> p ?x . ?x q <a>`` and ``<a> p ?x . ?x q <b>`` have different
keys (one query vertex versus two).  Everything that shapes the compiled
plan stays in the key: predicates, the class object of a type-aware
``rdf:type`` pattern (a vertex label, not a vertex), variable names, the
filters (their closures live in the plan, constants included) and the plan
shape.  The key is canonical in that

* triple-pattern order does not matter (patterns sort on their rendering
  with every slot written ``$``; a cached plan binds solutions by variable
  name, so a plan compiled from either ordering answers both), and
* variables, slots, IRIs and literals can never collide (variables render
  as ``?name``, slots as ``$`` with their numbers listed beside the
  patterns, concrete terms in N-Triples syntax with quoting/escaping).

The same class serves as the engine's text → ``SelectQuery`` parse cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Generic, Hashable, List, Optional, Sequence, Tuple, TypeVar

from repro.rdf.namespaces import RDF_TYPE
from repro.rdf.terms import Term
from repro.sparql import expressions as expr
from repro.sparql.ast import TriplePattern, Variable

PlanT = TypeVar("PlanT")

#: A template key: (pattern keys, slot numbers, sorted filter keys[, plan shape]).
TemplateKey = Tuple[Tuple[object, ...], ...]


def bgp_fingerprint(
    patterns: Sequence[TriplePattern],
    filters: Sequence[expr.Expression] = (),
    shape: Optional[str] = None,
    type_aware: bool = True,
) -> Tuple[TemplateKey, Tuple[Term, ...]]:
    """Template key of a basic graph pattern plus push-down filters, and the
    constants of its slots (slot ``$k`` is ``constants[k]``).

    The key holds the patterns rendered with every slot written ``$``, in
    sorted order, and the slot number of each ``$`` in reading order.
    ``shape`` carries the query's aggregate/grouping shape (see
    :meth:`repro.sparql.ast.SelectQuery.aggregate_shape`): plans compiled for
    an aggregate query carry grouping state, so a cached plan may only be
    reused when the aggregate shape matches exactly.  Plain queries omit the
    component entirely.  ``type_aware`` keeps ``rdf:type`` class objects in
    the key; under the direct transformation a class is an ordinary vertex,
    so it takes a slot like any other constant.
    """
    keys: List[str] = []
    slotted: List[Tuple[Term, ...]] = []
    for pattern in patterns:
        subject, predicate, obj = pattern.subject, pattern.predicate, pattern.object
        terms: Tuple[Term, ...] = ()
        if isinstance(subject, Variable):
            subject_key = f"?{subject}"
        else:
            subject_key = "$"
            terms = (subject,)
        if isinstance(obj, Variable):
            object_key = f"?{obj}"
        elif type_aware and predicate == RDF_TYPE and not isinstance(predicate, Variable):
            object_key = obj.n3()
        else:
            object_key = "$"
            terms += (obj,)
        predicate_key = f"?{predicate}" if isinstance(predicate, Variable) else predicate.n3()
        keys.append(f"{subject_key} {predicate_key} {object_key}")
        slotted.append(terms)
    # Stable sort on the slot-free rendering: ties keep input order.
    order = sorted(range(len(keys)), key=keys.__getitem__)

    slots: Dict[Tuple[type, Term], int] = {}
    constants: List[Term] = []
    sequence: List[int] = []
    for index in order:
        for term in slotted[index]:
            # Keyed by class too: an IRI and a blank node may spell the same string.
            slot_key = (term.__class__, term)
            slot = slots.get(slot_key)
            if slot is None:
                slot = slots[slot_key] = len(constants)
                constants.append(term)
            sequence.append(slot)
    key = (
        tuple([keys[index] for index in order]),
        tuple(sequence),
        tuple(sorted(condition.fingerprint() for condition in filters)),
    )
    if shape is not None:
        key += ((shape,),)
    return key, tuple(constants)


class PlanCache(Generic[PlanT]):
    """A small thread-safe LRU cache for compiled query plans.

    ``maxsize`` bounds memory (plans hold candidate lists, which can be
    large); hit/miss counters feed the repeated-query benchmark and make
    cache behaviour observable in tests.  The engine's parse cache is one
    too, keyed by query text.
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
