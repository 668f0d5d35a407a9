"""Property-path reachability index vs the BFS kernel — a perf gate.

Workload: a deep 2000-edge ``p`` chain with four 50-vertex cyclic hubs
hanging off its tail (the condensation therefore mixes 2000+ singleton
SCCs with large cyclic SCCs), and 250 ``q`` candidate edges sampled over
chain/hub vertex pairs.  Each ``q`` pair is one bound-bound ``p+``
reachability probe — the probe ``SELECT ?s ?t WHERE { ?s q ?t . ?s p+ ?t }``
makes per row.  The engine's :class:`PathIndexManager` answers it from its
index (a closure-row bisect, or the cyclic bit within one SCC), while
:func:`bfs_reaches` pays one early-exit BFS over up to the whole chain.

Rounds alternate between the two and the gate compares *minima* (the
least-noise estimate of each side's true cost): the index must be >= 5x
faster, with identical answers.  Run with ``pytest
benchmarks/bench_property_paths.py -q -s`` to see the table; the assertion
makes this file a CI gate.
"""

from __future__ import annotations

import gc
import random
import time
from typing import List, Tuple

from repro.engine.turbo_engine import TurboHomPPEngine
from repro.graph.reachability import bfs_reaches
from repro.rdf.store import TripleStore
from repro.rdf.terms import IRI, Triple

P = IRI("http://bench.test/p")
Q = IRI("http://bench.test/q")

CHAIN = 2000
HUBS = 4
HUB_SIZE = 50
PROBES = 250
ROUNDS = 7


def chain_node(i: int) -> IRI:
    return IRI(f"http://bench.test/c{i}")


def hub_node(hub: int, i: int) -> IRI:
    return IRI(f"http://bench.test/h{hub}_{i}")


def probe_pairs() -> List[Tuple[IRI, IRI]]:
    """The ``PROBES`` distinct (source, target) pairs of the ``q`` edges."""
    rng = random.Random(20150707)
    seen = set()
    pairs = []
    while len(seen) < PROBES:
        kind = rng.randrange(4)
        if kind < 2:  # chain-to-chain, both directions (hit and miss probes)
            pair = (chain_node(rng.randrange(CHAIN)), chain_node(rng.randrange(CHAIN)))
        elif kind == 2:  # within one cyclic hub (always reachable)
            hub = rng.randrange(HUBS)
            pair = (
                hub_node(hub, rng.randrange(HUB_SIZE)),
                hub_node(hub, rng.randrange(HUB_SIZE)),
            )
        else:  # chain into a hub (deepest BFS walks)
            pair = (
                chain_node(rng.randrange(CHAIN)),
                hub_node(rng.randrange(HUBS), rng.randrange(HUB_SIZE)),
            )
        if pair not in seen:
            seen.add(pair)
            pairs.append(pair)
    return pairs


def build_store() -> TripleStore:
    store = TripleStore()
    for i in range(CHAIN):
        store.add(Triple(chain_node(i), P, chain_node(i + 1)))
    for hub in range(HUBS):
        for i in range(HUB_SIZE):
            store.add(Triple(hub_node(hub, i), P, hub_node(hub, (i + 1) % HUB_SIZE)))
        # The chain tail feeds every hub: cyclic SCCs sit below the chain
        # in the condensation instead of forming a disconnected island.
        store.add(Triple(chain_node(CHAIN), P, hub_node(hub, 0)))
    for source, target in probe_pairs():
        store.add(Triple(source, Q, target))
    return store


def test_path_index_beats_bfs_kernel():
    """Indexed bound-bound ``p+`` probes >= 5x over the BFS kernel."""
    engine = TurboHomPPEngine()
    try:
        engine.load(build_store())
        resolver = engine.bgp_solver().path_resolver()
        graph, manager = resolver.graph, resolver.manager
        label = resolver.edge_label(P)
        pairs = [
            (resolver.vertex_for_term(source), resolver.vertex_for_term(target))
            for source, target in probe_pairs()
        ]

        # Parity first (also builds the index).
        expected = [bfs_reaches(graph, label, s, t) for s, t in pairs]
        assert [manager.reaches(label, s, t) for s, t in pairs] == expected
        assert any(expected) and not all(expected), "probes must hit and miss"

        indexed_times: List[float] = []
        bfs_times: List[float] = []
        gc.disable()
        try:
            for _ in range(ROUNDS):
                begin = time.perf_counter()
                answers = [bfs_reaches(graph, label, s, t) for s, t in pairs]
                bfs_times.append(time.perf_counter() - begin)
                assert answers == expected
                begin = time.perf_counter()
                answers = [manager.reaches(label, s, t) for s, t in pairs]
                indexed_times.append(time.perf_counter() - begin)
                assert answers == expected
        finally:
            gc.enable()

        bfs_ms = min(bfs_times) * 1000.0
        idx_ms = min(indexed_times) * 1000.0
        speedup = bfs_ms / idx_ms
        stats = manager.stats()
        print(
            f"\nproperty-path probes ({PROBES} bound-bound p+ pairs, "
            f"chain={CHAIN}, hubs={HUBS}x{HUB_SIZE}):\n"
            f"  BFS kernel {bfs_ms:8.2f} ms | index {idx_ms:8.2f} ms | "
            f"x{speedup:.2f}\n"
            f"  index: builds={stats['builds']} bytes={stats['bytes']} "
            f"closure_hits={stats['closure_hits']}"
        )
        assert stats["builds"] == 1
        assert speedup >= 5.0, (
            f"reachability index should be >= 5x over the BFS kernel on the "
            f"deep-chain + cyclic-hub probe workload (observed x{speedup:.2f})"
        )
    finally:
        engine.close()
