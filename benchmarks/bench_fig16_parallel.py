"""Figure 16 — parallel speed-up on Q2 and Q9 with a growing worker count.

The paper shows near-linear (even super-linear) wall-clock speed-up on a
4-socket NUMA machine.  Here wall-clock speed-up requires as many free
cores as workers, so the assertions target the quantity the experiment is
really about: dynamic chunks of starting vertices partition the work
evenly, i.e. the (simulated) dynamic-schedule speed-up grows with the
worker count.  Both metrics are printed for the shared-memory process
shard pool.
"""

from __future__ import annotations

import math
import statistics

import pytest
from conftest import LUBM_LARGE_SCALE, chord_query, report, star_closure_graph

from repro.bench import experiments
from repro.datasets import load_lubm
from repro.graph.transform import type_aware_transform, type_aware_transform_query
from repro.matching.config import MatchConfig
from repro.matching.process_shard import ProcessShardPool
from repro.matching.solution_batch import SOLUTION_BATCH_SIZE
from repro.sparql.parser import parse_sparql

WORKER_COUNTS = (1, 2, 4, 8)


def test_figure16_report(benchmark):
    """Regenerate Figure 16 (as a table) and assert the load-balance claim."""
    table = benchmark.pedantic(
        lambda: experiments.figure16_parallel(
            scale=LUBM_LARGE_SCALE, workers=WORKER_COUNTS
        ),
        rounds=1,
        iterations=1,
    )
    report(table)
    # For each query, the simulated dynamic-chunk speed-up must grow with the
    # number of workers and reach a substantial fraction of the worker count.
    for query_id in ("Q2", "Q9"):
        rows = [row for row in table.rows if row[0] == query_id]
        speedups = {row[1]: row[4] for row in rows}
        assert speedups[1] == pytest.approx(1.0)
        assert speedups[4] > 2.0, f"4 workers should at least halve the critical path for {query_id}"
        assert speedups[8] >= speedups[4] * 0.9, "more workers should not hurt the schedule"


@pytest.fixture(scope="module")
def parallel_setup():
    """Type-aware graph and the Q9 query graph for the worker-scaling benchmarks."""
    dataset = load_lubm(universities=LUBM_LARGE_SCALE)
    graph, mapping = type_aware_transform(dataset.store)
    parsed = parse_sparql(dataset.queries["Q9"]).strip_modifiers()
    query_graph = type_aware_transform_query(parsed.where.triples, mapping).query_graph
    return graph, query_graph


@pytest.mark.parametrize("workers", [1, 4])
def test_figure16_process_shards_q9(benchmark, parallel_setup, workers):
    """End-to-end process-shard matching of Q9 with 1 vs 4 workers."""
    graph, query_graph = parallel_setup
    pool = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=workers, chunk_size=4)
    try:
        solutions, stats = benchmark(pool.match, query_graph)
    finally:
        pool.close()
    assert stats.solutions == len(solutions)
    assert len(solutions) > 0


# ------------------------------------------------------- star-closure probe
def test_figure16_star_closure_process_probe():
    """4 process shards must at least halve the star-closure critical path.

    The acceptance metric is the dynamic-schedule speed-up (total work over
    the busiest worker) over repeated runs — the Figure 16 load-balance
    quantity, which wall-clock only realizes when the host actually has 4
    free cores.  Wall-clock medians for both series are printed alongside.

    The probe also gates the batch shape on a count, not a timing: 48 hubs
    are 48 candidate regions of 59 solutions each, and the workers must
    deliver them as full batches plus at most one tail per worker — never
    one batch per region.
    """
    hubs, spokes = 48, 60
    graph = star_closure_graph(spokes=spokes, hubs=hubs)
    query = chord_query()
    expected = hubs * (spokes - 1)

    def run_series(workers: int):
        pool = ProcessShardPool(
            graph, MatchConfig.turbo_hom_pp(), workers=workers, chunk_size=1
        )
        elapsed, speedups, batch_counts = [], [], []
        try:
            for _ in range(3):
                batches = list(pool.iter_match_batches(query))
                stats = pool.last_stats
                assert stats.solutions == sum(batch.rows for batch in batches) == expected
                elapsed.append(stats.elapsed_ms)
                speedups.append(stats.simulated_speedup(workers))
                batch_counts.append(len(batches))
        finally:
            pool.close()
        return statistics.median(elapsed), statistics.median(speedups), max(batch_counts)

    single_ms, single_speedup, single_batches = run_series(1)
    quad_ms, quad_speedup, quad_batches = run_series(4)
    print(
        f"\nstar-closure probe: 1 worker {single_ms:.1f} ms | 4 workers {quad_ms:.1f} ms "
        f"(wall-clock x{single_ms / quad_ms if quad_ms else float('nan'):.2f}), "
        f"dynamic-schedule speedup x{quad_speedup:.2f}, "
        f"batches for {expected} solutions: {single_batches} | {quad_batches}"
    )
    full_batches = math.ceil(expected / SOLUTION_BATCH_SIZE)
    assert single_batches <= full_batches + 1
    assert quad_batches <= full_batches + 4, (
        "shard workers must ship full batches plus one tail each, "
        "not one batch per candidate region"
    )
    assert single_speedup == pytest.approx(1.0)
    assert quad_speedup >= 2.0, (
        "4 shard workers should at least halve the star-closure critical path"
    )
