"""One function per table / figure of the paper's evaluation (Section 7).

Every function returns a :class:`~repro.bench.harness.ResultTable`; the
scripts under ``benchmarks/`` print these tables and assert the qualitative
claims (who wins, how results scale).  Scale parameters default to sizes that
run in seconds on a laptop; pass larger values to stress the system.

Mapping to the paper:

====================  =========================================================
Function              Paper artefact
====================  =========================================================
table1_graph_stats    Table 1 — |V| / |E| under direct vs type-aware transform
table2_lubm_solutions Table 2 — number of solutions of LUBM queries per scale
table3_lubm_engines   Table 3 — elapsed time, TurboHOM++ vs competitors
table4_yago           Table 4 — YAGO query set
table5_btc            Table 5 — BTC query set
table6_bsbm           Table 6 — BSBM explore queries (vs System-X stand-in)
table7_type_aware     Table 7 — direct vs type-aware transformation
figure6_direct        Figure 6 — TurboHOM (direct transform) vs RDF engines
figure15_optimizations Figure 15 — individual effect of +INT/-NLF/-DEG/+REUSE
figure16_parallel     Figure 16 — speed-up with 1..N workers on Q2/Q9
ablation_intersection (ours) — +INT crossover against candidate-set size
====================  =========================================================
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.baselines import BitmapEngine, RDF3XEngine, TripleBitEngine
from repro.bench.harness import (
    QueryTiming,
    ResultTable,
    compare_engines,
    run_query,
    timing_table,
)
from repro.datasets import load_bsbm, load_btc, load_lubm, load_yago
from repro.datasets.base import Dataset
from repro.engine.turbo_engine import TurboEngine, TurboHomEngine, TurboHomPPEngine
from repro.graph.transform import (
    direct_transform,
    type_aware_transform,
    type_aware_transform_query,
)
from repro.matching.config import MatchConfig
from repro.matching.process_shard import ProcessShardPool
from repro.matching.turbo import TurboMatcher
from repro.sparql.parser import parse_sparql
from repro.utils.timer import timed

#: LUBM scale factors standing in for LUBM80 / LUBM800 / LUBM8000.
DEFAULT_LUBM_SCALES: Tuple[int, ...] = (1, 2, 4)

#: The two long-running LUBM queries used by the optimization / parallel studies.
LONG_RUNNING_QUERIES: Tuple[str, ...] = ("Q2", "Q9")


# ----------------------------------------------------------------- Table 1
def table1_graph_stats(
    lubm_scales: Sequence[int] = DEFAULT_LUBM_SCALES,
    include_other_datasets: bool = True,
) -> ResultTable:
    """Graph size statistics under both transformations (Table 1)."""
    table = ResultTable(
        "Table 1: graph size statistics (direct vs type-aware transformation)",
        ["dataset", "|V| direct", "|E| direct", "|V| type-aware", "|E| type-aware"],
    )
    datasets: List[Dataset] = [load_lubm(universities=scale) for scale in lubm_scales]
    if include_other_datasets:
        datasets.extend([load_yago(), load_btc(), load_bsbm()])
    for dataset in datasets:
        direct_graph, _ = direct_transform(dataset.store)
        typed_graph, _ = type_aware_transform(dataset.store)
        table.add_row(
            dataset.name,
            direct_graph.vertex_count,
            direct_graph.edge_count,
            typed_graph.vertex_count,
            typed_graph.edge_count,
        )
    table.notes.append(
        "the type-aware transformation removes rdf:type / rdfs:subClassOf edges "
        "and class vertices, hence smaller |E| (and |V|)"
    )
    return table


# ----------------------------------------------------------------- Table 2
def table2_lubm_solutions(lubm_scales: Sequence[int] = DEFAULT_LUBM_SCALES) -> ResultTable:
    """Number of solutions of every LUBM query per scale factor (Table 2)."""
    first = load_lubm(universities=lubm_scales[0])
    query_ids = first.query_ids()
    table = ResultTable(
        "Table 2: number of solutions in LUBM queries",
        ["dataset"] + query_ids,
    )
    for scale in lubm_scales:
        dataset = load_lubm(universities=scale)
        engine = TurboHomPPEngine()
        engine.load(dataset.store)
        row: List[object] = [dataset.name]
        for query_id in query_ids:
            parsed = parse_sparql(dataset.queries[query_id]).strip_modifiers()
            row.append(len(engine.query(parsed)))
        table.add_row(*row)
    return table


# ----------------------------------------------------------------- Table 3
def table3_lubm_engines(
    lubm_scales: Sequence[int] = DEFAULT_LUBM_SCALES,
    repeats: int = 3,
    query_ids: Optional[Sequence[str]] = None,
) -> List[ResultTable]:
    """Elapsed time of every engine on the LUBM queries, one table per scale."""
    tables: List[ResultTable] = []
    for scale in lubm_scales:
        dataset = load_lubm(universities=scale)
        engines = [TurboHomPPEngine(), RDF3XEngine(), TripleBitEngine(), BitmapEngine()]
        timings = compare_engines(dataset, engines, query_ids=query_ids, repeats=repeats)
        table = timing_table(
            f"Table 3: elapsed time in {dataset.name} [ms]", timings, engines
        )
        tables.append(table)
    return tables


# ------------------------------------------------------------- Tables 4-6
def _dataset_comparison(
    dataset: Dataset,
    title: str,
    engines: Optional[List] = None,
    repeats: int = 3,
) -> ResultTable:
    engine_list = engines if engines is not None else [
        TurboHomPPEngine(),
        RDF3XEngine(),
        TripleBitEngine(),
        BitmapEngine(),
    ]
    timings = compare_engines(dataset, engine_list, repeats=repeats)
    return timing_table(title, timings, engine_list)


def table4_yago(repeats: int = 3, people: int = 400) -> ResultTable:
    """YAGO query set: solutions and elapsed times (Table 4)."""
    return _dataset_comparison(
        load_yago(people=people), "Table 4: number of solutions and elapsed time in YAGO [ms]",
        repeats=repeats,
    )


def table5_btc(repeats: int = 3, entities: int = 600) -> ResultTable:
    """BTC query set: solutions and elapsed times (Table 5)."""
    return _dataset_comparison(
        load_btc(entities=entities), "Table 5: number of solutions and elapsed time in BTC [ms]",
        repeats=repeats,
    )


def table6_bsbm(repeats: int = 3, products: int = 200) -> ResultTable:
    """BSBM explore queries: TurboHOM++ vs the bitmap engine (Table 6).

    The open-source baselines are excluded because they do not support
    OPTIONAL, mirroring the paper.
    """
    return _dataset_comparison(
        load_bsbm(products=products),
        "Table 6: number of solutions and elapsed time in BSBM [ms]",
        engines=[TurboHomPPEngine(), BitmapEngine()],
        repeats=repeats,
    )


# ----------------------------------------------------------------- Table 7
def table7_type_aware(scale: int = 4, repeats: int = 3) -> ResultTable:
    """Effect of the type-aware transformation (Table 7).

    Compares TurboHOM (direct transformation) against TurboHOM++ *without*
    the four optimizations, so the difference is attributable to the
    transformation alone.
    """
    dataset = load_lubm(universities=scale)
    direct_engine = TurboHomEngine()
    type_aware_engine = TurboEngine(type_aware=True, config=MatchConfig.no_optimizations())
    type_aware_engine.name = "type-aware (no opt)"
    direct_engine.load(dataset.store)
    type_aware_engine.load(dataset.store)

    table = ResultTable(
        f"Table 7: effect of type-aware transformation in {dataset.name}",
        ["query", "direct (ms)", "type-aware (ms)", "gain"],
    )
    for query_id in dataset.query_ids():
        sparql = dataset.queries[query_id]
        direct_timing = run_query(direct_engine, query_id, sparql, repeats)
        typed_timing = run_query(type_aware_engine, query_id, sparql, repeats)
        gain = (
            direct_timing.elapsed_ms / typed_timing.elapsed_ms
            if direct_timing.elapsed_ms and typed_timing.elapsed_ms
            else float("nan")
        )
        table.add_row(
            query_id,
            round(direct_timing.elapsed_ms or 0.0, 3),
            round(typed_timing.elapsed_ms or 0.0, 3),
            round(gain, 2),
        )
    return table


# ----------------------------------------------------------------- Figure 6
def figure6_direct(scale: int = 2, repeats: int = 3) -> ResultTable:
    """TurboHOM with direct transformation vs the RDF engines (Figure 6)."""
    dataset = load_lubm(universities=scale)
    engines = [TurboHomEngine(), RDF3XEngine(), BitmapEngine()]
    timings = compare_engines(dataset, engines, repeats=repeats)
    table = timing_table(
        f"Figure 6: TurboHOM (direct transformation) vs RDF engines in {dataset.name} [ms]",
        timings,
        engines,
    )
    table.notes.append(
        "TurboHOM wins the selective queries but is not uniformly fastest on "
        "the long-running ones — the observation motivating TurboHOM++"
    )
    return table


# ---------------------------------------------------------------- Figure 15
def figure15_optimizations(
    scale: int = 4,
    repeats: int = 3,
    query_ids: Sequence[str] = LONG_RUNNING_QUERIES,
) -> ResultTable:
    """Reduced elapsed time of each individual optimization (Figure 15)."""
    dataset = load_lubm(universities=scale)
    table = ResultTable(
        f"Figure 15: reduced elapsed time of each optimization in {dataset.name} [ms]",
        ["query", "no-opt (ms)", "+INT saves", "-NLF saves", "-DEG saves", "+REUSE saves", "all-opt (ms)"],
    )
    baseline_engine = TurboEngine(type_aware=True, config=MatchConfig.no_optimizations())
    baseline_engine.load(dataset.store)
    full_engine = TurboHomPPEngine()
    full_engine.load(dataset.store)
    optimization_names = ("INT", "NLF", "DEG", "REUSE")
    single_engines: Dict[str, TurboEngine] = {}
    for name in optimization_names:
        engine = TurboEngine(type_aware=True, config=MatchConfig().with_only(name))
        engine.load(dataset.store)
        single_engines[name] = engine

    for query_id in query_ids:
        sparql = dataset.queries[query_id]
        baseline = run_query(baseline_engine, query_id, sparql, repeats).elapsed_ms or 0.0
        full = run_query(full_engine, query_id, sparql, repeats).elapsed_ms or 0.0
        row: List[object] = [query_id, round(baseline, 2)]
        for name in optimization_names:
            single = run_query(single_engines[name], query_id, sparql, repeats).elapsed_ms or 0.0
            row.append(round(baseline - single, 2))
        row.append(round(full, 2))
        table.add_row(*row)
    table.notes.append("'saves' = no-optimization time minus time with only that optimization enabled")
    return table


# ---------------------------------------------------------------- Figure 16
def figure16_parallel(
    scale: int = 4,
    workers: Sequence[int] = (1, 2, 4, 8),
    query_ids: Sequence[str] = LONG_RUNNING_QUERIES,
) -> ResultTable:
    """Parallel speed-up on the long-running queries (Figure 16).

    Runs the process shard pool (its one-worker row is the
    sequential matcher) and reports both wall-clock speed-up (bounded by
    the machine's core count) and the work-partition speed-up (total work /
    busiest worker), which captures the load balance of dynamic chunking
    that the paper's figure demonstrates.  The ``batches`` column counts
    the solution batches the workers delivered: full batches plus at most
    one tail per worker, however many candidate regions the solutions came
    from.
    """
    dataset = load_lubm(universities=scale)
    graph, mapping = type_aware_transform(dataset.store)
    table = ResultTable(
        f"Figure 16: parallel speed-up in {dataset.name}",
        [
            "query", "workers", "elapsed (ms)", "wall-clock speedup", "work speedup",
            "solutions", "batches",
        ],
    )
    for query_id in query_ids:
        parsed = parse_sparql(dataset.queries[query_id]).strip_modifiers()
        transformed = type_aware_transform_query(parsed.where.triples, mapping)
        baseline_ms: Optional[float] = None
        for worker_count in workers:
            # Chunk size 1: with only a handful of starting vertices (Q2 has
            # one per university) larger chunks would serialize the work.
            matcher = ProcessShardPool(
                graph, MatchConfig.turbo_hom_pp(), workers=worker_count, chunk_size=1
            )
            try:
                batches = list(matcher.iter_match_batches(transformed.query_graph))
                stats = matcher.last_stats
            finally:
                matcher.close()
            if baseline_ms is None:
                baseline_ms = stats.elapsed_ms
            wall_speedup = baseline_ms / stats.elapsed_ms if stats.elapsed_ms else float("nan")
            table.add_row(
                query_id,
                worker_count,
                round(stats.elapsed_ms, 2),
                round(wall_speedup, 2),
                round(stats.simulated_speedup(worker_count), 2),
                stats.solutions,
                len(batches),
            )
    table.notes.append(
        "wall-clock speed-up needs as many free cores as workers; "
        "work speed-up measures dynamic-chunk load balance (the paper's NUMA experiment)"
    )
    return table


# -------------------------------------------------------------- Ablation (ours)
def ablation_intersection(scale: int = 2, repeats: int = 3) -> ResultTable:
    """Effect of the +INT bulk IsJoinable on the triangle queries (our ablation)."""
    dataset = load_lubm(universities=scale)
    with_int = TurboEngine(type_aware=True, config=MatchConfig.turbo_hom_pp())
    with_int.name = "+INT"
    without_int = TurboEngine(type_aware=True, config=MatchConfig.turbo_hom_pp().without("INT"))
    without_int.name = "-INT"
    with_int.load(dataset.store)
    without_int.load(dataset.store)
    table = ResultTable(
        f"Ablation: bulk-intersection IsJoinable (+INT) in {dataset.name} [ms]",
        ["query", "+INT (ms)", "per-candidate probes (ms)"],
    )
    for query_id in LONG_RUNNING_QUERIES:
        sparql = dataset.queries[query_id]
        fast = run_query(with_int, query_id, sparql, repeats).elapsed_ms or 0.0
        slow = run_query(without_int, query_id, sparql, repeats).elapsed_ms or 0.0
        table.add_row(query_id, round(fast, 2), round(slow, 2))
    return table
