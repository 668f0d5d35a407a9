#!/usr/bin/env python3
"""The measurement spine's runner.

    python3 benchmarks/spine/run.py --workload lubm_warm --seed 1 --seconds 8 --trace 0
    python3 benchmarks/spine/run.py --seed 1 --trace 1 --out runs.jsonl   # all seven
    python3 benchmarks/spine/run.py --quick --seed 1                      # seconds, same code

One invocation with ``--workload`` measures one workload in this process:
it builds the inputs from the seed, sets the engine (or server child) up,
fills caches with one untimed round, measures whole rounds for ``--seconds``
(at least ``min_rounds``), checks every answer, and prints every metric by
name with its unit.  The last stdout line is the contract's JSON object.
``--trace 0`` reports the end-to-end metrics (tracing off, set-up run three
times for a median); ``--trace 1`` reports the per-layer metrics and writes
``out/trace.<workload>.json``.  Without ``--workload`` every workload runs
in its own child process (so ``peak_rss_mb`` is per workload).

See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import itertools
import json
import multiprocessing
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

# str hashes are salted per interpreter, which moves set orders and dict
# collisions — and with them every timing — from one run to the next.  The
# runner, its server child and the shard workers all run under one fixed salt.
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"run.py: {SRC}/repro not found — the spine measures the repo it sits in")
sys.path.insert(0, str(SRC))

import spine_serve  # noqa: E402
from spine_checks import Oracle, answer_of_body, answer_of_result, write_goldens  # noqa: E402
from spine_trace import Tracer  # noqa: E402
from spine_workloads import (  # noqa: E402
    CONNECTIONS,
    END_TO_END,
    GOLDEN_ONLY,
    LUBM_IDS,
    OPEN_LIMIT_MS,
    OPEN_RATES,
    OPERATOR_QUERIES,
    PER_LAYER,
    SHARD_IDS,
    SIZES,
    WORKLOADS,
    BsbmTemplates,
    bsbm_round,
    repeated_round,
    serve_round,
)

from repro.datasets import load_bsbm, load_lubm  # noqa: E402
from repro.datasets.bsbm import BSBM_QUERIES, BSBMProfile  # noqa: E402
from repro.datasets.lubm import LUBM_QUERIES  # noqa: E402
from repro.engine.turbo_engine import TurboHomPPEngine  # noqa: E402
from repro.graph.reachability import PathIndexManager  # noqa: E402
from repro.matching.turbo import TurboMatcher  # noqa: E402
from repro.rdf.terms import IRI  # noqa: E402
from repro.sparql.results import ResultSet  # noqa: E402
from repro.sparql.serializers import serialize_csv, serialize_json  # noqa: E402

OUT_DIR = HERE / "out"
#: Generation + load (+ server start) runs this often for a median; the
#: warm pass runs once and is added to it.
SETUP_REPEATS = 3
#: Traced rounds of a traced run; untraced rounds run first, for a quarter
#: of ``--seconds``, as the base of ``trace.overhead_ratio``.
TRACED_ROUNDS = 2
#: Samples an end-to-end percentile is taken over: five beyond p95 in each
#: pool, and with five rounds or more at least ten in the run.
PERCENTILE_POOL = 100
PER_LAYER_NAMES = [name for name, _, _ in PER_LAYER]
SERIALIZERS = {"json": serialize_json, "csv": serialize_csv}
#: Span names that partition a traced op's time (self times add up to it).
KERNELS = ("join", "aggregate", "sort", "distinct", "path", "filter")
IN_OP = ("op", "query_batches", "result_set", "parse", "plan", "compile",
         "explore", "solve", *KERNELS)


# ---------------------------------------------------------------- statistics
def percentile(samples: Sequence[float], fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


class Round:
    """What one measured round produced."""

    def __init__(self) -> None:
        self.latency_ms: List[float] = []
        self.first_ms: List[float] = []
        self.by_query: Dict[str, List[float]] = {}
        self.rows = 0
        self.failed = 0
        #: Ops that raised: attempted and failed, but without a sample.
        self.raised = 0
        #: Seconds the round's clock ran (sum of op times, or wall for HTTP).
        self.busy_s = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latency_ms) + self.raised

    def record(self, op_id: str, first_s: float, total_s: float, rows: int, ok: bool) -> None:
        self.latency_ms.append(total_s * 1e3)
        self.first_ms.append(first_s * 1e3)
        self.by_query.setdefault(op_id.split(":")[0], []).append(total_s * 1e3)
        self.rows += rows
        self.failed += not ok


def totals(rounds: Sequence[Round]) -> Tuple[int, int]:
    return sum(r.attempted for r in rounds), sum(r.failed for r in rounds)


def end_to_end(rounds: Sequence[Round], setup_s: float, peak_rss_mb: float) -> Dict[str, float]:
    """A rate is the median over rounds of the per-round rate, a percentile
    the median over pools of rounds (:func:`pooled_percentile`)."""
    def over_rounds(value) -> float:
        return statistics.median(value(r) for r in rounds)

    latency_ms = [r.latency_ms for r in rounds]
    return {
        "setup_s": setup_s,
        "queries_per_s": over_rounds(lambda r: len(r.latency_ms) / r.busy_s),
        "rows_per_s": over_rounds(lambda r: r.rows / r.busy_s),
        "latency_ms_p50": pooled_percentile(latency_ms, 0.50),
        "latency_ms_p95": pooled_percentile(latency_ms, 0.95),
        "first_batch_ms_p50": pooled_percentile([r.first_ms for r in rounds], 0.50),
        "peak_rss_mb": peak_rss_mb,
    }


def pooled_percentile(per_round: Sequence[Sequence[float]], fraction: float) -> float:
    """Median over pools of consecutive rounds of each pool's percentile.

    A pool is as many rounds as hold ``PERCENTILE_POOL`` samples: one round
    of ``lubm_warm``, two or three of ``serve_open``.  In a round of 65 p95
    is the fourth largest sample, which hops between two classes of op from
    round to round; in a pool it lies inside one class.  The median over
    pools then drops the pools a burst of outside load fell into.
    """
    pools: List[List[float]] = [[]]
    for samples in per_round:
        if len(pools[-1]) >= PERCENTILE_POOL:
            pools.append([])
        pools[-1].extend(samples)
    if len(pools) > 1 and len(pools[-1]) < PERCENTILE_POOL:
        pools[-2].extend(pools.pop())
    return statistics.median(percentile(pool, fraction) for pool in pools)


def untraced_layer_metrics(rounds: Sequence[Round], lubm_queries: bool) -> Dict[str, float]:
    """Per-layer metrics that come from rounds measured with tracing off."""
    attempted, failed = totals(rounds)
    metrics = {
        "latency_ms_p99": percentile([ms for r in rounds for ms in r.latency_ms], 0.99),
        "failed_share": failed / attempted,
    }
    if lubm_queries:
        for qid in LUBM_IDS:
            samples = [ms for r in rounds for ms in r.by_query.get(qid, ())]
            if samples:
                metrics[f"query.{qid}.ms_p50"] = percentile(samples, 0.50)
    return metrics


# -------------------------------------------------------------- the timed op
def timed_query(engine, text: str):
    """``Engine.query(text)`` unrolled so the first batch can be stamped.

    ``query()`` is ``ResultSet.from_batches`` over the same batch stream
    ``query_batches()`` returns; driving the stream here gives the time to
    the first ``BindingBatch`` and the time to the complete ``ResultSet``
    from one execution.
    """
    begin = time.perf_counter()
    stream = engine.query_batches(text)
    first = next(stream, None)
    first_s = time.perf_counter() - begin
    batches = stream if first is None else itertools.chain((first,), stream)
    result = ResultSet.from_batches(stream.variables, batches)
    return first_s, time.perf_counter() - begin, result


def traced_query(tracer: Tracer, engine, text: str):
    """The same op as :func:`timed_query`, stage by stage under spans."""
    tracer.op += 1
    with tracer.span("op"):
        with tracer.span("query_batches"):
            stream = engine.query_batches(text)
            batches = list(stream)
        with tracer.span("result_set"):
            result = ResultSet.from_batches(stream.variables, batches)
    # A replay outside the op: decode alone, without building row dicts.
    with tracer.span("decode"):
        for batch in batches:
            for var in stream.variables:
                batch.term_column(var)
    return 0.0, 0.0, result


def run_op(engine, op_id: str, text: str, oracle: Oracle, measured: Round, query) -> None:
    try:
        first_s, total_s, result = query(engine, text)
    except Exception as error:  # an op that raises is a failed op, not a crash
        print(f"  op {op_id} raised {error!r}", file=sys.stderr)
        measured.failed += 1
        measured.raised += 1
        return
    ok = oracle.matches(op_id, answer_of_result(result))
    measured.record(op_id, first_s, total_s, len(result), ok)


# ------------------------------------------------------ in-process workloads
class InProcess:
    """A workload whose ops are queries against an engine in this process."""

    name = ""
    engine_kwargs: Dict[str, object] = {}
    #: Whether op ids are the paper's LUBM query ids (``query.<id>.ms_p50``).
    lubm_queries = True

    def __init__(self, sizes, rng: random.Random, tracer: Tracer, ops=None):
        self.sizes = sizes
        self.rng = rng
        self.tracer = tracer
        self.ops: List[Tuple[str, str]] = ops if ops is not None else self.build_ops()

    def build_ops(self) -> List[Tuple[str, str]]:
        raise NotImplementedError

    def load_dataset(self):
        return load_lubm(universities=self.sizes.lubm_universities)

    def make_oracle(self, dataset) -> Oracle:
        oracle = Oracle(dataset)
        for op_id, text in self.ops:
            oracle.expect(op_id, text)
        return oracle

    def new_engine(self, dataset):
        with self.tracer.span("load"):
            engine = TurboHomPPEngine(**self.engine_kwargs)
            engine.load(dataset.store)
            engine.bgp_solver()
        return engine

    def build(self):
        """Dataset generation + engine load: the part of set-up run thrice."""
        dataset = self.load_dataset()
        return dataset, self.new_engine(dataset)

    def warm(self, dataset, engine) -> None:
        """Fill the caches: every distinct op once, untimed and unchecked."""
        for text in dict(self.ops).values():
            engine.query(text)

    def run_round(self, dataset, engine, oracle: Oracle, query=timed_query) -> Round:
        ops = list(self.ops)
        self.rng.shuffle(ops)
        measured = Round()
        for op_id, text in ops:
            run_op(engine, op_id, text, oracle, measured, query)
        measured.busy_s = sum(measured.latency_ms) / 1e3
        return measured


class LubmWarm(InProcess):
    name = "lubm_warm"

    def build_ops(self):
        return repeated_round(LUBM_QUERIES, self.sizes.warm_repeats, self.rng)


class Shards(InProcess):
    name = "shards"
    engine_kwargs = {"workers": 2, "execution_mode": "processes"}

    def build_ops(self):
        queries = {qid: LUBM_QUERIES[qid] for qid in SHARD_IDS}
        return repeated_round(queries, self.sizes.shards_repeats, self.rng)


class Operators(InProcess):
    name = "operators"
    lubm_queries = False

    def build_ops(self):
        return repeated_round(OPERATOR_QUERIES, self.sizes.operators_repeats, self.rng)

    def golden_name(self) -> str:
        return f"operators_lubm{self.sizes.lubm_universities}"

    def make_oracle(self, dataset) -> Oracle:
        oracle = Oracle(dataset, self.golden_name())
        for op_id, text in self.ops:
            oracle.expect(op_id, text, golden=op_id in GOLDEN_ONLY)
        return oracle


class BsbmTemplatesWorkload(InProcess):
    name = "bsbm_templates"
    lubm_queries = False

    def build_ops(self):
        templates = BsbmTemplates(
            BSBM_QUERIES, self.sizes.bsbm_products, BSBMProfile(), self.rng
        )
        return bsbm_round(templates, self.sizes.bsbm_repeats, self.rng)

    def load_dataset(self):
        return load_bsbm(products=self.sizes.bsbm_products)


class LubmCold(InProcess):
    """Each cycle: new engine, ``load``, 14 first executions, ``close``.

    Latency samples are the first executions; ``queries_per_s`` divides them
    by whole-cycle time, so what a cache or a precomputation costs at load
    or at fill shows here.
    """

    name = "lubm_cold"

    def build_ops(self):
        return list(LUBM_QUERIES.items())

    def load_dataset(self):
        return load_lubm(universities=self.sizes.cold_universities)

    def build(self):
        return self.load_dataset(), None

    def warm(self, dataset, engine) -> None:
        """One unchecked cycle; the caches stay cold, the interpreter does not."""
        engine = TurboHomPPEngine()
        try:
            engine.load(dataset.store)
            for _, text in self.ops:
                engine.query(text)
        finally:
            engine.close()

    def run_cycle(self, dataset, oracle, measured: Round, query,
                  around_queries=contextlib.nullcontext) -> float:
        ops = list(self.ops)
        self.rng.shuffle(ops)
        begin = time.perf_counter()
        engine = TurboHomPPEngine()
        try:
            engine.load(dataset.store)
            with around_queries(engine):
                for op_id, text in ops:
                    run_op(engine, op_id, text, oracle, measured, query)
        finally:
            engine.close()
        return time.perf_counter() - begin

    def run_round(self, dataset, engine, oracle, query=timed_query) -> Round:
        measured = Round()
        for _ in range(self.sizes.cold_cycles):
            measured.busy_s += self.run_cycle(dataset, oracle, measured, query)
        return measured


IN_PROCESS = {
    cls.name: cls for cls in (LubmWarm, LubmCold, BsbmTemplatesWorkload, Operators, Shards)
}


# ------------------------------------------------------------------ hygiene
class Hygiene:
    """What a workload may not leave behind: shm segments, spill dirs, children."""

    def __init__(self) -> None:
        self.before = self._snapshot()

    @staticmethod
    def _snapshot():
        shm = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
        spill = {p.name for p in Path(tempfile.gettempdir()).glob("repro-spill-*")}
        return shm, spill

    def leaks(self) -> List[str]:
        shm, spill = self._snapshot()
        found = [f"/dev/shm/{name}" for name in sorted(shm - self.before[0])]
        found += [f"spill dir {name}" for name in sorted(spill - self.before[1])]
        multiprocessing.active_children()  # reaps the workers that have exited
        found += [f"child process {pid} ({command})" for pid, command in child_processes()]
        return found


def child_processes() -> List[Tuple[int, str]]:
    """Every process whose parent is this one, running or not yet reaped:
    shard workers, server children, and helpers the interpreter started."""
    own = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
            command = Path(f"/proc/{entry}/cmdline").read_text().replace("\0", " ").strip()
        except OSError:  # gone between the listing and the read
            continue
        # "pid (comm) state ppid ...": comm may hold spaces and brackets.
        if int(stat[stat.rindex(")") + 2:].split()[1]) == own:
            found.append((int(entry), command or "defunct"))
    return found


def stop_resource_tracker() -> None:
    """Stop and reap ``multiprocessing``'s resource tracker.

    Exporting the graph to shared memory starts it as a child of this
    process, and left alone it exits only some time after we do — a process
    of ours still running once the benchmark has returned.  Every engine is
    closed by now, so nothing is left for it to track.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def hwm_kb(pid: int) -> int:
    """A live process's resident high-water mark (``VmHWM``)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(child_pids: Sequence[int]) -> float:
    """Runner + its live children; call before the children are reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + sum(hwm_kb(pid) for pid in child_pids)) / 1024.0


# -------------------------------------------------------------- fingerprint
def fingerprint(args, sizes) -> Dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "mode": "quick" if args.quick else "full",
        "sizes": dataclasses.asdict(sizes),
        "open_rates": list(OPEN_RATES),
        "open_limit_ms": OPEN_LIMIT_MS,
        "repro_env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
    }


# ------------------------------------------------------- measuring in-process
def measure_rounds(run_round, seconds: float, min_rounds: int) -> List[Round]:
    rounds: List[Round] = []
    begin = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - begin < seconds:
        gc.collect()
        rounds.append(run_round())
    return rounds


def run_inprocess(workload: InProcess, args):
    tracer = workload.tracer
    setup_times = []
    engine = None
    with tracer.patched() if args.trace else contextlib.nullcontext():
        try:
            # Set-up spans (load, transform, the warm pass) land in the trace.
            tracer.enabled = bool(args.trace)
            for _ in range(1 if args.trace else SETUP_REPEATS):
                if engine is not None:
                    engine.close()
                    engine = None
                gc.collect()
                begin = time.perf_counter()
                dataset, engine = workload.build()
                setup_times.append(time.perf_counter() - begin)
            begin = time.perf_counter()
            with tracer.span("warm"):
                workload.warm(dataset, engine)
            warm_s = time.perf_counter() - begin
            tracer.enabled = False
            oracle = workload.make_oracle(dataset)
            if args.trace:
                return trace_inprocess(workload, dataset, engine, oracle, args)
            rounds = measure_rounds(
                lambda: workload.run_round(dataset, engine, oracle),
                args.seconds, workload.sizes.min_rounds,
            )
            peak = peak_rss_mb([p.pid for p in multiprocessing.active_children()])
        finally:
            if engine is not None:
                engine.close()
    return (end_to_end(rounds, statistics.median(setup_times) + warm_s, peak), *totals(rounds))


# ------------------------------------------------------------ traced in-process
def replay_matcher(solver, plans) -> Dict[str, float]:
    """Matcher-level counters of the plans' components, regions uncached.

    Runs each component through a fresh ``TurboMatcher`` the way the solver
    does on a cold region cache and reads ``MatchStatistics``: how many
    regions exploration built, how large, how many of them held a solution
    (their start vertex shows up in one), and search calls per solution.
    """
    matcher = TurboMatcher(solver.graph, solver.config)
    regions = vertices = useful = recursions = solutions = 0
    for plan in {id(plan): plan for plan in plans}.values():
        for alternative in plan.alternatives:
            for component in alternative.components:
                prepared = component.prepared
                starts = set()
                for batch in matcher.iter_match_batches(
                    component.query, component.pushdown, prepared=prepared
                ):
                    if prepared.tree is not None:
                        starts.update(batch.columns[prepared.start_vertex])
                stats = matcher.last_statistics
                regions += stats.candidate_regions
                vertices += stats.region_vertices
                recursions += stats.search.recursions
                solutions += stats.solutions
                useful += len(starts)
    return {
        "explore.regions": regions,
        "explore.region_vertices": vertices,
        "explore.useful_ratio": useful / regions if regions else 0.0,
        "search.calls_per_solution": recursions / solutions if solutions else 0.0,
    }


def counter_delta(after: dict, before: dict, section: str, key: str) -> float:
    return float(
        (after.get(section) or {}).get(key, 0) - (before.get(section) or {}).get(key, 0)
    )


def ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(self_ms: Dict[str, float], ops: int, rounds: int,
                  after: dict, before: dict) -> Dict[str, float]:
    """Layer times as mean ms per op, counters per round.

    ``self_ms`` is :meth:`Tracer.self_times` over the traced rounds;
    ``after`` / ``before`` are ``engine.stats()`` around them.
    """
    def per_op(name: str) -> float:
        return self_ms.get(name, 0.0) / ops

    def delta(section: str, key: str) -> float:
        return counter_delta(after, before, section, key)

    kernels = sum(per_op(kernel) for kernel in KERNELS)
    metrics = {
        "op.ms": sum(per_op(name) for name in IN_OP),
        "parse.ms": per_op("parse"),
        "plan.compile_ms": per_op("compile"),
        "plan.lookup_ms": per_op("plan"),
        "explore.ms": per_op("explore"),
        "search.ms": per_op("solve"),
        "result_set.ms": per_op("result_set"),
        "decode.ms": per_op("decode"),
        # Everything the drain spent that was not parse, plan or solve ...
        "operators.total_ms": per_op("query_batches") + kernels,
        # ... of which this much belongs to no kernel: the op's own frames.
        "unattributed.ms": per_op("op") + per_op("query_batches"),
        "plan.hit_ratio": ratio(delta("plan_cache", "hits"), delta("plan_cache", "misses")),
        "plan.evictions": delta("plan_cache", "evictions") / rounds,
        "region_cache.hit_ratio": ratio(
            delta("region_cache", "hits"), delta("region_cache", "misses")
        ),
        "region_cache.bytes": float((after.get("region_cache") or {}).get("bytes", 0)),
        "region_cache.evictions": delta("region_cache", "evictions") / rounds,
        "region_cache.admission_rejects": delta("region_cache", "admission_rejects") / rounds,
        "search.solutions": delta("pipeline", "solutions") / rounds,
    }
    for kernel in KERNELS:
        metrics[f"operators.{kernel}_ms"] = per_op(kernel)
    for key in ("spilled_partitions", "repartitions", "join_fallbacks",
                "groups_emitted", "path_rows_emitted"):
        metrics[f"operators.{key}"] = delta("operators", key) / rounds
    for key in ("hits", "misses", "bfs_fallbacks", "closure_hits"):
        metrics[f"path_index.{key}"] = delta("path_index", key) / rounds
    for key in ("ring_batches", "queue_batches", "shm_bytes"):
        metrics[f"transport.{key}"] = delta("transport", key) / rounds
    if self_ms.get("decode"):
        metrics["decode.rows_per_s"] = delta("operators", "rows_decoded") / (
            self_ms["decode"] / 1e3
        )
    if self_ms.get("solve"):
        metrics["search.solutions_per_s"] = delta("pipeline", "solutions") / (
            self_ms["solve"] / 1e3
        )
    return metrics


def traced_rounds(workload: InProcess, dataset, engine, oracle, count: int):
    """``count`` rounds under spans; ``(rounds, self times, plans, stats delta)``."""
    tracer = workload.tracer
    plans: list = []
    first = len(tracer.spans)
    before = engine.stats()
    tracer.enabled = True
    try:
        with tracer.patched_solver(engine.bgp_solver(), plans):
            rounds = [
                workload.run_round(
                    dataset, engine, oracle, lambda e, text: traced_query(tracer, e, text)
                )
                for _ in range(count)
            ]
    finally:
        tracer.enabled = False
    ops = sum(len(r.latency_ms) for r in rounds)
    metrics = layer_metrics(tracer.self_times(first), ops, count, engine.stats(), before)
    return rounds, metrics, plans


def trace_inprocess(workload: InProcess, dataset, engine, oracle, args):
    tracer = workload.tracer
    sizes = workload.sizes
    metrics = {name: 0.0 for name in PER_LAYER_NAMES}
    setup_ms = tracer.self_times()
    metrics["load.transform_ms"] = setup_ms.get("transform", 0.0)
    metrics["load.engine_ms"] = setup_ms.get("load", 0.0) + setup_ms.get("transform", 0.0)
    # Self times of a span range add up to the time its top-level spans
    # cover: here the load and the warm pass, generation excluded.
    setup_covered_ms = sum(setup_ms.values())
    if isinstance(workload, LubmCold):
        base, rounds = trace_cold(workload, dataset, oracle, args, metrics)
    else:
        base = measure_rounds(
            lambda: workload.run_round(dataset, engine, oracle),
            args.seconds / 4, min(2, sizes.min_rounds),
        )
        count = min(TRACED_ROUNDS, sizes.min_rounds)
        rounds, layers, plans = traced_rounds(workload, dataset, engine, oracle, count)
        metrics.update(layers)
        if isinstance(workload, Shards):
            trace_transport(workload, dataset, oracle, metrics, count, setup_covered_ms)
        else:
            metrics.update(replay_matcher(engine.bgp_solver(), plans))
        if isinstance(workload, Operators):
            metrics["path_index.build_ms"] = path_index_build_ms(engine.bgp_solver())
    metrics.update(untraced_layer_metrics(base, workload.lubm_queries))
    metrics["trace.overhead_ratio"] = metrics["op.ms"] / statistics.mean(
        ms for r in base for ms in r.latency_ms
    )
    dump_trace(tracer, workload.name, args)
    return (metrics, *totals([*base, *rounds]))


def trace_cold(workload: LubmCold, dataset, oracle, args, metrics):
    """Cold cycles under spans; engine counters are summed over the cycles."""
    tracer = workload.tracer
    base = measure_rounds(
        lambda: workload.run_round(dataset, None, oracle), args.seconds / 4, 1
    )
    summed: Dict[str, Dict[str, float]] = {}
    replay: Dict[str, float] = {}

    @contextlib.contextmanager
    def around_queries(engine):
        plans: list = []
        with tracer.patched_solver(engine.bgp_solver(), plans):
            yield
        for section, values in engine.stats().items():
            if isinstance(values, dict):
                bucket = summed.setdefault(section, {})
                for key, value in values.items():
                    if isinstance(value, (int, float)):
                        bucket[key] = bucket.get(key, 0) + value
        if not replay:
            tracer.enabled = False
            replay.update(replay_matcher(engine.bgp_solver(), plans))
            tracer.enabled = True

    cycles = workload.sizes.cold_cycles
    measured = Round()
    first = len(tracer.spans)
    tracer.enabled = True
    try:
        for _ in range(cycles):
            workload.run_cycle(
                dataset, oracle, measured,
                lambda e, text: traced_query(tracer, e, text), around_queries,
            )
    finally:
        tracer.enabled = False
    self_ms = tracer.self_times(first)
    metrics.update(layer_metrics(self_ms, len(measured.latency_ms), cycles, summed, {}))
    metrics["region_cache.bytes"] /= cycles  # a level, not a counter
    metrics.update(replay)
    # Per load, not per op: every cycle loads once.
    metrics["load.transform_ms"] = self_ms.get("transform", 0.0) / cycles
    metrics["load.engine_ms"] = (
        self_ms.get("load", 0.0) + self_ms.get("transform", 0.0)
    ) / cycles
    return base, [measured]


def trace_transport(workload: Shards, dataset, oracle, metrics, count: int,
                    shards_setup_ms: float) -> None:
    """Transport = the processes engine's solve time − a sequential engine's.

    A second engine at defaults (threads, 1 worker) runs the same ops in
    this process: its solve self time is the matching work alone, and its
    load + warm pass is set-up without the pool start, the shared-memory
    export and the plan shipping (the pool is built by the first query).
    """
    tracer = workload.tracer
    sequential = LubmWarm(workload.sizes, workload.rng, tracer, ops=workload.ops)
    first = len(tracer.spans)
    tracer.enabled = True
    engine = sequential.new_engine(dataset)
    try:
        with tracer.span("warm"):
            sequential.warm(dataset, engine)
        tracer.enabled = False
        setup_ms = sum(tracer.self_times(first).values())
        _, layers, plans = traced_rounds(sequential, dataset, engine, oracle, count)
        metrics["transport.ms"] = metrics["search.ms"] - layers["search.ms"]
        metrics["load.shm_export_ms"] = shards_setup_ms - setup_ms
        for name in ("search.ms", "search.solutions_per_s", "explore.ms"):
            metrics[name] = layers[name]
        metrics.update(replay_matcher(engine.bgp_solver(), plans))
    finally:
        engine.close()


def path_index_build_ms(solver) -> float:
    """Build the ``ub:subOrganizationOf`` reachability index in a fresh manager."""
    label = solver.path_resolver().edge_label(
        IRI("http://swat.cse.lehigh.edu/onto/univ-bench.owl#subOrganizationOf")
    )
    manager = PathIndexManager(solver.graph, solver.path_manager.budget_bytes)
    try:
        begin = time.perf_counter()
        manager.index_for(label)
        return (time.perf_counter() - begin) * 1e3
    finally:
        manager.close()


def dump_trace(tracer: Tracer, name: str, args) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"trace.{name}.json", {"workload": name, "seed": args.seed})


# ---------------------------------------------------------- serving workloads
class Serving:
    """HTTP workloads: the server child plus this process's load generators."""

    def __init__(self, name: str, sizes, rng: random.Random, tracer: Tracer):
        self.name = name
        self.sizes = sizes
        self.rng = rng
        self.tracer = tracer
        per_round = sizes.serve_requests if name == "serve_closed" else sizes.open_requests
        self.requests = serve_round(LUBM_QUERIES, per_round, rng)
        self.children: List[spine_serve.ServerChild] = []

    def setup(self) -> spine_serve.ServerChild:
        """Spawn the child (generation + load + listen), then one warm pass."""
        child = spine_serve.ServerChild(self.sizes.lubm_universities)
        self.children.append(child)
        port = child.wait_ready()
        warm = [(qid, text, fmt) for qid, text in LUBM_QUERIES.items() for fmt in ("json", "csv")]
        # Forward then backward, so each connection's share has every query.
        spine_serve.closed_loop(port, warm + warm[::-1], CONNECTIONS)
        return child

    def shuffled(self, count: Optional[int] = None) -> List[spine_serve.Request]:
        requests = list(self.requests)
        self.rng.shuffle(requests)
        if count is not None:
            requests = [requests[i % len(requests)] for i in range(count)]
        return requests

    @staticmethod
    def checked(responses, wall: float, oracle: Oracle) -> Round:
        """Parse and check every body, after the clock has stopped."""
        measured = Round()
        for response in responses:
            rows, ok = 0, response.status == 200
            if ok:
                rows, digest = answer_of_body(response.body, response.fmt)
                ok = oracle.matches(response.op_id, (rows, digest))
            measured.record(response.op_id, response.first_byte, response.latency, rows, ok)
        measured.busy_s = wall
        return measured

    def closed_round(self, port: int, oracle: Oracle) -> Round:
        return self.checked(*spine_serve.closed_loop(port, self.shuffled(), CONNECTIONS), oracle)

    def open_round(self, port: int, oracle: Oracle, rate: float, count: Optional[int] = None):
        responses, wall = spine_serve.open_loop(
            port, self.shuffled(count), rate, self.rng, CONNECTIONS
        )
        return self.checked(responses, wall, oracle), responses


def run_serving(workload: Serving, args):
    sizes = workload.sizes
    dataset = load_lubm(universities=sizes.lubm_universities)
    oracle = Oracle(dataset)
    for qid, text in LUBM_QUERIES.items():
        oracle.expect(qid, text)
    setup_times = []
    child = None
    try:
        for _ in range(1 if args.trace else SETUP_REPEATS):
            if child is not None:
                child.stop()
            begin = time.perf_counter()
            child = workload.setup()
            setup_times.append(time.perf_counter() - begin)
        if args.trace:
            return trace_serving(workload, child, dataset, oracle, args)
        if workload.name == "serve_closed":
            def run_round() -> Round:
                return workload.closed_round(child.port, oracle)
        else:
            def run_round() -> Round:
                return workload.open_round(child.port, oracle, OPEN_RATES[0])[0]
        rounds = measure_rounds(run_round, args.seconds, sizes.min_rounds)
        peak = peak_rss_mb([child.process.pid])
    finally:
        for spawned in workload.children:
            spawned.stop()
    return (end_to_end(rounds, statistics.median(setup_times), peak), *totals(rounds))


def open_sweep(workload: Serving, port: int, oracle, args, metrics) -> List[Round]:
    """One phase per fixed rate; a rate is ok when it meets the limit, loses
    nothing, and its backlog does not grow (the last third of the phase is
    sent no later than the first)."""
    rounds = []
    lates: List[float] = []
    share = args.seconds / len(OPEN_RATES)
    for index, rate in enumerate(OPEN_RATES, start=1):
        count = max(workload.sizes.open_requests // 2, int(rate * share))
        measured, responses = workload.open_round(port, oracle, rate, count)
        rounds.append(measured)
        p95 = percentile(measured.latency_ms, 0.95)
        failed = measured.failed / measured.attempted
        metrics[f"open.r{index}.latency_ms_p95"] = p95
        metrics[f"open.r{index}.failed_share"] = failed
        late_ms = [r.late * 1e3 for r in sorted(responses, key=lambda r: r.due)]
        lates.extend(late_ms)
        third = max(1, len(late_ms) // 3)
        growing = statistics.mean(late_ms[-third:]) - statistics.mean(late_ms[:third]) > 10.0
        if p95 <= OPEN_LIMIT_MS and failed == 0.0 and not growing:
            metrics["open.max_rate_ok"] = rate
    metrics["generator.late_ms_p95"] = percentile(lates, 0.95)
    return rounds


def trace_serving(workload: Serving, child, dataset, oracle, args):
    metrics = {name: 0.0 for name in PER_LAYER_NAMES}
    before = child.stats()
    if workload.name == "serve_closed":
        http_rounds = [workload.closed_round(child.port, oracle) for _ in range(2)]
    else:
        http_rounds = open_sweep(workload, child.port, oracle, args, metrics)
    after = child.stats()

    # The same mix in this process: layer spans, serializers, and the base
    # against which the server's own overhead is read.
    tracer = workload.tracer
    local = LubmWarm(
        workload.sizes, workload.rng, tracer,
        ops=[(qid, text) for qid, text, _ in workload.requests],
    )
    with tracer.patched():
        engine = local.new_engine(dataset)
        try:
            local.warm(dataset, engine)
            base = measure_rounds(lambda: local.run_round(dataset, engine, oracle), 0.0, 2)
            _, layers, plans = traced_rounds(local, dataset, engine, oracle, 1)
            metrics.update(layers)
            metrics.update(replay_matcher(engine.bgp_solver(), plans))
            metrics.update(serialize_metrics(engine, workload.requests))
            in_process_ms = statistics.median(
                serialized_ms(engine, text, fmt) for _, text, fmt in workload.requests
            )
        finally:
            engine.close()
    metrics["trace.overhead_ratio"] = metrics["op.ms"] / statistics.mean(
        ms for r in base for ms in r.latency_ms
    )

    # What the server child itself counted while the HTTP rounds ran.
    for key, name in (("admitted", "admitted"), ("rejected", "rejected"), ("timed_out", "timeouts")):
        metrics[f"scheduler.{name}"] = counter_delta(after, before, "scheduler", key)
    served = (after.get("engine") or {}, before.get("engine") or {})
    for name, section in (("plan", "plan_cache"), ("region_cache", "region_cache")):
        metrics[f"{name}.hit_ratio"] = ratio(
            counter_delta(*served, section, "hits"), counter_delta(*served, section, "misses")
        )
    # Latencies of the closed loop come from both rounds, those of the open
    # loop from the R1 phase only: R3 is overloaded on purpose.
    unloaded = http_rounds if workload.name == "serve_closed" else http_rounds[:1]
    metrics.update(untraced_layer_metrics(unloaded, lubm_queries=True))
    metrics["server.overhead_ms"] = (
        percentile([ms for r in unloaded for ms in r.latency_ms], 0.50) - in_process_ms
    )
    attempted, failed = totals(http_rounds)
    metrics["failed_share"] = failed / attempted
    dump_trace(tracer, workload.name, args)
    return (metrics, *totals(http_rounds))


def serialized_ms(engine, text: str, fmt: str) -> float:
    """What the server does per request, without the server."""
    begin = time.perf_counter()
    with engine.query_batches(text) as stream:
        b"".join(SERIALIZERS[fmt](stream.variables, stream))
    return (time.perf_counter() - begin) * 1e3


def serialize_metrics(engine, requests) -> Dict[str, float]:
    """Serializer time over pre-drained batches, mean ms per request of the mix."""
    drained = {}
    spent = {"json": 0.0, "csv": 0.0}
    counts = {"json": 0, "csv": 0}
    size = 0
    for qid, text, fmt in requests:
        if qid not in drained:
            stream = engine.query_batches(text)
            drained[qid] = (stream.variables, list(stream))
        variables, batches = drained[qid]
        begin = time.perf_counter()
        size += sum(len(chunk) for chunk in SERIALIZERS[fmt](variables, iter(batches)))
        spent[fmt] += time.perf_counter() - begin
        counts[fmt] += 1
    return {
        "serialize.json_ms": spent["json"] * 1e3 / max(1, counts["json"]),
        "serialize.csv_ms": spent["csv"] * 1e3 / max(1, counts["csv"]),
        "serialize.bytes_per_s": size / (spent["json"] + spent["csv"]),
    }


# ---------------------------------------------------------------------- main
def regenerate_expected(args) -> None:
    """Record the engine's answers to the golden-only queries, per size."""
    for sizes in SIZES.values():
        workload = Operators(sizes, random.Random(args.seed), Tracer())
        dataset = workload.load_dataset()
        engine = workload.new_engine(dataset)
        try:
            answers = {
                qid: answer_of_result(engine.query(OPERATOR_QUERIES[qid]))
                for qid in GOLDEN_ONLY
            }
        finally:
            engine.close()
        print(write_goldens(workload.golden_name(), dataset.total_triples, answers))


def run_workload(args) -> int:
    sizes = SIZES["quick" if args.quick else "full"]
    rng = random.Random(f"{args.workload}:{args.seed}")
    hygiene = Hygiene()
    try:
        if args.workload in IN_PROCESS:
            workload = IN_PROCESS[args.workload](sizes, rng, Tracer())
            metrics, attempted, failed = run_inprocess(workload, args)
        else:
            workload = Serving(args.workload, sizes, rng, Tracer())
            metrics, attempted, failed = run_serving(workload, args)
    finally:
        # Engines and server children are gone (their own ``finally``s).
        stop_resource_tracker()
    # A leak fails this workload here, not the next one silently.
    leaks = hygiene.leaks()
    for leak in leaks:
        print(f"LEAK after {args.workload}: {leak}", file=sys.stderr)

    declared = PER_LAYER if args.trace else [(n, u, b) for n, u, b, _ in END_TO_END]
    stamp = fingerprint(args, sizes)
    print(f"# {args.workload} trace={args.trace} attempted={attempted} failed={failed} "
          f"failed_share={failed / attempted:.4f}")
    for key, value in stamp.items():
        print(f"# {key}: {value}")
    for name, unit, _ in declared:
        print(f"{args.workload:15s} {name:34s} {metrics[name]:18.4f} {unit}")
    correct = failed == 0 and not leaks
    record = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in declared},
    }
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps(
                {"workload": args.workload, "trace": args.trace, "fingerprint": stamp, **record}
            ) + "\n")
    print(json.dumps(record))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own process."""
    status = 0
    for name in WORKLOADS:
        for trace in ((0, 1) if args.trace else (0,)):
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            command += ["--quick"] if args.quick else []
            command += ["--allow-env"] if args.allow_env else []
            command += ["--out", args.out] if args.out else []
            status |= subprocess.run(command).returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="tiny sizes, same code path")
    parser.add_argument("--out", help="append one JSON record per run to this file")
    parser.add_argument("--allow-env", action="store_true", help="run although REPRO_* is set")
    parser.add_argument("--regenerate-expected", action="store_true")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else 8.0
    knobs = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if knobs and not args.allow_env:
        sys.exit(f"run.py: {', '.join(knobs)} set; the numbers are for defaults "
                 "(pass --allow-env to measure anyway)")
    if args.regenerate_expected:
        regenerate_expected(args)
        return 0
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
