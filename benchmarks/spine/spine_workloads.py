"""The spine's registry: workload names, metric names, sizes and op lists.

Everything a later issue may cite by name lives here — the seven workloads,
the end-to-end metrics with their bounds and the per-layer metrics — and
``BENCHMARK.json`` / ``README.md`` must agree with it
(``test_spine_schema.py`` checks).  The module builds inputs only; it never
times anything.

The datasets are fixed (the generators' default data seeds) so committed
goldens stay valid and runs of different ``--seed`` measure the same data;
``--seed`` drives what the engine *receives*: the order of every round's op
list, the BSBM template constants and the open-loop arrival times.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

# --------------------------------------------------------------------- names
#: name → why the workload exists (one line; BENCHMARK.json carries the same).
WORKLOADS: Dict[str, str] = {
    "lubm_warm": (
        "paper protocol: 14 LUBM queries, warm plan and region caches; "
        "search and decode do the work, explore/plan/transport bypassed"
    ),
    "lubm_cold": (
        "same queries, each op in a fresh engine: the miss path (transform, "
        "compile, explore, region store) that lubm_warm bypasses"
    ),
    "bsbm_templates": (
        "BSBM Q1-Q12 with Zipf-drawn constants, >128 distinct plans: "
        "parse, plan compile and tiny-region explore dominate"
    ),
    "operators": (
        "cheap BGPs under OPTIONAL/UNION/GROUP BY/ORDER BY/DISTINCT/FILTER/"
        "paths: engine.operators and graph.reachability do the work"
    ),
    "shards": (
        "large-answer LUBM queries on 2 worker processes: same matching as "
        "lubm_warm, so the difference is shard transport"
    ),
    "serve_closed": (
        "HTTP closed loop, 2 keep-alive connections, Zipf LUBM mix, JSON/CSV: "
        "server, scheduler bridge and serializers dominate"
    ),
    "serve_open": (
        "HTTP open loop, Poisson arrivals at fixed rates, latency from due "
        "time: the only workload where waiting for the server shows"
    ),
}

#: Workloads the runner has and ``BENCHMARK.json`` does not list, so that the
#: driver neither runs nor gates them.  At 18 % load an open loop on this box
#: times wake-ups and how many of the 35 ms requests happen to overlap: over
#: six sets of ten seeds its ``latency_ms_p95`` spread 15-38 % of its median
#: (25 % is the widest bound the contract allows; every other workload stays
#: under 10 % while the box is quiet), whichever way rounds were pooled.
UNGATED = ("serve_open",)

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before it counts as a regression.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("queries_per_s", "1/s", "higher", 0.25),
    ("rows_per_s", "1/s", "higher", 0.25),
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("latency_ms_p95", "ms", "lower", 0.25),
    ("first_batch_ms_p50", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: LUBM query ids, in the paper's Table 3 order.
LUBM_IDS = [f"Q{i}" for i in range(1, 15)]

#: (name, unit, better).  Every ``*.ms`` / ``*_ms`` layer time is mean
#: milliseconds per op of the traced rounds, so layers add up to ``op.ms``;
#: counters are per traced round.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("op.ms", "ms", "lower"),
    ("parse.ms", "ms", "lower"),
    ("plan.compile_ms", "ms", "lower"),
    ("plan.lookup_ms", "ms", "lower"),
    ("plan.hit_ratio", "ratio", "higher"),
    ("plan.evictions", "count", "lower"),
    ("load.transform_ms", "ms", "lower"),
    ("load.engine_ms", "ms", "lower"),
    ("load.shm_export_ms", "ms", "lower"),
    ("explore.ms", "ms", "lower"),
    ("explore.regions", "count", "lower"),
    ("explore.region_vertices", "count", "lower"),
    ("explore.useful_ratio", "ratio", "higher"),
    ("region_cache.hit_ratio", "ratio", "higher"),
    ("region_cache.bytes", "bytes", "lower"),
    ("region_cache.evictions", "count", "lower"),
    ("region_cache.admission_rejects", "count", "lower"),
    ("search.ms", "ms", "lower"),
    ("search.solutions", "count", "higher"),
    ("search.solutions_per_s", "1/s", "higher"),
    ("search.calls_per_solution", "ratio", "lower"),
    ("transport.ms", "ms", "lower"),
    ("transport.ring_batches", "count", "higher"),
    ("transport.queue_batches", "count", "lower"),
    ("transport.shm_bytes", "bytes", "lower"),
    ("operators.join_ms", "ms", "lower"),
    ("operators.aggregate_ms", "ms", "lower"),
    ("operators.sort_ms", "ms", "lower"),
    ("operators.distinct_ms", "ms", "lower"),
    ("operators.path_ms", "ms", "lower"),
    ("operators.filter_ms", "ms", "lower"),
    ("operators.total_ms", "ms", "lower"),
    ("operators.spilled_partitions", "count", "lower"),
    ("operators.repartitions", "count", "lower"),
    ("operators.join_fallbacks", "count", "lower"),
    ("operators.groups_emitted", "count", "higher"),
    ("operators.path_rows_emitted", "count", "higher"),
    ("path_index.build_ms", "ms", "lower"),
    ("path_index.hits", "count", "higher"),
    ("path_index.misses", "count", "lower"),
    ("path_index.bfs_fallbacks", "count", "lower"),
    ("path_index.closure_hits", "count", "higher"),
    ("decode.ms", "ms", "lower"),
    ("decode.rows_per_s", "1/s", "higher"),
    ("result_set.ms", "ms", "lower"),
    ("serialize.json_ms", "ms", "lower"),
    ("serialize.csv_ms", "ms", "lower"),
    ("serialize.bytes_per_s", "B/s", "higher"),
    ("server.overhead_ms", "ms", "lower"),
    ("scheduler.admitted", "count", "higher"),
    ("scheduler.rejected", "count", "lower"),
    ("scheduler.timeouts", "count", "lower"),
    ("open.r1.latency_ms_p95", "ms", "lower"),
    ("open.r2.latency_ms_p95", "ms", "lower"),
    ("open.r3.latency_ms_p95", "ms", "lower"),
    ("open.r1.failed_share", "ratio", "lower"),
    ("open.r2.failed_share", "ratio", "lower"),
    ("open.r3.failed_share", "ratio", "lower"),
    ("open.max_rate_ok", "1/s", "higher"),
    ("generator.late_ms_p95", "ms", "lower"),
    *[(f"query.{qid}.ms_p50", "ms", "lower") for qid in LUBM_IDS],
    ("latency_ms_p99", "ms", "lower"),
    ("failed_share", "ratio", "lower"),
    ("unattributed.ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


# --------------------------------------------------------------------- sizes
@dataclass(frozen=True)
class Sizes:
    """Working-set sizes of one mode (``full`` is what the numbers are for)."""

    lubm_universities: int
    cold_universities: int
    bsbm_products: int
    #: Times each distinct query repeats inside one round's shuffled op list.
    warm_repeats: int
    operators_repeats: int
    shards_repeats: int
    #: Cold cycles per round (each = new engine, load, 14 queries, close).
    cold_cycles: int
    #: How many times the BSBM weight table is instantiated per round.
    bsbm_repeats: int
    #: HTTP requests per round: closed loop, open loop (a round at R1 has to
    #: stay under two seconds for five of them to fit a run).
    serve_requests: int
    open_requests: int
    min_rounds: int


SIZES = {
    # LUBM(40) = 97,968 triples after inference; LUBM(10) = 24,387;
    # BSBM(2000) = 94,147.
    "full": Sizes(40, 10, 2000, 15, 23, 20, 6, 5, 160, 64, 5),
    "quick": Sizes(2, 1, 100, 2, 2, 2, 2, 1, 40, 30, 2),
}

#: Open-loop arrival rates (requests/s): about 18 / 50 / 104 % of the
#: ``serve_closed`` throughput measured on the box this PR was written on
#: (222 requests/s), frozen so later commits face the same offered load.
#: End-to-end metrics of ``serve_open`` are taken at R1: the server runs
#: queries under one GIL, so at R2 a tenth of the requests (the 35 ms class)
#: delay a fifth of the others and p95 swings by a quarter from run to run;
#: at R1 it repeats within 6 %.  R2 and R3 show in the traced sweep.
OPEN_RATES = (40.0, 110.0, 230.0)
#: The latency limit a rate must meet: p95 from due time, milliseconds.
OPEN_LIMIT_MS = 75.0
#: Connections of both HTTP load generators (``nproc`` is 2).
CONNECTIONS = 2

# ------------------------------------------------------------------- queries
_LUBM_PREFIXES = """\
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
"""

#: Bench-owned LUBM queries whose BGPs are cheap and whose algebra is not.
#: Sort keys are unique (e-mail addresses), so ORDER BY ... LIMIT has one
#: answer; the two path queries are checked against committed goldens
#: because no baseline engine evaluates transitive paths.
OPERATOR_QUERIES: Dict[str, str] = {
    "optional": _LUBM_PREFIXES + """
SELECT ?x ?d WHERE {
  ?x rdf:type ub:FullProfessor .
  OPTIONAL { ?x ub:headOf ?d . }
}""",
    "union": _LUBM_PREFIXES + """
SELECT ?x ?d WHERE {
  ?x ub:headOf ?d .
  { ?x rdf:type ub:FullProfessor . } UNION { ?x rdf:type ub:Chair . }
}""",
    "group_count": _LUBM_PREFIXES + """
SELECT ?y (COUNT(?x) AS ?n) WHERE {
  ?x rdf:type ub:GraduateStudent .
  ?x ub:advisor ?y .
} GROUP BY ?y""",
    "group_distinct": _LUBM_PREFIXES + """
SELECT ?d (COUNT(DISTINCT ?c) AS ?n) WHERE {
  ?x rdf:type ub:GraduateStudent .
  ?x ub:memberOf ?d .
  ?x ub:takesCourse ?c .
} GROUP BY ?d""",
    "order_limit": _LUBM_PREFIXES + """
SELECT ?x ?e WHERE {
  ?x rdf:type ub:FullProfessor .
  ?x ub:emailAddress ?e .
} ORDER BY ?e LIMIT 25""",
    "distinct": _LUBM_PREFIXES + """
SELECT DISTINCT ?y ?u WHERE {
  ?x ub:advisor ?y .
  ?y ub:doctoralDegreeFrom ?u .
}""",
    "filter_regex": _LUBM_PREFIXES + """
SELECT ?x ?e WHERE {
  ?x rdf:type ub:FullProfessor .
  ?x ub:emailAddress ?e .
  FILTER (REGEX(?e, "Professor[01]@Department[01][.]University[0-9]*7[.]edu"))
}""",
    "path_plus": _LUBM_PREFIXES + """
SELECT ?g ?o WHERE {
  ?g rdf:type ub:ResearchGroup .
  ?g ub:subOrganizationOf+ ?o .
}""",
    "path_star": _LUBM_PREFIXES + """
SELECT ?d ?o WHERE {
  ?d rdf:type ub:Department .
  ?d ub:subOrganizationOf* ?o .
}""",
}
#: Queries no baseline engine can answer (checked against goldens).
GOLDEN_ONLY = ("path_plus", "path_star")

#: The increasing-solution LUBM queries plus the two largest constant ones.
SHARD_IDS = ("Q2", "Q6", "Q9", "Q14", "Q8", "Q13")

#: Serving mix, hottest first; request counts follow Zipf(1.1) over this
#: rank order.  Point lookups lead (the first four are 68 % of requests).
#: Q9 and Q6, the slowest class over HTTP, sit at ranks 7-8 so that they are
#: 7.5 % of requests: p95 then falls in the lower half of their class —
#: their service time without queueing — instead of on the edge between
#: two classes, where a few lookups queued behind one would flip it.
SERVE_RANKS = (
    "Q1", "Q3", "Q5", "Q10", "Q9", "Q6", "Q11", "Q12", "Q13", "Q4",
    "Q7", "Q8", "Q14", "Q2",
)
ZIPF_EXPONENT = 1.1

#: BSBM template → copies per instantiation of the weight table.  Lookups
#: dominate by count (the median op is a point lookup with a cold plan);
#: the scan-shaped templates appear once so the tail stays the same class
#: of op every round (3.3 % scans, then 4.4 % Q4, so p95 sits inside Q4).
BSBM_WEIGHTS = {
    "Q1": 4, "Q2": 12, "Q3": 1, "Q4": 4, "Q5": 1, "Q6": 1,
    "Q7": 8, "Q8": 12, "Q9": 12, "Q10": 12, "Q11": 12, "Q12": 12,
}
_BSBM_WORDS = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
    "india", "juliet", "kilo", "lima", "mike", "november", "oscar", "papa",
)


def zipf_weights(count: int) -> List[float]:
    return [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(count)]


class BsbmTemplates:
    """Substitutes Zipf-drawn constants into the BSBM query texts.

    The popularity rank of every entity is a seeded permutation, so which
    products are hot depends on the seed but how hot they are does not.
    """

    def __init__(self, queries: Dict[str, str], products: int, profile, rng: random.Random):
        self.queries = queries
        self.features = profile.product_features
        self.types = profile.product_types
        domains = {
            "product": products,
            "offer": products * profile.offers_per_product,
            "review": products * profile.reviews_per_product,
        }
        self._ranked = {}
        for name, size in domains.items():
            ids = list(range(1, size + 1))
            rng.shuffle(ids)
            self._ranked[name] = (ids, zipf_weights(size))

    def _draw(self, rng: random.Random, domain: str) -> int:
        ids, weights = self._ranked[domain]
        return rng.choices(ids, weights=weights, k=1)[0]

    def instantiate(self, template: str, rng: random.Random) -> Tuple[str, str]:
        """One request: ``(op id, SPARQL text)`` with fresh constants."""
        product = self._draw(rng, "product")
        offer = self._draw(rng, "offer")
        review = self._draw(rng, "review")
        feature = rng.randrange(self.features)
        kind = rng.randrange(1, self.types)
        word = rng.choice(_BSBM_WORDS)
        constants = {"Product": product, "Offer": offer, "Review": review, "ProductType": kind}

        def constant(match) -> str:
            name, number = match.group(1), int(match.group(2))
            if name == "ProductFeature":
                # Feature2 / Feature3 of Q3 / Q4 stay distinct from Feature1.
                return f"inst:ProductFeature{(feature + number - 1) % self.features}"
            return f"inst:{name}{constants[name]}"

        text = re.sub(
            r"inst:(ProductFeature|ProductType|Product|Offer|Review)(\d+)\b",
            constant,
            self.queries[template],
        )
        text = text.replace('"alpha"', f'"{word}"')
        key = {
            "Q1": f"t{kind}f{feature}", "Q3": f"f{feature}", "Q4": f"f{feature}",
            "Q6": word, "Q9": f"r{review}", "Q11": f"o{offer}", "Q12": f"o{offer}",
        }.get(template, f"p{product}")
        return f"{template}:{key}", text


def bsbm_round(templates: BsbmTemplates, repeats: int, rng: random.Random) -> List[Tuple[str, str]]:
    """One round's op list: the weight table ``repeats`` times, shuffled."""
    ops = [
        templates.instantiate(template, rng)
        for _ in range(repeats)
        for template, copies in BSBM_WEIGHTS.items()
        for _ in range(copies)
    ]
    rng.shuffle(ops)
    return ops


def repeated_round(queries: Dict[str, str], repeats: int, rng: random.Random) -> List[Tuple[str, str]]:
    """Every query ``repeats`` times, shuffled."""
    ops = [(qid, text) for qid, text in queries.items() for _ in range(repeats)]
    rng.shuffle(ops)
    return ops


def serve_round(queries: Dict[str, str], requests: int, rng: random.Random) -> List[Tuple[str, str, str]]:
    """One round of HTTP requests: ``(op id, SPARQL text, format)``.

    Counts are the Zipf weights scaled to ``requests`` (at least one each),
    not random draws, so every round has the same share of each class of op
    and the tail percentiles land inside one class.
    """
    weights = zipf_weights(len(SERVE_RANKS))
    scale = requests / sum(weights)
    ops = [
        # Formats alternate within each query's copies, so how many of the
        # large answers go out as JSON does not depend on the shuffle.
        (qid, queries[qid], "json" if copy % 2 == 0 else "csv")
        for qid, weight in zip(SERVE_RANKS, weights)
        for copy in range(max(1, round(weight * scale)))
    ]
    rng.shuffle(ops)
    return ops
