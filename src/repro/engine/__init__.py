"""SPARQL query engines built on the matching core and the baselines' solvers."""

from repro.engine.base import (
    Engine,
    BGPSolver,
    resolve_worker_count,
)
from repro.engine.cache_admission import (
    CountMinSketch,
    TinyLfuAdmission,
    make_admission_policy,
    resolve_cache_admission,
)
from repro.engine.plan import QueryPlan, compile_query
from repro.engine.plan_cache import PlanCache, bgp_fingerprint
from repro.engine.region_cache import RegionCache
from repro.engine.shard_executor import ShardExecutor
from repro.engine.turbo_engine import TurboHomEngine, TurboHomPPEngine, TurboEngine

__all__ = [
    "Engine",
    "BGPSolver",
    "CountMinSketch",
    "PlanCache",
    "TinyLfuAdmission",
    "make_admission_policy",
    "resolve_cache_admission",
    "RegionCache",
    "QueryPlan",
    "ShardExecutor",
    "TurboEngine",
    "TurboHomEngine",
    "TurboHomPPEngine",
    "bgp_fingerprint",
    "compile_query",
    "resolve_worker_count",
]
