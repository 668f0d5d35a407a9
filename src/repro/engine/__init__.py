"""SPARQL query engines built on the matching core and the baselines' solvers."""

from repro.engine.base import (
    Engine,
    BGPSolver,
    resolve_worker_count,
)
from repro.engine.plan import QueryPlan, compile_query
from repro.engine.plan_cache import PlanCache, bgp_fingerprint
from repro.engine.region_cache import RegionCache
from repro.engine.turbo_engine import TurboHomEngine, TurboHomPPEngine, TurboEngine

__all__ = [
    "Engine",
    "BGPSolver",
    "PlanCache",
    "RegionCache",
    "QueryPlan",
    "TurboEngine",
    "TurboHomEngine",
    "TurboHomPPEngine",
    "bgp_fingerprint",
    "compile_query",
    "resolve_worker_count",
]
