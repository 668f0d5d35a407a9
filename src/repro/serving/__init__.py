"""Async SPARQL protocol serving: HTTP front-end, admission, streaming.

See :doc:`docs/serving` — :class:`SparqlServer` puts one loaded engine
behind ``GET/POST /sparql`` with content-negotiated streaming responses;
the :class:`QueryScheduler` bounds concurrency and enforces per-query
deadlines; :class:`ServerThread` embeds the whole loop in synchronous code.
"""

from repro.serving.scheduler import (
    DEFAULT_MAX_INFLIGHT,
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_TIMEOUT_MS,
    QueryScheduler,
    QueryTimeout,
    RunningQuery,
    SERVE_MAX_INFLIGHT_ENV,
    SERVE_QUEUE_DEPTH_ENV,
    SERVE_TIMEOUT_MS_ENV,
    ServerOverloaded,
    resolve_serve_max_inflight,
    resolve_serve_queue_depth,
    resolve_serve_timeout_ms,
)
from repro.serving.server import ServerThread, SparqlServer

__all__ = [
    "DEFAULT_MAX_INFLIGHT",
    "DEFAULT_QUEUE_DEPTH",
    "DEFAULT_TIMEOUT_MS",
    "QueryScheduler",
    "QueryTimeout",
    "RunningQuery",
    "SERVE_MAX_INFLIGHT_ENV",
    "SERVE_QUEUE_DEPTH_ENV",
    "SERVE_TIMEOUT_MS_ENV",
    "ServerOverloaded",
    "ServerThread",
    "SparqlServer",
    "resolve_serve_max_inflight",
    "resolve_serve_queue_depth",
    "resolve_serve_timeout_ms",
]
