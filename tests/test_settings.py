"""The integer settings: one parser behind every ``resolve_*`` knob.

Each of the six environment-backed settings goes through
:func:`repro.engine.base.resolve_int_setting`; the table below pins, per
setting, its environment variable, its default and its minimum, and the
tests check the shared contract on every row: an explicit value wins over
the environment, a blank variable means the default, and malformed or
too-small values raise :class:`EngineError` naming what was wrong.
"""

from __future__ import annotations

import pytest

from repro.engine.base import (
    EngineError,
    resolve_int_setting,
    resolve_join_memory_bytes,
    resolve_region_cache_bytes,
    resolve_worker_count,
)
from repro.engine.operators.context import DEFAULT_JOIN_MEMORY_BYTES
from repro.serving.scheduler import (
    DEFAULT_MAX_INFLIGHT,
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_TIMEOUT_MS,
    resolve_serve_max_inflight,
    resolve_serve_queue_depth,
    resolve_serve_timeout_ms,
)

REGION_DEFAULT = 1 << 20

#: (resolver, environment variable, default, minimum)
SETTINGS = [
    (
        lambda value=None: resolve_region_cache_bytes(value, REGION_DEFAULT),
        "REPRO_REGION_CACHE_BYTES", REGION_DEFAULT, 0,
    ),
    (resolve_join_memory_bytes, "REPRO_JOIN_MEMORY_BYTES", DEFAULT_JOIN_MEMORY_BYTES, 0),
    (resolve_worker_count, "REPRO_EXECUTION_WORKERS", 1, 1),
    (resolve_serve_max_inflight, "REPRO_SERVE_MAX_INFLIGHT", DEFAULT_MAX_INFLIGHT, 1),
    (resolve_serve_timeout_ms, "REPRO_SERVE_TIMEOUT_MS", DEFAULT_TIMEOUT_MS, 0),
    (resolve_serve_queue_depth, "REPRO_SERVE_QUEUE_DEPTH", DEFAULT_QUEUE_DEPTH, 0),
]

by_setting = pytest.mark.parametrize(
    "resolve, env, default, minimum", SETTINGS, ids=[row[1] for row in SETTINGS]
)


def _requirement(minimum: int) -> str:
    return "positive" if minimum > 0 else "non-negative"


@by_setting
def test_blank_env_means_the_default(monkeypatch, resolve, env, default, minimum):
    monkeypatch.delenv(env, raising=False)
    assert resolve() == default
    monkeypatch.setenv(env, "  ")
    assert resolve() == default


@by_setting
def test_env_applies_and_explicit_value_wins(monkeypatch, resolve, env, default, minimum):
    monkeypatch.setenv(env, f" {minimum + 3} ")
    assert resolve() == minimum + 3
    assert resolve(minimum + 5) == minimum + 5


@by_setting
def test_malformed_env_names_the_variable(monkeypatch, resolve, env, default, minimum):
    monkeypatch.setenv(env, "1.5")
    with pytest.raises(EngineError, match=env):
        resolve()
    monkeypatch.setenv(env, str(minimum - 1))
    with pytest.raises(EngineError, match=f"{env}.*{_requirement(minimum)}"):
        resolve()


@by_setting
def test_bad_explicit_values_are_rejected(monkeypatch, resolve, env, default, minimum):
    monkeypatch.delenv(env, raising=False)
    for bad in (minimum - 1, True, "4"):
        with pytest.raises(EngineError, match=_requirement(minimum)):
            resolve(bad)


def test_explicit_value_skips_a_malformed_env(monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTION_WORKERS", "many")
    assert resolve_int_setting(3, "REPRO_EXECUTION_WORKERS", 1, 1, "workers") == 3
