"""Spans recorded from outside the program, around calls into each layer.

The traced run swaps the names through which one layer calls the next
(``repro.engine.base.parse_sparql``, the kernels ``pipeline.py`` imports,
``turbo_engine.compile_query``, ...) for wrappers that record a span per
call — or, for a generator stage, per ``next()`` — and restores them
afterwards.  Nothing under ``src/`` changes; spans inside the program are
the ROADMAP's later tracing issue and will replace this table.

A span is ``[name, start_ms, end_ms, parent, op]``: ``parent`` indexes the
span that was open when this one began (-1 at the top), ``op`` numbers the
benchmark op that caused it.  A layer's *self time* is its spans' duration
minus the part their child spans cover, so layers nest without counting
anything twice.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (module, attribute, span name, kind).  ``call`` wraps a plain function;
#: ``iter`` wraps a function returning a batch stream, recording one span
#: for the call and one per ``next()``.  The module is where the *caller*
#: looks the name up, which is what makes the wrapper see real traffic.
PATCHES: List[Tuple[str, str, str, str]] = [
    ("repro.engine.base", "parse_sparql", "parse", "call"),
    ("repro.engine.turbo_engine", "compile_query", "compile", "call"),
    ("repro.engine.turbo_engine", "type_aware_transform", "transform", "call"),
    ("repro.engine.turbo_engine", "TurboEngine.load", "load", "call"),
    ("repro.matching.turbo", "explore_candidate_region", "explore", "call"),
    ("repro.engine.operators.pipeline", "batch_hash_join", "join", "iter"),
    ("repro.engine.operators.pipeline", "batch_left_outer_join", "join", "iter"),
    ("repro.engine.operators.pipeline", "batch_aggregate", "aggregate", "iter"),
    ("repro.engine.operators.pipeline", "batch_order_by", "sort", "iter"),
    ("repro.engine.operators.pipeline", "batch_distinct", "distinct", "iter"),
    ("repro.engine.operators.pipeline", "batch_path_apply", "path", "iter"),
    ("repro.engine.operators.pipeline", "batch_filter", "filter", "iter"),
]


class Tracer:
    """In-memory span recorder for the thread that created it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._thread = threading.get_ident()
        # Forked shard workers inherit the wrappers; they must not record.
        self._pid = os.getpid()
        self._origin = time.perf_counter()
        self.op = -1
        self.enabled = False

    # ------------------------------------------------------------ recording
    def _begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op])
        self._stack.append(index)
        self.spans[index][1] = (time.perf_counter() - self._origin) * 1e3
        return index

    def _end(self, index: int) -> None:
        self.spans[index][2] = (time.perf_counter() - self._origin) * 1e3
        self._stack.pop()

    def _recording(self) -> bool:
        return (
            self.enabled
            and threading.get_ident() == self._thread
            and os.getpid() == self._pid
        )

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self._recording():
            yield
            return
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def wrap_call(self, name: str, function: Callable) -> Callable:
        def traced_call(*args, **kwargs):
            if not self._recording():
                return function(*args, **kwargs)
            index = self._begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                self._end(index)

        return traced_call

    def wrap_iter(self, name: str, function: Callable) -> Callable:
        def traced_stream(*args, **kwargs):
            if not self._recording():
                return function(*args, **kwargs)
            index = self._begin(name)
            try:
                stream = iter(function(*args, **kwargs))
            finally:
                self._end(index)
            return self._pull(name, stream)

        return traced_stream

    def _pull(self, name: str, stream: Iterator) -> Iterator:
        try:
            while True:
                index = self._begin(name)
                try:
                    item = next(stream)
                except StopIteration:
                    return
                finally:
                    self._end(index)
                yield item
        finally:
            close = getattr(stream, "close", None)
            if close is not None:
                close()

    # ------------------------------------------------------------- patching
    @contextmanager
    def patched(self) -> Iterator[None]:
        """Install every wrapper of :data:`PATCHES`; restore on exit."""
        undo = []
        try:
            for module_name, attribute, name, kind in PATCHES:
                owner = importlib.import_module(module_name)
                *path, attribute = attribute.split(".")
                for part in path:  # a method: patch it on its class
                    owner = getattr(owner, part)
                original = getattr(owner, attribute)
                wrap = self.wrap_call if kind == "call" else self.wrap_iter
                setattr(owner, attribute, wrap(name, original))
                undo.append((owner, attribute, original))
            yield
        finally:
            for owner, attribute, original in undo:
                setattr(owner, attribute, original)

    @contextmanager
    def patched_solver(self, solver, plans: list) -> Iterator[None]:
        """Wrap one solver's ``plan`` / ``solve_batches`` (instance attributes).

        Every plan the solver hands out is appended to ``plans`` so the
        matcher-level replay can run the same components.
        """
        plan, solve = solver.plan, solver.solve_batches
        traced_plan = self.wrap_call("plan", plan)

        def recording_plan(*args, **kwargs):
            result = traced_plan(*args, **kwargs)
            plans.append(result)
            return result

        solver.plan = recording_plan
        solver.solve_batches = self.wrap_iter("solve", solve)
        try:
            yield
        finally:
            del solver.plan
            del solver.solve_batches

    # ------------------------------------------------------------ reporting
    def self_times(self, first: int = 0, last: Optional[int] = None) -> Dict[str, float]:
        """Milliseconds of self time per span name over ``spans[first:last]``."""
        spans = self.spans[first:last]
        covered = defaultdict(float)
        for _, start, end, parent, _ in spans:
            if parent >= first:
                covered[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for offset, (name, start, end, _, _) in enumerate(spans):
            totals[name] += (end - start) - covered.get(first + offset, 0.0)
        return dict(totals)

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    **header,
                    "span_fields": ["name", "start_ms", "end_ms", "parent", "op"],
                    "spans": self.spans,
                },
                handle,
            )
