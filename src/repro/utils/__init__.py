"""Small shared utilities: timers, the sorted-window kernel, statistics."""

from repro.utils.intersect import (
    Window,
    as_window,
    intersect_windows,
    union_windows,
)
from repro.utils.timer import Timer, timed
from repro.utils.stats import geometric_mean, summarize

__all__ = [
    "Window",
    "as_window",
    "intersect_windows",
    "union_windows",
    "Timer",
    "timed",
    "geometric_mean",
    "summarize",
]
