"""Operator execution context: memory budgets, spill lifecycle, counters.

One :class:`OperatorContext` is shared by every operator of an engine (or,
for solver implementations without an engine, created lazily per solver).
It carries

* the **join memory budget** — the byte budget one hash join's build side
  may hold resident before it starts spilling victim partitions
  (``REPRO_JOIN_MEMORY_BYTES``; ``0`` disables spilling entirely);
* the **partition fan-out** of the hybrid hash join (an explicit
  ``join_partitions`` argument, else the fixed
  :data:`DEFAULT_JOIN_PARTITIONS`);
* the **spill directory** — created lazily on first spill, removed on
  :meth:`cleanup` (wired to ``TurboEngine.close()``) and, as a safety net,
  by a ``weakref.finalize`` hook so crashed workers cannot leak temp files
  past interpreter exit;
* the :class:`OperatorCounters` observability block surfaced through
  ``TurboEngine.stats()["operators"]``.
"""

from __future__ import annotations

import itertools
import os
import shutil
import tempfile
import weakref
from dataclasses import dataclass, fields
from typing import Dict, Optional

#: Default build-side byte budget of one hybrid hash join (64 MiB).
DEFAULT_JOIN_MEMORY_BYTES = 64 * 1024 * 1024

#: Default partition fan-out of the hybrid hash join's build side.
DEFAULT_JOIN_PARTITIONS = 16


@dataclass
class OperatorCounters:
    """Counters the operator kernels expose for tests and ``stats()``."""

    #: Partition-spill events (initial victims and recursive respills).
    spilled_partitions: int = 0
    #: Bytes written to spill files (build and probe sides).
    spilled_bytes: int = 0
    #: Recursive repartitioning passes over an oversized spilled partition.
    repartitions: int = 0
    #: Joins that abandoned the budget (depth bound hit or mixed key kinds).
    join_fallbacks: int = 0
    #: Groups emitted by the aggregation kernel.
    groups_emitted: int = 0
    #: Rows that crossed the ResultSet decode boundary.
    rows_decoded: int = 0
    #: Rows emitted by the property-path operator (both pipelines meter
    #: their shared pair kernel through the batch context).
    path_rows_emitted: int = 0

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy (the ``stats()["operators"]`` payload)."""
        return {field.name: getattr(self, field.name) for field in fields(self)}

    def reset(self) -> None:
        for field in fields(self):
            setattr(self, field.name, 0)


class OperatorContext:
    """Shared execution state of the batch operator kernels.

    The join budget is *per join operator*: each join may hold up to
    ``join_memory_bytes`` of build rows resident, which bounds the peak of
    a left-deep pipeline at budget × join depth rather than at data size.
    """

    def __init__(
        self,
        join_memory_bytes: int = DEFAULT_JOIN_MEMORY_BYTES,
        join_partitions: int = DEFAULT_JOIN_PARTITIONS,
    ):
        self.join_memory_bytes = join_memory_bytes
        self.join_partitions = join_partitions
        self.counters = OperatorCounters()
        self._spill_dir: Optional[str] = None
        self._finalizer: Optional[weakref.finalize] = None
        self._names = itertools.count()

    # ------------------------------------------------------------------ spill
    @property
    def spill_dir(self) -> str:
        """The temp directory spill files live in (created on first use)."""
        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix="repro-spill-")
            # Safety net: remove the directory at interpreter exit even if
            # close() is never reached (e.g. a worker crashed mid-query).
            self._finalizer = weakref.finalize(
                self, shutil.rmtree, self._spill_dir, ignore_errors=True
            )
        return self._spill_dir

    def spill_path(self, tag: str) -> str:
        """A fresh file path for one spill file."""
        return os.path.join(self.spill_dir, f"{tag}-{next(self._names)}.spill")

    def cleanup(self) -> None:
        """Remove the spill directory (idempotent; files may already be gone)."""
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self._spill_dir is not None:
            shutil.rmtree(self._spill_dir, ignore_errors=True)
            self._spill_dir = None

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"OperatorContext(join_memory_bytes={self.join_memory_bytes}, "
            f"join_partitions={self.join_partitions})"
        )
