"""Columnar solution batches: the matcher-level unit of result movement.

The enumeration core produces one :data:`~repro.matching.turbo.Solution`
(``List[int]``, query vertex index → data vertex id) at a time, but moving
results around one Python list at a time is exactly the per-tuple overhead
TurboHOM++ eliminates everywhere else.  A :class:`SolutionBatch` holds up to
:data:`SOLUTION_BATCH_SIZE` solutions **column-major**: one flat ``array('q')``
per query vertex, so

* appending a solution is ``width`` integer appends into flat arrays (no
  per-solution object allocation besides the arrays themselves),
* a batch crosses a process boundary as one pickled message whose payload
  is one contiguous buffer per column (see
  :mod:`repro.matching.process_shard`), never as per-solution lists,
* the engine layer can adopt the columns directly as the id columns of a
  :class:`~repro.sparql.binding_batch.BindingBatch` without copying.

Vertex ids are non-negative, so the full ``int64`` range below zero is free
for sentinels; batches produced by the matcher never contain negatives.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Sequence

#: Solutions per batch: large enough to amortize queue traffic, small
#: enough to bound worker memory and cancellation latency inside one
#: combinatorial candidate region.  The one start-vertex loop,
#: :func:`~repro.matching.turbo.iter_region_batches`, which the sequential
#: matcher and every shard worker run, fills a batch to this size (or to
#: the result limit) across candidate regions before shipping it, so every
#: producer yields the same shape: full batches plus one tail.
SOLUTION_BATCH_SIZE = 256


class SolutionBatch:
    """A fixed-width, column-major batch of vertex-mapping solutions."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns: Sequence[array], rows: int):
        #: One ``array('q')`` of length ``rows`` per query vertex.
        self.columns: List[array] = list(columns)
        #: Row count, held explicitly so zero-width batches (vertex-less
        #: queries) and empty batches (``rows == 0``) stay representable.
        self.rows = rows

    # ------------------------------------------------------------ construction
    @staticmethod
    def collector(width: int) -> List[array]:
        """Fresh append targets for a batch under construction."""
        return [array("q") for _ in range(width)]

    @classmethod
    def empty(cls) -> "SolutionBatch":
        """A zero-row batch: what the shard merge loop's ``poll`` returns for
        a consumed control message or a stale job's leftover."""
        return cls((), 0)

    # ---------------------------------------------------------------- geometry
    @property
    def width(self) -> int:
        return len(self.columns)

    def __len__(self) -> int:
        return self.rows

    # ------------------------------------------------------------------ access
    def iter_rows(self) -> Iterator[List[int]]:
        """Yield each solution as the row-major ``List[int]`` form."""
        columns = self.columns
        if not columns:
            for _ in range(self.rows):
                yield []
            return
        for row in range(self.rows):
            yield [column[row] for column in columns]

    def head(self, count: int) -> "SolutionBatch":
        """The first ``count`` rows (used to honour result limits exactly)."""
        if count >= self.rows:
            return self
        return SolutionBatch([column[:count] for column in self.columns], max(0, count))

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"SolutionBatch(width={self.width}, rows={self.rows})"
