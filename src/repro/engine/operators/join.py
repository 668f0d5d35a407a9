"""Hybrid hash join kernels over BindingBatch streams.

Both joins (inner, and left-outer for OPTIONAL) materialize the right input
as the **build side** and stream the left input as the **probe side**,
comparing raw id cells whenever both sides id-bind a join variable.

The build side is *dynamic hybrid*: while its estimated resident footprint
stays under the byte budget (``OperatorContext.join_memory_bytes``) it is
held whole, zero-copy, and probing is the classic unbounded hash join.
Output is a multiset: no caller may rely on row order (only ORDER BY orders
a result).  The first time the budget is exceeded the build rows are
hash-partitioned; victim partitions spill to temp files as serialized
column spans and their probe rows are spilled alongside, then resolved
partition-by-partition after the probe stream drains.  A spilled partition
that still exceeds the budget is recursively repartitioned with a fresh
hash salt, up to a depth bound; at the bound the join gives up gracefully
and builds the partition in memory anyway (``join_fallbacks`` counts
these).

Every build-side row store is a :class:`KeyIndex`, so one fully-bound
probe costs O(1 + matches + wildcard keys) and a join O(n + m + output):

* fully-bound build keys live in an **exact dict**; a fully-bound probe is
  one ``dict.get``, and its hits are compatible by construction (equal,
  fully-bound keys), so they skip any per-pair check;
* build keys containing ``None`` (SPARQL's unbound wildcard) are recorded
  at insert time in a **wildcard list**, which every probe walks with
  :func:`keys_compatible`; it is empty for almost every join;
* a probe key containing ``None`` (an OPTIONAL-unbound row) walks every
  exact key with :func:`keys_compatible`, O(m) per such row.  No benchmark
  workload produces one, so no index serves them.

Partitioning keeps that layout: build rows with ``None`` key parts live
in an always-resident **wildcard partition** probed by every row; probe
rows with ``None`` key parts walk every resident partition at once, and a
snapshot of the row walks each spilled partition during cleanup.

Keys mix id and term domains per variable (see
:func:`~repro.sparql.binding_batch.resolve_kind`); the first probe batch
fixes the joint domain for the whole probe stream, and a later batch whose
term column meets an id key domain raises :class:`EngineError` (its keys
could never equal an id).  Partitioning hashes
keys in the build-side domain, which matches the joint build/probe domain
in all but pathological mixed-kind streams — those abandon the budget and
fall back to the resident path (``join_fallbacks``).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.engine.operators.context import OperatorContext
from repro.engine.operators.spill import SpillFile, batch_bytes
from repro.exceptions import EngineError
from repro.sparql.binding_batch import (
    KIND_ID,
    KIND_TERM,
    BatchBuilder,
    BindingBatch,
    resolve_kind,
)

#: Rows buffered for a spilled partition before a span is flushed to disk.
SPILL_SPAN_ROWS = 2048

#: Recursive repartitioning gives up (and builds in memory regardless of
#: the budget) once a partition has been re-split this many times.
MAX_REPARTITION_DEPTH = 4


# --------------------------------------------------------------- key helpers
def row_key(
    batch: BindingBatch, row: int, shared: Sequence[str], key_kinds: Dict[str, str]
) -> Tuple:
    """The packed join/distinct key of one row, in the given key domain."""
    key = []
    for var in shared:
        if key_kinds[var] == KIND_ID:
            key.append(batch.raw(var, row))
        else:
            key.append(batch.term(var, row))
    return tuple(key)


def keys_compatible(probe: Tuple, build: Tuple) -> bool:
    """SPARQL compatibility of two packed keys (None is a wildcard)."""
    for probe_part, build_part in zip(probe, build):
        if probe_part is not None and build_part is not None and probe_part != build_part:
            return False
    return True


Ref = Tuple[BindingBatch, int]


class KeyIndex:
    """Build rows by join key, so that a fully-bound probe costs O(1 + matches + wildcards).

    * ``exact`` maps every fully-bound key to its rows: a fully-bound probe
      is one ``dict.get``, and its hits are compatible by construction.
    * ``wildcards`` lists, at insert time, the ``(key, row)`` pairs whose
      key contains ``None``; every probe walks it with :func:`keys_compatible`.
      It is empty for almost every join.

    A probe key that contains ``None`` walks ``exact`` with
    :func:`keys_compatible` instead.
    """

    __slots__ = ("exact", "wildcards")

    def __init__(self) -> None:
        self.exact: Dict[Tuple, List[Ref]] = {}
        self.wildcards: List[Tuple[Tuple, Ref]] = []

    def add(self, key: Tuple, ref: Ref) -> None:
        if None in key:
            self.wildcards.append((key, ref))
            return
        bucket = self.exact.get(key)
        if bucket is None:
            self.exact[key] = [ref]
        else:
            bucket.append(ref)

    def matches(self, key: Tuple) -> Iterable[Ref]:
        """Every build row compatible with ``key``; the order is not a contract."""
        if None in key:
            hits: Iterable[Ref] = [
                ref
                for build_key, bucket in self.exact.items()
                if keys_compatible(key, build_key)
                for ref in bucket
            ]
        else:
            hits = self.exact.get(key, ())
        if not self.wildcards:
            return hits
        return itertools.chain(
            hits,
            [ref for build_key, ref in self.wildcards if keys_compatible(key, build_key)],
        )


def build_key_index(
    rows: Iterable[Ref], shared: Sequence[str], key_kinds: Dict[str, str]
) -> KeyIndex:
    index = KeyIndex()
    for batch, row in rows:
        index.add(row_key(batch, row, shared, key_kinds), (batch, row))
    return index


def merged_value(
    var: str,
    kind: str,
    left: BindingBatch,
    left_row: int,
    right: Optional[BindingBatch],
    right_row: int,
):
    """SPARQL merge of one cell: the left value, right filling nulls."""
    value = left.raw(var, left_row) if var in left.kinds else None
    source = left
    if value is None and right is not None:
        value = right.raw(var, right_row)
        source = right
    if value is None:
        return None
    if kind == KIND_ID or source.kinds[var] != KIND_ID:
        return value
    return source.term(var, right_row if source is right else left_row)


def cell_value(batch: BindingBatch, row: int, var: str, kind: str):
    """One cell converted into the target column kind (ids may decode)."""
    if var not in batch.kinds:
        return None
    value = batch.raw(var, row)
    if value is None:
        return None
    if kind == KIND_ID or batch.kinds[var] != KIND_ID:
        return value
    return batch.term(var, row)


# ----------------------------------------------------------- build partition
class _Partition:
    """One hash partition of the build side (resident until victimized)."""

    __slots__ = ("segments", "builder", "bytes", "rows", "spill", "buckets")

    def __init__(self) -> None:
        self.segments: List[BindingBatch] = []
        self.builder: Optional[BatchBuilder] = None
        self.bytes = 0
        self.rows = 0
        self.spill: Optional[SpillFile] = None
        self.buckets: Optional[KeyIndex] = None

    @property
    def spilled(self) -> bool:
        return self.spill is not None

    def seal_builder(self) -> None:
        if self.builder is not None and self.builder.rows:
            self.segments.append(self.builder.batch())
        self.builder = None

    def resident_rows(self) -> Iterator[Tuple[BindingBatch, int]]:
        self.seal_builder()
        for segment in self.segments:
            for row in range(segment.rows):
                yield segment, row

    def build_buckets(
        self, shared: Sequence[str], key_kinds: Dict[str, str]
    ) -> KeyIndex:
        if self.buckets is None:
            self.buckets = build_key_index(self.resident_rows(), shared, key_kinds)
        return self.buckets


class HybridIndex:
    """The byte-budgeted build side of one hybrid hash join.

    Starts in **resident mode**: build batches are held whole (zero copy)
    exactly like the classic join.  Crossing the byte budget converts to
    **partitioned mode**: rows are re-routed into ``join_partitions`` hash
    partitions (plus the wildcard partition) and victims spill to disk
    whenever the resident estimate exceeds the budget again.
    """

    def __init__(
        self,
        batches: Iterable[BindingBatch],
        shared: Sequence[str],
        context: OperatorContext,
    ):
        self.shared = list(shared)
        self.context = context
        self.budget = context.join_memory_bytes if self.shared else 0
        self.fanout = max(2, context.join_partitions)
        self.kinds: Dict[str, str] = {}
        self.variables: List[str] = []
        self.decoder = None
        self.rows = 0
        self.mixed_kinds = False
        # Resident mode state (mirrors the classic _BatchIndex).
        self.batches: List[BindingBatch] = []
        self.resident_bytes = 0
        self.buckets: Optional[KeyIndex] = None
        # Partitioned mode state.
        self.partitioned = False
        self.partitions: List[_Partition] = []
        self.wildcard = _Partition()
        self.partition_kinds: Dict[str, str] = {}
        self.schema_signature: Optional[Tuple] = None
        for batch in batches:
            self._add(batch)
        if self.partitioned:
            for partition in self.partitions:
                if partition.spilled:
                    self._flush_spilled(partition)
                else:
                    partition.seal_builder()
            self.wildcard.seal_builder()

    # ------------------------------------------------------------ build phase
    def _add(self, batch: BindingBatch) -> None:
        if batch.rows == 0:
            return
        if self.decoder is None:
            self.decoder = batch.decoder
        for var in batch.variables:
            kind = batch.kinds[var]
            if var not in self.kinds:
                self.kinds[var] = kind
                self.variables.append(var)
            else:
                self.kinds[var] = resolve_kind(self.kinds[var], kind)
            if var in self.shared:
                recorded = self.partition_kinds.get(var)
                if recorded is None:
                    self.partition_kinds[var] = kind
                elif recorded != kind:
                    self.mixed_kinds = True
        self.rows += batch.rows
        if self.mixed_kinds and self.partitioned:
            self._restore_resident(count_fallback=True)
        if not self.partitioned:
            self.batches.append(batch)
            self.resident_bytes += batch_bytes(batch)
            if self.budget and not self.mixed_kinds and self.resident_bytes > self.budget:
                self._convert_to_partitioned()
        else:
            self._route_batch(batch)

    def _convert_to_partitioned(self) -> None:
        self.partitioned = True
        self.partitions = [_Partition() for _ in range(self.fanout)]
        self.resident_bytes = 0
        held, self.batches = self.batches, []
        for batch in held:
            self._route_batch(batch)

    def _schema(self) -> Tuple[Tuple[str, ...], Dict[str, str]]:
        return tuple(self.variables), dict(self.kinds)

    def _ensure_builders(self) -> None:
        """(Re)create partition builders when the build schema evolved."""
        signature = (tuple(self.variables), tuple(self.kinds[v] for v in self.variables))
        if signature == self.schema_signature:
            return
        self.schema_signature = signature
        variables, kinds = self._schema()
        for partition in itertools.chain(self.partitions, (self.wildcard,)):
            partition.seal_builder()
            partition.builder = BatchBuilder(variables, kinds, self.decoder)

    def _route_batch(self, batch: BindingBatch) -> None:
        self._ensure_builders()
        variables, kinds = self._schema()
        row_cost = sum(
            8 if kinds[var] == KIND_ID else 64 for var in variables
        )
        shared = self.shared
        partition_kinds = self.partition_kinds
        for row in range(batch.rows):
            key = tuple(
                cell_value(batch, row, var, partition_kinds.get(var, KIND_TERM))
                for var in shared
            )
            values = [cell_value(batch, row, var, kinds[var]) for var in variables]
            if any(part is None for part in key):
                target = self.wildcard
            else:
                target = self.partitions[hash((0,) + key) % self.fanout]
            assert target.builder is not None
            target.builder.append(values)
            target.rows += 1
            if target.spilled:
                if target.builder.rows >= SPILL_SPAN_ROWS:
                    self._flush_spilled(target)
                continue
            target.bytes += row_cost
            self.resident_bytes += row_cost
            if self.resident_bytes > self.budget:
                self._spill_victim()

    def _spill_victim(self) -> None:
        victim: Optional[_Partition] = None
        for partition in self.partitions:
            if not partition.spilled and partition.bytes > 0:
                if victim is None or partition.bytes > victim.bytes:
                    victim = partition
        if victim is None:
            return
        victim.spill = SpillFile(self.context.spill_path("build"))
        victim.seal_builder()
        counters = self.context.counters
        counters.spilled_partitions += 1
        for segment in victim.segments:
            counters.spilled_bytes += victim.spill.write(segment)
        victim.segments = []
        self.resident_bytes -= victim.bytes
        victim.bytes = 0
        variables, kinds = self._schema()
        victim.builder = BatchBuilder(variables, kinds, self.decoder)

    def _flush_spilled(self, partition: _Partition) -> None:
        assert partition.spill is not None
        if partition.builder is not None and partition.builder.rows:
            span = partition.builder.batch()
            self.context.counters.spilled_bytes += partition.spill.write(span)
            variables, kinds = self._schema()
            partition.builder = BatchBuilder(variables, kinds, self.decoder)

    def _restore_resident(self, count_fallback: bool) -> None:
        """Abandon partitioning: pull everything (spills included) resident."""
        if count_fallback:
            self.context.counters.join_fallbacks += 1
        restored: List[BindingBatch] = []
        for partition in itertools.chain(self.partitions, (self.wildcard,)):
            partition.seal_builder()
            restored.extend(partition.segments)
            partition.segments = []
            if partition.spill is not None:
                for span, _ in partition.spill.read(self.decoder):
                    restored.append(span)
                partition.spill.delete()
                partition.spill = None
        self.partitioned = False
        self.partitions = []
        self.wildcard = _Partition()
        self.batches = restored
        self.budget = 0  # the budget is void once everything is resident

    # ------------------------------------------------------------ probe phase
    def any_spilled(self) -> bool:
        return self.partitioned and any(p.spilled for p in self.partitions)

    def resolve_key_kinds(self, probe: BindingBatch) -> Dict[str, str]:
        """Fix the joint key domain from the first probe batch.

        Falls back to the resident path (reading spills back) when the
        joint domain disagrees with the domain the build side partitioned
        in — raw-cell hashes would route probe rows to the wrong partition.
        """
        key_kinds = {
            var: resolve_kind(self.kinds.get(var), probe.kind(var))
            for var in self.shared
        }
        if self.partitioned:
            for var in self.shared:
                recorded = self.partition_kinds.get(var)
                if recorded is not None and recorded != key_kinds[var]:
                    self._restore_resident(count_fallback=True)
                    break
        return key_kinds

    def resident_buckets(self, key_kinds: Dict[str, str]) -> KeyIndex:
        """The single key index over every build row (resident mode only)."""
        if self.buckets is None:
            rows = ((batch, row) for batch in self.batches for row in range(batch.rows))
            self.buckets = build_key_index(rows, self.shared, key_kinds)
        return self.buckets

    def partition_for(self, key: Tuple) -> _Partition:
        return self.partitions[hash((0,) + key) % self.fanout]

    def dispose(self) -> None:
        """Delete any spill files this index still owns."""
        for partition in self.partitions:
            if partition.spill is not None:
                partition.spill.delete()
                partition.spill = None


def join_schema(
    left: BindingBatch, index: HybridIndex, extra_variables: Sequence[str] = ()
) -> Tuple[List[str], Dict[str, str]]:
    """Output variables + resolved kinds of one join (left ∪ build ∪ extra)."""
    variables = list(left.variables)
    kinds = {var: left.kinds[var] for var in left.variables}
    for var in itertools.chain(index.variables, extra_variables):
        if var not in kinds:
            variables.append(var)
            kinds[var] = index.kinds.get(var, KIND_TERM)
        else:
            kinds[var] = resolve_kind(kinds[var], index.kinds.get(var, kinds[var]))
    return variables, kinds


# ------------------------------------------------------------- join drivers
def batch_hash_join(
    left: Iterator[BindingBatch],
    right: Iterable[BindingBatch],
    shared: Sequence[str],
    context: Optional[OperatorContext] = None,
) -> Iterator[BindingBatch]:
    """Inner hybrid hash join: build ``right``, probe ``left``."""
    return _hybrid_join(left, right, shared, (), False, context or OperatorContext())


def batch_left_outer_join(
    left: Iterator[BindingBatch],
    right: Iterable[BindingBatch],
    shared: Sequence[str],
    right_variables: Sequence[str],
    context: Optional[OperatorContext] = None,
) -> Iterator[BindingBatch]:
    """SPARQL OPTIONAL: left rows with no compatible right row null-extend."""
    return _hybrid_join(
        left, right, shared, right_variables, True, context or OperatorContext()
    )


class _SpilledProbe:
    """Probe rows destined for one spilled partition, spilled alongside."""

    __slots__ = ("file", "pending", "flags")

    def __init__(self, context: OperatorContext):
        self.file = SpillFile(context.spill_path("probe"))
        self.pending: List[Tuple[BindingBatch, int]] = []
        self.flags: List[int] = []

    def add(self, batch: BindingBatch, row: int, matched: bool) -> None:
        self.pending.append((batch, row))
        self.flags.append(1 if matched else 0)

    def flush(self, counters) -> None:
        if not self.pending:
            return
        # Group pending refs by source batch so each flush writes whole
        # column spans (take() keeps the source schema).
        by_batch: Dict[int, Tuple[BindingBatch, List[int], List[int]]] = {}
        for (batch, row), flag in zip(self.pending, self.flags):
            entry = by_batch.setdefault(id(batch), (batch, [], []))
            entry[1].append(row)
            entry[2].append(flag)
        for batch, rows, flags in by_batch.values():
            counters.spilled_bytes += self.file.write(batch.take(rows), flags)
        self.pending = []
        self.flags = []


def _hybrid_join(
    left: Iterator[BindingBatch],
    right: Iterable[BindingBatch],
    shared: Sequence[str],
    right_variables: Sequence[str],
    outer: bool,
    context: OperatorContext,
) -> Iterator[BindingBatch]:
    index = HybridIndex(right, shared, context)
    probe_spills: Dict[int, _SpilledProbe] = {}
    try:
        if index.rows == 0 and not outer:
            return
        schema: Optional[Tuple[List[str], Dict[str, str]]] = None
        key_kinds: Optional[Dict[str, str]] = None
        # Snapshots of wildcard-key probe rows still owed matches against
        # spilled partitions: [batch, row-in-batch, matched?].
        wildcard_stash: List[List] = []
        for batch in left:
            if batch.rows == 0:
                continue
            if key_kinds is None:
                # The first probe batch fixes the joint key domain and the
                # output schema (resolve_key_kinds falls back to the
                # resident path when the domain disagrees with the
                # partitioning); later batches must not leave it.
                key_kinds = index.resolve_key_kinds(batch)
                schema = join_schema(batch, index, right_variables)
            else:
                _check_key_domain(batch, shared, key_kinds)
            assert schema is not None
            variables, kinds = schema
            builder = BatchBuilder(variables, kinds, batch.decoder or index.decoder)
            if not index.partitioned:
                _probe_resident(
                    index, batch, shared, key_kinds, variables, kinds, builder, outer
                )
            else:
                _probe_partitioned(
                    index, batch, shared, key_kinds, variables, kinds, builder,
                    outer, wildcard_stash, probe_spills, context,
                )
            if builder.rows:
                yield builder.batch()
        # ------------------------------------------------- spilled cleanup
        if schema is not None and index.any_spilled():
            variables, kinds = schema
            assert key_kinds is not None
            for partition in index.partitions:
                if not partition.spilled:
                    continue
                probe = probe_spills.get(id(partition))
                if probe is not None:
                    probe.flush(context.counters)
                    probe.file.seal()
                assert partition.spill is not None
                yield from _resolve_spilled(
                    partition.spill,
                    probe.file if probe is not None else None,
                    index, shared, key_kinds, variables, kinds,
                    outer, wildcard_stash, context, depth=1,
                )
                partition.spill.delete()
                partition.spill = None
                if probe is not None:
                    probe.file.delete()
            if outer and wildcard_stash:
                builder = BatchBuilder(variables, kinds, index.decoder)
                for snap, row, matched in wildcard_stash:
                    if not matched:
                        _null_extend(builder, variables, kinds, snap, row)
                if builder.rows:
                    yield builder.batch()
    finally:
        index.dispose()
        # A join closed mid-probe still holds its probe spill files open.
        for probe in probe_spills.values():
            probe.file.delete()


def _check_key_domain(
    batch: BindingBatch, shared: Sequence[str], key_kinds: Dict[str, str]
) -> None:
    """Reject a probe batch whose term column meets the stream's id key domain."""
    for var in shared:
        if key_kinds[var] == KIND_ID and batch.kind(var) == KIND_TERM:
            raise EngineError(
                f"join probe stream switched ?{var} from ids to terms mid-stream"
            )


def _emit(
    builder: BatchBuilder,
    variables: Sequence[str],
    kinds: Dict[str, str],
    batch: BindingBatch,
    row: int,
    candidates: Iterable[Ref],
) -> bool:
    """Append the merge of one probe row with each candidate; True if any."""
    matched = False
    for candidate_batch, candidate_row in candidates:
        matched = True
        builder.append(
            [merged_value(var, kinds[var], batch, row, candidate_batch, candidate_row)
             for var in variables]
        )
    return matched


def _null_extend(
    builder: BatchBuilder,
    variables: Sequence[str],
    kinds: Dict[str, str],
    batch: BindingBatch,
    row: int,
) -> None:
    builder.append([merged_value(var, kinds[var], batch, row, None, 0) for var in variables])


def _probe_resident(
    index: HybridIndex,
    batch: BindingBatch,
    shared: Sequence[str],
    key_kinds: Dict[str, str],
    variables: Sequence[str],
    kinds: Dict[str, str],
    builder: BatchBuilder,
    outer: bool,
) -> None:
    """Probe the single resident key index."""
    buckets = index.resident_buckets(key_kinds) if index.rows else None
    for row in range(batch.rows):
        matched = buckets is not None and _emit(
            builder, variables, kinds, batch, row,
            buckets.matches(row_key(batch, row, shared, key_kinds)),
        )
        if outer and not matched:
            _null_extend(builder, variables, kinds, batch, row)


def _probe_partitioned(
    index: HybridIndex,
    batch: BindingBatch,
    shared: Sequence[str],
    key_kinds: Dict[str, str],
    variables: Sequence[str],
    kinds: Dict[str, str],
    builder: BatchBuilder,
    outer: bool,
    wildcard_stash: List[List],
    probe_spills: Dict[int, "_SpilledProbe"],
    context: OperatorContext,
) -> None:
    wildcard_buckets = index.wildcard.build_buckets(shared, key_kinds)
    any_spilled = index.any_spilled()
    for row in range(batch.rows):
        key = row_key(batch, row, shared, key_kinds)
        # Wildcard build rows can match every probe row.
        matched = _emit(
            builder, variables, kinds, batch, row, wildcard_buckets.matches(key)
        )
        if None in key:
            # Wildcard probe: walk every resident partition now; spilled
            # partitions are owed a walk during cleanup.
            for partition in index.partitions:
                if not partition.spilled:
                    candidates = partition.build_buckets(shared, key_kinds).matches(key)
                    matched = _emit(builder, variables, kinds, batch, row, candidates) or matched
            if any_spilled:
                wildcard_stash.append([batch.take([row]), 0, matched])
                continue  # emission decided after cleanup
        else:
            partition = index.partition_for(key)
            if partition.spilled:
                probe = probe_spills.get(id(partition))
                if probe is None:
                    probe = probe_spills[id(partition)] = _SpilledProbe(context)
                probe.add(batch, row, matched)
                if len(probe.pending) >= SPILL_SPAN_ROWS:
                    probe.flush(context.counters)
                continue
            candidates = partition.build_buckets(shared, key_kinds).matches(key)
            matched = _emit(builder, variables, kinds, batch, row, candidates) or matched
        if outer and not matched:
            _null_extend(builder, variables, kinds, batch, row)


def _resolve_spilled(
    build_file: SpillFile,
    probe_file: Optional[SpillFile],
    index: HybridIndex,
    shared: Sequence[str],
    key_kinds: Dict[str, str],
    variables: Sequence[str],
    kinds: Dict[str, str],
    outer: bool,
    wildcard_stash: List[List],
    context: OperatorContext,
    depth: int,
) -> Iterator[BindingBatch]:
    """Resolve one spilled partition: recurse while oversized, then probe."""
    budget = context.join_memory_bytes
    estimate = sum(batch_bytes(span) for span, _ in build_file.read(index.decoder))
    if budget and estimate > budget and depth <= MAX_REPARTITION_DEPTH:
        yield from _repartition_spilled(
            build_file, probe_file, index, shared, key_kinds, variables, kinds,
            outer, wildcard_stash, context, depth,
        )
        return
    if budget and estimate > budget:
        context.counters.join_fallbacks += 1
    # Build the partition in memory and probe it with its spilled rows.
    buckets = build_key_index(
        ((span, row) for span, _ in build_file.read(index.decoder)
         for row in range(span.rows)),
        shared, key_kinds,
    )
    builder = BatchBuilder(variables, kinds, index.decoder)
    # Wildcard probe snapshots owe a lookup in every spilled partition.
    for entry in wildcard_stash:
        snap, snap_row, _ = entry
        candidates = buckets.matches(row_key(snap, snap_row, shared, key_kinds))
        if _emit(builder, variables, kinds, snap, snap_row, candidates):
            entry[2] = True
    if probe_file is not None:
        for span, flags in probe_file.read(index.decoder):
            for row in range(span.rows):
                matched = bool(flags[row]) if flags else False
                candidates = buckets.matches(row_key(span, row, shared, key_kinds))
                matched = _emit(builder, variables, kinds, span, row, candidates) or matched
                if outer and not matched:
                    _null_extend(builder, variables, kinds, span, row)
                if builder.rows >= SPILL_SPAN_ROWS:
                    yield builder.batch()
                    builder = BatchBuilder(variables, kinds, index.decoder)
    if builder.rows:
        yield builder.batch()


def _repartition_spilled(
    build_file: SpillFile,
    probe_file: Optional[SpillFile],
    index: HybridIndex,
    shared: Sequence[str],
    key_kinds: Dict[str, str],
    variables: Sequence[str],
    kinds: Dict[str, str],
    outer: bool,
    wildcard_stash: List[List],
    context: OperatorContext,
    depth: int,
) -> Iterator[BindingBatch]:
    """Split an oversized spilled partition with a fresh hash salt."""
    counters = context.counters
    counters.repartitions += 1
    fanout = index.fanout
    children_build = [SpillFile(context.spill_path(f"build-d{depth}")) for _ in range(fanout)]
    children_probe: List[Optional[SpillFile]] = [None] * fanout
    occupied = [False] * fanout
    try:
        for span, _ in build_file.read(index.decoder):
            routed: Dict[int, List[int]] = {}
            for row in range(span.rows):
                key = row_key(span, row, shared, key_kinds)
                routed.setdefault(hash((depth,) + key) % fanout, []).append(row)
            for child, rows in routed.items():
                counters.spilled_bytes += children_build[child].write(span.take(rows))
                occupied[child] = True
        counters.spilled_partitions += sum(occupied)
        if probe_file is not None:
            for span, flags in probe_file.read(index.decoder):
                routed = {}
                for row in range(span.rows):
                    key = row_key(span, row, shared, key_kinds)
                    routed.setdefault(hash((depth,) + key) % fanout, []).append(row)
                for child, rows in routed.items():
                    target = children_probe[child]
                    if target is None:
                        target = children_probe[child] = SpillFile(
                            context.spill_path(f"probe-d{depth}")
                        )
                    child_flags = [flags[row] for row in rows] if flags else None
                    counters.spilled_bytes += target.write(span.take(rows), child_flags)
        for child in range(fanout):
            if not occupied[child] and children_probe[child] is None:
                continue
            yield from _resolve_spilled(
                children_build[child], children_probe[child],
                index, shared, key_kinds, variables, kinds,
                outer, wildcard_stash, context, depth + 1,
            )
    finally:
        for spill in children_build:
            spill.delete()
        for spill in children_probe:
            if spill is not None:
                spill.delete()
