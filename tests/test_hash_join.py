"""The hybrid hash join against a brute-force SPARQL-compatibility join.

* **Differential** — Hypothesis draws build and probe batches with ``None``
  in any key position on either side and an independent id/term kind per
  column and side; ``batch_hash_join`` and ``batch_left_outer_join`` must
  equal a nested-loop join as multisets, unbounded and under a forced
  spill, and OPTIONAL must null-extend each left row at most once.
* **Probe cost** — counted, never timed: an exact probe against a build
  side without wildcard keys never enumerates the bucket dict, and one
  against a build side with wildcard keys checks only those keys.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.operators import join
from repro.engine.operators.context import OperatorContext
from repro.engine.operators.join import batch_hash_join, batch_left_outer_join
from repro.exceptions import EngineError
from repro.rdf.terms import IRI
from repro.sparql.binding_batch import KIND_ID, KIND_TERM, NULL_ID, BatchBuilder

PREFIX = "http://example.org/v"
KEY_VARS = ("k0", "k1", "k2")


def decode(value: int) -> Optional[IRI]:
    return None if value == NULL_ID else IRI(f"{PREFIX}{value}")


def make_batches(rows, variables, kinds, chunk):
    """Pack dict rows (ints or None) into batches of at most ``chunk`` rows."""
    batches = []
    for start in range(0, len(rows), chunk):
        builder = BatchBuilder(list(variables), dict(kinds), decode)
        for row in rows[start:start + chunk]:
            builder.append([
                None if row[var] is None
                else row[var] if kinds[var] == KIND_ID else decode(row[var])
                for var in variables
            ])
        batches.append(builder.batch())
    return batches


def normalize(batches):
    counts = Counter()
    for batch in batches:
        for row in range(batch.rows):
            cells = []
            for var in batch.variables:
                term = batch.term(var, row)
                if term is not None:
                    cells.append((var, int(term[len(PREFIX):])))
            counts[tuple(sorted(cells))] += 1
    return counts


def nested_loop_join(left_rows, right_rows, shared, outer):
    """The reference: every compatible pair, merged; OPTIONAL null-extends."""
    counts = Counter()
    for left in left_rows:
        matched = False
        for right in right_rows:
            if all(left[v] is None or right[v] is None or left[v] == right[v]
                   for v in shared):
                matched = True
                merged = dict(right)
                merged.update({v: x for v, x in left.items() if x is not None})
                counts[tuple(sorted((v, x) for v, x in merged.items() if x is not None))] += 1
        if outer and not matched:
            counts[tuple(sorted((v, x) for v, x in left.items() if x is not None))] += 1
    return counts


def run_join(left_rows, right_rows, shared, outer, context, left_kinds=None,
             right_kinds=None, chunk=64):
    left_vars = ["l", *shared]
    right_vars = [*shared, "r"]
    left_kinds = left_kinds or {v: KIND_ID for v in left_vars}
    right_kinds = right_kinds or {v: KIND_ID for v in right_vars}
    left = iter(make_batches(left_rows, left_vars, left_kinds, chunk))
    right = make_batches(right_rows, right_vars, right_kinds, chunk)
    if outer:
        out = batch_left_outer_join(left, right, shared, right_vars, context=context)
    else:
        out = batch_hash_join(left, right, shared, context=context)
    return normalize(out)


KEY_VALUES = st.sampled_from([None, 0, 1, 2, 3])
KINDS = st.sampled_from([KIND_ID, KIND_TERM])


@st.composite
def join_cases(draw):
    shared = list(KEY_VARS[:draw(st.integers(0, len(KEY_VARS)))])
    width = len(shared)
    left_keys = draw(st.lists(st.tuples(*[KEY_VALUES] * width), max_size=40))
    right_keys = draw(st.lists(st.tuples(*[KEY_VALUES] * width), max_size=60))
    left_rows = [dict(zip(shared, key), l=100 + i) for i, key in enumerate(left_keys)]
    right_rows = [dict(zip(shared, key), r=1000 + i) for i, key in enumerate(right_keys)]
    left_kinds = {v: draw(KINDS) for v in ["l", *shared]}
    right_kinds = {v: draw(KINDS) for v in [*shared, "r"]}
    chunk = draw(st.integers(1, 24))
    return shared, left_rows, right_rows, left_kinds, right_kinds, chunk


def check_against_nested_loop(case, outer, context):
    shared, left_rows, right_rows, left_kinds, right_kinds, chunk = case
    try:
        result = run_join(left_rows, right_rows, shared, outer, context,
                          left_kinds, right_kinds, chunk)
    finally:
        context.cleanup()
    assert result == nested_loop_join(left_rows, right_rows, shared, outer)
    if outer:
        null_extended = Counter(
            dict(row)["l"] for row, n in result.items()
            for _ in range(n) if "r" not in dict(row)
        )
        assert all(n == 1 for n in null_extended.values())


BUDGETS = {
    "unbounded": lambda: OperatorContext(join_memory_bytes=0),
    "spill": lambda: OperatorContext(join_memory_bytes=512, join_partitions=4),
}


class TestDifferential:
    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(case=join_cases())
    def test_inner_join_equals_nested_loop(self, budget, case):
        check_against_nested_loop(case, False, BUDGETS[budget]())

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(case=join_cases())
    def test_left_outer_join_equals_nested_loop(self, budget, case):
        check_against_nested_loop(case, True, BUDGETS[budget]())

    def test_wildcard_probe_matching_only_spilled_rows_is_not_null_extended(self):
        # Every build partition spills, so a wildcard probe row's matches
        # all arrive during cleanup: the row must not also null-extend.
        shared = ["k0", "k1"]
        right = [{"k0": i % 25, "k1": i, "r": 1000 + i} for i in range(300)]
        left = [{"l": 100 + i, "k0": i % 30, "k1": None} for i in range(60)]
        context = BUDGETS["spill"]()
        try:
            result = run_join(left, right, shared, True, context)
        finally:
            context.cleanup()
        assert context.counters.spilled_partitions >= 4
        assert result == nested_loop_join(left, right, shared, True)

    def test_probe_stream_switching_from_terms_to_ids(self):
        # The first probe batch fixes the key domain (terms here); a later
        # id-kind batch must still find its matches in that domain.
        right = [{"k0": 1, "r": 1001}, {"k0": 2, "r": 1002}]
        right_batches = make_batches(right, ["k0", "r"], {"k0": KIND_ID, "r": KIND_ID}, 8)
        left = make_batches([{"l": 100, "k0": 1}], ["l", "k0"],
                            {"l": KIND_ID, "k0": KIND_TERM}, 8)
        left += make_batches([{"l": 101, "k0": 2}], ["l", "k0"],
                             {"l": KIND_ID, "k0": KIND_ID}, 8)
        out = batch_hash_join(iter(left), right_batches, ["k0"],
                              context=OperatorContext(join_memory_bytes=0))
        assert normalize(out) == nested_loop_join(
            [{"l": 100, "k0": 1}, {"l": 101, "k0": 2}], right, ["k0"], False
        )

    def test_probe_stream_switching_from_ids_to_terms_raises(self):
        # An id key domain cannot hold a term key: rather than drop the
        # later batch's matches, the join rejects the stream.
        right = make_batches([{"k0": 1, "r": 1001}], ["k0", "r"],
                             {"k0": KIND_ID, "r": KIND_ID}, 8)
        left = make_batches([{"l": 100, "k0": 1}], ["l", "k0"],
                            {"l": KIND_ID, "k0": KIND_ID}, 8)
        left += make_batches([{"l": 101, "k0": 1}], ["l", "k0"],
                             {"l": KIND_ID, "k0": KIND_TERM}, 8)
        with pytest.raises(EngineError, match="ids to terms"):
            list(batch_hash_join(iter(left), right, ["k0"],
                                 context=OperatorContext(join_memory_bytes=0)))


# ------------------------------------------------------------- probe cost
class CountingDict(dict):
    """A bucket dict that counts (or forbids) enumerations of itself."""

    forbid = False

    def __init__(self):
        super().__init__()
        self.enumerations = 0

    def _enumerate(self, method):
        if self.forbid:
            raise AssertionError("exact probe enumerated the bucket dict")
        self.enumerations += 1
        return method()

    def items(self):
        return self._enumerate(super().items)

    def values(self):
        return self._enumerate(super().values)

    def keys(self):
        return self._enumerate(super().keys)

    def __iter__(self):
        return self._enumerate(super().__iter__)


@pytest.fixture
def counted_indexes(monkeypatch):
    """Every KeyIndex the join builds, with a CountingDict as its ``exact``."""
    created = []

    class CountedKeyIndex(join.KeyIndex):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            self.exact = CountingDict()
            created.append(self)

    monkeypatch.setattr(join, "KeyIndex", CountedKeyIndex)
    return created


class TestProbeCost:
    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    @pytest.mark.parametrize("outer", [False, True])
    def test_exact_probe_never_enumerates_buckets(
        self, counted_indexes, monkeypatch, budget, outer
    ):
        monkeypatch.setattr(CountingDict, "forbid", True)
        shared = ["k0", "k1"]
        right = [{"k0": i % 30, "k1": i % 7, "r": 1000 + i} for i in range(300)]
        left = [{"l": 100 + i, "k0": i % 40, "k1": i % 7} for i in range(200)]
        context = BUDGETS[budget]()
        try:
            result = run_join(left, right, shared, outer, context)
        finally:
            context.cleanup()
        assert counted_indexes
        assert result == nested_loop_join(left, right, shared, outer)
        if budget == "spill":
            assert context.counters.spilled_partitions > 0

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_exact_probe_checks_only_wildcard_build_keys(
        self, counted_indexes, monkeypatch, budget
    ):
        monkeypatch.setattr(CountingDict, "forbid", True)
        checks = []
        compatible = join.keys_compatible

        def counting_compatible(probe, build):
            checks.append((probe, build))
            return compatible(probe, build)

        monkeypatch.setattr(join, "keys_compatible", counting_compatible)
        shared = ["k0", "k1"]
        right = [{"k0": i % 20, "k1": i % 5, "r": 1000 + i} for i in range(400)]
        right += [{"k0": None, "k1": 3, "r": 5000}, {"k0": 4, "k1": None, "r": 5001}]
        left = [{"l": 100 + i, "k0": i % 20, "k1": i % 5} for i in range(60)]
        context = BUDGETS[budget]()
        try:
            result = run_join(left, right, shared, False, context)
        finally:
            context.cleanup()
        assert result == nested_loop_join(left, right, shared, False)
        # Only the two wildcard build rows are ever checked, once per probe
        # row; every exact build row comes from one dict lookup unchecked.
        assert len(checks) == 2 * len(left)
        assert {build for _, build in checks} == {(None, 3), (4, None)}
