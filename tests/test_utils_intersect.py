"""The sorted-window kernel: unit and property-based tests.

``intersect_windows`` and ``union_windows`` are the only set operations the
engine uses, so every case drives them: k = 0…4 operands, empty operands,
size ratios on both sides of the 32× gallop switch, windows at offsets
inside one shared base, and a ``memoryview``-cast base as on a graph
attached from shared memory.
"""

from array import array

import pytest
from hypothesis import given, strategies as st

from repro.utils import intersect
from repro.utils.intersect import as_window, intersect_windows, union_windows

sorted_ints = st.lists(st.integers(min_value=0, max_value=200), max_size=60).map(
    lambda values: sorted(set(values))
)


def _packed(lists):
    """Lay ``lists`` back to back in one flat list; one window per list."""
    flat = []
    windows = []
    for values in lists:
        windows.append((flat, len(flat), len(flat) + len(values)))
        flat.extend(values)
    return flat, windows


def _over_memoryview(flat, windows):
    """The same windows over a ``memoryview`` cast of ``flat``, the base type
    of a shared-memory-attached graph."""
    view = memoryview(array("q", flat).tobytes()).cast("q")
    return [(view, lo, hi) for _, lo, hi in windows]


def _expected_intersection(lists):
    return sorted(set.intersection(*map(set, lists))) if lists else []


def _expected_union(lists):
    return sorted(set().union(*map(set, lists)))


class TestIntersect:
    def test_no_windows(self):
        assert intersect_windows([]) == []

    def test_single_window_copies(self):
        flat = [1, 5, 9, 12]
        result = intersect_windows([(flat, 1, 3)])
        assert result == [5, 9]
        result.append(99)
        assert flat == [1, 5, 9, 12]

    def test_basic(self):
        assert intersect_windows([as_window([1, 2, 3, 4]), as_window([2, 4, 6])]) == [2, 4]

    def test_disjoint(self):
        assert intersect_windows([as_window([1, 3]), as_window([2, 4])]) == []

    def test_three_way(self):
        lists = [[1, 2, 3, 4], [2, 3, 4], [0, 2, 4, 8]]
        assert intersect_windows([as_window(lst) for lst in lists]) == [2, 4]

    def test_four_way(self):
        lists = [[1, 2, 3, 4, 7], [2, 3, 4, 7], [0, 2, 4, 7, 8], [2, 7, 9]]
        assert intersect_windows([as_window(lst) for lst in lists]) == [2, 7]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_empty_operand(self, k):
        full = [1, 2, 3]
        for empty_at in range(k):
            lists = [full] * k
            lists[empty_at] = []
            assert intersect_windows([as_window(lst) for lst in lists]) == []

    def test_many_smallest_first_early_exit(self, monkeypatch):
        """k ≥ 3 intersects the two smallest operands first, so an empty one
        ends the step after a single pairwise call."""
        calls = []
        original = intersect._intersect_two

        def spy(a, b):
            calls.append((a[2] - a[1], b[2] - b[1]))
            return original(a, b)

        monkeypatch.setattr(intersect, "_intersect_two", spy)
        lists = [[1, 2, 3, 4], [2, 3], [], [0, 2, 3, 8]]
        assert intersect_windows([as_window(lst) for lst in lists]) == []
        assert calls == [(0, 2)]

    def test_galloping_equals_merge(self):
        small = as_window([5, 100, 150])
        large = as_window(list(range(0, 200, 2)))
        assert intersect._gallop_windows(small, large) == [100, 150]
        assert intersect._merge_windows(small, large) == [100, 150]

    @pytest.mark.parametrize(
        "large_size, strategy",
        [(96, "_merge_windows"), (97, "_gallop_windows")],
        ids=["ratio-32-merges", "ratio-above-32-gallops"],
    )
    def test_gallop_switch(self, monkeypatch, large_size, strategy):
        """Three against 96 (exactly 32×) merges; against 97 it gallops —
        whichever side holds the small operand."""
        small = [5, 64, 150]
        large = list(range(0, 2 * large_size, 2))
        calls = []
        original = getattr(intersect, strategy)

        def spy(*args):
            calls.append(strategy)
            return original(*args)

        monkeypatch.setattr(intersect, strategy, spy)
        expected = sorted(set(small) & set(large))
        assert intersect_windows([as_window(small), as_window(large)]) == expected
        assert intersect_windows([as_window(large), as_window(small)]) == expected
        assert calls == [strategy, strategy]


class TestUnionWindows:
    def test_no_windows(self):
        assert union_windows([]) == []

    def test_single_window_copies(self):
        flat = [1, 5, 9, 12]
        result = union_windows([(flat, 1, 3)])
        assert result == [5, 9]
        result.append(99)
        assert flat == [1, 5, 9, 12]

    def test_merges_and_dedups(self):
        assert union_windows([as_window([1, 3, 5]), as_window([1, 2, 5, 7])]) == [1, 2, 3, 5, 7]

    def test_three_and_four_way(self):
        lists = [[1], [2], [1, 3], [0, 3, 9]]
        assert union_windows([as_window(lst) for lst in lists[:3]]) == [1, 2, 3]
        assert union_windows([as_window(lst) for lst in lists]) == [0, 1, 2, 3, 9]

    def test_empty_operands_are_skipped(self):
        assert union_windows([as_window([]), as_window([2, 4]), as_window([])]) == [2, 4]
        assert union_windows([as_window([]), as_window([])]) == []


class TestWindows:
    """Zero-copy (base, lo, hi) windows over one shared flat base."""

    FLAT = [1, 2, 3, 4, 10, 2, 3, 5, 9, 0, 3, 4, 9]

    def test_intersect_windows_inside_shared_array(self):
        a = (self.FLAT, 0, 5)   # [1, 2, 3, 4, 10]
        b = (self.FLAT, 5, 9)   # [2, 3, 5, 9]
        c = (self.FLAT, 9, 13)  # [0, 3, 4, 9]
        assert intersect_windows([a, b]) == [2, 3]
        assert intersect_windows([a, b, c]) == [3]

    def test_window_bounds_are_respected(self):
        # 4 and 10 sit in the base just outside the window [2, 3, 5, 9].
        assert intersect_windows([(self.FLAT, 5, 9), as_window([4, 5, 10])]) == [5]

    def test_intersect_windows_empty_window_short_circuits(self):
        assert intersect_windows([(self.FLAT, 0, 5), (self.FLAT, 3, 3)]) == []

    def test_union_windows(self):
        assert union_windows([(self.FLAT, 0, 4), (self.FLAT, 5, 9)]) == [1, 2, 3, 4, 5, 9]

    def test_memoryview_base(self):
        windows = [(self.FLAT, 0, 5), (self.FLAT, 5, 9), (self.FLAT, 9, 13)]
        views = _over_memoryview(self.FLAT, windows)
        assert intersect_windows(views[:1]) == [1, 2, 3, 4, 10]
        assert intersect_windows(views[:2]) == [2, 3]
        assert intersect_windows(views) == [3]
        assert union_windows(views) == [0, 1, 2, 3, 4, 5, 9, 10]
        for result in (intersect_windows(views[:1]), union_windows(views)):
            assert type(result) is list

    @given(sorted_ints)
    def test_as_window_roundtrip(self, values):
        window = as_window(values)
        assert window == (values, 0, len(values))
        assert intersect_windows([window]) == values
        assert intersect_windows([window, as_window(list(values))]) == values
        assert union_windows([window]) == values

    @given(st.lists(sorted_ints, min_size=1, max_size=5))
    def test_windows_match_list_semantics(self, lists):
        _, windows = _packed(lists)
        assert intersect_windows(windows) == _expected_intersection(lists)
        assert union_windows(windows) == _expected_union(lists)

    @given(st.lists(sorted_ints, max_size=4))
    def test_memoryview_base_matches_list_base(self, lists):
        flat, windows = _packed(lists)
        views = _over_memoryview(flat, windows)
        assert intersect_windows(views) == intersect_windows(windows)
        assert union_windows(views) == union_windows(windows)


class TestProperties:
    @given(sorted_ints, sorted_ints)
    def test_intersection_matches_set_semantics(self, a, b):
        assert intersect_windows([as_window(a), as_window(b)]) == sorted(set(a) & set(b))

    @given(sorted_ints, sorted_ints)
    def test_union_matches_set_semantics(self, a, b):
        assert union_windows([as_window(a), as_window(b)]) == sorted(set(a) | set(b))

    @given(sorted_ints, sorted_ints)
    def test_adaptive_matches_merge(self, a, b):
        """Whichever strategy the size ratio picks, the pair step agrees with
        a plain merge."""
        large = sorted(set(range(0, 400, 3)) | set(b))
        for x, y in ((a, b), (a, large), (large, a)):
            expected = intersect._merge_windows(as_window(x), as_window(y))
            assert intersect._intersect_two(as_window(x), as_window(y)) == expected

    @given(
        st.lists(st.integers(min_value=0, max_value=3000), max_size=4).map(
            lambda values: sorted(set(values))
        ),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=1, max_value=2),
    )
    def test_skewed_intersection_matches_set_semantics(self, small, offset, step):
        """At least 1,500 against at most 4: past the gallop switch."""
        large = list(range(offset, 3000, step))
        expected = sorted(set(small) & set(large))
        assert intersect_windows([as_window(small), as_window(large)]) == expected
        assert intersect_windows([as_window(large), as_window(small)]) == expected

    @given(st.lists(sorted_ints, max_size=5))
    def test_kway_intersection_matches_set_semantics(self, lists):
        assert intersect_windows([as_window(lst) for lst in lists]) == _expected_intersection(
            lists
        )

    @given(st.lists(sorted_ints, max_size=5))
    def test_kway_union_matches_set_semantics(self, lists):
        assert union_windows([as_window(lst) for lst in lists]) == _expected_union(lists)

    @given(st.lists(sorted_ints, max_size=5))
    def test_results_stay_sorted_unique(self, lists):
        for result in (
            intersect_windows([as_window(lst) for lst in lists]),
            union_windows([as_window(lst) for lst in lists]),
        ):
            assert all(result[i] < result[i + 1] for i in range(len(result) - 1))
