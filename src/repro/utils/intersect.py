"""Sorted integer set algebra over zero-copy posting windows.

These helpers are the pure-Python analogue of the sorted offset arrays the
paper's C++ implementation iterates over (Figure 9).  Posting data lives in
flat arrays; a *window* is the triple ``(base, lo, hi)`` denoting the
half-open run ``base[lo:hi]`` of a strictly increasing integer array.  The
CSR graph core hands out windows instead of list copies, and the k-way
intersection — the core of the ``+INT`` optimization (Section 4.3), one bulk
IsJoinable test replacing per-candidate binary searches — merges or gallops
directly inside the underlying arrays.

Every function returns a fresh ``list``; it is the one kernel both the
graph's neighbour-type look-ups and the enumerator's ``+INT`` step call.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Sequence, Tuple

#: A zero-copy view of the sorted run ``base[lo:hi]``.
Window = Tuple[Sequence[int], int, int]


def as_window(values: Sequence[int]) -> Window:
    """Wrap a whole sorted sequence as a window."""
    return (values, 0, len(values))


# ------------------------------------------------------------- intersection
def _merge_windows(a: Window, b: Window) -> List[int]:
    """Linear merge intersection of two windows."""
    base_a, i, len_a = a
    base_b, j, len_b = b
    result: List[int] = []
    append = result.append
    while i < len_a and j < len_b:
        x = base_a[i]
        y = base_b[j]
        if x == y:
            append(x)
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return result


def _gallop_windows(small: Window, large: Window) -> List[int]:
    """Intersect a small window against a much larger one.

    For each element of ``small`` a bounded binary search is performed in
    ``large``.  This matches the complexity term ``|CR| * sum(log |adj|)``
    the paper gives for the *original* IsJoinable strategy and is preferred
    automatically by :func:`_intersect_two` when the size ratio is extreme.
    """
    base_s, lo_s, hi_s = small
    base_l, lo, hi = large
    result: List[int] = []
    append = result.append
    for i in range(lo_s, hi_s):
        value = base_s[i]
        j = bisect_left(base_l, value, lo, hi)
        if j < hi and base_l[j] == value:
            append(value)
        lo = j
    return result


def _intersect_two(a: Window, b: Window) -> List[int]:
    """Intersect two windows choosing merge vs galloping by size ratio.

    Mirrors the paper's observation that the modified IsJoinable ``can choose
    the k-way intersection strategy between scanning (k+1) sorted lists and
    performing binary searches``.
    """
    size_a = a[2] - a[1]
    size_b = b[2] - b[1]
    if size_a == 0 or size_b == 0:
        return []
    small, large = (a, b) if size_a <= size_b else (b, a)
    # A 32x imbalance is the classic crossover where galloping wins.
    if (large[2] - large[1]) > 32 * (small[2] - small[1]):
        return _gallop_windows(small, large)
    return _merge_windows(small, large)


def _window_size(window: Window) -> int:
    return window[2] - window[1]


def intersect_windows(windows: Sequence[Window]) -> List[int]:
    """k-way intersection of sorted windows (smallest-first for early exit)."""
    count = len(windows)
    if count == 0:
        return []
    if count == 1:
        base, lo, hi = windows[0]
        return list(base[lo:hi])
    if count == 2:
        # The dominant +INT case (one non-tree edge): skip the sort,
        # _intersect_two orders the pair itself.
        return _intersect_two(windows[0], windows[1])
    ordered = sorted(windows, key=_window_size)
    result = _intersect_two(ordered[0], ordered[1])
    for other in ordered[2:]:
        if not result:
            return []
        result = _intersect_two(as_window(result), other)
    return result


# -------------------------------------------------------------------- union
def _merge_union(a: Window, b: Window) -> List[int]:
    """Union of two windows with duplicates removed."""
    base_a, i, len_a = a
    base_b, j, len_b = b
    result: List[int] = []
    append = result.append
    while i < len_a and j < len_b:
        x = base_a[i]
        y = base_b[j]
        if x == y:
            append(x)
            i += 1
            j += 1
        elif x < y:
            append(x)
            i += 1
        else:
            append(y)
            j += 1
    if i < len_a:
        result.extend(base_a[i:len_a])
    if j < len_b:
        result.extend(base_b[j:len_b])
    return result


def union_windows(windows: Sequence[Window]) -> List[int]:
    """Union of many sorted windows."""
    result: List[int] = []
    for window in windows:
        base, lo, hi = window
        if lo >= hi:
            continue
        if not result:
            result = list(base[lo:hi])
        else:
            result = _merge_union(as_window(result), window)
    return result
