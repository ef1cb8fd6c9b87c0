"""Greedy disjoint selection from a collection of integer intervals.

Repeatedly taking the longest interval disjoint from everything already
taken yields a pairwise disjoint subcollection whose total length is at
least one third of the size of the union of the whole collection: every
input interval meets a chosen one at least as long as itself, so the
chosen intervals, each widened by its own length on both sides, cover
the union, and the widening triples the length.

Length ties are broken by smaller left endpoint, then by input order,
which makes the selection deterministic and testable.  Union sizes are
counted by one sweep in order of left end, never by point enumeration,
so endpoints may be arbitrarily large integers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .signal import IntegerInterval, Record, format_int, parse_strict_int


class CoveringSelection(Record):
    """Result of `greedy_disjoint`.

    `chosen` holds indices into the input list, in selection order
    (longest first).  The guarantee is 3 * chosen_length_sum >= union_size.
    """

    __slots__ = ("chosen", "union_size", "chosen_length_sum")


def merged_union_size(intervals: list[IntegerInterval]) -> int:
    """Exact number of integers in the union: a sweep by left end counts
    each interval's integers past `reach`, the largest right end so far."""
    total = 0
    reach: int | None = None
    for iv in sorted(intervals, key=lambda iv: iv.lo):
        if reach is None or iv.hi > reach:
            lo = iv.lo if reach is None or iv.lo > reach else reach + 1
            total += iv.hi - lo + 1
            reach = iv.hi
    return total


def greedy_disjoint(intervals: list[IntegerInterval]) -> CoveringSelection:
    """Longest-first disjoint subcollection with the one-third guarantee.

    Processes intervals in order of (length desc, lo asc, input index
    asc) and keeps each one that lies in one gap between the intervals
    kept so far; this reproduces "repeatedly pick the longest disjoint
    interval" with deterministic tie-breaking.

    >>> sel = greedy_disjoint([IntegerInterval(0, 9), IntegerInterval(5, 14),
    ...                        IntegerInterval(10, 19)])
    >>> sel.chosen, sel.chosen_length_sum, sel.union_size
    ((0, 2), 20, 20)
    """
    if not intervals:
        raise ValueError("empty interval collection")
    order = sorted(
        range(len(intervals)),
        key=lambda k: (-intervals[k].length, intervals[k].lo, k),
    )
    ends: list[int] = []  # lo, hi, lo, hi, ... of the kept intervals, sorted
    chosen: list[int] = []
    length_sum = 0
    for k in order:
        iv = intervals[k]
        # disjoint exactly when lo falls between kept intervals (an even
        # count of ends lies below it) and no kept end lies in [lo, hi]
        pos = bisect_left(ends, iv.lo)
        if pos % 2 == 0 and pos == bisect_right(ends, iv.hi, pos):
            ends[pos:pos] = iv.lo, iv.hi
            chosen.append(k)
            length_sum += iv.length
    return CoveringSelection(tuple(chosen), merged_union_size(intervals), length_sum)


def triple(interval: IntegerInterval) -> IntegerInterval:
    """The interval widened by its own length on each side.

    >>> triple(IntegerInterval(3, 5))
    [0, 8]
    """
    length = interval.length
    return IntegerInterval(interval.lo - length, interval.hi + length)


def parse_intervals(text: str) -> list[IntegerInterval]:
    """Parse the intervals text format: one ``<lo> <hi>`` pair per line,
    with ``#`` comments and blank lines ignored."""
    intervals: list[IntegerInterval] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {number}: expected '<lo> <hi>', got {raw!r}")
        try:
            lo, hi = parse_strict_int(fields[0]), parse_strict_int(fields[1])
        except ValueError:
            raise ValueError(f"line {number}: bad integer in {raw!r}") from None
        try:
            intervals.append(IntegerInterval(lo, hi))
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
    return intervals


def read_intervals(path) -> list[IntegerInterval]:
    """Read an intervals text file; see `parse_intervals`."""
    with open(path, "r", encoding="ascii") as handle:
        return parse_intervals(handle.read())


def dump_intervals(intervals: list[IntegerInterval]) -> str:
    """Serialize intervals in the text format accepted by `parse_intervals`."""
    return "".join(f"{format_int(iv.lo)} {format_int(iv.hi)}\n" for iv in intervals)
