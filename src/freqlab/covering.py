"""Greedy disjoint selection from a collection of integer intervals.

Repeatedly taking the longest interval disjoint from everything already
taken yields a pairwise disjoint subcollection whose total length is at
least one third of the size of the union of the whole collection: every
input interval meets a chosen one at least as long as itself, so the
chosen intervals, each widened by its own length on both sides, cover
the union, and the widening triples the length.

Length ties are broken by smaller left endpoint, then by input order,
which makes the selection deterministic and testable.  Union sizes are
computed by interval merging, never by point enumeration, so endpoints
may be arbitrarily large integers.
"""

from __future__ import annotations

from bisect import bisect_left

from .signal import IntegerInterval, Record, format_int, parse_strict_int


class CoveringSelection(Record):
    """Result of `greedy_disjoint`.

    `chosen` holds indices into the input list, in selection order
    (longest first).  The guarantee is 3 * chosen_length_sum >= union_size.
    """

    __slots__ = ("chosen", "union_size", "chosen_length_sum")


def merged_union_size(intervals: list[IntegerInterval]) -> int:
    """Exact number of integers covered by the union of the intervals."""
    total = 0
    cur_lo: int | None = None
    cur_hi = 0
    for iv in sorted(intervals, key=lambda iv: (iv.lo, iv.hi)):
        if cur_lo is None:
            cur_lo, cur_hi = iv.lo, iv.hi
        elif iv.lo <= cur_hi + 1:
            cur_hi = max(cur_hi, iv.hi)
        else:
            total += cur_hi - cur_lo + 1
            cur_lo, cur_hi = iv.lo, iv.hi
    if cur_lo is not None:
        total += cur_hi - cur_lo + 1
    return total


def greedy_disjoint(intervals: list[IntegerInterval]) -> CoveringSelection:
    """Longest-first disjoint subcollection with the one-third guarantee.

    Processes intervals in order of (length desc, lo asc, input index
    asc) and keeps each one that is disjoint from everything kept so
    far; this reproduces "repeatedly pick the longest disjoint interval"
    with deterministic tie-breaking.

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
    kept: list[tuple[int, int]] = []  # (lo, hi) of the kept intervals, sorted
    chosen: list[int] = []
    length_sum = 0
    for k in order:
        iv = intervals[k]
        pos = bisect_left(kept, (iv.lo,))
        if pos > 0 and kept[pos - 1][1] >= iv.lo:
            continue
        if pos < len(kept) and kept[pos][0] <= iv.hi:
            continue
        kept.insert(pos, (iv.lo, iv.hi))
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
