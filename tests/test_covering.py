import random

import pytest

from freqlab.covering import (
    dump_intervals,
    greedy_disjoint,
    merged_union_size,
    parse_intervals,
    read_intervals,
    triple,
)
from freqlab.signal import IntegerInterval
from freqlab.verify import random_intervals


def iv(lo, hi):
    return IntegerInterval(lo, hi)


class TestGreedyDisjoint:
    def test_already_disjoint(self):
        sel = greedy_disjoint([iv(0, 4), iv(10, 14)])
        assert set(sel.chosen) == {0, 1}
        assert sel.chosen_length_sum == 10
        assert sel.union_size == 10

    def test_nested(self):
        sel = greedy_disjoint([iv(0, 10), iv(2, 4)])
        assert sel.chosen == (0,)
        assert sel.chosen_length_sum == 11
        assert 3 * sel.chosen_length_sum >= sel.union_size == 11

    def test_chain_with_tie_break(self):
        # three length-10 intervals; leftmost wins ties, middle one is blocked
        sel = greedy_disjoint([iv(0, 9), iv(5, 14), iv(10, 19)])
        assert sel.chosen == (0, 2)
        assert sel.chosen_length_sum == 20
        assert sel.union_size == 20

    def test_longest_first(self):
        sel = greedy_disjoint([iv(0, 1), iv(0, 5)])
        assert sel.chosen == (1,)

    def test_tie_break_by_input_order(self):
        sel = greedy_disjoint([iv(3, 5), iv(3, 5)])
        assert sel.chosen == (0,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            greedy_disjoint([])

    def test_huge_coordinates(self):
        base = 4**100
        sel = greedy_disjoint([iv(base, base + 9), iv(base + 5, base + 20)])
        assert sel.chosen == (1,)
        assert sel.union_size == 21

    def test_random_invariants(self):
        rng = random.Random(42)
        for _ in range(300):
            intervals = random_intervals(rng, max_count=30, coordinate_span=10**4)
            sel = greedy_disjoint(intervals)
            chosen = sorted((intervals[k] for k in sel.chosen), key=lambda x: x.lo)
            # pairwise disjoint
            assert all(a.hi < b.lo for a, b in zip(chosen, chosen[1:]))
            # one-third mass bound, exactly
            assert 3 * sel.chosen_length_sum >= sel.union_size
            # every input meets a chosen interval at least as long as itself
            for candidate in intervals:
                assert any(
                    candidate.lo <= c.hi and c.lo <= candidate.hi
                    and c.length >= candidate.length
                    for c in chosen
                )
            # tripled chosen intervals cover the union of the inputs
            tripled = [triple(c) for c in chosen]
            assert merged_union_size(tripled + intervals) == merged_union_size(tripled)

    def test_deterministic(self):
        rng = random.Random(1)
        intervals = random_intervals(rng)
        assert greedy_disjoint(intervals).chosen == greedy_disjoint(intervals).chosen


class TestTriple:
    def test_examples(self):
        assert triple(iv(0, 0)) == iv(-1, 1)
        assert triple(iv(3, 5)) == iv(0, 8)
        assert triple(iv(-2, 1)) == iv(-6, 5)

    def test_length_triples(self):
        assert triple(iv(7, 13)).length == 3 * iv(7, 13).length


class TestUnionSize:
    def test_merging(self):
        assert merged_union_size([iv(0, 4), iv(3, 9)]) == 10
        assert merged_union_size([iv(0, 4), iv(5, 9)]) == 10
        assert merged_union_size([iv(0, 4), iv(6, 9)]) == 9

    def test_against_point_enumeration(self):
        rng = random.Random(8)
        for _ in range(100):
            intervals = random_intervals(rng, max_count=10, coordinate_span=200)
            points = set()
            for i in intervals:
                points.update(range(i.lo, i.hi + 1))
            assert merged_union_size(intervals) == len(points)


class TestIntervalsFormat:
    def test_parse(self):
        text = "# comment\n0 4\n\n10 14\n"
        assert parse_intervals(text) == [iv(0, 4), iv(10, 14)]

    def test_round_trip(self):
        intervals = [iv(-5, 5), iv(7, 7)]
        assert parse_intervals(dump_intervals(intervals)) == intervals

    def test_round_trip_past_the_str_limit(self):
        text = "-1" + "0" * 5000 + " 7\n5 1" + "9" * 6000 + "\n"
        assert dump_intervals(parse_intervals(text)) == text

    def test_bad_line_reported(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_intervals("0 4\nnot an interval\n")

    def test_inverted_pair_reported(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_intervals("4 0\n")

    def test_file_io(self, tmp_path):
        path = tmp_path / "intervals.txt"
        path.write_text("0 9\n10 19\n")
        assert read_intervals(path) == [iv(0, 9), iv(10, 19)]
