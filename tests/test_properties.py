"""Property tests of the exact kernel against the brute-force oracles.

`derandomize=True` makes every run draw the same examples, so these
tests are as deterministic as the rest of the suite.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from freqlab.levelsets import LEVELSET_MODES, LevelParams, _census
from freqlab.maximal import (
    BilinearFrequencyResult,
    _candidate_walk,
    analyze,
    analyze_brute_force,
    bilinear_analyze,
    bilinear_analyze_brute_force,
    bilinear_average,
    frequency_values,
    radius_bound,
)
from freqlab.signal import IntegerInterval, Signal, dump_signal, parse_signal

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=200)

# Few distinct small values on a narrow index range make equal averages
# at several radii (ties) common.
values = st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3)
signals = st.dictionaries(st.integers(-30, 30), values, min_size=1, max_size=12).map(
    lambda table: Signal.from_pairs(table.items())
)
# Centres reach well past the support hull on both sides.
centres = st.integers(-60, 60)
# Possibly empty signals of up to 40 points, shifted by up to 80: two of
# them have hulls that overlap, nest or miss each other, and differ in size.
shifted = st.builds(
    lambda table, offset: Signal.from_pairs((i + offset, v) for i, v in table.items()),
    st.dictionaries(st.integers(-30, 30), values, max_size=40),
    st.integers(-80, 80),
)
# Beyond every shifted hull on both sides.
wide_centres = st.integers(-130, 130)
# Equal values on an evenly spaced support: averages tie at many radii.
evenly_spaced = st.builds(
    lambda start, step, count, value: Signal.from_pairs(
        (start + k * step, value) for k in range(count)
    ),
    st.integers(-30, 30),
    st.integers(1, 6),
    st.integers(1, 10),
    values,
)
census_signals = st.one_of(signals, evenly_spaced)
# Census slopes C > 1: just above 1, moderate, and large.
slopes = st.one_of(
    st.sampled_from([Fraction(1001, 1000), Fraction(3, 2), Fraction(2), Fraction(10**6)]),
    st.fractions(min_value=Fraction(51, 50), max_value=50, max_denominator=50),
)

PLATEAU = Signal.from_pairs([(i, 1) for i in range(-2, 3)])
STEP = Signal.from_pairs([(0, 1), (1, 2)])
WIDE = Signal.from_pairs([(i, 1 + i % 3) for i in range(-20, 21)])
SPREAD = Signal.from_pairs([(-20, 1), (20, 2)])  # WIDE's hull, two points
FAR = Signal.from_pairs([(i + 100, 1) for i in range(-2, 3)])
ZERO = Signal.from_pairs([])
GRID = Signal.from_pairs([(i, 1) for i in range(-12, 13, 3)])  # evenly spaced
LATTICE = Signal.from_pairs([(i, 1) for i in range(-3, 6, 2)])  # evenly spaced
# Squares weighted like `squares_power`: a census span of 401 points
# carries the witness from each decided n to the next.
SQUARES = Signal.from_pairs([(k * k, Fraction(1, k)) for k in range(1, 21)])


def _walk_span(f, lo, hi):
    return list(_candidate_walk(f.indices, f.scaled_values, f.scaled_l1, lo, hi))


def _walk_values(f, ratio, lo, hi):
    """The scan values of one walk over [lo, hi] with slope `ratio`."""
    walk = _candidate_walk(
        f.indices, f.scaled_values, f.scaled_l1, lo, hi, ratio.numerator, ratio.denominator
    )
    return [ties[0] for _, _, ties in walk]


@DETERMINISTIC
@given(signals, centres, st.integers(0, 30), st.integers(0, 30))
@example(PLATEAU, -3, 6, 3)  # radii (0, 1, 2) tie at n = 0
@example(STEP, -1, 3, 1)  # radii (0, 1) tie at n = 0
def test_kernel_over_span_matches_brute_force(f, lo, width, cut):
    hi = lo + width
    walked = _walk_span(f, lo, hi)
    assert len(walked) == width + 1
    for n, (num, w, ties) in zip(range(lo, hi + 1), walked):
        slow = analyze_brute_force(f, n)
        assert Fraction(num, f.scale * w) == slow.maximal_value
        assert tuple(ties) == slow.extremal_radii
        assert analyze(f, n) == slow
    # A scan walks its span in chunks; a split anywhere gives the same rows.
    cut = lo + cut % (width + 1)
    assert _walk_span(f, lo, cut - 1) + _walk_span(f, cut, hi) == walked


@DETERMINISTIC
@given(census_signals, slopes, st.integers(0, 60))
@example(PLATEAU, Fraction(1001, 1000), 0)  # n = 0 alone
@example(PLATEAU, Fraction(1001, 1000), 40)
@example(PLATEAU, Fraction(10**6), 60)  # at n = 0 the witness ties the best
@example(GRID, Fraction(3, 2), 40)
@example(GRID, Fraction(3), 14)  # members n = +-14 attain at r = 2, one below the stop
@example(GRID, Fraction(10**6), 40)
@example(LATTICE, Fraction(3, 2), 60)  # at n = -5 the witness ties the best
@example(SQUARES, Fraction(2), 200)
@example(FAR, Fraction(2), 60)  # support right of every n
@example(ZERO, Fraction(2), 5)  # F = 0 everywhere
def test_frequency_values_with_a_slope_decide_exactly(f, ratio, n_max):
    # Exact F wherever F <= |n|/C; elsewhere floor(|n|/C) + 1, which lies
    # in (|n|/C, F] and depends on n alone.
    p, q = ratio.numerator, ratio.denominator
    decided = frequency_values(f, IntegerInterval(-n_max, n_max), slope=ratio)
    for n, value in zip(range(-n_max, n_max + 1), decided):
        exact = analyze_brute_force(f, n).frequency
        if exact <= abs(n) / ratio:
            assert value == exact
        else:
            assert value == q * abs(n) // p + 1


@DETERMINISTIC
@given(census_signals, slopes, centres, st.integers(0, 60), st.integers(0, 60))
@example(GRID, Fraction(3), -14, 28, 1)
@example(PLATEAU, Fraction(10**6), -60, 120, 60)  # the second walk starts at n = 0
@example(SQUARES, Fraction(2), -200, 400, 300)
def test_frequency_values_with_a_slope_split_anywhere(f, ratio, lo, width, cut):
    # Each walk carries its witness from point to point; a split anywhere
    # starts a fresh carry and still gives the same values.
    hi = lo + width
    whole = _walk_values(f, ratio, lo, hi)
    cut = lo + cut % (width + 1)
    assert _walk_values(f, ratio, lo, cut - 1) + _walk_values(f, ratio, cut, hi) == whole
    assert frequency_values(f, IntegerInterval(lo, hi), slope=ratio) == whole


@DETERMINISTIC
@given(census_signals, slopes, st.integers(0, 60))
@example(PLATEAU, Fraction(1001, 1000), 0)  # n = 0 alone
@example(GRID, Fraction(1001, 1000), 40)
@example(GRID, Fraction(10**6), 40)
@example(STEP, Fraction(2), 30)
@example(ZERO, Fraction(2), 5)
def test_census_members_match_brute_force(f, ratio, n_max):
    exact = {n: analyze_brute_force(f, n).frequency for n in range(-n_max, n_max + 1)}
    linear = [n for n, fr in exact.items() if fr <= abs(n) / ratio]
    band = [n for n in linear if abs(n) / (2 * ratio) <= exact[n]]
    for mode in LEVELSET_MODES:
        members_k, members_s = _census(f, LevelParams(ratio, mode=mode), n_max)
        if mode == "theta-zero":
            assert members_k == [n for n in linear if exact[n] == 0]
        else:
            assert members_k == linear
        assert members_s == band


@DETERMINISTIC
@given(shifted, shifted, wide_centres)
@example(PLATEAU, PLATEAU, 0)
@example(STEP, STEP, 0)
@example(SPREAD, WIDE, 0)  # f sparser than g
@example(WIDE, SPREAD, 0)  # g sparser than f
@example(PLATEAU, FAR, 0)  # disjoint hulls, no pair sums to 2n
@example(PLATEAU, FAR, 50)  # disjoint hulls, pairs about their midpoint
@example(PLATEAU, WIDE, 125)  # centre beyond both hulls
@example(ZERO, PLATEAU, 0)
@example(PLATEAU, ZERO, 0)
def test_bilinear_analyze_matches_brute_force(f, g, n):
    assert bilinear_analyze(f, g, n) == bilinear_analyze_brute_force(f, g, n)


@DETERMINISTIC
@given(shifted, shifted, wide_centres)
@example(PLATEAU, PLATEAU, 0)  # radii (0, 1, 2) tie
@example(WIDE, WIDE, 0)
@example(PLATEAU, FAR, 0)  # disjoint hulls, no pair sums to 2n: degenerate
@example(ZERO, PLATEAU, 0)
@example(PLATEAU, ZERO, 0)
def test_bilinear_oracle_is_the_argmax_of_direct_window_sums(f, g, n):
    degenerate = BilinearFrequencyResult(Fraction(0), None, 0, degenerate=True)
    expected = degenerate
    if not (f.is_zero or g.is_zero):
        averages, window = [], Fraction(0)
        for r in range(radius_bound(f, n) + 1):
            window += sum(f.value_at(n - k) * g.value_at(n + k) for k in {r, -r})
            averages.append(window / (2 * r + 1))
        best = max(averages)
        ties = tuple(r for r, value in enumerate(averages) if value == best)
        if best:
            expected = BilinearFrequencyResult(best, ties, ties[0])
    assert bilinear_analyze_brute_force(f, g, n) == expected


@DETERMINISTIC
@given(shifted, shifted, wide_centres, st.integers(0, 150))
@example(PLATEAU, FAR, 50, 49)  # the pairs at k = +-50 sit just outside
@example(ZERO, PLATEAU, 0, 3)
def test_bilinear_average_is_the_direct_window_sum(f, g, n, r):
    direct = sum(
        (f.value_at(n - k) * g.value_at(n + k) for k in range(-r, r + 1)), Fraction(0)
    )
    assert bilinear_average(f, g, n, r) == direct / (2 * r + 1)


@DETERMINISTIC
@given(
    st.dictionaries(
        st.integers(-(4**105), 4**105),
        st.fractions(max_denominator=10**40),
        max_size=20,
    ).map(lambda table: Signal.from_pairs(table.items()))
)
def test_dump_parse_round_trip(f):
    assert parse_signal(dump_signal(f)) == f
