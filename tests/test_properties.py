"""Property tests of the exact kernel against the brute-force oracles.

`derandomize=True` makes every run draw the same examples, so these
tests are as deterministic as the rest of the suite.
"""

from fractions import Fraction
from unittest.mock import patch

from hypothesis import example, given, settings
from hypothesis import strategies as st

import freqlab.maximal as maximal
from freqlab.levelsets import LEVELSET_MODES, LevelParams, census_members
from freqlab.maximal import (
    TAIL_STEPS,
    BilinearFrequencyResult,
    _candidate_walk,
    _frequencies,
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
# Slopes C <= 1, under which points far from the support can be members.
gentle_slopes = st.sampled_from([Fraction(1), Fraction(999, 1000), Fraction(1, 2), Fraction(2, 7)])

# Two signals that share the centre, where `bilinear_analyze` tries to
# certify E = {0}: either independent, or g a multiple of f's table,
# which pairs most of their points.  Values from 1/3 to 30 make the
# certificate pass at some centres and fail at others; the mass and max
# bounds it uses are tight only when the values differ.
spread_values = st.one_of(
    values, st.fractions(min_value=Fraction(1, 3), max_value=30, max_denominator=3)
)
# Tables on [-60, 60] hold gaps that a block's first radius must not skip.
tables = st.one_of(
    st.dictionaries(st.integers(-8, 8), spread_values, max_size=12),
    st.dictionaries(st.integers(-60, 60), spread_values, max_size=16),
)
# Up to 30 points over [-200, 200] with values up to 30: long tails, which
# wide blocks cover in few window sums far from a tie and fail near one.
wide_signals = st.dictionaries(st.integers(-200, 200), spread_values, min_size=1, max_size=30).map(
    lambda table: Signal.from_pairs(table.items())
)
shared_centre = st.builds(
    lambda table_f, table_g, factor, n, at_f, at_g: (
        Signal.from_pairs({**table_f, n: at_f}.items()),
        Signal.from_pairs(
            {**(table_g if factor is None else {i: v * factor for i, v in table_f.items()}),
             n: at_g}.items()
        ),
        n,
    ),
    tables,
    tables,
    st.one_of(st.none(), st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3)])),
    st.integers(-8, 8),
    spread_values,
    spread_values,
)

PLATEAU = Signal.from_pairs([(i, 1) for i in range(-2, 3)])
STEP = Signal.from_pairs([(0, 1), (1, 2)])
WIDE = Signal.from_pairs([(i, 1 + i % 3) for i in range(-20, 21)])
SPREAD = Signal.from_pairs([(-20, 1), (20, 2)])  # WIDE's hull, two points
TRIO = Signal.from_pairs([(-1, 1), (0, 1), (1, 1)])
NOTCH = Signal.from_pairs([(-1, 3), (0, 1), (1, 3)])
# TRIO's tie at radius 1 under pairs at 10: the top from reach 10 must not clear it.
FAR_TRIO = Signal.from_pairs([(-10, Fraction(1, 3)), (-1, 1), (0, 1), (1, 1), (10, Fraction(1, 3))])
FAR = Signal.from_pairs([(i + 100, 1) for i in range(-2, 3)])
ZERO = Signal.from_pairs([])
GRID = Signal.from_pairs([(i, 1) for i in range(-12, 13, 3)])  # evenly spaced
LATTICE = Signal.from_pairs([(i, 1) for i in range(-3, 6, 2)])  # evenly spaced
# Squares weighted like `squares_power`: a census span of 401 points
# carries the witness from each decided n to the next.
SQUARES = Signal.from_pairs([(k * k, Fraction(1, k)) for k in range(1, 21)])


def first_try_at_step_one():
    """Every walk tries to certify its tail after its first step."""
    return patch.object(maximal, "TAIL_STEPS", 1)


def _data(f):
    return f.indices, f.scaled_values, f.scaled_prefix


def _pieces(lo, hi, cuts):
    """The pieces (a, b) that the cut points in (lo, hi] split [lo, hi] into, in order."""
    ends = sorted({lo, hi + 1, *cuts})
    return [(a, b - 1) for a, b in zip(ends, ends[1:])]


def _walk_span(f, lo, hi):
    return list(_candidate_walk(*_data(f), lo, hi))


def _members_brute_force(f, ratio, n_max):
    """The pairs (n, F) with F <= |n| / ratio over |n| <= n_max, by the oracle."""
    exact = ((n, analyze_brute_force(f, n).frequency) for n in range(-n_max, n_max + 1))
    return [(n, fr) for n, fr in exact if fr <= abs(n) / ratio]


def _walk_values(f, ratio, lo, hi):
    """The members (n, F) one walk over [lo, hi] with slope `ratio` yields."""
    return list(_candidate_walk(*_data(f), lo, hi, ratio.numerator, ratio.denominator))


@DETERMINISTIC
@given(signals, centres, st.integers(0, 30), st.lists(st.integers(0, 30), max_size=4))
@example(PLATEAU, -3, 6, [3])  # radii (0, 1, 2) tie at n = 0
@example(STEP, -1, 3, [1])  # radii (0, 1) tie at n = 0
def test_kernel_over_span_matches_brute_force(f, lo, width, cuts):
    hi = lo + width
    walked = _walk_span(f, lo, hi)
    assert len(walked) == width + 1
    for n, (num, w, ties) in zip(range(lo, hi + 1), walked):
        slow = analyze_brute_force(f, n)
        assert Fraction(num, f.scale * w) == slow.maximal_value
        assert tuple(ties) == slow.extremal_radii
        assert analyze(f, n) == slow
    # A scan walks its span in chunks; splits anywhere give the same rows.
    pieces = _pieces(lo, hi, [lo + cut % (width + 1) for cut in cuts])
    assert [row for a, b in pieces for row in _walk_span(f, a, b)] == walked
    frequencies = [fr for a, b in pieces for fr in _frequencies(*_data(f), a, b, 0, 1)]
    assert frequencies == [ties[0] for *_, ties in walked]


# Four times the draws, so that tie-heavy census signals with a try after
# every step keep at least the 200 draws they had alone.
@settings(DETERMINISTIC, max_examples=4 * DETERMINISTIC.max_examples)
@given(
    st.one_of(census_signals, wide_signals), centres, st.integers(0, 30), st.sampled_from([1, TAIL_STEPS])
)
@example(PLATEAU, -3, 6, 1)  # radii (0, 1, 2) tie at n = 0: the first try must fail
@example(STEP, -1, 3, 1)  # radii (0, 1) tie at n = 0
@example(GRID, -14, 28, 1)
@example(SQUARES, 340, 60, 1)  # right of a 20-point support with a slope
@example(SQUARES, 340, 60, TAIL_STEPS)
def test_certified_tails_match_brute_force(f, lo, width, tail_steps):
    with patch.object(maximal, "TAIL_STEPS", tail_steps):
        walked = _walk_span(f, lo, lo + width)
        analyzed = [analyze(f, n) for n in range(lo, lo + width + 1)]
    for n, (num, w, ties), fast in zip(range(lo, lo + width + 1), walked, analyzed):
        slow = analyze_brute_force(f, n)
        assert Fraction(num, f.scale * w) == slow.maximal_value
        assert tuple(ties) == slow.extremal_radii
        assert fast == slow


@DETERMINISTIC
@given(
    st.one_of(signals, wide_signals), centres, st.integers(0, 6), st.integers(0, 120),
    st.integers(-5, 250), st.none() | st.integers(-120, 250), st.integers(-2, 2),
)
@example(FAR, 0, 0, 0, 10, 5, 0)  # num = 0 with a < end: nothing is strictly below 0
@example(PLATEAU, 0, 0, 7, -4, -5, 0)  # a >= end: no radius to bound
@example(PLATEAU, 0, 0, 2, 1, 0, 0)  # V(2) w = num (2 * 2 + 1): the tie does not pass
@example(PLATEAU, 0, 0, 3, 7, -1, 0)  # every radius past the tie passes
@example(FAR, 0, 0, 0, 200, 102, 0)  # a tie at 102, far inside [a, end), that the descent meets
@example(SQUARES, -10, 3, 20, 380, -10, 0)  # the run [-10, -7] passes: a, then a descent of four
def test_blocks_below_is_exact(f, n0, width, a, length, offset, shift):
    # `_blocks_below` answers exactly whether V(r) w < num (2r + 1) at
    # every r in [a, end), V(r) being the window [n0 - r, n1 + r].  num
    # and w are the average at a radius rho, give or take: rho = a +
    # offset, or with no offset the radius of the largest average in
    # [a, end), so that the threshold ties or nearly ties the answer.
    n1, end = n0 + width, a + length

    def window(r):
        return f.window_sum_scaled(n0 - r, n1 + r)

    if offset is None:
        rho = max(range(a, max(end, a + 1)), key=lambda r: Fraction(window(r), 2 * r + 1))
    else:
        rho = max(a + offset, 0)
    num, w = max(window(rho) + shift, 0), 2 * rho + 1
    exact = all(window(r) * w < num * (2 * r + 1) for r in range(a, end))
    assert maximal._blocks_below(f.indices, f.scaled_prefix, n0, n1, a, end, num, w) is exact


@DETERMINISTIC
@given(census_signals, slopes, st.integers(0, 60))
@example(PLATEAU, Fraction(10**6), 60)  # at n = 0 the witness ties the best
@example(GRID, Fraction(3), 14)  # members n = +-14 attain at r = 2, in the witness block [2, 4]
@example(LATTICE, Fraction(3, 2), 60)
@example(SQUARES, Fraction(2), 200)
@example(SQUARES, Fraction(1001, 1000), 200)
def test_census_with_certified_tails_decides_exactly(f, ratio, n_max):
    with first_try_at_step_one():
        decided = frequency_values(f, IntegerInterval(-n_max, n_max), slope=ratio)
    assert decided == _members_brute_force(f, ratio, n_max)


@DETERMINISTIC
@given(census_signals, slopes, st.integers(0, 60))
@example(PLATEAU, Fraction(1001, 1000), 0)  # n = 0 alone
@example(PLATEAU, Fraction(1001, 1000), 40)
@example(PLATEAU, Fraction(10**6), 60)  # at n = 0 the witness ties the best
@example(GRID, Fraction(3, 2), 40)
@example(GRID, Fraction(3), 14)  # members n = +-14 attain at r = 2, in the witness block [2, 4]
@example(GRID, Fraction(10**6), 40)
@example(LATTICE, Fraction(3, 2), 60)  # at n = -5 the witness ties the best
@example(SQUARES, Fraction(2), 200)
@example(FAR, Fraction(2), 60)  # support right of every n
@example(ZERO, Fraction(2), 5)  # F = 0 everywhere
def test_frequency_values_with_a_slope_decide_exactly(f, ratio, n_max):
    # (n, exact F) wherever F <= |n|/C, in order; no other n.
    decided = frequency_values(f, IntegerInterval(-n_max, n_max), slope=ratio)
    assert decided == _members_brute_force(f, ratio, n_max)


def _spied_census(f, ratio, n_max, tail_steps):
    """The members of a census walk over |n| <= n_max, its carry seeded
    with F(-n_max) as a scan seeds it, and every `_blocks_below` call of
    the walk as (n0, n1, a, end, num, w, passed)."""
    calls, blocks_below = [], maximal._blocks_below

    def spy(idx, prefix, n0, n1, a, end, num, w):
        calls.append((n0, n1, a, end, num, w, blocks_below(idx, prefix, n0, n1, a, end, num, w)))
        return calls[-1][-1]

    carry = analyze_brute_force(f, -n_max).frequency
    with patch.object(maximal, "TAIL_STEPS", tail_steps), patch.object(maximal, "_blocks_below", spy):
        members = list(_candidate_walk(
            *_data(f), -n_max, n_max, ratio.numerator, ratio.denominator, carry
        ))
    assert members == frequency_values(f, IntegerInterval(-n_max, n_max), slope=ratio)
    return members, calls


def _first_improvement_past(f, n, cap):
    """The least radius r > cap whose average beats every smaller radius's,
    by the oracle's buckets: the radius an improvement past cap decides at."""
    gains = [0] * (radius_bound(f, n) + 1)
    for s, v in zip(f.indices, f.scaled_values):
        gains[abs(s - n)] += v
    acc, best_num, best_w = 0, 0, 1
    for r, gain in enumerate(gains):
        acc += gain
        if acc * best_w > best_num * (2 * r + 1):
            if r > cap:
                return r
            best_num, best_w = acc, 2 * r + 1
    raise AssertionError(f"F({n}) <= {cap}")


def _decisions(f, ratio, n_max, members, calls):
    """{n: "one", "run" or "tail"} for every n of the census walk over
    |n| <= n_max decided by a try at n alone before any step, by a try
    at a run of two or more points, or by the witness at a later tail try.

    Replays the walk from n = -n_max with the oracle's members and its
    radii of improvement past cap, so that the carried radius and L are
    known at every try, and checks every `_blocks_below` call on the way:
    each try's span, distance, end, window and rho; that a passing try's
    points get no other call; and that a tail-try witness uses its try's
    (num, w) up to n's own cap."""
    p, q = ratio.numerator, ratio.denominator
    idx, members = f.indices, dict(members)
    by_n = {}
    for call in calls:
        by_n.setdefault(call[0], []).append(call)
    # the walk's distance to a side with no support point
    far = max(n_max, idx[-1]) - min(-n_max, idx[0]) + 1
    decided, run, n = {}, 1, -n_max
    carry = analyze_brute_force(f, n).frequency  # seeded as `_spied_census` seeds it
    while n <= n_max:
        own, mass = by_n.pop(n, []), f.scaled_value_at(n)
        nxt = min((s for s in idx if s > n), default=n_max + 1)
        n1 = n if mass else min(n + run - 1, n_max, nxt - 1, -1 if n < 0 else n_max)
        top = q * max(abs(n), abs(n1)) // p
        rho = max(carry + n1 - n + 1, top + 1)
        a = min((abs(s - m) for s in idx if s != n for m in (n, n1)), default=far)
        num = f.window_sum_scaled(n1 - rho, n + rho) if mass or a <= top else 0
        try_call = (n, n1, a, top + 1, num, 2 * rho + 1)
        if mass and mass * (2 * rho + 1) >= num:  # f(n) >= A: no blocks are tried
            passed = False
        else:
            assert own and own[0][:6] == try_call, (own[:1], try_call)
            passed, own = own[0][6], own[1:]
        if passed:
            assert not own and not by_n.keys() & set(range(n, n1 + 1))
            decided.update(dict.fromkeys(range(n, n1 + 1), "run" if n < n1 else "one"))
            carry, run, n = rho, 2 * run, n1 + 1
            continue
        run = max(run // 2, 1)
        cap = q * abs(n) // p
        # A witness radius exceeds cap; a tail's best is attained within cap.
        witness = [call for call in own if call[5] > 2 * cap + 1]
        tails = [call for call in own if call[5] <= 2 * cap + 1]
        assert own[: len(witness)] == witness  # no tail is tried while the best is below A
        for call in witness:  # from a candidate radius up to n's own cap, against the try's A
            assert call[:2] == (n, n) and call[3:6] == (cap + 1, num, 2 * rho + 1)
            assert call[2] in {abs(s - n) for s in idx}
        assert not any(call[-1] for call in witness[:-1])
        assert all(t_num * (2 * rho + 1) >= num * t_w for *_, t_num, t_w, _ in tails)
        if witness and witness[-1][-1]:
            assert not tails and n not in members
            decided[n], carry = "tail", rho
        elif n not in members:
            carry = _first_improvement_past(f, n, cap)
        n += 1
    assert not by_n  # every call belongs to a point the walk stepped at
    return decided


@DETERMINISTIC
@given(census_signals, slopes, st.integers(0, 60), st.sampled_from([1, TAIL_STEPS]))
@example(SQUARES, Fraction(2), 200, 1)
@example(SQUARES, Fraction(2), 200, TAIL_STEPS)
def test_witness_blocks_decide_exactly(f, ratio, n_max, tail_steps):
    members, calls = _spied_census(f, ratio, n_max, tail_steps)
    assert members == _members_brute_force(f, ratio, n_max)
    decided = _decisions(f, ratio, n_max, members, calls)
    assert not decided.keys() & {n for n, _ in members}
    if f is SQUARES:  # the pinned examples: tries at one point and at runs, and tail-try witnesses
        assert set(decided.values()) == {"one", "run", "tail"}


@DETERMINISTIC
@given(census_signals, st.one_of(slopes, gentle_slopes), st.integers(0, 60),
       st.sampled_from([1, TAIL_STEPS]))
@example(SQUARES, Fraction(5), 200, 1)
@example(SQUARES, Fraction(5), 200, TAIL_STEPS)
@example(SQUARES, Fraction(1001, 1000), 200, 1)  # runs left of 0
@example(SQUARES, Fraction(1), 200, TAIL_STEPS)
def test_runs_decide_exactly(f, ratio, n_max, tail_steps):
    members, calls = _spied_census(f, ratio, n_max, tail_steps)
    assert members == _members_brute_force(f, ratio, n_max)
    decided = _decisions(f, ratio, n_max, members, calls)
    assert not decided.keys() & {n for n, _ in members}
    if f is SQUARES:
        # tries at one point and at runs both decide, runs at least 40% of
        # the non-members, and some run needs its window A to pass
        kinds = list(decided.values())
        assert "one" in kinds
        assert 10 * kinds.count("run") >= 4 * (2 * n_max + 1 - len(members))
        assert any(call[-1] and call[0] < call[1] and call[2] < call[3] for call in calls)


@DETERMINISTIC
@given(
    census_signals, slopes, centres, st.integers(0, 60), st.lists(st.integers(0, 60), max_size=6),
    st.integers(0, 60), st.integers(0, 60),
)
@example(GRID, Fraction(3), -14, 28, [1], 0, 0)
@example(PLATEAU, Fraction(10**6), -60, 120, [60], 0, 0)  # a piece starts at n = 0
@example(SQUARES, Fraction(2), -200, 400, [300], 0, 0)
@example(SQUARES, Fraction(2), -200, 400, [60], 0, 0)  # cuts the run [-169, -138] of the whole walk
@example(SQUARES, Fraction(2), -200, 400, [], 7, 90)
@example(SQUARES, Fraction(1001, 1000), -200, 400, [30, 199, 200, 201], 3, 5)
def test_frequency_values_with_a_slope_split_anywhere(
    f, ratio, lo, width, cuts, in_members, in_runs
):
    # Each walk carries its witness and its run length from point to point,
    # and each chunk of a scan seeds its carry with F at its first point.
    # The carry only picks a try's radius, so splits anywhere, always one
    # inside a stretch of members and one inside a run of non-members
    # where there are such, give the members of one unseeded walk.
    hi = lo + width
    whole = _walk_values(f, ratio, lo, hi)
    members = {n for n, _ in whole}
    stretches = [n for n in range(lo + 1, hi + 1) if {n - 1, n} <= members]
    runs = [n for n in range(lo + 1, hi + 1) if not {n - 1, n} & members]
    if f is SQUARES:
        assert stretches and runs
    inside = [seq[k % len(seq)] for seq, k in ((stretches, in_members), (runs, in_runs)) if seq]
    pieces = _pieces(lo, hi, [*inside, *(lo + cut % (width + 1) for cut in cuts)])
    p, q = ratio.numerator, ratio.denominator
    assert [row for a, b in pieces for row in _frequencies(*_data(f), a, b, p, q)] == whole
    assert frequency_values(f, IntegerInterval(lo, hi), slope=ratio) == whole


@DETERMINISTIC
@given(census_signals, gentle_slopes, st.integers(0, 60))
@example(PLATEAU, Fraction(1), 60)
@example(FAR, Fraction(1, 2), 60)  # support right of every n
@example(SQUARES, Fraction(999, 1000), 200)
def test_frequency_values_with_a_slope_at_most_one_decide_exactly(f, ratio, n_max):
    decided = frequency_values(f, IntegerInterval(-n_max, n_max), slope=ratio)
    assert decided == _members_brute_force(f, ratio, n_max)


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
        members_k, members_s = census_members(f, LevelParams(ratio, mode=mode), n_max)
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
@given(shared_centre)
@example((PLATEAU, PLATEAU, 0))  # radii (0, 1, 2) tie: the certificate must fail
@example((TRIO, TRIO, 0))  # radii (0, 1) tie, and the bound at radius 1 is exact
@example((FAR_TRIO, FAR_TRIO, 0))  # radii (0, 1) tie below the top at reach 10
@example((STEP, STEP, 0))  # no pair beside the centre: radius 0 alone
@example((NOTCH, NOTCH, 0))  # radius 1 beats radius 0
@example((WIDE, SPREAD, 20))  # f denser than g
@example((SPREAD, WIDE, -20))  # g denser than f
@example((Signal.from_pairs([(0, 5), (3, 1)]), Signal.from_pairs([(-3, 1), (0, 5)]), 0))
def test_bilinear_certificate_matches_brute_force(case):
    f, g, n = case
    with first_try_at_step_one():
        assert bilinear_analyze(f, g, n) == bilinear_analyze_brute_force(f, g, n)
        assert bilinear_analyze(f, f, n) == bilinear_analyze_brute_force(f, f, n)


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
