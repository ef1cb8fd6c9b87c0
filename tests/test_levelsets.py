from fractions import Fraction

import pytest

from freqlab.families import spike_pair, squares_power, stretched_log
from freqlab.levelsets import (
    CENSUS_CSV_HEADER,
    LevelParams,
    census_band,
    census_csv,
    census_sublinear,
    census_threshold,
    density_curves,
    log_density_string,
)
from freqlab.maximal import analyze, analyze_brute_force
from freqlab.signal import Signal


def F(n, d=1):
    return Fraction(n, d)


DELTA = Signal.from_pairs([(0, 1)])
ZERO = Signal.from_pairs([])
TWO = LevelParams(F(2))


class TestLevelParams:
    def test_ratio_must_exceed_one(self):
        with pytest.raises(ValueError):
            LevelParams(F(1))
        with pytest.raises(ValueError):
            LevelParams(F(1, 2))

    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            LevelParams(F(2), F(0))

    def test_threshold_kind_checked(self):
        with pytest.raises(ValueError):
            LevelParams(F(2), threshold_kind="cubic")


class TestSublinearCensus:
    def test_delta(self):
        assert census_sublinear(DELTA, TWO, 100) == {0}

    def test_zero_signal_contains_everything(self):
        assert census_sublinear(ZERO, TWO, 10) == set(range(-10, 11))

    def test_spike_pair(self):
        assert census_sublinear(spike_pair(100), TWO, 10) == {0}

    def test_translated_delta_membership_follows_the_definition(self):
        # frequency of a shifted delta is |n - k|; with slope 2 the
        # census solves 2|n - 5| <= |n|, which is the block {4..10},
        # not a translate of {0}.
        shifted = Signal.from_pairs([(5, 1)])
        assert census_sublinear(shifted, TWO, 20) == set(range(4, 11))

    def test_members_reverified_by_analyze(self):
        f = squares_power(F(1), 12)
        p, q = 2, 1
        for n in census_sublinear(f, TWO, 60):
            assert p * analyze(f, n).frequency <= q * abs(n)

    def test_counts_monotone_and_bounded(self):
        f = squares_power(F(1), 12)
        previous = 0
        for n_max in (10, 30, 60, 90):
            count = len(census_sublinear(f, TWO, n_max))
            assert previous <= count <= 2 * n_max + 1
            previous = count


class TestBandCensus:
    def test_delta(self):
        assert census_band(DELTA, TWO, 50) == {0}

    def test_zero_signal(self):
        assert census_band(ZERO, TWO, 50) == {0}

    def test_band_inside_sublinear(self):
        f = squares_power(F(1), 12)
        assert census_band(f, TWO, 80) <= census_sublinear(f, TWO, 80)

    def test_squares_power_frozen_members(self):
        # independently derived with the exhaustive-sweep oracle
        f = squares_power(F(1), 40)
        assert census_band(f, TWO, 1600) == {2}
        member = 2
        fr = analyze_brute_force(f, member).frequency
        assert abs(member) <= 2 * 2 * fr and 2 * fr <= abs(member)


class TestThresholdCensus:
    def test_zero_threshold_delta(self):
        params = LevelParams(F(2), threshold_kind="zero")
        assert census_threshold(DELTA, params, 10) == {0}

    def test_zero_threshold_zero_signal(self):
        params = LevelParams(F(2), threshold_kind="zero")
        assert census_threshold(ZERO, params, 5) == set(range(-5, 6))

    def test_linear_kind_matches_sublinear(self):
        f = squares_power(F(1), 12)
        linear = LevelParams(F(3, 2), threshold_kind="linear")
        assert census_threshold(f, linear, 100) == census_sublinear(f, linear, 100)

    def test_stretched_support_has_zero_frequency(self):
        f = stretched_log(F(1, 2), 60)
        params = LevelParams(F(2), threshold_kind="zero")
        members = census_threshold(f, params, f.indices[-1])
        assert set(f.indices) <= members
        for n in f.indices[::10]:
            assert analyze(f, n).frequency == 0


class TestDensityCurves:
    def test_delta_densities(self):
        census = density_curves(DELTA, TWO, [10, 100, 1000])
        assert census.counts_sublinear == (1, 1, 1)
        assert census.densities == (F(1, 10), F(1, 100), F(1, 1000))

    def test_zero_signal_densities(self):
        census = density_curves(ZERO, TWO, [10, 100])
        assert census.counts_sublinear == (21, 201)
        assert census.densities == (F(21, 10), F(201, 100))

    def test_grid_validated(self):
        with pytest.raises(ValueError):
            density_curves(DELTA, TWO, [])
        with pytest.raises(ValueError):
            density_curves(DELTA, TWO, [10, 10])
        with pytest.raises(ValueError):
            density_curves(DELTA, TWO, [0, 10])

    def test_counts_are_census_set_sizes(self):
        census = density_curves(DELTA, TWO, [5, 10])
        for i, n_value in enumerate(census.n_grid):
            assert census_sublinear(DELTA, TWO, n_value) == {0}
            assert census_band(DELTA, TWO, n_value) == {0}
            assert (census.counts_sublinear[i], census.counts_band[i]) == (1, 1)

    def test_band_density_source(self):
        f = squares_power(F(1), 12)
        census = density_curves(f, TWO, [20, 40], density_source="band")
        assert census.densities == (
            F(census.counts_band[0], 20),
            F(census.counts_band[1], 40),
        )

    def test_csv_shape(self):
        census = density_curves(DELTA, TWO, [10, 100])
        text = census_csv(census)
        lines = text.splitlines()
        assert lines[0] == CENSUS_CSV_HEADER
        assert lines[1].startswith("10,1,1,1,10,")
        assert len(lines) == 3


class TestLogDensityString:
    def test_zero_cases(self):
        zeros = "0." + "0" * 20
        assert log_density_string(0, 10, F(1)) == zeros
        assert log_density_string(5, 1, F(1)) == zeros

    def test_known_value(self):
        # ln(10)**2 / 10 = 0.5301898110478398...
        assert log_density_string(1, 10, F(1)) == "0.53018981104783980101"

    def test_deterministic(self):
        a = log_density_string(143, 1000, F(1, 4))
        b = log_density_string(143, 1000, F(1, 4))
        assert a == b and len(a.split(".")[1]) == 20
