import hashlib
import random
import tracemalloc
from fractions import Fraction

import pytest
from mpmath import mp

import freqlab.levelsets as levelsets
from freqlab.families import spike_pair, squares_power, stretched_log
from freqlab.levelsets import (
    CENSUS_CSV_HEADER,
    LEVELSET_MODES,
    LevelParams,
    census_csv,
    census_members,
    density_curves,
    log_density_string,
)
from freqlab.maximal import analyze, analyze_brute_force
from freqlab.signal import Signal
from freqlab.verify import random_signal


def F(n, d=1):
    return Fraction(n, d)


DELTA = Signal.from_pairs([(0, 1)])
ZERO = Signal.from_pairs([])
TWO = LevelParams(F(2))
THETA_ZERO = LevelParams(F(2), mode="theta-zero")


class TestLevelParams:
    def test_float_ratio_rejected(self):
        with pytest.raises(TypeError, match="ratio must be an exact rational, got float 1.1"):
            LevelParams(1.1)

    def test_float_epsilon_rejected(self):
        with pytest.raises(TypeError, match="epsilon must be an exact rational, got float 0.25"):
            LevelParams(2, 0.25)

    def test_ints_fractions_and_strings_accepted(self):
        assert LevelParams(2, "1/4") == LevelParams(F(2), F(1, 4))
        assert LevelParams("3/2").ratio == F(3, 2)

    # Fraction() reads each of these (the last as 12/5, in Arabic-Indic digits)
    @pytest.mark.parametrize("text", ["1.5", "1e3", "1_0/3", "\u0661\u0662/5"], ids=ascii)
    def test_strings_outside_the_p_q_grammar_rejected(self, text):
        with pytest.raises(ValueError, match="not a p/q rational"):
            LevelParams(text)

    def test_ratio_must_exceed_one(self):
        with pytest.raises(ValueError):
            LevelParams(F(1))
        with pytest.raises(ValueError):
            LevelParams(F(1, 2))

    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            LevelParams(F(2), F(0))

    @pytest.mark.parametrize("mode", ["cubic", "linear", "k"])
    def test_mode_checked(self, mode):
        with pytest.raises(ValueError):
            LevelParams(F(2), mode=mode)


class TestSublinearCensus:
    def test_delta(self):
        assert census_members(DELTA, TWO, 100)[0] == [0]

    def test_zero_signal_contains_everything(self):
        assert census_members(ZERO, TWO, 10)[0] == list(range(-10, 11))

    def test_negative_n_max_rejected(self):
        with pytest.raises(ValueError, match="^n_max must be non-negative, got -3$"):
            census_members(DELTA, TWO, -3)

    def test_spike_pair(self):
        assert census_members(spike_pair(100), TWO, 10)[0] == [0]

    def test_translated_delta_membership_follows_the_definition(self):
        # frequency of a shifted delta is |n - k|; with slope 2 the
        # census solves 2|n - 5| <= |n|, which is the block {4..10},
        # not a translate of {0}.
        shifted = Signal.from_pairs([(5, 1)])
        assert census_members(shifted, TWO, 20)[0] == list(range(4, 11))

    def test_members_reverified_by_analyze(self):
        f = squares_power(F(1), 12)
        p, q = 2, 1
        for n in census_members(f, TWO, 60)[0]:
            assert p * analyze(f, n).frequency <= q * abs(n)

    def test_counts_monotone_and_bounded(self):
        f = squares_power(F(1), 12)
        previous = 0
        for n_max in (10, 30, 60, 90):
            count = len(census_members(f, TWO, n_max)[0])
            assert previous <= count <= 2 * n_max + 1
            previous = count

    def test_non_members_cost_nothing(self):
        # The scan drops each ruled-out point in the worker, so a census
        # whose only member is n = 0 peaks at the same few KiB at every N,
        # not at a list slot per point of [-N, N].
        peaks = []
        for n_max in (20_000, 60_000):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                assert census_members(DELTA, TWO, n_max) == ([0], [0])
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
        assert max(peaks) < 64 * 1024, peaks


class TestBandCensus:
    def test_delta(self):
        assert census_members(DELTA, TWO, 50)[1] == [0]

    def test_zero_signal(self):
        assert census_members(ZERO, TWO, 50)[1] == [0]

    def test_band_inside_sublinear(self):
        members_k, members_s = census_members(squares_power(F(1), 12), TWO, 80)
        assert set(members_s) <= set(members_k)

    def test_squares_power_frozen_members(self):
        # independently derived with the exhaustive-sweep oracle
        f = squares_power(F(1), 40)
        assert census_members(f, TWO, 1600)[1] == [2]
        member = 2
        fr = analyze_brute_force(f, member).frequency
        assert abs(member) <= 2 * 2 * fr and 2 * fr <= abs(member)


class TestThetaZeroMode:
    def test_zero_threshold_delta(self):
        assert census_members(DELTA, THETA_ZERO, 10)[0] == [0]

    def test_zero_threshold_zero_signal(self):
        assert census_members(ZERO, THETA_ZERO, 5)[0] == list(range(-5, 6))

    def test_K_and_S_share_the_linear_census(self):
        f = squares_power(F(1), 12)
        linear, band = census_members(f, LevelParams(F(3, 2), mode="K"), 100)
        assert census_members(f, LevelParams(F(3, 2), mode="S"), 100) == (linear, band)
        zero, zero_band = census_members(f, LevelParams(F(3, 2), mode="theta-zero"), 100)
        assert set(zero) <= set(linear) and zero_band == band

    def test_stretched_support_has_zero_frequency(self):
        f = stretched_log(F(1, 2), 60)
        members = census_members(f, THETA_ZERO, f.indices[-1])[0]
        assert set(f.indices) <= set(members)
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

    @pytest.mark.parametrize("mode", LEVELSET_MODES)
    def test_zero_signal_counts_match_the_scan(self, mode):
        # F is identically 0: count_K = 2N + 1 and count_S = 1, with no scan
        params = LevelParams(F(2), mode=mode)
        grid = [1, 2, 7, 50, 100]
        members_k, members_s = census_members(ZERO, params, 100)
        census = density_curves(ZERO, params, grid)
        for members, counts in ((members_k, census.counts_sublinear),
                                (members_s, census.counts_band)):
            assert counts == tuple(sum(abs(n) <= n_value for n in members) for n_value in grid)
        source = census.counts_band if mode == "S" else census.counts_sublinear
        assert census.densities == tuple(F(c, n_value) for c, n_value in zip(source, grid))

    def test_zero_signal_census_at_scale_needs_no_scan(self, monkeypatch):
        def spy(*args, **kwargs):
            raise AssertionError("the zero-signal census ran a frequency scan")

        monkeypatch.setattr(levelsets, "frequency_values", spy)
        n_value = 10**12
        tracemalloc.start()
        try:
            census = density_curves(ZERO, TWO, [10, n_value])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak
        assert census.counts_sublinear == (21, 2 * n_value + 1)
        assert census.counts_band == (1, 1)
        assert census.densities == (F(21, 10), F(2 * n_value + 1, n_value))
        # (2N + 1) ln(N)**(1 + eps) / N at eps = 1, truncated to 20 places
        with mp.workdps(60):
            exact = (2 * n_value + 1) * mp.log(n_value) ** 2 / n_value
            digits = int(mp.floor(exact * 10**20))
        assert census.log_densities[1] == f"{digits // 10**20}.{digits % 10**20:020d}"

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
            assert census_members(DELTA, TWO, n_value) == ([0], [0])
            assert (census.counts_sublinear[i], census.counts_band[i]) == (1, 1)

    def test_S_mode_density_tracks_band(self):
        f = squares_power(F(1), 12)
        census = density_curves(f, LevelParams(F(2), mode="S"), [20, 40])
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


class TestCensusOracle:
    """Both censuses and the density columns against the definitions,
    evaluated point by point with the exhaustive radius sweep."""

    CASES = [random_signal(random.Random(seed), max_points=12, index_span=60)
             for seed in range(4)]
    CASES += [ZERO, Signal.from_pairs([(-7, 3)])]

    @pytest.mark.parametrize("f", CASES, ids=[f"random{s}" for s in range(4)] + ["zero", "shifted"])
    @pytest.mark.parametrize("ratio", [F(2), F(3, 2)])
    def test_definitions(self, f, ratio):
        n_max, grid = 80, [7, 30, 80]
        freq = {n: analyze_brute_force(f, n).frequency for n in range(-n_max, n_max + 1)}
        band = {n for n, fr in freq.items() if abs(n) / (2 * ratio) <= fr <= abs(n) / ratio}

        def grid_counts(members):
            return tuple(sum(abs(n) <= N for n in members) for N in grid)

        for mode in LEVELSET_MODES:
            params = LevelParams(ratio, mode=mode)
            if mode == "theta-zero":
                count_k = {n for n, fr in freq.items() if fr == 0}
            else:
                count_k = {n for n, fr in freq.items() if fr <= abs(n) / ratio}
            assert census_members(f, params, n_max) == (sorted(count_k), sorted(band))
            census = density_curves(f, params, grid)
            assert census.counts_sublinear == grid_counts(count_k)
            assert census.counts_band == grid_counts(band)
            source = census.counts_band if mode == "S" else census.counts_sublinear
            assert census.densities == tuple(F(c, N) for c, N in zip(source, grid))


class TestByteIdentity:
    # CSV digests and (count_K, count_S) measured before the census passes
    # were merged into one.
    PINNED = {
        "K": ("83f1c47a5d7d11fa91a454561a4fdf321043e6756765bb35616e8b675a92b2a0",
              (31, 432, 758)),
        "S": ("53fd1382faaadcc3299308cabf054232cce3252452e28e6dbdb9cf7a7c189b14",
              (31, 432, 758)),
        "theta-zero": ("28498ba6da959adfe6c9feed32b0fe74040bb30e5a4261f6d965bbd0ee87c56c",
                       (2, 16, 16)),
    }

    @pytest.mark.parametrize("mode", sorted(PINNED))
    def test_census_csv_digest(self, mode):
        digest, counts = self.PINNED[mode]
        f = random_signal(random.Random(4), max_points=40, index_span=300)
        census = density_curves(f, LevelParams(F(3, 2), F(1, 4), mode), [50, 300, 1000])
        assert census.counts_sublinear == counts
        assert census.counts_band == (22, 60, 336)
        assert hashlib.sha256(census_csv(census).encode("ascii")).hexdigest() == digest


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
