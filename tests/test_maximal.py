import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from freqlab.families import composite_jump, spike_pair
from freqlab.maximal import (
    _pool_size,
    analyze,
    analyze_brute_force,
    average,
    bilinear_analyze,
    bilinear_analyze_brute_force,
    bilinear_average,
    frequency_profile,
    frequency_values,
    half_mass_radius,
    radius_bound,
)
from freqlab.signal import IntegerInterval, Signal
from freqlab.verify import random_signal


def F(n, d=1):
    return Fraction(n, d)


DELTA = Signal.from_pairs([(0, 1)])
ZERO = Signal.from_pairs([])
TWO_POINT = Signal.from_pairs([(1, F(1, 2)), (3, F(1, 4))])


class TestAverage:
    def test_delta(self):
        assert average(DELTA, 0, 1) == F(1, 3)

    def test_spike_pair_at_full_radius(self):
        assert average(spike_pair(100), 0, 300) == F(401, 601)

    def test_two_point(self):
        assert average(TWO_POINT, 2, 1) == F(1, 4)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            average(DELTA, 0, -1)

    def test_l1_bound(self):
        rng = random.Random(3)
        for _ in range(30):
            f = random_signal(rng, max_points=12)
            n = rng.randint(-120, 120)
            r = rng.randint(0, 150)
            assert (2 * r + 1) * average(f, n, r) <= f.l1_norm


class TestRadiusBound:
    def test_examples(self):
        assert radius_bound(DELTA, 5) == 5
        assert radius_bound(spike_pair(100), 0) == 300
        assert radius_bound(spike_pair(100), 1) == 301

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            radius_bound(ZERO, 0)

    def test_bound_contains_every_extremal_radius(self):
        rng = random.Random(5)
        for _ in range(40):
            f = random_signal(rng, max_points=10)
            n = rng.randint(-120, 120)
            bound = radius_bound(f, n)
            assert all(r <= bound for r in analyze(f, n).extremal_radii)


class TestCandidateRadii:
    def test_extremal_radii_are_candidates(self):
        rng = random.Random(9)
        for _ in range(40):
            f = random_signal(rng, max_points=10)
            n = rng.randint(-110, 110)
            cands = {0} | {abs(s - n) for s in f.indices}
            assert set(analyze(f, n).extremal_radii) <= cands


class TestAnalyze:
    def test_delta_at_7(self):
        res = analyze(DELTA, 7)
        assert res.maximal_value == F(1, 15)
        assert res.extremal_radii == (7,)
        assert res.frequency == 7
        assert not res.zero_signal

    def test_plateau(self):
        f = Signal.from_pairs([(i, 1) for i in range(-2, 3)])
        res = analyze(f, 0)
        assert res.maximal_value == 1
        assert res.extremal_radii == (0, 1, 2)
        assert res.frequency == 0

    def test_spike_pair_step(self):
        assert analyze(spike_pair(100), 1).frequency == 301

    def test_zero_signal_convention(self):
        res = analyze(ZERO, 3)
        assert res.zero_signal
        assert res.maximal_value == 0
        assert res.frequency == 0
        assert res.extremal_radii is None  # attained at every radius

    def test_attains_maximum_at_frequency(self):
        rng = random.Random(13)
        for _ in range(60):
            f = random_signal(rng, max_points=20)
            n = rng.randint(-120, 120)
            res = analyze(f, n)
            assert average(f, n, res.frequency) == res.maximal_value
            assert res.frequency == min(res.extremal_radii)

    def test_dominates_every_radius_with_exact_tie_set(self):
        rng = random.Random(17)
        for _ in range(10):
            f = random_signal(rng, max_points=8)
            n = rng.randint(-40, 40)
            res = analyze(f, n)
            assert analyze_brute_force(f, n) == res
            for r in range(radius_bound(f, n) + 1):
                value = average(f, n, r)
                assert value <= res.maximal_value
                assert (value == res.maximal_value) == (r in res.extremal_radii)

    def test_matches_brute_force(self):
        rng = random.Random(21)
        for _ in range(60):
            f = random_signal(rng)
            for n in (rng.randint(-120, 120) for _ in range(12)):
                fast = analyze(f, n)
                slow = analyze_brute_force(f, n)
                assert fast.maximal_value == slow.maximal_value
                assert fast.extremal_radii == slow.extremal_radii
                assert fast.frequency == slow.frequency


class TestFrequencyProfile:
    def test_delta(self):
        rows = frequency_profile(DELTA, IntegerInterval(-2, 2))
        assert [fr for _, _, fr in rows] == [2, 1, 0, 1, 2]
        assert [n for n, _, _ in rows] == [-2, -1, 0, 1, 2]

    def test_zero_signal(self):
        rows = frequency_profile(ZERO, IntegerInterval(0, 3))
        assert [fr for _, _, fr in rows] == [0, 0, 0, 0]
        assert all(m == 0 for _, m, _ in rows)

    def test_spike_pair(self):
        rows = frequency_profile(spike_pair(100), IntegerInterval(0, 2))
        assert [fr for _, _, fr in rows] == [0, 301, 302]

    @pytest.mark.parametrize(
        "make,span,digest",
        [
            (
                lambda: spike_pair(100),
                IntegerInterval(-3000, 3000),
                "3c350fa7bb18c393ee978f18f39a20b69e50fb0b5272b7139e370b5d09722b0a",
            ),
            (
                lambda: composite_jump(100, 105),
                IntegerInterval(4**105 - 5000, 4**105 + 5000),
                "0a8931c21b0f5ee45faa4fe8607f396d26c2a643e935dcfe6c31f8913d0aa7dc",
            ),
        ],
        ids=["spike_pair-100", "composite_jump-100-105"],
    )
    def test_csv_digest(self, make, span, digest):
        rows = frequency_profile(make(), span, threads=2)
        text = "n,M,F\n" + "".join(f"{n},{m},{fr}\n" for n, m, fr in rows)
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest

    def test_worker_count_does_not_change_output(self):
        f = Signal.from_pairs([(i * i, F(1, i)) for i in range(1, 40)])
        span = IntegerInterval(-1200, 1200)
        serial = frequency_profile(f, span, threads=1)
        parallel = frequency_profile(f, span, threads=2)
        assert serial == parallel
        assert frequency_values(f, span, threads=2) == [fr for _, _, fr in serial]

    def test_slope_must_be_positive(self):
        span = IntegerInterval(-5, 5)
        for slope in (F(0), F(-2, 3)):
            with pytest.raises(ValueError, match="slope must be positive"):
                frequency_values(TWO_POINT, span, slope=slope)

    @pytest.mark.parametrize(
        ("method", "slope"),
        [
            pytest.param("spawn", None, id="spawn"),
            pytest.param("forkserver", None, id="forkserver"),
            pytest.param("spawn", F(3, 2), id="spawn-slope"),
            pytest.param("forkserver", F(3, 2), id="forkserver-slope"),
            pytest.param("fork", F(3, 2), id="fork-slope"),
        ],
    )
    def test_spawned_workers_match_serial(self, method, slope):
        # the pool takes the default start method, set here; spawn and
        # forkserver workers share no memory with the parent and get the
        # signal data (and the slope's p and q) with each task; with a slope
        # each of the two chunks carries its own witness
        code = (
            "import multiprocessing, os\n"
            "from fractions import Fraction\n"
            "from freqlab.maximal import frequency_values\n"
            "from freqlab.signal import IntegerInterval, Signal\n"
            f"multiprocessing.set_start_method({method!r})\n"
            "os.cpu_count = lambda: 2\n"
            "f = Signal.from_pairs([(i * i, Fraction(1, i)) for i in range(1, 40)])\n"
            "span = IntegerInterval(-1200, 1200)\n"
            f"slope = {slope!r}\n"
            "print(frequency_values(f, span, threads=2, slope=slope)"
            " == frequency_values(f, span, slope=slope))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True\n"


class FakePool:
    """Stands in for multiprocessing.Pool: records its size, runs in process."""

    sizes: list[int] = []

    def __init__(self, processes):
        FakePool.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, func, tasks):
        return [func(*task) for task in tasks]


class TestChunkRule:
    @pytest.fixture(autouse=True)
    def fake_pool(self, monkeypatch):
        import multiprocessing

        FakePool.sizes = []
        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

    SIGNAL = Signal.from_pairs([(i * i, F(1, i)) for i in range(1, 40)])

    def test_one_chunk_starts_no_pool(self):
        span = IntegerInterval(-1024, 1023)
        assert span.length == 2048
        frequency_values(self.SIGNAL, span, threads=2)
        assert FakePool.sizes == []

    def test_two_chunks_ask_for_two_workers(self):
        span = IntegerInterval(-1024, 1024)
        assert span.length == 2049
        pooled = frequency_values(self.SIGNAL, span, threads=2)
        assert FakePool.sizes == [2]
        assert pooled == frequency_values(self.SIGNAL, span)
        assert FakePool.sizes == [2]


class TestPoolSize:
    def test_capped_by_threads_cores_and_chunks(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert _pool_size(1, 16) == 1
        assert _pool_size(2, 16) == 2
        assert _pool_size(10**9, 16) == 2
        assert _pool_size(10**9, 1) == 1

    def test_unknown_core_count_means_one_worker(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _pool_size(8, 16) == 1


class TestHalfMassRadius:
    def test_examples(self):
        assert half_mass_radius(DELTA) == 0
        assert half_mass_radius(Signal.from_pairs([(-3, 1), (3, 1)])) == 3
        assert half_mass_radius(spike_pair(100)) == 300

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            half_mass_radius(ZERO)

    def test_minimality(self):
        rng = random.Random(23)
        for _ in range(40):
            f = random_signal(rng, max_points=15)
            m = half_mass_radius(f)
            assert 2 * f.window_sum(IntegerInterval(-m, m)) >= f.l1_norm
            if m > 0:
                below = f.window_sum(IntegerInterval(-(m - 1), m - 1))
                assert 2 * below < f.l1_norm


class TestBilinearAverage:
    def test_delta_center(self):
        assert bilinear_average(DELTA, DELTA, 0, 0) == 1

    def test_delta_offset_no_pairing(self):
        assert bilinear_average(DELTA, DELTA, 1, 1) == 0

    def test_mirror_pairing(self):
        f = Signal.from_pairs([(0, 1), (2, 1)])
        assert bilinear_average(f, f, 1, 1) == F(2, 3)

    def test_symmetry(self):
        rng = random.Random(29)
        for _ in range(40):
            f = random_signal(rng, max_points=10)
            g = random_signal(rng, max_points=10)
            n = rng.randint(-100, 100)
            r = rng.randint(0, 120)
            assert bilinear_average(f, g, n, r) == bilinear_average(g, f, n, r)

    def test_l1_product_bound(self):
        rng = random.Random(31)
        for _ in range(40):
            f = random_signal(rng, max_points=10)
            g = random_signal(rng, max_points=10)
            n = rng.randint(-100, 100)
            r = rng.randint(0, 150)
            assert (2 * r + 1) * bilinear_average(f, g, n, r) <= f.l1_norm * g.l1_norm


class TestBilinearAnalyze:
    def test_delta_center(self):
        res = bilinear_analyze(DELTA, DELTA, 0)
        assert res.maximal_value == 1
        assert res.frequency == 0
        assert not res.degenerate

    def test_degenerate_point(self):
        res = bilinear_analyze(DELTA, DELTA, 5)
        assert res.degenerate
        assert res.maximal_value == 0
        assert res.frequency == 0
        assert res.extremal_radii is None

    def test_mirror_example(self):
        f = Signal.from_pairs([(0, 1), (2, 1)])
        res = bilinear_analyze(f, f, 1)
        assert res.maximal_value == F(2, 3)
        assert res.extremal_radii == (1,)
        assert res.frequency == 1

    def test_matches_brute_force(self):
        rng = random.Random(37)
        for _ in range(60):
            f = random_signal(rng, max_points=12)
            g = random_signal(rng, max_points=12)
            for n in (rng.randint(-110, 110) for _ in range(8)):
                fast = bilinear_analyze(f, g, n)
                slow = bilinear_analyze_brute_force(f, g, n)
                assert fast.maximal_value == slow.maximal_value
                assert fast.extremal_radii == slow.extremal_radii
                assert fast.frequency == slow.frequency
                assert fast.degenerate == slow.degenerate
