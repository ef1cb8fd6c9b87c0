import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from unittest.mock import patch

import pytest

import freqlab.maximal as maximal
from freqlab.families import composite_jump, spike_pair, squares_power, stretched_log
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

    def test_negative_radius_past_the_str_limit(self):
        with pytest.raises(ValueError, match="radius must be non-negative, got -"):
            average(DELTA, 0, -(4**7200))
        with pytest.raises(ValueError, match="radius must be non-negative, got -"):
            bilinear_average(DELTA, DELTA, 0, -(4**7200))

    @pytest.mark.parametrize("n,r", [(0.5, 1), (1, F(1, 2)), (1.0, 1), (1, 1.0)])
    def test_non_integer_point_or_radius_rejected(self, n, r):
        f = spike_pair(100)
        message = f"^{'r' if type(n) is int else 'n'} must be an integer, got "
        with pytest.raises(TypeError, match=message):
            average(f, n, r)
        with pytest.raises(TypeError, match=message):
            bilinear_average(f, f, n, r)

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

    @pytest.mark.parametrize("n", [0.5, F(1, 2), 1.0])
    def test_non_integer_point_rejected(self, n):
        f = spike_pair(100)
        for call in (radius_bound, analyze):
            with pytest.raises(TypeError, match="^n must be an integer, got "):
                call(f, n)
        with pytest.raises(TypeError, match="^n must be an integer, got "):
            bilinear_analyze(f, f, n)

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

    def test_float_slope_rejected(self):
        span = IntegerInterval(-5, 5)
        with pytest.raises(TypeError, match="slope must be an exact rational, got float 2.0"):
            frequency_values(TWO_POINT, span, slope=2.0)
        assert frequency_values(TWO_POINT, span, slope="2") == frequency_values(
            TWO_POINT, span, slope=F(2)
        )

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_spawned_workers_match_serial(self, method):
        # the pool takes the default start method, set here; spawn and
        # forkserver workers share no memory with the parent and get the
        # signal data once, when they start, and each task only its ranges;
        # the 2,401 points make two chunks, so two workers run.  Pooled
        # slope scans are covered by test_pooled_slope_scan_matches_serial
        code = (
            "import multiprocessing, os\n"
            "from fractions import Fraction\n"
            "from freqlab.maximal import frequency_values\n"
            "from freqlab.signal import IntegerInterval, Signal\n"
            f"multiprocessing.set_start_method({method!r})\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "os.cpu_count = lambda: 2\n"
            "f = Signal.from_pairs([(i * i, Fraction(1, i)) for i in range(1, 40)])\n"
            "span = IntegerInterval(-1200, 1200)\n"
            "print(frequency_values(f, span, threads=2) == frequency_values(f, span))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True\n"

    @pytest.mark.parametrize("method", ["spawn", "forkserver", "fork"])
    def test_pooled_slope_scan_matches_serial(self, method):
        # a mixed-sign support whose candidates on either side of 0 make
        # three chunks, so the pool runs; each worker gets the signal once
        code = (
            "import multiprocessing, os\n"
            "from fractions import Fraction\n"
            "from freqlab.maximal import frequency_values\n"
            "from freqlab.signal import IntegerInterval, Signal\n"
            f"multiprocessing.set_start_method({method!r})\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "os.cpu_count = lambda: 2\n"
            "f = Signal.from_pairs([(s * i * i, Fraction(1, i)) for i in range(1, 40)"
            " for s in (-1, 1)])\n"
            "span = IntegerInterval(-3000, 3000)\n"
            "slope = Fraction(3, 2)\n"
            "print(frequency_values(f, span, threads=2, slope=slope)"
            " == frequency_values(f, span, slope=slope))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True\n"

    def test_far_span_costs_logarithmically_many_runs(self):
        # |n| <= 10^9 around a support in [1, 900]: the runs gallop, so the
        # scan makes O(log N) tries at runs of two or more points starting
        # outside [0, 1800] (154: 134 left of 0, about four per halving of
        # |n|, and 20 right of 1800) and keeps the 136 members.  All
        # `_blocks_below` calls, the tries near the support and the tail
        # tries of its points included, number 690.
        f = squares_power(F(1, 4), 30)
        calls, blocks_below = [], maximal._blocks_below

        def spy(idx, prefix, n0, n1, a, end, num, w):
            calls.append((n0, n1))
            return blocks_below(idx, prefix, n0, n1, a, end, num, w)

        with patch.object(maximal, "_blocks_below", spy):
            members = frequency_values(f, IntegerInterval(-(10**9), 10**9), slope=F(2))
        assert len(members) == 136
        assert 1 <= members[0][0] and members[-1][0] <= 1800
        assert members == frequency_values(f, IntegerInterval(-1800, 1800), slope=F(2))
        runs = [(n0, n1) for n0, n1 in calls if n0 < n1]
        assert len([n0 for n0, _ in runs if n0 < 0 or n0 > 1800]) < 250
        assert len(calls) < 1000
        assert sum(n1 - n0 + 1 for n0, n1 in runs) > 2 * 10**9 - 2000


class FakePool:
    """Stands in for multiprocessing.Pool: records its size and tasks, and
    runs the initializer and every task in process."""

    sizes: list[int] = []
    tasks: list = []

    def __init__(self, processes, initializer=None, initargs=()):
        FakePool.sizes.append(processes)
        if initializer is not None:
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, func, tasks):
        FakePool.tasks = list(tasks)
        return map(func, FakePool.tasks)


class TestChunkRule:
    @pytest.fixture(autouse=True)
    def fake_pool(self, monkeypatch):
        import multiprocessing

        FakePool.sizes, FakePool.tasks = [], []
        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
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

    def test_tasks_are_contiguous_pieces_of_the_span(self):
        # 500 spikes, each with its own short stretch of members: the tasks
        # are ceil(points / chunk) pieces (lo, hi, p, q) that cover the span
        # in order, each full but the last
        f = Signal.from_pairs([(1000 * k, F(1, k)) for k in range(1, 501)])
        span, slope = IntegerInterval(-600_000, 600_000), F(5 * 10**4)
        chunk = -(-span.length // 16)
        assert chunk > 2048 and span.length % chunk
        pooled = frequency_values(f, span, threads=2, slope=slope)
        assert FakePool.sizes == [2]
        assert len(FakePool.tasks) == -(-span.length // chunk)
        assert {task[2:] for task in FakePool.tasks} == {(slope.numerator, slope.denominator)}
        pieces = [range(lo, hi + 1) for lo, hi, _, _ in FakePool.tasks]
        assert [len(piece) for piece in pieces[:-1]] == [chunk] * (len(pieces) - 1)
        assert 0 < len(pieces[-1]) < chunk
        assert [n for piece in pieces for n in piece] == list(range(span.lo, span.hi + 1))
        assert pooled == frequency_values(f, span, slope=slope)

    def test_chunks_are_sized_by_the_workers_not_the_threads(self):
        # a billion threads asked for on 2 CPUs: 16 chunks, not one per
        # 2048 points of the 2,000,001
        span = IntegerInterval(-(10**6), 10**6)
        pooled = frequency_values(self.SIGNAL, span, threads=10**9, slope=F(2))
        assert FakePool.sizes == [2]
        assert len(FakePool.tasks) == 16
        assert pooled == frequency_values(self.SIGNAL, span, slope=F(2))

    def test_negative_half_of_a_positive_support_is_decided_by_window_free_runs(self):
        # every n < 0 is farther from the support [1, 1521] than |n| / 2;
        # the runs that decide the negative half are all farther from the
        # support than their largest cap, so they need no block and no
        # window sum, and few points are tried alone
        span = IntegerInterval(-3000, 3000)
        calls, blocks_below = [], maximal._blocks_below

        def spy(idx, prefix, n0, n1, a, end, num, w):
            calls.append((n0, n1, a, end, num, blocks_below(idx, prefix, n0, n1, a, end, num, w)))
            return calls[-1][-1]

        with patch.object(maximal, "_blocks_below", spy):
            pooled = frequency_values(self.SIGNAL, span, threads=2, slope=F(2))
        assert FakePool.sizes == [2]
        assert pooled == frequency_values(self.SIGNAL, span, slope=F(2))
        assert min(n for n, _ in pooled) == 1
        runs = [call for call in calls if call[0] < call[1] < 0 and call[-1]]
        assert all(a >= end and num == 0 for _, _, a, end, num, _ in runs)
        assert sum(n1 - n0 + 1 for n0, n1, *_ in runs) >= 2950
        assert len(runs) <= 16 * len(FakePool.tasks)


class TestPoolSize:
    def test_capped_by_threads_cores_and_chunks(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert _pool_size(1, 16) == 1
        assert _pool_size(2, 16) == 2
        assert _pool_size(10**9, 16) == 2
        assert _pool_size(10**9, 1) == 1

    def test_capped_by_the_cpus_the_process_may_use(self, monkeypatch):
        # as under `taskset -c 0` on a machine with 8 cores
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert _pool_size(2, 8) == 1

    def test_core_count_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert _pool_size(10**9, 16) == 2

    def test_unknown_core_count_means_one_worker(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
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

    def test_stretched_upper_points_are_certified_without_terms(self):
        # Every upper support point of stretched_log has F = 0 in both
        # searches; the walk certifies its tail and bilinear_analyze
        # certifies E = {0} without assembling a term, in at most three
        # windows of two `_mass_and_max` calls each.  `tied` at 0 has E = {0}
        # too, though one bound over all of [1, 3] ties t0 (2 + 1) = 48: the
        # descent from 3 clears radii 2 and 3 and then finds no pair at 1.
        f = stretched_log(F(1), 300)
        points = [f.indices[k] for k in range(140, 291)]
        tied = Signal.from_pairs([(-3, 4), (0, 4), (1, 1), (3, 4)])
        inputs = [(f, n) for n in points] + [(tied, 0)]
        certified, blocks_below = [], maximal._blocks_below
        calls, mass_and_max = [], maximal._mass_and_max

        def spy(*args):
            certified.append(blocks_below(*args))
            return certified[-1]

        def counted(*args):
            calls[-1] += 1
            return mass_and_max(*args)

        def certify(g, n):
            calls.append(0)
            return bilinear_analyze(g, g, n)

        with patch.object(maximal, "_bilinear_terms", side_effect=AssertionError("terms built")):
            with patch.object(maximal, "_mass_and_max", counted):
                bilinear = [certify(g, n) for g, n in inputs]
        with patch.object(maximal, "_blocks_below", spy):
            unilinear = [analyze(f, n) for n in points]
        assert certified == [True] * len(points)
        assert max(calls) <= 6
        assert unilinear == [analyze_brute_force(f, n) for n in points]
        assert bilinear == [bilinear_analyze_brute_force(g, g, n) for g, n in inputs]
        assert {(res.frequency, res.extremal_radii) for res in unilinear + bilinear} == {(0, (0,))}
