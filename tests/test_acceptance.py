"""Acceptance gate: every criterion re-derived exactly, one report line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines as they complete.  All comparisons are exact rational or
integer comparisons; the only tolerances in this file are the wall-clock
targets, which are asserted as stated.
"""

import time
from fractions import Fraction

from freqlab.cli import main
from freqlab.families import composite_jump, spike_pair, squares_power, stretched_log
from freqlab.levelsets import LevelParams, census_members, density_curves
from freqlab.maximal import (
    analyze,
    analyze_brute_force,
    bilinear_analyze,
    bilinear_analyze_brute_force,
)
from freqlab.signal import Signal, read_signal
from freqlab.verify import (
    suite_covering,
    suite_fundamental,
    suite_invariance,
    suite_oracle,
    suite_variational,
)


class _Gate:
    def __init__(self, label: str, budget_seconds: float):
        self.label = label
        self.budget = budget_seconds
        self.started = time.monotonic()

    def finish(self, passed: bool, detail: str = ""):
        elapsed = time.monotonic() - self.started
        status = "PASS" if passed and elapsed < self.budget else "FAIL"
        extra = f" ({detail})" if detail else ""
        print(f"[{status}] {self.label}: {elapsed:.1f}s of {self.budget:.0f}s budget{extra}")
        assert passed, f"{self.label}: {detail}"
        assert elapsed < self.budget, f"{self.label}: {elapsed:.1f}s over budget"


def test_criterion_01_oracle_equivalence():
    gate = _Gate("criterion 1, analysis equals exhaustive sweep", 60)
    checks = suite_oracle(trials=1000, seed=1)
    gate.finish(all(c.passed for c in checks), checks[0].detail)


def test_criterion_02_variational_jump():
    gate = _Gate("criterion 2, spike-pair frequency jump", 1)
    checks = suite_variational(sizes=(100, 101, 150, 1000))
    failures = [c.name for c in checks if not c.passed]
    gate.finish(not failures, f"sizes 100,101,150,1000; failures {failures}")


def test_criterion_03_composite_unbounded_jump():
    gate = _Gate("criterion 3, composite-jump per-block frequencies", 5)
    f = composite_jump(100, 105)
    failures = []
    for c in range(100, 106):
        center = 4**c
        if analyze(f, center).frequency != 0:
            failures.append((c, "center"))
        if analyze(f, center + 1).frequency != 3 * c + 1:
            failures.append((c, "center+1"))
    gate.finish(not failures, f"blocks 100..105 at ~120-digit indices; failures {failures}")


def test_criterion_04_covering_selection():
    gate = _Gate("criterion 4, greedy covering selection", 30)
    checks = suite_covering(trials=10000, seed=1)
    gate.finish(
        all(c.passed for c in checks),
        "10000 collections: disjoint, one-third bound, tripled cover",
    )


def test_criterion_05_fundamental_inequality():
    gate = _Gate("criterion 5, half-mass lower bound on every family", 60)
    checks = suite_fundamental(span=500)
    gate.finish(
        all(c.passed for c in checks),
        f"{len(checks)} desk-scale signals, |n| spans of 501 past the half-mass radius",
    )


def test_criterion_06_delta_level_sets():
    gate = _Gate("criterion 6, delta-signal frequencies and censuses", 5)
    ok = True
    for k in (-7, 0, 5):
        f = Signal.from_pairs([(k, 1)])
        ok = ok and all(
            analyze(f, n).frequency == abs(n - k) for n in range(-100, 101)
        )
    delta = Signal.from_pairs([(0, 1)])
    params = LevelParams(Fraction(2))
    for n_max in (10, 100, 1000):
        ok = ok and census_members(delta, params, n_max) == ([0], [0])
    gate.finish(ok, "F = |n - k| on [-100, 100]; both censuses pin the support point")


def test_criterion_07_census_decay_trend():
    gate = _Gate("criterion 7, growing census with falling density", 600)
    f = squares_power(Fraction(1, 4), 2000)
    census = density_curves(f, LevelParams(Fraction(2), Fraction(1, 4)),
                            [100, 1000, 10000, 100000], threads=2)
    counts = census.counts_sublinear
    growing = all(a < b for a, b in zip(counts, counts[1:]))
    falling = all(
        a > b for a, b in zip(census.densities, census.densities[1:])
    )
    gate.finish(
        growing and falling,
        f"counts {counts}, densities {[str(d) for d in census.densities]}",
    )


def test_criterion_08_stretched_family_zero_frequencies():
    gate = _Gate("criterion 8, zero frequencies on the stretched family", 600)
    f = stretched_log(Fraction(1), 5000)
    support = f.indices  # position m - 10 holds the index for m
    bad = []
    for m in range(2500, 5001):
        n = support[m - 10]
        if analyze(f, n).frequency != 0:
            bad.append((m, "unilinear"))
        res = bilinear_analyze(f, f, n)
        if res.degenerate or res.frequency != 0:
            bad.append((m, "bilinear"))
    subsample = list(range(2500, 5001, 25))[:100]
    for m in subsample:
        n = support[m - 10]
        fast = analyze(f, n)
        slow = analyze_brute_force(f, n)
        if (fast.maximal_value, fast.extremal_radii, fast.frequency) != (
            slow.maximal_value,
            slow.extremal_radii,
            slow.frequency,
        ):
            bad.append((m, "unilinear oracle"))
        bfast = bilinear_analyze(f, f, n)
        bslow = bilinear_analyze_brute_force(f, f, n)
        if (bfast.maximal_value, bfast.extremal_radii, bfast.frequency) != (
            bslow.maximal_value,
            bslow.extremal_radii,
            bslow.frequency,
        ):
            bad.append((m, "bilinear oracle"))
    gate.finish(
        not bad,
        f"2501 support points, {len(subsample)}-point oracle subsample; failures {bad[:3]}",
    )


def test_criterion_09_invariance_suite():
    gate = _Gate("criterion 9, symmetry invariances", 60)
    checks = suite_invariance(trials=500, seed=1)
    gate.finish(
        all(c.passed for c in checks),
        "translation, positive scaling, reflection, bilinear symmetry on 500 signals",
    )


def test_criterion_10_round_trip_determinism(tmp_path):
    gate = _Gate("criterion 10, byte-identical regeneration and CSV", 5)
    ok = True

    first = tmp_path / "a.sig"
    second = tmp_path / "b.sig"
    gen_args = ["gen", "--family", "stretched_log", "--epsilon", "1/2",
                "--cutoff", "60", "--precision", "128"]
    ok = ok and main(gen_args + ["--out", str(first)]) == 0
    ok = ok and main(gen_args + ["--out", str(second)]) == 0
    ok = ok and first.read_bytes() == second.read_bytes()
    ok = ok and read_signal(first) == stretched_log(Fraction(1, 2), 60)

    spike = tmp_path / "spike.sig"
    ok = ok and main(["gen", "--family", "spike_pair", "--C", "100",
                      "--out", str(spike)]) == 0
    ok = ok and read_signal(spike) == spike_pair(100)

    csv_one = tmp_path / "one.csv"
    csv_two = tmp_path / "two.csv"
    for out, threads in ((csv_one, "1"), (csv_two, "2")):
        ok = ok and main(["profile", "--signal", str(spike), "--from", "-400",
                          "--to", "400", "--threads", threads, "--out", str(out)]) == 0
    ok = ok and csv_one.read_bytes() == csv_two.read_bytes()

    level_one = tmp_path / "l1.csv"
    level_two = tmp_path / "l2.csv"
    for out in (level_one, level_two):
        ok = ok and main(["levelset", "--signal", str(spike), "--mode", "K",
                          "--C", "2/1", "--N-grid", "10,100", "--out", str(out)]) == 0
    ok = ok and level_one.read_bytes() == level_two.read_bytes()

    gate.finish(ok, "gen/read round trip, profile and levelset CSVs")
