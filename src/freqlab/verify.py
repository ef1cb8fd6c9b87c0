"""Self-contained verification suites for the package's checkable claims.

Each suite re-derives a family of exact statements and returns a list
of `Check` records; the CLI renders them as pass/fail lines and the
acceptance tests assert on them.  `SUITES` maps each name below to its
function, which the CLI calls with only the options the user gave.  The
`SEEDED_SUITES` take `trials` and `seed` and are driven entirely by that
seed, so every run is reproducible, and the first failing instance of
each check is serialized for replay.  Results are compared as whole
`FrequencyResult` / `BilinearFrequencyResult` values.

Suites:

* ``oracle``       candidate-radius analysis equals an exhaustive radius
                   sweep on random sparse signals, at every point of a
                   fixed scan range.
* ``variational``  the spike-pair family jumps by more than `size`
                   between n = 0 and n = 1, with its exact averages.
* ``covering``     greedy disjoint selection is disjoint, keeps at least
                   a third of the union, and its tripled intervals cover
                   every input, on random interval collections.
* ``invariance``   translation covariance, positive-scaling invariance,
                   reflection symmetry, and bilinear argument symmetry.
* ``fundamental``  for every built-in family at desk scale and |n| past
                   the half-mass radius, the maximal value is at least
                   ||f||_1 / (8|n| + 2).
* ``examples``     assorted exact pointwise facts about the families,
                   including the zero-frequency support points of the
                   stretched family and its bilinear counterpart.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .covering import dump_intervals, greedy_disjoint, merged_union_size, triple
from .families import (
    composite_jump,
    spike_pair,
    squares_log,
    squares_power,
    stretched_log,
)
from .levelsets import LevelParams, census_members
from .maximal import (
    analyze,
    analyze_brute_force,
    average,
    bilinear_analyze,
    bilinear_average,
    frequency_profile,
    half_mass_radius,
)
from .signal import IntegerInterval, Record, Signal, dump_signal


class Check(Record):
    """One named assertion with its outcome.

    `replay`, when set on a failure, holds (file suffix, serialized
    offending instance) so the exact case can be re-run.
    """

    __slots__ = ("name", "passed", "detail", "replay")
    _defaults = {"detail": "", "replay": None}


# Random signal values are +-p/q with 1 <= p, q <= _VALUE_TERM_BOUND.
_VALUE_TERM_BOUND = 12
# suite_oracle compares the two analyses at every n in [-_ORACLE_SPAN, _ORACLE_SPAN].
_ORACLE_SPAN = 120


def random_signal(rng: random.Random, max_points: int = 30, index_span: int = 100) -> Signal:
    """Random sparse signal: up to `max_points` support points with small
    rational values on [-index_span, index_span]."""
    count = rng.randint(1, max_points)
    indices = rng.sample(range(-index_span, index_span + 1), count)
    return Signal.from_pairs(
        (
            i,
            Fraction(
                rng.choice((-1, 1)) * rng.randint(1, _VALUE_TERM_BOUND),
                rng.randint(1, _VALUE_TERM_BOUND),
            ),
        )
        for i in indices
    )


def random_intervals(
    rng: random.Random, max_count: int = 50, coordinate_span: int = 10**6
) -> list[IntegerInterval]:
    """Random interval collection with endpoints in [-span, span]."""
    count = rng.randint(1, max_count)
    out = []
    for _ in range(count):
        lo = rng.randint(-coordinate_span, coordinate_span)
        out.append(IntegerInterval(lo, lo + rng.randint(0, coordinate_span // 10)))
    return out


def suite_oracle(trials: int = 1000, seed: int = 1) -> list[Check]:
    """Candidate-radius analysis against the exhaustive sweep."""
    name = "analyze equals exhaustive radius sweep"
    rng = random.Random(seed)
    for _ in range(trials):
        f = random_signal(rng)
        for n in range(-_ORACLE_SPAN, _ORACLE_SPAN + 1):
            if analyze(f, n) != analyze_brute_force(f, n):
                replay = ("oracle.sig", dump_signal(f, [f"oracle mismatch at n={n}"]))
                return [Check(name, False, f"mismatch at n={n}", replay=replay)]
    points = trials * (2 * _ORACLE_SPAN + 1)
    return [Check(name, True, f"{trials} signals, {points} points, exact equality of (M, E, F)")]


def suite_variational(sizes: tuple[int, ...] = (100, 101, 150, 1000)) -> list[Check]:
    """Exact spike-pair facts: the frequency jump between 0 and 1 exceeds the size."""
    checks = []
    for size in sizes:
        f = spike_pair(size)
        at0 = analyze(f, 0)
        at1 = analyze(f, 1)
        ok = (
            at0.frequency == 0
            and at0.maximal_value == 1
            and average(f, 0, 3 * size) == Fraction(4 * size + 1, 6 * size + 1)
            and average(f, 1, 1) == Fraction(1, 3)
            and average(f, 1, 3 * size - 1) == Fraction(2 * size + 1, 6 * size - 1)
            and average(f, 1, 3 * size + 1) == Fraction(4 * size + 1, 6 * size + 3)
            and at1.maximal_value == Fraction(4 * size + 1, 6 * size + 3)
            and at1.frequency == 3 * size + 1
            and at1.frequency - at0.frequency > size
        )
        checks.append(
            Check(
                f"spike_pair({size}) frequency jump",
                ok,
                f"F(0)={at0.frequency} M(0)={at0.maximal_value} "
                f"A_{3 * size}(0)={average(f, 0, 3 * size)} F(1)={at1.frequency}",
            )
        )
    return checks


def suite_covering(trials: int = 10000, seed: int = 1) -> list[Check]:
    """Greedy selection invariants on random interval collections."""
    rng = random.Random(seed)
    disjoint_bad = third_bad = cover_bad = determinism_bad = None
    for _ in range(trials):
        intervals = random_intervals(rng)
        sel = greedy_disjoint(intervals)
        chosen = [intervals[k] for k in sel.chosen]
        ordered = sorted(chosen, key=lambda iv: iv.lo)
        if any(a.hi >= b.lo for a, b in zip(ordered, ordered[1:])):
            disjoint_bad = disjoint_bad or intervals
        if 3 * sel.chosen_length_sum < sel.union_size:
            third_bad = third_bad or intervals
        tripled = [triple(iv) for iv in chosen]
        if merged_union_size(tripled + intervals) != merged_union_size(tripled):
            cover_bad = cover_bad or intervals
        if greedy_disjoint(intervals).chosen != sel.chosen:
            determinism_bad = determinism_bad or intervals
    def check(name, bad, detail_ok):
        if bad is None:
            return Check(name, True, detail_ok)
        return Check(name, False, "counterexample found", replay=("covering.txt", dump_intervals(bad)))
    return [
        check("chosen intervals pairwise disjoint", disjoint_bad, f"{trials} collections"),
        check("3 * chosen length sum >= union size", third_bad, "exact integer comparison"),
        check("tripled chosen intervals cover all inputs", cover_bad, "union containment"),
        check("selection is deterministic", determinism_bad, "re-run identical"),
    ]


def suite_invariance(trials: int = 500, seed: int = 1) -> list[Check]:
    """Symmetry properties of the analysis, checked exactly."""
    rng = random.Random(seed)
    translation_bad = scaling_bad = reflection_bad = bilinear_bad = None
    for _ in range(trials):
        f = random_signal(rng, max_points=15)
        g = random_signal(rng, max_points=15)
        k = rng.randint(-50, 50)
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        shifted = Signal.from_pairs((i + k, v) for i, v in f)
        mirrored = Signal.from_pairs((-i, v) for i, v in f)
        scaled = Signal.from_pairs((i, c * v) for i, v in f)
        samples = [rng.randint(-110, 110) for _ in range(4)]
        for n in samples:
            base = analyze(f, n)
            if analyze(shifted, n + k) != base:
                translation_bad = translation_bad or (f, k, n)
            grown = analyze(scaled, n)
            if (
                grown.extremal_radii != base.extremal_radii
                or grown.frequency != base.frequency
                or grown.maximal_value != c * base.maximal_value
            ):
                scaling_bad = scaling_bad or (f, c, n)
            if analyze(mirrored, -n) != base:
                reflection_bad = reflection_bad or (f, n)
            r = rng.randint(0, 120)
            if bilinear_average(f, g, n, r) != bilinear_average(g, f, n, r):
                bilinear_bad = bilinear_bad or (f, g, n, r)
            if bilinear_analyze(f, g, n) != bilinear_analyze(g, f, n):
                bilinear_bad = bilinear_bad or (f, g, n, None)
    def check(name, bad):
        if bad is None:
            return Check(name, True, f"{trials} signals, exact equality")
        return Check(
            name, False, f"counterexample: {bad[1:]}",
            replay=("invariance.sig", dump_signal(bad[0])),
        )
    return [
        check("translation covariance of (M, E, F)", translation_bad),
        check("positive scaling fixes (E, F) and scales M", scaling_bad),
        check("reflection symmetry", reflection_bad),
        check("bilinear argument symmetry", bilinear_bad),
    ]


def desk_scale_roster() -> list[tuple[str, Signal]]:
    """One desk-scale signal per built-in family (two for the parametrized ones)."""
    return [
        ("squares_power(1, 40)", squares_power(Fraction(1), 40)),
        ("squares_power(1/4, 60)", squares_power(Fraction(1, 4), 60)),
        ("squares_log(1, 60)", squares_log(Fraction(1), 60)),
        ("stretched_log(1, 60)", stretched_log(Fraction(1), 60)),
        ("stretched_log(1/2, 60)", stretched_log(Fraction(1, 2), 60)),
        ("spike_pair(100)", spike_pair(100)),
        ("composite_jump(100, 102)", composite_jump(100, 102)),
    ]


def _half_mass_failure(f: Signal, start: int, span: int) -> int | None:
    """The first n with |n| in [start, start + span] where either form of
    the half-mass bound fails, or None."""
    l1 = f.l1_norm
    for magnitude in range(start, start + span + 1):
        for n in {magnitude, -magnitude}:
            res = analyze(f, n)
            if res.maximal_value < Fraction(l1, 8 * abs(n) + 2):
                return n
            fr = res.frequency
            window_mass = f.window_sum(IntegerInterval(n - fr, n + fr))
            if window_mass * (8 * abs(n) + 2) < (2 * fr + 1) * l1:
                return n
    return None


def suite_fundamental(span: int = 500, roster=None) -> list[Check]:
    """M f(n) >= ||f||_1 / (8|n| + 2) for |n| in [half-mass radius, +span],
    and the equivalent window form: the mass inside [n - F, n + F] is at
    least (2F + 1) / (8|n| + 2) of ||f||_1 at the frequency F."""
    checks = []
    for name, f in roster or desk_scale_roster():
        start = half_mass_radius(f)
        bad = _half_mass_failure(f, start, span)
        checks.append(
            Check(
                f"half-mass lower bound for {name}",
                bad is None,
                f"half-mass radius {start}, span {span}"
                + ("" if bad is None else f", fails at n={bad}"),
            )
        )
    return checks


def suite_examples() -> list[Check]:
    """Exact pointwise facts about the built-in families at desk scale."""
    checks = []

    for size in (100, 150):
        f = spike_pair(size)
        profile = [fr for _, _, fr in frequency_profile(f, IntegerInterval(0, 2))]
        checks.append(
            Check(
                f"spike_pair({size}) profile on [0, 2]",
                profile == [0, 3 * size + 1, 3 * size + 2],
                f"frequencies {profile}",
            )
        )

    f = composite_jump(100, 102)
    ok = all(
        analyze(f, 4**c).frequency == 0 and analyze(f, 4**c + 1).frequency == 3 * c + 1
        for c in (100, 101, 102)
    )
    checks.append(
        Check(
            "composite_jump(100, 102) per-block frequencies",
            ok,
            "F(4**C) = 0 and F(4**C + 1) = 3C + 1 at ~120-digit indices",
        )
    )

    f = squares_power(Fraction(1), 3)
    checks.append(
        Check(
            "squares_power(1, 3) exact values",
            list(f) == [(1, Fraction(1)), (4, Fraction(1, 4)), (9, Fraction(1, 9))],
            "support {1, 4, 9}",
        )
    )

    f = squares_log(Fraction(1), 12)
    checks.append(
        Check(
            "squares_log(.., 12) support starts at 10**2",
            f.indices == (100, 121, 144),
            f"support {f.indices}",
        )
    )

    f = stretched_log(Fraction(1), 300)
    support = f.indices
    bad = [
        m
        for m in range(150, 301)
        if analyze(f, support[m - 10]).frequency != 0
    ]
    checks.append(
        Check(
            "stretched_log(1, 300) zero frequency on upper support",
            not bad,
            f"m in [150, 300]{'' if not bad else f', fails at m={bad[0]}'}",
        )
    )
    bad_bilinear = [
        m
        for m in range(150, 301, 10)
        if bilinear_analyze(f, f, support[m - 10]).frequency != 0
    ]
    checks.append(
        Check(
            "stretched_log(1, 300) zero bilinear frequency (f paired with itself)",
            not bad_bilinear,
            "subsampled upper support",
        )
    )

    delta = Signal.from_pairs([(0, 1)])
    params = LevelParams(Fraction(2))
    checks.append(
        Check(
            "delta-signal censuses",
            census_members(delta, params, 100) == ([0], [0])
            and census_members(delta, LevelParams(Fraction(2), mode="theta-zero"), 10)[0]
            == [0],
            "all three censuses pin {0}",
        )
    )
    return checks


SUITES = {
    "oracle": suite_oracle,
    "variational": suite_variational,
    "covering": suite_covering,
    "invariance": suite_invariance,
    "fundamental": suite_fundamental,
    "examples": suite_examples,
}


# The suites that take `trials` and `seed`; the others take neither.
SEEDED_SUITES = ("oracle", "covering", "invariance")
