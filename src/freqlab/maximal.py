"""Centered averages, their supremum over radii, and least attaining radii.

For a sparse signal f, an integer n and a radius r >= 0, the centered
average is

    average(f, n, r) = (sum of |f| over [n - r, n + r]) / (2r + 1).

The supremum of these averages over all radii is the maximal value at n.
For a nonzero finitely supported f it is attained on a finite nonempty
set of radii: once the window swallows the whole support the numerator
freezes at ||f||_1 while the denominator keeps growing, so only radii up
to the hull distance `radius_bound` can attain it.  The least attaining
radius is the *frequency* of f at n.

The attaining-set search never walks radii one by one.  Between two
radii that pull a new support point into the window the numerator is
constant and 1/(2r+1) strictly decreases, so an attaining radius is
either 0 or a distance |s - n| to a support point.

One kernel, `_candidate_walk`, does every such search.  For each n of
a span it walks the candidate distances outward from n, merging the
nearest unvisited support point on either side into a window sum of
rescaled integers, compares averages by integer cross multiplication
(so ties are exact and all of them are kept), and stops once
||f||_1 / (2r+1), which bounds every average from r outward, is
strictly below the best.  That stop always comes: an exhausted side
sits at a distance beyond every support point, and before both sides
are exhausted all of ||f||_1 has been averaged at a smaller radius.
A census asks only whether F(n) <= |n| / C, that is F(n) <= cap with
cap = floor(|n| / C), so given a slope C the walk decides every other n
early and reports cap + 1 for it, a value in (|n| / C, F(n)] that
depends on n alone.  Two exits decide, both by strict comparisons, so a
tie never decides and every member still walks to the prune:

* the first strict improvement at a radius r > cap.  The frequency is
  the radius of the last strict improvement, so F(n) >= r > cap.
* a carried witness, when some support point lies within cap of n.
  Write W(n, r) for the window sum.  Take rho = max(rho_prev + 1,
  cap + 1), rho_prev being the radius that decided the last n decided
  in the same walk, and A* = W(n, rho) / (2 rho + 1); F changes slowly
  with n, so rho nearly always proves n no member at once.  Let stop be
  the least r with W(n, cap) / (2r + 1) < A*, or cap + 1 if that is
  smaller.  At the first candidate r >= stop, the best average so far
  covers every radius below r.  If it is below A*, so is every radius
  below r, and every radius in [r, cap] averages at most
  W(n, cap) / (2r + 1) < A*.  No radius <= cap then reaches the
  supremum, which is at least A*, so F(n) > cap.  Otherwise the witness
  is dropped for n.
`analyze` is the kernel at one n; `frequency_values` runs it over
chunks of a span, serially or on a process pool, and `frequency_profile`
reads each maximal value off as the average at the frequency, which
attains the supremum.

The bilinear variants replace the window sum by
sum over k in [-r, r] of |f(n - k) g(n + k)|.  The window at radius r
holds exactly the terms with |k| <= r, so the bilinear search is the
kernel on a one-sided support: distance d carries the terms for k = d
and k = -d, and the candidate radii are 0 and those d.  The terms are
assembled within the hulls: a pair s = n - k, t = n + k has s + t = 2n,
so only f's support inside [2n - g.hi, 2n - g.lo] can pair.  That slice,
mirrored through n, is intersected with g's index set in one set
operation, and only the pairs found are multiplied.
`bilinear_average` sums the same terms up to its radius.

`analyze_brute_force` and `bilinear_analyze_brute_force` are the
independent oracles: they bucket each term by its distance from n and
`_sweep` every radius up to `radius_bound`, with no walk and no pruning.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .signal import IntegerInterval, Signal, format_number


@dataclass(frozen=True)
class FrequencyResult:
    """Maximal value, full attaining set, and least attaining radius at one point.

    For the zero signal every radius attains the (zero) supremum;
    `extremal_radii` is then None and `zero_signal` is set, with the
    frequency reported as 0 by convention.
    """

    maximal_value: Fraction
    extremal_radii: tuple[int, ...] | None
    frequency: int
    zero_signal: bool = False


@dataclass(frozen=True)
class BilinearFrequencyResult:
    """Bilinear analogue of `FrequencyResult`.

    `degenerate` marks points where the bilinear supremum is 0 (no k
    ever pairs two support points); the attaining set is then every
    radius and the frequency is 0 by convention.
    """

    maximal_value: Fraction
    extremal_radii: tuple[int, ...] | None
    frequency: int
    degenerate: bool = False


def average(f: Signal, n: int, r: int) -> Fraction:
    """Centered average of |f| over [n - r, n + r], exact.

    >>> from fractions import Fraction
    >>> average(Signal.from_pairs([(0, 1)]), 0, 1)
    Fraction(1, 3)
    """
    if r < 0:
        raise ValueError(f"radius must be non-negative, got {r}")
    return Fraction(f.window_sum_scaled(n - r, n + r), f.scale * (2 * r + 1))


def radius_bound(f: Signal, n: int) -> int:
    """A radius r0 such that every attaining radius at n is at most r0.

    r0 is the distance from n to the farthest end of the support hull:
    the window at r0 already holds all of ||f||_1, and any larger window
    divides the same mass by a larger count.  Raises ValueError for the
    zero signal, whose attaining set is every radius.
    """
    hull = f.support_hull()
    if hull is None:
        raise ValueError("zero signal: the attaining set is unbounded")
    return max(abs(n - hull.lo), abs(n - hull.hi))


def _candidate_walk(idx, sv, l1: int, lo: int, hi: int, p: int = 0, q: int = 1):
    """The exact candidate-radius walk at every n in [lo, hi], in order.

    `idx` and `sv` are sorted support indices and their positive scaled
    values, `l1` their sum.  Yields (best_num, best_w, ties) per n: the
    maximal value is best_num / (scale * best_w) and `ties` lists every
    attaining radius in increasing order, so ties[0] is the frequency.

    A slope C = p/q > 0 adds the decision exit of the module docstring.
    With cap = q*|n| // p, every n with F(n) > cap is decided and yields
    ties == [cap + 1]; best_num / best_w is then an average that exceeds
    every average at a radius <= cap, not the maximal value.  It is
    decided by one of two strict tests:

    * an improvement at a radius r > cap: F(n) >= r > cap;
    * the witness rho = max(rho_prev + 1, cap + 1), tried only when the
      nearest support point is within cap (a farther one decides at the
      first step).  With A* = W(n, rho) / (2 rho + 1) and
      stop = min(cap + 1, (W(n, cap) * (2 rho + 1) // W(n, rho) + 1) // 2),
      the least r with W(n, cap) / (2r + 1) < A*: at the first candidate
      r >= stop, best < A* bounds every radius below r by best < A* and
      every radius in [r, cap] by W(n, cap) / (2r + 1) < A*, so no
      radius <= cap attains and F(n) > cap.  best >= A* drops it.

    Wherever F(n) <= cap neither test can pass, so the walk runs to the
    prune and yields the exact result.  The default p = 0 never exits:
    no radius reaches its cap or its stop, both beyond `far`.
    """
    size = len(idx)
    # Beyond every support distance from any n in [lo, hi]; the prune
    # stops the walk before an exhausted side is ever taken as a radius.
    far = max(hi, idx[-1]) - min(lo, idx[0]) + 1
    if p:
        prefix = [0, *accumulate(sv)]  # W(n, r) from two bisects
    carry = -1  # the radius that decided the last decided n
    nxt = bisect_left(idx, lo)
    for n in range(lo, hi + 1):
        i = nxt - 1
        j = nxt
        if j < size and idx[j] == n:
            best_num = sv[j]
            j += 1
            nxt = j
        else:
            best_num = 0
        acc = best_num
        best_w = 1
        bound = l1  # l1 * best_w
        ties = [0]
        dl = n - idx[i] if i >= 0 else far
        dr = idx[j] - n if j < size else far
        stop = far + 1
        cap = far
        if p:
            cap = q * abs(n) // p  # p*r > q*|n| iff r > cap
            # A farther nearest point decides at the first step anyway.  An
            # exhausted side passes only if every real point is within cap.
            if best_num or dl <= cap or dr <= cap:
                rho = max(carry + 1, cap + 1)
                w_star = 2 * rho + 1
                num_star = prefix[bisect_right(idx, n + rho)] - prefix[bisect_left(idx, n - rho)]
                within = prefix[bisect_right(idx, n + cap)] - prefix[bisect_left(idx, n - cap)]
                stop = min(cap + 1, (within * w_star // num_star + 1) // 2)
        while True:
            r = dl if dl < dr else dr
            w = 2 * r + 1
            rhs = best_num * w
            if bound < rhs:  # l1 / w < best: no radius from r outward attains
                break
            if r >= stop:
                if best_num * w_star < num_star * best_w:  # best < A*: F(n) > cap
                    best_num, best_w, ties, carry = num_star, w_star, [cap + 1], rho
                    break
                stop = far + 1
            if dl == r:
                acc += sv[i]
                i -= 1
                dl = n - idx[i] if i >= 0 else far
            if dr == r:
                acc += sv[j]
                j += 1
                dr = idx[j] - n if j < size else far
            lhs = acc * best_w
            if lhs > rhs:
                best_num = acc
                best_w = w
                bound = l1 * w
                if r > cap:  # F(n) >= r > cap: decided, not a member
                    ties, carry = [cap + 1], r
                    break
                ties = [r]
            elif lhs == rhs:
                ties.append(r)
        yield best_num, best_w, ties


def analyze(f: Signal, n: int) -> FrequencyResult:
    """Exact maximal value, full attaining set, and frequency at n.

    >>> analyze(Signal.from_pairs([(0, 1)]), 7)
    FrequencyResult(maximal_value=Fraction(1, 15), extremal_radii=(7,), frequency=7, zero_signal=False)
    """
    if f.is_zero:
        return FrequencyResult(Fraction(0), None, 0, zero_signal=True)
    best_num, best_w, ties = next(_candidate_walk(f.indices, f.scaled_values, f.scaled_l1, n, n))
    return FrequencyResult(
        Fraction(best_num, f.scale * best_w), tuple(ties), ties[0], zero_signal=False
    )


def analyze_brute_force(f: Signal, n: int) -> FrequencyResult:
    """Independent oracle for `analyze`: bucket each support value by its
    distance from n and `_sweep` every radius up to `radius_bound`."""
    if f.is_zero:
        return FrequencyResult(Fraction(0), None, 0, zero_signal=True)
    gains = [0] * (radius_bound(f, n) + 1)
    for s, v in zip(f.indices, f.scaled_values):
        gains[abs(s - n)] += v
    best_num, best_w, ties = _sweep(gains)
    return FrequencyResult(
        Fraction(best_num, f.scale * best_w), tuple(ties), ties[0], zero_signal=False
    )


def _sweep(gains: list[int]):
    """The argmax over every radius r < len(gains), the window gaining
    gains[r] at r; returns (best_num, best_w, ties) like `_candidate_walk`."""
    acc, best_num, best_w, ties = 0, 0, 1, []
    for r, gain in enumerate(gains):
        acc += gain
        w = 2 * r + 1
        lhs = acc * best_w
        rhs = best_num * w
        if lhs > rhs:
            best_num, best_w, ties = acc, w, [r]
        elif lhs == rhs:
            ties.append(r)
    return best_num, best_w, ties


def half_mass_radius(f: Signal) -> int:
    """Least m >= 0 with sum of |f| over [-m, m] at least ||f||_1 / 2.

    The window sum only jumps at distances |s| to support points, so the
    answer is found by binary search over those distances.
    """
    if f.is_zero:
        raise ValueError("zero signal has no half-mass radius")
    l1 = f.scaled_l1
    candidates = sorted({0} | {abs(s) for s in f.indices})
    lo, hi = 0, len(candidates) - 1
    # window_sum([-m, m]) is nondecreasing in m and reaches l1 at the end.
    while lo < hi:
        mid = (lo + hi) // 2
        m = candidates[mid]
        if 2 * f.window_sum_scaled(-m, m) >= l1:
            hi = mid
        else:
            lo = mid + 1
    return candidates[lo]


def frequency_profile(
    f: Signal, span: IntegerInterval, threads: int = 1
) -> list[tuple[int, Fraction, int]]:
    """(n, maximal value, frequency) for every n in the span, in order.

    The frequency F attains the supremum, so the maximal value is the
    average at radius F; the frequencies come from `frequency_values`.
    """
    freqs = frequency_values(f, span, threads)
    return [(n, average(f, n, fr), fr) for n, fr in zip(range(span.lo, span.hi + 1), freqs)]


def frequency_values(
    f: Signal, span: IntegerInterval, threads: int = 1, slope: Fraction | None = None
) -> list[int]:
    """The frequency at every n in the span, in order.

    With a slope C = p/q > 0 only the frequencies with F(n) <= |n| / C
    are exact: every other n gets q*|n| // p + 1, a value in
    (|n| / C, F(n)] from the decision exit of `_candidate_walk`, which
    tells a census it is no member without walking to the prune.

    Chunks of max(2048, ceil(points / (8 * threads))) points run on a
    process pool when `_pool_size` allows more than one worker.  Each
    task carries its chunk's data, so every start method gives the same
    rows, and the chunks come back in index order, so the output is
    identical for any worker count.
    """
    if slope is not None and slope <= 0:
        raise ValueError(f"slope must be positive, got {format_number(slope)}")
    p, q = (0, 1) if slope is None else (slope.numerator, slope.denominator)
    if f.is_zero:
        return [0] * span.length
    chunk = max(2048, -(-span.length // (8 * max(threads, 1))))
    data = (f.indices, f.scaled_values, f.scaled_l1)
    starts = range(span.lo, span.hi + 1, chunk)
    tasks = [(*data, lo, min(lo + chunk - 1, span.hi), p, q) for lo in starts]
    workers = _pool_size(threads, len(tasks))
    if workers <= 1:
        return [row for task in tasks for row in _frequencies(*task)]
    import multiprocessing  # only pooled scans pay for its import
    with multiprocessing.Pool(workers) as pool:
        return [row for piece in pool.starmap(_frequencies, tasks) for row in piece]


def _frequencies(idx, sv, l1: int, lo: int, hi: int, p: int, q: int) -> list[int]:
    """The frequency at every n in [lo, hi], or q*|n| // p + 1 past
    |n| / (p/q) when p > 0: one chunk of a scan."""
    return [ties[0] for _, _, ties in _candidate_walk(idx, sv, l1, lo, hi, p, q)]


def _pool_size(threads: int, chunks: int) -> int:
    """Worker processes for a scan: at most the threads asked for, the
    cores present, and the chunks there are to hand out."""
    return min(threads, os.cpu_count() or 1, chunks)


def bilinear_average(f: Signal, g: Signal, n: int, r: int) -> Fraction:
    """(1/(2r+1)) * sum over k in [-r, r] of |f(n - k) g(n + k)|, exact.

    The window at radius r holds exactly the product terms with |k| <= r.
    """
    if r < 0:
        raise ValueError(f"radius must be non-negative, got {r}")
    total = sum(v for d, v in _bilinear_terms(f, g, n).items() if d <= r)
    return Fraction(total, f.scale * g.scale * (2 * r + 1))


def _bilinear_terms(f: Signal, g: Signal, n: int) -> dict[int, int]:
    """Scaled product terms keyed by |k|, for k with f(n-k) and g(n+k) both set.

    Assembled within the hulls, as the module docstring describes.
    """
    if f.is_zero or g.is_zero:
        return {}
    two_n = 2 * n
    fi, gi = f.indices, g.indices
    f_slice = fi[bisect_left(fi, two_n - gi[-1]) : bisect_right(fi, two_n - gi[0])]
    f_pos, f_sv, g_pos, g_sv = f.position, f.scaled_values, g.position, g.scaled_values
    terms: dict[int, int] = {}
    for t in g_pos.keys() & map(two_n.__sub__, f_slice):
        d = abs(t - n)
        terms[d] = terms.get(d, 0) + f_sv[f_pos[two_n - t]] * g_sv[g_pos[t]]
    return terms


def bilinear_analyze(f: Signal, g: Signal, n: int) -> BilinearFrequencyResult:
    """Exact bilinear maximal value, attaining set, and frequency at n.

    Candidate radii are 0 plus the |k| for which n - k lies in the
    support of f and n + k in the support of g.  If no k qualifies the
    supremum is 0 at every radius and the result is degenerate.
    """
    terms = _bilinear_terms(f, g, n)
    if not terms:
        return BilinearFrequencyResult(Fraction(0), None, 0, degenerate=True)
    # The walk sees only distances from its centre, so the one-sided
    # support (distance d carrying terms[d]) is walked from 0.
    dists = sorted(terms)
    best_num, best_w, ties = next(
        _candidate_walk(dists, [terms[d] for d in dists], sum(terms.values()), 0, 0)
    )
    return BilinearFrequencyResult(
        Fraction(best_num, f.scale * g.scale * best_w), tuple(ties), ties[0]
    )


def bilinear_analyze_brute_force(f: Signal, g: Signal, n: int) -> BilinearFrequencyResult:
    """Independent oracle for `bilinear_analyze`: put each product
    f(s) g(2n - s), s in f's support, in the bucket for |s - n|, then
    `_sweep` every radius up to `radius_bound(f, n)`."""
    if f.is_zero or g.is_zero:
        return BilinearFrequencyResult(Fraction(0), None, 0, degenerate=True)
    gains = [0] * (radius_bound(f, n) + 1)
    for s, v in zip(f.indices, f.scaled_values):
        gains[abs(s - n)] += v * g.scaled_value_at(2 * n - s)
    best_num, best_w, ties = _sweep(gains)
    if best_num == 0:
        return BilinearFrequencyResult(Fraction(0), None, 0, degenerate=True)
    return BilinearFrequencyResult(
        Fraction(best_num, f.scale * g.scale * best_w), tuple(ties), ties[0]
    )
