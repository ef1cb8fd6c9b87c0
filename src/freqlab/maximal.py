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
That prune is loose, so every few steps the walk also tries to certify
its tail: whether every radius from its next candidate up to the prune
averages strictly below the best.  `_blocks_below` answers that exactly.
Most tries that fail already fail at the next candidate, so its window
comes first, and the rest goes by descent from the far end.  The window
W(n, b) at the top radius b left, two bisects into the signal's prefix
sums, bounds the window at every radius below b, so it clears at once
every r with best (2r + 1) > W(n, b); the largest r it does not clear is
the next top.  The descent fails once a top reaches the best and passes
once the top falls to the next candidate.  If it passes, no later radius
can improve or tie, so the walk stops with the attaining set already
exact; a try that fails leaves the walk exact all the same.  The tries come
after TAIL_STEPS steps and then after twice as many more each time one
fails, so a walk that cannot stop early pays a few tries, not one per
step.
A census asks only whether F(n) <= |n| / C, that is F(n) <= cap with
cap = floor(|n| / C), so given a slope C the walk decides every other n
early and yields nothing for it.  Three exits decide, all by strict
comparisons, so a tie never decides and every member still walks to the
prune or to a certified tail:

* the first strict improvement at a radius r > cap.  The frequency is
  the radius of the last strict improvement, so F(n) >= r > cap.
* one try before any step, at a span R = [n, n1]: n alone at a support
  point, else a run of one sign with no support point.  Every m of R has
  M(m) >= A = W([n1 - rho, n + rho]) / (2 rho + 1) for any rho, no mass
  but f(n) at a radius below the distance a from R to the rest of the
  support, and at most V(r) / (2r + 1) at a radius r >= a, where
  V(r) = W([n - r, n1 + r]).  So f(n) < A and that bound strictly below A
  at every r from a up to top, the largest cap over R, decide all of R;
  with no mass at n and a > top no radius up to top sees any mass, and A
  is not needed.  F changes
  slowly, so rho = max(carry + n1 - n + 1, top + 1), carry being the
  radius that decided the last decided n, keeps the window that did.
* the tail-try witness.  Any lower bound on M(n) serves as A*, so after
  a failed try the walk keeps its A.  While the best is below A*, each
  tail try tests the radii from the next candidate up to cap against A*
  in place of the tail, which rho keeps from passing: if they pass, every
  radius up to cap averages below A* <= M(n), and F(n) > cap.
`analyze` is the kernel at one n; `frequency_values` runs it over
chunks of a span, serially or on a process pool, and with a slope the
walk yields (n, F) for the members only.
`frequency_profile` reads each maximal value off as the average at the
frequency, which attains the supremum.

The bilinear variants replace the window sum by
sum over k in [-r, r] of |f(n - k) g(n + k)|.  The window at radius r
holds exactly the terms with |k| <= r, so the bilinear search is the
kernel on a one-sided support: distance d carries the terms for k = d
and k = -d, and the candidate radii are 0 and those d.  The terms are
assembled within the hulls: a pair s = n - k, t = n + k has s + t = 2n,
so only f's support inside [2n - g.hi, 2n - g.lo] can pair.  That slice,
mirrored through n, is intersected with g's index set in one set
operation, and only the pairs found are multiplied.
When n lies in both supports the radius 0 already holds the term
t0 = |f(n) g(n)|, and `bilinear_analyze` first tries to certify that
no other radius reaches it, without assembling any term.  It descends
like the tail tries, from the farthest distance at which the hulls leave
room for a pair: the window at a top b is bounded, for each mirrored
side of [1, b], by the lesser of (mass of f) x (max of g) and (max of
f) x (mass of g), from the prefix sums and the running maxima cached on
each Signal, and clears every radius whose average it keeps strictly
below t0.  If the top falls below 1, E = {0}; if a top is not cleared,
the terms are assembled.
`bilinear_average` sums the same terms up to its radius.

`analyze_brute_force` and `bilinear_analyze_brute_force` are the
independent oracles: they bucket each term by its distance from n and
`_sweep` every radius up to `radius_bound`, with no walk and no pruning.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate

from .signal import IntegerInterval, Record, Signal, exact_fraction, exact_int
from .signal import format_int, format_number


class FrequencyResult(Record):
    """Maximal value, full attaining set, and least attaining radius at one point.

    For the zero signal every radius attains the (zero) supremum;
    `extremal_radii` is then None and `zero_signal` is set, with the
    frequency reported as 0 by convention.
    """

    __slots__ = ("maximal_value", "extremal_radii", "frequency", "zero_signal")
    _defaults = {"zero_signal": False}


class BilinearFrequencyResult(Record):
    """Bilinear analogue of `FrequencyResult`.

    `degenerate` marks points where the bilinear supremum is 0 (no k
    ever pairs two support points); the attaining set is then every
    radius and the frequency is 0 by convention.
    """

    __slots__ = ("maximal_value", "extremal_radii", "frequency", "degenerate")
    _defaults = {"degenerate": False}


def average(f: Signal, n: int, r: int) -> Fraction:
    """Centered average of |f| over [n - r, n + r], exact.

    >>> from fractions import Fraction
    >>> average(Signal.from_pairs([(0, 1)]), 0, 1)
    Fraction(1, 3)
    """
    n, r = exact_int(n, "n"), exact_int(r, "r")
    if r < 0:
        raise ValueError(f"radius must be non-negative, got {format_int(r)}")
    return Fraction(f.window_sum_scaled(n - r, n + r), f.scale * (2 * r + 1))


def radius_bound(f: Signal, n: int) -> int:
    """A radius r0 such that every attaining radius at n is at most r0.

    r0 is the distance from n to the farthest end of the support hull:
    the window at r0 already holds all of ||f||_1, and any larger window
    divides the same mass by a larger count.  Raises ValueError for the
    zero signal, whose attaining set is every radius.
    """
    n = exact_int(n, "n")
    hull = f.support_hull()
    if hull is None:
        raise ValueError("zero signal: the attaining set is unbounded")
    return max(abs(n - hull.lo), abs(n - hull.hi))


# Walk steps before the first try at certifying the tail of a walk; each
# failed try doubles the steps to the next.
TAIL_STEPS = 8


def _candidate_walk(idx, sv, prefix, lo: int, hi: int, p: int = 0, q: int = 1):
    """The exact candidate-radius walk at every n in [lo, hi], in order.

    `idx` and `sv` are sorted support indices and their positive scaled
    values, and `prefix` the prefix sums of `sv` (prefix[k] sums the
    first k), so W(n, r) is two bisects and a difference and prefix[-1]
    is ||f||_1.
    Yields (best_num, best_w, ties) per n: the maximal value is
    best_num / (scale * best_w) and `ties` lists every attaining radius
    in increasing order, so ties[0] is the frequency.

    The walk stops at the prune, or earlier once it certifies its tail:
    after TAIL_STEPS steps, and again after twice as many more at each
    failed try, `_blocks_below` tests whether every radius from the next
    candidate up to the least radius the prune stops at averages strictly
    below the best.  If so, none of them can improve or tie, so the ties
    are already exact.

    A slope C = p/q > 0 adds the three decision exits of the module
    docstring, and the walk yields (n, F) for the members alone.  A try
    spans at most L points; a pass moves n to n1 and doubles L, and a
    failure halves L, down to 1, and steps at n with its own cap
    q*|n| // p, keeping the try's A as A* for the tail tries.
    Wherever F(n) <= cap no exit can pass, so the walk runs to the prune
    or to a certified tail and yields the exact result; a certified tail
    never decides a non-member, as its ties[0] is the radius of a strict
    improvement, at most cap.  The default p = 0 never exits: its cap is
    `far`, beyond every radius taken, and its A* is 0.
    """
    size = len(idx)
    l1 = prefix[-1]
    # Beyond every support distance from any n in [lo, hi]; the prune
    # stops the walk before an exhausted side is ever taken as a radius.
    far = max(hi, idx[-1]) - min(lo, idx[0]) + 1
    # The step loops count steps for the tail tries at no cost per step.
    first_try = range(TAIL_STEPS)
    carry = -1  # the radius that decided the last decided n
    num_star, w_star, cap = 0, 1, far
    run = 1  # L, the most points the next try may decide
    nxt = bisect_left(idx, lo)
    n = lo - 1
    while n < hi:
        n += 1
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
        if p:
            cap = q * abs(n) // p  # p*r > q*|n| iff r > cap
            # the try: n alone at a support point and while L is 1, else up to
            # L points of n's sign, short of the next support point and of the chunk's end
            n1 = n
            if run > 1 and not best_num:
                n1 = min(n + run, n + dr, hi + 1, 0 if n < 0 else hi + 1) - 1
            top = q * n1 // p if n1 > n >= 0 else cap  # the largest cap over [n, n1]
            # rho = max(carry + n1 - n + 1, top + 1) and a, the distance from
            # [n, n1] to the support other than n, with no call per try
            rho = carry + n1 - n + 1 if carry + n1 - n > top else top + 1
            a = dr + n - n1 if dr + n - n1 < dl else dl
            w_star = 2 * rho + 1
            # with no mass at n and a > top no radius up to top sees any, so no window is needed
            num_star = (best_num or a <= top) and (
                prefix[bisect_right(idx, n + rho)] - prefix[bisect_left(idx, n1 - rho)]
            )
            if (not best_num or best_num * w_star < num_star) and _blocks_below(
                idx, prefix, n, n1, a, top + 1, num_star, w_star
            ):
                n, carry, run = n1, rho, 2 * run
                continue
            run = run // 2 or 1
        steps = first_try
        while True:
            for _ in steps:
                r = dl if dl < dr else dr
                w = 2 * r + 1
                rhs = best_num * w
                if bound < rhs:  # l1 / w < best: no radius from r outward attains
                    break
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
                        ties, carry = None, r
                        break
                    ties = [r]
                elif lhs == rhs:
                    ties.append(r)
            else:  # `steps` steps without an exit
                a = dl if dl < dr else dr
                if best_num * w_star < num_star * best_w:  # best < A*: the witness, not the tail
                    if _blocks_below(idx, prefix, n, n, a, cap + 1, num_star, w_star):
                        ties, carry = None, rho
                        break
                # the prune bounds every radius from (l1 best_w // best_num + 1) // 2 on
                elif _blocks_below(
                    idx, prefix, n, n, a, (l1 * best_w // best_num + 1) // 2, best_num, best_w
                ):
                    break
                steps = range(2 * len(steps))
                continue
            break
        if not p:
            yield best_num, best_w, ties
        elif ties is not None:
            yield n, ties[0]


def _blocks_below(idx, prefix, n0: int, n1: int, a: int, end: int, num: int, w: int) -> bool:
    """Whether every radius r in [a, end) averages strictly below num / w
    at every n in [n0, n1], that is V(r) w < num (2r + 1) for
    V(r) = W([n0 - r, n1 + r]), which holds every n's window at r.

    The answer is exact.  Most tries that fail already fail at a, so the
    window there comes first; with num = 0, as at run tries whose window
    misses the support, it always fails, since nothing is strictly below
    0.  The rest goes by descent from the far end: V grows with r, so the
    window V(b) at the top radius b left bounds every radius below it,
    and it is strictly below at every r with num (2r + 1) > V(b) w, which
    is every r past (V(b) w - num) // (2 num).  If b itself is not past
    that radius, it reaches num / w and the answer is no; otherwise the
    descent goes on from there, so each window clears the largest block
    it can, until the top falls to a.
    """
    if a < end:
        window = prefix[bisect_right(idx, n1 + a)] - prefix[bisect_left(idx, n0 - a)]
        if window * w >= num * (2 * a + 1):
            return False
    b = end - 1
    while b > a:
        window = prefix[bisect_right(idx, n1 + b)] - prefix[bisect_left(idx, n0 - b)]
        r = (window * w - num) // (2 * num)  # the largest r with num (2r + 1) <= window * w
        if r >= b:  # the radius b itself reaches num / w
            return False
        b = r  # every radius in (r, b] is strictly below
    return True


def analyze(f: Signal, n: int) -> FrequencyResult:
    """Exact maximal value, full attaining set, and frequency at n.

    >>> analyze(Signal.from_pairs([(0, 1)]), 7)
    FrequencyResult(maximal_value=Fraction(1, 15), extremal_radii=(7,), frequency=7, zero_signal=False)
    """
    n = exact_int(n, "n")
    if f.is_zero:
        return FrequencyResult(Fraction(0), None, 0, zero_signal=True)
    walk = _candidate_walk(f.indices, f.scaled_values, f.scaled_prefix, n, n)
    best_num, best_w, ties = next(walk)
    return FrequencyResult(Fraction(best_num, f.scale * best_w), tuple(ties), ties[0], False)


def analyze_brute_force(f: Signal, n: int) -> FrequencyResult:
    """Independent oracle for `analyze`: bucket each support value by its
    distance from n and `_sweep` every radius up to `radius_bound`."""
    if f.is_zero:
        return FrequencyResult(Fraction(0), None, 0, zero_signal=True)
    gains = [0] * (radius_bound(f, n) + 1)
    for s, v in zip(f.indices, f.scaled_values):
        gains[abs(s - n)] += v
    best_num, best_w, ties = _sweep(gains)
    return FrequencyResult(Fraction(best_num, f.scale * best_w), tuple(ties), ties[0], False)


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
    # window_sum([-m, m]) is nondecreasing in m and reaches l1 at the last candidate
    k = bisect_left(candidates, True, key=lambda m: 2 * f.window_sum_scaled(-m, m) >= l1)
    return candidates[k]


def frequency_profile(
    f: Signal, span: IntegerInterval, threads: int = 1
) -> list[tuple[int, Fraction, int]]:
    """(n, maximal value, frequency) for every n in the span, in order.

    The frequency F attains the supremum, so the maximal value is the
    average at radius F; the frequencies come from `frequency_values`.
    """
    window, scale = f.window_sum_scaled, f.scale
    rows = zip(range(span.lo, span.hi + 1), frequency_values(f, span, threads))
    return [(n, Fraction(window(n - fr, n + fr), scale * (2 * fr + 1)), fr) for n, fr in rows]


def frequency_values(
    f: Signal, span: IntegerInterval, threads: int = 1, slope: Fraction | None = None
) -> list[int] | list[tuple[int, int]]:
    """The frequency at every n in the span, in order.

    With a slope C > 0 only the points with F(n) <= |n| / C are kept, as
    (n, F(n)) pairs: the decision exits of `_candidate_walk` rule every
    other n out without walking to the prune, and the walk yields the
    members alone, so the output grows with the members, and a stretch
    far from the support costs a few runs, not a step per point.

    When `_pool_size` allows more than one worker, at most one per 2048
    points, the span is cut into chunks of max(2048, ceil(points / (8 *
    workers))) points, one walk each, which run on a process pool; a
    serial scan is one walk.  Sizing the chunks by the workers, not by the
    threads asked for, keeps their count within 8 per CPU.  Each worker
    gets the signal data once, when it starts, and each task only its
    ends and the slope, so every start method gives the same rows; the
    chunks come back in index order, so the output is identical for any
    worker count.

    >>> delta = Signal.from_pairs([(0, 1)])
    >>> frequency_values(delta, IntegerInterval(-2, 2))
    [2, 1, 0, 1, 2]
    >>> frequency_values(delta, IntegerInterval(-2, 2), slope=Fraction(2))
    [(0, 0)]
    """
    threads = checked_threads(threads)
    slope = None if slope is None else exact_fraction(slope, "slope")
    if slope is not None and slope <= 0:
        raise ValueError(f"slope must be positive, got {format_number(slope)}")
    p, q = (0, 1) if slope is None else (slope.numerator, slope.denominator)
    if f.is_zero:
        return [(n, 0) for n in range(span.lo, span.hi + 1)] if p else [0] * span.length
    data = (f.indices, f.scaled_values, f.scaled_prefix)
    workers = _pool_size(threads, -(-span.length // 2048))
    if workers <= 1:
        return _frequencies(*data, span.lo, span.hi, p, q)
    chunk = max(2048, -(-span.length // (8 * workers)))
    tasks = [(lo, min(lo + chunk - 1, span.hi), p, q) for lo in range(span.lo, span.hi + 1, chunk)]
    import multiprocessing  # only pooled scans pay for its import
    with multiprocessing.Pool(workers, _hold, data) as pool:
        # imap hands the chunks back in order, one at a time, so each
        # chunk's list is freed once it is copied out
        return [row for piece in pool.imap(_pooled, tasks) for row in piece]


def checked_threads(threads: int) -> int:
    """`threads` as an int, refused unless it is an integer of at least 1."""
    threads = exact_int(threads, "threads")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {format_int(threads)}")
    return threads


def _frequencies(
    idx, sv, prefix, lo: int, hi: int, p: int, q: int
) -> list[int] | list[tuple[int, int]]:
    """The frequency at every n in [lo, hi], in order, or only the pairs
    (n, F) with F <= |n| / (p/q) when p > 0: one walk."""
    walk = _candidate_walk(idx, sv, prefix, lo, hi, p, q)
    return list(walk) if p else [row[2][0] for row in walk]


_signal: tuple = ()  # a pool worker's (idx, sv, prefix), set by `_hold` when it starts


def _hold(*data) -> None:
    """Pool initializer: keep the signal data for every task of this worker."""
    global _signal
    _signal = data


def _pooled(task) -> list[int] | list[tuple[int, int]]:
    """One chunk of a pooled scan, task = (lo, hi, p, q), on the worker's signal."""
    return _frequencies(*_signal, *task)


def _pool_size(threads: int, chunks: int) -> int:
    """Worker processes for a scan: at most the threads asked for, the
    CPUs this process may run on, and the chunks there are to hand out."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return min(threads, cpus, chunks)


def bilinear_average(f: Signal, g: Signal, n: int, r: int) -> Fraction:
    """(1/(2r+1)) * sum over k in [-r, r] of |f(n - k) g(n + k)|, exact.

    The window at radius r holds exactly the product terms with |k| <= r.
    """
    n, r = exact_int(n, "n"), exact_int(r, "r")
    if r < 0:
        raise ValueError(f"radius must be non-negative, got {format_int(r)}")
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
    supremum is 0 at every radius and the result is degenerate.  When n
    lies in both supports, `_only_zero_attains` first tries to certify
    E = {0} without assembling the terms.
    """
    n = exact_int(n, "n")
    if n in f.position and n in g.position:
        t0 = f.scaled_value_at(n) * g.scaled_value_at(n)
        if _only_zero_attains(f, g, n, t0):
            return BilinearFrequencyResult(Fraction(t0, f.scale * g.scale), (0,), 0, False)
    terms = _bilinear_terms(f, g, n)
    if not terms:
        return BilinearFrequencyResult(Fraction(0), None, 0, degenerate=True)
    # The walk sees only distances from its centre, so the one-sided
    # support (distance d carrying terms[d]) is walked from 0.
    dists = sorted(terms)
    sv = [terms[d] for d in dists]
    best_num, best_w, ties = next(_candidate_walk(dists, sv, (0, *accumulate(sv)), 0, 0))
    return BilinearFrequencyResult(
        Fraction(best_num, f.scale * g.scale * best_w), tuple(ties), ties[0], False
    )


def _only_zero_attains(f: Signal, g: Signal, n: int, t0: int) -> bool:
    """Whether radius 0 alone attains the bilinear supremum at n, where
    n lies in both supports and t0 = f(n) g(n), scaled.

    A term at distance d >= 1 pairs a point of f and a point of g, each
    at distance d from n, one on either side, so d is at most `reach`,
    the farthest d at which the hulls leave room for such a pair; past
    it the window stays put while 2r + 1 grows.  The descent starts at
    b = reach.  The window at every radius up to b is at most t0 + U(b),
    where U adds, for each mirrored side of [1, b], the lesser of (mass
    of f) x (max of g) and (max of f) x (mass of g), so every r with
    t0 (2r + 1) > t0 + U(b) is strictly below t0.  If b itself is not,
    the answer is no; otherwise the next top is the largest r that is
    not, and the answer is yes once the top falls below 1.
    """
    fi, gi = f.indices, g.indices
    b = max(min(n - fi[0], gi[-1] - n), min(fi[-1] - n, n - gi[0]))
    while b >= 1:
        f_left, f_right = _mass_and_max(f, n - b, n - 1), _mass_and_max(f, n + 1, n + b)
        if g is f:
            g_left, g_right = f_left, f_right
        else:
            g_left, g_right = _mass_and_max(g, n - b, n - 1), _mass_and_max(g, n + 1, n + b)
        # each term pairs a point s with 2n - s: sum f(s) g(2n - s) is at
        # most (mass of f) x (max of g) and (max of f) x (mass of g)
        bound = min(f_left[0] * g_right[1], f_left[1] * g_right[0])
        bound += min(f_right[0] * g_left[1], f_right[1] * g_left[0])
        r = bound // (2 * t0)  # the largest r with t0 (2r + 1) <= t0 + U(b)
        if r >= b:  # the radius b itself may reach t0
            return False
        b = r  # every radius in (r, b] is strictly below
    return True


def _mass_and_max(f: Signal, lo: int, hi: int) -> tuple[int, int]:
    """The scaled mass of f over [lo, hi] and an upper bound on its
    largest scaled value there: the lesser of the running maximum up to
    the window's last point and the one from its first; (0, 0) for an
    empty window."""
    left = bisect_left(f.indices, lo)
    right = bisect_right(f.indices, hi)
    if left == right:
        return 0, 0
    mass = f.scaled_prefix[right] - f.scaled_prefix[left]
    return mass, min(f.scaled_prefix_max[right - 1], f.scaled_suffix_max[left])


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
        Fraction(best_num, f.scale * g.scale * best_w), tuple(ties), ties[0], False
    )
