"""Censuses of points whose frequency is small compared to |n|.

Given a signal f, write F(n) for the least radius at which the centered
average at n attains its supremum.  For a rational slope C > 1 this
module counts, over n in [-N, N], the points where F(n) falls below a
threshold tied to |n|:

* sublinear census: F(n) <= |n| / C          (CSV column ``count_K``)
* band census:      |n| / (2C) <= F(n) <= |n| / C   (column ``count_S``)

`LevelParams.mode` is one of `LEVELSET_MODES`.  Under "K" and "S" the
``count_K`` column is the sublinear census; under "theta-zero" it is the
zero-threshold census F(n) = 0, a subset of the sublinear one.  The band
census is the same in every mode.  The density columns follow
``count_S`` under "S" and ``count_K`` otherwise.

`census_members` gives both member lists from one frequency scan that
takes the slope and returns the points of the sublinear census only, so
a census never holds a slot per point of [-N, N].

All membership tests cross-multiply integers (C = p/q gives
p * F(n) <= q * |n|), so censuses are exact.  Densities count / N are
exact rationals; the log-weighted diagnostic ratio
count * ln(N)**(1+eps) / N is the one deliberately inexact number in
the package and is reported as a decimal string computed to 64
certified fractional bits: ln(N)**(1+eps) is `dyadic.power` of the
enclosure of ln(N), on the integer fixed-point enclosures of
`freqlab.dyadic`, and the floor is certified once both ends of the
enclosure agree on it.

Asymptotic statements about these censuses are out of reach of any
finite scan; `density_curves` reports exact counts on a finite grid and
never claims a limit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction

from .dyadic import Enclosure, certify, floor_dyadic, ln_int, power
from .maximal import checked_threads, frequency_values
from .signal import IntegerInterval, Record, Signal, exact_fraction, exact_int
from .signal import format_int, format_number

LEVELSET_MODES = ("K", "S", "theta-zero")

_LOG_DENSITY_BITS = 64
_LOG_DENSITY_DIGITS = 20

CENSUS_CSV_HEADER = "N,count_K,count_S,density_num,density_den,log_density"


class LevelParams(Record):
    """Slope, diagnostic weight and mode of a census.

    `ratio` is the comparison slope C and must exceed 1.  `epsilon`
    only weights the logarithm in the diagnostic ratio; it never enters
    a membership decision.  `mode` is one of `LEVELSET_MODES` (see the
    module docstring).
    """

    __slots__ = ("ratio", "epsilon", "mode")

    def __init__(self, ratio: Fraction, epsilon: Fraction = Fraction(1), mode: str = "K"):
        ratio = exact_fraction(ratio, "ratio")
        epsilon = exact_fraction(epsilon, "epsilon")
        if ratio <= 1:
            raise ValueError(f"ratio must exceed 1, got {format_number(ratio)}")
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {format_number(epsilon)}")
        if mode not in LEVELSET_MODES:
            raise ValueError(f"mode must be one of {LEVELSET_MODES}, got {mode!r}")
        super().__init__(ratio, epsilon, mode)


class LevelSetCensus(Record):
    """Counts, densities, and diagnostics on an increasing grid of N values.

    `counts_sublinear` fills the ``count_K`` CSV column and
    `counts_band` fills ``count_S``.  `densities` are exact count / N
    fractions of ``count_S`` under mode "S" and of ``count_K``
    otherwise; `log_densities` are the decimal diagnostic strings of
    the same counts.
    """

    __slots__ = ("n_grid", "counts_sublinear", "counts_band", "densities", "log_densities")


def census_members(
    f: Signal, params: LevelParams, n_max: int, threads: int = 1
) -> tuple[list[int], list[int]]:
    """The sorted count_K and count_S members in [-n_max, n_max], from one scan.

    count_K is {n : F(n) <= |n| / ratio}, or {n : F(n) = 0} under
    "theta-zero"; count_S is {n : |n|/(2*ratio) <= F(n) <= |n|/ratio}
    in every mode.  The zero signal has F identically 0, so every point
    belongs to count_K.

    >>> census_members(Signal.from_pairs([(0, 1)]), LevelParams(2), 100)
    ([0], [0])
    """
    n_max = exact_int(n_max, "n_max")
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {format_int(n_max)}")
    p = params.ratio.numerator
    q = params.ratio.denominator
    zero = params.mode == "theta-zero"
    members_k, members_s = [], []
    span = IntegerInterval(-n_max, n_max)
    for n, fr in frequency_values(f, span, threads=threads, slope=params.ratio):
        if fr == 0 or not zero:
            members_k.append(n)
        if q * abs(n) <= 2 * p * fr:
            members_s.append(n)
    return members_k, members_s


def _log_density_enclosure(count: int, n_value: int, epsilon: Fraction, p: int) -> Enclosure:
    """2**64 * count * ln(N)**(1+eps) / N at scale 2**p, for N >= 2."""
    lo, hi = power(ln_int(n_value, p), 1 + epsilon, p)
    scale = count << _LOG_DENSITY_BITS
    return lo * scale // n_value, -(-hi * scale // n_value)


def log_density_string(count: int, n_value: int, epsilon: Fraction) -> str:
    """count * ln(N)**(1+eps) / N as a decimal string.

    Computed to 64 certified fractional bits, shown truncated to 20
    decimal places.  Diagnostic output only; never feeds a membership
    decision.
    """
    count, n_value = exact_int(count, "count"), exact_int(n_value, "n_value")
    epsilon = exact_fraction(epsilon, "epsilon")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {format_int(count)}")
    if n_value < 1:
        raise ValueError(f"n_value must be positive, got {format_int(n_value)}")
    if count == 0 or n_value == 1:  # ln(1) = 0
        scaled = 0
    else:
        (scaled,) = certify(
            lambda p: (_log_density_enclosure(count, n_value, epsilon, p),),
            (floor_dyadic,),
            _LOG_DENSITY_BITS,
        )
    whole, frac = divmod(scaled, 1 << _LOG_DENSITY_BITS)
    digits = frac * 10**_LOG_DENSITY_DIGITS >> _LOG_DENSITY_BITS
    return f"{whole}.{digits:0{_LOG_DENSITY_DIGITS}d}"


def density_curves(
    f: Signal, params: LevelParams, n_grid: list[int], threads: int = 1
) -> LevelSetCensus:
    """Counts and density diagnostics for every N in an increasing grid.

    A single frequency scan up to max(n_grid) feeds all grid points.
    The zero signal needs none: F is identically 0, so every n of
    [-N, N] counts in ``count_K`` in every mode and only n = 0 in
    ``count_S``.  The density and log-density columns track ``count_S``
    under mode "S" and ``count_K`` otherwise.
    """
    n_grid = [exact_int(n, f"n_grid[{k}]") for k, n in enumerate(n_grid)]
    if not n_grid:
        raise ValueError("empty N grid")
    if any(n < 1 for n in n_grid):
        raise ValueError("grid values must be positive")
    if any(a >= b for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("grid must be strictly increasing")
    # the zero signal's census calls no scan, which would check threads
    threads = checked_threads(threads)

    if f.is_zero:
        counts_k, counts_s = [2 * n + 1 for n in n_grid], [1] * len(n_grid)
    else:
        counts_k, counts_s = (
            [bisect_right(members, n) - bisect_left(members, -n) for n in n_grid]
            for members in census_members(f, params, n_grid[-1], threads)
        )
    densities, log_densities = [], []
    for c_k, c_s, n_value in zip(counts_k, counts_s, n_grid):
        source = c_s if params.mode == "S" else c_k
        densities.append(Fraction(source, n_value))
        log_densities.append(log_density_string(source, n_value, params.epsilon))
    return LevelSetCensus(*map(tuple, (n_grid, counts_k, counts_s, densities, log_densities)))


def census_csv(census: LevelSetCensus) -> str:
    """Render a census as the CSV understood by external plotters."""
    lines = [CENSUS_CSV_HEADER]
    for i, n_value in enumerate(census.n_grid):
        density = census.densities[i]
        lines.append(
            f"{n_value},{census.counts_sublinear[i]},{census.counts_band[i]},"
            f"{density.numerator},{density.denominator},{census.log_densities[i]}"
        )
    return "\n".join(lines) + "\n"
