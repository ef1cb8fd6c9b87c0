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

All membership tests cross-multiply integers (C = p/q gives
p * F(n) <= q * |n|), so censuses are exact.  Densities count / N are
exact rationals; the log-weighted diagnostic ratio
count * ln(N)**(1+eps) / N is the one deliberately inexact number in
the package and is reported as a decimal string computed to 64
certified fractional bits: ln(N)**(1+eps) is exp((1+eps) * ln(ln(N)))
on the integer fixed-point enclosures of `freqlab.dyadic`, and the
floor is certified once both ends of the enclosure agree on it.

Asymptotic statements about these censuses are out of reach of any
finite scan; `density_curves` reports exact counts on a finite grid and
never claims a limit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .dyadic import Enclosure, certify, exp, floor_dyadic, ln, ln_int, mul_rational
from .maximal import frequency_values
from .signal import IntegerInterval, Signal

LEVELSET_MODES = ("K", "S", "theta-zero")

_LOG_DENSITY_BITS = 64
_LOG_DENSITY_DIGITS = 20

CENSUS_CSV_HEADER = "N,count_K,count_S,density_num,density_den,log_density"


@dataclass(frozen=True)
class LevelParams:
    """Slope, diagnostic weight and mode of a census.

    `ratio` is the comparison slope C and must exceed 1.  `epsilon`
    only weights the logarithm in the diagnostic ratio; it never enters
    a membership decision.  `mode` is one of `LEVELSET_MODES` (see the
    module docstring).
    """

    ratio: Fraction
    epsilon: Fraction = Fraction(1)
    mode: str = "K"

    def __post_init__(self):
        object.__setattr__(self, "ratio", Fraction(self.ratio))
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        if self.ratio <= 1:
            raise ValueError(f"ratio must exceed 1, got {self.ratio}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.mode not in LEVELSET_MODES:
            raise ValueError(f"mode must be one of {LEVELSET_MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class LevelSetCensus:
    """Counts, densities, and diagnostics on an increasing grid of N values.

    `counts_sublinear` fills the ``count_K`` CSV column and
    `counts_band` fills ``count_S``.  `densities` are exact count / N
    fractions of ``count_S`` under mode "S" and of ``count_K``
    otherwise; `log_densities` are the decimal diagnostic strings of
    the same counts.
    """

    n_grid: tuple[int, ...]
    counts_sublinear: tuple[int, ...]
    counts_band: tuple[int, ...]
    densities: tuple[Fraction, ...]
    log_densities: tuple[str, ...]


def _census(
    f: Signal, params: LevelParams, n_max: int, threads: int
) -> tuple[list[int], list[int]]:
    """Sorted count_K and count_S members in [-n_max, n_max], from one scan."""
    p = params.ratio.numerator
    q = params.ratio.denominator
    zero = params.mode == "theta-zero"
    members_k, members_s = [], []
    freqs = frequency_values(f, IntegerInterval(-n_max, n_max), threads=threads)
    for n, fr in enumerate(freqs, -n_max):
        bound = q * abs(n)
        if p * fr <= bound:
            if fr == 0 or not zero:
                members_k.append(n)
            if bound <= 2 * p * fr:
                members_s.append(n)
    return members_k, members_s


def census_sublinear(
    f: Signal, params: LevelParams, n_max: int, threads: int = 1
) -> set[int]:
    """The count_K set of `params.mode` over |n| <= n_max, decided exactly.

    That is {n : F(n) <= |n| / ratio}, or {n : F(n) = 0} under
    "theta-zero".  The zero signal has F identically 0, so every point
    belongs.

    >>> census_sublinear(Signal.from_pairs([(0, 1)]), LevelParams(2), 100)
    {0}
    """
    return set(_census(f, params, n_max, threads)[0])


def census_band(f: Signal, params: LevelParams, n_max: int, threads: int = 1) -> set[int]:
    """{n : |n| <= n_max and |n|/(2*ratio) <= F(n) <= |n|/ratio}, exact."""
    return set(_census(f, params, n_max, threads)[1])


def _log_density_enclosure(count: int, n_value: int, epsilon: Fraction, p: int) -> Enclosure:
    """2**64 * count * ln(N)**(1+eps) / N at scale 2**p, for N >= 2."""
    lo, hi = exp(mul_rational(ln(ln_int(n_value, p), p), 1 + epsilon), p)
    scale = count << _LOG_DENSITY_BITS
    return lo * scale // n_value, -(-hi * scale // n_value)


def log_density_string(count: int, n_value: int, epsilon: Fraction) -> str:
    """count * ln(N)**(1+eps) / N as a decimal string.

    Computed to 64 certified fractional bits, shown truncated to 20
    decimal places.  Diagnostic output only; never feeds a membership
    decision.
    """
    if count < 0 or n_value < 1:
        raise ValueError("count must be >= 0 and N >= 1")
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
    The density and log-density columns track ``count_S`` under mode
    "S" and ``count_K`` otherwise.
    """
    if not n_grid:
        raise ValueError("empty N grid")
    if any(n < 1 for n in n_grid):
        raise ValueError("grid values must be positive")
    if any(a >= b for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("grid must be strictly increasing")

    members_k, members_s = _census(f, params, n_grid[-1], threads)

    def window_count(members: list[int], n_value: int) -> int:
        return bisect_right(members, n_value) - bisect_left(members, -n_value)

    counts_k, counts_s = [], []
    densities, log_densities = [], []
    for n_value in n_grid:
        c_k = window_count(members_k, n_value)
        c_s = window_count(members_s, n_value)
        counts_k.append(c_k)
        counts_s.append(c_s)
        source = c_s if params.mode == "S" else c_k
        densities.append(Fraction(source, n_value))
        log_densities.append(log_density_string(source, n_value, params.epsilon))
    return LevelSetCensus(
        n_grid=tuple(n_grid),
        counts_sublinear=tuple(counts_k),
        counts_band=tuple(counts_s),
        densities=tuple(densities),
        log_densities=tuple(log_densities),
    )


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
