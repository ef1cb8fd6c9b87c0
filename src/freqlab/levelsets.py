"""Censuses of points whose frequency is small compared to |n|.

Given a signal f, write F(n) for the least radius at which the centered
average at n attains its supremum.  For a rational slope C > 1 this
module counts, over n in [-N, N], the points where F(n) falls below a
threshold tied to |n|:

* sublinear census: F(n) <= |n| / C          (CSV column ``count_K``)
* band census:      |n| / (2C) <= F(n) <= |n| / C   (column ``count_S``)
* zero-threshold census: F(n) = 0

All membership tests cross-multiply integers (C = p/q gives
p * F(n) <= q * |n|), so censuses are exact.  Densities count / N are
exact rationals; the log-weighted diagnostic ratio
count * ln(N)**(1+eps) / N is the one deliberately inexact number in
the package and is reported as a decimal string computed to 64
certified fractional bits.

Asymptotic statements about these censuses are out of reach of any
finite scan; `density_curves` reports exact counts on a finite grid and
never claims a limit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from mpmath import iv

from .dyadic import certified_floor, iv_fraction
from .maximal import frequency_values
from .signal import IntegerInterval, Signal

THRESHOLD_KINDS = ("linear", "zero")

_LOG_DENSITY_BITS = 64
_LOG_DENSITY_DIGITS = 20

CENSUS_CSV_HEADER = "N,count_K,count_S,density_num,density_den,log_density"


@dataclass(frozen=True)
class LevelParams:
    """Slope and diagnostic parameters for the censuses.

    `ratio` is the comparison slope C and must exceed 1.  `epsilon`
    only weights the logarithm in the diagnostic ratio; it never enters
    a membership decision.  `threshold_kind` selects the threshold for
    the sublinear census: "linear" is floor(|n| / C), "zero" demands
    F(n) = 0 outright.
    """

    ratio: Fraction
    epsilon: Fraction = Fraction(1)
    threshold_kind: str = "linear"

    def __post_init__(self):
        object.__setattr__(self, "ratio", Fraction(self.ratio))
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        if self.ratio <= 1:
            raise ValueError(f"ratio must exceed 1, got {self.ratio}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.threshold_kind not in THRESHOLD_KINDS:
            raise ValueError(
                f"threshold_kind must be one of {THRESHOLD_KINDS}, got {self.threshold_kind!r}"
            )


@dataclass(frozen=True)
class LevelSetCensus:
    """Counts, densities, and diagnostics on an increasing grid of N values.

    `counts_sublinear` fills the ``count_K`` CSV column (its census is
    the one selected by `LevelParams.threshold_kind`), `counts_band`
    fills ``count_S``.  `densities` are exact count / N fractions for
    whichever census was chosen as the density source; `log_densities`
    are the decimal diagnostic strings.
    """

    n_grid: tuple[int, ...]
    counts_sublinear: tuple[int, ...]
    counts_band: tuple[int, ...]
    densities: tuple[Fraction, ...]
    log_densities: tuple[str, ...]


def _scan(f: Signal, n_max: int, threads: int) -> list[int]:
    """Frequencies for n = -n_max .. n_max (index i holds n = i - n_max)."""
    return frequency_values(f, IntegerInterval(-n_max, n_max), threads=threads)


def _sublinear_members(freqs: list[int], n_max: int, params: LevelParams) -> list[int]:
    p = params.ratio.numerator
    q = params.ratio.denominator
    if params.threshold_kind == "zero":
        return [i - n_max for i, fr in enumerate(freqs) if fr == 0]
    return [i - n_max for i, fr in enumerate(freqs) if p * fr <= q * abs(i - n_max)]


def _band_members(freqs: list[int], n_max: int, params: LevelParams) -> list[int]:
    p = params.ratio.numerator
    q = params.ratio.denominator
    return [
        i - n_max
        for i, fr in enumerate(freqs)
        if q * abs(i - n_max) <= 2 * p * fr and p * fr <= q * abs(i - n_max)
    ]


def census_sublinear(
    f: Signal, params: LevelParams, n_max: int, threads: int = 1
) -> set[int]:
    """{n : |n| <= n_max and F(n) <= |n| / ratio}, decided exactly.

    The zero signal has F identically 0, so every point belongs.
    """
    linear = LevelParams(params.ratio, params.epsilon, "linear")
    return set(_sublinear_members(_scan(f, n_max, threads), n_max, linear))


def census_band(f: Signal, params: LevelParams, n_max: int, threads: int = 1) -> set[int]:
    """{n : |n| <= n_max and |n|/(2*ratio) <= F(n) <= |n|/ratio}, exact."""
    return set(_band_members(_scan(f, n_max, threads), n_max, params))


def census_threshold(
    f: Signal, params: LevelParams, n_max: int, threads: int = 1
) -> set[int]:
    """Sublinear census under the selected threshold kind.

    "linear" coincides with `census_sublinear` (for integer frequencies,
    F <= floor(|n|/C) and F <= |n|/C agree); "zero" keeps only the
    points with frequency exactly 0.
    """
    return set(_sublinear_members(_scan(f, n_max, threads), n_max, params))


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

        def build():
            logn = iv.log(iv.mpf(n_value))
            ratio = iv.mpf(count) * logn ** iv_fraction(1 + epsilon) / iv.mpf(n_value)
            return iv.mpf(1 << _LOG_DENSITY_BITS) * ratio

        scaled = certified_floor(build)
    whole, frac = divmod(scaled, 1 << _LOG_DENSITY_BITS)
    digits = frac * 10**_LOG_DENSITY_DIGITS >> _LOG_DENSITY_BITS
    return f"{whole}.{digits:0{_LOG_DENSITY_DIGITS}d}"


def density_curves(
    f: Signal,
    params: LevelParams,
    n_grid: list[int],
    threads: int = 1,
    density_source: str = "sublinear",
) -> LevelSetCensus:
    """Counts and density diagnostics for every N in an increasing grid.

    A single frequency scan up to max(n_grid) feeds all grid points.
    `density_source` picks which census the density and log-density
    columns track: "sublinear" (the default) or "band".
    """
    if not n_grid:
        raise ValueError("empty N grid")
    if any(n < 1 for n in n_grid):
        raise ValueError("grid values must be positive")
    if any(a >= b for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("grid must be strictly increasing")
    if density_source not in ("sublinear", "band"):
        raise ValueError(f"density_source must be 'sublinear' or 'band', got {density_source!r}")

    n_max = n_grid[-1]
    freqs = _scan(f, n_max, threads)
    sub_members = _sublinear_members(freqs, n_max, params)
    band_members = _band_members(freqs, n_max, params)

    def window_count(members: list[int], n_value: int) -> int:
        return bisect_right(members, n_value) - bisect_left(members, -n_value)

    counts_sub, counts_band = [], []
    densities, log_densities = [], []
    for n_value in n_grid:
        c_sub = window_count(sub_members, n_value)
        c_band = window_count(band_members, n_value)
        counts_sub.append(c_sub)
        counts_band.append(c_band)
        source = c_sub if density_source == "sublinear" else c_band
        densities.append(Fraction(source, n_value))
        log_densities.append(log_density_string(source, n_value, params.epsilon))
    return LevelSetCensus(
        n_grid=tuple(n_grid),
        counts_sublinear=tuple(counts_sub),
        counts_band=tuple(counts_band),
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
