"""Exact-arithmetic tools for the discrete centered maximal function.

The package computes, in exact rational arithmetic, the centered
averages of a finitely supported signal on the integers, the supremum
of those averages over all radii (the discrete maximal value), the full
set of radii attaining it, and the least attaining radius (the
frequency).  On top of that sit bilinear analogues, censuses of points
with small frequency relative to |n|, a greedy disjoint interval
selection with a one-third mass guarantee, generators for signal
families with extreme frequency behavior, and a verification harness.
"""

from .covering import (
    CoveringSelection,
    dump_intervals,
    greedy_disjoint,
    merged_union_size,
    parse_intervals,
    read_intervals,
    triple,
)
from .families import (
    FAMILIES,
    GeneratorSpec,
    composite_jump,
    generate,
    is_exact,
    spike_pair,
    squares_log,
    squares_power,
    stretched_log,
)
from .levelsets import (
    CENSUS_CSV_HEADER,
    LevelParams,
    LevelSetCensus,
    census_band,
    census_csv,
    census_sublinear,
    density_curves,
    log_density_string,
)
from .maximal import (
    BilinearFrequencyResult,
    FrequencyResult,
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
from .signal import (
    FORMAT_MAGIC,
    IntegerInterval,
    Signal,
    SignalFormatError,
    dump_signal,
    format_rational,
    parse_rational,
    parse_signal,
    read_signal,
    write_signal,
)

__version__ = "0.1.0"
