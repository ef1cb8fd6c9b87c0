"""Exact-arithmetic tools for the discrete centered maximal function.

The package computes, in exact rational arithmetic, the centered
averages of a finitely supported signal on the integers, the supremum
of those averages over all radii (the discrete maximal value), the full
set of radii attaining it, and the least attaining radius (the
frequency).  On top of that sit bilinear analogues, censuses of points
with small frequency relative to |n|, a greedy disjoint interval
selection with a one-third mass guarantee, generators for signal
families with extreme frequency behavior, and a verification harness.

Importing the package imports none of its modules: each public name
below is imported from its module on first access (PEP 562), so a
command pays only for the modules it runs.
"""

from importlib import import_module

# public name -> the module that defines it
_SOURCES = {
    **dict.fromkeys(
        ("CoveringSelection", "dump_intervals", "greedy_disjoint", "merged_union_size",
         "parse_intervals", "read_intervals", "triple"),
        "covering",
    ),
    **dict.fromkeys(
        ("FAMILIES", "GeneratorSpec", "composite_jump", "generate", "spike_pair",
         "squares_log", "squares_power", "stretched_log"),
        "families",
    ),
    **dict.fromkeys(
        ("CENSUS_CSV_HEADER", "LevelParams", "LevelSetCensus", "census_csv", "census_members",
         "density_curves", "log_density_string"),
        "levelsets",
    ),
    **dict.fromkeys(
        ("BilinearFrequencyResult", "FrequencyResult", "analyze", "analyze_brute_force",
         "average", "bilinear_analyze", "bilinear_analyze_brute_force", "bilinear_average",
         "frequency_profile", "frequency_values", "half_mass_radius", "radius_bound"),
        "maximal",
    ),
    **dict.fromkeys(
        ("FORMAT_MAGIC", "IntegerInterval", "Signal", "SignalFormatError", "dump_signal",
         "format_rational", "parse_rational", "parse_signal", "read_signal", "write_signal"),
        "signal",
    ),
}
# modules that are attributes of the package without an import of their own
_MODULES = ("covering", "dyadic", "families", "levelsets", "maximal", "signal")

__all__ = [*_SOURCES, *_MODULES]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SOURCES[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
