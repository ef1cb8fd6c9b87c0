"""Every public entry refuses a non-integer where an integer is due, and a
float or any other inexact value where an exact rational is due, with a
TypeError whose message starts with the argument's name (`signal.exact_int`
and `signal.exact_fraction`)."""

import re
from decimal import Decimal
from fractions import Fraction

import pytest

from freqlab.families import (
    GeneratorSpec,
    composite_jump,
    spike_pair,
    squares_log,
    squares_power,
    stretched_log,
)
from freqlab.levelsets import LevelParams, census_members, density_curves, log_density_string
from freqlab.maximal import (
    analyze,
    average,
    bilinear_analyze,
    bilinear_average,
    frequency_profile,
    frequency_values,
    radius_bound,
)
from freqlab.signal import IntegerInterval, Signal

F = Fraction(1)
f = Signal.from_pairs([(0, 1), (3, 2)])
SPAN = IntegerInterval(-3, 3)
TWO = LevelParams(2)
ZERO = Signal.from_pairs([])

# (argument name, a call passing `x` as that argument)
INTEGER_ARGUMENTS = [
    ("n", lambda x: average(f, x, 1)),
    ("r", lambda x: average(f, 0, x)),
    ("n", lambda x: radius_bound(f, x)),
    ("n", lambda x: analyze(f, x)),
    ("n", lambda x: bilinear_average(f, f, x, 1)),
    ("r", lambda x: bilinear_average(f, f, 0, x)),
    ("n", lambda x: bilinear_analyze(f, f, x)),
    ("threads", lambda x: frequency_values(f, SPAN, threads=x)),
    ("threads", lambda x: frequency_profile(f, SPAN, threads=x)),
    ("n_max", lambda x: census_members(f, TWO, x)),
    ("n_grid", lambda x: density_curves(f, TWO, [10, x])),
    ("count", lambda x: log_density_string(x, 10, F)),
    ("n_value", lambda x: log_density_string(3, x, F)),
    ("lo", lambda x: IntegerInterval(x, 5)),
    ("hi", lambda x: IntegerInterval(0, x)),
    ("index", lambda x: Signal.from_pairs([(x, 1)])),
    ("cutoff", lambda x: squares_power(F, x)),
    ("precision_bits", lambda x: squares_power(F, 3, x)),
    ("cutoff", lambda x: squares_log(F, x)),
    ("precision_bits", lambda x: squares_log(F, 12, x)),
    ("cutoff", lambda x: stretched_log(F, x)),
    ("precision_bits", lambda x: stretched_log(F, 12, x)),
    ("size", lambda x: spike_pair(x)),
    ("min_size", lambda x: composite_jump(x, 101)),
    ("max_size", lambda x: composite_jump(100, x)),
    ("cutoff", lambda x: GeneratorSpec("squares_power", epsilon=1, cutoff=x)),
    ("precision_bits", lambda x: GeneratorSpec("squares_power", 1, 3, precision_bits=x)),
    ("size", lambda x: GeneratorSpec("spike_pair", size=x)),
    ("threads", lambda x: density_curves(ZERO, TWO, [3], threads=x)),
]
# a float, a Fraction where an integer is due, a str
NON_INTEGERS = [150.5, Fraction(150), "150"]

# (argument name, a call passing `x` as that argument); an int, a Fraction
# and p/q text are all exact rationals here, so a float is the refusal
RATIONAL_ARGUMENTS = [
    ("epsilon", lambda x: log_density_string(3, 10, x)),
    ("value", lambda x: Signal.from_pairs([(7, x)])),
    ("slope", lambda x: frequency_values(f, SPAN, slope=x)),
    ("ratio", lambda x: LevelParams(x)),
    ("epsilon", lambda x: LevelParams(2, x)),
    ("epsilon", lambda x: squares_power(x, 3)),
    ("epsilon", lambda x: GeneratorSpec("squares_power", epsilon=x, cutoff=3)),
]


@pytest.mark.parametrize(
    "name,call,value",
    [
        pytest.param(name, call, value, id=f"{name}-{k}-{type(value).__name__}")
        for k, (name, call) in enumerate(INTEGER_ARGUMENTS)
        for value in NON_INTEGERS
    ],
)
def test_non_integer_refused_by_name(name, call, value):
    message = rf"^{name}\b.* must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(TypeError, match=message):
        call(value)


@pytest.mark.parametrize(
    "name,call",
    [pytest.param(name, call, id=f"{name}-{k}") for k, (name, call) in enumerate(RATIONAL_ARGUMENTS)],
)
def test_float_refused_by_name(name, call):
    with pytest.raises(TypeError, match=rf"^{name}\b.* must be an exact rational, got float 0.5$"):
        call(0.5)


def test_what_fraction_refuses_is_refused_by_name():
    message = r"^value at index 1 must be an exact rational, got NoneType None$"
    with pytest.raises(TypeError, match=message):
        Signal.from_pairs([(1, None)])
    with pytest.raises(TypeError, match=r"^ratio must be an exact rational, got complex 1j$"):
        LevelParams(1j)
    for value in ("NaN", "Infinity"):
        message = rf"^ratio must be an exact rational, got Decimal Decimal\('{value}'\)$"
        with pytest.raises(TypeError, match=message):
            LevelParams(Decimal(value))


def test_every_exact_rational_is_accepted():
    # an int, a Fraction, p/q text and a Decimal
    for value in (3, Fraction(3, 2), "3/2", Decimal("1.5")):
        assert LevelParams(value).ratio == Fraction(value)


def test_the_value_message_names_its_index():
    with pytest.raises(TypeError, match="^value at index -5 must be an exact rational, got float"):
        Signal.from_pairs([(0, 1), (-5, 0.5)])
    with pytest.raises(TypeError, match=r"^n_grid\[1\] must be an integer, got 20.0$"):
        density_curves(f, TWO, [10, 20.0])


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: LevelParams("1.5"), "ratio: not a p/q rational: '1.5'"),
        (lambda: LevelParams(2, "x"), "epsilon: not a p/q rational: 'x'"),
        (lambda: LevelParams("3/0"), "ratio: denominator must be positive: '3/0'"),
        (lambda: Signal.from_pairs([(1, "x")]), "value at index 1: not a p/q rational: 'x'"),
        (lambda: frequency_values(f, SPAN, slope="1/2/3"), "slope: not a p/q rational: '1/2/3'"),
        (lambda: squares_power("one", 3), "epsilon: not a p/q rational: 'one'"),
    ],
)
def test_bad_rational_text_is_refused_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("threads", [0, -1])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: frequency_values(f, SPAN, threads=x),
        lambda x: frequency_profile(f, SPAN, threads=x),
        lambda x: census_members(f, TWO, 3, threads=x),
        lambda x: density_curves(f, TWO, [3], threads=x),
        lambda x: density_curves(ZERO, TWO, [3], threads=x),
    ],
    ids=[
        "frequency_values", "frequency_profile", "census_members", "density_curves",
        "density_curves_zero_signal",
    ],
)
def test_fewer_than_one_thread_is_refused(call, threads):
    with pytest.raises(ValueError, match=f"^threads must be at least 1, got {threads}$"):
        call(threads)


@pytest.mark.parametrize(
    "count,n_value,message",
    [(-1, 10, "count must be non-negative, got -1"), (3, 0, "n_value must be positive, got 0")],
)
def test_log_density_names_the_value_it_refuses(count, n_value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        log_density_string(count, n_value, F)
