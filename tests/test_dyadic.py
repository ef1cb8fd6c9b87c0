"""Integer fixed-point enclosures and certified rounding.

mpmath's interval context is the independent oracle: at 400 bits its
intervals are far narrower than any enclosure under test, so each
integer enclosure must contain the whole mpmath interval.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import iv
from mpmath.libmp import to_rational

from freqlab import dyadic
from freqlab.dyadic import (
    PrecisionError,
    ceil_dyadic,
    certify,
    exp,
    floor_dyadic,
    ln,
    ln_int,
    mul_rational,
)
from freqlab.families import _member_enclosures
from freqlab.levelsets import _log_density_enclosure

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=300)
ORACLE_BITS = 400

precisions = st.sampled_from([64, 128, 192, 256])
# Rational epsilons with denominators up to 1000, as the generators take them.
epsilons = st.fractions(min_value=Fraction(1, 1000), max_value=10, max_denominator=1000)


def oracle(compute):
    """Exact rational endpoints of an mpmath interval computed at 400 bits."""
    saved = iv.prec
    try:
        iv.prec = ORACLE_BITS
        x = compute()
    finally:
        iv.prec = saved
    return tuple(Fraction(*to_rational(end)) for end in x._mpi_)


def iv_rational(q):
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


def iv_enclosure(x, p):
    return iv.mpf([x[0], x[1]]) / iv.mpf(2) ** p


def assert_contains(x, p, ends):
    lo, hi = x
    assert lo <= hi
    assert Fraction(lo, 1 << p) <= ends[0] and ends[1] <= Fraction(hi, 1 << p)


def ten_log_ten(p):
    lo, hi = ln_int(10, p)
    return 10 * lo, 10 * hi  # 23.0258...


def just_below_three(p):
    # 3 - 2**-250 needs 250 fractional bits: at 192 the enclosure holds 3
    target = (3 << 250) - 1
    if p >= 250:
        return (target << (p - 250),) * 2
    return target >> (250 - p), -(-target >> (250 - p))


@DETERMINISTIC
@given(st.integers(-(2**200), 2**200), st.integers(0, 300))
@example(-7, 1)  # -3.5
@example(-12, 0)  # an integer
@example(1, 1000)  # a positive value far below 1
@example(-1, 1000)  # a negative value just below 0
def test_endpoint_rounding_matches_exact_fraction(x, bits):
    exact = Fraction(x, 1 << bits)
    assert floor_dyadic(x, bits) == math.floor(exact)
    assert ceil_dyadic(x, bits) == math.ceil(exact)


def test_zero_endpoint():
    assert floor_dyadic(0, 192) == ceil_dyadic(0, 192) == 0


def test_wide_enclosure_escalates_precision():
    seen = []

    def build(p):
        seen.append(p)
        if p < 700:
            return 0, 100 << p  # certifies no floor
        return ten_log_ten(p)

    assert certify(lambda p: (build(p),), (floor_dyadic,), 128) == (23,)
    assert seen == [192, 384, 768]


def test_exact_integer_target_raises(monkeypatch):
    monkeypatch.setattr(dyadic, "MAX_PRECISION", 1024)
    # exp(ln 4) is exactly 4, so every enclosure of it straddles 4
    with pytest.raises(PrecisionError, match="straddles an integer at 1024 bits"):
        certify(
            lambda p: (ten_log_ten(p), exp(ln_int(4, p), p)),
            (floor_dyadic, floor_dyadic),
            0,
        )


@pytest.mark.parametrize("bits,start", [(0, 64), (16, 80), (128, 192), (1000, 1064)])
def test_start_is_kept_bits_plus_64(bits, start):
    seen = []

    def build(p):
        seen.append(p)
        return ten_log_ten(p)

    assert certify(lambda p: (build(p),), (floor_dyadic,), bits) == (23,)
    assert seen == [start]


@pytest.mark.parametrize("cap,bits", [(1 << 16, 65500), (1 << 16, 70000), (1024, 961)])
def test_start_above_the_cap_raises_before_any_build(monkeypatch, cap, bits):
    monkeypatch.setattr(dyadic, "MAX_PRECISION", cap)

    def build(p):
        raise AssertionError(f"built at {p} bits")

    with pytest.raises(PrecisionError, match=rf"^value needs more than {cap} bits"):
        certify(build, (floor_dyadic,), bits)


def test_shared_build_certifies_all_at_the_doubled_precision():
    seen = []

    def build(p):
        seen.append(p)
        return ten_log_ten(p), just_below_three(p)

    assert certify(build, (ceil_dyadic, floor_dyadic), 128) == (24, 2)
    # only the second enclosure straddles at 192 bits; both certify at 384
    assert seen == [192, 384]
    assert certify(lambda p: (ten_log_ten(p),), (ceil_dyadic,), 0) == (24,)
    assert certify(lambda p: (just_below_three(p),), (floor_dyadic,), 0) == (2,)


def test_exact_values_are_exact():
    assert ln_int(1, 128) == (0, 0)
    assert exp((0, 0), 128) == (1 << 128, 1 << 128)
    assert mul_rational((-7, 5), Fraction(-1, 2)) == (-3, 4)


@DETERMINISTIC
@given(st.integers(1, 10**40), precisions)
@example(1, 64)
@example(2, 64)
@example(2**100, 128)
@example(2**100 - 1, 128)
def test_ln_int_contains_oracle(m, p):
    assert_contains(ln_int(m, p), p, oracle(lambda: iv.log(iv.mpf(m))))


@DETERMINISTIC
@given(
    st.fractions(min_value=Fraction(1, 10**6), max_value=10**6), st.integers(0, 10**4), precisions
)
def test_ln_contains_oracle(x, width, p):
    lo = x.numerator * (1 << p) // x.denominator
    if lo < 1:
        lo = 1
    enclosure = lo, lo + width
    assert_contains(ln(enclosure, p), p, oracle(lambda: iv.log(iv_enclosure(enclosure, p))))


@DETERMINISTIC
@given(st.fractions(min_value=-200, max_value=200), st.integers(0, 10**4), precisions)
@example(Fraction(0), 0, 64)
@example(Fraction(-1, 10**9), 0, 64)  # j < 0 with a reduced argument just above 0
def test_exp_contains_oracle(y, width, p):
    lo = y.numerator * (1 << p) // y.denominator
    enclosure = lo, lo + width
    assert_contains(exp(enclosure, p), p, oracle(lambda: iv.exp(iv_enclosure(enclosure, p))))


@pytest.mark.parametrize("multiple", [1, 3, 1000])
@pytest.mark.parametrize("p", [64, 192])
def test_exp_just_below_a_negative_multiple_of_ln2(multiple, p):
    # ln_int(2) is ln 2's own enclosure; y = -multiple * (its upper end)
    # can reduce to a negative remainder unless exp steps j down once more
    y = -multiple * ln_int(2, p)[1]
    assert_contains(exp((y, y), p), p, oracle(lambda: iv.exp(iv_enclosure((y, y), p))))


def test_exp_of_a_too_wide_argument_raises():
    with pytest.raises(PrecisionError):
        exp((0, 2 << 64), 64)


def test_exp_past_the_cap_raises_before_building_it():
    # exp(2 * MAX_PRECISION * ln 2 + 1) is above 2**(2 * MAX_PRECISION)
    y = (2 * dyadic.MAX_PRECISION * ln_int(2, 64)[1]) + (1 << 64)
    with pytest.raises(PrecisionError, match="value needs more than 65536 bits"):
        exp((y, y), 64)


@DETERMINISTIC
@given(st.integers(10, 10**5), epsilons, st.sampled_from([64, 128]), precisions)
@example(10, Fraction(1), 128, 192)
@example(300, Fraction(1, 999), 128, 192)
def test_stretched_member_contains_oracle(m, epsilon, bits, p):
    index_exponent, value_exponent = 1 + epsilon, 1 + epsilon / 2
    index, value = _member_enclosures(m, index_exponent, value_exponent, bits, p)

    def log_power(exponent):
        return iv.log(iv.mpf(m)) ** iv_rational(exponent)

    assert_contains(index, p, oracle(lambda: iv.mpf(m) * log_power(index_exponent)))
    assert_contains(
        value, p, oracle(lambda: iv.mpf(1 << bits) / (iv.mpf(m) * log_power(value_exponent)))
    )


@DETERMINISTIC
@given(st.integers(0, 10**5), st.integers(2, 10**6), epsilons, precisions)
@example(1, 2, Fraction(1), 64)  # ln ln 2 < 0
def test_log_density_ratio_contains_oracle(count, n_value, epsilon, p):
    enclosure = _log_density_enclosure(count, n_value, epsilon, p)
    ratio = oracle(
        lambda: iv.mpf(count << 64)
        * iv.log(iv.mpf(n_value)) ** iv_rational(1 + epsilon)
        / iv.mpf(n_value)
    )
    assert_contains(enclosure, p, ratio)
