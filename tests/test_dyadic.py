"""Certified rounding: integer-shift endpoints and shared enclosures."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import iv

from freqlab.dyadic import (
    PrecisionError,
    _mantissa_exponent,
    ceil_dyadic,
    certified_floor,
    certify,
    floor_dyadic,
)

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def ten_log_ten():
    return iv.mpf(10) * iv.log(iv.mpf(10))  # 23.0258...


def just_below_three():
    # 3 - 2**-250 needs 252 bits: at 192 the upper endpoint rounds up to 3
    return iv.mpf(3) - iv.mpf(2) ** -250


@DETERMINISTIC
@given(st.integers(0, 1), st.integers(1, 2**200), st.integers(-300, 300))
@example(1, 7, -1)  # -3.5
@example(1, 3, 2)  # -12, exp >= 0
@example(0, 1, -1000)  # a positive value far below 1
@example(1, 1, -1000)  # a negative value just below 0
def test_endpoint_rounding_matches_exact_fraction(sign, man, exp):
    m, e = _mantissa_exponent((sign, man, exp, man.bit_length()))
    exact = Fraction(-man if sign else man) * Fraction(2) ** exp
    assert floor_dyadic(m, e) == math.floor(exact)
    assert ceil_dyadic(m, e) == math.ceil(exact)


def test_zero_endpoint():
    m, e = _mantissa_exponent((0, 0, 0, 0))
    assert floor_dyadic(m, e) == ceil_dyadic(m, e) == 0


def test_infinite_endpoint_escalates_precision():
    seen = []

    def build():
        seen.append(iv.prec)
        if iv.prec < 700:
            # inf has a zero mantissa: misread as 0, this would certify floor 0
            return iv.mpf([0, iv.inf])
        return ten_log_ten()

    assert certified_floor(build, start_precision=192) == 23
    assert seen == [192, 384, 768]


def test_exact_integer_target_raises():
    # sqrt(2)**2 is exactly 2, so every enclosure straddles 2
    with pytest.raises(PrecisionError):
        certify(
            lambda: (ten_log_ten(), iv.sqrt(iv.mpf(2)) ** 2),
            (floor_dyadic, floor_dyadic),
            max_precision=1024,
        )


def test_shared_build_certifies_all_at_the_doubled_precision():
    seen = []

    def build():
        seen.append(iv.prec)
        return ten_log_ten(), just_below_three()

    assert certify(build, (ceil_dyadic, floor_dyadic), start_precision=192) == (24, 2)
    # only the second enclosure straddles at 192 bits; both certify at 384
    assert seen == [192, 384]
    assert certify(lambda: (ten_log_ten(),), (ceil_dyadic,), start_precision=192) == (24,)
    assert certified_floor(just_below_three, start_precision=192) == 2
