import hashlib
import math
import re
from fractions import Fraction

import pytest
from mpmath import iv

from freqlab import dyadic
from freqlab.dyadic import PrecisionError, ceil_dyadic, certify, exp, floor_dyadic, ln_int
from freqlab.families import (
    GeneratorSpec,
    composite_jump,
    generate,
    is_exact,
    metadata_lines,
    spike_pair,
    squares_log,
    squares_power,
    stretched_log,
)
from freqlab.signal import dump_signal


def F(n, d=1):
    return Fraction(n, d)


def certainly_floor(t, target):
    """True when mpmath interval arithmetic at 400 bits proves t <= target() < t + 1."""
    saved = iv.prec
    try:
        iv.prec = 400
        value = target()
        # interval comparisons are True only when certain, else False or None
        return (iv.mpf(t) <= value) is True and (value < iv.mpf(t + 1)) is True
    finally:
        iv.prec = saved


class TestSquaresPower:
    def test_exact_integer_exponent(self):
        f = squares_power(F(1), 3)
        assert list(f) == [(1, F(1)), (4, F(1, 4)), (9, F(1, 9))]

    def test_single_point(self):
        f = squares_power(F(1), 1)
        assert list(f) == [(1, F(1))]

    def test_dyadic_floor_for_fractional_exponent(self):
        # m = 2, exponent 5/4: floor(2**128 * 2**(-5/4)) = floor(2**126.75),
        # independently the fourth root of 2**507 via two nested isqrt calls
        f = squares_power(F(1, 4), 2, precision_bits=128)
        expected = Fraction(math.isqrt(math.isqrt(1 << 507)), 1 << 128)
        assert f.value_at(4) == expected

    def test_support_is_squares(self):
        f = squares_power(F(1, 2), 20)
        assert f.indices == tuple(m * m for m in range(1, 21))

    def test_exactness_flag(self):
        assert is_exact(GeneratorSpec("squares_power", epsilon=F(1), cutoff=5))
        assert not is_exact(GeneratorSpec("squares_power", epsilon=F(1, 4), cutoff=5))

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            squares_power(F(0), 5)
        with pytest.raises(ValueError):
            squares_power(F(-1, 2), 5)

    def test_more_bits_never_decrease_values(self):
        low = squares_power(F(1, 4), 6, precision_bits=64)
        high = squares_power(F(1, 4), 6, precision_bits=160)
        assert low.indices == high.indices
        for (_, a), (_, b) in zip(low, high):
            assert a <= b

    @pytest.mark.parametrize("bits", [1, 2, 5, 16, 96, 128, 1000])
    @pytest.mark.parametrize(
        "epsilon", [F(1, 4), F(1, 3), F(1, 2), F(3, 11), F(7, 8), F(5, 3), F(9, 2)], ids=str
    )
    def test_one_sided_error(self, epsilon, bits):
        # at 1/4 the range holds m = 16 and 256, where 2**bits * m**(-5/4) is an integer
        p, q = (1 + epsilon).numerator, (1 + epsilon).denominator
        last = max(m for m in range(1, 301) if m**p <= 2 ** (q * bits))
        f = squares_power(epsilon, last, precision_bits=bits)
        for m in range(1, last + 1):
            scaled = f.value_at(m * m) * (1 << bits)
            assert scaled.denominator == 1
            t = scaled.numerator
            # t <= 2**bits * m**(-p/q) < t + 1, checked in integers
            assert t**q * m**p <= 2 ** (q * bits) < (t + 1) ** q * m**p
        if last < 300:
            with pytest.raises(ValueError, match=re.escape(f"1/{last + 1}**({p}/{q}) underflows")):
                squares_power(epsilon, last + 1, precision_bits=bits)

    @pytest.mark.parametrize("m", [2, 3, 10, 255, 1000])
    @pytest.mark.parametrize("epsilon", [F(1, 1000), F(1, 100000)], ids=str)
    def test_small_epsilon_value_certified(self, epsilon, m):
        bits = 128
        t = (squares_power(epsilon, m, precision_bits=bits).value_at(m * m) * (1 << bits)).numerator

        def target():
            eps = iv.mpf(epsilon.numerator) / epsilon.denominator
            return iv.mpf(1 << bits) / iv.mpf(m) ** (1 + eps)

        assert certainly_floor(t, target)


class TestSquaresLog:
    def test_cutoff_below_first_point(self):
        with pytest.raises(ValueError):
            squares_log(F(1), 9)

    def test_support(self):
        f = squares_log(F(1), 12)
        assert f.indices == (100, 121, 144)

    def test_single_point_value_certified(self):
        bits = 128
        f = squares_log(F(1), 10, precision_bits=bits)
        assert f.indices == (100,)
        t = (f.value_at(100) * (1 << bits)).numerator
        # independent enclosure of 2**bits / (10 * ln(10)**(3/2))
        x = iv.mpf(10)
        assert certainly_floor(
            t, lambda: iv.mpf(1 << bits) / (x * iv.log(x) ** (iv.mpf(3) / iv.mpf(2)))
        )

    def test_more_bits_never_decrease_values(self):
        low = squares_log(F(1), 15, precision_bits=64)
        high = squares_log(F(1), 15, precision_bits=192)
        for (_, a), (_, b) in zip(low, high):
            assert a <= b


class TestStretchedLog:
    def test_first_index(self):
        # 10 * ln(10)**2 = 53.0189..., so the ceiling is 54
        assert stretched_log(F(1), 10).indices == (54,)

    def test_cutoff_validated(self):
        with pytest.raises(ValueError):
            stretched_log(F(1), 9)

    def test_indices_strictly_increasing(self):
        f = stretched_log(F(1), 12)
        assert len(f) == 3
        assert f.indices[0] == 54
        assert all(a < b for a, b in zip(f.indices, f.indices[1:]))

    def test_values_match_squares_log_weights(self):
        a = stretched_log(F(1), 20)
        b = squares_log(F(1), 20)
        assert a.values == b.values  # same weights, different placement

    @pytest.mark.parametrize("bits", [16, 64, 128, 256])
    @pytest.mark.parametrize("epsilon", [F(1), F(1, 3), F(5, 2)], ids=str)
    def test_weights_equal_squares_log_for_each_m(self, epsilon, bits):
        stretched = stretched_log(epsilon, 60, bits)
        squares = squares_log(epsilon, 60, bits)
        assert len(stretched) == len(squares) == 51
        assert stretched.values == squares.values


class TestSpikePair:
    def test_shape(self):
        f = spike_pair(100)
        assert list(f) == [(-300, F(200)), (0, F(1)), (300, F(200))]
        assert f.l1_norm == 401

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            spike_pair(99)


class TestCompositeJump:
    def test_single_block(self):
        f = composite_jump(100, 100)
        base = 4**100
        assert f.indices == (base - 300, base, base + 300)
        assert f.value_at(base) == F(1, 2**100)
        assert f.value_at(base + 300) == F(200, 2**100)
        assert f.l1_norm == F(401, 2**100)

    def test_three_blocks(self):
        f = composite_jump(100, 102)
        assert len(f) == 9
        assert all(a < b for a, b in zip(f.indices, f.indices[1:]))

    def test_range_validated(self):
        with pytest.raises(ValueError):
            composite_jump(99, 100)
        with pytest.raises(ValueError):
            composite_jump(101, 100)


class TestGeneratorSpec:
    def test_dispatch(self):
        spec = GeneratorSpec("spike_pair", size=100)
        assert generate(spec) == spike_pair(100)
        spec = GeneratorSpec("composite_jump", size=100, cutoff=101)
        assert generate(spec) == composite_jump(100, 101)
        spec = GeneratorSpec("squares_power", epsilon=F(1), cutoff=4)
        assert generate(spec) == squares_power(F(1), 4)
        spec = GeneratorSpec("squares_log", epsilon=F(1), cutoff=12, precision_bits=64)
        assert generate(spec) == squares_log(F(1), 12, precision_bits=64)

    SPEC_ERRORS = [
        ({"family": "unknown_family"}, "unknown family 'unknown_family'"),
        ({"family": "squares_power", "cutoff": 5}, "squares_power requires epsilon"),
        ({"family": "stretched_log", "epsilon": F(1)}, "stretched_log requires cutoff"),
        ({"family": "spike_pair"}, "spike_pair requires size"),
        ({"family": "composite_jump", "size": 100}, "composite_jump requires cutoff"),
        ({"family": "squares_log", "epsilon": F(1), "cutoff": 20, "size": 100},
         "squares_log takes no size"),
        ({"family": "spike_pair", "size": 100, "epsilon": F(1)},
         "spike_pair takes no epsilon"),
        ({"family": "spike_pair", "size": 100, "cutoff": 200}, "spike_pair takes no cutoff"),
        ({"family": "composite_jump", "size": 100, "cutoff": 101, "epsilon": F(1)},
         "composite_jump takes no epsilon"),
        ({"family": "spike_pair", "size": 100, "precision_bits": 128},
         "spike_pair takes no precision_bits"),
        ({"family": "composite_jump", "size": 100, "cutoff": 101, "precision_bits": 7},
         "composite_jump takes no precision_bits"),
    ]

    @pytest.mark.parametrize(
        "kwargs,message", SPEC_ERRORS, ids=[message for _, message in SPEC_ERRORS]
    )
    def test_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            GeneratorSpec(**kwargs)

    @pytest.mark.parametrize(
        "spec",
        [
            GeneratorSpec("spike_pair", size=99),
            GeneratorSpec("composite_jump", size=99, cutoff=100),
            GeneratorSpec("composite_jump", size=101, cutoff=100),
            GeneratorSpec("squares_power", epsilon=F(0), cutoff=5),
            GeneratorSpec("squares_log", epsilon=F(-1, 2), cutoff=20),
            GeneratorSpec("stretched_log", epsilon=F(0), cutoff=20),
            GeneratorSpec("squares_log", epsilon=F(1), cutoff=20, precision_bits=0),
            GeneratorSpec("squares_power", epsilon=F(1, 3), cutoff=5, precision_bits=65537),
            GeneratorSpec("stretched_log", epsilon=F(1), cutoff=20, precision_bits=70000),
        ],
        ids=lambda spec: spec.family + ("" if spec.precision_bits is None
                                        else f"-{spec.precision_bits}-bits"),
    )
    def test_ranges_checked_by_generate(self, spec):
        with pytest.raises(ValueError):
            generate(spec)

    def test_metadata_lines(self):
        lines = metadata_lines(GeneratorSpec("squares_power", epsilon=F(1, 4), cutoff=9))
        assert "family: squares_power" in lines
        assert "epsilon: 1/4" in lines
        assert "values: dyadic floor at 128 bits" in lines
        spec = GeneratorSpec("stretched_log", epsilon=F(1), cutoff=12, precision_bits=96)
        assert "values: dyadic floor at 96 bits" in metadata_lines(spec)


class TestGoldenDigests:
    """SHA-256 of `dump_signal` output, pinned so that any change to the
    certified generation path must reproduce every byte."""

    @pytest.mark.parametrize(
        "make,digest",
        [
            (
                lambda: stretched_log(F(1), 1000),
                "83da24a82c54b18fa6f81c739bb68582d6758209c4abc4a9cb2d8f3fa30bae90",
            ),
            (  # a non-integer index exponent, 4/3
                lambda: stretched_log(F(1, 3), 400),
                "03b75825c7cf9d4d9d02e7b20b2f1a608a316015945f39c30971ed3d26013c1b",
            ),
            (
                lambda: squares_log(F(1, 2), 400),
                "f16f796948f1fbf0ac25486bdd8410b7c26cb63d55d7af6e711babdd5a317397",
            ),
            (
                lambda: squares_power(F(1, 4), 2000),
                "7ba5ccc753c161195d0102894f9251e5b2cc0607ac04e7f3d07614f9b1d5d79f",
            ),
            (
                lambda: squares_power(F(1, 3), 300, precision_bits=1000),
                "22da20af63de7e12aaba5153c642a875485d7378df48190b28316f583b9f1f28",
            ),
            (
                lambda: squares_power(F(1, 2), 400, precision_bits=16),
                "9f5b326eb77afdba471a5f6218c0b6ea35c4dd25c015de626743c9649c2c73ee",
            ),
        ],
        ids=[
            "stretched_log-1-1000",
            "stretched_log-1/3-400",
            "squares_log-1/2-400",
            "squares_power-1/4-2000",
            "squares_power-1/3-300-1000bits",
            "squares_power-1/2-400-16bits",
        ],
    )
    def test_dump_digest(self, make, digest):
        assert hashlib.sha256(dump_signal(make()).encode("ascii")).hexdigest() == digest


class TestCertifiedRounding:
    def test_floor_and_ceil_agree_with_floats(self):
        def build(p):
            lo, hi = ln_int(10, p)
            return 10 * lo, 10 * hi

        assert certify(lambda p: (build(p),), (floor_dyadic,), 0) == (23,)  # 10 ln 10 = 23.02...
        assert certify(lambda p: (build(p),), (ceil_dyadic,), 0) == (24,)

    def test_exact_value_representable(self):
        assert certify(lambda p: ((12 << p, 12 << p),), (floor_dyadic,), 0) == (12,)

    def test_straddled_integer_raises(self, monkeypatch):
        monkeypatch.setattr(dyadic, "MAX_PRECISION", 2048)
        # exp(ln(4)) encloses 4 strictly, so its floor never certifies
        with pytest.raises(PrecisionError, match="straddles an integer at 2048 bits"):
            certify(lambda p: (exp(ln_int(4, p), p),), (floor_dyadic,), 0)
