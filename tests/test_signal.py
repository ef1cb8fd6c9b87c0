import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freqlab.signal import (
    FORMAT_MAGIC,
    IntegerInterval,
    Signal,
    SignalFormatError,
    _checked_entry,
    dump_signal,
    format_int,
    format_rational,
    parse_rational,
    parse_signal,
    parse_strict_int,
    read_signal,
    write_signal,
)


def F(n, d=1):
    return Fraction(n, d)


DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=300)
# Zero digits of Arabic-Indic, Devanagari, Bengali and fullwidth forms;
# int() accepts all of them, the strict parser none.
UNICODE_ZEROS = [0x660, 0x966, 0x9E6, 0xFF10]
numerators = st.integers(-(10**30), 10**30)
denominators = st.integers(1, 10**30)


class TestRational:
    def test_parse_forms(self):
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("-3/6") == F(-1, 2)
        assert parse_rational("7") == F(7)
        assert parse_rational(" 0/5 ") == 0

    @pytest.mark.parametrize(
        "bad", ["1.5", "3/0", "3/-2", "a/b", "1/2/3", "", "1_000/3", "0x10/1", "١٢/5"]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_canonical_form(self):
        # gcd-reduced, positive denominator, exact arithmetic
        x = parse_rational("6/4")
        assert (x.numerator, x.denominator) == (3, 2)
        assert F(1, 3) + F(1, 6) == F(1, 2)
        assert F(-2, 4).denominator == 2

    def test_format_always_explicit(self):
        assert format_rational(F(3)) == "3/1"
        assert format_rational(F(-1, 2)) == "-1/2"

    @DETERMINISTIC
    @given(numerators, denominators)
    def test_round_trip(self, num, den):
        x = parse_rational(f"{num}/{den}")
        assert x == F(num, den)
        assert parse_rational(format_rational(x)) == x
        assert format_rational(parse_rational(format_rational(x))) == format_rational(x)
        assert parse_rational(str(num)) == num

    @DETERMINISTIC
    @given(numerators, denominators, st.integers(0, 10**6), st.booleans())
    def test_decimals_rejected(self, num, den, fraction_digits, in_numerator):
        decimal = f"{num}.{fraction_digits}"
        text = f"{decimal}/{den}" if in_numerator else f"{num}/{den}.{fraction_digits}"
        with pytest.raises(ValueError):
            parse_rational(text)
        with pytest.raises(ValueError):
            parse_rational(decimal)

    @DETERMINISTIC
    @given(st.integers(10, 10**30), denominators, st.data())
    def test_underscore_separators_rejected(self, num, den, data):
        digits = str(num)
        cut = data.draw(st.integers(1, len(digits) - 1))
        text = f"{digits[:cut]}_{digits[cut:]}/{den}"
        assert int(text.partition("/")[0]) == num  # int() alone would accept it
        with pytest.raises(ValueError):
            parse_rational(text)

    @DETERMINISTIC
    @given(numerators, denominators, st.sampled_from(UNICODE_ZEROS), st.data())
    def test_non_ascii_digits_rejected(self, num, den, zero, data):
        text = f"{num}/{den}"
        spots = [i for i, ch in enumerate(text) if ch.isdigit()]
        i = data.draw(st.sampled_from(spots))
        text = text[:i] + chr(zero + int(text[i])) + text[i + 1 :]
        with pytest.raises(ValueError):
            parse_rational(text)


class TestLongDecimals:
    # str() and int() refuse more than 4,300 digits by default
    def test_round_trip_at_any_length(self):
        rng = random.Random(20170609)
        bits = [1, 2, 64, 13_286, 13_290, 14_284, 14_300, 26_575, 200_000]
        bits += [rng.randint(1, 200_000) for _ in range(24)]
        values = [rng.getrandbits(b) | 1 << (b - 1) for b in bits]
        values += [10**4000 - 1, 10**4000, 10**4000 + 1, 10**8000 + 7, 10**4299, 10**4300]
        for value in values + [-v for v in values]:
            text = format_int(value)
            assert parse_strict_int(text) == value
            if len(text.lstrip("-")) < 4300:
                assert text == str(value)

    def test_leading_zeros_and_signs_past_a_piece(self):
        assert parse_strict_int("+" + "0" * 9000 + "12") == 12
        assert parse_strict_int("-" + "0" * 9000 + "12") == -12
        assert parse_strict_int("9" * 8001) == 10**8001 - 1
        with pytest.raises(ValueError, match="not a decimal integer"):
            parse_strict_int("1" * 5000 + "_1")

    def test_long_index_and_value_round_trip(self):
        f = Signal.from_pairs([(4**7200, F(3**9000, 2**15000)), (-(10**5000), F(1, 7))])
        text = dump_signal(f)
        assert parse_signal(text) == f
        assert len(text) > 2 * 4300


    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no str() digit limit before 3.10.7"
    )
    def test_pieces_follow_the_interpreter_limit(self):
        values = [10**640 - 1, 10**640, -(10**641) - 7, 3**5000]
        texts = [str(v) for v in values]
        f = Signal.from_pairs([(4**2000, F(3**2000, 2**3000)), (-(10**700), F(1, 7))])
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert [format_int(v) for v in values] == texts
            assert [parse_strict_int(t) for t in texts] == values
            assert parse_signal(dump_signal(f)) == f
        finally:
            sys.set_int_max_str_digits(limit)


class TestIntegerInterval:
    def test_length(self):
        assert IntegerInterval(0, 0).length == 1
        assert IntegerInterval(-2, 1).length == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            IntegerInterval(1, 0)

    @pytest.mark.parametrize("lo,hi", [(0.5, 2.5), (0, 2.0), (F(1, 2), 3)])
    def test_non_integer_ends_rejected(self, lo, hi):
        message = f"^{'hi' if type(lo) is int else 'lo'} must be an integer, got "
        with pytest.raises(TypeError, match=message):
            IntegerInterval(lo, hi)


class TestFromPairs:
    def test_delta(self):
        f = Signal.from_pairs([(0, 1)])
        assert f.indices == (0,)
        assert f.l1_norm == 1

    def test_empty_is_zero_signal(self):
        f = Signal.from_pairs([])
        assert f.is_zero
        assert f.l1_norm == 0
        assert f.support_hull() is None

    def test_absolute_value_and_zero_drop(self):
        f = Signal.from_pairs([(3, F(-1, 2)), (5, 0)])
        assert list(f) == [(3, F(1, 2))]
        assert f.l1_norm == F(1, 2)

    @DETERMINISTIC
    @given(st.dictionaries(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**9),
                           max_size=40))
    def test_l1_norm_is_the_sum_of_values(self, table):
        f = Signal.from_pairs(table.items())
        assert f.l1_norm == sum(f.values, Fraction(0))
        assert f.l1_norm == sum(abs(v) for v in table.values())

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Signal.from_pairs([(1, 1), (1, 2)])

    def test_duplicate_index_rejected_before_zeros_drop(self):
        with pytest.raises(ValueError, match="duplicate index 1"):
            Signal.from_pairs([(1, 0), (1, F(-2))])

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            Signal.from_pairs([(0, 0.5)])

    # Fraction() reads each of these (the last as 12/5, in Arabic-Indic digits)
    @pytest.mark.parametrize("text", ["1.5", "1e3", "1_0/3", "\u0661\u0662/5"], ids=ascii)
    def test_value_strings_outside_the_p_q_grammar_rejected(self, text):
        with pytest.raises(ValueError, match="not a p/q rational"):
            Signal.from_pairs([(0, text)])
        assert Signal.from_pairs([(0, "-3/6")]).values == (F(1, 2),)

    def test_messages_quote_indices_past_the_str_limit(self):
        with pytest.raises(ValueError, match="duplicate index"):
            Signal.from_pairs([(4**7200, 1), (4**7200, 2)])
        message = "^value at index [0-9]+ must be an exact rational, got float 0.5$"
        with pytest.raises(TypeError, match=message):
            Signal.from_pairs([(4**7200, 0.5)])

    @pytest.mark.parametrize("index", [2.5, 2.0, "7", F(2)], ids=repr)
    def test_non_integer_index_rejected(self, index):
        with pytest.raises(TypeError):
            Signal.from_pairs([(index, 1)])

    def test_unsorted_input_is_sorted(self):
        f = Signal.from_pairs([(5, 1), (-5, 2)])
        assert f.indices == (-5, 5)

    def test_prefix_aligned_with_entries(self):
        f = Signal.from_pairs([(1, F(1, 2)), (3, F(1, 4))])
        assert [f.window_sum(IntegerInterval(1, i)) for i in f.indices] == [F(1, 2), F(3, 4)]
        assert f.scaled_values == (2, 1)
        assert f.scale == 4

    def test_cached_prefix_sums_and_running_maxima(self):
        f = Signal.from_pairs([(0, 1), (1, 3), (2, 2), (5, 1)])
        assert f.scaled_prefix == (0, 1, 4, 6, 7)
        assert f.scaled_l1 == f.scaled_prefix[-1]
        assert f.scaled_prefix_max == (1, 3, 3, 3)
        assert f.scaled_suffix_max == (3, 3, 2, 1)
        empty = Signal.from_pairs([])
        assert empty.scaled_prefix == (0,)
        assert empty.scaled_prefix_max == empty.scaled_suffix_max == ()


class TestWindowSum:
    def test_delta_window(self):
        f = Signal.from_pairs([(0, 1)])
        assert f.window_sum(IntegerInterval(-3, 3)) == 1
        assert f.window_sum(IntegerInterval(1, 5)) == 0

    def test_two_point(self):
        f = Signal.from_pairs([(1, F(1, 2)), (3, F(1, 4))])
        assert f.window_sum(IntegerInterval(0, 3)) == F(3, 4)

    def test_hull_recovers_l1(self):
        f = Signal.from_pairs([(-300, 200), (0, 1), (300, 200)])
        assert f.support_hull() == IntegerInterval(-300, 300)
        assert f.window_sum(f.support_hull()) == f.l1_norm

    def test_additive_over_partition(self):
        rng = random.Random(7)
        for _ in range(50):
            pts = rng.sample(range(-60, 61), rng.randint(1, 20))
            f = Signal.from_pairs(
                (i, F(rng.randint(1, 9), rng.randint(1, 9))) for i in pts
            )
            lo, hi = sorted(rng.sample(range(-80, 81), 2))
            mid = rng.randint(lo, hi - 1) if hi > lo else lo
            whole = f.window_sum(IntegerInterval(lo, hi))
            left = f.window_sum(IntegerInterval(lo, mid))
            right = f.window_sum(IntegerInterval(mid + 1, hi)) if mid < hi else 0
            assert whole == left + right

    def test_matches_naive_sum(self):
        rng = random.Random(11)
        for _ in range(100):
            pts = rng.sample(range(-50, 51), rng.randint(1, 25))
            pairs = [(i, F(rng.randint(1, 12), rng.randint(1, 12))) for i in pts]
            f = Signal.from_pairs(pairs)
            table = dict(pairs)
            lo = rng.randint(-60, 60)
            hi = lo + rng.randint(0, 40)
            naive = sum((table.get(i, F(0)) for i in range(lo, hi + 1)), F(0))
            assert f.window_sum(IntegerInterval(lo, hi)) == naive


class TestSupportHull:
    def test_examples(self):
        assert Signal.from_pairs([(0, 1)]).support_hull() == IntegerInterval(0, 0)
        f = Signal.from_pairs([(-300, 200), (0, 1), (300, 200)])
        assert f.support_hull() == IntegerInterval(-300, 300)


class TestTextFormat:
    def test_round_trip_bit_exact(self):
        f = Signal.from_pairs([(-300, 200), (0, 1), (300, F(3, 7))])
        assert parse_signal(dump_signal(f)) == f

    def test_round_trip_huge_indices(self):
        f = Signal.from_pairs([(4**100, F(1, 2**100)), (4**100 + 300, F(200, 2**100))])
        assert parse_signal(dump_signal(f)) == f

    def test_header_and_comments(self):
        text = FORMAT_MAGIC + "\n# a comment\n\n0 1/2\n# trailing\n5 3/4\n"
        f = parse_signal(text)
        assert list(f) == [(0, F(1, 2)), (5, F(3, 4))]

    def test_metadata_written_as_comments(self):
        f = Signal.from_pairs([(0, 1)])
        text = dump_signal(f, ["family: delta"])
        assert text.splitlines()[1] == "# family: delta"
        assert parse_signal(text) == f

    def test_missing_header(self):
        with pytest.raises(SignalFormatError):
            parse_signal("0 1/2\n")

    def test_bad_entry_reports_line(self):
        text = FORMAT_MAGIC + "\n0 1/2\nbroken line here\n"
        with pytest.raises(SignalFormatError, match="line 3"):
            parse_signal(text)

    def test_decimal_value_rejected(self):
        with pytest.raises(SignalFormatError, match="line 2"):
            parse_signal(FORMAT_MAGIC + "\n0 0.5\n")

    def test_non_increasing_indices_rejected(self):
        text = FORMAT_MAGIC + "\n5 1/2\n5 1/3\n"
        with pytest.raises(SignalFormatError, match="strictly increasing"):
            parse_signal(text)

    def test_underscored_index_rejected(self):
        with pytest.raises(SignalFormatError, match="bad index"):
            parse_signal(FORMAT_MAGIC + "\n1_000 1/2\n")

    @DETERMINISTIC
    @given(st.text(alphabet="0129+-/ \t#x_\u00a0\u0660", max_size=14))
    @example(" +5\t-04/+02 ")
    @example("5 1/0")
    @example("5 1/-2")
    @example("5 1/+0")
    @example("5 1/2/3")
    @example("5 1")
    @example("\u00a05 1/2\u00a0")
    def test_one_match_agrees_with_the_checks(self, line):
        # A line gives the same entry, skip or message whether or not it
        # matches the entry pattern at once.
        try:
            entry = _checked_entry(2, line)
        except SignalFormatError as exc:
            with pytest.raises(SignalFormatError) as raised:
                parse_signal(f"{FORMAT_MAGIC}\n{line}\n")
            assert str(raised.value) == str(exc)
        else:
            expected = Signal.from_pairs([] if entry is None else [entry])
            assert parse_signal(f"{FORMAT_MAGIC}\n{line}\n") == expected

    def test_file_round_trip(self, tmp_path):
        f = Signal.from_pairs([(i * i, F(1, i)) for i in range(1, 20)])
        path = tmp_path / "sig.txt"
        write_signal(f, path, ["cutoff: 19"])
        assert read_signal(path) == f

    def test_file_bytes_are_the_dump(self, tmp_path):
        # newline="" keeps LF line endings on platforms whose default is CRLF
        f = Signal.from_pairs([(-3, F(1, 2)), (4**40, F(5, 7))])
        path = tmp_path / "sig.txt"
        write_signal(f, path, ["family: test"])
        assert path.read_bytes() == dump_signal(f, ["family: test"]).encode("ascii")
