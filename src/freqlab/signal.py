"""Sparse, exactly-summable signals on the integers.

A signal is a finitely supported map from integer indices to positive
rational values.  Construction accepts arbitrary (index, value) pairs,
drops zero values, and keeps absolute values: every consumer in this
package works with |f| only, so sign information is discarded up front.
Values are `fractions.Fraction` throughout and nothing in the core ever
rounds.

Indices are plain Python integers and may be astronomically large (the
built-in families place support at indices like 4**100), so the
representation is a sorted sparse table with cached prefix sums rather
than a dense array.  A window sum over an index interval costs two
binary searches.

A Signal caches an integer rescaling of its values (numerators over
the least common denominator), the prefix sums of that rescaling, and
its running prefix and suffix maxima.  The search loops in
`freqlab.maximal` compare averages by integer cross multiplication of
these scaled sums, which keeps exact ties exact while avoiding per-step
Fraction normalization; the maxima bound the bilinear window sums.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Iterator

FORMAT_MAGIC = "#freqlab-signal v1"

# plain ASCII decimal integers only: int() is laxer (underscores,
# unicode digits) than a wire format should be
_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
# a well-formed signal entry line, denominator positive, in one match
_ENTRY_RE = re.compile(r"\s*([+-]?[0-9]+)\s+([+-]?[0-9]+)/(\+?0*[1-9][0-9]*)\s*")


def parse_strict_int(text: str) -> int:
    """Parse an ASCII decimal integer of any length, rejecting every other spelling."""
    if not _INT_RE.match(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    try:
        return int(text, 10)
    except ValueError:  # past sys.get_int_max_str_digits(): convert in pieces that fit
        digits = sys.get_int_max_str_digits()
    body = text.lstrip("+-")
    head = len(body) % digits or digits
    value, piece = int(body[:head], 10), 10**digits
    for start in range(head, len(body), digits):
        value = value * piece + int(body[start : start + digits], 10)
    return -value if text[0] == "-" else value


def format_int(value: int) -> str:
    """The decimal text of an integer of any length, the same as str() where that works."""
    try:
        return str(value)
    except ValueError:  # past sys.get_int_max_str_digits(): convert in pieces that fit
        digits = sys.get_int_max_str_digits()
    rest, pieces, piece = abs(value), [], 10**digits
    while rest >= piece:
        rest, low = divmod(rest, piece)
        pieces.append(f"{low:0{digits}d}")
    return ("-" if value < 0 else "") + str(rest) + "".join(reversed(pieces))


def format_number(value: int | Fraction) -> str:
    """str() of an int or a Fraction, at any length."""
    try:
        return str(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        return format_int(value.numerator) if value.denominator == 1 else format_rational(value)


def exact_int(value: int, name: str) -> int:
    """operator.index(value), refusing a non-integer by the argument's name."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def exact_fraction(value: int | Fraction | str, name: str) -> Fraction:
    """`parse_rational` of a string, Fraction(value) of an int, a Fraction or
    a Decimal; a float is refused, as its binary value is rarely the number
    meant, and so is whatever Fraction() refuses, by a TypeError naming `name`.
    A string `parse_rational` refuses raises its ValueError, `name` first."""
    if isinstance(value, float):
        raise TypeError(f"{name} must be an exact rational, got float {value!r}")
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError):  # None, 1j, Decimal NaN or Infinity
        kind = type(value).__name__
        raise TypeError(f"{name} must be an exact rational, got {kind} {value!r}") from None


class SignalFormatError(ValueError):
    """A signal file violates the freqlab-signal v1 format."""


class PrecisionError(ArithmeticError):
    """An enclosure could not pin down the rounded value below the precision cap.

    Raised by `freqlab.dyadic`, which re-exports it; it lives here so the
    command line can catch it without importing the certification code.
    """


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` into an exact Fraction.

    Only integer numerators and positive integer denominators are
    accepted; decimal notation is rejected so no value can sneak in
    through binary floating point.

    >>> parse_rational("-3/6")
    Fraction(-1, 2)
    >>> parse_rational("7")
    Fraction(7, 1)
    """
    body = text.strip()
    num_s, slash, den_s = body.partition("/")
    try:
        num = parse_strict_int(num_s)
        den = parse_strict_int(den_s) if slash else 1
    except ValueError:
        raise ValueError(f"not a p/q rational: {text!r}") from None
    if slash and den <= 0:
        raise ValueError(f"denominator must be positive: {text!r}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``p/q`` with an explicit denominator."""
    return f"{format_int(value.numerator)}/{format_int(value.denominator)}"


class Record:
    """Base of the package's records: the fields named in `__slots__`, in order.

    A record takes its fields by position or by name, a field left out
    taking its value from `_defaults`; a missing, unknown or surplus
    field raises TypeError.  A subclass that checks its arguments passes
    them all, in order, to `Record.__init__`.  A record equals only a
    record of its own class with equal fields, hashes as its field
    tuple, shows as ``Name(field=value, ...)`` and refuses assignment.
    Records hold no per-instance dict and spare every command the import
    of `dataclasses`, which costs more than most commands' own work.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = operator.attrgetter(*cls.__slots__)
        # each slot's own setter, which `__setattr__` below does not reach
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._setters):
            args = self._bind(args, kwargs)
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value, in slot order, from the arguments and `_defaults`."""
        name, slots = cls.__qualname__, cls.__slots__
        if len(args) > len(slots):
            raise TypeError(f"{name} takes {len(slots)} fields, got {len(args)}")
        for field in kwargs:
            if field not in slots:
                raise TypeError(f"{name} has no field {field!r}")
            if slots.index(field) < len(args):
                raise TypeError(f"{name} got field {field!r} by position and by name")
        values = {**cls._defaults, **kwargs, **dict(zip(slots, args))}
        for field in slots:
            if field not in values:
                raise TypeError(f"{name} is missing field {field!r}")
        return [values[field] for field in slots]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        pairs = zip(self.__slots__, self._values(self))
        return f"{self.__class__.__qualname__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"

    def __reduce__(self):
        return self.__class__, self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class IntegerInterval(Record):
    """The set of integers n with lo <= n <= hi (both ends included)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        lo, hi = exact_int(lo, "lo"), exact_int(hi, "hi")
        if lo > hi:
            raise ValueError(f"empty interval: lo={format_int(lo)} > hi={format_int(hi)}")
        super().__init__(lo, hi)

    @property
    def length(self) -> int:
        """Number of integers in the interval."""
        return self.hi - self.lo + 1

    def __repr__(self) -> str:
        return f"[{format_int(self.lo)}, {format_int(self.hi)}]"


class Signal:
    """Immutable sparse representation of |f| with cached prefix sums.

    Construct with `Signal.from_pairs`; instances are safe to share
    across worker processes because nothing mutates them after
    construction.
    """

    __slots__ = (
        "indices",
        "values",
        "l1_norm",
        "scale",
        "scaled_values",
        "scaled_prefix",
        "scaled_prefix_max",
        "scaled_suffix_max",
        "scaled_l1",
        "position",
    )

    def __init__(self, pairs: Iterable[tuple[int, Fraction | int]] = ()):
        cleaned: list[tuple[int, Fraction]] = []
        for index, value in pairs:
            index = exact_int(index, "index")
            if not isinstance(value, Fraction):
                value = exact_fraction(value, f"value at index {format_int(index)}")
            if value.numerator < 0:
                value = -value
            cleaned.append((index, value))
        cleaned.sort(key=lambda item: item[0])
        for (a, _), (b, _) in zip(cleaned, cleaned[1:]):
            if a == b:
                raise ValueError(f"duplicate index {format_int(a)}")
        cleaned = [(i, v) for i, v in cleaned if v.numerator]

        self.indices: tuple[int, ...] = tuple(i for i, _ in cleaned)
        self.values: tuple[Fraction, ...] = tuple(v for _, v in cleaned)

        # Integer rescaling over the least common denominator.
        scale = math.lcm(*{v.denominator for v in self.values}) if self.values else 1
        self.scale: int = scale
        self.scaled_values: tuple[int, ...] = tuple(
            v.numerator * (scale // v.denominator) for v in self.values
        )
        # scaled_prefix[k] sums the first k scaled values, so its last
        # entry is scaled_l1; a window sum is two bisects and a difference.
        self.scaled_prefix: tuple[int, ...] = (0, *accumulate(self.scaled_values))
        # max of scaled_values[:k + 1] and of scaled_values[k:]
        self.scaled_prefix_max: tuple[int, ...] = tuple(accumulate(self.scaled_values, max))
        self.scaled_suffix_max: tuple[int, ...] = tuple(
            accumulate(reversed(self.scaled_values), max)
        )[::-1]
        self.scaled_l1: int = self.scaled_prefix[-1]
        self.l1_norm: Fraction = Fraction(self.scaled_l1, scale)
        # index -> its position in `indices`; its keys are the support as a set
        self.position: dict[int, int] = {i: k for k, i in enumerate(self.indices)}

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, Fraction | int]]) -> "Signal":
        """Build a signal from (index, value) pairs.

        Zero values are dropped, values are stored as absolute values,
        and a repeated index raises ValueError.

        >>> f = Signal.from_pairs([(3, Fraction(-1, 2)), (5, 0)])
        >>> f.indices, f.l1_norm
        ((3,), Fraction(1, 2))
        """
        return cls(pairs)

    @property
    def is_zero(self) -> bool:
        return not self.indices

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[tuple[int, Fraction]]:
        return iter(zip(self.indices, self.values))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signal):
            return NotImplemented
        return self.indices == other.indices and self.values == other.values

    def __hash__(self):
        return hash((self.indices, self.values))

    def __repr__(self) -> str:
        shown = list(self) if len(self) <= 4 else list(self)[:3]
        body = ", ".join(f"{format_int(i)}: {format_number(v)}" for i, v in shown)
        if len(self) > 4:
            body += f", ... ({len(self)} points)"
        return f"Signal({{{body}}})"

    def value_at(self, index: int) -> Fraction:
        """|f(index)|, zero off the support."""
        pos = self.position.get(index)
        return self.values[pos] if pos is not None else Fraction(0)

    def scaled_value_at(self, index: int) -> int:
        pos = self.position.get(index)
        return self.scaled_values[pos] if pos is not None else 0

    def support_hull(self) -> IntegerInterval | None:
        """Smallest interval containing the support; None for the zero signal."""
        if not self.indices:
            return None
        return IntegerInterval(self.indices[0], self.indices[-1])

    def window_sum_scaled(self, lo: int, hi: int) -> int:
        """Sum of scaled values over indices in [lo, hi] (hi inclusive)."""
        left = bisect_left(self.indices, lo)
        right = bisect_right(self.indices, hi)
        return self.scaled_prefix[right] - self.scaled_prefix[left]

    def window_sum(self, interval: IntegerInterval) -> Fraction:
        """Sum of |f| over the interval, via two binary searches.

        >>> f = Signal.from_pairs([(1, Fraction(1, 2)), (3, Fraction(1, 4))])
        >>> f.window_sum(IntegerInterval(0, 3))
        Fraction(3, 4)
        """
        return Fraction(self.window_sum_scaled(interval.lo, interval.hi), self.scale)


def dump_signal(f: Signal, metadata: Iterable[str] = ()) -> str:
    """Serialize a signal in the freqlab-signal v1 text format.

    Entries are written one per line as ``<index> <numerator>/<denominator>``
    in strictly increasing index order; extra metadata strings become
    leading ``#`` comment lines.
    """
    lines = [FORMAT_MAGIC]
    lines.extend(f"# {note}" for note in metadata)
    lines.extend(f"{format_int(i)} {format_rational(v)}" for i, v in f)
    return "\n".join(lines) + "\n"


def parse_signal(text: str) -> Signal:
    """Parse the freqlab-signal v1 text format.

    The first line must be exactly ``#freqlab-signal v1``; after that,
    blank lines and ``#`` comments are ignored and every remaining line
    is an ``<index> <numerator>/<denominator>`` entry with strictly
    increasing indices.  Round-trips are bit exact:
    ``parse_signal(dump_signal(f)) == f``.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != FORMAT_MAGIC:
        raise SignalFormatError(f"line 1: missing header {FORMAT_MAGIC!r}")
    pairs: list[tuple[int, Fraction]] = []
    previous_index: int | None = None
    for number, raw in enumerate(lines[1:], start=2):
        match = _ENTRY_RE.fullmatch(raw)
        entry = None
        if match is not None:
            try:
                entry = int(match[1]), Fraction(int(match[2]), int(match[3]))
            except ValueError:  # past sys.get_int_max_str_digits()
                pass
        if entry is None:
            entry = _checked_entry(number, raw)
            if entry is None:  # blank or comment
                continue
        index, value = entry
        if previous_index is not None and index <= previous_index:
            raise SignalFormatError(
                f"line {number}: indices must be strictly increasing"
                f" ({format_int(index)} after {format_int(previous_index)})"
            )
        previous_index = index
        pairs.append((index, value))
    return Signal.from_pairs(pairs)


def _checked_entry(number: int, raw: str) -> tuple[int, Fraction] | None:
    """Line `number` of a signal file, checked piece by piece: None for a
    blank or comment line, (index, value) for an entry, and otherwise a
    SignalFormatError naming what is wrong with it."""
    line = raw.strip()
    if not line or line.startswith("#"):
        return None
    fields = line.split()
    if len(fields) != 2:
        raise SignalFormatError(
            f"line {number}: expected '<index> <numerator>/<denominator>', got {raw!r}"
        )
    try:
        index = parse_strict_int(fields[0])
    except ValueError:
        raise SignalFormatError(f"line {number}: bad index {fields[0]!r}") from None
    if "/" not in fields[1]:
        raise SignalFormatError(f"line {number}: value {fields[1]!r} is not in p/q form")
    try:
        return index, parse_rational(fields[1])
    except ValueError as exc:
        raise SignalFormatError(f"line {number}: {exc}") from None


def write_signal(f: Signal, path, metadata: Iterable[str] = ()) -> None:
    """Write a signal file; see `dump_signal` for the format."""
    with open(path, "w", encoding="ascii", newline="") as handle:
        handle.write(dump_signal(f, metadata))


def read_signal(path) -> Signal:
    """Read a freqlab-signal v1 file; see `parse_signal`."""
    with open(path, "r", encoding="ascii") as handle:
        return parse_signal(handle.read())
