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
the least common denominator) and the prefix sums of that rescaling.
The search loops in `freqlab.maximal` compare averages by integer cross
multiplication of these scaled sums, which keeps exact ties exact while
avoiding per-step Fraction normalization.
"""

from __future__ import annotations

import math
import operator
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

FORMAT_MAGIC = "#freqlab-signal v1"

# plain ASCII decimal integers only: int() is laxer (underscores,
# unicode digits) than a wire format should be
_INT_RE = re.compile(r"[+-]?[0-9]+\Z")


def parse_strict_int(text: str) -> int:
    """Parse an ASCII decimal integer, rejecting every other spelling."""
    if not _INT_RE.match(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text, 10)


class SignalFormatError(ValueError):
    """A signal file violates the freqlab-signal v1 format."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


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
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class IntegerInterval:
    """The set of integers n with lo <= n <= hi (both ends included)."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @property
    def length(self) -> int:
        """Number of integers in the interval."""
        return self.hi - self.lo + 1

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


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
        "_scaled_prefix",
        "scaled_l1",
        "position",
    )

    def __init__(self, pairs: Iterable[tuple[int, Fraction | int]] = ()):
        cleaned: list[tuple[int, Fraction]] = []
        for index, raw in pairs:
            if isinstance(raw, float):
                raise TypeError(
                    f"float value {raw!r} at index {index}: signal values must be exact rationals"
                )
            value = raw if isinstance(raw, Fraction) else Fraction(raw)
            cleaned.append((operator.index(index), abs(value)))
        cleaned.sort(key=lambda item: item[0])
        for (a, _), (b, _) in zip(cleaned, cleaned[1:]):
            if a == b:
                raise ValueError(f"duplicate index {a}")
        cleaned = [(i, v) for i, v in cleaned if v != 0]

        self.indices: tuple[int, ...] = tuple(i for i, _ in cleaned)
        self.values: tuple[Fraction, ...] = tuple(v for _, v in cleaned)

        # Integer rescaling over the least common denominator.
        scale = math.lcm(*(v.denominator for v in self.values)) if self.values else 1
        self.scale: int = scale
        self.scaled_values: tuple[int, ...] = tuple(
            v.numerator * (scale // v.denominator) for v in self.values
        )
        scaled_prefix = [0]
        acc = 0
        for sv in self.scaled_values:
            acc += sv
            scaled_prefix.append(acc)
        self._scaled_prefix: tuple[int, ...] = tuple(scaled_prefix)
        self.scaled_l1: int = acc
        self.l1_norm: Fraction = Fraction(acc, scale)
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
        if len(self.indices) <= 4:
            body = ", ".join(f"{i}: {v}" for i, v in self)
        else:
            shown = list(self)[:3]
            body = ", ".join(f"{i}: {v}" for i, v in shown) + f", ... ({len(self)} points)"
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
        return self._scaled_prefix[right] - self._scaled_prefix[left]

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
    lines.extend(f"{i} {format_rational(v)}" for i, v in f)
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
        raise SignalFormatError(f"missing header {FORMAT_MAGIC!r}", line_number=1)
    pairs: list[tuple[int, Fraction]] = []
    previous_index: int | None = None
    for number, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise SignalFormatError(
                f"expected '<index> <numerator>/<denominator>', got {raw!r}", number
            )
        try:
            index = parse_strict_int(fields[0])
        except ValueError:
            raise SignalFormatError(f"bad index {fields[0]!r}", number) from None
        if "/" not in fields[1]:
            raise SignalFormatError(f"value {fields[1]!r} is not in p/q form", number)
        try:
            value = parse_rational(fields[1])
        except ValueError as exc:
            raise SignalFormatError(str(exc), number) from None
        if previous_index is not None and index <= previous_index:
            raise SignalFormatError(
                f"indices must be strictly increasing ({index} after {previous_index})",
                number,
            )
        previous_index = index
        pairs.append((index, value))
    return Signal.from_pairs(pairs)


def write_signal(f: Signal, path, metadata: Iterable[str] = ()) -> None:
    """Write a signal file; see `dump_signal` for the format."""
    with open(path, "w", encoding="ascii", newline="") as handle:
        handle.write(dump_signal(f, metadata))


def read_signal(path) -> Signal:
    """Read a freqlab-signal v1 file; see `parse_signal`."""
    with open(path, "r", encoding="ascii") as handle:
        return parse_signal(handle.read())
