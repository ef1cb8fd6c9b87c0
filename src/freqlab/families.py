"""Built-in signal families with sharply controlled frequency behavior.

Five generators, all returning exact sparse `Signal` values.  One table
maps each family to its generator and the `GeneratorSpec` fields it
takes, in argument order; `GeneratorSpec` and `generate` both read it.

* ``squares_power(eps, cutoff)``: value 1/m**(1+eps) at index m**2 for
  1 <= m <= cutoff.  Exact whenever 1+eps is an integer; otherwise the
  dyadic floor at `precision_bits` bits.  When 1+eps = a/b with b = 2
  or 4 that floor is computed exactly, as isqrt(2**(2 bits) // m**a) or
  isqrt(isqrt(2**(4 bits) // m**a)); for any other b it is certified,
  or an exact shift when m = 2**a and a*(1+eps) is an integer.
* ``squares_log(eps, cutoff)``: value 1/(m * ln(m)**(1+eps/2)) at index
  m**2 for 10 <= m <= cutoff; values are certified dyadic floors.
* ``stretched_log(eps, cutoff)``: the same values placed at the indices
  ceil(m * ln(m)**(1+eps)); both the index ceilings and the values are
  certified together, from one build per m that encloses ln(m) once
  and takes one power of it: ln(m)**(1+eps/2) is the square root of
  ln(m) * ln(m)**(1+eps).
* ``spike_pair(size)``: 1 at the origin flanked by two spikes of height
  2*size at distance 3*size; the least maximizing radius jumps by more
  than `size` between n = 0 and n = 1.
* ``composite_jump(min_size, max_size)``: geometrically damped copies
  of `spike_pair` blocks translated to 4**size, giving unbounded jumps
  of the least maximizing radius between adjacent points.

Logarithms are natural logarithms.  Every other inexact value is a weight
2**precision_bits / (m * B**e), B = m for `squares_power` and ln(m) for
the log families, with B**e from `dyadic.power`, on integer fixed-point
enclosures (see `freqlab.dyadic`) that bound it from both sides and are
refined until its floor or ceiling is pinned down.  Sizes, cutoffs and
`precision_bits` must be integers (`signal.exact_int`), and
`precision_bits` must lie in 1..dyadic.MAX_PRECISION.  Dyadic
approximation always rounds toward zero, so regenerating with more
precision bits never decreases a value.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from . import dyadic
from .dyadic import Enclosure, ceil_dyadic, certify, floor_dyadic, ln_int, power
from .signal import Record, Signal, exact_fraction, exact_int
from .signal import format_int, format_number, format_rational

_OPTIONAL = ("precision_bits",)
DEFAULT_PRECISION_BITS = 128

_MIN_SPIKE_SIZE = 100
_MIN_LOG_INDEX = 10  # log families start at m = 10 so ln(m) is comfortably > 1
_LOG_TERM = "1/({0} * ln({0})**{1})"


class GeneratorSpec(Record):
    """Parameter bundle for `generate`.

    `cutoff` is the largest m for the square/stretched families and the
    largest block size for `composite_jump`; `size` is the spike size
    for `spike_pair` and the smallest block size for `composite_jump`.

    The three epsilon families take `epsilon`, `cutoff` and, optionally,
    `precision_bits` (DEFAULT_PRECISION_BITS when unset); `spike_pair`
    takes `size`, and `composite_jump` takes `size` and `cutoff`.  A spec
    must set every required field its family takes and no other; their
    ranges are checked by the family's generator, when `generate` runs.
    `epsilon` is stored as a Fraction (see `signal.exact_fraction`).
    """

    __slots__ = ("family", "epsilon", "cutoff", "size", "precision_bits")

    def __init__(
        self,
        family: str,
        epsilon: Fraction | None = None,
        cutoff: int | None = None,
        size: int | None = None,
        precision_bits: int | None = None,
    ):
        if family not in _GENERATORS:
            raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
        takes = _GENERATORS[family][1]
        for field, value in zip(self.__slots__[1:], (epsilon, cutoff, size, precision_bits)):
            given = value is not None
            if field in takes and not given and field not in _OPTIONAL:
                raise ValueError(f"{family} requires {field}")
            if given and field not in takes:
                raise ValueError(f"{family} takes no {field}")
        if epsilon is not None:
            epsilon = exact_fraction(epsilon, "epsilon")
        cutoff, size, precision_bits = (
            value if value is None else exact_int(value, field)
            for field, value in zip(self.__slots__[2:], (cutoff, size, precision_bits))
        )
        super().__init__(family, epsilon, cutoff, size, precision_bits)


def generate(spec: GeneratorSpec) -> Signal:
    """Call the family's generator on the spec's fields, in argument order;
    an unset `precision_bits` leaves the generator's default."""
    make, takes = _GENERATORS[spec.family]
    args = [getattr(spec, field) for field in takes]
    return make(*[arg for arg in args if arg is not None])


def is_exact(spec: GeneratorSpec) -> bool:
    """True when the family produces its defining values with no
    dyadic approximation at all."""
    if spec.epsilon is None:
        return True
    return spec.family == "squares_power" and (1 + spec.epsilon).denominator == 1


def metadata_lines(spec: GeneratorSpec) -> list[str]:
    """Human-readable `#` header lines recording how a signal was generated."""
    lines = [f"family: {spec.family}"]
    if spec.epsilon is not None:
        lines.append(f"epsilon: {format_rational(spec.epsilon)}")
    if spec.family == "composite_jump":
        lines.append(f"size range: {format_int(spec.size)}..{format_int(spec.cutoff)}")
    else:
        if spec.cutoff is not None:
            lines.append(f"cutoff: {format_int(spec.cutoff)}")
        if spec.size is not None:
            lines.append(f"size: {format_int(spec.size)}")
    if is_exact(spec):
        lines.append("values: exact")
    else:
        bits = DEFAULT_PRECISION_BITS if spec.precision_bits is None else spec.precision_bits
        lines.append(f"values: dyadic floor at {bits} bits")
    return lines


def _checked_args(
    epsilon: Fraction, cutoff: int, least: int, precision_bits: int
) -> tuple[Fraction, int, int]:
    """The arguments of an epsilon family checked in turn; returns
    epsilon, cutoff and precision_bits as a Fraction and two ints.
    `least` is the family's smallest cutoff."""
    epsilon = exact_fraction(epsilon, "epsilon")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {format_number(epsilon)}")
    precision_bits = exact_int(precision_bits, "precision_bits")
    if not 1 <= precision_bits <= dyadic.MAX_PRECISION:
        raise ValueError(
            f"precision_bits must be in 1..{dyadic.MAX_PRECISION} (dyadic.MAX_PRECISION), "
            f"got {format_int(precision_bits)}"
        )
    cutoff = exact_int(cutoff, "cutoff")
    if cutoff < least:
        raise ValueError(f"cutoff must be at least {least}; support would be empty")
    return epsilon, cutoff, precision_bits


def _dyadic_value(scaled: int, bits: int, term: str, m: int, exponent: Fraction) -> Fraction:
    """The dyadic value scaled / 2**bits, rejecting an underflow to 0 by
    the family's `term`, formatted with m and the exponent."""
    if scaled == 0:
        raise ValueError(
            f"{term.format(m, exponent)} underflows {bits} dyadic bits; raise precision_bits"
        )
    return Fraction(scaled, 1 << bits)


def _weight(m: int, denominator: Enclosure, bits: int, p: int) -> Enclosure:
    """2**bits / (m * D) at scale 2**p, given D at scale 2**p."""
    one = 1 << (bits + 2 * p)
    return one // (m * denominator[1]), -(-one // (m * denominator[0]))


def squares_power(
    epsilon: Fraction, cutoff: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> Signal:
    """Value 1/m**(1+eps) at index m**2, for m = 1 .. cutoff.

    >>> squares_power(Fraction(1), 3).values
    (Fraction(1, 1), Fraction(1, 4), Fraction(1, 9))
    """
    epsilon, cutoff, precision_bits = _checked_args(epsilon, cutoff, 1, precision_bits)
    exponent = 1 + epsilon
    num, den = exponent.numerator, exponent.denominator
    pairs = []
    for m in range(1, cutoff + 1):
        if den == 1:
            value = Fraction(1, m**num)
        else:
            a = m.bit_length() - 1
            if den in (2, 4):
                # floor(y**(1/k)) = floor(floor(y)**(1/k)), so the floor of
                # 2**bits / m**(num/den) is one or two integer square roots;
                # m**num > 2**(den * bits) underflows without being built
                big = a * num > den * precision_bits
                scaled = 0 if big else isqrt((1 << den * precision_bits) // m**num)
                if den == 4:
                    scaled = isqrt(scaled)
            elif m == 1 << a and a * num % den == 0:
                # 2**precision_bits / m**exponent is an integer only here; certify cannot settle it
                scaled = (1 << precision_bits) >> (a * num // den)
            else:
                (scaled,) = certify(
                    lambda p: (
                        _weight(m, power((m << p, m << p), epsilon, p), precision_bits, p),
                    ),
                    (floor_dyadic,),
                    precision_bits,
                )
            value = _dyadic_value(scaled, precision_bits, "1/{0}**({1})", m, exponent)
        pairs.append((m * m, value))
    return Signal.from_pairs(pairs)


def squares_log(
    epsilon: Fraction, cutoff: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> Signal:
    """Value 1/(m * ln(m)**(1 + eps/2)) at index m**2, for m = 10 .. cutoff."""
    epsilon, cutoff, precision_bits = _checked_args(
        epsilon, cutoff, _MIN_LOG_INDEX, precision_bits
    )
    exponent = 1 + epsilon / 2
    pairs = []
    for m in range(_MIN_LOG_INDEX, cutoff + 1):
        (scaled,) = certify(
            lambda p: (_weight(m, power(ln_int(m, p), exponent, p), precision_bits, p),),
            (floor_dyadic,),
            precision_bits,
        )
        pairs.append((m * m, _dyadic_value(scaled, precision_bits, _LOG_TERM, m, exponent)))
    return Signal.from_pairs(pairs)


def _member_enclosures(
    m: int, index_exponent: Fraction, bits: int, p: int
) -> tuple[Enclosure, Enclosure]:
    """m * L**e and 2**bits / (m * L**((1 + e)/2)) at scale 2**p, L = ln(m)
    and e = index_exponent, from one enclosure of L and one power of it:
    L**((1 + e)/2) is the square root of L * L**e."""
    log_lo, log_hi = ln_int(m, p)
    lo, hi = power((log_lo, log_hi), index_exponent, p)
    root = isqrt(log_lo * lo), 1 + isqrt(log_hi * hi - 1)
    return (m * lo, m * hi), _weight(m, root, bits, p)


def stretched_log(
    epsilon: Fraction, cutoff: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> Signal:
    """Value 1/(m * ln(m)**(1 + eps/2)) at index ceil(m * ln(m)**(1 + eps)).

    Index ceilings and values are certified from integer enclosures, both
    from one build per m that encloses ln(m) once.  Distinct m never share
    an index: for m >= 10, m * ln(m)**(1 + eps) grows by more than
    ln(10) > 1 per step, so the ceilings strictly increase.

    >>> stretched_log(Fraction(1), 10).indices  # ceil(10 * ln(10)**2 = 53.02...)
    (54,)
    """
    epsilon, cutoff, precision_bits = _checked_args(
        epsilon, cutoff, _MIN_LOG_INDEX, precision_bits
    )
    index_exponent = 1 + epsilon
    value_exponent = 1 + epsilon / 2
    pairs = []
    for m in range(_MIN_LOG_INDEX, cutoff + 1):
        index, scaled = certify(
            lambda p: _member_enclosures(m, index_exponent, precision_bits, p),
            (ceil_dyadic, floor_dyadic),
            precision_bits,
        )
        pairs.append((index, _dyadic_value(scaled, precision_bits, _LOG_TERM, m, value_exponent)))
    return Signal.from_pairs(pairs)


def spike_pair(size: int) -> Signal:
    """1 at the origin, 2*size at indices -3*size and +3*size.

    >>> spike_pair(100).indices
    (-300, 0, 300)
    """
    size = exact_int(size, "size")
    if size < _MIN_SPIKE_SIZE:
        raise ValueError(f"size must be at least {_MIN_SPIKE_SIZE}, got {format_int(size)}")
    return Signal.from_pairs(
        [(-3 * size, 2 * size), (0, 1), (3 * size, 2 * size)]
    )


def composite_jump(min_size: int, max_size: int) -> Signal:
    """Damped spike-pair blocks translated far apart.

    For each size C in [min_size, max_size] the block contributes
    2**-C at index 4**C and 2*C * 2**-C at indices 4**C +- 3*C.  Blocks
    never overlap because consecutive translates are a factor 4 apart.
    """
    min_size, max_size = exact_int(min_size, "min_size"), exact_int(max_size, "max_size")
    if min_size < _MIN_SPIKE_SIZE:
        raise ValueError(
            f"min_size must be at least {_MIN_SPIKE_SIZE}, got {format_int(min_size)}"
        )
    if max_size < min_size:
        raise ValueError("max_size must be at least min_size")
    pairs = []
    for c in range(min_size, max_size + 1):
        center = 4**c
        damp = Fraction(1, 2**c)
        pairs.append((center - 3 * c, 2 * c * damp))
        pairs.append((center, damp))
        pairs.append((center + 3 * c, 2 * c * damp))
    return Signal.from_pairs(pairs)


# family -> (its generator, the GeneratorSpec fields it takes in argument order)
_GENERATORS = {
    "squares_power": (squares_power, ("epsilon", "cutoff", "precision_bits")),
    "squares_log": (squares_log, ("epsilon", "cutoff", "precision_bits")),
    "stretched_log": (stretched_log, ("epsilon", "cutoff", "precision_bits")),
    "spike_pair": (spike_pair, ("size",)),
    "composite_jump": (composite_jump, ("size", "cutoff")),
}
FAMILIES = tuple(_GENERATORS)
