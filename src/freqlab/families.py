"""Built-in signal families with sharply controlled frequency behavior.

Five generators, all returning exact sparse `Signal` values:

* ``squares_power(eps, cutoff)``: value 1/m**(1+eps) at index m**2 for
  1 <= m <= cutoff.  Exact whenever 1+eps is an integer; otherwise the
  certified dyadic floor at `precision_bits` bits, which is an exact
  shift when m = 2**a and a*(1+eps) is an integer.
* ``squares_log(eps, cutoff)``: value 1/(m * ln(m)**(1+eps/2)) at index
  m**2 for 10 <= m <= cutoff; values are certified dyadic floors.
* ``stretched_log(eps, cutoff)``: the same values placed at the indices
  ceil(m * ln(m)**(1+eps)); both the index ceilings and the values are
  certified together, from one build per m that encloses ln(ln(m))
  once.
* ``spike_pair(size)``: 1 at the origin flanked by two spikes of height
  2*size at distance 3*size; the least maximizing radius jumps by more
  than `size` between n = 0 and n = 1.
* ``composite_jump(min_size, max_size)``: geometrically damped copies
  of `spike_pair` blocks translated to 4**size, giving unbounded jumps
  of the least maximizing radius between adjacent points.

Logarithms are natural logarithms.  Each inexact value is a weight
2**precision_bits / (m * exp(e * L)), L = ln(m) for `squares_power` and
ln(ln(m)) for the log families, on integer fixed-point enclosures (see
`freqlab.dyadic`) that bound it from both sides and are refined until
its floor or ceiling is pinned down.  `precision_bits` must lie in
1..dyadic.MAX_PRECISION.  Dyadic approximation always rounds toward
zero, so regenerating with more precision bits never decreases a value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import dyadic
from .dyadic import (
    Enclosure,
    ceil_dyadic,
    certify,
    exp,
    floor_dyadic,
    ln,
    ln_int,
    mul_rational,
)
from .signal import Signal

_PARAMETERS = {
    "squares_power": ("epsilon", "cutoff", "precision_bits"),
    "squares_log": ("epsilon", "cutoff", "precision_bits"),
    "stretched_log": ("epsilon", "cutoff", "precision_bits"),
    "spike_pair": ("size",),
    "composite_jump": ("size", "cutoff"),
}
_OPTIONAL = ("precision_bits",)
FAMILIES = tuple(_PARAMETERS)
DEFAULT_PRECISION_BITS = 128

_MIN_SPIKE_SIZE = 100
_MIN_LOG_INDEX = 10  # log families start at m = 10 so ln(m) is comfortably > 1


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameter bundle for `generate`.

    `cutoff` is the largest m for the square/stretched families and the
    largest block size for `composite_jump`; `size` is the spike size
    for `spike_pair` and the smallest block size for `composite_jump`.

    The three epsilon families take `epsilon`, `cutoff` and, optionally,
    `precision_bits` (DEFAULT_PRECISION_BITS when unset); `spike_pair`
    takes `size`, and `composite_jump` takes `size` and `cutoff`.  A spec
    must set every required field its family takes and no other; their
    ranges are checked by the family's generator, when `generate` runs.
    """

    family: str
    epsilon: Fraction | None = None
    cutoff: int | None = None
    size: int | None = None
    precision_bits: int | None = None

    def __post_init__(self):
        if self.family not in _PARAMETERS:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        takes = _PARAMETERS[self.family]
        for field in ("epsilon", "cutoff", "size", "precision_bits"):
            given = getattr(self, field) is not None
            if field in takes and not given and field not in _OPTIONAL:
                raise ValueError(f"{self.family} requires {field}")
            if given and field not in takes:
                raise ValueError(f"{self.family} takes no {field}")


def generate(spec: GeneratorSpec) -> Signal:
    """Dispatch a `GeneratorSpec` to its family generator."""
    if spec.family == "spike_pair":
        return spike_pair(spec.size)
    if spec.family == "composite_jump":
        return composite_jump(spec.size, spec.cutoff)
    make = {
        "squares_power": squares_power,
        "squares_log": squares_log,
        "stretched_log": stretched_log,
    }[spec.family]
    return make(spec.epsilon, spec.cutoff, _precision_bits(spec))


def _precision_bits(spec: GeneratorSpec) -> int:
    return DEFAULT_PRECISION_BITS if spec.precision_bits is None else spec.precision_bits


def is_exact(spec: GeneratorSpec) -> bool:
    """True when the family produces its defining values with no
    dyadic approximation at all."""
    if spec.family in ("spike_pair", "composite_jump"):
        return True
    if spec.family == "squares_power":
        return (1 + spec.epsilon).denominator == 1
    return False


def metadata_lines(spec: GeneratorSpec) -> list[str]:
    """Human-readable `#` header lines recording how a signal was generated."""
    lines = [f"family: {spec.family}"]
    if spec.epsilon is not None:
        lines.append(f"epsilon: {spec.epsilon.numerator}/{spec.epsilon.denominator}")
    if spec.family == "composite_jump":
        lines.append(f"size range: {spec.size}..{spec.cutoff}")
    else:
        if spec.cutoff is not None:
            lines.append(f"cutoff: {spec.cutoff}")
        if spec.size is not None:
            lines.append(f"size: {spec.size}")
    if is_exact(spec):
        lines.append("values: exact")
    else:
        lines.append(f"values: dyadic floor at {_precision_bits(spec)} bits")
    return lines


def _check_positive_epsilon(epsilon: Fraction) -> Fraction:
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return epsilon


def _check_precision_bits(precision_bits: int) -> None:
    if not 1 <= precision_bits <= dyadic.MAX_PRECISION:
        raise ValueError(
            f"precision_bits must be in 1..{dyadic.MAX_PRECISION} (dyadic.MAX_PRECISION), "
            f"got {precision_bits}"
        )


def _weight(m: int, log: Enclosure, exponent: Fraction, bits: int, p: int) -> Enclosure:
    """2**bits / (m * exp(exponent * L)) at scale 2**p, given L at scale 2**p:
    L = ln(m) gives 2**bits / m**(1+exponent), L = ln(ln(m)) a log weight."""
    lo, hi = exp(mul_rational(log, -exponent), p)
    return (lo << bits) // m, -(-(hi << bits) // m)


def squares_power(
    epsilon: Fraction, cutoff: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> Signal:
    """Value 1/m**(1+eps) at index m**2, for m = 1 .. cutoff.

    >>> squares_power(Fraction(1), 3).values
    (Fraction(1, 1), Fraction(1, 4), Fraction(1, 9))
    """
    epsilon = _check_positive_epsilon(epsilon)
    _check_precision_bits(precision_bits)
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    exponent = 1 + epsilon
    p, q = exponent.numerator, exponent.denominator
    pairs = []
    for m in range(1, cutoff + 1):
        if q == 1:
            value = Fraction(1, m**p)
        else:
            a = m.bit_length() - 1
            if m == 1 << a and a * p % q == 0:
                # 2**precision_bits / m**(p/q) is an integer only here; certify cannot settle it
                scaled = (1 << precision_bits) >> (a * p // q)
            else:
                (scaled,) = certify(
                    lambda scale: (_weight(m, ln_int(m, scale), epsilon, precision_bits, scale),),
                    (floor_dyadic,),
                    precision_bits,
                )
            if scaled == 0:
                raise ValueError(
                    f"1/{m}**({p}/{q}) underflows {precision_bits} dyadic bits; "
                    "raise precision_bits"
                )
            value = Fraction(scaled, 1 << precision_bits)
        pairs.append((m * m, value))
    return Signal.from_pairs(pairs)


def _weight_value(scaled: int, m: int, exponent: Fraction, precision_bits: int) -> Fraction:
    """The dyadic value scaled / 2**precision_bits, rejecting an underflow to 0."""
    if scaled == 0:
        raise ValueError(
            f"1/({m} * ln({m})**{exponent}) underflows {precision_bits} dyadic bits; "
            "raise precision_bits"
        )
    return Fraction(scaled, 1 << precision_bits)


def squares_log(
    epsilon: Fraction, cutoff: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> Signal:
    """Value 1/(m * ln(m)**(1 + eps/2)) at index m**2, for m = 10 .. cutoff."""
    epsilon = _check_positive_epsilon(epsilon)
    _check_precision_bits(precision_bits)
    if cutoff < _MIN_LOG_INDEX:
        raise ValueError(f"cutoff must be at least {_MIN_LOG_INDEX}; support would be empty")
    exponent = 1 + epsilon / 2
    pairs = []
    for m in range(_MIN_LOG_INDEX, cutoff + 1):
        (scaled,) = certify(
            lambda p: (_weight(m, ln(ln_int(m, p), p), exponent, precision_bits, p),),
            (floor_dyadic,),
            precision_bits,
        )
        pairs.append((m * m, _weight_value(scaled, m, exponent, precision_bits)))
    return Signal.from_pairs(pairs)


def _member_enclosures(
    m: int, index_exponent: Fraction, value_exponent: Fraction, bits: int, p: int
) -> tuple[Enclosure, Enclosure]:
    """m * ln(m)**index_exponent and 2**bits / (m * ln(m)**value_exponent)
    at scale 2**p, both from one enclosure of ln(ln(m))."""
    log_log = ln(ln_int(m, p), p)
    lo, hi = exp(mul_rational(log_log, index_exponent), p)
    return (m * lo, m * hi), _weight(m, log_log, value_exponent, bits, p)


def stretched_log(
    epsilon: Fraction, cutoff: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> Signal:
    """Value 1/(m * ln(m)**(1 + eps/2)) at index ceil(m * ln(m)**(1 + eps)).

    Index ceilings and values are certified from integer enclosures, both
    from one build per m that encloses ln(ln(m)) once; should two
    distinct m ever land on the same index the collision is rejected
    rather than silently merged.

    >>> stretched_log(Fraction(1), 10).indices  # ceil(10 * ln(10)**2 = 53.02...)
    (54,)
    """
    epsilon = _check_positive_epsilon(epsilon)
    _check_precision_bits(precision_bits)
    if cutoff < _MIN_LOG_INDEX:
        raise ValueError(f"cutoff must be at least {_MIN_LOG_INDEX}; support would be empty")
    index_exponent = 1 + epsilon
    value_exponent = 1 + epsilon / 2
    pairs = []
    previous = None
    for m in range(_MIN_LOG_INDEX, cutoff + 1):
        index, scaled = certify(
            lambda p: _member_enclosures(m, index_exponent, value_exponent, precision_bits, p),
            (ceil_dyadic, floor_dyadic),
            precision_bits,
        )
        if previous is not None and index <= previous:
            raise ValueError(
                f"index collision: m={m} lands on {index}, not past {previous}"
            )
        previous = index
        pairs.append((index, _weight_value(scaled, m, value_exponent, precision_bits)))
    return Signal.from_pairs(pairs)


def spike_pair(size: int) -> Signal:
    """1 at the origin, 2*size at indices -3*size and +3*size.

    >>> spike_pair(100).indices
    (-300, 0, 300)
    """
    if size < _MIN_SPIKE_SIZE:
        raise ValueError(f"size must be at least {_MIN_SPIKE_SIZE}, got {size}")
    return Signal.from_pairs(
        [(-3 * size, 2 * size), (0, 1), (3 * size, 2 * size)]
    )


def composite_jump(min_size: int, max_size: int) -> Signal:
    """Damped spike-pair blocks translated far apart.

    For each size C in [min_size, max_size] the block contributes
    2**-C at index 4**C and 2*C * 2**-C at indices 4**C +- 3*C.  Blocks
    never overlap because consecutive translates are a factor 4 apart.
    """
    if min_size < _MIN_SPIKE_SIZE:
        raise ValueError(f"min_size must be at least {_MIN_SPIKE_SIZE}, got {min_size}")
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
