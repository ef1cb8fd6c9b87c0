"""Built-in signal families with sharply controlled frequency behavior.

Five generators, all returning exact sparse `Signal` values:

* ``squares_power(eps, cutoff)``: value 1/m**(1+eps) at index m**2 for
  1 <= m <= cutoff.  Exact whenever 1+eps is an integer; otherwise the
  value is the dyadic floor at `precision_bits` bits, computed by exact
  integer root extraction.
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

Logarithms are natural logarithms.  The log families evaluate
ln(m)**e as exp(e * ln(ln(m))) on integer fixed-point enclosures (see
`freqlab.dyadic`), which bound the true value from both sides and are
refined until its floor or ceiling is pinned down.  Dyadic
approximation always rounds toward zero, so regenerating with more
precision bits never decreases a value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dyadic import (
    DEFAULT_START_PRECISION,
    Enclosure,
    ceil_dyadic,
    certified_floor,
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
        if self.precision_bits is not None and self.precision_bits <= 0:
            raise ValueError("precision_bits must be positive")
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


def integer_nth_root(x: int, q: int) -> int:
    """floor(x ** (1/q)) for x >= 0, q >= 1, by Newton iteration on integers."""
    if x < 0:
        raise ValueError("negative radicand")
    if q <= 0:
        raise ValueError("root order must be positive")
    if x in (0, 1) or q == 1:
        return x
    root = 1 << -(-x.bit_length() // q)  # certainly >= floor root
    while True:
        better = ((q - 1) * root + x // root ** (q - 1)) // q
        if better >= root:
            break
        root = better
    # floor division can leave the iterate one or two off either way
    while root ** q > x:
        root -= 1
    while (root + 1) ** q <= x:
        root += 1
    return root


def _check_positive_epsilon(epsilon: Fraction) -> Fraction:
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return epsilon


def squares_power(
    epsilon: Fraction, cutoff: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> Signal:
    """Value 1/m**(1+eps) at index m**2, for m = 1 .. cutoff.

    >>> squares_power(Fraction(1), 3).values
    (Fraction(1, 1), Fraction(1, 4), Fraction(1, 9))
    """
    epsilon = _check_positive_epsilon(epsilon)
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    exponent = 1 + epsilon
    p, q = exponent.numerator, exponent.denominator
    pairs = []
    for m in range(1, cutoff + 1):
        if q == 1:
            value = Fraction(1, m**p)
        else:
            # floor(2**B * m**(-p/q)) = floor((2**(B*q) // m**p) ** (1/q)):
            # both floors keep t**q * m**p <= 2**(B*q) exactly.
            scaled = integer_nth_root((1 << (precision_bits * q)) // m**p, q)
            if scaled == 0:
                raise ValueError(
                    f"1/{m}**({p}/{q}) underflows {precision_bits} dyadic bits; "
                    "raise precision_bits"
                )
            value = Fraction(scaled, 1 << precision_bits)
        pairs.append((m * m, value))
    return Signal.from_pairs(pairs)


def _log_weight(m: int, log_log: Enclosure, exponent: Fraction, bits: int, p: int) -> Enclosure:
    """2**bits / (m * ln(m)**exponent) at scale 2**p, given ln(ln(m)) at scale 2**p."""
    lo, hi = exp(mul_rational(log_log, -exponent), p)
    return (lo << bits) // m, -(-(hi << bits) // m)


def _weight_value(scaled: int, m: int, exponent: Fraction, precision_bits: int) -> Fraction:
    """The dyadic value scaled / 2**precision_bits, rejecting an underflow to 0."""
    if scaled == 0:
        raise ValueError(
            f"1/({m} * ln({m})**{exponent}) underflows {precision_bits} dyadic bits; "
            "raise precision_bits"
        )
    return Fraction(scaled, 1 << precision_bits)


def _log_weight_floor(m: int, exponent: Fraction, precision_bits: int) -> Fraction:
    """Certified dyadic floor of 1 / (m * ln(m)**exponent)."""

    def build(p):
        return _log_weight(m, ln(ln_int(m, p), p), exponent, precision_bits, p)

    scaled = certified_floor(build, start_precision=precision_bits + 64)
    return _weight_value(scaled, m, exponent, precision_bits)


def squares_log(
    epsilon: Fraction, cutoff: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> Signal:
    """Value 1/(m * ln(m)**(1 + eps/2)) at index m**2, for m = 10 .. cutoff."""
    epsilon = _check_positive_epsilon(epsilon)
    if cutoff < _MIN_LOG_INDEX:
        raise ValueError(f"cutoff must be at least {_MIN_LOG_INDEX}; support would be empty")
    exponent = 1 + epsilon / 2
    return Signal.from_pairs(
        (m * m, _log_weight_floor(m, exponent, precision_bits))
        for m in range(_MIN_LOG_INDEX, cutoff + 1)
    )


def _member_enclosures(
    m: int, index_exponent: Fraction, value_exponent: Fraction, bits: int, p: int
) -> tuple[Enclosure, Enclosure]:
    """m * ln(m)**index_exponent and 2**bits / (m * ln(m)**value_exponent)
    at scale 2**p, both from one enclosure of ln(ln(m))."""
    log_log = ln(ln_int(m, p), p)
    lo, hi = exp(mul_rational(log_log, index_exponent), p)
    return (m * lo, m * hi), _log_weight(m, log_log, value_exponent, bits, p)


def _stretched_member(
    m: int, index_exponent: Fraction, value_exponent: Fraction, precision_bits: int
) -> tuple[int, Fraction]:
    """Certified ceil(m * ln(m)**index_exponent) and dyadic floor of
    1 / (m * ln(m)**value_exponent), from one build that encloses
    ln(ln(m)) once."""

    def build(p):
        return _member_enclosures(m, index_exponent, value_exponent, precision_bits, p)

    # The value needs precision_bits + 64 bits to start, the index no more than the default.
    start = max(DEFAULT_START_PRECISION, precision_bits + 64)
    index, scaled = certify(build, (ceil_dyadic, floor_dyadic), start_precision=start)
    return index, _weight_value(scaled, m, value_exponent, precision_bits)


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
    if cutoff < _MIN_LOG_INDEX:
        raise ValueError(f"cutoff must be at least {_MIN_LOG_INDEX}; support would be empty")
    index_exponent = 1 + epsilon
    value_exponent = 1 + epsilon / 2
    pairs = []
    previous = None
    for m in range(_MIN_LOG_INDEX, cutoff + 1):
        index, value = _stretched_member(m, index_exponent, value_exponent, precision_bits)
        if previous is not None and index <= previous:
            raise ValueError(
                f"index collision: m={m} lands on {index}, not past {previous}"
            )
        previous = index
        pairs.append((index, value))
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
