"""Certified floor/ceiling of log and power formulas by integer enclosures.

Sample values of the built-in families involve logarithms and
non-integer powers, which have no exact rational value.  They are
materialized as one-sided dyadic approximations floor(v * 2**bits) /
2**bits.  To make the floor itself exact rather than "probably right",
each formula is evaluated on fixed-point enclosures: a pair of integers
(lo, hi) at scale 2**p with lo <= v * 2**p <= hi.  Every operation below
rounds its lower end down and its upper end up, and every truncated
series adds a proven bound on what it dropped, so the true value never
leaves the pair.  The rounded integer is certified when both ends give
the same floor (or ceiling); otherwise the precision p doubles.

The operations are `ln_int` (ln of a positive integer), `ln` and `exp`
of an enclosure, and `mul_rational` (a product with an exact rational),
which is all the families need: for rational e, m**e = exp(e ln m)
and (ln m)**e = exp(e ln(ln m)).  They rest on three cached building
blocks per precision, each computed with guard bits and rounded outward:

* ln 2 = 2 * atanh(1/3);
* ln(1 + i/2**TABLE_BITS) = 2 * atanh(i / (2**(TABLE_BITS+1) + i));
* exp(i/2**TABLE_BITS), as products of the enclosure of exp(2**-TABLE_BITS).

`ln` writes x = 2**k * (1 + i/2**TABLE_BITS) * (1 + d), reads the
logarithms of the first two factors off the cache, and runs an atanh
series for ln(1 + d) whose ratio is below 2**-(TABLE_BITS+1).  `exp`
reduces its argument by j * ln 2 and a table step i / 2**TABLE_BITS to
r in [0, 2**-TABLE_BITS) and runs a short Taylor series.  The
reductions are those of Brent and Zimmermann, *Modern Computer
Arithmetic* (CUP 2010), section 4.2.2, and the series bounds follow
section 4.4; each bound is derived in the docstring of its series.

`certify` is the one certification rule.  A value wanted to `bits`
fractional bits starts at p = bits + 64, and p doubles up to the cap
MAX_PRECISION (65,536 bits).  A build may return several enclosures
that share intermediate results (`stretched_log` encloses ln(ln m) once
for an index and a weight).  They are certified together: p doubles
until every one of them rounds to a single integer, and the certified
values do not depend on the p at which that happens.

Certification can only fail to converge when the target value is
exactly an integer, which the families rule out before they certify,
or needs more bits than the cap; either way a PrecisionError is raised
instead of guessing.  The second case fails fast: before any evaluation
when the start is already above the cap, in `exp` before it builds a
result past the cap, and otherwise after one round, from the enclosure
width.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Callable, Sequence

MAX_PRECISION = 1 << 16
TABLE_BITS = 7
_GUARD_BITS = 24  # cached constants are computed this much finer, then rounded out

Enclosure = tuple[int, int]


class PrecisionError(ArithmeticError):
    """An enclosure could not pin down the rounded value below the precision cap."""


def _past_the_cap(reason: str) -> PrecisionError:
    cap = f"value needs more than {MAX_PRECISION} bits (dyadic.MAX_PRECISION) to certify"
    return PrecisionError(f"{cap}: {reason}")


def floor_dyadic(x: int, bits: int) -> int:
    """floor(x / 2**bits), exact, by an integer shift."""
    return x >> bits


def ceil_dyadic(x: int, bits: int) -> int:
    """ceil(x / 2**bits), exact, by an integer shift."""
    return -(-x >> bits)


def certify(
    build: Callable[[int], Sequence[Enclosure]],
    picks: Sequence[Callable[[int, int], int]],
    bits: int,
) -> tuple[int, ...]:
    """Certified roundings of every enclosure build(p) returns.

    `build(p)` returns one enclosure at scale 2**p per entry of `picks`
    (`floor_dyadic` or `ceil_dyadic`), and is re-evaluated at doubling
    p, from bits + 64 up to MAX_PRECISION, until, for each enclosure,
    its pick gives both ends the same integer.  `bits` is the number of
    fractional bits the caller keeps; the 64 bits above it make the
    first round usually certify.

    Both ends agree only when the width hi - lo is below 2**p.  The
    width of an enclosure built from the operations below does not
    shrink as p grows: each is accurate to a bounded number of units at
    scale 2**p, so a value v carries a width of about v units.  A start
    above the cap, or a failed round whose width is already
    2**MAX_PRECISION or more, therefore raises at once instead of
    doubling up to the cap.  An exact-integer target straddles itself at
    every p, so families rule such targets out before they certify.
    """
    precision = bits + 64
    if precision > MAX_PRECISION:
        raise _past_the_cap(f"{bits} fractional bits start at {precision} bits")
    while precision <= MAX_PRECISION:
        rounded = []
        for pick, (lo, hi) in zip(picks, build(precision)):
            value = pick(lo, precision)
            if value != pick(hi, precision):
                break
            rounded.append(value)
        else:
            return tuple(rounded)
        width_bits = (hi - lo).bit_length()
        if width_bits > MAX_PRECISION:
            raise _past_the_cap(f"its enclosure is {width_bits} bits wide at {precision} bits")
        precision *= 2
    raise PrecisionError(
        f"enclosure still straddles an integer at {MAX_PRECISION} bits; "
        "the target may be an exact integer"
    )


def _round_out(x: Enclosure, guard: int) -> Enclosure:
    """An enclosure at scale 2**(p + guard) rounded outward to scale 2**p."""
    return x[0] >> guard, -(-x[1] >> guard)


def _atanh(u: int, v: int, p: int) -> Enclosure:
    """atanh(u/v) * 2**p for integers 0 <= u/v <= 1/3.

    The series sum of x**(2j+1) / (2j+1) runs in fixed point: power_0 =
    floor(x 2**p), s2 = floor(power_0**2 / 2**p) and power_(j+1) =
    floor(power_j s2 / 2**p).  With P_j = x**(2j+1) 2**p and e_j = P_j -
    power_j >= 0: e_0 < 1; s2 falls short of x**2 2**p by less than 2x
    + 1 < 2; and e_(j+1) < e_j x**2 + 2 x**(2j+1) + 1 <= e_j/9 + 5/3, so
    every e_j < 15/8.  Dividing by 2j+1 and flooring loses less than 3 per term.
    The loop stops at the first power_J = 0, where P_J < 2, and the tail
    from J on is at most P_J / (1 - x**2) < 9/4.  So the sum of the J
    terms taken is low by less than 3J + 3.
    """
    if not u:
        return 0, 0
    power = (u << p) // v
    s2 = power * power >> p
    total = j = 0
    while power:
        total += power // (2 * j + 1)
        j += 1
        power = power * s2 >> p
    return total, total + 3 * j + 3


def _exp_taylor(r: int, p: int) -> Enclosure:
    """exp(r / 2**p) * 2**p for an integer 0 <= r < 2**(p-1).

    Terms t_n = floor(t_(n-1) * r / (n 2**p)) from t_0 = 2**p.  With
    T_n = (r/2**p)**n / n! 2**p and e_n = T_n - t_n >= 0: e_0 = 0 and
    e_n < e_(n-1) / (2n) + 1, so every e_n < 2.  The loop stops after
    adding the first t_N = 0, where T_N < 1 + e_(N-1) / (2N) <= 2, and
    the tail from N on is at most T_N / (1 - 1/2) < 4.  So the sum is
    low by less than 2(N - 1) + 4.
    """
    if not r:
        return 1 << p, 1 << p
    term = total = 1 << p
    n = 0
    while term:
        n += 1
        term = (term * r >> p) // n  # the floor of term * r / (n 2**p)
        total += term
    return total, total + 2 * n + 4


@cache
def _ln2(p: int) -> Enclosure:
    lo, hi = _atanh(1, 3, p + _GUARD_BITS)
    return _round_out((2 * lo, 2 * hi), _GUARD_BITS)


@cache
def _ln_table(i: int, p: int) -> Enclosure:
    """ln(1 + i / 2**TABLE_BITS) * 2**p for 0 <= i < 2**TABLE_BITS."""
    lo, hi = _atanh(i, (2 << TABLE_BITS) + i, p + _GUARD_BITS)
    return _round_out((2 * lo, 2 * hi), _GUARD_BITS)


@cache
def _exp_table(p: int) -> tuple[Enclosure, ...]:
    """exp(i / 2**TABLE_BITS) * 2**p for 0 <= i < 2**(TABLE_BITS+1).

    Entry i is entry i-1 times exp(2**-TABLE_BITS), lower ends floored
    and upper ends ceiled; the guard bits absorb the widening.
    """
    q = p + _GUARD_BITS
    step_lo, step_hi = _exp_taylor(1 << (q - TABLE_BITS), q)
    lo = hi = 1 << q
    table = []
    for _ in range(2 << TABLE_BITS):
        table.append(_round_out((lo, hi), _GUARD_BITS))
        lo = lo * step_lo >> q
        hi = -(-hi * step_hi >> q)
    return tuple(table)


def _ln_scaled(x: int, shift: int, p: int) -> Enclosure:
    """ln(x / 2**shift) * 2**p for an integer x >= 1.

    x = 2**k * (1 + i/2**TABLE_BITS) * (x/c), where c is x with all but
    its leading TABLE_BITS + 1 bits cleared, and ln(x/c) = 2 atanh((x -
    c)/(x + c)) with a ratio below 2**-(TABLE_BITS+1).
    """
    k = x.bit_length() - 1
    if k > TABLE_BITS:
        head = x >> (k - TABLE_BITS)
        c = head << (k - TABLE_BITS)
    else:
        head = x << (TABLE_BITS - k)
        c = x
    table_lo, table_hi = _ln_table(head - (1 << TABLE_BITS), p)
    rest_lo, rest_hi = _atanh(x - c, x + c, p)
    two_lo, two_hi = _ln2(p)
    n = k - shift
    if n < 0:
        two_lo, two_hi = two_hi, two_lo
    return n * two_lo + table_lo + 2 * rest_lo, n * two_hi + table_hi + 2 * rest_hi


def ln_int(m: int, p: int) -> Enclosure:
    """ln(m) * 2**p for an integer m >= 1."""
    if m < 1:
        raise ValueError(f"ln needs a positive integer, got {m}")
    return _ln_scaled(m, 0, p)


def ln(x: Enclosure, p: int) -> Enclosure:
    """ln of the value enclosed by x at scale 2**p; x's lower end must be positive.

    The lower end is ln(lo) itself; since ln(hi) - ln(lo) <= (hi - lo)/lo,
    the upper end adds that ratio, rounded up.
    """
    lo, hi = x
    if lo < 1:
        raise ValueError("ln needs an enclosure of a positive value")
    ln_lo, ln_hi = _ln_scaled(lo, p, p)
    return ln_lo, ln_hi - (((lo - hi) << p) // lo)


def exp(y: Enclosure, p: int) -> Enclosure:
    """exp of the value enclosed by y at scale 2**p.

    y = j ln 2 + i / 2**TABLE_BITS + r with r in [0, 2**-TABLE_BITS),
    where j is chosen so that r >= 0 for every value in y and every
    value ln 2's enclosure allows.  The Taylor series runs at the least
    such r.  The greatest is d / 2**p above it, where d is y's width
    plus |j| times ln 2's, and for 0 <= d/2**p <= 1, exp(d/2**p) <= 1 +
    d/2**p + (d/2**p)**2.  A larger d raises PrecisionError.

    A j above MAX_PRECISION raises PrecisionError before the shift by j:
    exp(y) and its enclosure's width are then 2**MAX_PRECISION or more,
    which `certify` could never accept.
    """
    lo, hi = y
    two_lo, two_hi = _ln2(p)
    j = lo // two_hi
    z = lo - j * (two_hi if j >= 0 else two_lo)
    while z < 0:  # j < 0, and ln 2 may lie below two_hi
        j -= 1
        z += two_lo
    if j > MAX_PRECISION:
        raise _past_the_cap(f"its enclosure is more than {j} bits wide at {p} bits")
    d = hi - lo + abs(j) * (two_hi - two_lo)
    if d > 1 << p:
        raise PrecisionError("exp argument enclosure is wider than 1")
    i = z >> (p - TABLE_BITS)
    s_lo, s_hi = _exp_taylor(z - (i << (p - TABLE_BITS)), p)
    s_hi -= (-s_hi * d * ((1 << p) + d)) >> (2 * p)
    t_lo, t_hi = _exp_table(p)[i]
    lo = s_lo * t_lo >> p
    hi = -(-s_hi * t_hi >> p)
    if j >= 0:
        return lo << j, hi << j
    return _round_out((lo, hi), -j)


def mul_rational(x: Enclosure, q: Fraction) -> Enclosure:
    """q times the value enclosed by x, at the same scale."""
    lo, hi = x
    num, den = q.numerator, q.denominator
    if num < 0:
        lo, hi = hi, lo
    return lo * num // den, -(-hi * num // den)
