"""Certified floor/ceiling of real-valued formulas via interval arithmetic.

Sample values of the built-in families involve logarithms and
non-integer powers, which have no exact rational value.  They are
materialized as one-sided dyadic approximations floor(v * 2**bits) /
2**bits.  To make the floor itself exact rather than "probably right",
the formula is evaluated in mpmath's interval context: the working
precision is doubled until both endpoints of the enclosure share the
same floor (or ceiling), which certifies the rounded integer.

A build may return several enclosures that share intermediate results
(`stretched_log` encloses m and ln(m) once for an index and a weight).
They are certified together: the precision doubles until every one of
them rounds to a single integer, and the certified values do not depend
on the precision at which that happens.  Endpoints are rounded straight
from mpmath's (sign, mantissa, exponent) form, m * 2**e, by an integer
shift: floor(m * 2**e) is m >> -e for e < 0 (Python's shift floors
negative m too) and m << e otherwise, and ceil(x) is -floor(-x).

Certification can only fail to converge when the target value is
exactly an integer, which the family formulas never produce; if the
precision cap is reached anyway, a PrecisionError is raised instead of
guessing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from mpmath import iv

DEFAULT_START_PRECISION = 192
MAX_PRECISION = 1 << 16


class PrecisionError(ArithmeticError):
    """An enclosure could not pin down the rounded value below the precision cap."""


class _NonFinite(Exception):
    pass


def _mantissa_exponent(raw) -> tuple[int, int]:
    """(m, e) with m * 2**e the value of an mpmath (sign, man, exp, bc) tuple."""
    sign, man, exp, _ = raw
    if not man and exp:  # mpmath's inf, -inf and nan: zero mantissa, tag exponent
        raise _NonFinite
    man = int(man)  # an mpz under mpmath's gmpy backend
    return (-man if sign else man), exp


def floor_dyadic(m: int, e: int) -> int:
    """floor(m * 2**e), exact, by an integer shift."""
    return m >> -e if e < 0 else m << e


def ceil_dyadic(m: int, e: int) -> int:
    """ceil(m * 2**e), exact, by an integer shift."""
    return -floor_dyadic(-m, e)


def iv_fraction(q: Fraction):
    """Enclosure of an exact rational in the current interval context."""
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


def certify(
    build: Callable[[], Sequence[object]],
    picks: Sequence[Callable[[int, int], int]],
    start_precision: int = DEFAULT_START_PRECISION,
    max_precision: int = MAX_PRECISION,
) -> tuple[int, ...]:
    """Certified roundings of every enclosure build() returns.

    `build` returns one enclosure per entry of `picks` (`floor_dyadic`
    or `ceil_dyadic`) and is re-evaluated under increasing interval
    precision until, for each enclosure, its pick gives both endpoints
    the same integer.  An infinite endpoint also doubles the precision.
    """
    precision = start_precision
    while precision <= max_precision:
        saved = iv.prec
        try:
            iv.prec = precision
            ends = [[_mantissa_exponent(raw) for raw in x._mpi_] for x in build()]
        except _NonFinite:
            precision *= 2
            continue
        finally:
            iv.prec = saved
        rounded = []
        for pick, (lo, hi) in zip(picks, ends):
            value = pick(*lo)
            if value != pick(*hi):
                break
            rounded.append(value)
        else:
            return tuple(rounded)
        precision *= 2
    raise PrecisionError(
        f"enclosure still straddles an integer at {max_precision} bits; "
        "the target may be an exact integer"
    )


def certified_floor(
    build: Callable[[], object],
    start_precision: int = DEFAULT_START_PRECISION,
    max_precision: int = MAX_PRECISION,
) -> int:
    """floor of the real number enclosed by build(), certified exact.

    `build` is re-evaluated under increasing interval precision until
    both endpoints agree on the floor.
    """
    return certify(lambda: (build(),), (floor_dyadic,), start_precision, max_precision)[0]
