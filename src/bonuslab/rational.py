"""Exact rational parsing and rendering.

All numeric state in this package is fractions.Fraction.  Strings are the
only lossy-free interchange form: "3/5", "1.051", "2", "1e-6" all parse
exactly.  Floats are rejected everywhere — a float literal has already
lost the decimal value it was written as, and exact comparisons downstream
would silently change verdicts.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FloatRejected, UnparsableNumber

Rational = Fraction

RationalLike = "Fraction | int | str"


def as_rational(value) -> Fraction:
    """Coerce an int, Fraction, or numeric string to Fraction.

    Raises UnparsableNumber for malformed strings and FloatRejected (a
    TypeError) for floats and other unsupported types.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise FloatRejected("bool is not a rational value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise UnparsableNumber(f"cannot parse {value!r} as a rational") from exc
    if isinstance(value, float):
        raise FloatRejected(
            f"refusing float {value!r}: pass the exact string (e.g. '1.051') instead"
        )
    raise FloatRejected(f"cannot interpret {type(value).__name__} as a rational")


def format_rational(value: Fraction) -> str:
    """Canonical string form: "a" for integers, reduced "a/b" otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def approx_decimal(value: Fraction, places: int = 6) -> str:
    """Decimal rendering to `places` digits, for display only (marked approximate)."""
    sign = "-" if value < 0 else ""
    scaled = abs(value) * 10**places
    units, remainder = divmod(scaled.numerator, scaled.denominator)
    if 2 * remainder >= scaled.denominator:  # round half away from zero
        units += 1
    if places == 0:
        return f"{sign}{units}"
    whole, frac = divmod(units, 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"


def rationals(values) -> tuple[Fraction, ...]:
    """Coerce an iterable of rational-likes to a tuple of Fractions."""
    return tuple(as_rational(v) for v in values)
