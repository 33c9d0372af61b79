"""Exact rational parsing and rendering.

All numeric state in this package is fractions.Fraction.  Strings are the
only lossy-free interchange form: "3/5", "1.051", "2", "1e-6" all parse
exactly.  Floats are rejected everywhere — a float literal has already
lost the decimal value it was written as, and exact comparisons downstream
would silently change verdicts.

`as_rational` reads a number; `as_count` checks an int argument (a count,
an index, a grid denominator, a seed), refusing a float as FloatRejected.
`int_text` writes an int for a message, and `rational_text` a number or a
tuple of numbers, also one past the int-to-str digit limit.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .errors import ArityMismatch, FloatRejected, InvalidParameter, UnparsableNumber


def as_rational(value) -> Fraction:
    """Coerce an int, Fraction, or numeric string to Fraction.

    Raises UnparsableNumber for malformed strings and for an exponent past
    sys.get_int_max_str_digits() (0: no limit), FloatRejected (a TypeError)
    for floats and other unsupported types.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise FloatRejected("bool is not a rational value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            # read the exponent before Fraction builds 10**exponent
            if "e" in text or "E" in text:
                limit = sys.get_int_max_str_digits()
                if limit and abs(int(text.lower().partition("e")[2])) > limit:
                    raise UnparsableNumber(f"the exponent of {value!r} exceeds {limit}")
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise UnparsableNumber(f"cannot parse {value!r} as a rational") from exc
    if isinstance(value, float):
        raise FloatRejected(
            f"refusing float {value!r}: pass the exact string (e.g. '1.051') instead"
        )
    raise FloatRejected(f"cannot interpret {type(value).__name__} as a rational")


def as_count(value, name: str, minimum: int | None, error: type[Exception]) -> int:
    """`value` if it is an int of at least `minimum` (None: no lower bound);
    FloatRejected for a float, `error` for any other non-int (a bool too) or
    for an int below the minimum."""
    if isinstance(value, float):
        raise FloatRejected(f"refusing float {name} {value!r}")
    if type(value) is not int or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        got = int_text(value) if type(value) is int else repr(value)
        raise error(f"{name} must be an int{bound}, got {got}")
    return value


def int_text(value: int) -> str:
    """`value` written out, within sys.get_int_max_str_digits() (0: no
    limit); past it, its sign and the limit, so a message never fails."""
    try:
        return str(value)
    except ValueError:
        sign = "a negative" if value < 0 else "an"
        return f"{sign} int of over {sys.get_int_max_str_digits()} digits"


def rational_text(value) -> str:
    """`value`, a number or a tuple of numbers, written as str() writes it
    within sys.get_int_max_str_digits() (0: no limit); past it, a number too
    long is written as its sign and the limit, the way `int_text` writes an
    int, so a message never fails."""
    return _text(value, str)


def _text(value, write) -> str:
    """`write(value)`, or its fallback past the digit limit; a tuple's
    numbers are written as repr(), as str() of a tuple writes them."""
    try:
        return write(value)
    except ValueError:
        if isinstance(value, tuple):
            items = [_text(x, repr) for x in value]
            return f"({', '.join(items)}{',' if len(items) == 1 else ''})"
        if isinstance(value, int):
            return int_text(value)
        sign = "a negative" if value < 0 else "a"
        return f"{sign} rational of over {sys.get_int_max_str_digits()} digits"


def format_rational(value: Fraction) -> str:
    """Canonical string form: "a" for integers, reduced "a/b" otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def approx_decimal(value: Fraction, places: int = 6) -> str:
    """Decimal rendering to `places` digits, for display only (marked approximate)."""
    as_count(places, "decimal places", 0, InvalidParameter)
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
    """Coerce an iterable of rational-likes to a tuple of Fractions.

    A string is refused rather than read one character per number.
    """
    if isinstance(values, (str, bytes)):
        raise ArityMismatch(f"expected a list of numbers, got the string {values!r}")
    return tuple(map(as_rational, values))


def load_json(text: str):
    """A JSON document whose numbers with a fraction or exponent are refused
    as written: FloatRejected quotes the literal before a float rounds it.
    An integer past the int digit limit is UnparsableNumber."""
    return json.loads(text, parse_float=_reject_float_literal, parse_int=_int_literal)


def _int_literal(literal: str) -> int:
    try:
        return int(literal)
    except ValueError as exc:
        raise UnparsableNumber(f"a JSON integer of {len(literal)} digits is too long") from exc


def _reject_float_literal(literal: str):
    raise FloatRejected(f'refusing float {literal}: pass the exact string "{literal}" instead')
