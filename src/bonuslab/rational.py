"""Exact rational parsing and rendering.

All numeric state in this package is fractions.Fraction.  Strings are the
only lossy-free interchange form: "3/5", "1.051", "2", "1e-6" all parse
exactly.  Floats are rejected everywhere — a float literal has already
lost the decimal value it was written as, and exact comparisons downstream
would silently change verdicts.

`integer_ratio` is the one reader of numbers: it reads an int, a Fraction
or a numeric string as (numerator, denominator) in lowest terms, a string
in the canonical form `format_rational` writes ("-12", "7/8") by int() and
one gcd, any other spelling by Fraction.  `as_rational` builds its Fraction
from it, and `build_market` reads a market document's numbers through it
(`integer_ratios`), so a canonical document reaches integers with no
Fraction.  `as_count` checks an int argument (a count, an index, a grid
denominator, a seed), refusing a float as FloatRejected.  The exact paths
run on integers, and `over_lcm` is their one conversion: it writes vectors
of rationals over their least common denominator, and `ratios_over_lcm`,
its lcm step, vectors of integer ratios.

A message writes a number with `rational_text`, which never fails.  An
int there is a count, an index, a size or a grid denominator.  An int or a
rational whose numerator and denominator have up to 20 digits each (every
64-bit integer) is written in full, past that by its size, the digits str()
writes ("an int of 4001 digits", "a rational of 4001 digits"), so that the
refusal of a huge input stays short.  A vector (a tuple) is written item by
item up to 20 items, past that by its length ("a tuple of 100000 items").
Past the int-to-str digit limit a number is written as its sign, its kind
and the limit ("a negative rational of over 4300 digits").  A document
writes a number with `format_rational`, an integer over a denominator with
`format_ratio` (the same text, from the integers and one gcd), and
`approx_decimal` its `--decimal` suffix; each writes the exact value or
raises UnwritableNumber.

A message quotes an input read from outside (a label, a plan kind, a
string where a number or a list belongs) with `input_text`: its repr up to
QUOTE_LIMIT characters, and past that its kind and size ("a string of
100000 characters", "a list of 300 items"), so that a message stays short
however long the input.  `instance_of` refuses an object argument of the
wrong type as ArityMismatch ("a market must be a Market, got 'm'"),
quoting it the same way.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm

from .errors import ArityMismatch, FloatRejected, UnparsableNumber, UnwritableNumber

QUOTE_LIMIT = 100  # characters of an input's repr that a message quotes


def as_rational(value) -> Fraction:
    """Coerce an int, Fraction, or numeric string to Fraction: a Fraction
    as it is, an int as its Fraction, anything else built from its
    `integer_ratio`, with the errors that raises."""
    if isinstance(value, Fraction):
        return value
    if type(value) is int:  # no gcd to take
        return Fraction(value)
    return Fraction(*integer_ratio(value))


def integer_ratio(value) -> tuple[int, int]:
    """(numerator, denominator) of an int, Fraction, or numeric string, in
    lowest terms with denominator > 0: the one reader of numbers.

    A string in the canonical form `format_rational` writes ("-12", "7/8",
    with surrounding whitespace) is read by int() and one gcd; any other
    spelling ("1.051", "1e-6", "+3", "1_000") by Fraction.  Raises
    UnparsableNumber for malformed strings and for an exponent past
    sys.get_int_max_str_digits() (0: no limit), FloatRejected (a TypeError)
    for floats, bools and other unsupported types.
    """
    if isinstance(value, str):
        text = value.strip()
        try:
            num, slash, den = text.partition("/")
            digits = num[1:] if num[:1] == "-" else num
            if text.isascii() and digits.isdigit() and (not slash or den.isdigit()):
                numerator, denominator = int(num), int(den) if slash else 1
                if not denominator:
                    raise ZeroDivisionError(f"{text} has a zero denominator")
                g = gcd(numerator, denominator)
                return numerator // g, denominator // g
            # read the exponent before Fraction builds 10**exponent
            if "e" in text or "E" in text:
                limit = sys.get_int_max_str_digits()
                if limit and abs(int(text.lower().partition("e")[2])) > limit:
                    raise UnparsableNumber(f"the exponent of {input_text(value)} exceeds {limit}")
            return Fraction(text).as_integer_ratio()
        except (ValueError, ZeroDivisionError) as exc:
            raise UnparsableNumber(f"cannot parse {input_text(value)} as a rational") from exc
    if isinstance(value, bool):
        raise FloatRejected("bool is not a rational value")
    if isinstance(value, (int, Fraction)):
        return value.as_integer_ratio()
    if isinstance(value, float):
        raise FloatRejected(
            f"refusing float {input_text(value)}: pass the exact string (e.g. '1.051') instead"
        )
    raise FloatRejected(f"cannot interpret {type(value).__name__} as a rational")


def as_count(value, name: str, minimum: int | None, error: type[Exception]) -> int:
    """`value` if it is an int of at least `minimum` (None: no lower bound);
    FloatRejected for a float, `error` for any other non-int (a bool too) or
    for an int below the minimum."""
    if isinstance(value, float):
        raise FloatRejected(f"refusing float {name} {input_text(value)}")
    if type(value) is not int or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        got = rational_text(value) if type(value) is int else input_text(value)
        raise error(f"{name} must be an int{bound}, got {got}")
    return value


def rational_text(value) -> str:
    """`value`, a number or a tuple of numbers, for a message: an int or a
    Fraction as str() writes it while its numerator and denominator have up
    to 20 digits each, and by its size, the digits str() writes, past that;
    and a tuple of up to 20 items with each item written so: "(1/2, 0)", as
    documents spell the numbers; a longer tuple by its length, as
    input_text writes it.  Past sys.get_int_max_str_digits() (0: no limit),
    a number too long is written as its sign, its kind and the limit, so a
    message never fails."""
    if isinstance(value, tuple):
        if len(value) > 20:
            return f"a tuple of {len(value)} items"
        items = [rational_text(x) for x in value]
        return f"({', '.join(items)}{',' if len(items) == 1 else ''})"
    try:
        text = str(value)
    except ValueError:
        size = f"over {sys.get_int_max_str_digits()}"
    else:
        if not isinstance(value, (int, Fraction)):
            return text
        digits = text.lstrip("-").split("/")
        if max(map(len, digits)) <= 20:
            return text
        size = sum(map(len, digits))
    if isinstance(value, int):
        return f"{'a negative' if value < 0 else 'an'} int of {size} digits"
    return f"{'a negative' if value < 0 else 'a'} rational of {size} digits"


def input_text(value) -> str:
    """`value`, an input read from outside, for a message: its repr while
    that has at most QUOTE_LIMIT characters escaped to ASCII, as a JSON
    error object escapes it, else its kind and size."""
    try:
        if len(ascii(value)) <= QUOTE_LIMIT:
            return repr(value)
    except ValueError:  # an int past the int-to-str digit limit inside
        pass
    if isinstance(value, str):
        return f"a string of {len(value)} characters"
    if isinstance(value, (list, tuple, dict)):
        return f"a {type(value).__name__} of {len(value)} items"
    return f"a value of type {type(value).__name__}"


def over_lcm(*vectors) -> tuple[int, list[tuple[int, ...]]]:
    """(denominator, numerators): each vector of rationals as integers over
    the least common denominator of them all.  Each number is read once, as
    its integer ratio."""
    return ratios_over_lcm([[x.as_integer_ratio() for x in vector] for vector in vectors])


def ratios_over_lcm(ratios: list) -> tuple[int, list[tuple[int, ...]]]:
    """`over_lcm` of rows of integer ratios (n, d), d > 0: the lcm is taken
    over the distinct denominators."""
    denominator = lcm(*{d for row in ratios for _, d in row})
    return denominator, [tuple([n * (denominator // d) for n, d in row]) for row in ratios]


def format_rational(value: Fraction) -> str:
    """Canonical string form: "a" for integers, reduced "a/b" otherwise;
    UnwritableNumber past the digit limit."""
    return format_ratio(value.numerator, value.denominator)


def format_ratio(numerator: int, denominator: int) -> str:
    """The canonical form of numerator / denominator, denominator > 0,
    written from the integers by one gcd, with no Fraction but on the way to
    its UnwritableNumber."""
    g = gcd(numerator, denominator)
    numerator, denominator = numerator // g, denominator // g
    try:
        return str(numerator) if denominator == 1 else f"{numerator}/{denominator}"
    except ValueError as exc:
        value = Fraction(numerator, denominator)
        raise UnwritableNumber(f"a report cannot write {rational_text(value)} exactly") from exc


def approx_decimal(value: Fraction) -> str:
    """Decimal rendering to 6 places, rounded half away from zero, for
    display only (marked approximate); UnwritableNumber, from
    format_rational, when its integer part is past the digit limit."""
    sign = "-" if value < 0 else ""
    scaled = abs(value) * 10**6
    units, remainder = divmod(scaled.numerator, scaled.denominator)
    if 2 * remainder >= scaled.denominator:
        units += 1
    whole, frac = divmod(units, 10**6)
    return f"{sign}{format_rational(whole)}.{frac:06d}"


def items_of(values, what: str):
    """An iterator over `values`, a list of `what`; ArityMismatch for a
    value that is not iterable, for a string, which is refused rather than
    read one item per character, and for a mapping, which is refused rather
    than read as its keys."""
    if not isinstance(values, (str, bytes, Mapping)):
        try:
            return iter(values)
        except TypeError:
            pass
    raise ArityMismatch(f"expected a list of {what}, got {input_text(values)}")


def instance_of(value, cls: type, what: str):
    """`value`, when it is an instance of `cls`; ArityMismatch otherwise,
    "<what> must be a <cls>", quoting the value by `input_text`."""
    if not isinstance(value, cls):
        raise ArityMismatch(f"{what} must be a {cls.__name__}, got {input_text(value)}")
    return value


def rationals(values) -> tuple[Fraction, ...]:
    """Coerce an iterable of rational-likes to a tuple of Fractions; a
    string or a non-iterable is refused by `items_of`."""
    return tuple(map(as_rational, items_of(values, "numbers")))


def integer_ratios(values) -> list[tuple[int, int]]:
    """Each of an iterable of rational-likes as its `integer_ratio`,
    refused as `rationals` refuses it."""
    return list(map(integer_ratio, items_of(values, "numbers")))


def load_json(text: str):
    """A JSON document whose numbers with a fraction or exponent are refused
    as written: FloatRejected quotes the literal before a float rounds it.
    An integer past the int digit limit is UnparsableNumber; text that is
    not JSON, or nests deeper than the decoder can follow, ArityMismatch."""
    try:
        return json.loads(text, parse_float=_reject_float_literal, parse_int=_int_literal)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ArityMismatch(f"not a JSON document: {type(exc).__name__}: {exc}") from exc


def _int_literal(literal: str) -> int:
    try:
        return int(literal)
    except ValueError as exc:
        raise UnparsableNumber(f"a JSON integer of {len(literal)} digits is too long") from exc


def _reject_float_literal(literal: str):
    raise FloatRejected(f'refusing float {literal}: pass the exact string "{literal}" instead')
