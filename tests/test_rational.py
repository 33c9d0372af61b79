import sys
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bonuslab import (
    ArityMismatch,
    UnparsableNumber,
    UnwritableNumber,
    as_rational,
    format_rational,
)
from bonuslab.rational import (
    QUOTE_LIMIT,
    approx_decimal,
    input_text,
    load_json,
    over_lcm,
    rational_text,
    rationals,
)


def test_parses_integers_and_fractions():
    assert as_rational(3) == Fraction(3)
    assert as_rational("3/5") == Fraction(3, 5)
    assert as_rational("-7/4") == Fraction(-7, 4)
    assert as_rational(Fraction(1, 3)) == Fraction(1, 3)


def test_decimal_strings_are_exact():
    # "1.051" must become 1051/1000, not the nearest binary float.
    assert as_rational("1.051") == Fraction(1051, 1000)
    assert as_rational("1e-6") == Fraction(1, 10**6)
    assert as_rational("-0.25") == Fraction(-1, 4)
    limit = sys.get_int_max_str_digits()  # the bound on an exponent's magnitude
    assert as_rational(f"1e{limit}") == 10**limit
    assert as_rational(f"1e-{limit}") == Fraction(1, 10**limit)


def test_rejects_floats():
    with pytest.raises(TypeError):
        as_rational(0.1)
    with pytest.raises(TypeError):
        as_rational(True)


def test_rejects_garbage_strings():
    # an exponent past the int digit limit is refused before 10**exponent is built
    limit = sys.get_int_max_str_digits()
    for bad in ("", "one", "1/0", "2:3", "1.2.3", f"1e{limit + 1}", f"2.5E-{limit + 1}",
                "1e100000000"):
        with pytest.raises(UnparsableNumber):
            as_rational(bad)


def test_a_zero_digit_limit_bounds_no_exponent(monkeypatch):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    assert as_rational("1e5000") == 10**5000


def test_json_integers_past_the_digit_limit_are_unparsable():
    digits = sys.get_int_max_str_digits() + 1
    assert load_json('{"players": 2}') == {"players": 2}
    with pytest.raises(UnparsableNumber, match=f"{digits} digits"):
        load_json('{"players": %s}' % ("1" * digits))


def test_text_that_is_not_json_is_arity_mismatch():
    """Text the decoder refuses, and a document nested deeper than it can
    follow, end in a BonusLabError that keeps the decoder's exception name."""
    for text, name in (("{", "JSONDecodeError"), ("[" * 100_000 + "]" * 100_000, "RecursionError")):
        with pytest.raises(ArityMismatch, match=name):
            load_json(text)


def test_format_round_trips():
    for text in ("0", "7", "-3", "3/5", "-1051/1000"):
        assert format_rational(as_rational(text)) == text


def test_approx_decimal():
    assert approx_decimal(Fraction(1, 3)) == "0.333333"
    assert approx_decimal(Fraction(-1, 3)) == "-0.333333"
    assert approx_decimal(Fraction(21, 20)) == "1.050000"
    # huge values must not lose digits to float formatting
    assert approx_decimal(Fraction(10**30) + Fraction(1, 2)) == f"{10**30}.500000"


def test_documents_write_the_longest_numbers_and_refuse_one_digit_more():
    """A document writes a number exactly or not at all: one digit past the
    int-to-str limit is UnwritableNumber, whose message names the limit and
    not the number."""
    limit = sys.get_int_max_str_digits()
    nines = 10**limit - 1  # the longest int that int-to-str writes
    assert format_rational(Fraction(-nines)) == f"-{nines}"
    assert format_rational(Fraction(1, nines)) == f"1/{nines}"
    assert format_rational(Fraction(nines, nines - 1)) == f"{nines}/{nines - 1}"
    assert approx_decimal(Fraction(nines)) == f"{nines}.000000"
    assert approx_decimal(Fraction(-nines) - Fraction(1, 4)) == f"-{nines}.250000"
    assert approx_decimal(Fraction(1, 10**limit)) == "0.000000"  # only its integer part counts
    for value in (Fraction(10**limit), Fraction(-(10**limit)), Fraction(1, 10**limit),
                  Fraction(-nines, 10**limit)):
        with pytest.raises(UnwritableNumber, match=f" of over {limit} digits") as exc:
            format_rational(value)
        assert len(str(exc.value)) < 100
    # the last rounds up to 10**limit
    for value in (Fraction(10**limit), Fraction(-(10**limit)), nines + Fraction(9_999_999, 10**7)):
        with pytest.raises(UnwritableNumber, match=f" of over {limit} digits") as exc:
            approx_decimal(value)
        assert len(str(exc.value)) < 100


def test_documents_write_every_number_under_no_digit_limit():
    limit = sys.get_int_max_str_digits()
    big = 10**limit
    sys.set_int_max_str_digits(0)
    try:
        assert format_rational(Fraction(-big)) == f"-1{'0' * limit}"
        assert format_rational(Fraction(1, big)) == f"1/1{'0' * limit}"
        assert approx_decimal(Fraction(big)) == f"1{'0' * limit}.000000"
    finally:
        sys.set_int_max_str_digits(limit)


def test_rationals_coerces_sequences():
    assert rationals(["1/2", 1, Fraction(3)]) == (
        Fraction(1, 2),
        Fraction(1),
        Fraction(3),
    )


def test_rationals_refuses_strings():
    # a string would otherwise be read one character per number
    for text in ("12", b"12", ""):
        with pytest.raises(ArityMismatch):
            rationals(text)


def test_rational_text_writes_an_int_within_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    nines = 10**limit - 1  # the longest int that int-to-str writes
    assert [rational_text(v) for v in (0, -12, nines)] == ["0", "-12", f"an int of {limit} digits"]
    assert rational_text(nines + 1) == f"an int of over {limit} digits"
    assert rational_text(-nines - 1) == f"a negative int of over {limit} digits"


def test_rational_text_writes_every_int_under_no_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert rational_text(-(10**limit)) == f"a negative int of {limit + 1} digits"
    finally:
        sys.set_int_max_str_digits(limit)


def test_rational_text_writes_a_number_or_a_tuple_within_the_digit_limit():
    """A number as str() writes it, a Fraction as "a/b"; a tuple with each
    item written so, as documents spell numbers, not with Fraction reprs."""
    limit = sys.get_int_max_str_digits()
    longest = Fraction(-(10**limit - 1), 7)  # the longest numerator int-to-str writes
    for value in (Fraction(3, 5), Fraction(-2), 0, -12, longest):
        assert rational_text(value) == str(value)
    for value, text in (
        ((), "()"),
        ((Fraction(1, 2),), "(1/2,)"),
        ((Fraction(1, 2), 3, Fraction(-1, 3)), "(1/2, 3, -1/3)"),
        ((Fraction(1, 2), Fraction(0)), "(1/2, 0)"),
        (("1", "2"), "(1, 2)"),
        ((longest,), f"({longest},)"),
    ):
        assert rational_text(value) == text


def test_rational_text_writes_a_number_past_the_digit_limit_by_its_sign():
    limit = sys.get_int_max_str_digits()
    over = f"a rational of over {limit} digits"
    negative = f"a negative rational of over {limit} digits"
    big, tiny = Fraction(10**limit), Fraction(1, 10**limit)
    assert rational_text(big) == over
    assert rational_text(tiny) == over
    assert rational_text(-big) == negative
    assert rational_text(-tiny) == negative
    assert rational_text(10**limit) == f"an int of over {limit} digits"
    assert rational_text((big,)) == f"({over},)"
    assert rational_text((Fraction(1, 2), -tiny, 10**limit)) == (
        f"(1/2, {negative}, an int of over {limit} digits)"
    )


def test_rational_text_writes_every_number_under_no_digit_limit():
    limit = sys.get_int_max_str_digits()
    big = Fraction(-(10**limit), 3)
    sys.set_int_max_str_digits(0)
    try:
        assert rational_text(big) == f"-1{'0' * limit}/3"
        assert rational_text((big,)) == f"(-1{'0' * limit}/3,)"
    finally:
        sys.set_int_max_str_digits(limit)


def test_rational_text_writes_a_long_int_by_its_size():
    """Up to 20 digits an int is written in full, past that by its digit
    count, and past the digit limit by the limit; a rational stays exact at
    any length within the limit, and a tuple is written item by item."""
    limit = sys.get_int_max_str_digits()
    assert [rational_text(v) for v in (20_001, 10**20 - 1)] == ["20001", "9" * 20]
    assert rational_text(10**20) == "an int of 21 digits"
    assert rational_text(-(10**20)) == "a negative int of 21 digits"
    assert rational_text(10**4000) == "an int of 4001 digits"
    assert rational_text(10**limit) == f"an int of over {limit} digits"
    assert rational_text(Fraction(10**30, 7)) == f"{10**30}/7"
    assert rational_text((-(10**20), Fraction(10**30, 7), 10**limit)) == (
        f"(a negative int of 21 digits, {10**30}/7, an int of over {limit} digits)"
    )


def test_rational_text_writes_a_long_tuple_by_its_length():
    """Up to 20 items a tuple is written item by item, past that by its
    length, as input_text writes a long list; a nested tuple by the same
    rule."""
    assert rational_text((0,) * 20) == f"({', '.join(['0'] * 20)})"
    assert rational_text((0,) * 21) == "a tuple of 21 items"
    assert rational_text((1,) * 100_000) == "a tuple of 100000 items"
    assert rational_text((Fraction(1, 2),)) == "(1/2,)"
    assert rational_text((1, (Fraction(2, 3), 0))) == "(1, (2/3, 0))"
    assert rational_text(((0,) * 21, 1)) == "(a tuple of 21 items, 1)"


def test_input_text_keeps_a_short_input_and_writes_a_long_one_by_its_size():
    limit = sys.get_int_max_str_digits()
    edge = "x" * (QUOTE_LIMIT - 2)  # a repr of QUOTE_LIMIT characters
    for short in ("median", edge, [1, "2"], ("X1", "X1"), {"0": ["1"]}, 0.5, True, None):
        assert input_text(short) == repr(short)
    assert input_text(edge + "x") == f"a string of {QUOTE_LIMIT - 1} characters"
    assert input_text("9" * 100_000) == "a string of 100000 characters"
    assert input_text([9] * 100_000) == "a list of 100000 items"
    assert input_text(("a" * 100_000,) * 2) == "a tuple of 2 items"
    assert input_text({str(i): i for i in range(100)}) == "a dict of 100 items"
    # measured as a JSON error object escapes it: 40 astral characters
    assert input_text("\U0001f600" * 40) == "a string of 40 characters"
    # an int past the int-to-str digit limit has no repr
    assert input_text([10**limit, 1]) == "a list of 2 items"


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.fractions(max_denominator=12), max_size=6), max_size=4))
def test_over_lcm_matches_the_fraction_oracle(vectors):
    """The denominator is the least one that writes every number as an
    integer, and each numerator over it gives back its number."""
    denominator, numerators = over_lcm(*vectors)
    numbers = [x for vector in vectors for x in vector]
    assert denominator == lcm(*(x.denominator for x in numbers))
    for p in (2, 3, 5, 7, 11):  # the primes up to 12: no proper divisor writes them all
        if denominator % p == 0:
            assert any((x * (denominator // p)).denominator != 1 for x in numbers)
    assert [[Fraction(n, denominator) for n in row] for row in numerators] == vectors
    assert all(type(n) is int for row in numerators for n in row)
