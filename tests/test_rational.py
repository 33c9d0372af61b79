import sys
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bonuslab import (
    ArityMismatch,
    MixedAction,
    Profile,
    UnparsableNumber,
    UnwritableNumber,
    as_rational,
    build_market,
    format_rational,
)
from bonuslab.errors import FloatRejected
from bonuslab.rational import (
    QUOTE_LIMIT,
    approx_decimal,
    format_ratio,
    input_text,
    integer_ratio,
    integer_ratios,
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


def test_rationals_refuses_what_is_not_iterable():
    """A number, a None or an object where a list belongs is refused as a
    string is, not left to the TypeError of iterating it; an iterator is
    read, and a TypeError raised while it is read is not taken for one."""
    for value in (5, Fraction(1, 2), None, object()):
        for read in (rationals, integer_ratios):
            with pytest.raises(ArityMismatch, match="expected a list of numbers, got"):
                read(value)
    assert integer_ratios(iter(["1/2", 3])) == [(1, 2), (3, 1)]

    def failing():
        yield 1
        raise TypeError("inside")

    with pytest.raises(TypeError, match="inside"):
        rationals(failing())


def test_a_mapping_is_refused_where_a_list_belongs():
    """A mapping is refused as a string is, not read as its keys: outcomes
    keyed by number would load as those numbers, and a profile keyed by
    strategy as those strategies."""
    outcomes = {"3": "x", "5": "y"}
    for read in (rationals, integer_ratios):
        with pytest.raises(ArityMismatch, match="expected a list of numbers, got"):
            read(outcomes)
    with pytest.raises(ArityMismatch, match="expected a list of numbers, got"):
        build_market(["A", "B"], [("1", outcomes)])
    strategies = {MixedAction.pure(0, 2): 1, MixedAction.pure(1, 2): 2}
    with pytest.raises(ArityMismatch, match="expected a list of strategies, got"):
        Profile(strategies)
    assert Profile(tuple(strategies)).players == 2
    assert rationals(list(outcomes)) == (3, 5)


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
    longest = Fraction(-(10**20 - 1), 10**20 - 3)  # the longest written in full
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
        assert rational_text(big) == f"a negative rational of {limit + 2} digits"
        assert rational_text((big,)) == f"(a negative rational of {limit + 2} digits,)"
    finally:
        sys.set_int_max_str_digits(limit)


def test_rational_text_writes_a_long_int_by_its_size():
    """Up to 20 digits an int is written in full, past that by its digit
    count, and past the digit limit by the limit; a tuple is written item by
    item."""
    limit = sys.get_int_max_str_digits()
    assert [rational_text(v) for v in (20_001, 10**20 - 1)] == ["20001", "9" * 20]
    assert rational_text(10**20) == "an int of 21 digits"
    assert rational_text(-(10**20)) == "a negative int of 21 digits"
    assert rational_text(10**4000) == "an int of 4001 digits"
    assert rational_text(10**limit) == f"an int of over {limit} digits"
    assert rational_text((-(10**20), Fraction(10**30, 7), 10**limit)) == (
        f"(a negative int of 21 digits, a rational of 32 digits, an int of over {limit} digits)"
    )


def test_rational_text_writes_a_long_rational_by_its_size():
    """A rational whose numerator or denominator has over 20 digits is
    written by the digits str() writes, as a long int is: the refusal of an
    earnings weight of 1e4000 stays short.  Up to 20 digits each it is
    written in full."""
    assert rational_text(Fraction(10**4000)) == "a rational of 4001 digits"
    assert rational_text(Fraction(-(10**4000))) == "a negative rational of 4001 digits"
    assert rational_text(Fraction(10**30, 7)) == "a rational of 32 digits"
    assert rational_text(Fraction(-1, 10**20)) == "a negative rational of 22 digits"
    assert rational_text(Fraction(10**20 - 1, 10**20 - 3)) == f"{10**20 - 1}/{10**20 - 3}"
    assert rational_text(Fraction(-(10**20 - 1), 7)) == f"-{10**20 - 1}/7"
    assert rational_text(Fraction(10**20, 7)) == "a rational of 22 digits"
    assert rational_text((Fraction(1, 2), Fraction(10**4000))) == (
        "(1/2, a rational of 4001 digits)"
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


def parent_as_rational(value) -> Fraction:
    """Reference: as_rational read every string by Fraction, after its
    exponent check, with these errors and messages."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise FloatRejected("bool is not a rational value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            if "e" in text or "E" in text:
                limit = sys.get_int_max_str_digits()
                if limit and abs(int(text.lower().partition("e")[2])) > limit:
                    raise UnparsableNumber(f"the exponent of {input_text(value)} exceeds {limit}")
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise UnparsableNumber(f"cannot parse {input_text(value)} as a rational") from exc
    if isinstance(value, float):
        raise FloatRejected(
            f"refusing float {input_text(value)}: pass the exact string (e.g. '1.051') instead"
        )
    raise FloatRejected(f"cannot interpret {type(value).__name__} as a rational")


def outcome_of(read, value):
    """('ok', result) or ('error', type, message) of read(value)."""
    try:
        return "ok", read(value)
    except Exception as exc:  # the type and the message are compared
        return "error", type(exc), str(exc)


def assert_reads_as_the_parent(value):
    """integer_ratio gives Fraction's integer ratio of what the reference
    accepts, and as_rational the same number; both refuse what it refuses,
    with its error type and message."""
    expected = outcome_of(parent_as_rational, value)
    if expected[0] == "ok":
        ratio = integer_ratio(value)
        assert ratio == expected[1].as_integer_ratio()
        assert all(type(x) is int for x in ratio)
        if isinstance(value, str):
            assert ratio == Fraction(value).as_integer_ratio()
        assert as_rational(value) == expected[1]
    else:
        assert outcome_of(integer_ratio, value) == expected
        assert outcome_of(as_rational, value) == expected


def test_integer_ratio_reads_the_edge_cases_as_the_fraction_parser():
    limit = sys.get_int_max_str_digits()
    cases = [
        "-0", "007", "0/5", "2/4", "-6/4", "5/0", "0/0", "-0/0", "1/-2", "-1/2", "+3", " 3/5 ",
        "\t-12\n", "1 / 2", "1/2/3", "/2", "2/", "--1", "1_000", "1_000/3", "٣", "٣/٤", "²",
        "1.051", "1e-6", "1E6", "-", "", " ", "1/ ", "inf", "nan",
        "1" * limit, "-" + "9" * limit, "1" * (limit + 1), f"{'9' * limit}/7",
        f"7/{'1' * limit}", f"7/{'1' * (limit + 1)}", f"1e{limit}", f"1e{limit + 1}",
        0, -12, 10**30, Fraction(-6, 4), True, 0.5, None, b"1", [1],
    ]
    for value in cases:
        assert_reads_as_the_parent(value)


canonical_texts = st.builds(
    lambda sign, n, slash, d, pad: f"{pad}{sign}{n}{slash}{d}{pad}",
    st.sampled_from(("", "-", "+")),
    st.integers(0, 10**30) | st.just("00"),
    st.sampled_from(("", "/", " / ")),
    st.sampled_from(("", "0", "1", "12", "007")) | st.integers(0, 10**25).map(str),
    st.sampled_from(("", " ", "\t")),
)


@settings(max_examples=400, deadline=None)
@given(canonical_texts | st.text(alphabet="0123456789-+/._eE ٣²", max_size=10) | st.text())
def test_integer_ratio_matches_the_fraction_parser(text):
    assert_reads_as_the_parent(text)


@settings(max_examples=200, deadline=None)
@given(st.integers(-(10**30), 10**30), st.integers(1, 10**30))
def test_format_ratio_writes_what_format_rational_writes(numerator, denominator):
    expected = str(Fraction(numerator, denominator))
    assert format_ratio(numerator, denominator) == expected
    assert format_rational(Fraction(numerator, denominator)) == expected


def test_format_ratio_refuses_what_format_rational_refuses():
    limit = sys.get_int_max_str_digits()
    cases = ((10**limit, 1, "a"), (-(10**limit) * 3, 3, "a negative"), (1, 10**limit, "a"))
    for numerator, denominator, sign in cases:
        message = f"a report cannot write {sign} rational of over {limit} digits exactly"
        with pytest.raises(UnwritableNumber) as exc:
            format_ratio(numerator, denominator)
        assert str(exc.value) == message
        with pytest.raises(UnwritableNumber) as exc:
            format_rational(Fraction(numerator, denominator))
        assert str(exc.value) == message
    nines = 10**limit - 1
    assert format_ratio(2 * nines, 2) == str(nines)
