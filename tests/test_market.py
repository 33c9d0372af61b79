"""Markets: validation, expectations, portfolios, products, serialization."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bonuslab import (
    ArityMismatch,
    Atom,
    AtomCapExceeded,
    FloatRejected,
    IncompleteMapping,
    Market,
    MixedAction,
    NonPositiveProbability,
    NonSimplexWeights,
    NonUnitMass,
    Profile,
    build_market,
    dump_market,
    expectation,
    load_market,
    market_from_dict,
    market_to_dict,
    product_market,
    profile_from_list,
    profile_to_list,
    simplex_grid,
    two_bond_market,
    support_stats,
)
from conftest import fraction_expectation, fraction_product_atoms, markets, random_market


def two_action_market():
    return build_market(
        ["A", "B"], [("1/4", ("2", "0")), ("3/4", ("-1", "1"))]
    )


def test_expectations_are_exact():
    market = two_bond_market()
    assert market.expectations() == (Fraction(21, 20), Fraction(5153, 5000))


def test_mass_must_be_one():
    with pytest.raises(NonUnitMass):
        build_market(["A"], [("1/2", ("1",))])


def test_probabilities_must_be_positive():
    with pytest.raises(NonPositiveProbability):
        build_market(["A"], [("0", ("1",)), ("1", ("2",))])


def test_outcome_rows_must_match_actions():
    with pytest.raises(ArityMismatch):
        build_market(["A", "B"], [("1", ("1",))])


def test_atoms_coerce_their_numbers():
    """A float probability is refused even where the floats sum to exactly 1;
    exact numbers are coerced, and a string of outcomes is refused rather
    than read one outcome per character."""
    with pytest.raises(FloatRejected):
        Market(("a", "b"), (Atom(0.5, (1, 2)), Atom(0.5, (2, 1))))
    atom = Atom(Fraction(1), ("1", 2))
    assert atom == Atom(Fraction(1), (Fraction(1), Fraction(2)))
    assert Market(("a", "b"), (atom,)).expectations() == (Fraction(1), Fraction(2))
    with pytest.raises(ArityMismatch):
        Atom(1, "12")


def test_action_labels_must_be_distinct():
    with pytest.raises(ArityMismatch):
        build_market(["A", "A"], [("1", ("1", "2"))])


def test_action_labels_are_strings():
    """A non-string label would end in a TypeError when a profile is
    labelled; a string of labels would build one action per character."""
    for labels in ([1, 2], ["A", None], [b"A", b"B"]):
        with pytest.raises(ArityMismatch):
            build_market(labels, [("1", ("1", "2"))])
    with pytest.raises(ArityMismatch):
        build_market("AB", [("1", ("1", "2"))])
    with pytest.raises(ArityMismatch):
        product_market([("0", "1/2"), ("1", "1/2")], 2, [(3, lambda combo: combo[0])])


def test_copy_counts_are_ints():
    marginal = [("0", "1/2"), ("1", "1/2")]
    # 2.5, True, "2" and Fraction(2): tests/test_public_ints.py
    for copies, error in ((2.0, FloatRejected), (None, ArityMismatch)):
        with pytest.raises(error):
            product_market(marginal, copies)
    assert product_market(marginal, 2).n == 2


def test_portfolio_value_is_pointwise():
    """A half-and-half portfolio averages outcomes inside each atom."""
    market = two_action_market()
    q = MixedAction(("1/2", "1/2"))
    values = [q.value_at(atom) for atom in market.atoms]
    assert values == [Fraction(1), Fraction(0)]
    assert expectation(market, q) == Fraction(1, 4)


def test_portfolio_expectation_is_weighted_average():
    market = two_bond_market()
    q = MixedAction(("1/2", "1/2"))
    assert expectation(market, q) == Fraction(10403, 10000)


def test_outcomes_coerce_to_exact_rationals():
    market = build_market(["A"], [("0.6", ("1.051",)), ("0.4", ("1",))])
    assert market.atoms[0].probability == Fraction(3, 5)
    assert market.atoms[0].outcomes == (Fraction(1051, 1000),)


def test_mixed_action_weights_validate():
    with pytest.raises(NonSimplexWeights):
        MixedAction(("1/2", "1/4"))
    with pytest.raises(NonSimplexWeights):
        MixedAction(("3/2", "-1/2"))


def test_pure_action_detection():
    assert MixedAction.pure(1, 3).pure_action == 1
    assert MixedAction(("1/2", "1/2")).pure_action is None


def test_profile_arity_check():
    market = two_action_market()
    profile = Profile.pure((0, 1, 0), 2)
    profile.check_arity(market)
    with pytest.raises(ArityMismatch):
        Profile((MixedAction(("1/3", "1/3", "1/3")),) * 2).check_arity(market)


def test_profile_needs_two_players():
    with pytest.raises(ArityMismatch):
        Profile((MixedAction.pure(0, 2),))


def test_support_stats():
    stats = support_stats(two_action_market())
    assert (stats.lo, stats.hi, stats.max_abs) == (Fraction(-1), Fraction(2), Fraction(2))
    assert set(stats.values) == {Fraction(-1), Fraction(0), Fraction(1), Fraction(2)}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_support_stats_match_the_fraction_outcomes(seed, outlier):
    """Read from the integer view once per market: the same values, sorted,
    as the atoms' Fraction outcomes give."""
    market = random_market(random.Random(seed), outlier=outlier)
    values = sorted({x for atom in market.atoms for x in atom.outcomes})
    stats = support_stats(market)
    assert stats.values == tuple(values)
    assert (stats.lo, stats.hi) == (values[0], values[-1])
    assert stats.max_abs == max(abs(x) for x in values)
    assert support_stats(market) is stats


def test_market_json_round_trip():
    market = two_bond_market()
    again = load_market(dump_market(market))
    assert again == market
    data = market_to_dict(market)
    assert data["atoms"][0] == {"p": "3/5", "outcomes": ["21/20", "1051/1000"]}
    assert market_from_dict(json.loads(json.dumps(data))) == market


def test_profile_json_round_trip():
    profile = Profile((MixedAction(("1/2", "1/2")), MixedAction.pure(0, 2)))
    rows = profile_to_list(profile)
    assert rows == [["1/2", "1/2"], ["1", "0"]]
    assert profile_from_list(rows) == profile
    with pytest.raises(NonSimplexWeights):
        profile_from_list([["1/2", "1/2"], ["1/2", "1/4"]])


def test_product_market_is_iid():
    marginal = [("2", "1/2"), ("1", "1/4"), ("3", "1/4")]
    market = product_market(marginal, 3)
    assert market.actions == ("X1", "X2", "X3")
    assert len(market.atoms) == 27
    assert sum(atom.probability for atom in market.atoms) == 1
    assert market.expectations() == (Fraction(2),) * 3
    # independence: P(X1=2, X2=1) factors
    mass = sum(
        atom.probability
        for atom in market.atoms
        if atom.outcomes[0] == 2 and atom.outcomes[1] == 1
    )
    assert mass == Fraction(1, 2) * Fraction(1, 4)


def test_product_market_merges_duplicate_marginal_values():
    market = product_market([("1", "1/2"), ("1", "1/2")], 2)
    assert len(market.atoms) == 1
    assert market.atoms[0].probability == 1


def test_product_market_extra_actions():
    marginal = [("0", "1/2"), ("1", "1/2")]
    market = product_market(
        marginal, 2, extra_actions=[("sum", lambda combo: sum(combo))]
    )
    assert market.actions == ("X1", "X2", "sum")
    for atom in market.atoms:
        assert atom.outcomes[2] == atom.outcomes[0] + atom.outcomes[1]


def test_product_market_incomplete_mapping():
    marginal = [("0", "1/2"), ("1", "1/2")]
    with pytest.raises(IncompleteMapping):
        product_market(
            marginal, 2, extra_actions=[("partial", {(Fraction(0), Fraction(0)): Fraction(9)})]
        )


def test_product_market_atom_cap():
    """317^2 = 100 489 atoms, over the cap: refused before any atom is built."""
    marginal = [(Fraction(v), Fraction(1, 317)) for v in range(317)]
    seen = []
    with pytest.raises(AtomCapExceeded):
        product_market(marginal, 2, [("dev", lambda combo: seen.append(combo) or combo[0])])
    assert seen == []


def test_product_market_cap_on_huge_copy_counts():
    """2^20 000 atoms: refused without building or printing the power."""
    seen = []
    with pytest.raises(AtomCapExceeded, match=r"2\^20000 atoms"):
        product_market(
            [("1", "1/2"), ("2", "1/2")],
            20_000,
            [("dev", lambda combo: seen.append(combo) or combo[0])],
        )
    assert seen == []


# ---------------------------------------------------------------------
# Integer expectations and product weights: differential tests against the
# Fraction sums and products (`conftest.fraction_expectation`,
# `conftest.fraction_product_atoms`)
# ---------------------------------------------------------------------


@st.composite
def marginals(draw):
    """(value, probability) pairs with repeated values, so mass merges."""
    values = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    weights = draw(st.lists(st.integers(1, 7), min_size=len(values), max_size=len(values)))
    scale = draw(st.sampled_from((1, 2, 3, 10)))
    total = sum(weights)
    return [(Fraction(v, scale), Fraction(w, total)) for v, w in zip(values, weights)]


@st.composite
def product_markets(draw):
    marginal = draw(marginals())
    copies = draw(st.integers(1, 3))
    lift = draw(st.fractions(min_value=-2, max_value=2, max_denominator=5))
    extras = [
        ("top", lambda combo: max(combo) + lift),
        ("spread", lambda combo: combo[-1] - combo[0]),
    ][: draw(st.integers(0, 2))]
    return product_market(marginal, copies, extras)


def assert_expectations_match_the_oracle(market, resolution):
    n = market.n
    expected = tuple(fraction_expectation(market, MixedAction.pure(a, n)) for a in range(n))
    assert market.expectations() == expected
    assert market.expectations() is market.expectations()  # computed once
    assert [market.expectation_of(a) for a in range(n)] == list(expected)
    for a in (-1, n):  # -1 would read the last action, n past the end
        with pytest.raises(ArityMismatch):
            market.expectation_of(a)
    for q in simplex_grid(n, resolution):
        assert expectation(market, q) == fraction_expectation(market, q)


@settings(max_examples=60, deadline=None)
@given(markets(max_actions=4), st.integers(1, 4))
def test_expectations_match_the_fraction_oracle(market, resolution):
    assert_expectations_match_the_oracle(market, resolution)


@settings(max_examples=40, deadline=None)
@given(product_markets(), st.integers(1, 3))
def test_product_market_expectations_match_the_fraction_oracle(market, resolution):
    assert_expectations_match_the_oracle(market, resolution)


@settings(max_examples=60, deadline=None)
@given(marginals(), st.integers(1, 3))
def test_product_market_atoms_match_the_fraction_products(marginal, copies):
    """The same atoms in the same order: integer weights over mass^copies
    give the probabilities the Fraction products give."""
    market = product_market(marginal, copies, [("sum", lambda combo: sum(combo))])
    oracle = fraction_product_atoms(marginal, copies)
    assert [(a.probability, a.outcomes[:copies]) for a in market.atoms] == oracle
    assert all(a.outcomes[copies] == sum(a.outcomes[:copies]) for a in market.atoms)
