"""Markets: validation, expectations, portfolios, products, serialization."""

import ast
import json
import random
import re
import sys
import threading
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bonuslab
import bonuslab.counterexamples as counterexamples
from bonuslab import (
    ArityMismatch,
    AtomCapExceeded,
    BonusLabError,
    BoundedLinearPlan,
    ConstantPlan,
    CoordinateViolation,
    Direction,
    FloatRejected,
    InvalidParameter,
    LoserTakeAllPlan,
    Market,
    MixedAction,
    MLinearPlan,
    NonPositiveProbability,
    NonSimplexWeights,
    NonUnitMass,
    Profile,
    TabulatedPlan,
    WinnerTakeAllPlan,
    best_response,
    build_market,
    check_nash,
    check_optimal,
    coordinate_decrease_counterexample,
    coordinate_increase_counterexample,
    expectation,
    expected_payoffs,
    format_rational,
    induce_game,
    load_market,
    load_plan,
    market_from_dict,
    market_to_dict,
    plan_from_dict,
    plan_to_dict,
    principal_value,
    profile_from_list,
    profile_to_list,
    simplex_grid,
    two_bond_market,
    universality_verdict,
)
import bonuslab.market as market_module
from bonuslab.market import IntegerView, _vertex
from conftest import (
    assert_rebuilds_from_its_atoms,
    fraction_expectation,
    fraction_integer_view,
    fraction_market_check,
    fraction_mixed_check,
    fraction_value,
    markets,
    outcome,
    random_market,
    tied_markets,
)


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


def test_malformed_pairs_are_refused():
    """An atom that is not a pair is refused by its place, before anything
    is read from it."""
    cases = [
        (lambda: build_market(["a"], [("1",)]), "atom 0 is not a (probability, outcomes) pair"),
        (lambda: build_market(["a"], [("1", ("1",), "2")]), "atom 0 is not"),
        (lambda: build_market(["a"], [5]), "atom 0 is not"),
    ]
    for call, text in cases:
        with pytest.raises(ArityMismatch, match=re.escape(text)):
            call()


def test_a_value_that_is_not_a_list_is_refused_as_a_string_is():
    """Where a list of numbers, of labels or of atoms belongs, a value that
    is not iterable ends in ArityMismatch, as a string does, and not in the
    bare TypeError of iterating it."""
    cases = [
        (lambda: build_market(("a",), [(1, 5)]), "expected a list of numbers, got 5"),
        (lambda: build_market(("a",), 5), "expected a list of (probability, outcomes) pairs, got 5"),
        (lambda: build_market(("a",), "1"), "expected a list of (probability, outcomes) pairs"),
        (lambda: build_market(5, [(1, (1,))]), "expected a list of action labels, got 5"),
        (lambda: MixedAction(5), "expected a list of numbers, got 5"),
        (lambda: TabulatedPlan(2, {5: ("1", "0")}, ("1/2", "1/2")),
         "expected a list of numbers, got 5"),
        (lambda: universality_verdict(WinnerTakeAllPlan(3), 5), "expected a list of numbers, got 5"),
        (lambda: market_from_dict({"actions": ["a"], "atoms": [{"p": "1", "outcomes": 5}]}),
         "expected a list of numbers, got 5"),
    ]
    for call, text in cases:
        with pytest.raises(ArityMismatch, match=re.escape(text)):
            call()


def test_a_strategy_that_is_not_a_mixed_action_is_refused():
    """Every arity check reads a strategy's weights, so a strategy that is
    not a `MixedAction` ends in ArityMismatch, not in a bare AttributeError."""
    market = two_action_market()
    game = induce_game(market, WinnerTakeAllPlan(2), 0)
    calls = [
        lambda: check_nash(game, Profile((1, 2))),
        lambda: principal_value(market, Profile((1, 2))),
        lambda: expectation(market, 5),
        lambda: best_response(game, 0, [5]),
        lambda: Profile((MixedAction.pure(0, 2), "1/2")).check_arity(market),
    ]
    for call in calls:
        with pytest.raises(ArityMismatch, match="a strategy must be a MixedAction, got"):
            call()


def test_a_profile_that_is_not_a_profile_is_refused():
    """A list or tuple where a `Profile` belongs ends in ArityMismatch, not
    in a bare AttributeError on `.players` or `.check_arity`."""
    market = two_action_market()
    game = induce_game(market, WinnerTakeAllPlan(2), 0)
    a = MixedAction.pure(0, 2)
    with pytest.raises(ArityMismatch, match="a profile must be a Profile, got a list of 2 items"):
        check_nash(game, [a, a])
    with pytest.raises(ArityMismatch, match=re.escape("a profile must be a Profile, got (0, 0)")):
        expected_payoffs(game, (0, 0))
    with pytest.raises(ArityMismatch, match=re.escape("a profile must be a Profile, got [1, 2]")):
        principal_value(market, [1, 2])


def test_opponents_that_are_not_a_list_are_refused():
    game = induce_game(two_action_market(), WinnerTakeAllPlan(2), 0)
    with pytest.raises(ArityMismatch, match="expected a list of strategies, got 5"):
        best_response(game, 0, 5)


def test_a_pure_profile_that_is_not_a_list_is_refused():
    game = induce_game(two_action_market(), WinnerTakeAllPlan(2), 0)
    with pytest.raises(ArityMismatch, match="expected a list of actions, got 5"):
        game.payoff(5)


def test_atoms_coerce_their_numbers():
    """A float probability is refused even where the floats sum to exactly 1;
    exact numbers are coerced, and a string of outcomes is refused rather
    than read one outcome per character."""
    with pytest.raises(FloatRejected):
        build_market(("a", "b"), [(0.5, (1, 2)), (0.5, (2, 1))])
    market = build_market(("a", "b"), [(Fraction(1), ("1", 2))])
    assert market.expectations() == (Fraction(1), Fraction(2))
    ((probability, outcomes),) = market.atoms
    assert (probability, outcomes) == (Fraction(1), (Fraction(1), Fraction(2)))
    assert {type(x) for x in (probability, *outcomes)} == {Fraction}
    with pytest.raises(ArityMismatch):
        build_market(("a", "b"), [(1, "12")])


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


def test_action_labels_are_utf8_text():
    """A lone surrogate is a str that no output can encode: the market
    refuses it, writing it by repr."""
    with pytest.raises(ArityMismatch, match=re.escape("'\\ud800'")):
        build_market(["\ud800", "b"], [("1", ("2", "1"))])


def test_documents_that_are_not_json_are_bonuslab_errors():
    for text in ("{", "[" * 100_000 + "]" * 100_000):
        with pytest.raises(ArityMismatch):
            load_market(text)
        with pytest.raises(ArityMismatch):
            load_plan(text)


def test_portfolio_value_is_pointwise():
    """A half-and-half portfolio averages outcomes inside each atom."""
    market = two_action_market()
    q = MixedAction(("1/2", "1/2"))
    values = [fraction_value(q, outcomes) for _, outcomes in market.atoms]
    assert values == [Fraction(1), Fraction(0)]
    assert expectation(market, q) == Fraction(1, 4)


def test_portfolio_expectation_is_weighted_average():
    market = two_bond_market()
    q = MixedAction(("1/2", "1/2"))
    assert expectation(market, q) == Fraction(10403, 10000)


def test_outcomes_coerce_to_exact_rationals():
    market = build_market(["A"], [("0.6", ("1.051",)), ("0.4", ("1",))])
    assert market.atoms[0] == (Fraction(3, 5), (Fraction(1051, 1000),))


def test_mixed_action_weights_validate():
    with pytest.raises(NonSimplexWeights):
        MixedAction(("1/2", "1/4"))
    with pytest.raises(NonSimplexWeights):
        MixedAction(("3/2", "-1/2"))


def test_pure_action_detection():
    assert MixedAction.pure(1, 3).pure_action == 1
    assert MixedAction(("1/2", "1/2")).pure_action is None


@st.composite
def weight_vectors(draw):
    """Weight vectors as a caller may pass them: empty or not, a weight
    below 0 or above 1, a sum of 1, above or below, mixed denominators; a
    weight may come as a Fraction, an int, a numeric string, a float or a
    bool."""
    n = draw(st.integers(0, 5))
    unit = draw(st.sampled_from((1, 2, 3, 4, 6, 12)))
    counts = draw(st.lists(st.integers(-1, unit + 1), min_size=n, max_size=n))
    if counts and draw(st.booleans()):  # a sum of 1, or one step off it
        counts[-1] = unit - sum(counts[:-1]) + draw(st.sampled_from((0, 0, 0, -1, 1)))
    weights = []
    for c in counts:
        w = Fraction(c, unit)
        form = draw(st.sampled_from(("fraction", "fraction", "int", "string", "float", "bool")))
        weights.append(
            {
                "fraction": w,
                "int": int(w) if w.denominator == 1 else w,
                "string": str(w),
                "float": float(w),
                "bool": bool(c),
            }[form]
        )
    return draw(st.sampled_from((tuple(weights), weights)))


@settings(max_examples=300, deadline=None)
@given(weight_vectors())
def test_mixed_action_checks_match_the_fraction_oracle(weights):
    """Checked on integer counts: the error and message of the Fraction
    checks; an accepted vector keeps counts over its unit that give back its
    weights, and the pure action the old scan of the weights found."""
    action = raised(lambda: MixedAction(weights))
    oracle = raised(lambda: fraction_mixed_check(weights))
    if not isinstance(action, MixedAction):
        assert action == oracle
        return
    assert action.weights == oracle
    assert action.unit == lcm(*(w.denominator for w in oracle))
    assert tuple(Fraction(c, action.unit) for c in action.counts) == oracle
    assert action.pure_action == next((i for i, w in enumerate(oracle) if w == 1), None)


def test_every_builder_gives_the_checked_portfolio():
    """The pure, grid, best-response and document builders give what the
    constructor gives for their weights: equal, hashed alike, written alike,
    with the same counts, unit and pure action."""
    market = two_action_market()
    game = induce_game(market, WinnerTakeAllPlan(2), 0)
    mixed = MixedAction(("1/3", "2/3"))
    built = [MixedAction.pure(a, 3) for a in range(3)]
    built += list(simplex_grid(3, 4))
    built += [
        best_response(game, 0, [opponent], resolution).strategy
        for opponent in (MixedAction.pure(1, 2), mixed)
        for resolution in (None, 1, 6)
    ]
    built += profile_from_list([["1/2", "1/2"], ["0", "1"]]).strategies
    for strategy in built:
        fresh = MixedAction(strategy.weights)
        assert strategy == fresh and hash(strategy) == hash(fresh)
        assert repr(strategy) == repr(fresh) == f"MixedAction(weights={fresh.weights!r})"
        assert (strategy.counts, strategy.unit, strategy.pure_action) == (
            fresh.counts, fresh.unit, fresh.pure_action
        )


def test_no_value_object_has_a_second_constructor():
    """Every value object is built through its checked constructor: no
    module of the package makes an instance with object.__new__."""
    package = Path(bonuslab.__file__).parent
    users = [p.name for p in sorted(package.glob("*.py")) if "object.__new__" in p.read_text()]
    assert users == []


def test_no_module_reads_the_derived_atoms():
    """A verdict reads a market's integer view, never the `Fraction` atoms
    derived from it, and a demo prints a market from its document: no module
    under src/bonuslab or demos/ reads an attribute named `atoms`."""
    package = Path(bonuslab.__file__).parent
    demos = Path(__file__).resolve().parent.parent / "demos"
    readers = [
        f"{p.name}:{node.lineno}"
        for p in sorted(package.glob("*.py")) + sorted(demos.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text(), str(p)))
        if isinstance(node, ast.Attribute) and node.attr == "atoms"
    ]
    assert readers == []


def test_the_package_holds_no_assert():
    """`python -O` drops assert statements, so no check of the package may be
    one: no module under src/bonuslab parses to an Assert node."""
    package = Path(bonuslab.__file__).parent
    asserts = [
        f"{p.name}:{node.lineno}"
        for p in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text(), str(p)))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_profile_arity_check():
    market = two_action_market()
    profile = Profile.pure((0, 1, 0), 2)
    profile.check_arity(market)
    with pytest.raises(ArityMismatch):
        Profile((MixedAction(("1/3", "1/3", "1/3")),) * 2).check_arity(market)


def test_profile_needs_two_players():
    with pytest.raises(ArityMismatch):
        Profile((MixedAction.pure(0, 2),))


def test_a_profile_checks_its_strategies_when_it_is_built():
    """A profile holds a tuple of `MixedAction`s: a list is kept as a tuple,
    so the profile hashes, and anything else is refused before a document
    or a verdict reads it."""
    a, b = MixedAction.pure(0, 2), MixedAction(("1/2", "1/2"))
    profile = Profile([a, b])
    assert profile.strategies == (a, b)
    assert hash(profile) == hash(Profile((a, b)))
    assert profile_to_list(profile) == [["1", "0"], ["1/2", "1/2"]]
    with pytest.raises(ArityMismatch, match="a strategy must be a MixedAction, got 1"):
        profile_to_list(Profile((1, 2)))
    with pytest.raises(ArityMismatch, match="a strategy must be a MixedAction, got \\['1', '0'\\]"):
        Profile((a, ["1", "0"]))
    with pytest.raises(ArityMismatch, match="expected a list of strategies, got 'ab'"):
        Profile("ab")


def test_market_json_round_trip():
    market = two_bond_market()
    again = load_market(json.dumps(market_to_dict(market), indent=2))
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


def _list_paths(doc, path=()):
    """The path, as keys and indices from the root, of every list in a JSON
    document, the document itself included."""
    if isinstance(doc, list):
        yield path
        items = enumerate(doc)
    elif isinstance(doc, dict):
        items = doc.items()
    else:
        return
    for key, value in items:
        yield from _list_paths(value, (*path, key))


def _replaced(doc, path, value):
    """A copy of the JSON document with the entry at `path` replaced."""
    if not path:
        return value
    copy = list(doc) if isinstance(doc, list) else dict(doc)
    copy[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return copy


def test_an_object_where_a_list_belongs_is_refused():
    """Each list of a market, profile or plan document, replaced by an
    empty object or by one whose keys are the list's items, is refused as
    a BonusLabError, never read as the object's keys.  A table with no
    points key still reads as an empty table."""
    halves = (Fraction(1, 2), Fraction(1, 2))
    table = TabulatedPlan(2, {(0, 1): (1, 0)}, halves)
    # one document of each reader: a market, a profile and a plan of every kind
    documents = [
        (market_from_dict, market_to_dict(two_action_market())),
        (profile_from_list, [["1/2", "1/2"], ["1", "0"]]),
        *((plan_from_dict, plan_to_dict(plan)) for plan in (
            ConstantPlan(2), WinnerTakeAllPlan(2), LoserTakeAllPlan(2),
            MLinearPlan(2, 1, 0, 1), BoundedLinearPlan(2, Fraction(1, 2)), table,
        )),
    ]
    paths = set()
    for read, doc in documents:
        read(doc)
        for path in _list_paths(doc):
            paths.add((read.__name__, *(k for k in path if type(k) is str)))
            value = doc
            for key in path:
                value = value[key]
            keyed = {x if type(x) is str else str(i): x for i, x in enumerate(value)}
            for replacement in ({}, keyed):
                with pytest.raises(BonusLabError):
                    read(_replaced(doc, path, replacement))
    assert paths == {
        ("market_from_dict", "actions"), ("market_from_dict", "atoms"),
        ("market_from_dict", "atoms", "outcomes"),
        ("profile_from_list",),
        ("plan_from_dict", "interval"), ("plan_from_dict", "fallback"),
        ("plan_from_dict", "points"), ("plan_from_dict", "points", "r"),
        ("plan_from_dict", "points", "shares"),
    }
    pointless = plan_to_dict(table)
    del pointless["points"]
    assert plan_from_dict(pointless) == TabulatedPlan(2, {}, halves)


def test_product_market_is_iid():
    """A coordinate counterexample's market is k i.i.d. draws from the base
    marginal, one action per draw: here 2 with mass 1/2, and 1 and 3 with
    1/4 each."""
    violation = CoordinateViolation(
        Direction.DECREASE, 0, (Fraction(2), Fraction(1), Fraction(3)), Fraction(0), Fraction(1)
    )
    market = coordinate_decrease_counterexample(LoserTakeAllPlan(3), violation).market
    assert market.actions == ("X1", "X2", "X3", "dev")
    assert len(market.atoms) == 27
    assert sum(p for p, _ in market.atoms) == 1
    assert market.expectations()[:3] == (Fraction(2),) * 3
    # independence: P(X1=2, X2=1) factors
    mass = sum(p for p, outcomes in market.atoms if outcomes[0] == 2 and outcomes[1] == 1)
    assert mass == Fraction(1, 2) * Fraction(1, 4)


def test_product_market_atom_cap(monkeypatch):
    """WTA(6) at six distinct coordinates, with an escape: 7^6 = 117 649
    atoms, over the cap, refused before any atom is built."""
    violation = CoordinateViolation(
        Direction.INCREASE, 0, tuple(map(Fraction, range(6))), Fraction(6), Fraction(1)
    )
    built = []
    monkeypatch.setattr(counterexamples, "product", lambda *args, **kw: built.append(args))
    with pytest.raises(AtomCapExceeded, match=re.escape("7^6 atoms exceed cap 100000")):
        coordinate_increase_counterexample(WinnerTakeAllPlan(6), violation)
    assert built == []


def test_product_market_cap_on_huge_copy_counts(monkeypatch):
    """20 000 draws from 20 000 values, 20000^20000 atoms: refused without
    building or printing the power."""
    base = tuple(map(Fraction, range(20_000)))
    violation = CoordinateViolation(Direction.DECREASE, 0, base, Fraction(-1), Fraction(1))
    ints = counterexamples._coordinate_ints(violation)
    built = []
    monkeypatch.setattr(counterexamples, "product", lambda *args, **kw: built.append(args))
    with pytest.raises(AtomCapExceeded, match=r"^20000\^20000 atoms exceed cap 100000$"):
        counterexamples._coordinate_market(violation, ints, [1] * 20_000)
    assert built == []


# ---------------------------------------------------------------------
# Integer expectations: differential tests against the Fraction sums
# (`conftest.fraction_expectation`), on drawn markets and on product
# markets, whose view is handed to `Market` directly
# ---------------------------------------------------------------------


@st.composite
def product_markets(draw):
    """Coordinate counterexample markets as `universality_verdict` builds
    them, k = 3-4: WTA(k) refuted by the increase builder, with an escape,
    and LTA(k) by the decrease builder, on k or k + 1 distinct points of
    small denominators."""
    k = draw(st.integers(3, 4))
    kind = draw(st.sampled_from((WinnerTakeAllPlan, LoserTakeAllPlan)))
    point = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    points = draw(st.lists(point, min_size=k, max_size=k + 1, unique=True))
    return universality_verdict(kind(k), points).counterexample.market


def assert_expectations_match_the_oracle(market, resolution):
    n = market.n
    expected = tuple(fraction_expectation(market, MixedAction.pure(a, n)) for a in range(n))
    assert market.expectations() == expected
    assert market.expectations() is market.expectations()  # computed once
    top = max(expected)
    assert market.best_actions == tuple(a for a in range(n) if expected[a] == top)
    for q in simplex_grid(n, resolution):
        assert expectation(market, q) == fraction_expectation(market, q)


@settings(max_examples=60, deadline=None)
@given(markets(max_actions=4) | tied_markets(), st.integers(1, 4))
def test_expectations_match_the_fraction_oracle(market, resolution):
    assert_expectations_match_the_oracle(market, resolution)


@settings(max_examples=40, deadline=None)
@given(product_markets(), st.integers(1, 3))
def test_product_market_expectations_match_the_fraction_oracle(market, resolution):
    assert_expectations_match_the_oracle(market, resolution)


# ---------------------------------------------------------------------
# What a market fixes, built once: the integer bounds summary and the
# vertices
# ---------------------------------------------------------------------


def fraction_bounds(market: Market) -> tuple[int, int, int]:
    """Reference: the least and largest outcome and the widest atom spread
    over the derived atoms' Fractions, as integers over the view's scale."""
    scale = market.integer_view.scale
    outcomes = [x for _, row in market.atoms for x in row]
    spread = max(max(row) - min(row) for _, row in market.atoms)
    integers = [x * scale for x in (min(outcomes), max(outcomes), spread)]
    assert all(x.denominator == 1 for x in integers)
    return tuple(int(x) for x in integers)


@settings(max_examples=80, deadline=None)
@given(st.one_of(markets(max_actions=4), tied_markets(), product_markets()))
def test_bounds_summary_matches_a_scan_of_the_fraction_outcomes(market):
    """`Market._bounds` is the least value, the largest value and the widest
    atom spread, each over the scale, computed once per market."""
    bounds = market._bounds
    assert (bounds.least, bounds.largest, bounds.spread) == fraction_bounds(market)
    assert market._bounds is bounds


@settings(max_examples=60, deadline=None)
@given(st.one_of(markets(max_actions=4), tied_markets()))
def test_vertices_are_built_once_per_action_count(market):
    """A pure strategy is the table's object `_vertex(a, n)`: one object
    per (action, action count), handed out on every market of n actions and
    by `MixedAction.pure`, equal to the `MixedAction` built from its
    weights; another action count gets other objects."""
    n = market.n
    flat = build_market(market.actions, [(1, (0,) * n)])  # every action is best
    for m in (market, flat):
        for combo, checked in check_optimal(m, WinnerTakeAllPlan(2)).checked:
            assert all(s is _vertex(a, n) for s, a in zip(checked.profile.strategies, combo))
    for a in range(n):
        vertex = _vertex(a, n)
        assert vertex == MixedAction(tuple(Fraction(int(i == a)) for i in range(n)))
        assert vertex.pure_action == a
        assert MixedAction.pure(a, n) is vertex
        assert all(s is vertex for s in Profile.pure((a, a), n).strategies)
        wider = _vertex(a, n + 1)
        assert wider is not vertex
        assert wider == MixedAction(tuple(Fraction(int(i == a)) for i in range(n + 1)))


def test_a_vertex_is_read_only_after_its_arguments_are_checked():
    """`True` and `1.0` hash as 1 does, so the table is read only once both
    arguments are checked as ints: a vertex already in the table does not
    let a bool or a float through."""
    assert MixedAction.pure(1, 2).pure_action == 1
    assert MixedAction.pure(0, 1).pure_action == 0
    assert (1, 2) in market_module._vertices and (0, 1) in market_module._vertices
    for action, arity, error in (
        (True, 2, ArityMismatch),
        (1.0, 2, FloatRejected),
        (0, True, ArityMismatch),
        (0, 1.0, FloatRejected),
    ):
        with pytest.raises(error):
            MixedAction.pure(action, arity)
        with pytest.raises(error):
            Profile.pure((action, action), arity)


def test_the_vertex_table_holds_at_most_its_bound(cold_vertices, monkeypatch):
    """A vertex that would take the table past VERTEX_CAP weights comes back
    correct, a new object on each read, and is not kept."""
    monkeypatch.setattr(market_module, "VERTEX_CAP", 5)
    kept = [MixedAction.pure(a, 2) for a in range(2)]  # 4 weights
    for _ in range(2):
        vertex = MixedAction.pure(2, 3)
        assert vertex == MixedAction((0, 0, 1)) and vertex.pure_action == 2
        assert vertex is not MixedAction.pure(2, 3)
        assert [MixedAction.pure(a, 2) for a in range(2)] == kept
        assert all(MixedAction.pure(a, 2) is v for a, v in enumerate(kept))
        table = market_module._vertices
        assert set(table) == {(0, 2), (1, 2)}
        assert market_module._vertex_weights == sum(n for _, n in table) == 4
    assert MixedAction.pure(0, 1) is MixedAction.pure(0, 1)  # the fifth weight fits
    assert market_module._vertex_weights == 5


def test_threads_that_fill_the_vertex_table_keep_its_count(cold_vertices, monkeypatch):
    """Eight threads, more than the cores, read vertices in shuffled orders
    with a short switch interval: every vertex is right, each key is kept
    once, and the table's weight count is the sum of its entries' action
    counts, within its bound."""
    monkeypatch.setattr(market_module, "VERTEX_CAP", 300)
    keys = [(a, n) for n in range(1, 30) for a in range(n)]
    errors = []

    def read(seed):
        order = random.Random(seed).sample(keys, len(keys))
        for a, n in order:
            if MixedAction.pure(a, n).pure_action != a:
                errors.append((a, n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    table = market_module._vertices
    assert market_module._vertex_weights == sum(n for _, n in table) <= 300


def raised(call):
    """The call's result, or the type and message of the BonusLabError it
    raises."""
    try:
        return call()
    except BonusLabError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(product_markets())
def test_product_markets_rebuild_from_their_atoms(market):
    """Built on its integer view: the market that `build_market` makes of
    the atoms derived from it."""
    assert_rebuilds_from_its_atoms(market)


def format_rational_document(market: Market) -> dict:
    """Reference: the document `format_rational` writes of the derived atoms."""
    return {
        "actions": list(market.actions),
        "atoms": [
            {"p": format_rational(p), "outcomes": [format_rational(x) for x in outcomes]}
            for p, outcomes in market.atoms
        ],
    }


@settings(max_examples=150, deadline=None)
@given(st.one_of(markets(max_actions=4), product_markets()))
def test_documents_match_the_format_rational_oracle(market):
    """`market_to_dict` writes, from the integer view, the text
    `format_rational` writes of each atom's numbers, and the document reads
    back as the market, with its view."""
    document = market_to_dict(market)
    assert document == format_rational_document(market)
    reloaded = market_from_dict(document)
    assert reloaded == market
    assert reloaded.integer_view == market.integer_view


def test_a_canonical_document_reaches_its_view_and_back_with_no_fraction(monkeypatch):
    """A document in canonical form is read into the integer view, and the
    view written back to the same document, with no `Fraction` built either
    way."""
    document = {
        "actions": ["A", "B", "C"],
        "atoms": [{"p": "1/2", "outcomes": ["1", "-3/2", "0"]},
                  {"p": "1/3", "outcomes": ["2", "1/4", "7/8"]},
                  {"p": "1/6", "outcomes": ["-1", "5", "3/2"]}],
    }
    expected = build_market(document["actions"],
                            [(atom["p"], atom["outcomes"]) for atom in document["atoms"]])

    def refused(cls, *args, **kwargs):
        raise AssertionError(f"a Fraction was built from {args}")

    monkeypatch.setattr(Fraction, "__new__", refused)
    market = market_from_dict(document)
    written = market_to_dict(market)
    monkeypatch.undo()
    assert market == expected
    assert written == document


def test_a_view_off_its_least_denominators_is_refused():
    """`Market` keeps the view it is given, so it checks that the scale and
    the mass are the least common denominators, and that each atom has a
    weight and a row: two views of one market would otherwise compare
    unequal."""
    good = IntegerView(2, 3, (1, 2), ((1, 0), (3, 2)))
    assert Market(("a", "b"), good) == build_market(
        ("a", "b"), [("1/3", ("1/2", "0")), ("2/3", ("3/2", "1"))]
    )
    for view in (
        IntegerView(4, 3, (1, 2), ((2, 0), (6, 4))),
        IntegerView(2, 6, (2, 4), ((1, 0), (3, 2))),
        IntegerView(0, 3, (1, 2), ((1, 0), (3, 2))),
    ):
        with pytest.raises(InvalidParameter, match="least common denominators"):
            Market(("a", "b"), view)
    with pytest.raises(ArityMismatch, match="2 atom weights for 1 outcome rows"):
        Market(("a", "b"), IntegerView(2, 3, (1, 2), ((1, 0),)))


FAULTS = ("", "", "", "zero", "negative", "arity")


@st.composite
def atom_lists(draw):
    """Labels and atoms whose probabilities sum to 1, to more or to less;
    an atom may have a zero or negative probability or a wrong outcome
    count, so a list may hold two faults, in either order."""
    n = draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(1, 9), min_size=1, max_size=5))
    total = max(1, sum(weights) + draw(st.sampled_from((0, 0, -1, 1))))
    atoms = []
    for w in weights:
        fault = draw(st.sampled_from(FAULTS))
        p = {"zero": 0, "negative": Fraction(-w, total)}.get(fault, Fraction(w, total))
        arity = n + draw(st.sampled_from((-1, 1))) if fault == "arity" else n
        atoms.append((p, tuple(draw(outcome) for _ in range(arity))))
    return tuple(f"A{i}" for i in range(n)), tuple(atoms)


def lcm_integer_view(atoms) -> IntegerView:
    """Reference, in `Fraction` arithmetic: one lcm over every denominator
    of a kind, then each number times it."""
    scale = lcm(*(x.denominator for _, outcomes in atoms for x in outcomes))
    mass = lcm(*(p.denominator for p, _ in atoms))
    return IntegerView(
        scale,
        mass,
        tuple(int(p * mass) for p, _ in atoms),
        tuple(tuple(int(x * scale) for x in outcomes) for _, outcomes in atoms),
    )


@settings(max_examples=150, deadline=None)
@given(st.one_of(markets(max_actions=4), product_markets()))
def test_integer_view_matches_the_lcm_construction(market):
    """The same scale, mass, weights and values, on random markets and on
    product markets."""
    assert market.integer_view == lcm_integer_view(market.atoms)


def assert_market_matches_the_oracle(actions, atoms):
    market = raised(lambda: build_market(actions, atoms))
    oracle = raised(lambda: fraction_market_check(actions, atoms))
    if oracle is None:
        assert market.integer_view == fraction_integer_view(atoms)
    else:
        assert market == oracle
    return market


@settings(max_examples=200, deadline=None)
@given(atom_lists())
def test_market_checks_match_the_fraction_oracle(case):
    """Checked on the integer view: the error, message and precedence of
    the Fraction checks, and the view they imply when there is none."""
    assert_market_matches_the_oracle(*case)


def test_market_faults_keep_their_order():
    """Per atom in order, a probability <= 0 and then a wrong outcome count;
    the mass last."""
    p, row = Fraction(1, 2), (Fraction(1),)
    half, short, zero, negative = ((p, row), (p, ()), (0, row), (-p, row))
    cases = [
        ((zero, half, half), NonPositiveProbability),
        ((short, zero, half), ArityMismatch),
        ((zero, short, half), NonPositiveProbability),
        ((half, negative, short), NonPositiveProbability),
        ((half, short, negative), ArityMismatch),
        ((half, short), ArityMismatch),
        ((half,), NonUnitMass),
        ((half, half, half), NonUnitMass),
    ]
    for atoms, error in cases:
        assert assert_market_matches_the_oracle(("A",), atoms)[0] is error
    assert assert_market_matches_the_oracle(("A",), (half, half)).n == 1
