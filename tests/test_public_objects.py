"""Every object parameter of the exported surface refuses a wrong object.

Each row names an exported callable, one of its parameters annotated with
one of the package's object types (`Market`, `BonusPlan`, `Game`,
`Profile`, `MixedAction`, `Counterexample`, alone, in a container or
optional), a call that passes a value to that parameter and a valid value
for it.  Handed `object()` there, the call raises a `BonusLabError` within
a second, never a bare AttributeError or TypeError.

A discovery pass walks the same surface as `test_public_ints.py`: the
functions `bonuslab/__init__.py` exports, the exported classes'
constructors, public methods and classmethods.  Every parameter annotated
with one of the types, and every parameter with no annotation, whose type
the pass cannot see, must have a row or a named exemption.
"""

import inspect
import re
import time
from dataclasses import replace
from fractions import Fraction
from typing import Any, Callable, NamedTuple

import pytest

import bonuslab
from bonuslab import (
    BonusLabError,
    CoordinateViolation,
    Direction,
    Game,
    LoserTakeAllPlan,
    MixedAction,
    Profile,
    WinnerTakeAllPlan,
    best_response,
    build_bounded_linear,
    build_m_linear,
    check_nash,
    check_optimal,
    coordinate_decrease_counterexample,
    coordinate_increase_counterexample,
    expectation,
    expected_payoffs,
    find_bounding_m,
    four_point_shares_equal,
    induce_game,
    market_to_dict,
    pair_decrease_counterexample,
    pair_increase_counterexample,
    plan_to_dict,
    principal_value,
    probe_own_coordinate,
    probe_pairs,
    profile_to_list,
    strict_dominance,
    two_bond_market,
    universality_verdict,
    validate_counterexample,
    validate_simplex,
    zero_sum_shares,
)
from test_public_ints import surface_parameters

F = Fraction


class Row(NamedTuple):
    callable: str  # a function's or method's qualified name; a class's name for its constructor
    parameter: str
    call: Callable[[Any], Any]  # passes its argument as `parameter`
    valid: Any


MARKET = two_bond_market()
WTA2 = WinnerTakeAllPlan(2)
LTA2 = LoserTakeAllPlan(2)
LTA3 = LoserTakeAllPlan(3)
GAME = induce_game(MARKET, WTA2, 0)
M_LINEAR2 = build_m_linear(MARKET, 2)  # pure-sufficient on MARKET: its form is not None
PURE = MixedAction.pure(0, 2)
PROFILE = Profile.pure((0, 0), 2)
COUNTEREXAMPLE = universality_verdict(WTA2, ("0", "1")).counterexample
# a winner gains by rising, a loser by falling
INCREASE = next(v for v in probe_pairs(WTA2, ("0", "1")) if v.direction is Direction.INCREASE)
DECREASE = next(v for v in probe_pairs(LTA2, ("0", "1")) if v.direction is Direction.DECREASE)
# lowering the mid result to 0 makes player 0 the sole loser under LTA(3)
DROP = CoordinateViolation(Direction.DECREASE, 0, (F(2), F(1), F(3)), F(0), F(1))
# WTA(3) pays the player that rises to the top: an increase violation
RISE = next(
    v for v in probe_own_coordinate(WinnerTakeAllPlan(3), ("0", "1", "2"))
    if v.direction is Direction.INCREASE
)

ROWS = (
    Row("Game", "market", lambda v: Game(v, WTA2, 0), MARKET),
    Row("Game", "plan", lambda v: Game(MARKET, v, 0), WTA2),
    Row("induce_game", "market", lambda v: induce_game(v, WTA2), MARKET),
    Row("induce_game", "plan", lambda v: induce_game(MARKET, v), WTA2),
    Row("check_optimal", "market", lambda v: check_optimal(v, WTA2), MARKET),
    Row("check_optimal", "plan", lambda v: check_optimal(MARKET, v), WTA2),
    Row("strict_dominance", "game", strict_dominance, GAME),
    Row("check_nash", "game", lambda v: check_nash(v, PROFILE), GAME),
    Row("check_nash", "profile", lambda v: check_nash(GAME, v), PROFILE),
    Row("best_response", "game", lambda v: best_response(v, 0, [PURE]), GAME),
    Row("best_response", "opponents", lambda v: best_response(GAME, 0, v), [PURE]),
    Row("expected_payoffs", "game", lambda v: expected_payoffs(v, PROFILE), GAME),
    Row("expected_payoffs", "profile", lambda v: expected_payoffs(GAME, v), PROFILE),
    Row("principal_value", "market", lambda v: principal_value(v, PROFILE), MARKET),
    Row("principal_value", "profile", lambda v: principal_value(MARKET, v), PROFILE),
    Row("expectation", "market", lambda v: expectation(v, PURE), MARKET),
    Row("expectation", "strategy", lambda v: expectation(MARKET, v), PURE),
    Row("find_bounding_m", "market", lambda v: find_bounding_m(v, 2), MARKET),
    Row("build_m_linear", "market", lambda v: build_m_linear(v, 2), MARKET),
    Row("build_bounded_linear", "market", lambda v: build_bounded_linear(v, 2, 2), MARKET),
    Row("market_to_dict", "market", market_to_dict, MARKET),
    Row("Profile", "strategies", Profile, (PURE, PURE)),
    Row("Profile.check_arity", "market", PROFILE.check_arity, MARKET),
    Row("profile_to_list", "profile", profile_to_list, PROFILE),
    Row("plan_to_dict", "plan", plan_to_dict, WTA2),
    Row("BonusPlan.linear_form", "market", M_LINEAR2.linear_form, MARKET),
    Row("zero_sum_shares", "plan", lambda v: zero_sum_shares(v, (0, 1)), WTA2),
    Row("validate_simplex", "plan", lambda v: validate_simplex(v, 2), WTA2),
    Row("universality_verdict", "plan", lambda v: universality_verdict(v, ("0", "1")), WTA2),
    Row("probe_pairs", "plan", lambda v: probe_pairs(v, ("0", "1")), WTA2),
    Row(
        "probe_own_coordinate", "plan",
        lambda v: probe_own_coordinate(v, ("0", "1", "2")), LTA3,
    ),
    Row(
        "four_point_shares_equal", "plan",
        lambda v: four_point_shares_equal(v, "0", "1"), WTA2,
    ),
    Row(
        "pair_decrease_counterexample", "plan",
        lambda v: pair_decrease_counterexample(v, DECREASE), LTA2,
    ),
    Row(
        "pair_increase_counterexample", "plan",
        lambda v: pair_increase_counterexample(v, INCREASE), WTA2,
    ),
    Row(
        "coordinate_decrease_counterexample", "plan",
        lambda v: coordinate_decrease_counterexample(v, DROP), LTA3,
    ),
    Row(
        "coordinate_increase_counterexample", "plan",
        lambda v: coordinate_increase_counterexample(v, RISE), WinnerTakeAllPlan(3),
    ),
    Row(
        "validate_counterexample", "plan",
        lambda v: validate_counterexample(v, COUNTEREXAMPLE), WTA2,
    ),
    Row(
        "validate_counterexample", "ce",
        lambda v: validate_counterexample(WTA2, v), COUNTEREXAMPLE,
    ),
    Row(
        "Counterexample", "market",
        lambda v: validate_counterexample(WTA2, replace(COUNTEREXAMPLE, market=v)),
        COUNTEREXAMPLE.market,
    ),
    Row(
        "Counterexample", "profile",
        lambda v: validate_counterexample(WTA2, replace(COUNTEREXAMPLE, profile=v)),
        COUNTEREXAMPLE.profile,
    ),
)

# (callable, parameter) -> why it needs no row; a callable alone exempts
# every parameter it has
EXEMPT = {
    ("BestResponse", None): "an output record of best_response; no function reads one back",
    ("EquilibriumReport", None): "an output record of check_nash; no function reads one back",
    ("UniversalityReport", None): "an output record of universality_verdict; no function"
    " reads one back",
    ("_SplitPlan.response", None): "an override of BonusPlan.response, the internal"
    " integer path of the deviation scan",
    ("_SplitPlan.share_sums", None): "an override of BonusPlan.share_sums, the internal"
    " integer path of a payoff cell",
    ("MLinearPlan.from_document", None): "an override of BonusPlan.from_document, an int"
    " and a mapping; plan_from_dict calls it",
    ("BoundedLinearPlan.from_document", None): "an override of BonusPlan.from_document",
    ("TabulatedPlan.from_document", None): "an override of BonusPlan.from_document",
    ("as_rational", "value"): "a number in any spelling; the reader refuses what it cannot read",
    ("four_point_shares_equal", "x"): "a rational, read by as_rational",
    ("four_point_shares_equal", "y"): "a rational, read by as_rational",
    ("induce_game", "earnings_weight"): "a rational, read by Game through as_rational",
    ("validate_simplex", "lo"): "a rational, read by as_rational",
    ("validate_simplex", "hi"): "a rational, read by as_rational",
}

OBJECT_TYPES = ("Market", "BonusPlan", "Game", "Profile", "MixedAction", "Counterexample")
_OBJECT = re.compile(r"\b(?:" + "|".join(OBJECT_TYPES) + r")\b")


def object_parameters(namespace) -> set[tuple[str, str]]:
    """(callable, parameter) for every parameter of the exported surface
    annotated with one of OBJECT_TYPES or not annotated at all, as
    `test_public_ints.surface_parameters` walks it."""
    return surface_parameters(namespace, lambda a: not a or bool(_OBJECT.search(a)))


def _row_id(row: Row) -> str:
    return f"{row.callable}-{row.parameter}"


@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_object_parameters_refuse_a_wrong_object(row):
    start = time.perf_counter()
    with pytest.raises(BonusLabError):
        row.call(object())
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_each_row_makes_a_valid_call(row):
    row.call(row.valid)


def _exempt(found: tuple[str, str]) -> bool:
    callable_, parameter = found
    return (callable_, None) in EXEMPT or found in EXEMPT


def test_every_object_parameter_has_a_row_or_an_exemption():
    found = object_parameters(bonuslab)
    rows = {(row.callable, row.parameter) for row in ROWS}
    assert len(rows) == len(ROWS)
    assert sorted(p for p in found - rows if not _exempt(p)) == []
    assert sorted(rows - found) == []  # a row for a parameter that is gone
    named = {c for c, _ in found} | set(found)
    assert sorted(k for k in EXEMPT if (k[0] if k[1] is None else k) not in named) == []


def new_surface(market: "bonuslab.Market", plans: "list[BonusPlan] | None", count: int, note):
    """A stand-in for a new exported function."""


def test_discovery_finds_a_new_object_parameter(monkeypatch):
    before = object_parameters(bonuslab)
    monkeypatch.setattr(new_surface, "__module__", "bonuslab.new")
    monkeypatch.setattr(bonuslab, "new_surface", new_surface, raising=False)
    assert object_parameters(bonuslab) - before == {
        ("new_surface", "market"),
        ("new_surface", "plans"),
        ("new_surface", "note"),
    }
