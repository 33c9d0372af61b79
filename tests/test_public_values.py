"""Every text and rational parameter of the exported surface refuses a wrong value.

Each row names an exported callable, one of its parameters annotated
`str` or `Fraction` (alone, in a container or optional), a call that passes
a value to that parameter and a valid value for it.  Handed a value of the
wrong kind there, the call raises a `BonusLabError` within a second, never
a bare AttributeError or TypeError: a text parameter is handed None, an int
and `object()`; a rational one None, `object()`, a float and a bool, which
no reader of numbers takes.

A discovery pass walks the same surface as `test_public_ints.py`.  Every
parameter annotated `str` or `Fraction` must have a row or a named
exemption.
"""

import json
import re
import time
from dataclasses import replace
from fractions import Fraction
from typing import Any, Callable, NamedTuple

import pytest

import bonuslab
from bonuslab import (
    BonusLabError,
    BoundedLinearPlan,
    CoordinateViolation,
    Direction,
    Game,
    LoserTakeAllPlan,
    Market,
    MixedAction,
    MLinearPlan,
    PairViolation,
    TabulatedPlan,
    WinnerTakeAllPlan,
    build_market,
    coordinate_decrease_counterexample,
    format_rational,
    load_market,
    load_plan,
    market_to_dict,
    pair_decrease_counterexample,
    pair_increase_counterexample,
    two_bond_market,
    universality_verdict,
    validate_counterexample,
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
COUNTEREXAMPLE = universality_verdict(WTA2, ("0", "1")).counterexample
# a winner gains by rising to 1 from (0, 0), a loser by falling to 0 from (1, 1)
INCREASE = PairViolation(Direction.INCREASE, F(0), F(1), 0, F(1, 2))
DECREASE = PairViolation(Direction.DECREASE, F(0), F(1), 0, F(1, 2))
# lowering the mid result to 0 makes player 0 the sole loser under LTA(3)
DROP = CoordinateViolation(Direction.DECREASE, 0, (F(2), F(1), F(3)), F(0), F(1))
FALLBACK = (F(1, 2), F(1, 2))
POINTS = {(F(0), F(1)): (F(1), F(0))}

ROWS = (
    Row("load_plan", "text", load_plan, '{"players": 2, "kind": "wta"}'),
    Row("load_market", "text", load_market, json.dumps(market_to_dict(MARKET))),
    Row("format_rational", "value", format_rational, F(1, 2)),
    Row("build_market", "actions", lambda v: build_market(v, [(1, (0, 1))]), ("A", "B")),
    Row("Market", "actions", lambda v: Market(v, MARKET.integer_view), MARKET.actions),
    Row("MixedAction", "weights", MixedAction, FALLBACK),
    Row("Game", "earnings_weight", lambda v: Game(MARKET, WTA2, v), F(1, 2)),
    Row("BoundedLinearPlan", "bound", lambda v: BoundedLinearPlan(2, v), F(3, 2)),
    Row("MLinearPlan", "bound", lambda v: MLinearPlan(2, v, 0, 1), F(2)),
    Row("MLinearPlan", "lo", lambda v: MLinearPlan(2, 2, v, 1), F(0)),
    Row("MLinearPlan", "hi", lambda v: MLinearPlan(2, 2, 0, v), F(1)),
    Row("TabulatedPlan", "points", lambda v: TabulatedPlan(2, v, FALLBACK), POINTS),
    Row("TabulatedPlan", "fallback", lambda v: TabulatedPlan(2, POINTS, v), FALLBACK),
    Row(
        "PairViolation", "x",
        lambda v: pair_decrease_counterexample(LTA2, replace(DECREASE, x=v)), F(0),
    ),
    Row(
        "PairViolation", "y",
        lambda v: pair_increase_counterexample(WTA2, replace(INCREASE, y=v)), F(1),
    ),
    Row(
        "PairViolation", "deficit",
        lambda v: pair_increase_counterexample(WTA2, replace(INCREASE, deficit=v)), F(1, 2),
    ),
    Row(
        "CoordinateViolation", "base",
        lambda v: coordinate_decrease_counterexample(LTA3, replace(DROP, base=v)), DROP.base,
    ),
    Row(
        "CoordinateViolation", "witness",
        lambda v: coordinate_decrease_counterexample(LTA3, replace(DROP, witness=v)), F(0),
    ),
    Row(
        "CoordinateViolation", "deficit",
        lambda v: coordinate_decrease_counterexample(LTA3, replace(DROP, deficit=v)), F(1),
    ),
    Row(
        "Counterexample", "gain",
        lambda v: validate_counterexample(WTA2, replace(COUNTEREXAMPLE, gain=v)),
        COUNTEREXAMPLE.gain,
    ),
    Row(
        "Counterexample", "certificate",
        lambda v: validate_counterexample(WTA2, replace(COUNTEREXAMPLE, certificate=v)),
        COUNTEREXAMPLE.certificate,
    ),
)

# (callable, parameter) -> why it needs no row; a callable alone exempts
# every parameter it has
EXEMPT = {
    ("BestResponse", None): "an output record of best_response; no function reads one back",
    ("BoundSearchResult", None): "an output record of find_bounding_m; no function reads"
    " one back",
    ("EquilibriumReport", None): "an output record of check_nash; no function reads one back",
    ("OptimalityReport", None): "an output record of check_optimal; no function reads one back",
    ("UniversalityReport", None): "an output record of universality_verdict; no function"
    " reads one back",
}

TEXT_VALUES = (None, 3, object())
RATIONAL_VALUES = (None, object(), 1.5, True)
_VALUE_TYPES = re.compile(r"\b(?:str|Fraction)\b")


def value_parameters(namespace) -> set[tuple[str, str]]:
    """(callable, parameter) for every parameter of the exported surface
    annotated `str` or `Fraction`, as `test_public_ints.surface_parameters`
    walks it."""
    return surface_parameters(namespace, lambda a: bool(_VALUE_TYPES.search(a)))


def _wrong_values(row: Row) -> tuple:
    return TEXT_VALUES if isinstance(row.valid, str) else RATIONAL_VALUES


def _row_id(row: Row) -> str:
    return f"{row.callable}-{row.parameter}"


@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_value_parameters_refuse_a_wrong_value(row):
    for value in _wrong_values(row):
        start = time.perf_counter()
        with pytest.raises(BonusLabError):
            row.call(value)
        assert time.perf_counter() - start < 1


@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_each_row_makes_a_valid_call(row):
    row.call(row.valid)


def test_text_still_reads_as_str_bytes_and_bytearray():
    text = '{"players": 2, "kind": "wta"}'
    for document in (text, text.encode(), bytearray(text.encode())):
        assert load_plan(document) == WTA2
    assert load_market(json.dumps(market_to_dict(MARKET)).encode()) == MARKET


def _exempt(found: tuple[str, str]) -> bool:
    callable_, parameter = found
    return (callable_, None) in EXEMPT or found in EXEMPT


def test_every_value_parameter_has_a_row_or_an_exemption():
    found = value_parameters(bonuslab)
    rows = {(row.callable, row.parameter) for row in ROWS}
    assert len(rows) == len(ROWS)
    assert sorted(p for p in found - rows if not _exempt(p)) == []
    assert sorted(rows - found) == []  # a row for a parameter that is gone
    named = {c for c, _ in found} | set(found)
    assert sorted(k for k in EXEMPT if (k[0] if k[1] is None else k) not in named) == []


def new_surface(label: str, bound: "Fraction | None", count: int, note):
    """A stand-in for a new exported function."""


def test_discovery_finds_a_new_value_parameter(monkeypatch):
    before = value_parameters(bonuslab)
    monkeypatch.setattr(new_surface, "__module__", "bonuslab.new")
    monkeypatch.setattr(bonuslab, "new_surface", new_surface, raising=False)
    assert value_parameters(bonuslab) - before == {
        ("new_surface", "label"),
        ("new_surface", "bound"),
    }
