"""Every int parameter of the exported surface refuses a non-int.

Each row names an exported callable, one of its int parameters, a call
that passes a value to that parameter, a valid value for it and the error
type the call raises for a non-int.  A float is refused as FloatRejected at
every site; a bool, a numeric string and an integral Fraction get the
row's own error type.

A discovery pass walks the functions `bonuslab/__init__.py` exports, the
exported classes' constructors, public methods and classmethods, and finds
every parameter annotated `int`, `int | None`, or a tuple or Sequence of
int.  Each must have a row or a named exemption, so a new int parameter on
the public surface cannot skip the check.
"""

import inspect
import re
import sys
from dataclasses import replace
from fractions import Fraction
from typing import Any, Callable, NamedTuple

import pytest

import bonuslab
from bonuslab import (
    ArityMismatch,
    BonusPlan,
    BoundedLinearPlan,
    ConstantPlan,
    CoordinateViolation,
    Direction,
    FloatRejected,
    GridCapExceeded,
    InvalidParameter,
    LoserTakeAllPlan,
    MixedAction,
    MLinearPlan,
    Profile,
    StaleViolation,
    TabulatedPlan,
    WinnerTakeAllPlan,
    best_response,
    build_bounded_linear,
    build_m_linear,
    check_nash,
    check_optimal,
    coordinate_decrease_counterexample,
    find_bounding_m,
    induce_game,
    pair_increase_counterexample,
    probe_pairs,
    simplex_grid,
    two_bond_market,
    universality_verdict,
    validate_counterexample,
    validate_simplex,
)
from bonuslab.market import GRID_CAP

F = Fraction


class Row(NamedTuple):
    callable: str  # a function's or method's qualified name; a class's name for its constructor
    parameter: str
    call: Callable[[Any], Any]  # passes its argument as `parameter`
    valid: Any
    error: type


MARKET = two_bond_market()
GAME = induce_game(MARKET, WinnerTakeAllPlan(2), 0)
PURE = MixedAction.pure(0, 2)
WTA2 = WinnerTakeAllPlan(2)
COUNTEREXAMPLE = universality_verdict(WTA2, ("0", "1")).counterexample
INCREASE = next(v for v in probe_pairs(WTA2, ("0", "1")) if v.direction is Direction.INCREASE)
# lowering the mid result to 0 makes player 0 the sole loser under LTA(3)
DROP = CoordinateViolation(Direction.DECREASE, 0, (F(2), F(1), F(3)), F(0), F(1))

ROWS = (
    Row("simplex_grid", "arity", lambda v: list(simplex_grid(v, 2)), 2, ArityMismatch),
    Row("simplex_grid", "denominator", lambda v: list(simplex_grid(2, v)), 2, InvalidParameter),
    Row("best_response", "player", lambda v: best_response(GAME, v, [PURE]), 0, ArityMismatch),
    Row(
        "best_response", "resolution",
        lambda v: best_response(GAME, 0, [PURE], v), 2, InvalidParameter,
    ),
    Row(
        "check_nash", "resolution",
        lambda v: check_nash(GAME, Profile.pure((0, 0), 2), v), 2, InvalidParameter,
    ),
    Row(
        "check_optimal", "resolution",
        lambda v: check_optimal(MARKET, WTA2, v), 2, InvalidParameter,
    ),
    Row(
        "find_bounding_m", "grid_resolution",
        lambda v: find_bounding_m(MARKET, v), 2, InvalidParameter,
    ),
    Row("build_m_linear", "players", lambda v: build_m_linear(MARKET, v), 2, ArityMismatch),
    Row(
        "build_bounded_linear", "players",
        lambda v: build_bounded_linear(MARKET, v, 2), 2, ArityMismatch,
    ),
    Row(
        "build_bounded_linear", "grid_resolution",
        lambda v: build_bounded_linear(MARKET, 2, v), 2, InvalidParameter,
    ),
    Row("Game.payoff", "combo", lambda v: GAME.payoff((0, v)), 1, ArityMismatch),
    Row("MixedAction.pure", "action", lambda v: MixedAction.pure(v, 2), 1, ArityMismatch),
    # its cap on large arities: test_pure_arity_is_capped_before_any_weight
    Row("MixedAction.pure", "arity", lambda v: MixedAction.pure(0, v), 2, ArityMismatch),
    Row("Profile.pure", "actions", lambda v: Profile.pure((0, v), 2), 1, ArityMismatch),
    Row("Profile.pure", "arity", lambda v: Profile.pure((0, 0), v), 2, ArityMismatch),
    Row("BonusPlan", "players", BonusPlan, 2, ArityMismatch),
    Row("ConstantPlan", "players", ConstantPlan, 2, ArityMismatch),
    Row("WinnerTakeAllPlan", "players", WinnerTakeAllPlan, 2, ArityMismatch),
    Row("LoserTakeAllPlan", "players", LoserTakeAllPlan, 2, ArityMismatch),
    Row(
        "MLinearPlan", "players",
        lambda v: MLinearPlan(v, F(2), F(-2), F(2)), 2, ArityMismatch,
    ),
    Row("BoundedLinearPlan", "players", lambda v: BoundedLinearPlan(v, F(1)), 2, ArityMismatch),
    Row(
        "TabulatedPlan", "players",
        lambda v: TabulatedPlan(v, {}, (F(1, 2), F(1, 2))), 2, ArityMismatch,
    ),
    Row("BonusPlan.kernel", "scale", WTA2.kernel, 1, ArityMismatch),
    Row("validate_simplex", "count", lambda v: validate_simplex(WTA2, v), 2, InvalidParameter),
    Row("validate_simplex", "seed", lambda v: validate_simplex(WTA2, 2, v), 2, InvalidParameter),
    Row(
        "Counterexample", "player",
        lambda v: validate_counterexample(WTA2, replace(COUNTEREXAMPLE, player=v)),
        COUNTEREXAMPLE.player, StaleViolation,
    ),
    Row(
        "Counterexample", "deviation",
        lambda v: validate_counterexample(WTA2, replace(COUNTEREXAMPLE, deviation=v)),
        COUNTEREXAMPLE.deviation, StaleViolation,
    ),
    Row(
        "PairViolation", "player",
        lambda v: pair_increase_counterexample(WTA2, replace(INCREASE, player=v)),
        INCREASE.player, StaleViolation,
    ),
    Row(
        "CoordinateViolation", "player",
        lambda v: coordinate_decrease_counterexample(LoserTakeAllPlan(3), replace(DROP, player=v)),
        DROP.player, StaleViolation,
    ),
)

# callable -> why its int parameters need no row
EXEMPT = {
    "BestResponse": "an output record of best_response; no function reads one back",
    "BoundSearchResult": "an output record of find_bounding_m; no function reads one back",
    "SimplexReport": "an output record of validate_simplex; no function reads one back",
    "DominanceReport": "an output record of strict_dominance; no function reads one back",
    "OptimalityReport": "an output record of check_optimal; no function reads one back",
    "DominanceReport.dominates": "a membership query over the report's own pairs",
}

NON_INTS = (2.5, True, "2", F(2))

_INT = re.compile(r"(?:int|(?:tuple|Sequence)\[int(?:, \.\.\.)?\])(?: \| None)?")


def int_parameters(namespace) -> set[tuple[str, str]]:
    """(callable, parameter) for every int-annotated parameter of the
    exported surface, as `surface_parameters` walks it."""
    return surface_parameters(namespace, lambda annotation: bool(_INT.fullmatch(annotation)))


def surface_parameters(namespace, wanted) -> set[tuple[str, str]]:
    """(callable, parameter) for every parameter whose annotation, as text,
    `wanted` accepts, over the exported functions and the exported classes'
    constructors, public methods and classmethods; an inherited method
    counts once, under the class that defines it.  A parameter with no
    annotation is passed as "" and `self` and `cls` are skipped."""
    found = set()

    def scan(key: str, function) -> None:
        for p in inspect.signature(function).parameters.values():
            annotation = p.annotation
            if annotation is inspect.Parameter.empty:
                annotation = ""
            elif not isinstance(annotation, str):
                annotation = inspect.formatannotation(annotation)
            if p.name not in ("self", "cls") and wanted(annotation):
                found.add((key, p.name))

    def ours(function) -> bool:
        return inspect.isfunction(function) and function.__module__.startswith("bonuslab")

    for name, obj in vars(namespace).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj):
            scan(obj.__qualname__, obj)
        elif inspect.isclass(obj):
            if ours(obj.__init__):
                scan(obj.__name__, obj.__init__)
            for attr, member in inspect.getmembers(obj):
                function = getattr(member, "__func__", member)
                if not attr.startswith("_") and ours(function):
                    scan(function.__qualname__, function)
    return found


def _row_id(row: Row) -> str:
    return f"{row.callable}-{row.parameter}"


@pytest.mark.parametrize("value", NON_INTS, ids=repr)
@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_int_parameters_refuse_non_ints(row, value):
    with pytest.raises(FloatRejected if isinstance(value, float) else row.error):
        row.call(value)


def test_pure_arity_is_capped_before_any_weight():
    """MixedAction.pure, and Profile.pure through it, build up to GRID_CAP
    weights, the actions of a d = 1 grid at its point cap; a larger arity is
    refused before any weight is built, one too long to print too."""
    assert MixedAction.pure(GRID_CAP - 1, GRID_CAP).pure_action == GRID_CAP - 1
    over = f"an int of over {sys.get_int_max_str_digits()} digits"
    for arity, text in ((GRID_CAP + 1, str(GRID_CAP + 1)), (10**9, "1000000000"),
                        (10**5000, over)):
        for call in (lambda: MixedAction.pure(0, arity), lambda: Profile.pure((0, 1), arity)):
            with pytest.raises(GridCapExceeded, match=f"a portfolio over {text} actions"
                               f" exceeds cap {GRID_CAP}"):
                call()


# (callable, parameter) of the rows that take a negative int
TAKES_NEGATIVE = {("validate_simplex", "seed")}

# past the digit limit of int-to-str, so a message can only write it by
# `rational.rational_text`
HUGE_NEGATIVE = -(10**5000)


@pytest.mark.parametrize("value", (-1, HUGE_NEGATIVE), ids=("-1", "-10**5000"))
@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_int_parameters_refuse_negative_ints(row, value):
    """Every row refuses a negative int with its own error type, also one
    too long to print; the rows in TAKES_NEGATIVE take one."""
    if (row.callable, row.parameter) in TAKES_NEGATIVE:
        row.call(value)
    else:
        with pytest.raises(row.error):
            row.call(value)


@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_each_row_makes_a_valid_call(row):
    row.call(row.valid)


def test_every_int_parameter_has_a_row_or_an_exemption():
    found = int_parameters(bonuslab)
    rows = {(row.callable, row.parameter) for row in ROWS}
    assert len(rows) == len(ROWS)
    assert sorted(p for p in found - rows if p[0] not in EXEMPT) == []
    assert sorted(rows - found) == []  # a row for a parameter that is gone
    assert sorted(set(EXEMPT) - {c for c, _ in found}) == []


def new_surface(market, count: int, label: str = ""):
    """A stand-in for a new exported function."""


class NewSurface:
    """A stand-in for a new exported class."""

    def __init__(self, size: "int | None") -> None:
        self.size = size

    @classmethod
    def build(cls, sizes: "Sequence[int]") -> "NewSurface":
        return cls(None)


def test_discovery_finds_a_new_int_parameter(monkeypatch):
    before = int_parameters(bonuslab)
    for function in (new_surface, NewSurface.__init__, NewSurface.build.__func__):
        monkeypatch.setattr(function, "__module__", "bonuslab.new")
    monkeypatch.setattr(bonuslab, "new_surface", new_surface, raising=False)
    monkeypatch.setattr(bonuslab, "NewSurface", NewSurface, raising=False)
    assert int_parameters(bonuslab) - before == {
        ("new_surface", "count"),
        ("NewSurface", "size"),
        ("NewSurface.build", "sizes"),
    }
