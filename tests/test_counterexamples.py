"""Monotonicity probes and the markets that turn violations into refutations."""

from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bonuslab import (
    ArityMismatch,
    BoundedLinearPlan,
    ConstantPlan,
    CoordinateViolation,
    Direction,
    GridCapExceeded,
    LoserTakeAllPlan,
    MixedAction,
    MLinearPlan,
    PairViolation,
    SearchExhausted,
    StaleViolation,
    TabulatedPlan,
    WinnerTakeAllPlan,
    build_m_linear,
    coordinate_decrease_counterexample,
    coordinate_increase_counterexample,
    expectation,
    four_point_shares_equal,
    pair_decrease_counterexample,
    pair_increase_counterexample,
    probe_own_coordinate,
    probe_pairs,
    two_bond_market,
    universality_verdict,
    validate_counterexample,
)
from bonuslab.plans import BonusPlan, Kernel
from conftest import fraction_allocation

F = Fraction


# ---------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------


def test_pair_probe_on_winner_take_all():
    violations = probe_pairs(WinnerTakeAllPlan(2), ("0", "1"))
    assert [(v.direction, v.player) for v in violations] == [
        (Direction.INCREASE, 0),
        (Direction.INCREASE, 1),
    ]
    assert violations[0] == PairViolation(Direction.INCREASE, F(0), F(1), 0, F(1, 2))


def test_pair_probe_on_loser_take_all():
    violations = probe_pairs(LoserTakeAllPlan(2), ("0", "1"))
    assert [(v.direction, v.player) for v in violations] == [
        (Direction.DECREASE, 0),
        (Direction.DECREASE, 1),
    ]
    assert violations[0].deficit == F(1, 2)


def test_pair_probe_is_silent_on_constant():
    assert probe_pairs(ConstantPlan(2), ("0", "1/2", "1")) == ()
    assert four_point_shares_equal(ConstantPlan(2), "0", "1")


def test_pair_probe_rejects_many_player_plans():
    with pytest.raises(ArityMismatch):
        probe_pairs(WinnerTakeAllPlan(3), ("0", "1"))


def test_own_coordinate_probe_first_violations():
    increase = probe_own_coordinate(WinnerTakeAllPlan(3), ("1", "2", "3"))[0]
    assert increase.direction is Direction.INCREASE
    assert (increase.player, increase.base) == (0, (F(1), F(2), F(3)))
    assert (increase.witness, increase.deficit) == (F(3), F(1, 2))

    decrease = probe_own_coordinate(LoserTakeAllPlan(3), ("1", "2", "3"))[0]
    assert decrease.direction is Direction.DECREASE
    assert (decrease.player, decrease.base) == (0, (F(2), F(1), F(3)))
    assert (decrease.witness, decrease.deficit) == (F(1), F(1, 2))


def test_own_coordinate_probe_needs_enough_points():
    with pytest.raises(ArityMismatch):
        probe_own_coordinate(WinnerTakeAllPlan(3), ("1", "2"))


def test_pair_probe_caps_its_pairs():
    with pytest.raises(GridCapExceeded):  # C(633, 2) = 200 028 pairs
        probe_pairs(WinnerTakeAllPlan(2), range(633))
    with pytest.raises(GridCapExceeded):
        universality_verdict(ConstantPlan(2), range(633))


@pytest.mark.parametrize(
    "plan,points", [(WinnerTakeAllPlan(2), range(30)), (WinnerTakeAllPlan(3), range(6))]
)
def test_universality_verdict_stops_at_the_first_violation(monkeypatch, plan, points):
    """The verdict allocates < 1/10 of the full probe's result vectors.

    `kernel_for` serves the probes' scans and every `evaluate`, so its
    kernels count both the scan and the builder's own allocations; the
    builder's games call `kernel` directly and are not counted.
    """
    calls = []
    kernel_for = BonusPlan.kernel_for

    def counted(self, values):
        (denominator, shares), ints = kernel_for(self, values)
        return Kernel(denominator, lambda v: calls.append(v) or shares(v)), ints

    monkeypatch.setattr(BonusPlan, "kernel_for", counted)
    probe = probe_pairs if plan.players == 2 else probe_own_coordinate
    first = probe(plan, points)[0]
    full_scan = len(calls)
    calls.clear()
    assert universality_verdict(plan, points).violation == first
    assert len(calls) < full_scan / 10


def test_own_coordinate_probe_caps_its_base_points():
    with pytest.raises(GridCapExceeded):  # 59^3 = 205 379 base points
        probe_own_coordinate(WinnerTakeAllPlan(3), range(59))
    with pytest.raises(GridCapExceeded):  # 9^6 = 531 441
        universality_verdict(LoserTakeAllPlan(6), range(9))


# The probes' loops as they ran before the probes used integer kernels, on
# the reference allocation rule: a differential oracle for the probes.


def reference_pair_violations(plan, grid):
    found = []
    for x, y in combinations(grid, 2):
        f_xx, f_yy, f_xy, f_yx = (
            fraction_allocation(plan, r) for r in ((x, x), (y, y), (x, y), (y, x))
        )
        if f_yy[0] < f_xy[0]:
            found.append(PairViolation(Direction.DECREASE, x, y, 0, f_xy[0] - f_yy[0]))
        if f_yy[1] < f_yx[1]:
            found.append(PairViolation(Direction.DECREASE, x, y, 1, f_yx[1] - f_yy[1]))
        if f_xx[0] < f_yx[0]:
            found.append(PairViolation(Direction.INCREASE, x, y, 0, f_yx[0] - f_xx[0]))
        if f_xx[1] < f_xy[1]:
            found.append(PairViolation(Direction.INCREASE, x, y, 1, f_xy[1] - f_xx[1]))
    return tuple(found)


def reference_coordinate_violations(plan, grid):
    k = plan.players
    found = []
    for player in range(k):
        for base in product(grid, repeat=k):
            if len(set(base)) != k:
                continue
            own_share = fraction_allocation(plan, base)[player]
            for witness in grid:
                if witness == base[player]:
                    continue
                bent = base[:player] + (witness,) + base[player + 1 :]
                share = fraction_allocation(plan, bent)[player]
                if share > own_share:
                    direction = (
                        Direction.DECREASE if witness < base[player] else Direction.INCREASE
                    )
                    found.append(
                        CoordinateViolation(direction, player, base, witness, share - own_share)
                    )
    return tuple(found)


grid_points = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def probe_cases(draw):
    """A plan of every kind and a grid of mixed denominators.

    The m_linear interval [-1/3, 5/4] is off the lattice of every grid
    without thirds or quarters; one table key holds a seventh, so it is off
    every grid's lattice, and the other is drawn from the grid.
    """
    k = draw(st.sampled_from([2, 3]))
    size = 8 if k == 2 else 5
    grid = sorted(draw(st.lists(grid_points, min_size=k, max_size=size, unique=True)))
    first, last = (F(1),) + (F(0),) * (k - 1), (F(0),) * (k - 1) + (F(1),)
    on_grid = tuple(draw(st.sampled_from(grid)) for _ in range(k))
    off_grid = (F(1, 7),) + on_grid[1:]
    plan = draw(
        st.sampled_from(
            [
                ConstantPlan(k),
                WinnerTakeAllPlan(k),
                LoserTakeAllPlan(k),
                MLinearPlan(k, F(1), F(-1, 3), F(5, 4)),
                BoundedLinearPlan(k, F(2, 7)),
                TabulatedPlan(
                    k, {on_grid: last, off_grid: first}, (F(1, 2), F(1, 2)) + first[2:]
                ),
            ]
        )
    )
    return plan, grid


@settings(max_examples=100, deadline=None)
@given(probe_cases())
def test_probes_match_the_reference_scan(case):
    """Same violations, same order, same exact deficits as the Fraction scan."""
    plan, grid = case
    if plan.players == 2:
        assert probe_pairs(plan, grid) == reference_pair_violations(plan, grid)
    assert probe_own_coordinate(plan, grid) == reference_coordinate_violations(plan, grid)


# ---------------------------------------------------------------------
# Two-player builders
# ---------------------------------------------------------------------


def test_decrease_builder_rewards_the_drop_with_certainty():
    violation = probe_pairs(LoserTakeAllPlan(2), ("0", "1"))[0]
    ce = pair_decrease_counterexample(LoserTakeAllPlan(2), violation)
    assert len(ce.market.atoms) == 1
    assert ce.market.atoms[0].outcomes == (F(1), F(0))
    assert ce.gain == F(1, 2)
    assert [s.pure_action for s in ce.profile.strategies] == [0, 0]
    assert ce.deviation == 1
    assert ce.certificate == (("X1", F(1)), ("X2", F(0)))


def test_increase_builder_on_winner_take_all():
    violation = probe_pairs(WinnerTakeAllPlan(2), ("0", "1"))[0]
    ce = pair_increase_counterexample(WinnerTakeAllPlan(2), violation)
    assert ce.params == {"p": F(5, 6), "z": F(6), "iterations": 0}
    assert [a.probability for a in ce.market.atoms] == [F(5, 6), F(1, 6)]
    assert ce.market.atoms[0].outcomes == (F(0), F(1))
    assert ce.market.atoms[1].outcomes == (F(6), F(0))
    assert ce.gain == F(1, 3)
    # the safe action stays ahead in expectation by construction
    assert ce.certificate == (("X1", F(1)), ("X2", F(5, 6)))


def test_builders_reject_mismatched_violations():
    wta = WinnerTakeAllPlan(2)
    increase = probe_pairs(wta, ("0", "1"))[0]
    with pytest.raises(StaleViolation):
        pair_decrease_counterexample(wta, increase)
    fabricated = PairViolation(Direction.INCREASE, F(0), F(1), 0, F(1, 3))
    with pytest.raises(StaleViolation):
        pair_increase_counterexample(wta, fabricated)
    backwards = PairViolation(Direction.INCREASE, F(1), F(0), 0, F(1, 2))
    with pytest.raises(StaleViolation):
        pair_increase_counterexample(wta, backwards)


# ---------------------------------------------------------------------
# Many-player builders
# ---------------------------------------------------------------------


def lta_drop_violation():
    # lowering the mid result to 0 makes the player the sole loser
    return CoordinateViolation(
        Direction.DECREASE, 0, (F(2), F(1), F(3)), F(0), F(1)
    )


def test_coordinate_decrease_builder_frozen_values():
    plan = LoserTakeAllPlan(3)
    ce = coordinate_decrease_counterexample(plan, lta_drop_violation())
    assert ce.market.actions == ("X1", "X2", "X3", "dev")
    assert len(ce.market.atoms) == 27
    assert ce.market.expectations()[:3] == (F(2), F(2), F(2))
    assert expectation(ce.market, MixedAction.pure(3, 4)) == F(31, 16)
    assert ce.gain == F(1, 32)
    assert ce.params == {"tuple_probability": F(1, 32)}
    assert [s.pure_action for s in ce.profile.strategies] == [0, 1, 2]
    assert ce.deviation == 3


def test_coordinate_decrease_gain_recomputes_atomwise():
    plan = LoserTakeAllPlan(3)
    ce = coordinate_decrease_counterexample(plan, lta_drop_violation())
    gain = F(0)
    for atom in ce.market.atoms:
        stay = plan.evaluate(atom.outcomes[:3])[0]
        moved = plan.evaluate((atom.outcomes[3],) + atom.outcomes[1:3])[0]
        gain += atom.probability * (moved - stay)
    assert gain == ce.gain


def test_coordinate_increase_builder_frozen_values():
    plan = WinnerTakeAllPlan(3)
    violation = CoordinateViolation(
        Direction.INCREASE, 0, (F(1), F(2), F(3)), F(4), F(1)
    )
    ce = coordinate_increase_counterexample(plan, violation)
    assert ce.params == {
        "p": F(127, 128),
        "escape_high": F(8),
        "escape_low": F(-8),
        "probability_steps": 7,
        "escape_doublings": 0,
    }
    assert ce.gain == F(4584541, 201326592)
    assert ce.market.expectation_of(0) == F(921, 512)
    assert expectation(ce.market, MixedAction.pure(3, 4)) < F(921, 512)
    assert len(ce.market.atoms) == 4**3


def test_coordinate_builders_reject_stale_input():
    plan = LoserTakeAllPlan(3)
    with pytest.raises(StaleViolation):
        coordinate_increase_counterexample(plan, lta_drop_violation())
    repeated = CoordinateViolation(
        Direction.DECREASE, 0, (F(2), F(2), F(3)), F(0), F(1)
    )
    with pytest.raises(StaleViolation):
        coordinate_decrease_counterexample(plan, repeated)
    wrong_deficit = CoordinateViolation(
        Direction.DECREASE, 0, (F(2), F(1), F(3)), F(0), F(1, 2)
    )
    with pytest.raises(StaleViolation):
        coordinate_decrease_counterexample(plan, wrong_deficit)


def test_increase_schedule_can_exhaust():
    """A vanishing deficit needs more probability steps than the schedule has."""
    base = (F(1), F(2), F(3))
    bent = (F(4), F(2), F(3))
    tiny = F(1, 2**80)
    third = F(1, 3)
    plan = TabulatedPlan(
        3,
        {bent: (third + tiny, third - tiny, third)},
        (third, third, third),
    )
    violation = CoordinateViolation(Direction.INCREASE, 0, base, F(4), tiny)
    with pytest.raises(SearchExhausted):
        coordinate_increase_counterexample(plan, violation)


def test_validate_rejects_tampered_certificates():
    plan = WinnerTakeAllPlan(2)
    ce = pair_increase_counterexample(plan, probe_pairs(plan, ("0", "1"))[0])
    forged = type(ce)(
        ce.market,
        ce.profile,
        ce.player,
        ce.deviation,
        ce.gain + 1,
        ce.certificate,
        ce.params,
    )
    with pytest.raises(StaleViolation):
        validate_counterexample(plan, forged)


# ---------------------------------------------------------------------
# One-call verdicts
# ---------------------------------------------------------------------


def test_universality_verdict_constant():
    report = universality_verdict(ConstantPlan(2), ("0", "1/2", "1"))
    assert report.verdict == "constant-on-grid"
    assert report.violation is None and report.counterexample is None
    assert universality_verdict(ConstantPlan(3), ("0", "1", "2")).verdict == (
        "constant-on-grid"
    )


@pytest.mark.parametrize(
    "plan,grid",
    [
        (ConstantPlan(2), ("0", "1/2", "1")),
        # the one tabulated point lies off the grid, so the grid sees the fallback
        (TabulatedPlan(2, {("5/2", "7/2"): ("1", "0")}, ("1/3", "2/3")), range(8)),
    ],
)
def test_constant_on_grid_means_equal_shares_on_every_pair(plan, grid):
    """A two-player constant-on-grid verdict leaves the plan constant on each
    {x,y}^2, as the universality_verdict docstring proves."""
    assert universality_verdict(plan, grid).verdict == "constant-on-grid"
    for x, y in combinations(sorted({F(x) for x in grid}), 2):
        assert four_point_shares_equal(plan, x, y)


def test_universality_verdict_interval_plan_beyond_its_interval():
    """The two-bond interval plan fails once results can leave the interval."""
    market = two_bond_market()
    plan = build_m_linear(market, 2)
    report = universality_verdict(plan, ("1", "1051/1000", "2"))
    assert report.verdict == "counterexample"
    v = report.violation
    assert v == PairViolation(
        Direction.INCREASE, F(1), F(1051, 1000), 0, F(51, 4204)
    )
    ce = report.counterexample
    assert ce.params["p"] == F(8459, 8510)
    assert ce.params["z"] == F(10459, 1000)
    assert ce.gain == F(8459, 8510) * F(51, 4204)
    # the rare atom parks the safe action far outside the plan's interval
    assert ce.market.atoms[1].outcomes[0] > plan.hi


def test_universality_verdict_three_player_winner_take_all():
    report = universality_verdict(WinnerTakeAllPlan(3), ("1", "2", "3"))
    assert report.verdict == "counterexample"
    assert report.violation.base == (F(1), F(2), F(3))
    assert report.counterexample.params["probability_steps"] == 8
    assert report.counterexample.params["p"] == F(255, 256)


def test_counterexamples_survive_revalidation():
    cases = [
        (WinnerTakeAllPlan(2), ("0", "1")),
        (LoserTakeAllPlan(2), ("0", "1")),
        (LoserTakeAllPlan(3), ("1", "2", "3")),
        (WinnerTakeAllPlan(3), ("1", "2", "3")),
    ]
    for plan, grid in cases:
        report = universality_verdict(plan, grid)
        assert report.verdict == "counterexample"
        validate_counterexample(plan, report.counterexample)
