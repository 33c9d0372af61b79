"""Acceptance gate: one criterion per marker, tallied at the end of the run.

Each test pins down one externally stated guarantee of the package, at zero
tolerance (everything is exact rational arithmetic) and within a stated
wall-clock budget.  The conftest plugin prints one ACCEPTANCE line per
criterion id after the run.

Criteria 1 and 2 assert the published payoff table for the two-bond
tournament, including its off-diagonal coefficient pairs.  Recomputing the
game from its own definition (share plus earnings weight times *own*
result) contradicts two of those published pairs, and the dominance claim
fails at the largest listed weight.  The published table is derived
instead from the opponent's expected result in
tests/test_game.py::test_published_table_follows_from_the_opponent_result_variant.
Those asserts are kept as published and fail honestly.
"""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from bonuslab import (
    BoundedLinearPlan,
    ConstantPlan,
    CoordinateViolation,
    Direction,
    LoserTakeAllPlan,
    MLinearPlan,
    MixedAction,
    OptimalityVerdict,
    Profile,
    TabulatedPlan,
    Verdict,
    WinnerTakeAllPlan,
    build_bounded_linear,
    build_m_linear,
    check_nash,
    check_optimal,
    coordinate_decrease_counterexample,
    coordinate_increase_counterexample,
    expectation,
    find_bounding_m,
    induce_game,
    probe_own_coordinate,
    two_bond_market,
    strict_dominance,
    universality_verdict,
    validate_counterexample,
    validate_simplex,
    zero_sum_shares,
)
from conftest import fraction_atoms, random_market
from test_construct import _check_witness

F = Fraction


class Budget:
    """Wall-clock guard: elapsed() asserts the budget in seconds holds."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.started = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.started
        assert elapsed < self.seconds, f"took {elapsed:.2f}s, budget {self.seconds}s"


def symbolic_coefficients():
    """(constant, slope) per profile for player 1, with affinity verified."""
    market = two_bond_market()
    plan = WinnerTakeAllPlan(2)
    at = {
        lam: induce_game(market, plan, lam).payoffs
        for lam in (F(0), F(1, 4), F(1, 2))
    }
    table = {}
    for combo in at[F(0)]:
        constant = at[F(0)][combo][0]
        slope = 2 * (at[F(1, 2)][combo][0] - constant)
        # three points pin an affine function exactly
        assert at[F(1, 4)][combo][0] == constant + slope * F(1, 4)
        table[combo] = (constant, slope)
    return table


PUBLISHED_TABLE = {
    (0, 0): (F(1, 2), F(11, 20)),
    (1, 0): (F(3, 5), F(9, 20)),
    (0, 1): (F(2, 5), F(3153, 5000)),
    (1, 1): (F(1, 2), F(2653, 5000)),
}


@pytest.mark.criterion(1, "two-bond payoff table, symbolic in the earnings weight")
@pytest.mark.parametrize("combo", sorted(PUBLISHED_TABLE))
def test_two_bond_payoff_table(combo):
    budget = Budget(1)
    assert symbolic_coefficients()[combo] == PUBLISHED_TABLE[combo]
    budget.check()


@pytest.mark.criterion(2, "risky bond dominates at every listed earnings weight")
@pytest.mark.parametrize("tenths", range(1, 10))
def test_risky_bond_dominance_sweep(tenths):
    lam = F(tenths, 10)
    budget = Budget(1)
    game = induce_game(two_bond_market(), WinnerTakeAllPlan(2), lam)
    report = strict_dominance(game)
    assert report.dominates(0, 1, 0) and report.dominates(1, 1, 0)
    assert report.unique_profile == (1, 1)

    stable = check_nash(game, Profile.pure((1, 1), 2))
    assert stable.verdict is Verdict.EQUILIBRIUM

    refuted = check_nash(game, Profile.pure((0, 0), 2))
    assert refuted.verdict is Verdict.NOT_EQUILIBRIUM
    # the deviation gain at the all-safe profile, recomputed by hand:
    # (3/5 + 2153/5000 w) - (1/2 + 11/20 w) = 1/10 - 597/5000 w
    assert refuted.gains == (F(1, 10) - F(597, 5000) * lam,) * 2
    budget.check()


@pytest.mark.criterion(3, "interval-gated plan optimal on 200 random markets")
def test_interval_plan_on_random_markets():
    budget = Budget(30)
    rng = random.Random(1003)
    for _ in range(200):
        market = random_market(rng)
        players = rng.choice([2, 3])
        plan = build_m_linear(market, players)
        report = check_optimal(market, plan)
        assert report.verdict is OptimalityVerdict.OPTIMAL, market
        (best,) = report.argmax_actions
        dominance = strict_dominance(induce_game(market, plan, 0))
        for player in range(players):
            for action in range(market.n):
                if action != best:
                    assert dominance.dominates(player, best, action), market
    budget.check()


@pytest.mark.criterion(4, "certified-bound plan optimal, outliers included")
def test_certified_bound_plan_on_random_markets():
    budget = Budget(60)
    rng = random.Random(1004)
    cases = [random_market(rng) for _ in range(200)]
    cases += [random_market(rng, outlier=True) for _ in range(40)]
    for market in cases:
        result = find_bounding_m(market, 4)
        assert result.min_gap > 0
        assert result.bound == max(
            max(w.threshold, w.tail_empty_at) for w in result.witnesses
        )
        assert result.min_gap == min(w.gap for w in result.witnesses)
        for witness in result.witnesses:
            _check_witness(market, result.best_action, witness)
        players = rng.choice([2, 3])
        plan = build_bounded_linear(market, players, 4)
        assert plan.bound == result.bound
        assert check_optimal(market, plan).verdict is OptimalityVerdict.OPTIMAL, market
    budget.check()


@pytest.mark.criterion(5, "two-player refutations from grid probes")
def test_two_player_refutations():
    budget = Budget(5)
    wta = universality_verdict(WinnerTakeAllPlan(2), ("0", "1"))
    assert wta.verdict == "counterexample"
    assert wta.violation.direction is Direction.INCREASE
    assert wta.counterexample.params["p"] == F(5, 6)
    assert wta.counterexample.params["z"] == F(6)
    assert wta.counterexample.gain == F(1, 3)
    validate_counterexample(WinnerTakeAllPlan(2), wta.counterexample)

    lta = universality_verdict(LoserTakeAllPlan(2), ("0", "1"))
    assert lta.verdict == "counterexample"
    assert lta.violation.direction is Direction.DECREASE
    assert lta.counterexample.gain == F(1, 2)
    validate_counterexample(LoserTakeAllPlan(2), lta.counterexample)

    assert universality_verdict(ConstantPlan(2), ("0", "1")).verdict == (
        "constant-on-grid"
    )

    # the interval-gated plan stops being optimal once a market can realize
    # results beyond the interval it was built for
    market = two_bond_market()
    plan = build_m_linear(market, 2)
    stretched = universality_verdict(plan, ("1", "1051/1000", "2"))
    assert stretched.verdict == "counterexample"
    validate_counterexample(plan, stretched.counterexample)
    budget.check()


@pytest.mark.criterion(6, "three-player refutations: probes and product markets")
def test_three_player_refutations():
    budget = Budget(10)
    increase = probe_own_coordinate(WinnerTakeAllPlan(3), ("1", "2", "3"))[0]
    assert increase.direction is Direction.INCREASE
    assert increase.base == (F(1), F(2), F(3))

    decrease = probe_own_coordinate(LoserTakeAllPlan(3), ("1", "2", "3"))[0]
    assert decrease.direction is Direction.DECREASE
    assert decrease.base == (F(2), F(1), F(3))

    # the full drop to 0 at that base realizes the published product market
    drop = CoordinateViolation(Direction.DECREASE, 0, (F(2), F(1), F(3)), F(0), F(1))
    ce = coordinate_decrease_counterexample(LoserTakeAllPlan(3), drop)
    assert len(fraction_atoms(ce.market)) == 27
    assert ce.market.expectations()[0] == F(2)
    assert expectation(ce.market, MixedAction.pure(3, 4)) == F(31, 16)
    assert ce.gain == F(1, 32)
    game = induce_game(ce.market, LoserTakeAllPlan(3), 0)
    assert check_nash(game, ce.profile).verdict is Verdict.NOT_EQUILIBRIUM

    chased = coordinate_increase_counterexample(WinnerTakeAllPlan(3), increase)
    assert chased.params["probability_steps"] <= 64
    validate_counterexample(WinnerTakeAllPlan(3), chased)
    budget.check()


def fuzz_plans(players=3):
    zero = (F(0),) * players
    first = (F(1),) + (F(0),) * (players - 1)
    return [
        ConstantPlan(players),
        WinnerTakeAllPlan(players),
        LoserTakeAllPlan(players),
        MLinearPlan(players, F(2), F(-2), F(2)),
        BoundedLinearPlan(players, F(1, 2)),
        TabulatedPlan(players, {zero: first}, (F(1, players),) * players),
    ]


@pytest.mark.criterion(7, "allocation simplex fuzz and fixed-sum tensors")
def test_allocation_contract_fuzz():
    budget = Budget(10)
    for plan in fuzz_plans():
        report = validate_simplex(plan, count=10**4)
        assert report.ok, (plan.kind, report.failure)
        assert report.evaluations >= 10**4
    rng = random.Random(1007)
    for _ in range(3):
        market = random_market(rng, max_actions=3, max_atoms=4)
        for plan in fuzz_plans(2):
            game = induce_game(market, plan, 0)
            for combo in product(range(market.n), repeat=2):
                assert sum(game.payoffs[combo]) == 1
    budget.check()


@pytest.mark.criterion(8, "zero-sum recentered shares")
def test_zero_sum_components():
    budget = Budget(1)
    rng = random.Random(1008)
    for plan in fuzz_plans():
        for _ in range(10**3):
            r = [
                F(rng.randint(-200, 200), rng.randint(1, 60)) for _ in range(plan.players)
            ]
            assert sum(zero_sum_shares(plan, r)) == 0
    budget.check()
