"""Induced games: tensors, deviations, verdicts, dominance, optimality."""

import random
import re
import sys
import time
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import comb, lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bonuslab import (
    ArityMismatch,
    BonusLabError,
    BoundedLinearPlan,
    ConstantPlan,
    ExpectationNotUnique,
    FloatRejected,
    Game,
    GridCapExceeded,
    InvalidParameter,
    LoserTakeAllPlan,
    MixedAction,
    MLinearPlan,
    NonPositiveProbability,
    NonSimplexTable,
    NonSimplexWeights,
    NonUnitMass,
    OptimalityVerdict,
    Profile,
    TabulatedPlan,
    TensorCapExceeded,
    Verdict,
    WinnerTakeAllPlan,
    best_response,
    build_bounded_linear,
    build_market,
    build_m_linear,
    check_nash,
    check_optimal,
    expectation,
    expected_payoffs,
    find_bounding_m,
    induce_game,
    principal_value,
    probe_own_coordinate,
    two_bond_market,
    simplex_grid,
    strict_dominance,
    universality_verdict,
    validate_simplex,
)
import bonuslab.game as game_module
from bonuslab.game import (
    GRID_WEIGHT_CAP,
    TENSOR_CAP,
    Elimination,
    _deviation_scan,
    _walk,
    check_simplex_grid,
)
import bonuslab.market as market_module
from bonuslab.market import GRID_CAP, _multisets_exceed, _power_exceeds, _vertex
from bonuslab.plans import PLAYER_CAP
from conftest import (
    every_kind,
    fraction_allocation,
    fraction_atoms,
    fraction_expectation,
    fraction_value,
    markets,
    plans_with_a_form,
    random_market,
    tensor_dominance,
    tied_markets,
)

F = Fraction


def wta_game(lam=0):
    return induce_game(two_bond_market(), WinnerTakeAllPlan(2), lam)


def test_allocation_tensor_at_weight_zero():
    game = wta_game()
    assert game.payoffs == {
        (0, 0): (F(1, 2), F(1, 2)),
        (0, 1): (F(2, 5), F(3, 5)),
        (1, 0): (F(3, 5), F(2, 5)),
        (1, 1): (F(1, 2), F(1, 2)),
    }


def test_payoffs_are_affine_in_earnings_weight():
    """u_i = (1-w)*share + w*own earnings, checked against both endpoints."""
    market = two_bond_market()
    base = wta_game().payoffs
    expectations = market.expectations()
    for lam in (F(1, 4), F(1, 2), F(9, 10)):
        game = wta_game(lam)
        for combo, values in game.payoffs.items():
            for i, value in enumerate(values):
                share = base[combo][i]
                earn = expectations[combo[i]]
                assert value == share + lam * (earn - share)


def test_symbolic_coefficients_of_the_two_bond_game():
    # slopes are E[own action] - allocation share, per profile and player
    half = wta_game(F(1, 2)).payoffs
    assert half[(1, 0)][0] == F(3, 5) + F(1, 2) * F(2153, 5000)
    assert half[(0, 1)][0] == F(2, 5) + F(1, 2) * F(13, 20)
    assert half[(1, 1)][0] == F(1, 2) + F(1, 2) * F(2653, 5000)


def test_earnings_weight_must_be_in_unit_interval():
    market = two_bond_market()
    for bad in (1, "3/2", -1):
        with pytest.raises(ValueError):
            induce_game(market, WinnerTakeAllPlan(2), bad)


def test_game_checks_its_own_earnings_weight():
    """The constructor makes induce_game's check, with its message: a weight
    outside [0, 1) is InvalidParameter, a float or a bool FloatRejected, and
    a numeric string parses."""
    market, wta = two_bond_market(), WinnerTakeAllPlan(2)
    for bad, error in ((F(3, 2), InvalidParameter), (-1, InvalidParameter),
                       (1, InvalidParameter), (0.5, FloatRejected), (True, FloatRejected)):
        with pytest.raises(error):
            Game(market, wta, bad)
    with pytest.raises(InvalidParameter, match=re.escape("must lie in [0, 1), got 3/2")):
        Game(market, wta, F(3, 2))
    game = Game(market, wta, "1/2")
    assert type(game.earnings_weight) is F and game.earnings_weight == F(1, 2)
    assert game == induce_game(market, wta, F(1, 2))
    assert game.payoff((0, 1)) == (F(29, 40), F(8153, 10000))


def test_a_game_is_built_from_its_market_plan_and_weight_alone():
    """The memo stores are not constructor arguments."""
    market, wta = two_bond_market(), WinnerTakeAllPlan(2)
    with pytest.raises(TypeError):
        Game(market, wta, 0, {})
    with pytest.raises(TypeError):
        Game(market, wta, 0, cells={})


def test_replace_starts_with_empty_memos():
    """A game copied with another weight, plan or market reads the payoffs
    and gains of a fresh game, not the cells its source had filled."""
    market, wta = two_bond_market(), WinnerTakeAllPlan(2)
    other = build_market(["X1", "X2"], [("1/2", ("1", "3")), ("1/2", ("2", "0"))])
    game = induce_game(market, wta)
    for combo in product(range(2), repeat=2):
        game.payoff(combo)
    check_nash(game, Profile.pure((0, 0), 2))
    for copy, fresh in (
        (replace(game, earnings_weight=F(1, 2)), induce_game(market, wta, F(1, 2))),
        (replace(game, plan=LoserTakeAllPlan(2)), induce_game(market, LoserTakeAllPlan(2))),
        (replace(game, market=other), induce_game(other, wta)),
    ):
        assert not copy.cells and not copy.kernels
        for combo in product(range(2), repeat=2):
            assert copy.payoff(combo) == fresh.payoff(combo)
            profile = Profile.pure(combo, 2)
            assert check_nash(copy, profile).gains == check_nash(fresh, profile).gains
    at_half = replace(game, earnings_weight=F(1, 2))
    assert at_half.payoff((0, 1)) == (F(29, 40), F(8153, 10000))
    assert check_nash(at_half, Profile.pure((0, 0), 2)).gains == (F(403, 10000),) * 2


def test_tensor_cap():
    """6^7 = 279 936 profiles: the full tensor is refused before any cell."""
    market = six_action_market()
    game = induce_game(market, build_m_linear(market, 7), 0)
    with pytest.raises(TensorCapExceeded):
        game.payoffs
    assert game.cells == {}
    huge = induce_game(two_bond_market(), WinnerTakeAllPlan(20_000), 0)
    with pytest.raises(TensorCapExceeded):  # 2^20000 is never built or printed
        huge.payoffs


def test_portfolio_payoff_is_computed_atomwise():
    """A half-and-half portfolio beats the sure bond only on the high atom."""
    game = wta_game()
    q = MixedAction(("1/2", "1/2"))
    profile = Profile((q, MixedAction.pure(0, 2)))
    assert expected_payoffs(game, profile) == (F(3, 5), F(2, 5))


def test_fixed_sum_at_weight_zero():
    game = wta_game()
    q = MixedAction(("1/3", "2/3"))
    for profile in (
        Profile((q, q)),
        Profile((q, MixedAction.pure(1, 2))),
        Profile.pure((0, 1), 2),
    ):
        assert sum(expected_payoffs(game, profile)) == 1


def test_principal_value_sums_expectations():
    market = two_bond_market()
    assert principal_value(market, Profile.pure((0, 0), 2)) == F(21, 10)
    q = MixedAction(("1/2", "1/2"))
    assert principal_value(market, Profile((q, q))) == 2 * F(10403, 10000)
    assert expectation(market, q) == F(10403, 10000)


def test_simplex_grid_enumeration():
    points = list(simplex_grid(2, 4))
    assert [p.weights for p in points] == [
        (F(0), F(1)),
        (F(1, 4), F(3, 4)),
        (F(1, 2), F(1, 2)),
        (F(3, 4), F(1, 4)),
        (F(1), F(0)),
    ]
    assert len(list(simplex_grid(3, 2))) == 6


def test_pure_search_completeness_is_market_conditional():
    market = two_bond_market()
    assert ConstantPlan(2).linear_form(market) == (1, 0)
    assert MLinearPlan(2, F(1051, 1000), F(1), F(1051, 1000)).linear_form(market) is not None
    assert MLinearPlan(2, F(2), F(1), F(103, 100)).linear_form(market) is None
    # the largest atom spread is 1/20, so 2*bound = 1/20 is just enough
    assert BoundedLinearPlan(2, F(1, 40)).linear_form(market) is not None
    assert BoundedLinearPlan(2, F(1, 50)).linear_form(market) is None
    assert WinnerTakeAllPlan(2).linear_form(market) is None


def test_best_response_prefers_risky_bond_at_half_weight():
    game = wta_game(F(1, 2))
    br = best_response(game, 0, (MixedAction.pure(0, 2),))
    assert br.strategy.pure_action == 1
    assert br.value == F(8153, 10000)
    assert br.method == "pure-only"


def test_best_response_checks_opponent_count():
    game = wta_game()
    with pytest.raises(ArityMismatch):
        best_response(game, 0, ())


def test_best_response_checks_opponent_arity():
    """A pure opponent over the wrong number of actions is refused, although
    its action index would name a cell of the game."""
    game = wta_game()
    for opponent in (MixedAction.pure(0, 3), MixedAction(("1/2", "1/2", "0"))):
        with pytest.raises(ArityMismatch):
            best_response(game, 0, (opponent,))
    assert game.cells == {}


def test_check_nash_flags_profitable_deviation():
    game = wta_game()
    report = check_nash(game, Profile.pure((0, 0), 2))
    assert report.verdict is Verdict.NOT_EQUILIBRIUM
    assert report.gains == (F(1, 10), F(1, 10))
    assert report.gains[0] == F(1, 10)


def test_check_nash_verdict_depends_on_search_method():
    """Grid search cannot rule out off-grid deviations, and says so."""
    game = wta_game()
    stable = Profile.pure((1, 1), 2)
    assert check_nash(game, stable).verdict is Verdict.EQUILIBRIUM
    gridded = check_nash(game, stable, resolution=20)
    assert gridded.verdict is Verdict.NO_VIOLATION_AT_RESOLUTION
    assert gridded.method == "grid(d=20)"
    assert all(g <= 0 for g in gridded.gains)


def test_check_nash_pure_sufficient_is_decisive():
    market = two_bond_market()
    plan = build_m_linear(market, 2)
    game = induce_game(market, plan, 0)
    report = check_nash(game, Profile.pure((0, 0), 2), resolution=8)
    assert report.method == "pure-sufficient"
    assert report.verdict is Verdict.EQUILIBRIUM


def test_verdict_wire_strings():
    assert Verdict.EQUILIBRIUM.value == "equilibrium"
    assert Verdict.NOT_EQUILIBRIUM.value == "not-equilibrium"
    assert Verdict.NO_VIOLATION_AT_RESOLUTION.value == "no-violation-at-resolution"
    assert OptimalityVerdict.OPTIMAL.value == "optimal"
    assert (
        OptimalityVerdict.NOT_OPTIMAL_AMONG_CHECKED.value
        == "not-optimal-among-checked-profiles"
    )


def test_dominance_favors_risky_bond_at_low_weight():
    report = strict_dominance(wta_game())
    assert report.pairs == ((0, 1, 0), (1, 1, 0))
    assert report.dominates(0, 1, 0) and report.dominates(1, 1, 0)
    assert report.unique_profile == (1, 1)
    assert report.survivors == ((1,), (1,))
    assert [e.round for e in report.eliminations] == [1, 1]


def test_dominance_reverses_past_the_threshold():
    """X2's edge vanishes at weight 500/597 and flips to X1 beyond it."""
    at_threshold = strict_dominance(wta_game(F(500, 597)))
    assert at_threshold.pairs == ()
    assert at_threshold.unique_profile is None
    assert at_threshold.survivors == ((0, 1), (0, 1))
    beyond = strict_dominance(wta_game(F(9, 10)))
    assert beyond.pairs == ((0, 0, 1), (1, 0, 1))
    assert beyond.unique_profile == (0, 0)


def test_iterated_elimination_uses_later_rounds():
    """The middle column only dominates once the bottom row is gone."""
    rows = {
        (0, 0): (3, 1), (0, 1): (1, 2), (0, 2): (1, 1),
        (1, 0): (2, 1), (1, 1): (2, 2), (1, 2): (2, 1),
        (2, 0): (1, 0), (2, 1): (1, 0), (2, 2): (1, 5),
    }
    payoffs = {combo: (F(a), F(b)) for combo, (a, b) in rows.items()}
    from bonuslab.game import Game
    from bonuslab import build_market

    # the payoffs are not symmetric, so the carrier plan must not be anonymous
    carrier = build_market(["a", "b", "c"], [("1", ("0", "0", "0"))])
    game = Game(carrier, TabulatedPlan(2, {}, ("1/2", "1/2")), F(0))
    game.cells.update(payoffs)
    report = strict_dominance(game)
    assert report.pairs == ((0, 1, 2),)  # only the round-1 fact holds full-game
    assert max(e.round for e in report.eliminations) >= 3
    assert report.unique_profile == (1, 1)


def test_check_optimal_rejects_winner_take_all():
    report = check_optimal(two_bond_market(), WinnerTakeAllPlan(2))
    assert report.verdict is OptimalityVerdict.NOT_OPTIMAL_AMONG_CHECKED
    assert report.mu_star == F(21, 20)
    assert report.argmax_actions == (0,)
    assert report.witness is None
    (combo, nested), = report.checked
    assert combo == (0, 0)
    assert nested.verdict is Verdict.NOT_EQUILIBRIUM


def test_check_optimal_accepts_interval_linear_plan():
    market = two_bond_market()
    report = check_optimal(market, build_m_linear(market, 2))
    assert report.verdict is OptimalityVerdict.OPTIMAL
    assert report.witness == (0, 0)


def test_grid_only_stability_is_not_promoted_to_optimal():
    """Without a sufficiency argument the optimality verdict stays guarded."""
    market = two_bond_market()
    lookalike = TabulatedPlan(2, {}, ("1/2", "1/2"))
    assert lookalike.linear_form(market) is None
    report = check_optimal(market, lookalike, resolution=4)
    assert report.verdict is OptimalityVerdict.NOT_OPTIMAL_AMONG_CHECKED
    (_, nested), = report.checked
    assert nested.verdict is Verdict.NO_VIOLATION_AT_RESOLUTION


def test_fixed_sum_on_random_markets(rng):
    from conftest import random_market

    for _ in range(10):
        market = random_market(rng)
        k = rng.choice([2, 3])
        game = induce_game(market, LoserTakeAllPlan(k), 0)
        for combo in product(range(market.n), repeat=k):
            assert sum(game.payoffs[combo]) == 1


# ---------------------------------------------------------------------
# Integer kernels and lazy cells: differential tests against Fraction
# oracles (the evaluation the package did before its integer kernels, on
# the reference allocation rule `conftest.fraction_allocation`),
# and the work a verdict does
# ---------------------------------------------------------------------


def fraction_cell(plan, w, rows):
    """Oracle: expected payoffs over (probability, result-vector) rows, in Fractions."""
    totals = [F(0)] * plan.players
    for p, results in rows:
        shares = fraction_allocation(plan, results)
        for i in range(plan.players):
            totals[i] += p * ((1 - w) * shares[i] + w * results[i])
    return tuple(totals)


def eager_tensor(market, plan, w):
    """Reference: every pure profile tabulated up front, atom by atom."""
    atoms = fraction_atoms(market)
    return {
        combo: fraction_cell(plan, w, ((p, tuple(row[a] for a in combo)) for p, row in atoms))
        for combo in product(range(market.n), repeat=plan.players)
    }


def pointwise_payoffs(market, plan, w, profile):
    """Reference: a mixed profile's payoffs, portfolios realized per atom."""
    rows = (
        (p, tuple(fraction_value(s, row) for s in profile.strategies))
        for p, row in fraction_atoms(market)
    )
    return fraction_cell(plan, w, rows)


def oracle_best_response(market, plan, w, player, opponents, resolution):
    """Oracle: every candidate valued in Fractions; the earliest strict best wins."""
    n = market.n
    candidates = [MixedAction.pure(a, n) for a in range(n)]
    if resolution is not None and plan.linear_form(market) is None:
        # the grid's off-vertex points in lexicographic order, enumerated here
        counts = product(range(resolution), repeat=n)
        candidates += [
            MixedAction(tuple(F(c, resolution) for c in combo))
            for combo in counts
            if sum(combo) == resolution
        ]
    best, best_value = None, None
    for candidate in candidates:
        row = list(opponents)
        row.insert(player, candidate)
        value = pointwise_payoffs(market, plan, w, Profile(tuple(row)))[player]
        if best is None or value > best_value:
            best, best_value = candidate, value
    return best.weights, best_value


@st.composite
def mixed_profiles(draw, n, k):
    strategies = []
    for _ in range(k):
        raw = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any))
        strategies.append(MixedAction(tuple(F(r, sum(raw)) for r in raw)))
    return Profile(tuple(strategies))


@settings(max_examples=40, deadline=None)
@given(markets(), st.integers(2, 3), st.data())
def test_lazy_cells_match_the_eager_tensor(market, k, data):
    for plan in every_kind(market, k):
        for w in (F(0), F(1, 3), F(9, 10)):
            oracle = eager_tensor(market, plan, w)
            game = induce_game(market, plan, w)
            # read a few cells first, so the memo is partly filled out of order
            for combo in data.draw(st.lists(st.sampled_from(list(oracle)), max_size=3)):
                assert game.payoff(combo) == oracle[combo]
            assert list(game.payoffs.items()) == list(oracle.items())
            # every cell is kept, as the oracle's numerators over the game's denominator
            denominator = game._scoring(market.integer_view.scale).denominator
            assert game.cells == {
                combo: tuple(v * denominator for v in values) for combo, values in oracle.items()
            }
            profile = data.draw(mixed_profiles(market.n, k))
            assert expected_payoffs(game, profile) == pointwise_payoffs(
                market, plan, w, profile
            )


@settings(max_examples=40, deadline=None)
@given(markets(), st.integers(2, 3), st.data())
def test_principal_value_matches_the_fraction_oracle(market, k, data):
    """Portfolios of unlike units, each scaled to the profile's unit: the
    total equals the Fraction expectations summed atom by atom."""
    profile = data.draw(mixed_profiles(market.n, k))
    assert principal_value(market, profile) == sum(
        (fraction_expectation(market, s) for s in profile.strategies), start=F(0)
    )


@settings(max_examples=40, deadline=None)
@given(markets(), st.integers(2, 3))
def test_cells_hold_numerators_over_the_game_denominator(market, k):
    """Each memoized cell is a tuple of ints over one denominator per game,
    and over it equals the Fraction oracle."""
    for plan in every_kind(market, k):
        for w in (F(0), F(1, 3)):
            game = induce_game(market, plan, w)
            game.payoffs  # fills every cell
            denominator = game._scoring(market.integer_view.scale).denominator
            atoms = fraction_atoms(market)
            for combo, numerators in game.cells.items():
                assert all(type(x) is int for x in numerators)
                rows = ((p, tuple(row[a] for a in combo)) for p, row in atoms)
                assert tuple(F(x, denominator) for x in numerators) == fraction_cell(plan, w, rows)


@settings(max_examples=30, deadline=None)
@given(markets() | tied_markets(), st.integers(2, 5))
def test_pure_cells_from_the_linear_form_match_the_atom_rows(market, k):
    """Where a plan is pure-sufficient on the market, the game holds its
    linear form and a pure cell's share sums come from the actions'
    expectation sums by it, with no `_share_sums` call; elsewhere
    `_share_sums` runs on the atom rows once per cell.  Either way each cell,
    and the whole tensor, is the plan's share sums on the profile's atom
    rows and each player's expected result summed over those rows, weighed
    by the game's integer weights."""
    view = market.integer_view
    covered = set()
    for plan in plans_with_a_form(market, k):
        form = plan.linear_form(market)
        covered.add(form is not None)
        original = type(plan)._share_sums
        calls = []

        def counting(self, *args):
            calls.append(args)
            return original(self, *args)

        for w in (F(0), F(1, 3), F(1, 2)):
            game = induce_game(market, plan, w)
            assert game._affine == form
            scoring = game._scoring(view.scale)
            expected = {}
            for combo in product(range(market.n), repeat=k):
                rows = [tuple(row[a] for a in combo) for row in view.values]
                shares = plan._share_sums(scoring.kernel, rows, view.weights)
                earnings = [sum(map(mul, view.weights, column)) for column in zip(*rows)]
                expected[combo] = tuple(
                    scoring.bonus_weight * b + scoring.result_weight * e
                    for b, e in zip(shares, earnings)
                )
            calls.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(type(plan), "_share_sums", counting)
                assert {combo: game._numerators(combo) for combo in expected} == expected
            assert len(calls) == (0 if form else len(expected))
            tensor = induce_game(market, plan, w).payoffs
            assert tensor == {
                combo: tuple(F(x, scoring.denominator) for x in cell)
                for combo, cell in expected.items()
            }
    assert True in covered


@settings(max_examples=25, deadline=None)
@given(markets() | tied_markets(), st.integers(2, 4))
def test_cells_at_weight_zero_are_the_share_sums(market, k):
    """A w = 0 game's cells are each player's share sums on the atom rows,
    exactly, over mass * kernel denominator; at any w the payoff is
    (1 - w) * B / (mass * kden) + w * E / (mass * scale), B read from those
    cells and E from the expectation sums."""
    view, sums = market.integer_view, market.expectation_sums
    for plan in every_kind(market, k) + plans_with_a_form(market, k):
        kernel = plan.kernel(view.scale)
        shares_over = view.mass * kernel.denominator
        game = induce_game(market, plan, 0)
        assert game._scoring(view.scale).denominator == shares_over
        for combo in product(range(market.n), repeat=k):
            rows = [tuple(row[a] for a in combo) for row in view.values]
            assert game._numerators(combo) == tuple(plan._share_sums(kernel, rows, view.weights))
        for w in (F(1, 3), F(9, 10)):
            weighed = induce_game(market, plan, w)
            for combo, shares in game.cells.items():
                assert weighed.payoff(combo) == tuple(
                    (1 - w) * F(b, shares_over) + w * F(sums[a], view.mass * view.scale)
                    for b, a in zip(shares, combo)
                )


@settings(max_examples=30, deadline=None)
@given(markets() | tied_markets(), st.integers(2, 4), st.data())
def test_pure_best_response_under_a_form_reads_one_cell(market, k, data):
    """Against pure opponents under the affine form, the best response is
    the scan's over all n actions, in strategy and value, and reads one
    cell: the earliest action of largest expectation, or action 0 when no
    action moves the payoff (c = 0, the constant plan at w = 0)."""
    n = market.n
    for plan in plans_with_a_form(market, k):
        if plan.linear_form(market) is None:
            continue
        for w in (F(0), F(1, 3)):
            game = induce_game(market, plan, w)
            player = data.draw(st.integers(0, k - 1))
            opponents = [MixedAction.pure(data.draw(st.integers(0, n - 1)), n)
                         for _ in range(k - 1)]
            br = best_response(game, player, opponents)
            assert (br.strategy.weights, br.value) == oracle_best_response(
                market, plan, w, player, opponents, None
            )
            assert br.method == "pure-sufficient"
            assert len(game.cells) == 1
    # every action pays 1/2: action 0 wins the tie, not the best expectation
    market = build_market(["A", "B"], [("1", ("0", "1"))])
    br = best_response(induce_game(market, ConstantPlan(2), 0), 0, [MixedAction.pure(1, 2)])
    assert (br.strategy.pure_action, br.value) == (0, F(1, 2))


@settings(max_examples=30, deadline=None)
@given(markets() | tied_markets(), st.integers(2, 4), st.data())
def test_portfolio_cells_from_the_linear_form_match_the_atom_rows(market, k, data):
    """Under a linear form a cell at a profile of portfolios is the plan's
    share sums on the atom rows at the profile's unit, and each player's
    expected result summed over those rows, weighed by the game's weights at
    that unit, exactly; the rows come from the Fraction values and no
    `_share_sums` call is made."""
    view = market.integer_view
    calls = []
    for plan in plans_with_a_form(market, k):
        if plan.linear_form(market) is None:
            continue
        original = type(plan)._share_sums

        def counting(self, *args):
            calls.append(args)
            return original(self, *args)

        for w in (F(0), F(1, 3)):
            game = induce_game(market, plan, w)
            profile = data.draw(mixed_profiles(market.n, k))
            unit = lcm(*(s.unit for s in profile.strategies))
            scoring = game._scoring(view.scale * unit)
            rows = [
                tuple(fraction_value(s, outcomes) * view.scale * unit for s in profile.strategies)
                for _, outcomes in fraction_atoms(market)
            ]
            assert all(x.denominator == 1 for row in rows for x in row)
            rows = [tuple(int(x) for x in row) for row in rows]
            shares = plan._share_sums(scoring.kernel, rows, view.weights)
            earnings = [sum(map(mul, view.weights, column)) for column in zip(*rows)]
            expected = tuple(
                scoring.bonus_weight * b + scoring.result_weight * e
                for b, e in zip(shares, earnings)
            )
            calls.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(type(plan), "_share_sums", counting)
                cell = game._profile_cell(profile.strategies)
            assert cell == (expected, scoring.denominator)
            assert calls == []


def refuse(*args):
    raise AssertionError("an atom was read")


@settings(max_examples=20, deadline=None)
@given(markets() | tied_markets(), st.integers(2, 4), st.data())
def test_no_search_under_a_linear_form_reads_an_atom(market, k, data):
    """With the plan's `_share_sums` and `_run_sums`, and the deviation
    scan, all raising, every payoff, best response, equilibrium
    check and optimality check under a linear form still runs, at pure and
    portfolio profiles, and gives the Fraction oracle's values."""
    n = market.n
    for plan in plans_with_a_form(market, k):
        if plan.linear_form(market) is None:
            continue
        pure = Profile.pure(tuple(data.draw(st.integers(0, n - 1)) for _ in range(k)), n)
        mixed = data.draw(mixed_profiles(n, k))
        expected = {
            w: [pointwise_payoffs(market, plan, w, profile) for profile in (pure, mixed)]
            for w in (F(0), F(1, 3))
        }
        optimal = check_optimal(market, plan)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(type(plan), "_share_sums", refuse)
            patch.setattr(type(plan), "_run_sums", refuse)
            patch.setattr(game_module, "_deviation_scan", refuse)
            for w in (F(0), F(1, 3)):
                game = induce_game(market, plan, w)
                for profile, payoffs in zip((pure, mixed), expected[w]):
                    assert expected_payoffs(game, profile) == payoffs
                    player = data.draw(st.integers(0, k - 1))
                    others = [s for i, s in enumerate(profile.strategies) if i != player]
                    for resolution in (None, 4):
                        br = best_response(game, player, others, resolution)
                        assert (br.strategy.weights, br.value) == oracle_best_response(
                            market, plan, w, player, others, resolution
                        )
                        report = check_nash(game, profile, resolution)
                        assert report.payoffs == payoffs
                        assert report.method == "pure-sufficient"
            for resolution in (None, 4):
                assert check_optimal(market, plan, resolution) == optimal


@settings(max_examples=30, deadline=None)
@given(markets() | tied_markets(), st.integers(2, 4), st.data())
def test_best_response_against_portfolios_under_a_form_matches_the_scan(market, k, data):
    """Against portfolio opponents under a linear form the one cell's answer
    is the d = 1 deviation scan's, in strategy and value: the earliest
    action of largest expectation when c > 0, else action 0."""
    n = market.n
    for plan in plans_with_a_form(market, k):
        if plan.linear_form(market) is None:
            continue
        for w in (F(0), F(1, 3)):
            player = data.draw(st.integers(0, k - 1))
            opponents = data.draw(mixed_profiles(n, k)).strategies[1:]
            br = best_response(induce_game(market, plan, w), player, opponents)
            winner, value = _deviation_scan(induce_game(market, plan, w), player, opponents, 1)
            assert (br.strategy, br.value) == (_vertex(winner, n), value)
    # every action pays 1/2 against a portfolio: action 0 wins the tie
    market = build_market(["A", "B"], [("1", ("0", "1"))])
    half = MixedAction((F(1, 2), F(1, 2)))
    br = best_response(induce_game(market, ConstantPlan(2), 0), 0, [half])
    assert (br.strategy.pure_action, br.value) == (0, F(1, 2))


@settings(max_examples=30, deadline=None)
@given(markets(), st.integers(2, 3), st.none() | st.integers(1, 6), st.data())
def test_grid_best_response_matches_the_fraction_oracle(market, k, resolution, data):
    """Same strategy and the same exact value, ties broken the same way."""
    for plan in every_kind(market, k):
        for w in (F(0), F(1, 3), F(9, 10)):
            game = induce_game(market, plan, w)
            player = data.draw(st.integers(0, k - 1))
            opponents = data.draw(mixed_profiles(market.n, k)).strategies[1:]
            if data.draw(st.booleans()):  # pure opponents: cells are read
                opponents = tuple(
                    MixedAction.pure(data.draw(st.integers(0, market.n - 1)), market.n)
                    for _ in opponents
                )
            br = best_response(game, player, opponents, resolution)
            assert (br.strategy.weights, br.value) == oracle_best_response(
                market, plan, w, player, opponents, resolution
            )


def test_grid_ties_keep_the_earliest_candidate():
    market = two_bond_market()
    # every portfolio ties under an equal split: the first pure action stays
    flat = induce_game(market, TabulatedPlan(2, {}, ("1/2", "1/2")), 0)
    for resolution in (None, 6):
        br = best_response(flat, 0, (MixedAction.pure(0, 2),), resolution)
        assert (br.strategy.pure_action, br.value) == (0, F(1, 2))
    # against the safe bond every portfolio with risky weight in (0, 1] wins
    # the high atom alone, as the pure risky bond does: it stays the best
    wta = induce_game(market, WinnerTakeAllPlan(2), 0)
    br = best_response(wta, 1, (MixedAction.pure(0, 2),), resolution=6)
    assert (br.strategy.pure_action, br.value) == (1, F(3, 5))
    # only a portfolio beats the opponent's sure 1 on both atoms; (1/6, 2/6,
    # 3/6) does too, but (0, 1/2, 1/2) comes first in the grid's order
    spread = build_market(["X1", "X2", "X3"], [("1/2", ("1", "3", "0")), ("1/2", ("1", "0", "3"))])
    game = induce_game(spread, WinnerTakeAllPlan(2), 0)
    br = best_response(game, 0, (MixedAction.pure(0, 3),), resolution=6)
    assert (br.strategy.weights, br.value) == ((0, F(1, 2), F(1, 2)), F(1))
    # under LTA against the risky bond every portfolio with safe weight in
    # (0, 1] is alone at the bottom of the high atom, as the safe bond is:
    # the grid points tie the safe vertex, which the walk's one run reaches
    # last, after them, but which is scored first
    lta = induce_game(market, LoserTakeAllPlan(2), 0)
    br = best_response(lta, 1, (MixedAction.pure(1, 2),), resolution=6)
    assert (br.strategy.pure_action, br.value) == (0, F(3, 5))
    # against C's sure 1/2 only an A-B mix wins both atoms: c = 2, 3, 4 of
    # the first run (0, c, 6 - c) tie at 1, and its earliest point wins
    mixes = build_market(["C", "A", "B"], [("1/2", ("1/2", "2", "0")), ("1/2", ("1/2", "0", "2"))])
    for plan in (WinnerTakeAllPlan(2), TabulatedPlan(2, {}, ("1/2", "1/2"))):
        br = best_response(induce_game(mixes, plan, 0), 0, (MixedAction.pure(0, 3),), 6)
        if plan.kind == "wta":
            assert (br.strategy.weights, br.value) == ((0, F(1, 3), F(2, 3)), F(1))
        else:  # every candidate ties under an equal split: C's vertex stays
            assert (br.strategy.pure_action, br.value) == (0, F(1, 2))


def test_check_nash_reads_only_the_deviation_cells():
    """WTA is anonymous: both players play X1, so player 1 reuses player 0's
    search and its deviation cell (0, 1) is never read."""
    game = wta_game()
    report = check_nash(game, Profile.pure((0, 0), 2))
    assert sorted(game.cells) == [(0, 0), (1, 0)]
    assert [br.player for br in report.deviations] == [0, 1]


def test_check_nash_searches_every_player_under_a_tabulated_plan():
    market = two_bond_market()
    table = TabulatedPlan(2, {("21/20", "1"): ("0", "1")}, ("1/2", "1/2"))
    game = induce_game(market, table, 0)
    report = check_nash(game, Profile.pure((0, 0), 2))
    assert sorted(game.cells) == [(0, 0), (0, 1), (1, 0)]
    # the table rewards player 1 alone for X2's low atom against X1: only
    # player 1 gains by deviating, 2/5 * 1 + 3/5 * 1/2 - 1/2
    assert report.gains == (F(0), F(1, 5))


def test_check_nash_keys_each_distinct_strategy_apart():
    """Under an anonymous plan only equal strategies share a search:
    (1/2, 1/2) and (1/3, 2/3) have the same first count, face different
    opponents, and each gets its own best response."""
    market, plan, w = two_bond_market(), WinnerTakeAllPlan(2), F(1, 3)
    a, b = MixedAction(("1/2", "1/2")), MixedAction(("1/3", "2/3"))
    report = check_nash(induce_game(market, plan, w), Profile((a, b)), 6)
    fresh = induce_game(market, plan, w)
    assert report.deviations == (best_response(fresh, 0, [b], 6), best_response(fresh, 1, [a], 6))
    assert report.deviations[0].strategy != report.deviations[1].strategy


def test_compositions_follow_the_old_grid_order():
    """The walk's runs, expanded, are the count vectors in product order,
    the grid's old order, each with its dot products against random
    integer columns, computed here term by term.  A run (outer, left, dots)
    holds the points (*outer, c, left - c), cut to the arity, for c = 0..left,
    each the one before plus the inner step; one column and d = 0 are the
    edge shapes."""
    rng = random.Random(18)
    for arity in range(1, 6):
        for d in range(0, 8):
            expected = [c for c in product(range(d + 1), repeat=arity) if sum(c) == d]
            atoms = rng.randint(0, 6)
            columns = [[rng.randint(-50, 50) for _ in range(atoms)] for _ in range(arity)]
            inner, runs = _walk(columns, d)
            assert len(inner) == atoms
            points = []
            for outer, left, dots in runs:
                for c in range(left + 1):
                    points.append(((*outer, c, left - c)[:arity], dots))
                    dots = [x + y for x, y in zip(dots, inner)]
            assert [counts for counts, _ in points] == expected  # product order is lexicographic
            assert len(points) == comb(d + arity - 1, arity - 1)
            for counts, dots in points:
                assert list(dots) == [
                    sum(c * column[t] for c, column in zip(counts, columns))
                    for t in range(atoms)
                ]
            if d:
                assert [p.weights for p in simplex_grid(arity, d)] == [
                    tuple(F(c, d) for c in counts) for counts in expected
                ]


def test_walks_go_past_the_recursion_limit():
    """A d = 1 grid over 2 000 actions, more than the interpreter's default
    recursion limit of 1 000: the witness sweep, simplex_grid and a search
    against a mixed opponent all finish, with or without a grid."""
    n = 2_000
    market = build_market([f"A{i}" for i in range(n)], [("1", tuple(map(str, range(n))))])
    result = find_bounding_m(market, 1)
    assert (result.best_action, result.bound, result.min_gap) == (n - 1, n - 1, 1)
    # lexicographic order puts the last action's vertex first
    assert [w.weights.index(1) for w in result.witnesses] == list(range(n - 2, -1, -1))
    assert [p.pure_action for p in simplex_grid(n, 1)] == list(range(n - 1, -1, -1))
    # the opponent's portfolio holds (n - 1) / 2: the first action above it takes all
    game = induce_game(market, WinnerTakeAllPlan(2), 0)
    opponent = MixedAction((F(1, 2),) + (F(0),) * (n - 2) + (F(1, 2),))
    for resolution in (None, 1):
        br = best_response(game, 0, (opponent,), resolution)
        assert (br.strategy.pure_action, br.value) == (n // 2, 1)


@st.composite
def shared_profiles(draw, n, k):
    """Profiles drawn from a pool of two strategies, so players often share
    one; pure or mixed."""
    if draw(st.booleans()):
        pool = [MixedAction.pure(draw(st.integers(0, n - 1)), n) for _ in range(2)]
    else:
        pool = list(draw(mixed_profiles(n, 2)).strategies)
    return Profile(tuple(draw(st.sampled_from(pool)) for _ in range(k)))


@settings(max_examples=30, deadline=None)
@given(markets(), st.integers(2, 4), st.data())
def test_check_nash_matches_one_best_response_per_player(market, k, data):
    """A shared search reports what that player's own search reports, and
    its gain is that player's deviation value less its payoff."""
    resolution = data.draw(st.sampled_from([None, 1, 2, 3, 4]))
    for plan in every_kind(market, k) + plans_with_a_form(market, k):
        for w in (F(0), F(1, 3)):
            game = induce_game(market, plan, w)
            profile = data.draw(shared_profiles(market.n, k))
            report = check_nash(game, profile, resolution)
            fresh = induce_game(market, plan, w)
            for player in range(k):
                others = profile.strategies[:player] + profile.strategies[player + 1 :]
                br = best_response(fresh, player, others, resolution)
                assert report.deviations[player] == br
                assert report.gains[player] == br.value - report.payoffs[player]


def six_action_market():
    atoms = [
        ("1/2", ("3", "1", "2", "0", "5/2", "1")),
        ("1/4", ("1", "4", "0", "2", "1/2", "3")),
        ("1/4", ("2", "0", "3", "1", "1", "-1")),
    ]
    return build_market([f"A{i}" for i in range(6)], atoms)


def test_check_nash_at_five_players_reads_k_times_n_cells():
    market = six_action_market()
    plan = build_m_linear(market, 5)
    game = induce_game(market, plan, 0)
    best = max(range(6), key=market.expectations().__getitem__)
    report = check_nash(game, Profile.pure((best,) * 5, 6))
    assert report.verdict is Verdict.EQUILIBRIUM
    assert len(game.cells) <= 1 + 5 * 5  # of the 6**5 = 7776 profiles


def test_check_optimal_is_not_refused_for_the_size_of_the_tensor():
    """At k = 7 the tensor has 6^7 = 279 936 profiles, over the cap, but the
    verdict reads one profile and its unilateral deviations."""
    market = six_action_market()
    plan = build_m_linear(market, 7)
    report = check_optimal(market, plan)
    assert report.verdict is OptimalityVerdict.OPTIMAL
    ((combo, nash),) = report.checked
    assert nash.method == "pure-sufficient"
    game = induce_game(market, plan, 0)
    check_nash(game, Profile.pure(combo, 6))
    assert len(game.cells) <= 1 + 7 * 5


def test_check_optimal_caps_the_best_expectation_profiles():
    """Under an anonymous plan the candidates are the sorted profiles."""
    tied = build_market(["A", "B"], [("1", ("1", "1"))])
    # 2^18 = 262 144 profiles, but only 19 sorted ones
    report = check_optimal(tied, WinnerTakeAllPlan(18))
    assert report.verdict is OptimalityVerdict.OPTIMAL
    assert report.witness == (0,) * 18
    six = build_market([f"A{i}" for i in range(6)], [("1", ("1",) * 6)])
    with pytest.raises(TensorCapExceeded):
        check_optimal(six, WinnerTakeAllPlan(27))  # C(32, 5) = 201 376 sorted profiles
    assert check_optimal(six, WinnerTakeAllPlan(26)).witness == (0,) * 26  # C(31, 5)


def test_check_optimal_caps_every_profile_under_a_tabulated_plan():
    tied = build_market(["A", "B"], [("1", ("1", "1"))])
    for k, refused in ((18, True), (17, False)):  # 2^18 = 262 144 candidate profiles
        plan = TabulatedPlan(k, {}, (F(1, k),) * k)
        if refused:
            with pytest.raises(TensorCapExceeded):
                check_optimal(tied, plan)
        else:
            # no sufficiency argument: the pure-only verdict is decisive
            assert check_optimal(tied, plan).witness == (0,) * k


def test_check_optimal_scans_sorted_profiles_under_an_anonymous_plan():
    """Sorted profiles come first in product order and share the verdict of
    their permutations, so the witness is the one the full scan finds."""
    tied = build_market(["A", "B", "C"], [("1/2", ("2", "0", "1")), ("1/2", ("0", "2", "1"))])
    for plan in (WinnerTakeAllPlan(3), LoserTakeAllPlan(3), ConstantPlan(3)):
        report = check_optimal(tied, plan)
        checked = [combo for combo, _ in report.checked]
        assert all(list(combo) == sorted(combo) for combo in checked)
        game = induce_game(tied, plan, 0)
        full_scan = next(
            (
                combo
                for combo in product(range(3), repeat=3)
                if check_nash(game, Profile.pure(combo, 3)).verdict is Verdict.EQUILIBRIUM
            ),
            None,
        )
        assert report.witness == full_scan


def test_strict_dominance_runs_on_sorted_opponent_profiles():
    """At k = 7 the tensor has 6^7 = 279 936 profiles, over the cap; under
    winner-take-all, which states no linear form, one relation over sorted
    opponent profiles reads at most 6 * C(11, 6) = 2 772."""
    market = six_action_market()
    game = induce_game(market, WinnerTakeAllPlan(7), 0)
    report = strict_dominance(game)
    assert len(report.survivors) == 7 and len(set(report.survivors)) == 1
    assert {p for p, _, _ in report.pairs} <= set(range(7))
    assert 0 < len(game.cells) <= 6 * comb(11, 6)
    assert all(list(combo[1:]) == sorted(combo[1:]) for combo in game.cells)


def test_strict_dominance_builds_no_fraction(monkeypatch):
    """The relation compares cell numerators, or under the affine form
    expectation sums and reads no cell; no Fraction is made, while reading
    a payoff does make them through the same counted name."""
    import bonuslab.game as game_module

    built = []

    def counting(*args):
        built.append(args)
        return F(*args)

    market = six_action_market()
    plans = every_kind(market, 3) + [build_m_linear(market, 3)]
    games = [induce_game(market, plan, w) for plan in plans for w in (F(0), F(1, 3))]
    monkeypatch.setattr(game_module, "Fraction", counting)
    for game in games:
        strict_dominance(game)
        assert bool(game.cells) is (game._affine is None)
    assert built == []
    games[0].payoff((0, 0, 0))
    assert built


def test_strict_dominance_caps_the_cells_it_may_read():
    market = six_action_market()
    # anonymous: 6 * C(16, 5) = 26 208 cells times 12 players at k = 12, over
    # the cap; under a linear form the relation reads no cell, and the cap
    # bounds the 6 x 6 pairs of each player its report may list
    game = induce_game(market, WinnerTakeAllPlan(12), 0)
    with pytest.raises(TensorCapExceeded, match=re.escape(
        "6 x C(11 + 6 - 1, 5) cells x 12 players exceed cap 200000"
    )):
        strict_dominance(game)
    assert game.cells == {}
    means = market.expectations()
    for k in (12, 5_555):  # 36 * 5 555 = 199 980, at the cap
        game = induce_game(market, build_m_linear(market, k), 0)
        report = strict_dominance(game)
        assert report.pairs == tuple(
            (p, a, b) for p in range(k) for a in range(6) for b in range(6) if means[a] > means[b]
        )
        assert report.unique_profile == (0,) * k
        assert game.cells == {}
    game = induce_game(market, build_m_linear(market, 5_556), 0)
    with pytest.raises(TensorCapExceeded, match=re.escape(
        "6 x 6 pairs x 5556 players exceed cap 200000"
    )):
        strict_dominance(game)
    assert game.cells == {}
    # anonymous: 6 * C(23, 5) = 201 894 cells at k = 19, over the cap
    game = induce_game(market, WinnerTakeAllPlan(19), 0)
    with pytest.raises(TensorCapExceeded):
        strict_dominance(game)
    assert game.cells == {}
    # tabulated: every player's relation over the 6^7 = 279 936 profiles
    table = induce_game(market, TabulatedPlan(7, {}, (F(1, 7),) * 7), 0)
    with pytest.raises(TensorCapExceeded):
        strict_dominance(table)
    assert table.cells == {}
    small = induce_game(market, TabulatedPlan(6, {}, (F(1, 6),) * 6), 0)
    assert strict_dominance(small).pairs == ()  # 6^6 = 46 656 profiles: at most


def test_strict_dominance_caps_cells_times_players():
    """Each cell sums k shares per atom, so the shared relation is capped on
    its 2 * C(k, k - 1) = 2k cells times k players on the two-bond market:
    2 * 316^2 = 199 712 is allowed, 2 * 317^2 = 200 978 is refused."""
    market = two_bond_market()
    assert 2 * 316**2 <= TENSOR_CAP < 2 * 317**2
    for k in (317, 20_000):
        game = induce_game(market, WinnerTakeAllPlan(k), 0)
        with pytest.raises(TensorCapExceeded, match=f"x {k} players"):
            strict_dominance(game)
        assert game.cells == {}
    game = induce_game(market, WinnerTakeAllPlan(316), 0)
    report = strict_dominance(game)
    assert report.pairs == () and report.survivors == ((0, 1),) * 316
    assert len(game.cells) <= 2 * 316


def test_multiset_count_guard_matches_the_binomial():
    """Over the cap, the guard returns the binomial's shape, and the shape
    names the count; at or under it, None."""
    for n in range(1, 8):
        for size in range(0, 12):
            count = comb(n + size - 1, size)
            shape = f"C({size} + {n} - 1, {min(size, n - 1)})"
            assert comb(n + size - 1, min(size, n - 1)) == count
            for cap in (0, 1, count - 1, count, count + 1, 200_000):
                assert _multisets_exceed(n, size, cap) == (shape if count > cap else None)
    # huge counts are decided within a few steps, without the binomial
    huge = 10**12
    assert _multisets_exceed(2, huge, 200_000) == f"C({huge} + 2 - 1, 1)"
    assert _multisets_exceed(huge, huge, 200_000) == f"C({huge} + {huge} - 1, {huge - 1})"
    assert _multisets_exceed(1, huge, 200_000) is None
    # written from the inputs: n + size - 1 has 4 301 digits, past the limit
    # of int-to-str, while n and size are not
    nines = 10**4300 - 1
    assert _multisets_exceed(3, nines, 200_000) == "C(an int of 4300 digits + 3 - 1, 2)"


def test_power_guard_matches_the_power():
    for n in range(1, 8):
        for k in range(0, 12):
            for cap in (0, 1, n**k - 1, n**k, n**k + 1, 200_000):
                assert _power_exceeds(n, k, cap) == (f"{n}^{k}" if n**k > cap else None)
    assert _power_exceeds(2, 10**12, 200_000) == f"2^{10**12}"
    assert _power_exceeds(1, 10**12, 200_000) is None


def test_messages_write_ints_past_the_digit_limit():
    """An int too long for int-to-str is written by its size, and the call
    ends in its typed error, not in the ValueError of int-to-str."""
    huge, limit = 10**5000, sys.get_int_max_str_digits()
    over, negative = f"an int of over {limit} digits", f"a negative int of over {limit} digits"
    assert _multisets_exceed(3, huge, 200_000) == f"C({over} + 3 - 1, 2)"
    assert _power_exceeds(2, huge, 200_000) == f"2^{over}"
    cases = [
        (lambda: check_simplex_grid(2, huge), GridCapExceeded, f"C({over} + 2 - 1, 1)"),
        (
            lambda: check_simplex_grid(huge, 1),
            GridCapExceeded, f"C(1 + {over} - 1, 1) grid points over {over} actions",
        ),
        (
            lambda: induce_game(two_bond_market(), WinnerTakeAllPlan(huge)).payoffs,
            ArityMismatch, f"{over} players exceed cap {PLAYER_CAP}",
        ),
        (lambda: WinnerTakeAllPlan(-huge), ArityMismatch, f"got {negative}"),
        (lambda: list(simplex_grid(-huge, 2)), ArityMismatch, f"got {negative}"),
        (lambda: TabulatedPlan(huge, {}, ("1",)), ArityMismatch,
         f"{over} players exceed cap {PLAYER_CAP}"),
        (lambda: TabulatedPlan(huge, {(1,): (1,)}, ("1",)), ArityMismatch,
         f"{over} players exceed cap {PLAYER_CAP}"),
    ]
    for call, error, text in cases:
        with pytest.raises(error, match=re.escape(text)):
            call()


def test_a_plan_past_the_player_cap_ends_in_a_typed_error():
    """On the two-bond market a plan of 10**5000 players ended in a bare
    ValueError (expected_payoffs, best_response, strict_dominance,
    probe_own_coordinate) or OverflowError (Game.payoff, check_optimal).
    Each call now ends in the constructor's ArityMismatch within a second,
    and so do the builders given that player count."""
    market, huge = two_bond_market(), 10**5000
    over = f"an int of over {sys.get_int_max_str_digits()} digits"

    def game():
        return induce_game(market, WinnerTakeAllPlan(huge), 0)

    calls = [
        lambda: expected_payoffs(game(), Profile.pure((0, 1), 2)),
        lambda: best_response(game(), 0, [MixedAction.pure(0, 2)]),
        lambda: strict_dominance(game()),
        lambda: probe_own_coordinate(WinnerTakeAllPlan(huge), ("0", "1")),
        lambda: game().payoff((0, 0)),
        lambda: check_optimal(market, WinnerTakeAllPlan(huge)),
        lambda: build_m_linear(market, huge),
        lambda: build_bounded_linear(market, huge, 2),
    ]
    for call in calls:
        start = time.perf_counter()
        with pytest.raises(ArityMismatch, match=re.escape(f"{over} players exceed cap")):
            call()
        assert time.perf_counter() - start < 1


def test_messages_write_rationals_past_the_digit_limit():
    """A number from input too long for int-to-str, such as 10**limit from
    "1e<limit>", is written by its sign and the digit limit, alone or in a
    tuple, and the call ends in its typed error, not in the ValueError of
    int-to-str."""
    limit = sys.get_int_max_str_digits()
    big, tiny, huge = f"1e{limit}", f"1e-{limit}", F(10**limit)
    over, negative = f"a rational of over {limit} digits", f"a negative rational of over {limit}"
    wta = WinnerTakeAllPlan(2)
    cases = [
        (lambda: MixedAction((f"-{big}", "1")), NonSimplexWeights,
         f"weights out of [0, 1]: ({negative} digits, 1)"),
        (lambda: MixedAction((tiny, "1")), NonSimplexWeights,
         f"weights sum to {over}, not 1: ({over}, 1)"),
        (lambda: build_market(["A"], [(f"-{big}", ["1"]), ("1", ["1"])]),
         NonPositiveProbability, f"atom probability {negative}"),
        (lambda: build_market(["A"], [(tiny, ["1"]), ("1", ["1"])]),
         NonUnitMass, f"atom probabilities sum to {over}, not 1"),
        (lambda: induce_game(two_bond_market(), wta, f"-{big}"),
         InvalidParameter, f"got {negative}"),
        (lambda: BoundedLinearPlan(2, f"-{big}"), InvalidParameter, f"got {negative}"),
        (lambda: MLinearPlan(2, "1", big, "0"), InvalidParameter, f"empty interval [{over}, 0]"),
        (lambda: MLinearPlan(2, "1", "0", big), InvalidParameter,
         f"interval width {over} exceeds 2*bound = 2"),
        (lambda: TabulatedPlan(2, {}, (big, "0")), NonSimplexTable,
         f"fallback: ({over}, 0) is not on the simplex"),
        (lambda: TabulatedPlan(2, {(huge, F(0)): ("2", "-1")}, ("1", "0")), NonSimplexTable,
         f"table entry ({over}, 0): (2, -1)"),
        (lambda: TabulatedPlan(2, {(huge,): ("1", "0")}, ("1", "0")), ArityMismatch,
         f"table key ({over},) has length 1, not 2"),
        (lambda: validate_simplex(wta, lo=big, hi=0), InvalidParameter,
         f"sample range {over}:0 is inverted"),
        (lambda: find_bounding_m(
            build_market(["A", "B"], [("1/2", (tiny, "0")), ("1/2", ("0", tiny))]), 2
        ), ExpectationNotUnique, f"actions [0, 1] tie at expectation {over};"),
    ]
    for call, error, text in cases:
        with pytest.raises(error, match=re.escape(text)):
            call()


@settings(max_examples=40, deadline=None)
@given(markets(max_actions=4) | tied_markets(), st.integers(2, 5))
def test_strict_dominance_matches_the_tensor_relation(market, k):
    """Same pairs, the same eliminations in the same order, the same
    survivors, for every kind and for each linear kind with a gate that
    covers the market and one that does not; the shared relation reads only
    sorted opponent profiles.  A plan with a linear form on the market
    decides by the affine form and reads no cell, and the constant plan at
    w = 0, whose payoffs no action moves, has no strict pair."""
    for plan in every_kind(market, k) + plans_with_a_form(market, k):
        linear = plan.linear_form(market) is not None
        for w in (F(0), F(1, 3)):
            game = induce_game(market, plan, w)
            report = strict_dominance(game)
            assert report == tensor_dominance(induce_game(market, plan, w))
            if plan.anonymous:
                assert all(list(combo[1:]) == sorted(combo[1:]) for combo in game.cells)
            if linear:
                assert game.cells == {}
            if plan.kind == "constant" and w == 0:
                assert report.pairs == ()
                assert report.survivors == (tuple(range(market.n)),) * k


def test_strict_dominance_in_a_separable_game_reads_no_cell():
    """m_linear at k = 7 covers `six_action_market()`, so it states its
    linear form there: the expectation sums decide each pair, and the
    relation reads no cell, not up to 6 * C(11, 6) = 2 772.  An action
    dominates exactly the actions of lower expectation; A0 has the largest,
    so round 1 leaves (A0, ..., A0)."""
    market = six_action_market()
    game = induce_game(market, build_m_linear(market, 7), 0)
    report = strict_dominance(game)
    means = market.expectations()
    assert report.pairs == tuple(
        (p, a, b) for p in range(7) for a in range(6) for b in range(6) if means[a] > means[b]
    )
    assert report.eliminations == tuple(
        Elimination(1, p, b, 0) for p in range(7) for b in range(1, 6)
    )
    assert report.unique_profile == (0,) * 7
    assert game.cells == {}


def test_payoff_rejects_a_profile_outside_the_game():
    game = wta_game()
    for combo in ((0,), (0, 2), (-1, 0), (0, 0, 0)):
        with pytest.raises(ArityMismatch):
            game.payoff(combo)
    assert game.cells == {}


def test_grid_cap_is_checked_before_the_first_point():
    grid = simplex_grid(5, 100)  # C(104, 4) = 4 598 126 points
    with pytest.raises(GridCapExceeded):
        next(grid)
    assert next(simplex_grid(2, 199_999)).weights == (0, 1)  # 200 000 points: at the cap
    with pytest.raises(GridCapExceeded):
        next(simplex_grid(2, 200_000))
    with pytest.raises(GridCapExceeded):
        check_nash(wta_game(), Profile.pure((0, 0), 2), resolution=200_000)
    assert issubclass(GridCapExceeded, BonusLabError)
    # a 3-action grid of d has C(d + 2, 2) points: 199 396 at d = 630, 200 028 at 631
    assert comb(632, 2) == 199_396 <= GRID_CAP < comb(633, 2) == 200_028
    assert next(simplex_grid(3, 630)).weights == (0, 0, 1)
    with pytest.raises(GridCapExceeded, match=r"C\(631 \+ 3 - 1, 2\) grid points"):
        next(simplex_grid(3, 631))
    with pytest.raises(GridCapExceeded, match=r"C\(300000 \+ 300000 - 1, 299999\) grid points"):
        check_simplex_grid(300_000, 300_000)  # by its shape, without the binomial


def test_grid_weight_cap_matches_points_times_arity(monkeypatch):
    """A grid is refused exactly when its points times its arity exceed
    GRID_WEIGHT_CAP, before its first point; the message names the shape."""
    for arity in range(1, 7):
        for d in range(1, 7):
            points = comb(d + arity - 1, arity - 1)
            weights = points * arity
            for cap in (weights - 1, weights, weights + arity - 1, weights + arity):
                monkeypatch.setattr("bonuslab.game.GRID_WEIGHT_CAP", cap)
                if weights <= cap:
                    assert sum(1 for _ in simplex_grid(arity, d)) == points
                    continue
                s = min(d, arity - 1)
                shape = f"C({d} + {arity} - 1, {s}) grid portfolios x {arity} actions"
                with pytest.raises(GridCapExceeded, match=re.escape(
                    f"{shape} exceed cap {cap} weights"
                )):
                    next(simplex_grid(arity, d))


def test_a_wide_grid_is_refused_by_its_weights():
    """A d = 1 grid over 200 000 actions has 200 000 points, at the point
    cap, but 4 * 10**10 weights.  The widest grid that the tests walk, 2 000
    actions at d = 1 (test_walks_go_past_the_recursion_limit), is at the
    weight cap; one action more is refused before its first point, in the
    witness sweep and in a grid search too."""
    assert comb(200_000, 1) <= GRID_CAP and 2_000 * 2_000 == GRID_WEIGHT_CAP
    with pytest.raises(GridCapExceeded, match=re.escape(
        "C(1 + 200000 - 1, 1) grid portfolios x 200000 actions exceed cap 4000000 weights"
    )):
        next(simplex_grid(200_000, 1))
    check_simplex_grid(2_000, 1)
    n = 2_001
    market = build_market([f"A{i}" for i in range(n)], [("1", tuple(map(str, range(n))))])
    game = induce_game(market, WinnerTakeAllPlan(2), 0)
    for call in (
        lambda: next(simplex_grid(n, 1)),
        lambda: find_bounding_m(market, 1),
        lambda: best_response(game, 0, (MixedAction.pure(0, n),), 1),
    ):
        with pytest.raises(GridCapExceeded, match="2001 actions exceed cap 4000000 weights"):
            call()
    assert game.cells == {}


def test_weight_and_grid_errors_are_typed():
    with pytest.raises(InvalidParameter):
        induce_game(two_bond_market(), WinnerTakeAllPlan(2), 1)
    with pytest.raises(InvalidParameter):
        list(simplex_grid(2, 0))
    with pytest.raises(InvalidParameter):
        check_nash(wta_game(), Profile.pure((0, 0), 2), resolution=0)
    assert issubclass(InvalidParameter, BonusLabError)
    # a grid denominator is an int: a float is refused as one, and any
    # other non-int, a bool included, is an invalid parameter.
    # tests/test_public_ints.py sweeps 2.5, True, "2" and Fraction(2) over
    # these calls on the winner-take-all game; a pure-sufficient search
    # checks its resolution all the same
    market = two_bond_market()
    linear = induce_game(market, build_m_linear(market, 2), 0)
    for d, error in ((2.5, FloatRejected), (2.0, FloatRejected), (True, InvalidParameter),
                     ("2", InvalidParameter), (F(2), InvalidParameter)):
        with pytest.raises(error):
            check_nash(linear, Profile.pure((0, 0), 2), d)
    for call in (
        lambda: find_bounding_m(market, 2.0),
        lambda: build_bounded_linear(market, 2, 2.0),
        lambda: list(simplex_grid(2, 2.0)),
        lambda: check_nash(wta_game(), Profile.pure((0, 0), 2), 2.0),
    ):
        with pytest.raises(FloatRejected):
            call()


# ---------------------------------------------------------------------
# The published two-bond table and the opponent-result payoff variant
# ---------------------------------------------------------------------


def test_published_table_follows_from_the_opponent_result_variant():
    """The published table is (1-L)*share + L*(opponent's expected result).

    The model pays L times the player's own result, and two of the
    published (constant, slope) pairs disagree with it; the acceptance
    tests for criteria 1 and 2 keep asserting the table as printed.  Under
    this variant all four pairs hold exactly, and since the opponent's term
    does not depend on the player's own action, the risky bond's strict
    dominance at L = 0 persists for every L < 1.
    """
    from test_acceptance import PUBLISHED_TABLE, symbolic_coefficients

    market = two_bond_market()
    expectations = market.expectations()
    shares = wta_game().payoffs

    def variant(combo, lam):  # player 1's payoff; the opponent plays combo[1]
        return (1 - lam) * shares[combo][0] + lam * expectations[combo[1]]

    derived = {}
    for combo in shares:
        constant = variant(combo, F(0))
        slope = variant(combo, F(1)) - constant
        assert variant(combo, F(1, 4)) == constant + slope / 4  # affine in L
        derived[combo] = (constant, slope)
    assert derived == PUBLISHED_TABLE
    # the model agrees on the diagonal only
    model = symbolic_coefficients()
    assert [c for c in model if model[c] != PUBLISHED_TABLE[c]] == [(0, 1), (1, 0)]
    for tenths in range(10):
        lam = F(tenths, 10)
        assert all(variant((1, b), lam) > variant((0, b), lam) for b in (0, 1))


@settings(max_examples=40, deadline=None)
@given(
    markets(max_actions=3) | tied_markets(max_actions=3),
    st.integers(2, 3),
    st.sampled_from((None, 2)),
)
def test_reports_on_shared_vertices_match_fresh_pure_strategies(market, k, resolution):
    """`check_optimal` checks, and `best_response` hands back, the shared
    vertex objects (`market._vertex`); every report equals the one built on
    a fresh `MixedAction.pure` profile in a fresh game."""
    n = market.n
    for plan in every_kind(market, k):
        report = check_optimal(market, plan, resolution)
        for combo, checked in report.checked:
            assert all(s is _vertex(a, n) for s, a in zip(checked.profile.strategies, combo))
            fresh = check_nash(induce_game(market, plan, 0), Profile.pure(combo, n), resolution)
            assert checked == fresh
            for br in checked.deviations:
                a = br.strategy.pure_action
                if a is not None:
                    assert br.strategy is _vertex(a, n)
                    assert br.strategy == MixedAction.pure(a, n)



def _seeded_reports(seed: int) -> list:
    """`check_optimal` on every kind at k = 2, 3, `check_nash` at resolution 2
    and `universality_verdict` at k = 2, 3, on seeded markets and grids."""
    rng = random.Random(seed)
    reports = []
    for _ in range(6):
        market = random_market(rng, max_actions=4, max_atoms=4)
        for k in (2, 3):
            for plan in every_kind(market, k):
                reports.append(check_optimal(market, plan))
                best = market.best_actions[0]
                game = induce_game(market, plan, 0)
                reports.append(check_nash(game, Profile.pure((best,) * k, market.n), 2))
        points = tuple(map(str, rng.sample(range(-3, 4), 3)))
        for plan in (WinnerTakeAllPlan(2), LoserTakeAllPlan(2), WinnerTakeAllPlan(3)):
            reports.append(universality_verdict(plan, points))
    return reports


@pytest.mark.parametrize("seed", (0, 5))
def test_reports_match_with_the_vertex_table_cold_and_warm(seed, cold_vertices, monkeypatch):
    """Seeded verdicts equal one another with the table of pure strategies
    cleared, warm from the same calls, and holding nothing at all."""
    cold = _seeded_reports(seed)
    assert market_module._vertices  # the cold run filled the table
    assert _seeded_reports(seed) == cold
    monkeypatch.setattr(market_module, "VERTEX_CAP", 0)
    monkeypatch.setattr(market_module, "_vertices", {})
    monkeypatch.setattr(market_module, "_vertex_weights", 0)
    assert _seeded_reports(seed) == cold
    assert market_module._vertices == {}


def test_a_game_checks_its_market_and_plan():
    """`Game` refuses a market or a plan of the wrong type, naming the input,
    so every call that builds a game refuses it too."""
    market, plan = two_bond_market(), WinnerTakeAllPlan(2)
    for call in (lambda: induce_game("m", plan), lambda: Game("m", plan, 0),
                 lambda: check_optimal("m", plan)):
        with pytest.raises(ArityMismatch, match=re.escape("a market must be a Market, got 'm'")):
            call()
    with pytest.raises(ArityMismatch, match=re.escape("a plan must be a BonusPlan, got [1, 2]")):
        induce_game(market, [1, 2])
    game = induce_game(market, plan)
    for call in (strict_dominance, lambda g: best_response(g, 0, [MixedAction.pure(0, 2)])):
        with pytest.raises(ArityMismatch, match=re.escape("a game must be a Game, got (1, 2)")):
            call((1, 2))
    assert strict_dominance(game).unique_profile == (1, 1)  # the risky bond, at L = 0
