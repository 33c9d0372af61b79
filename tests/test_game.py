"""Induced games: tensors, deviations, verdicts, dominance, optimality."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bonuslab import (
    ArityMismatch,
    BonusLabError,
    BoundedLinearPlan,
    ConstantPlan,
    GridCapExceeded,
    InvalidParameter,
    LoserTakeAllPlan,
    MixedAction,
    MLinearPlan,
    OptimalityVerdict,
    Profile,
    TabulatedPlan,
    TensorCapExceeded,
    Verdict,
    WinnerTakeAllPlan,
    best_response,
    build_market,
    build_m_linear,
    check_nash,
    check_optimal,
    expectation,
    expected_payoffs,
    induce_game,
    principal_value,
    two_bond_market,
    simplex_grid,
    strict_dominance,
)
from conftest import fraction_allocation

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


def test_tensor_cap():
    """6^7 = 279 936 profiles: the full tensor is refused before any cell."""
    market = six_action_market()
    game = induce_game(market, build_m_linear(market, 7), 0)
    with pytest.raises(TensorCapExceeded):
        game.payoffs
    with pytest.raises(TensorCapExceeded):
        strict_dominance(game)
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
    assert ConstantPlan(2).pure_search_complete(market)
    assert MLinearPlan(2, F(1051, 1000), F(1), F(1051, 1000)).pure_search_complete(market)
    assert not MLinearPlan(2, F(2), F(1), F(103, 100)).pure_search_complete(market)
    # the largest atom spread is 1/20, so 2*bound = 1/20 is just enough
    assert BoundedLinearPlan(2, F(1, 40)).pure_search_complete(market)
    assert not BoundedLinearPlan(2, F(1, 50)).pure_search_complete(market)
    assert not WinnerTakeAllPlan(2).pure_search_complete(market)


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

    carrier = build_market(["a", "b", "c"], [("1", ("0", "0", "0"))])
    game = Game(carrier, ConstantPlan(2), F(0), payoffs)
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
    assert not lookalike.pure_search_complete(market)
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
    """Oracle: expected payoffs over (atom, result-vector) rows, in Fractions."""
    totals = [F(0)] * plan.players
    for atom, results in rows:
        shares = fraction_allocation(plan, results)
        for i in range(plan.players):
            totals[i] += atom.probability * ((1 - w) * shares[i] + w * results[i])
    return tuple(totals)


def eager_tensor(market, plan, w):
    """Reference: every pure profile tabulated up front, atom by atom."""
    return {
        combo: fraction_cell(
            plan, w, ((atom, tuple(atom.outcomes[a] for a in combo)) for atom in market.atoms)
        )
        for combo in product(range(market.n), repeat=plan.players)
    }


def pointwise_payoffs(market, plan, w, profile):
    """Reference: a mixed profile's payoffs, portfolios realized per atom."""
    rows = (
        (atom, tuple(s.value_at(atom) for s in profile.strategies)) for atom in market.atoms
    )
    return fraction_cell(plan, w, rows)


def oracle_best_response(market, plan, w, player, opponents, resolution):
    """Oracle: every candidate valued in Fractions; the earliest strict best wins."""
    n = market.n
    candidates = [MixedAction.pure(a, n) for a in range(n)]
    if resolution is not None and not plan.pure_search_complete(market):
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


outcome = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def markets(draw):
    n = draw(st.integers(2, 3))
    rows = draw(st.lists(st.lists(outcome, min_size=n, max_size=n), min_size=1, max_size=3))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(rows), max_size=len(rows)))
    total = sum(weights)
    atoms = [(F(wt, total), tuple(row)) for wt, row in zip(weights, rows)]
    return build_market([f"A{i}" for i in range(n)], atoms)


def every_kind(market, k):
    """One plan of each kind; the gated and tabulated ones bite on this market."""
    values = sorted({x for atom in market.atoms for x in atom.outcomes})
    lo, hi = values[0], values[len(values) // 2]
    first = market.atoms[0].outcomes
    favoured = (F(1),) + (F(0),) * (k - 1)
    return [
        ConstantPlan(k),
        WinnerTakeAllPlan(k),
        LoserTakeAllPlan(k),
        MLinearPlan(k, max(hi - lo, F(1)), lo, hi),
        BoundedLinearPlan(k, F(3, 2)),
        TabulatedPlan(k, {(first[0],) * k: favoured}, (F(1, k),) * k),
    ]


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
        for w in (F(0), F(1, 2)):
            oracle = eager_tensor(market, plan, w)
            game = induce_game(market, plan, w)
            # read a few cells first, so the memo is partly filled out of order
            for combo in data.draw(st.lists(st.sampled_from(list(oracle)), max_size=3)):
                assert game.payoff(combo) == oracle[combo]
            assert list(game.payoffs.items()) == list(oracle.items())
            profile = data.draw(mixed_profiles(market.n, k))
            assert expected_payoffs(game, profile) == pointwise_payoffs(
                market, plan, w, profile
            )


@settings(max_examples=30, deadline=None)
@given(markets(), st.integers(2, 3), st.integers(1, 6), st.data())
def test_grid_best_response_matches_the_fraction_oracle(market, k, resolution, data):
    """Same strategy and the same exact value, ties broken the same way."""
    for plan in every_kind(market, k):
        for w in (F(0), F(1, 2)):
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
    br = best_response(flat, 0, (MixedAction.pure(0, 2),), resolution=6)
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


def test_check_nash_reads_only_the_deviation_cells():
    game = wta_game()
    check_nash(game, Profile.pure((0, 0), 2))
    assert sorted(game.cells) == [(0, 0), (0, 1), (1, 0)]


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
    best = max(range(6), key=market.expectation_of)
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
    tied = build_market(["A", "B"], [("1", ("1", "1"))])
    with pytest.raises(TensorCapExceeded):
        check_optimal(tied, WinnerTakeAllPlan(18))  # 2^18 = 262 144 candidate profiles
    assert check_optimal(tied, WinnerTakeAllPlan(17)).verdict is OptimalityVerdict.OPTIMAL


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


def test_weight_and_grid_errors_are_typed():
    with pytest.raises(InvalidParameter):
        induce_game(two_bond_market(), WinnerTakeAllPlan(2), 1)
    with pytest.raises(InvalidParameter):
        list(simplex_grid(2, 0))
    with pytest.raises(InvalidParameter):
        check_nash(wta_game(), Profile.pure((0, 0), 2), resolution=0)
    assert issubclass(InvalidParameter, BonusLabError)


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
