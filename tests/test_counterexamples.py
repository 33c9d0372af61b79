"""Monotonicity probes and the markets that turn violations into refutations."""

import math
import random
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bonuslab import (
    ArityMismatch,
    AtomCapExceeded,
    BonusLabError,
    BoundedLinearPlan,
    ConstantPlan,
    CoordinateViolation,
    Direction,
    FloatRejected,
    GridCapExceeded,
    LoserTakeAllPlan,
    MixedAction,
    MLinearPlan,
    PairViolation,
    Profile,
    SearchExhausted,
    StaleViolation,
    TabulatedPlan,
    WinnerTakeAllPlan,
    best_response,
    build_m_linear,
    check_nash,
    coordinate_decrease_counterexample,
    coordinate_increase_counterexample,
    expectation,
    four_point_shares_equal,
    induce_game,
    pair_decrease_counterexample,
    pair_increase_counterexample,
    probe_own_coordinate,
    probe_pairs,
    two_bond_market,
    universality_verdict,
    validate_counterexample,
    Verdict,
)
import bonuslab.counterexamples as counterexamples
from bonuslab.plans import BonusPlan, Kernel
from bonuslab.rational import as_count, rational_text
from conftest import (
    assert_rebuilds_from_its_atoms,
    fraction_allocation,
    fraction_atoms,
    index_rule_market,
)

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


def test_pair_probe_needs_two_distinct_points():
    """Fewer than 2 distinct points leave no pair to probe, so the grid is
    refused, as fewer than k points are for k >= 3, and never read as
    constant-on-grid."""
    for points in ((), ("1",), ("1", "2/2", "1")):
        for probe in (universality_verdict, probe_pairs):
            with pytest.raises(ArityMismatch, match="need at least 2 distinct points"):
                probe(WinnerTakeAllPlan(2), points)
    assert universality_verdict(ConstantPlan(2), ("1", "2")).verdict == "constant-on-grid"


def test_tuple_probability_refuses_what_is_not_a_violation():
    """A value that is not a CoordinateViolation ends in ArityMismatch, not
    in a bare AttributeError on its missing base."""
    for value in ("x", None, (F(1), F(2))):
        with pytest.raises(ArityMismatch, match="a violation must be a CoordinateViolation"):
            counterexamples.tuple_probability(value)
    drop = CoordinateViolation(Direction.DECREASE, 0, (F(1), F(2)), F(0), F(1))
    assert counterexamples.tuple_probability(drop) == F(1, 4)


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

    `_kernel_for` serves the probes' scans and every `evaluate`, so its
    kernels count both the scan and the builder's own allocations; the
    builder's games call `kernel` directly and are not counted.
    """
    calls = []
    kernel_for = BonusPlan._kernel_for

    def counted(self, values):
        (denominator, shares), ints = kernel_for(self, values)
        return Kernel(denominator, lambda v: calls.append(v) or shares(v)), ints

    monkeypatch.setattr(BonusPlan, "_kernel_for", counted)
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
    atoms = fraction_atoms(ce.market)
    assert len(atoms) == 1
    assert atoms[0][1] == (F(1), F(0))
    assert ce.gain == F(1, 2)
    assert [s.pure_action for s in ce.profile.strategies] == [0, 0]
    assert ce.deviation == 1
    assert ce.certificate == (("X1", F(1)), ("X2", F(0)))


def test_increase_builder_on_winner_take_all():
    violation = probe_pairs(WinnerTakeAllPlan(2), ("0", "1"))[0]
    ce = pair_increase_counterexample(WinnerTakeAllPlan(2), violation)
    assert ce.params == {"p": F(5, 6), "z": F(6), "iterations": 0}
    atoms = fraction_atoms(ce.market)
    assert [p for p, _ in atoms] == [F(5, 6), F(1, 6)]
    assert atoms[0][1] == (F(0), F(1))
    assert atoms[1][1] == (F(6), F(0))
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


@dataclass(frozen=True)
class _OffSimplexPlan(BonusPlan):
    """Two-player winner-take-all, except that equal results above 2 pay
    player 1 a share of 100 and player 2 one of -99: off the simplex."""

    kind = "off-simplex"

    def _kernel(self, scale):
        def shares(v):
            if v[0] == v[1]:
                return (200, -198) if v[0] > 2 * scale else (1, 1)
            return (2, 0) if v[0] > v[1] else (0, 2)

        return Kernel(2, shares)


def test_pair_increase_builder_refuses_a_nonpositive_recomputed_gain():
    """Off the simplex the rare case can cost more than a share of 1: the
    increase builder states no gain, and the one it recomputes,
    5/6 * 1/2 + 1/6 * (0 - 100), is refused."""
    plan = _OffSimplexPlan(2)
    violation = probe_pairs(plan, ("0", "1"))[0]
    assert (violation.direction, violation.player, violation.deficit) == (
        Direction.INCREASE, 0, F(1, 2)
    )
    with pytest.raises(StaleViolation, match=re.escape("gain -65/4 is not positive")):
        pair_increase_counterexample(plan, violation)


def test_builders_refuse_a_deficit_that_is_not_exact():
    """A float deficit is refused even where it equals the exact one, which
    the builder would otherwise have computed its gain with; a None, a
    string or a bool ends in StaleViolation, not in a bare TypeError."""
    lta, lta3 = LoserTakeAllPlan(2), LoserTakeAllPlan(3)
    cases = [
        (pair_decrease_counterexample, lta, probe_pairs(lta, ("0", "1"))[0]),
        (coordinate_decrease_counterexample, lta3, probe_own_coordinate(lta3, ("0", "1", "2"))[0]),
    ]
    for build, plan, violation in cases:
        assert violation.deficit == float(violation.deficit) == F(1, 2)
        with pytest.raises(FloatRejected, match="refusing float deficit 0.5"):
            build(plan, replace(violation, deficit=0.5))
        for bad in (None, "1/2", True):
            with pytest.raises(StaleViolation, match="is not an int or a Fraction"):
                build(plan, replace(violation, deficit=bad))
        assert type(build(plan, violation).gain) is Fraction


# (id, builder, plan, changed fields of the plan's first probed violation,
# error type, message): a violation's points, base and direction are read
# before any arithmetic, so each ends in a BonusLabError, not a bare
# TypeError or AttributeError
REJECTED_VIOLATIONS = [
    ("pair-x-and-y-strings", pair_increase_counterexample, WinnerTakeAllPlan(2),
     {"x": "0", "y": "1"}, StaleViolation, "x '0' is not an int or a Fraction"),
    ("pair-y-none", pair_increase_counterexample, WinnerTakeAllPlan(2),
     {"y": None}, StaleViolation, "y None is not an int or a Fraction"),
    ("pair-x-float", pair_increase_counterexample, WinnerTakeAllPlan(2),
     {"x": 0.0}, FloatRejected, "refusing float x 0.0"),
    ("pair-direction-string", pair_increase_counterexample, WinnerTakeAllPlan(2),
     {"direction": "increase"}, StaleViolation, "direction 'increase' is not a Direction"),
    ("coordinate-witness-string", coordinate_increase_counterexample, WinnerTakeAllPlan(3),
     {"witness": "2"}, StaleViolation, "witness '2' is not an int or a Fraction"),
    ("coordinate-base-string", coordinate_increase_counterexample, WinnerTakeAllPlan(3),
     {"base": ("0", F(1), F(2))}, StaleViolation, "base coordinate '0' is not an int or a Fraction"),
    ("coordinate-base-none", coordinate_increase_counterexample, WinnerTakeAllPlan(3),
     {"base": None}, StaleViolation, "base point None is not a tuple"),
    ("coordinate-base-list", coordinate_increase_counterexample, WinnerTakeAllPlan(3),
     {"base": [F(0), F(1), F(2)]}, StaleViolation,
     "base point [Fraction(0, 1), Fraction(1, 1), Fraction(2, 1)] is not a tuple"),
    ("coordinate-direction-string", coordinate_increase_counterexample, WinnerTakeAllPlan(3),
     {"direction": "increase"}, StaleViolation, "direction 'increase' is not a Direction"),
]


@pytest.mark.parametrize(
    "build,plan,changes,error,message",
    [case[1:] for case in REJECTED_VIOLATIONS],
    ids=[case[0] for case in REJECTED_VIOLATIONS],
)
def test_builders_refuse_violations_of_the_wrong_types(build, plan, changes, error, message):
    probe = probe_pairs if plan.players == 2 else probe_own_coordinate
    violation = probe(plan, ("0", "1", "2"))[0]
    assert violation.direction is Direction.INCREASE
    with pytest.raises(error) as exc:
        build(plan, replace(violation, **changes))
    assert str(exc.value) == message


def test_pair_builders_are_for_two_player_plans():
    decrease = PairViolation(Direction.DECREASE, F(0), F(1), 0, F(1, 2))
    with pytest.raises(ArityMismatch, match="two-player"):
        pair_decrease_counterexample(LoserTakeAllPlan(3), decrease)


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
    assert len(fraction_atoms(ce.market)) == 27
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
    for p, outcomes in fraction_atoms(ce.market):
        stay = plan.evaluate(outcomes[:3])[0]
        moved = plan.evaluate((outcomes[3],) + outcomes[1:3])[0]
        gain += p * (moved - stay)
    assert gain == ce.gain


def test_coordinate_increase_escape_passes_a_tie():
    """At the first escape value, 16, this witness makes the deviation tie
    the coordinate actions exactly: the integer escape line reads 0 there,
    and the market the index rule builds ranks all three actions best.
    Validation would refuse that market, so the escape doubles once more,
    where the line turns positive."""
    violation = CoordinateViolation(Direction.INCREASE, 0, (F(1), F(2)), F(3323, 225), F(1))
    p, high = F(15, 16), F(16)
    marginal = [(F(1), p / 2), (F(2), p / 2), (high, 1 - p)]
    tied = index_rule_market(violation, marginal, -high)
    assert tied.best_actions == (0, 1, 2)
    ints = counterexamples._coordinate_ints(violation)
    weights = [15, 15, 2]  # p/2, p/2 and 1 - p over 32
    slope, offset = counterexamples._escape_line(ints, weights, 0)
    assert slope * 16 * ints[0] + offset == 0
    assert slope * 32 * ints[0] + offset > 0
    ce = coordinate_increase_counterexample(WinnerTakeAllPlan(2), violation)
    assert (ce.params["p"], ce.params["escape_doublings"]) == (p, 1)
    assert ce.market.best_actions == (0, 1)
    assert ce.gain == F(163, 1024)


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
    assert ce.market.expectations()[0] == F(921, 512)
    assert expectation(ce.market, MixedAction.pure(3, 4)) < F(921, 512)
    assert len(fraction_atoms(ce.market)) == 4**3


def random_design(rng, k, escaped):
    """A coordinate market's design: a violation at k distinct coordinates
    of mixed denominators, with a witness that may equal one of them, and
    positive integer weights, one per coordinate and, when escaped, one for
    an escape that is a power of two above every magnitude, doubled 0-2
    times."""
    values = rng.sample([F(n, d) for d in (1, 2, 3, 4, 6) for n in range(-12, 13)], 40)
    base = tuple(dict.fromkeys(values))[:k]
    witness = rng.choice((rng.choice(base), F(rng.randint(-12, 12), rng.choice((1, 5, 7)))))
    player = rng.randrange(k)
    violation = CoordinateViolation(Direction.INCREASE, player, base, witness, F(1))
    weights = [rng.randint(1, 9) for _ in range(k + escaped)]
    escape = None
    if escaped:
        magnitude = max(map(abs, (*base, witness)))
        escape = 1
        while escape <= magnitude:
            escape *= 2
        escape <<= rng.randint(0, 2)
    return violation, weights, escape


@pytest.mark.parametrize("escaped", [False, True], ids=["no-low", "low"])
@pytest.mark.parametrize("k,cases", [(3, 12), (4, 8), (5, 3), (6, 1)])
def test_integer_coordinate_market_matches_the_index_rule(k, cases, escaped):
    """The coordinate market written from integers is the market the index
    rule builds in Fractions, atom for atom: the same labels and the same
    integer view, for random violations at k = 3-6 with and without a low
    value.  The reference has no atom cap: at k = 6 with an escape the
    builder refuses the 7^6 atoms itself."""
    rng = random.Random(100 * k + escaped)
    for _ in range(cases):
        violation, weights, escape = random_design(rng, k, escaped)
        ints = counterexamples._coordinate_ints(violation)
        if k == 6 and escaped:
            with pytest.raises(AtomCapExceeded, match=re.escape("7^6 atoms exceed cap 100000")):
                counterexamples._coordinate_market(violation, ints, weights, escape)
            continue
        total = sum(weights)
        values = violation.base + ((F(escape),) if escaped else ())
        marginal = [(v, F(w, total)) for v, w in zip(values, weights)]
        low = -F(escape) if escaped else None
        expected = index_rule_market(violation, marginal, low)
        got = counterexamples._coordinate_market(violation, ints, weights, escape)
        assert got == expected
        assert got.integer_view == expected.integer_view


@pytest.mark.parametrize("k", [3, 4, 5])
def test_integer_escape_decision_matches_the_built_ranking(k):
    """At every escape doubling the integer line decides what the built
    market's `best_actions` decides: the copies rank best and the deviation
    below them exactly when slope * e * scale + offset > 0.  The designs are
    the increase builder's: the base marginal scaled by p = 1 - 2^-t, the
    rest on the escape, which starts at the least power of two above every
    magnitude, and a witness above the base.  The line is the copies' lead
    itself, the market's expectation sums times g^k where g reduces the
    weights."""
    rng = random.Random(7 + k)
    decided = set()
    for _ in range(16 if k < 5 else 4):
        violation, _, escape = random_design(rng, k, True)
        witness = max(violation.base) + F(rng.randint(1, 24), rng.choice((1, 2, 3)))
        violation = replace(violation, witness=witness)
        escape = 1 << int(max(map(abs, (*violation.base, witness)))).bit_length()
        t = rng.randint(4, 4 * k + 6)
        weights = [(2**t - 1) * w for w in counterexamples._base_weights(k, violation.player)]
        weights.append(2 * (k - 1))
        ints = counterexamples._coordinate_ints(violation)
        slope, offset = counterexamples._escape_line(ints, weights, violation.player)
        g = math.gcd(*weights)
        for _ in range(3):
            market = counterexamples._coordinate_market(violation, ints, weights, escape)
            sums = market.expectation_sums
            assert len(set(sums[:k])) == 1
            line = slope * escape * ints[0] + offset
            assert (sums[0] - sums[k]) * g**k == line
            ranked = market.best_actions == tuple(range(k))
            assert ranked == (line > 0)
            decided.add(ranked)
            escape *= 2
    assert decided == {True, False}


@pytest.mark.parametrize(
    "plan,grid,doublings,atoms",
    [(WinnerTakeAllPlan(4), range(4), 1, 625), (WinnerTakeAllPlan(3), range(3), 0, 64)],
    ids=["wta4", "wta3"],
)
def test_an_increase_verdict_assembles_one_product(monkeypatch, plan, grid, doublings, atoms):
    """The escape is decided before any market is built: WTA(4) on
    {0, ..., 3} doubles its escape once and WTA(3) on {0, 1, 2} not at all,
    and each verdict lays out exactly one coordinate market."""
    calls = []
    layout = counterexamples._coordinate_market

    def counting(violation, *args):
        calls.append(len(violation.base))
        return layout(violation, *args)

    monkeypatch.setattr(counterexamples, "_coordinate_market", counting)
    ce = universality_verdict(plan, grid).counterexample
    assert ce.params["escape_doublings"] == doublings
    assert calls == [plan.players]
    assert len(ce.market.integer_view.weights) == atoms


def test_a_stated_gain_is_checked_not_replaced(monkeypatch):
    """The coordinate decrease builder states its gain in closed form,
    deficit * tuple probability; with that probability doubled the stated
    gain is refused, not replaced by the recomputed one."""
    tuple_probability = counterexamples.tuple_probability
    monkeypatch.setattr(counterexamples, "tuple_probability", lambda v: 2 * tuple_probability(v))
    with pytest.raises(
        StaleViolation, match=re.escape("recorded gain 1/16 differs from recomputed 1/32")
    ):
        coordinate_decrease_counterexample(LoserTakeAllPlan(3), lta_drop_violation())


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


def _fraction_schedule(k, deficit, pi_base):
    """The schedule's (p, t) by the guaranteed gain in `Fraction`s, as the
    increase builder once computed it: the oracle; None when exhausted."""
    for t in range(1, counterexamples.ESCALATIONS + 1):
        p = 1 - F(1, 2**t)
        if deficit * p**k * pi_base > 1 - p**k:
            return p, t
    return None


def _integer_schedule(k, deficit, pi_base):
    try:
        return counterexamples._probability_step(k, deficit * pi_base)
    except SearchExhausted:
        return None


@settings(max_examples=200, deadline=None)
@given(
    st.integers(3, 6),
    st.fractions(min_value=F(1, 2**60), max_value=4, max_denominator=2**64),
    st.fractions(min_value=F(1, 2**30), max_value=1, max_denominator=2**32),
)
def test_integer_schedule_matches_the_fraction_schedule(k, deficit, pi_base):
    """The increase builder's integer test picks the schedule's (p, t) that
    the Fraction gain picks, for random deficits and base probabilities."""
    assert _integer_schedule(k, deficit, pi_base) == _fraction_schedule(k, deficit, pi_base)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_integer_schedule_passes_over_a_zero_gain(k):
    """Where the guaranteed gain is exactly 0 at step t, the schedule steps
    on to t + 1, as the Fraction gain does; and a deficit too small for any
    step exhausts it."""
    for t in range(1, 6):
        weighted = F(2 ** (t * k), (2**t - 1) ** k) - 1  # p^k * (weighted + 1) == 1
        for pi_base in (F(1), F(1, 8), F(3, 64)):
            deficit = weighted / pi_base
            found = _integer_schedule(k, deficit, pi_base)
            assert found == _fraction_schedule(k, deficit, pi_base)
            assert found == (1 - F(1, 2 ** (t + 1)), t + 1)
    assert _integer_schedule(k, F(1, 2**80), F(1, 3)) is None
    assert _fraction_schedule(k, F(1, 2**80), F(1, 3)) is None


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
    # the market keeps its expectations once computed; a certificate entry
    # moved by 1/1000 must still differ from them, on a product market too
    for plan, grid in ((plan, ("0", "1")), (WinnerTakeAllPlan(3), ("0", "1", "2"))):
        ce = universality_verdict(plan, grid).counterexample
        assert ce.market.expectations() == tuple(value for _, value in ce.certificate)
        for j, (label, value) in enumerate(ce.certificate):
            certificate = list(ce.certificate)
            certificate[j] = (label, value + Fraction(1, 1000))
            forged = replace(ce, certificate=tuple(certificate))
            with pytest.raises(StaleViolation, match="certificate"):
                validate_counterexample(plan, forged)
        validate_counterexample(plan, ce)


@pytest.mark.parametrize(
    "plan,grid", [(WinnerTakeAllPlan(2), ("0", "1", "2")), (WinnerTakeAllPlan(3), ("0", "1", "2"))]
)
def test_validate_refuses_a_player_or_deviation_out_of_range(plan, grid):
    """A negative index would read from the end; one past the end used to
    raise a bare IndexError."""
    ce = universality_verdict(plan, grid).counterexample
    k, n = plan.players, ce.market.n
    for field, value in (
        ("player", -1), ("player", k), ("player", n), ("deviation", -1), ("deviation", n)
    ):
        with pytest.raises(StaleViolation, match="index"):
            validate_counterexample(plan, replace(ce, **{field: value}))
    # strategies over n + 1 actions, pure on the missing one
    wide = Profile.pure((n,) * k, n + 1)
    with pytest.raises(ArityMismatch):
        validate_counterexample(plan, replace(ce, profile=wide))
    validate_counterexample(plan, ce)


def test_stale_checks_refuse_a_player_outside_the_plan():
    wta = WinnerTakeAllPlan(2)
    increase = probe_pairs(wta, ("0", "1"))[0]
    for player in (-1, 2):
        with pytest.raises(StaleViolation, match="player"):
            pair_increase_counterexample(wta, replace(increase, player=player))
    for player in (-1, 3):
        with pytest.raises(StaleViolation, match="player"):
            coordinate_decrease_counterexample(
                LoserTakeAllPlan(3), replace(lta_drop_violation(), player=player)
            )


def test_pair_stale_checks_read_the_own_move_from_the_diagonal():
    """A decrease moves the player from (y, y) down to x, an increase from
    (x, x) up to y; the deficit is the share gained by that one move."""
    for plan in (WinnerTakeAllPlan(2), LoserTakeAllPlan(2)):
        for v in probe_pairs(plan, ("0", "1", "2")):
            ce = (
                pair_decrease_counterexample(plan, v)
                if v.direction is Direction.DECREASE
                else pair_increase_counterexample(plan, v)
            )
            assert ce.player == v.player
            with pytest.raises(StaleViolation):
                pair_decrease_counterexample(plan, replace(v, deficit=v.deficit / 2))
            with pytest.raises(StaleViolation):
                pair_increase_counterexample(plan, replace(v, deficit=v.deficit / 2))


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
    assert fraction_atoms(ce.market)[1][1][0] > plan.hi


def test_universality_verdict_three_player_winner_take_all():
    report = universality_verdict(WinnerTakeAllPlan(3), ("1", "2", "3"))
    assert report.verdict == "counterexample"
    assert report.violation.base == (F(1), F(2), F(3))
    assert report.counterexample.params["probability_steps"] == 8
    assert report.counterexample.params["p"] == F(255, 256)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_coordinate_counterexample_markets_rebuild_from_their_atoms(data):
    """The coordinate builders' markets, built on their integer views from
    rules that read support indices, for random 3-player WTA, LTA and
    tabulated probes: each is the market `build_market` makes of its own
    derived atoms."""
    grid = sorted(data.draw(st.lists(grid_points, min_size=3, max_size=4, unique=True)))
    key = tuple(data.draw(st.permutations(grid))[:3])
    plan = data.draw(
        st.sampled_from(
            [
                WinnerTakeAllPlan(3),
                LoserTakeAllPlan(3),
                TabulatedPlan(3, {key: (F(1), F(0), F(0))}, (F(1, 3),) * 3),
            ]
        )
    )
    report = universality_verdict(plan, grid)
    assert report.verdict == "counterexample"
    assert_rebuilds_from_its_atoms(report.counterexample.market)


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


def built(plan, violation):
    """The counterexample the matching builder makes of a violation."""
    pair = isinstance(violation, PairViolation)
    if violation.direction is Direction.DECREASE:
        build = pair_decrease_counterexample if pair else coordinate_decrease_counterexample
    else:
        build = pair_increase_counterexample if pair else coordinate_increase_counterexample
    return build(plan, violation)


def validation_cases():
    """(plan, counterexample) pairs from every builder, for player 0 and
    the others: the universality verdicts of WTA(3), LTA(3), m_linear and
    bounded_linear on seeded random 3-point grids, with each player's first
    own-coordinate violation there, and every pair violation of the
    two-player kinds on a 4-point grid."""
    rng = random.Random(22)
    cases = []
    for plan in (
        WinnerTakeAllPlan(3),
        LoserTakeAllPlan(3),
        MLinearPlan(3, F(1), F(-1, 3), F(5, 4)),
        BoundedLinearPlan(3, F(2, 7)),
    ):
        verdicts = 0
        for _ in range(100):
            grid = {F(x, rng.choice((1, 2, 3, 4))) for x in rng.sample(range(-6, 7), 3)}
            if len(grid) < 3:
                continue
            report = universality_verdict(plan, sorted(grid))
            if report.counterexample is None:
                continue
            cases.append((plan, report.counterexample))
            firsts = {}
            for v in probe_own_coordinate(plan, sorted(grid)):
                firsts.setdefault(v.player, v)
            cases.extend((plan, built(plan, v)) for v in firsts.values() if v.player)
            verdicts += 1
            if verdicts == 2:
                break
        assert verdicts == 2, plan
    for plan in (
        WinnerTakeAllPlan(2),
        LoserTakeAllPlan(2),
        MLinearPlan(2, F(1), F(-1, 3), F(5, 4)),
        BoundedLinearPlan(2, F(2, 7)),
    ):
        cases.extend((plan, built(plan, v)) for v in probe_pairs(plan, ("-1", "0", "1/2", "2")))
    return cases


def reference_exact(value, name):
    """A recorded number must be an int or a Fraction, a float refused as
    FloatRejected, where it may compare equal to the exact value."""
    if isinstance(value, float):
        raise FloatRejected(f"refusing float {name} {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise StaleViolation(f"{name} {value!r} is not an int or a Fraction")


def reference_validation(plan, ce):
    """The reference validation: every check of validate_counterexample,
    then ce.player's pure-only best response against the others must gain
    at least ce.gain, a search the gain check already decides."""
    market, k = ce.market, plan.players
    reference_exact(ce.gain, "gain")
    as_count(ce.player, "player", None, StaleViolation)
    as_count(ce.deviation, "deviation", None, StaleViolation)
    if not (ce.profile.players == k and 0 <= ce.player < k and 0 <= ce.deviation < market.n):
        raise StaleViolation(
            f"player {rational_text(ce.player)} and deviation {rational_text(ce.deviation)}"
            f" do not index a {k}-player profile over {market.n} actions"
        )
    ce.profile.check_arity(market)
    exps = market.expectations()
    if ce.certificate != tuple(zip(market.actions, exps)):
        raise StaleViolation("certificate expectations do not match the market")
    for _, value in ce.certificate:
        reference_exact(value, "certificate value")
    mu = max(exps)
    actions = tuple(s.pure_action for s in ce.profile.strategies)
    if any(a is None or exps[a] != mu for a in actions):
        raise StaleViolation("profile is not on maximal-expectation actions")
    if exps[ce.deviation] >= mu:
        raise StaleViolation("deviation action does not lose expectation")
    if ce.gain <= 0:
        raise StaleViolation(f"gain {ce.gain} is not positive")
    game = induce_game(market, plan, 0)
    swapped = list(actions)
    swapped[ce.player] = ce.deviation
    payoff = game.payoff(actions)[ce.player]
    recomputed = game.payoff(tuple(swapped))[ce.player] - payoff
    if recomputed != ce.gain:
        raise StaleViolation(f"recorded gain {ce.gain} differs from recomputed {recomputed}")
    others = ce.profile.strategies[: ce.player] + ce.profile.strategies[ce.player + 1 :]
    if best_response(game, ce.player, others, None).value - payoff < ce.gain:
        raise StaleViolation("the player's best response gains less than recorded")


def tampered(ce):
    """Copies of a counterexample that break one claim each."""
    n, k = ce.market.n, ce.profile.players
    actions = [s.pure_action for s in ce.profile.strategies]
    best = actions[ce.player]
    yield replace(ce, gain=ce.gain + F(1, 10**6))
    yield replace(ce, gain=ce.gain - F(1, 10**6))
    yield replace(ce, gain=F(0))
    yield from (replace(ce, gain=value) for value in (float(ce.gain), None, str(ce.gain)))
    for j, (label, value) in enumerate(ce.certificate):
        certificate = list(ce.certificate)
        certificate[j] = (label, value + F(1, 10**6))
        yield replace(ce, certificate=tuple(certificate))
        certificate[j] = (label, float(value))
        yield replace(ce, certificate=tuple(certificate))
    off = actions[: ce.player] + [ce.deviation] + actions[ce.player + 1 :]
    yield replace(ce, profile=Profile.pure(tuple(off), n))
    mixed = list(ce.profile.strategies)
    mixed[ce.player] = MixedAction(
        [F(1, 2) if a in (best, ce.deviation) else 0 for a in range(n)]
    )
    yield replace(ce, profile=Profile(tuple(mixed)))
    yield replace(ce, deviation=best)
    # a best action other than the player's own ties the profile's expectation
    yield from (replace(ce, deviation=a) for a in ce.market.best_actions if a != best)
    yield replace(ce, player=(ce.player + 1) % k)
    for field, value in (("player", -1), ("player", k), ("deviation", -1), ("deviation", n)):
        yield replace(ce, **{field: value})
    yield replace(ce, profile=Profile.pure((n,) * k, n + 1))


def outcome(validate, plan, ce):
    """None on acceptance, else the refusal's type and message."""
    try:
        validate(plan, ce)
    except BonusLabError as exc:
        return type(exc), str(exc)
    return None


def test_validation_matches_the_search_it_dropped():
    """Dropping the best-response search changes no outcome: on every
    builder's counterexample and on copies tampered one claim at a time,
    validation accepts, or refuses with the same type and message, exactly
    as the reference validation with the search."""
    refusals = set()
    for plan, ce in validation_cases():
        assert outcome(validate_counterexample, plan, ce) is None
        assert outcome(reference_validation, plan, ce) is None
        for forged in tampered(ce):
            got = outcome(validate_counterexample, plan, forged)
            assert got == outcome(reference_validation, plan, forged), forged
            # another player may gain the same by the same switch, from a
            # symmetric profile under an anonymous plan; every other copy is refused
            if got is None:
                assert forged.player != ce.player
            else:
                refusals.add(got[0])
    assert refusals == {StaleViolation, ArityMismatch, FloatRejected}


def test_validation_finds_the_gain_check_nash_finds():
    """Every counterexample validation accepts is a NOT_EQUILIBRIUM verdict
    of check_nash, with at least the recorded gain for its player, and a
    gain recorded one millionth higher is refused."""
    cases = validation_cases()
    assert {ce.player for _, ce in cases} == {0, 1, 2}
    assert {plan.kind for plan, _ in cases} == {"wta", "lta", "m_linear", "bounded_linear"}
    for plan, ce in cases:
        validate_counterexample(plan, ce)
        report = check_nash(induce_game(ce.market, plan), ce.profile)
        assert report.verdict is Verdict.NOT_EQUILIBRIUM
        assert report.gains[ce.player] >= ce.gain > 0
        with pytest.raises(StaleViolation, match="differs from recomputed"):
            validate_counterexample(plan, replace(ce, gain=ce.gain + F(1, 10**6)))


def test_validation_computes_the_players_cells_only(monkeypatch):
    """On the WTA(3) counterexample over (0, 1, 2) validation's own game
    holds the profile and the recorded deviation: 2 cells, where the
    player's best-response search computed 4 and check_nash over all three
    players 10."""
    plan = WinnerTakeAllPlan(3)
    ce = universality_verdict(plan, ("0", "1", "2")).counterexample
    games = []

    def capturing(market, plan, earnings_weight=0):
        games.append(induce_game(market, plan, earnings_weight))
        return games[-1]

    monkeypatch.setattr(counterexamples, "induce_game", capturing)
    validate_counterexample(plan, ce)
    (game,) = games
    actions = tuple(s.pure_action for s in ce.profile.strategies)
    p = ce.player
    assert len(game.cells) == 2
    assert set(game.cells) == {actions, actions[:p] + (ce.deviation,) + actions[p + 1 :]}


@pytest.mark.parametrize(
    "plan,grid",
    [(WinnerTakeAllPlan(3), ("0", "1", "2")), (WinnerTakeAllPlan(2), ("0", "1"))],
    ids=["wta3", "wta2"],
)
def test_an_increase_counterexample_induces_one_game(monkeypatch, plan, grid):
    """The coordinate (WTA(3)) and the pair (WTA(2)) increase builders state
    no gain: the verdict induces one game, holding the profile's and the
    deviation's cells, and records the gain read from them."""
    games = []

    def capturing(market, plan, earnings_weight=0):
        games.append(induce_game(market, plan, earnings_weight))
        return games[-1]

    monkeypatch.setattr(counterexamples, "induce_game", capturing)
    report = universality_verdict(plan, grid)
    assert report.violation.direction is Direction.INCREASE
    ce = report.counterexample
    (game,) = games
    actions = tuple(s.pure_action for s in ce.profile.strategies)
    p = ce.player
    moved = actions[:p] + (ce.deviation,) + actions[p + 1 :]
    assert set(game.cells) == {actions, moved}
    assert ce.gain == game.payoff(moved)[p] - game.payoff(actions)[p] > 0


def test_a_verdict_refuses_floats_that_equal_its_exact_values():
    """The two-player loser-take-all counterexample over (0, 1/2, 1) has
    gain 1/2 and a certificate of dyadic expectations: validation refuses
    each as a float, though the float compares equal, and a gain of None or
    of a string ends in StaleViolation, not in a bare TypeError."""
    plan = LoserTakeAllPlan(2)
    ce = universality_verdict(plan, ("0", "1/2", "1")).counterexample
    assert ce.gain == 0.5
    certificate = tuple((label, float(value)) for label, value in ce.certificate)
    assert certificate == ce.certificate
    with pytest.raises(FloatRejected, match="refusing float gain 0.5"):
        validate_counterexample(plan, replace(ce, gain=0.5))
    with pytest.raises(FloatRejected, match="refusing float certificate value"):
        validate_counterexample(plan, replace(ce, certificate=certificate))
    for gain in (None, "1/2"):
        with pytest.raises(StaleViolation, match="is not an int or a Fraction"):
            validate_counterexample(plan, replace(ce, gain=gain))
    validate_counterexample(plan, ce)


def test_refusals_write_numbers_past_the_digit_limit():
    """A gain, deficit, coordinate or base point too long for int-to-str is
    written by its sign and the digit limit, and the call ends in its typed
    error, not in the ValueError of int-to-str."""
    limit = sys.get_int_max_str_digits()
    over = f"rational of over {limit} digits"
    tiny, big = F(1, 10 ** (limit + 1)), F(10**limit)
    wta, wta3 = WinnerTakeAllPlan(2), WinnerTakeAllPlan(3)
    ce = universality_verdict(wta, ("0", "1")).counterexample
    pair = probe_pairs(wta, ("0", "1"))[0]
    coordinate = probe_own_coordinate(wta3, ("0", "1", "2"))[0]
    cases = [
        (lambda: validate_counterexample(wta, replace(ce, gain=-tiny)),
         StaleViolation, f"gain a negative {over} is not positive"),
        (lambda: validate_counterexample(wta, replace(ce, gain=ce.gain + tiny)),
         StaleViolation, f"recorded gain a {over} differs from recomputed {ce.gain}"),
        (lambda: pair_increase_counterexample(wta, replace(pair, deficit=tiny)),
         StaleViolation, f"increase violation of player 0 with deficit a {over} does not match"),
        (lambda: pair_increase_counterexample(wta, replace(pair, x=big, y=big)),
         StaleViolation, f"moving a {over} to a {over} is not a increase"),
        (lambda: coordinate_increase_counterexample(wta3, replace(coordinate, base=(big, F(0)))),
         ArityMismatch, f"base point (a {over}, 0) is not a 3-vector"),
        (lambda: coordinate_increase_counterexample(wta3, replace(coordinate, base=(big,) * 3)),
         StaleViolation, f"base point (a {over}, a {over}, a {over}) has repeated coordinates"),
    ]
    for call, error, text in cases:
        with pytest.raises(error, match=re.escape(text)):
            call()


def test_refusals_within_the_digit_limit_write_numbers_as_str():
    """Within the limit a refusal writes its numbers as str() does, and a
    tuple with each item written so: (1/2, 1/2, 1/2), not Fraction reprs."""
    wta, wta3 = WinnerTakeAllPlan(2), WinnerTakeAllPlan(3)
    ce = universality_verdict(wta, ("0", "1")).counterexample
    pair = probe_pairs(wta, ("0", "1"))[0]
    coordinate = probe_own_coordinate(wta3, ("0", "1", "2"))[0]
    cases = [
        (lambda: validate_counterexample(wta, replace(ce, gain=F(-1, 3))),
         "gain -1/3 is not positive"),
        (lambda: validate_counterexample(wta, replace(ce, gain=ce.gain + 1)),
         f"recorded gain {ce.gain + 1} differs from recomputed {ce.gain}"),
        (lambda: pair_increase_counterexample(wta, replace(pair, deficit=F(1, 7))),
         "increase violation of player 0 with deficit 1/7 does not match the plan's current"
         " behavior"),
        (lambda: pair_increase_counterexample(wta, replace(pair, x=F(1, 2), y=F(1, 2))),
         "moving 1/2 to 1/2 is not a increase of the own result"),
        (lambda: coordinate_increase_counterexample(wta3, replace(coordinate, base=(F(1, 2),) * 3)),
         "base point (1/2, 1/2, 1/2) has repeated coordinates"),
    ]
    for call, text in cases:
        with pytest.raises(BonusLabError) as exc:
            call()
        assert str(exc.value) == text
