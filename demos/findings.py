"""Findings that open work rests on, one line each, exactly as the library
computes them today.

Each line is a finding about the library's verdicts: where a search is
not decisive yet, where a published table disagrees with the model,
where a universality probe reads a refutable plan as constant, up to which
earnings weight a counterexample still refutes, and how the two-bond
equilibria move when each firm has its own weight.  A change that moves
one of them changes its line here on purpose.

Run:  python demos/findings.py
"""

import random
from fractions import Fraction
from itertools import product

from bonuslab import (
    BoundedLinearPlan,
    LoserTakeAllPlan,
    MixedAction,
    MLinearPlan,
    TabulatedPlan,
    WinnerTakeAllPlan,
    build_market,
    check_optimal,
    expectation,
    format_rational,
    induce_game,
    strict_dominance,
    two_bond_market,
    universality_verdict,
)


def verdict(market, plan, resolution=None):
    return check_optimal(market, plan, resolution).verdict.value


def rationals(values):
    return ", ".join(map(format_rational, values))


def switch_gain(market, plan, weight, actions, player, deviation):
    """What the player gains at earnings weight `weight` by leaving the pure
    profile `actions` for the action `deviation`."""
    game = induce_game(market, plan, weight)
    switched = actions[:player] + (deviation,) + actions[player + 1 :]
    return game.payoff(switched)[player] - game.payoff(actions)[player]


# A grid search is never decisive for a plan with no linear form: (A, A) is
# an equilibrium against every portfolio, yet a grid cannot say so.
one_atom = build_market(["A", "B"], [("1", ("2", "1"))])
wta = WinnerTakeAllPlan(2)
print(
    "exact best responses: WTA(2) where A pays 2 and B pays 1 reads"
    f" {verdict(one_atom, wta)} with no grid and {verdict(one_atom, wta, 4)} at d = 4"
)

# The published two-bond table against the model's payoffs, (1 - L) * share
# + L * own result: player 1's payoff is affine in L, and its slope is read
# from L = 0 and L = 1/2.
bonds = two_bond_market()
at_zero, at_half = (induce_game(bonds, wta, w) for w in (0, Fraction(1, 2)))
slopes = [2 * (at_half.payoff(combo)[0] - at_zero.payoff(combo)[0]) for combo in ((0, 1), (1, 0))]
print(
    "two-bond table: player 1's slope in L is"
    f" {format_rational(slopes[0])} at (X1, X2) and {format_rational(slopes[1])} at (X2, X1)"
)
pairs = []
for weight in (Fraction(500, 597), Fraction(4, 5), Fraction(9, 10)):
    found = strict_dominance(induce_game(bonds, wta, weight)).pairs
    pairs.append(f"{format_rational(weight)}: {found or 'none'}")
print("two-bond dominance pairs (player, dominator, dominated) at L = " + "; ".join(pairs))

# Universality at three players: a probe that skips repeated coordinates
# reads a refutable plan as constant.
favoured = (1, 0, 0)
first = TabulatedPlan(3, {(x,) * 3: favoured for x in range(3)}, (Fraction(1, 3),) * 3)
sink = build_market(["A", "B"], [("1", ("0", "-1"))])
print(
    "three players, first tabulated plan: "
    f"{universality_verdict(first, ('0', '1', '2', '3')).verdict} on {{0, 1, 2, 3}},"
    f" {verdict(sink, first)} where A pays 0 and B pays -1"
)

# f_i(x) = 1/3 + (x_{i+1} - x_{i+2}) / 6: no player's share moves with its own
# result on {0, 1, 2}, so every profile is an equilibrium there.
table = {
    x: tuple(Fraction(1, 3) + Fraction(x[(i + 1) % 3] - x[(i + 2) % 3], 6) for i in range(3))
    for x in product(range(3), repeat=3)
}
second = TabulatedPlan(3, table, (Fraction(1, 3),) * 3)
rng = random.Random(7)
optimal = 0
for _ in range(200):
    n = rng.randint(2, 3)
    atoms = [
        (rng.randint(1, 9), tuple(str(rng.randint(0, 2)) for _ in range(n)))
        for _ in range(rng.randint(1, 4))
    ]
    total = sum(weight for weight, _ in atoms)
    market = build_market([f"A{i}" for i in range(n)], [(Fraction(w, total), o) for w, o in atoms])
    optimal += verdict(market, second) == "optimal"
print(
    "three players, second tabulated plan: maps (0, 1, 2) to"
    f" ({rationals(second.evaluate((0, 1, 2)))}),"
    f" {universality_verdict(second, ('0', '1', '2')).verdict} on {{0, 1, 2}},"
    f" {universality_verdict(second, ('0', '1', '2', '3')).verdict} on {{0, 1, 2, 3}},"
    f" optimal on {optimal} of 200 seeded markets with outcomes in {{0, 1, 2}}"
)

# Universality at w > 0: a switch's gain is (1 - w) * g0 + w * dE, g0 its gain
# at w = 0 and dE < 0 the expectation the deviator gives up, so a
# counterexample refutes exactly below w* = g0 / (g0 - dE).  The identity is
# checked against the gain at w = 1/2.
found, matches = [], 0
for name, plan, points in (
    ("WTA(2)", WinnerTakeAllPlan(2), range(3)),
    ("LTA(2)", LoserTakeAllPlan(2), range(3)),
    ("WTA(3)", WinnerTakeAllPlan(3), range(3)),
    ("LTA(3)", LoserTakeAllPlan(3), range(3)),
    ("m_linear(2)", MLinearPlan(2, 1, 0, 1), range(3)),
    ("bounded_linear(2)", BoundedLinearPlan(2, 1), range(4)),
):
    ce = universality_verdict(plan, points).counterexample
    actions = tuple(s.pure_action for s in ce.profile.strategies)
    n = ce.market.n
    given_up = expectation(ce.market, MixedAction.pure(ce.deviation, n)) - expectation(
        ce.market, MixedAction.pure(actions[ce.player], n)
    )
    gain_at_half = switch_gain(ce.market, plan, Fraction(1, 2), actions, ce.player, ce.deviation)
    matches += gain_at_half == (ce.gain + given_up) / 2
    found.append(f"{name} {format_rational(ce.gain / (ce.gain - given_up))}")
print(
    f"universality at w > 0: w* = g0 / (g0 - dE), the gain at w = 1/2 as predicted"
    f" in {matches} of {len(found)}: " + ", ".join(found)
)

# Yet a builder that sizes dE to w refutes at high w.  WTA(2): A pays 0, B
# pays e = (1 - w) / 100 with probability 999/1000 and -2000e with 1/1000.
# LTA(2): one atom where A pays 0 and B pays -e.  Each switch leaves (A, A).
gains = []
for weight in (Fraction(9, 10), Fraction(99, 100)):
    e = (1 - weight) / 100
    rare = build_market(["A", "B"], [("999/1000", (0, e)), ("1/1000", (0, -2000 * e))])
    sure = build_market(["A", "B"], [("1", (0, -e))])
    wta_gain = switch_gain(rare, wta, weight, (0, 0), 0, 1)
    lta_gain = switch_gain(sure, LoserTakeAllPlan(2), weight, (0, 0), 0, 1)
    gains.append(
        f"{format_rational(weight)}: WTA(2) {format_rational(wta_gain)},"
        f" LTA(2) {format_rational(lta_gain)}"
    )
print("high-w switch gains from (A, A) at w = " + "; ".join(gains))

# One earnings weight per firm on the two-bond market under WTA(2):
# u_i = (1 - w_i) * share_i + w_i * E[a_i], shares from the w = 0 game's
# cells; an equilibrium survives every pure deviation.
earned = [expectation(bonds, MixedAction.pure(a, bonds.n)) for a in range(bonds.n)]


def firm_payoff(combo, player, weight):
    return (1 - weight) * at_zero.payoff(combo)[player] + weight * earned[combo[player]]


rows = []
half, high, switch = Fraction(1, 2), Fraction(9, 10), Fraction(500, 597)
for weights in ((0, 0), (high, high), (high, half), (half, high), (switch, half),
                (high, switch), (switch, switch)):
    equilibria = [
        "(" + ", ".join(bonds.actions[a] for a in combo) + ")"
        for combo in product(range(bonds.n), repeat=2)
        if all(
            firm_payoff(combo, i, w)
            >= firm_payoff(combo[:i] + (b,) + combo[i + 1 :], i, w)
            for i, w in enumerate(weights)
            for b in range(bonds.n)
        )
    ]
    rows.append(f"({rationals(weights)}) {' '.join(equilibria)}")
print("two-bond pure equilibria per firm weights (w1, w2): " + "; ".join(rows))
