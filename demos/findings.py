"""Findings that open work rests on, one line each, exactly as the library
computes them today.

Each line is a finding about the library's verdicts: where a search is
not decisive yet, where a published table disagrees with the model, and
where a universality probe reads a refutable plan as constant.  A change
that moves one of them changes its line here on purpose.

Run:  python demos/findings.py
"""

import random
from fractions import Fraction
from itertools import product

from bonuslab import (
    TabulatedPlan,
    WinnerTakeAllPlan,
    build_market,
    check_optimal,
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
