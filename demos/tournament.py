"""Walk through the two-bond tournament that motivates the package.

A safe bond X1 pays 5% surely; a risky bond X2 pays 5.1% with probability
3/5 and nothing otherwise, for a lower expectation.  Two fund managers are
paid a convex mix of their own gross earnings (weight L) and a
winner-take-all bonus (weight 1-L).  Exact arithmetic makes the dominance
threshold an explicit rational.

Run:  python demos/tournament.py
"""

from fractions import Fraction

from bonuslab import (
    Profile,
    WinnerTakeAllPlan,
    check_nash,
    format_rational,
    induce_game,
    market_to_dict,
    principal_value,
    two_bond_market,
    strict_dominance,
)

market = two_bond_market()
plan = WinnerTakeAllPlan(2)

print("The market:")
for atom in market_to_dict(market)["atoms"]:
    outcomes = ", ".join(
        f"{label} = {x}" for label, x in zip(market.actions, atom["outcomes"])
    )
    print(f"  with probability {atom['p']}: {outcomes}")
print(
    "Expectations:",
    ", ".join(
        f"E[{label}] = {format_rational(e)}"
        for label, e in zip(market.actions, market.expectations())
    ),
)
print("X1 is the better investment; the client would like both managers on it.")

print("\nPayoffs as functions of the earnings weight L (player 1 shown):")
zero = induce_game(market, plan, 0).payoffs
half = induce_game(market, plan, Fraction(1, 2)).payoffs
for combo, values in zero.items():
    constant = values[0]
    slope = 2 * (half[combo][0] - constant)
    label = ",".join(market.actions[a] for a in combo)
    print(f"  ({label}):  {format_rational(constant)} + {format_rational(slope)}*L")

print("\nDominance as L sweeps up:")
threshold = Fraction(500, 597)
for lam in (Fraction(0), Fraction(1, 2), Fraction(4, 5), threshold, Fraction(9, 10)):
    game = induce_game(market, plan, lam)
    report = strict_dominance(game)
    if report.unique_profile is None:
        outcome = "no strict dominance"
    else:
        label = ",".join(market.actions[a] for a in report.unique_profile)
        outcome = f"iterated elimination leaves ({label})"
    print(f"  L = {format_rational(lam)}:  {outcome}")
print(
    f"Below L = {format_rational(threshold)} the bonus term wins and both managers"
    " hold the risky bond."
)

print("\nThe bad equilibrium, checked exactly at L = 1/2:")
game = induce_game(market, plan, Fraction(1, 2))
both_risky = Profile.pure((1, 1), 2)
report = check_nash(game, both_risky)
print(f"  (X2,X2) verdict: {report.verdict.value}")
both_safe = Profile.pure((0, 0), 2)
report = check_nash(game, both_safe)
print(
    f"  (X1,X1) verdict: {report.verdict.value};"
    f" each manager gains {format_rational(report.gains[0])} by defecting to X2"
)
print(
    "  value to the client: "
    f"{format_rational(principal_value(market, both_safe))} at (X1,X1) vs "
    f"{format_rational(principal_value(market, both_risky))} at (X2,X2)"
)
print("\nThe winner-take-all bonus steers both managers into the worse bond.")
