"""Refute popular bonus plans with explicit counterexample markets.

No fixed non-constant plan works for every market.  The probes below find
where a plan's payout moves with a player's own result, and the builders
turn each such movement into a market on which the plan makes the best
profile unstable — with an exact deviation-gain certificate, re-verified
by the equilibrium checker.

Run:  python demos/probe_universality.py
"""

from bonuslab import (
    ConstantPlan,
    LoserTakeAllPlan,
    WinnerTakeAllPlan,
    format_rational,
    market_to_dict,
    universality_verdict,
)


def describe(name, plan, grid):
    print(f"{name}, probed on {{{', '.join(grid)}}}:")
    report = universality_verdict(plan, grid)
    if report.verdict == "constant-on-grid":
        print("  constant across the grid — nothing to refute\n")
        return
    v = report.violation
    ce = report.counterexample
    moved = "lower" if v.direction.value == "decrease" else "higher"
    print(f"  violation: player {v.player + 1} is paid "
          f"{format_rational(v.deficit)} more for a {moved} own result")
    print("  counterexample market:")
    atoms = market_to_dict(ce.market)["atoms"]
    for atom in atoms[:4]:
        print(f"    p = {atom['p']}: ({', '.join(atom['outcomes'])})")
    if len(atoms) > 4:
        print(f"    ... {len(atoms) - 4} more atoms")
    spoiler = ce.market.actions[ce.deviation]
    print(
        f"  player {ce.player + 1} abandons the best action for {spoiler} "
        f"and gains {format_rational(ce.gain)} exactly\n"
    )


describe("Winner-take-all, two players", WinnerTakeAllPlan(2), ("0", "1"))
describe("Loser-take-all, two players", LoserTakeAllPlan(2), ("0", "1"))
describe("Equal split, two players", ConstantPlan(2), ("0", "1/2", "1"))
describe("Winner-take-all, three players", WinnerTakeAllPlan(3), ("1", "2", "3"))
describe("Loser-take-all, three players", LoserTakeAllPlan(3), ("1", "2", "3"))

print("Only the constant plan survives — and a constant plan motivates nothing.")
