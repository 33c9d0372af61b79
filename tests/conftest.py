"""Shared fixtures: seeded and hypothesis market generators, plans of every
kind for a market, reference market and portfolio checks, integer views, portfolio values and
expectations, product atoms, the coordinate counterexamples' index-rule
market, allocation rule and dominance relation, and the acceptance summary.

Tests marked ``@pytest.mark.criterion(n, "...")`` are tallied and reported
as one PASS/FAIL line per criterion id at the end of the run.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st

from bonuslab import (
    ArityMismatch,
    BonusPlan,
    BoundedLinearPlan,
    ConstantPlan,
    DominanceReport,
    LoserTakeAllPlan,
    Market,
    MixedAction,
    MLinearPlan,
    NonPositiveProbability,
    NonSimplexWeights,
    NonUnitMass,
    TabulatedPlan,
    WinnerTakeAllPlan,
    build_market,
    market_from_dict,
    market_to_dict,
)
from bonuslab.game import Elimination
from bonuslab.market import IntegerView
from bonuslab.rational import as_rational, rationals

# `tests/mutants.py` runs under this profile: a failing example is enough
# to catch a mutant, so it is not shrunk
settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate))

_DENOMINATORS = (1, 1, 1, 2, 2, 4, 5, 8)


def random_market(
    rng: random.Random,
    *,
    outlier: bool = False,
    max_actions: int = 4,
    max_atoms: int = 6,
) -> Market:
    """A small market with exact rational outcomes and a unique best action.

    Probabilities are integer weights over a common denominator, so they sum
    to one exactly.  With ``outlier=True`` one atom carries probability at
    most 1/1000 and holds an outcome of magnitude at least 1000.
    """
    for _ in range(200):
        n = rng.randint(2, max_actions)
        count = rng.randint(2, max_atoms)
        values = [
            [
                Fraction(rng.randint(-40, 40), rng.choice(_DENOMINATORS))
                for _ in range(n)
            ]
            for _ in range(count)
        ]
        weights = [rng.randint(1, 9) for _ in range(count)]
        total = sum(weights)
        probabilities = [Fraction(w, total) for w in weights]
        if outlier:
            rare = Fraction(1, 1000 * rng.randint(1, 20))
            probabilities = [p * (1 - rare) for p in probabilities]
            spike = Fraction(
                rng.choice([-1, 1]) * rng.randint(1000, 10**6),
                rng.choice(_DENOMINATORS),
            )
            row = [
                Fraction(rng.randint(-40, 40), rng.choice(_DENOMINATORS))
                for _ in range(n)
            ]
            row[rng.randrange(n)] = spike
            values.append(row)
            probabilities.append(rare)
        market = build_market(
            [f"A{i + 1}" for i in range(n)],
            zip(probabilities, (tuple(row) for row in values)),
        )
        top = max(market.expectations())
        if sum(1 for e in market.expectations() if e == top) == 1:
            return market
    raise AssertionError("generator failed to produce a unique-argmax market")


outcome = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def markets(draw, max_actions=3):
    """A market of 2..max_actions actions and 1-3 atoms, small exact values."""
    n = draw(st.integers(2, max_actions))
    rows = draw(st.lists(st.lists(outcome, min_size=n, max_size=n), min_size=1, max_size=3))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(rows), max_size=len(rows)))
    total = sum(weights)
    atoms = [(Fraction(wt, total), tuple(row)) for wt, row in zip(weights, rows)]
    return build_market([f"A{i}" for i in range(n)], atoms)


@st.composite
def tied_markets(draw, max_actions=4):
    """A market of 2..max_actions actions on 1-4 atoms with values in
    {-2, ..., 2}: ties between actions' expectations, and whole columns,
    are common."""
    n = draw(st.integers(2, max_actions))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(rows), max_size=len(rows)))
    atoms = [(Fraction(wt, sum(weights)), tuple(map(Fraction, r))) for wt, r in zip(weights, rows)]
    return build_market([f"A{i}" for i in range(n)], atoms)


def fraction_atoms(market: Market) -> list[tuple[Fraction, tuple[Fraction, ...]]]:
    """Reference: a market's (probability, outcomes) pairs in Fractions, each
    weight of its integer view over the mass and each value over the scale.

    Tests read a market's content through this oracle, not through the
    derived `Market.atoms`, which only its own tests read."""
    view = market.integer_view
    return [
        (Fraction(weight, view.mass), tuple(Fraction(x, view.scale) for x in row))
        for weight, row in zip(view.weights, view.values)
    ]


def every_kind(market, k):
    """One plan of each kind; the gated and tabulated ones bite on this market."""
    atoms = fraction_atoms(market)
    values = sorted({x for _, row in atoms for x in row})
    lo, hi = values[0], values[len(values) // 2]
    first = atoms[0][1]
    favoured = (Fraction(1),) + (Fraction(0),) * (k - 1)
    return [
        ConstantPlan(k),
        WinnerTakeAllPlan(k),
        LoserTakeAllPlan(k),
        MLinearPlan(k, max(hi - lo, Fraction(1)), lo, hi),
        BoundedLinearPlan(k, Fraction(3, 2)),
        TabulatedPlan(k, {(first[0],) * k: favoured}, (Fraction(1, k),) * k),
    ]


def plans_with_a_form(market, k):
    """The constant plan, and each linear kind once with a gate that covers
    the market and, where the market allows, once with one that does not."""
    atoms = fraction_atoms(market)
    values = sorted({x for _, row in atoms for x in row})
    lo, hi = values[0], values[-1]
    spread = max(max(row) - min(row) for _, row in atoms)
    plans = [
        ConstantPlan(k),
        MLinearPlan(k, max(hi - lo, Fraction(1)), lo, hi),
        BoundedLinearPlan(k, max(spread / 2, Fraction(1, 2))),
    ]
    if len(values) > 1:  # the largest value falls outside the interval
        plans.append(MLinearPlan(k, max(hi - lo, Fraction(1)), lo, values[-2]))
    if spread:  # the widest atom closes the output gate
        plans.append(BoundedLinearPlan(k, spread / 4))
    return plans


def fraction_value(strategy: MixedAction, outcomes) -> Fraction:
    """Reference: a portfolio's realized value at one atom, the weighted sum
    of the atom's pure outcomes, in Fractions."""
    return sum(map(mul, strategy.weights, outcomes), start=Fraction(0))


def fraction_expectation(market: Market, strategy: MixedAction) -> Fraction:
    """Reference: a portfolio's expectation, probability times realized value
    summed atom by atom in Fractions.

    The package computed every expectation this way before it read them from
    the market's integer view; a differential test against it compares two
    independent computations.
    """
    return sum(
        (p * fraction_value(strategy, outcomes) for p, outcomes in fraction_atoms(market)),
        start=Fraction(0),
    )


def vector_text(vector: tuple) -> str:
    """Reference: a message's tuple of numbers, each written by str(), as
    documents spell them: "(1/2, 0)", "(1,)"."""
    items = [str(x) for x in vector]
    return f"({', '.join(items)}{',' if len(items) == 1 else ''})"


def fraction_mixed_check(weights) -> tuple[Fraction, ...]:
    """Reference: the checks `MixedAction` made on its weights in Fractions
    before it made them on integer counts, with the same errors and
    messages: the coercion, an empty vector, a weight out of [0, 1], then a
    Fraction sum other than 1.  Returns the coerced weights."""
    weights = rationals(weights)
    if not weights:
        raise NonSimplexWeights("empty weight vector")
    if any(w < 0 or w > 1 for w in weights):
        raise NonSimplexWeights(f"weights out of [0, 1]: {vector_text(weights)}")
    if sum(weights) != 1:
        raise NonSimplexWeights(
            f"weights sum to {sum(weights)}, not 1: {vector_text(weights)}"
        )
    return weights


def fraction_market_check(actions, atoms) -> None:
    """Reference: the checks `Market` made on its atoms in Fractions before
    it made them on its integer view, with the same errors and messages.
    In atom order, a probability <= 0, then a wrong outcome count; last, a
    running Fraction sum of the probabilities other than 1."""
    n, total = len(actions), Fraction(0)
    for p, outcomes in atoms:
        if p <= 0:
            raise NonPositiveProbability(f"atom probability {p} is not positive")
        if len(outcomes) != n:
            raise ArityMismatch(f"atom has {len(outcomes)} outcomes, expected {n}")
        total += p
    if total != 1:
        raise NonUnitMass(f"atom probabilities sum to {total}, not 1")


def fraction_integer_view(atoms) -> IntegerView:
    """Reference: the integer view by Fraction products, each number times
    the lcm of its kind's denominators."""
    scale = lcm(*(x.denominator for _, outcomes in atoms for x in outcomes))
    mass = lcm(*(p.denominator for p, _ in atoms))
    return IntegerView(
        scale,
        mass,
        tuple(int(p * mass) for p, _ in atoms),
        tuple(tuple(int(x * scale) for x in outcomes) for _, outcomes in atoms),
    )


def assert_rebuilds_from_its_atoms(market: Market) -> None:
    """A market built on its integer view is the market `build_market`
    makes of its own derived atoms: equal, with the same view and the same
    document, and the document reads back as it.  The atoms are derived
    once: a second read returns the same tuple."""
    atoms = market.atoms
    assert market.atoms is atoms
    rebuilt = build_market(market.actions, atoms)
    assert rebuilt == market
    assert rebuilt.integer_view == market.integer_view
    assert rebuilt.atoms == atoms
    document = market_to_dict(market)
    assert market_to_dict(rebuilt) == document
    assert market_from_dict(document) == market


def fraction_product_atoms(marginal, copies: int, rules=()) -> list[tuple[Fraction, tuple]]:
    """Reference: (probability, outcomes) of each atom of `copies` i.i.d.
    draws from a marginal of (value, probability) pairs with distinct
    values, in product order of the sorted support: the probability a
    product of Fraction masses, and the outcomes the draw's values, then
    each rule's value there, read on the draw's indices into the sorted
    support."""
    support = sorted(marginal)
    atoms = []
    for ix in product(range(len(support)), repeat=copies):
        probability = Fraction(1)
        for i in ix:
            probability *= support[i][1]
        combo = tuple(support[i][0] for i in ix)
        extras = tuple(as_rational(rule(ix)) for _, rule in rules)
        atoms.append((probability, combo + extras))
    return atoms


def index_rule_market(violation, marginal, low=None) -> Market:
    """Reference: a coordinate counterexample's market built in Fractions
    from a rule on support indices, the way the coordinate builders once
    did, with no atom cap.  `marginal` lists (value, probability) pairs, one
    per base coordinate and, with a `low` value, the high escape last.  The
    actions are X1..Xk, one per draw, and the deviation "dev", which
    realizes the witness on the base atom, `low` wherever a draw is the
    escape, the last support index, and the violating player's draw
    elsewhere."""
    player, witness = violation.player, violation.witness
    support = sorted(v for v, _ in marginal)
    base_ix = tuple(map(support.index, violation.base))
    top = len(support) - 1

    def deviation(ix):
        if ix == base_ix:
            return witness
        if low is not None and top in ix:
            return low
        return support[ix[player]]

    k = len(base_ix)
    labels = tuple(f"X{j + 1}" for j in range(k)) + ("dev",)
    return build_market(labels, fraction_product_atoms(marginal, k, [("dev", deviation)]))


def fraction_allocation(plan: BonusPlan, results) -> tuple[Fraction, ...]:
    """Reference: each built-in kind's allocation, in Fractions.

    Written from the rules in the `bonuslab.plans` module docstring and kept
    apart from the package's integer kernels, so a differential test against
    it compares two independent statements of each rule.
    """
    r = rationals(results)
    k = plan.players
    assert len(r) == k
    equal = (Fraction(1, k),) * k
    if plan.kind == "constant":
        return equal
    if plan.kind in ("wta", "lta"):
        pick = max(r) if plan.kind == "wta" else min(r)
        share = Fraction(1, r.count(pick))
        return tuple(share if v == pick else Fraction(0) for v in r)
    if plan.kind == "tabulated":
        return plan.points.get(r, plan.fallback)
    linear = tuple(
        Fraction(1, k) + (k * v - sum(r)) / (2 * k * (k - 1) * plan.bound) for v in r
    )
    if plan.kind == "m_linear":
        active = all(plan.lo <= v <= plan.hi for v in r)
    elif plan.kind == "bounded_linear":
        active = all(0 <= s <= Fraction(2, k) for s in linear)
    else:
        raise AssertionError(f"no reference rule for plan kind {plan.kind!r}")
    return linear if active else equal


def tensor_dominance(game) -> DominanceReport:
    """Reference: strict dominance and iterated elimination read from the
    full payoff tensor, one relation per player, for any plan.

    The package computed dominance this way before anonymous plans shared
    one relation over sorted opponent profiles; a differential test against
    it checks the pairs, the elimination trace in order, and the survivors.
    """
    k, n = game.players, game.actions
    table = game.payoffs

    def dominated(player, a, b, alive):
        others = [alive[j] for j in range(k) if j != player]
        for rest in product(*others):
            combo_a = rest[:player] + (a,) + rest[player:]
            combo_b = rest[:player] + (b,) + rest[player:]
            if table[combo_a][player] <= table[combo_b][player]:
                return False
        return True

    full = [tuple(range(n))] * k
    pairs = tuple(
        (p, a, b)
        for p in range(k)
        for a in range(n)
        for b in range(n)
        if a != b and dominated(p, a, b, full)
    )
    alive = [tuple(range(n)) for _ in range(k)]
    trace = []
    round_no = 0
    while True:
        round_no += 1
        removals = []
        for p in range(k):
            for b in alive[p]:
                dominator = next(
                    (a for a in alive[p] if a != b and dominated(p, a, b, alive)),
                    None,
                )
                if dominator is not None:
                    removals.append((p, b, dominator))
        if not removals:
            break
        for p, b, a in removals:
            trace.append(Elimination(round_no, p, b, a))
        for p in range(k):
            gone = {b for q, b, _ in removals if q == p}
            alive[p] = tuple(x for x in alive[p] if x not in gone)
    survivors = tuple(alive)
    unique = (
        tuple(s[0] for s in survivors) if all(len(s) == 1 for s in survivors) else None
    )
    return DominanceReport(pairs, tuple(trace), survivors, unique)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


# ---------------------------------------------------------------------
# Acceptance criterion tally
# ---------------------------------------------------------------------

_criteria: dict[int, dict] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(n, description): acceptance criterion this test backs"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    number = marker.args[0]
    description = marker.args[1] if len(marker.args) > 1 else ""
    entry = _criteria.setdefault(number, {"description": description, "ok": True})
    if description and not entry["description"]:
        entry["description"] = description
    if report.outcome == "failed":
        entry["ok"] = False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criteria:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(_criteria):
        entry = _criteria[number]
        word = "PASS" if entry["ok"] else "FAIL"
        terminalreporter.write_line(
            f"ACCEPTANCE {number}: {word}  {entry['description']}"
        )
