"""Shared fixtures: a seeded market generator, a reference allocation rule
and the acceptance summary.

Tests marked ``@pytest.mark.criterion(n, "...")`` are tallied and reported
as one PASS/FAIL line per criterion id at the end of the run.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from bonuslab import BonusPlan, Market, build_market
from bonuslab.rational import rationals

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
