"""Plan builders: the support-interval plan and the certified-bound plan."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bonuslab import (
    BoundSearchResult,
    ExpectationNotUnique,
    GridCapExceeded,
    GridWitness,
    InvalidParameter,
    MixedAction,
    MLinearPlan,
    OptimalityVerdict,
    build_bounded_linear,
    build_m_linear,
    build_market,
    check_optimal,
    find_bounding_m,
    simplex_grid,
    two_bond_market,
)
from conftest import fraction_atoms, random_market

F = Fraction


def test_support_bound():
    market = build_market(["A", "B"], [("1/2", ("-3", "1")), ("1/2", ("2", "0"))])
    assert build_m_linear(market, 2).bound == F(3)


def test_interval_plan_uses_support_interval_and_bound():
    plan = build_m_linear(two_bond_market(), 2)
    assert (plan.bound, plan.lo, plan.hi) == (F(1051, 1000), F(1), F(1051, 1000))
    assert plan.evaluate(("1051/1000", "1")) == (F(2153, 4204), F(2051, 4204))


def test_interval_plan_handles_negative_support():
    market = build_market(["A", "B"], [("1/2", ("-5", "-1")), ("1/2", ("-2", "-4"))])
    plan = build_m_linear(market, 3)
    assert (plan.bound, plan.lo, plan.hi) == (F(5), F(-5), F(-1))


def test_interval_plan_reads_the_least_and_largest_outcome():
    market = build_market(["A", "B"], [("1/4", ("2", "0")), ("3/4", ("-1", "1"))])
    plan = build_m_linear(market, 2)
    assert (plan.lo, plan.hi, plan.bound) == (F(-1), F(2), F(2))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_interval_plan_matches_the_fraction_outcomes(seed, outlier):
    """Read from the integer view: the interval is the least and largest of
    the atoms' Fraction outcomes, and the bound their largest magnitude."""
    market = random_market(random.Random(seed), outlier=outlier)
    values = sorted({x for _, outcomes in fraction_atoms(market) for x in outcomes})
    plan = build_m_linear(market, 2)
    assert (plan.lo, plan.hi) == (values[0], values[-1])
    assert plan.bound == max(abs(x) for x in values)


def test_interval_plan_needs_a_scale():
    """Where every outcome is 0 there is no magnitude to scale by, and every
    plan is optimal: the plan is the interval [0, 0] with bound 1, its form
    is open on the whole market, and the verdict is a decisive optimal."""
    flat = build_market(["A", "B"], [("1", ("0", "0"))])
    for k in (2, 3, 5):
        plan = build_m_linear(flat, k)
        assert plan == MLinearPlan(k, 1, 0, 0)
        assert plan.linear_form(flat) is not None
        for resolution in (None, 4):
            report = check_optimal(flat, plan, resolution)
            assert report.verdict is OptimalityVerdict.OPTIMAL
            assert report.witness == (0,) * k


def test_bound_search_on_the_two_bond_market():
    result = find_bounding_m(two_bond_market(), 10)
    assert result.bound == F(1, 20)
    assert result.min_gap == F(97, 50000)
    assert result.best_action == 0
    assert result.grid_resolution == 10
    # ten grid points besides the best action's vertex
    assert len(result.witnesses) == 10
    tightest = min(result.witnesses, key=lambda w: w.gap)
    assert tightest.weights == (F(9, 10), F(1, 10))


def test_bound_search_requires_unique_best():
    tied = build_market(["A", "B"], [("1/2", ("1", "0")), ("1/2", ("0", "1"))])
    with pytest.raises(ExpectationNotUnique, match=re.escape("[0, 1] tie at expectation 1/2;")):
        find_bounding_m(tied, 4)


def _difference_distribution(market, weights, best):
    dist = {}
    for p, outcomes in fraction_atoms(market):
        value = sum(w * x for w, x in zip(weights, outcomes))
        diff = value - outcomes[best]
        dist[diff] = dist.get(diff, F(0)) + p
    return dist


def _passes_truncation_tests(dist, gap, m):
    drift = sum(l * p for l, p in dist.items() if abs(l) <= m)
    tail = sum(abs(l) * p for l, p in dist.items() if abs(l) > m)
    return drift < -gap / 2 and tail < gap / 2


def _check_witness(market, best, witness):
    """Recompute everything the witness certifies from scratch."""
    dist = _difference_distribution(market, witness.weights, best)
    gap = -sum(l * p for l, p in dist.items())
    assert gap == witness.gap
    assert gap > 0
    magnitudes = sorted({abs(l) for l in dist if l != 0})
    assert witness.tail_empty_at == magnitudes[-1]
    assert witness.threshold in magnitudes
    for m in magnitudes:
        if m >= witness.threshold:
            assert _passes_truncation_tests(dist, gap, m)
    below = [m for m in magnitudes if m < witness.threshold]
    if below:
        # minimality: one step lower the suffix property already fails
        assert not _passes_truncation_tests(dist, gap, below[-1])


def test_witness_invariants_recompute():
    market = two_bond_market()
    result = find_bounding_m(market, 10)
    for witness in result.witnesses:
        _check_witness(market, result.best_action, witness)
    assert result.bound == max(
        max(w.threshold, w.tail_empty_at) for w in result.witnesses
    )
    assert result.min_gap == min(w.gap for w in result.witnesses)


def test_witness_invariants_on_random_markets(rng):
    for _ in range(15):
        market = random_market(rng)
        result = find_bounding_m(market, 4)
        for witness in result.witnesses:
            _check_witness(market, result.best_action, witness)


def test_refining_the_grid_tightens_the_gap_not_the_bound():
    """Coarse grids embed in finer ones, so the minimum gap cannot rise."""
    market = two_bond_market()
    results = {d: find_bounding_m(market, d) for d in (2, 4, 8)}
    assert results[4].min_gap <= results[2].min_gap
    assert results[8].min_gap <= results[4].min_gap
    assert results[2].bound <= results[4].bound <= results[8].bound
    # on this market the bound is pinned by the pure risky-bond vertex
    assert {r.bound for r in results.values()} == {F(1, 20)}


def test_bounded_plan_passes_optimality():
    market = two_bond_market()
    plan = build_bounded_linear(market, 2, 10)
    assert plan.bound == F(1, 20)
    report = check_optimal(market, plan)
    assert report.verdict is OptimalityVerdict.OPTIMAL


def test_grid_resolution_is_validated_but_does_not_change_the_bounded_plan():
    market = two_bond_market()
    plans = {build_bounded_linear(market, 2, d) for d in range(1, 7)}
    assert plans == {build_bounded_linear(market, 2, 10)}
    with pytest.raises(InvalidParameter):
        build_bounded_linear(market, 2, 0)
    with pytest.raises(GridCapExceeded):  # a 2-action grid of d has d + 1 points
        build_bounded_linear(market, 2, 200_000)
    tied = build_market(["A", "B"], [("1/2", ("1", "0")), ("1/2", ("0", "1"))])
    with pytest.raises(ExpectationNotUnique):  # the tie is checked before the grid
        build_bounded_linear(tied, 2, 0)


def test_certified_bound_can_be_far_below_the_support_bound():
    """Outliers shared by both actions cancel in the differences.

    Both actions pay about a million on the rare atom, so the support bound
    is huge; their pointwise difference never exceeds 1/10, and the
    certified bound sees only that.
    """
    market = build_market(
        ["A", "B"],
        [
            ("999999/1000000", ("1", "9/10")),
            ("1/1000000", ("1000000", "9999999/10")),
        ],
    )
    assert build_m_linear(market, 2).bound == F(1000000)
    result = find_bounding_m(market, 6)
    assert result.bound == F(1, 10)
    plan = build_bounded_linear(market, 2, 6)
    assert check_optimal(market, plan).verdict is OptimalityVerdict.OPTIMAL


# ---------------------------------------------------------------------
# The integer sweep against the per-magnitude rescan it replaced
# ---------------------------------------------------------------------


def rescan_witness(market, point, best):
    """Oracle: the Fraction distribution of q - X*, rescanned per magnitude."""
    dist = _difference_distribution(market, point.weights, best)
    gap = -sum(l * p for l, p in dist.items())
    magnitudes = sorted({abs(l) for l in dist if l != 0})
    threshold = None
    for m in reversed(magnitudes):
        if not _passes_truncation_tests(dist, gap, m):
            break
        threshold = m
    return GridWitness(point.weights, gap, threshold, magnitudes[-1])


def rescan_bounding_m(market, resolution):
    exps = market.expectations()
    best = exps.index(max(exps))
    witnesses = tuple(
        rescan_witness(market, point, best)
        for point in simplex_grid(market.n, resolution)
        if point.pure_action != best
    )
    bound = max(max(w.threshold, w.tail_empty_at) for w in witnesses)
    min_gap = min(w.gap for w in witnesses)
    return BoundSearchResult(bound, min_gap, resolution, best, witnesses)


value = st.fractions(min_value=-40, max_value=40, max_denominator=8)


@st.composite
def unique_best_markets(draw):
    """Markets of the bench's deep shapes (2-5 actions, up to 8 atoms) with a
    unique best action, one in two with an outlier atom."""
    n = draw(st.integers(2, 5))
    rows = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=1, max_size=8))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(rows), max_size=len(rows)))
    probabilities = [F(w, sum(weights)) for w in weights]
    if draw(st.booleans()):
        rare = F(1, 1000 * draw(st.integers(1, 20)))
        probabilities = [p * (1 - rare) for p in probabilities]
        row = draw(st.lists(value, min_size=n, max_size=n))
        spike = draw(st.integers(1000, 10**6)) * draw(st.sampled_from((-1, 1)))
        row[draw(st.integers(0, n - 1))] = F(spike, draw(st.sampled_from((1, 2, 5, 8))))
        rows.append(row)
        probabilities.append(rare)
    market = build_market([f"A{i}" for i in range(n)], zip(probabilities, map(tuple, rows)))
    exps = market.expectations()
    assume(exps.count(max(exps)) == 1)
    return market


@settings(max_examples=60, deadline=None)
@given(unique_best_markets(), st.integers(1, 8))
def test_sweep_matches_the_rescan(market, resolution):
    """Identical witnesses, bound and min_gap, outlier markets included; a
    threshold at the widest magnitude is that magnitude's Fraction."""
    oracle = rescan_bounding_m(market, resolution)
    result = find_bounding_m(market, resolution)
    assert result == oracle
    for w in result.witnesses:
        assert (w.threshold is w.tail_empty_at) == (w.threshold == w.tail_empty_at)
    assert build_bounded_linear(market, 2, resolution).bound == oracle.bound


def test_a_witness_is_an_immutable_tuple_of_its_four_fields():
    market = build_market(["best", "A"], [("6/7", ("0", "-1")), ("1/7", ("0", "2"))])
    (witness,) = find_bounding_m(market, 1).witnesses
    assert witness.weights == (F(0), F(1))
    assert (witness.gap, witness.threshold, witness.tail_empty_at) == (F(4, 7), F(2), F(2))
    assert witness == (witness.weights, witness.gap, witness.threshold, witness.tail_empty_at)
    for name in GridWitness._fields:
        with pytest.raises(AttributeError):
            setattr(witness, name, F(0))
    assert witness == rescan_witness(market, MixedAction.pure(1, 2), 0)


def test_a_tail_of_exactly_half_the_gap_fails_the_test():
    """q - X* is -1 w.p. 6/7 and 2 w.p. 1/7: gap 4/7, and at m = 1 the tail
    is 2/7, exactly half the gap, so the strict test fails there."""
    market = build_market(["best", "A"], [("6/7", ("0", "-1")), ("1/7", ("0", "2"))])
    (witness,) = find_bounding_m(market, 1).witnesses
    assert (witness.gap, witness.threshold, witness.tail_empty_at) == (F(4, 7), F(2), F(2))
    assert find_bounding_m(market, 1) == rescan_bounding_m(market, 1)


def test_sweep_matches_the_rescan_on_seeded_outlier_markets(rng):
    for _ in range(20):
        market = random_market(rng, outlier=True)
        assert find_bounding_m(market, 5) == rescan_bounding_m(market, 5)


# ---------------------------------------------------------------------
# The one-pass sweep: the widest magnitude first, the sort only below it
# ---------------------------------------------------------------------


def _one_witness(rows):
    """The single witness of a two-action market at d = 1: q is action A's
    vertex, so q - X* at each atom is A's outcome there (X* pays 0)."""
    market = build_market(["best", "A"], [(p, ("0", l)) for p, l in rows])
    (witness,) = find_bounding_m(market, 1).witnesses
    assert find_bounding_m(market, 1) == rescan_bounding_m(market, 1)
    return witness


@pytest.mark.parametrize(
    "rows,gap,threshold,widest",
    [
        # 3 and -3 tie at the widest magnitude: 3/10 each is short of half the
        # gap, 4/10, and together, 6/10, they cover it
        ([("1/10", "3"), ("1/10", "-3"), ("8/10", "-1")], F(4, 5), F(3), F(3)),
        # the widest tail, 26/100, is one hundredth short of half the gap,
        # 53/200; the sweep goes on to magnitude 1 and never reads the 0 atom
        ([("13/100", "2"), ("79/100", "-1"), ("8/100", "0")], F(53, 100), F(1), F(2)),
        # a tail of exactly half the gap at magnitude 1: the widest covers it
        ([("6/7", "-1"), ("1/7", "2")], F(4, 7), F(2), F(2)),
        # one nonzero magnitude covers the whole gap
        ([("1/2", "0"), ("1/4", "-2"), ("1/4", "-2")], F(1), F(2), F(2)),
        # below the widest: the tail down to magnitude 2, 5/17, is exactly
        # half the gap, 10/17, so the strict test fails at magnitude 1
        ([("1/17", "3"), ("1/17", "2"), ("15/17", "-1")], F(10, 17), F(2), F(3)),
    ],
    ids=["opposite-tie", "just-short", "exactly-half", "one-magnitude", "exactly-half-below"],
)
def test_one_pass_witnesses_on_hand_cases(rows, gap, threshold, widest):
    """Hand cases at the fast test, 2 * widest * mass >= gap: where it holds,
    the threshold is the widest magnitude, the same Fraction as
    tail_empty_at; where it fails, the sweep down the atoms finds a lower
    one, and stops where the tail reaches half the gap."""
    witness = _one_witness(rows)
    assert (witness.gap, witness.threshold, witness.tail_empty_at) == (gap, threshold, widest)
    assert (witness.threshold is witness.tail_empty_at) == (threshold == widest)


def test_sweep_matches_the_rescan_where_magnitudes_tie():
    """Seeded markets with outcomes in {-3, ..., 3}, where atoms of one
    magnitude, of either sign, are common: identical witnesses, and a
    threshold at the widest magnitude shares its Fraction."""
    rng = random.Random(3)
    checked = 0
    while checked < 40:
        n, atoms = rng.randint(2, 5), rng.randint(1, 8)
        rows = [
            (F(rng.randint(1, 9)), tuple(F(rng.randint(-3, 3)) for _ in range(n)))
            for _ in range(atoms)
        ]
        total = sum(p for p, _ in rows)
        market = build_market([f"A{i}" for i in range(n)], [(p / total, v) for p, v in rows])
        exps = market.expectations()
        if exps.count(max(exps)) != 1:
            continue
        checked += 1
        resolution = rng.randint(1, 6)
        result = find_bounding_m(market, resolution)
        assert result == rescan_bounding_m(market, resolution)
        for w in result.witnesses:
            assert (w.threshold is w.tail_empty_at) == (w.threshold == w.tail_empty_at)
