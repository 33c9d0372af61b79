"""Builders for provably optimal linear bonus plans.

Both builders target markets with a unique best-expectation action and
earnings weight 0.  The interval-gated plan scales by the largest outcome
magnitude; the output-gated plan scales by a bound found from the exact
distributions of q - X* (portfolio minus best action) over a simplex grid.

For each grid portfolio q the search records the expectation gap
c_q = E[X*] - E[q] > 0 and the smallest support magnitude m with

    tail(m) = sum over |l| > m of |l| * Pr[q - X* = l]  <  c_q / 2

The tail only shrinks as m grows, so the test holds for every m' >= m, and
it bounds the truncated drift as well:

    E[(q - X*) * 1{|q - X*| <= m'}]  =  -c_q - sum over |l| > m' of l * Pr[l]
                                     <=  -c_q + tail(m')  <  -c_q / 2

The tail is a step function of m, constant between consecutive distinct
magnitudes of the support, so scanning the magnitudes themselves is exact.
One sweep down the sorted magnitudes finds the threshold: at the largest
magnitude the tail is empty, and each step down adds one magnitude's terms
to it.  It runs on the market's integer view: every difference is an
integer over the grid denominator times the outcome denominator, every
probability an integer over the probability denominator, so the test
compares integers and exactness is unchanged.

The returned bound is the largest threshold, raised to the value that
empties every grid point's tail.  That floor is what makes verification
decisive: with it, no atom's result spread exceeds twice the bound, the
output gate of the built plan never closes, and the pure-deviation scan in
game.check_nash is complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import DegenerateSupport, ExpectationNotUnique
from .game import simplex_grid
from .market import IntegerView, Market, support_stats
from .plans import BoundedLinearPlan, MLinearPlan


def build_m_linear(market: Market, players: int) -> MLinearPlan:
    """Interval-gated linear plan scaled by the support bound.

    The bound is the largest outcome magnitude, `support_stats(m).max_abs`.
    The interval is the market's support interval, whose width never
    exceeds twice the bound, so active shares stay within [0, 2/k].
    """
    stats = support_stats(market)
    if stats.max_abs == 0:
        raise DegenerateSupport("every outcome is 0; no scale for a linear plan")
    return MLinearPlan(players, stats.max_abs, stats.lo, stats.hi)


@dataclass(frozen=True)
class GridWitness:
    """Per-portfolio certificate from the bound search."""

    weights: tuple[Fraction, ...]
    gap: Fraction  # E[X*] - E[q], strictly positive
    threshold: Fraction  # least support magnitude whose tail is below gap / 2
    tail_empty_at: Fraction  # largest |l| in the support of q - X*


@dataclass(frozen=True)
class BoundSearchResult:
    bound: Fraction
    min_gap: Fraction
    grid_resolution: int
    best_action: int
    witnesses: tuple[GridWitness, ...]


def find_bounding_m(market: Market, grid_resolution: int) -> BoundSearchResult:
    """Certify a scale bound over the simplex grid of the given resolution.

    Requires a unique best-expectation action (ExpectationNotUnique
    otherwise).  Every grid portfolio except that action's vertex gets a
    witness; see the module docstring for what is certified.
    """
    exps = market.expectations()
    mu = max(exps)
    argmax = [i for i, e in enumerate(exps) if e == mu]
    if len(argmax) != 1:
        raise ExpectationNotUnique(
            f"actions {argmax} tie at expectation {mu}; relabeling needs a unique best"
        )
    best = argmax[0]

    view = market.integer_view
    d = grid_resolution
    length = d * view.scale  # a difference l of q - X* stands for l / length
    witnesses = []
    bound = 0
    min_gap = None
    for point in simplex_grid(market.n, d):
        counts = [w.numerator * (d // w.denominator) for w in point.weights]
        if counts[best] == d:
            continue
        gap, threshold, tail_empty_at = _witness_for(view, counts, best, d)
        witnesses.append(
            GridWitness(
                point.weights,
                Fraction(gap, length * view.mass),
                Fraction(threshold, length),
                Fraction(tail_empty_at, length),
            )
        )
        bound = max(bound, threshold, tail_empty_at)
        min_gap = gap if min_gap is None else min(min_gap, gap)
    assert min_gap is not None and min_gap > 0
    return BoundSearchResult(
        Fraction(bound, length),
        Fraction(min_gap, length * view.mass),
        grid_resolution,
        best,
        tuple(witnesses),
    )


def _witness_for(
    view: IntegerView, counts: list[int], best: int, resolution: int
) -> tuple[int, int, int]:
    """Gap, threshold and largest |l| of q - X*, in integers.

    q has weights counts / resolution.  A difference l stands for
    l / (resolution * view.scale), a probability p for p / view.mass, so
    the gap is over their product.  One sweep down the magnitudes.
    """
    mass: dict[int, int] = {}  # magnitude -> sum of p over l = +-magnitude
    gap = 0
    for p, values in zip(view.weights, view.values):
        l = sum(map(mul, counts, values)) - resolution * values[best]
        if l:
            gap -= l * p
            mass[abs(l)] = mass.get(abs(l), 0) + p
    # q != X* pointwise is guaranteed: a zero-gap portfolio would tie the
    # unique best expectation, which the vertex exclusion rules out.
    assert mass and gap > 0

    magnitudes = sorted(mass, reverse=True)
    tail = 0
    threshold = magnitudes[0]  # the tail is empty there
    for m in magnitudes:
        if 2 * tail >= gap:  # tail >= gap/2, doubled to stay in integers
            break
        threshold = m
        tail += m * mass[m]
    return gap, threshold, magnitudes[0]


def build_bounded_linear(
    market: Market, players: int, grid_resolution: int
) -> BoundedLinearPlan:
    """Output-gated linear plan scaled by the certified bound."""
    search = find_bounding_m(market, grid_resolution)
    return BoundedLinearPlan(players, search.bound)
