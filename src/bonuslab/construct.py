"""Builders for provably optimal linear bonus plans.

Both builders target markets with a unique best-expectation action and
earnings weight 0.  The interval-gated plan scales by the largest outcome
magnitude; the output-gated plan scales by a bound found from the exact
distributions of q - X* (portfolio minus best action) over a simplex grid.

For each grid portfolio q the search records the expectation gap
c_q = E[X*] - E[q] > 0 and the smallest truncation threshold m from which,
for every m' >= m,

    E[(q - X*) * 1{|q - X*| <= m'}]  <  -c_q / 2        (truncated drift)
    sum over |l| > m' of |l| * Pr[q - X* = l]  <  c_q / 2   (tail mass)

Both sides are step functions of m', constant between consecutive distinct
magnitudes of the support, so scanning the magnitudes themselves is exact;
the truncated drift is not monotone in m', hence the "from which onward"
reading rather than a plain first-passage.  The returned bound is the
largest threshold, raised to the value that empties every grid point's
tail.  That floor is what makes verification decisive: with it, no atom's
result spread exceeds twice the bound, the output gate of the built plan
never closes, and the pure-deviation scan in game.check_nash is complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateSupport, ExpectationNotUnique
from .game import simplex_grid
from .market import Market, MixedAction, support_stats
from .plans import BoundedLinearPlan, MLinearPlan

ZERO = Fraction(0)


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
    threshold: Fraction  # least m from which both truncation tests hold onward
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

    witnesses = []
    bound = ZERO
    min_gap = None
    for point in simplex_grid(market.n, grid_resolution):
        if point.pure_action == best:
            continue
        witness = _witness_for(market, point, best)
        witnesses.append(witness)
        bound = max(bound, witness.threshold, witness.tail_empty_at)
        min_gap = witness.gap if min_gap is None else min(min_gap, witness.gap)
    assert min_gap is not None and min_gap > 0
    return BoundSearchResult(bound, min_gap, grid_resolution, best, tuple(witnesses))


def _witness_for(market: Market, point: MixedAction, best: int) -> GridWitness:
    """Exact distribution of q - X* and the suffix-stable threshold."""
    dist: dict[Fraction, Fraction] = {}
    for atom in market.atoms:
        diff = point.value_at(atom) - atom.outcomes[best]
        dist[diff] = dist.get(diff, ZERO) + atom.probability
    gap = -sum((l * p for l, p in dist.items()), start=ZERO)

    magnitudes = sorted({abs(l) for l in dist if l != 0})
    # q != X* pointwise is guaranteed: a zero-drift portfolio would tie the
    # unique best expectation, which the vertex exclusion rules out.
    assert magnitudes and gap > 0

    half = gap / 2
    threshold = None
    for m in reversed(magnitudes):
        drift = sum((l * p for l, p in dist.items() if abs(l) <= m), start=ZERO)
        tail = sum((abs(l) * p for l, p in dist.items() if abs(l) > m), start=ZERO)
        if drift < -half and tail < half:
            threshold = m
        else:
            break
    assert threshold is not None  # at the largest magnitude both tests pass
    return GridWitness(point.weights, gap, threshold, magnitudes[-1])


def build_bounded_linear(
    market: Market, players: int, grid_resolution: int
) -> BoundedLinearPlan:
    """Output-gated linear plan scaled by the certified bound."""
    search = find_bounding_m(market, grid_resolution)
    return BoundedLinearPlan(players, search.bound)
