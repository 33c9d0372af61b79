"""Builders for provably optimal linear bonus plans.

Both builders target markets with a unique best-expectation action and
earnings weight 0.  The interval-gated plan is active on the support
interval, the least and largest outcome, read off the market's integer
bounds summary, and scales by the larger of their magnitudes, or by 1
where every outcome is 0.  The output-gated plan scales by the largest
pointwise difference |q - X*| between a portfolio q and the best action
X*: at each atom q - X* is linear in q, so |q - X*| is convex and peaks
at a vertex, and the bound is the largest |x_j - x*| over atoms and
actions j.  With it no atom's result spread exceeds twice the bound, the
built plan's output gate never closes, and the pure-deviation scan of
game.check_nash is complete.

find_bounding_m certifies the bound on a simplex grid of resolution d.
Each portfolio q gets its gap c_q = E[X*] - E[q] > 0 and the smallest
support magnitude m with

    tail(m) = sum over |l| > m of |l| * Pr[q - X* = l]  <  c_q / 2

The tail only shrinks as m grows, so the test holds for every m' >= m, and
it bounds the truncated drift as well:

    E[(q - X*) * 1{|q - X*| <= m'}]  =  -c_q - sum over |l| > m' of l * Pr[l]
                                     <=  -c_q + tail(m')  <  -c_q / 2

The tail is constant between consecutive support magnitudes, so one sweep
down them from the largest, where the tail is empty, finds m exactly.  It
compares integers on the market's integer view (differences over d times
the outcome denominator, probabilities over theirs).  The grid points come
from `game._walk` over the columns x_j - x*, in runs: the walk gives each
run's first point, with each atom's difference l, and every later point of
the run adds the walk's inner step, one add per atom.  Each column ends in
one more row, S* - S_j from the integer `expectation_sums`, so the last dot
is the point's gap numerator, one add more.  A run's points share their
outer counts, so the witness weights' outer prefix is built once per run.
The best action's vertex is one point of one run, and is passed over.

Each grid point then takes the magnitudes |l| of its atoms, and max, count
and index over them give the widest |l| and its probability mass, the sum
over its atoms only when it is tied.  When twice the widest magnitude's tail,
2 * widest * mass, reaches the gap, the sweep stops at its first check:
the threshold is the widest magnitude.  Only otherwise are the atoms sorted
by magnitude, and the sweep runs down them one atom at a time.  Atoms of
equal magnitude need no merging: a stop inside a tie leaves that magnitude
as the threshold, as a stop after it would.  No atom of l = 0 is reached,
as the whole tail, sum |l| * p >= c_q, stops the sweep before it.

No threshold exceeds its largest |l| and every vertex is a grid point, so
the largest is the vertex bound; the gap is linear in q, so the least is
(E[X*] - mu_2) / d, mu_2 the second-best expectation.  The best action
and the tie are read off `Market.best_actions`, the runner-up off the
integer `expectation_sums`; a `Fraction` is built only for a returned value
or a message.

A witness is a `GridWitness`, an immutable NamedTuple that equals the
plain tuple (weights, gap, threshold, tail_empty_at).  The sweep builds a
witness's `Fraction`s and nothing else around them.  When the widest
magnitude alone covers half the gap, the threshold is that magnitude, and
one `Fraction` fills both fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import NamedTuple

from .errors import DegenerateSupport, ExpectationNotUnique
from .game import _walk, check_simplex_grid
from .market import Market
from .plans import BoundedLinearPlan, MLinearPlan
from .rational import instance_of, rational_text


def build_m_linear(market: Market, players: int) -> MLinearPlan:
    """Interval-gated linear plan scaled by the support bound.

    The interval is the market's support interval, its least and largest
    outcome, read as integers from the market's bounds summary
    (`Market._bounds`, one pass over the integer view, kept per market);
    the bound is the larger of their magnitudes.  The interval's width never
    exceeds twice the bound, so active shares stay within [0, 2/k].  On a
    market whose every outcome is 0 every plan is optimal, and the plan is
    the interval [0, 0] with bound 1: its form is open on the whole market.
    """
    view = instance_of(market, Market, "a market").integer_view
    lo, hi, _ = market._bounds
    magnitude = max(-lo, hi) or view.scale  # every outcome 0: bound 1
    bound, lo, hi = (Fraction(x, view.scale) for x in (magnitude, lo, hi))
    return MLinearPlan(players, bound, lo, hi)


class GridWitness(NamedTuple):
    """Per-portfolio certificate from the bound search, an immutable tuple."""

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
    """Certify the vertex bound with one witness per grid portfolio except
    the best action's vertex.  Errors as _vertex_bound."""
    best, bound, min_gap = _vertex_bound(market, grid_resolution)
    view = market.integer_view
    weights, sums = view.weights, market.expectation_sums
    d = grid_resolution
    length = d * view.scale  # a difference l of q - X* stands for l / length
    gap_denominator = length * view.mass
    # a grid point's counts sum to d, so l = sum_j count_j * (x_j - x*) at
    # each atom: the walk's dot products over the columns x_j - x*; the
    # row S* - S_j after the atoms makes the last dot the gap's numerator
    columns = [
        [values[j] - values[best] for values in view.values] + [sums[best] - sums[j]]
        for j in range(market.n)
    ]
    by_count = tuple(Fraction(c, d) for c in range(d + 1))
    inner, runs = _walk(columns, d)
    # the best action's vertex, (*home, at, d - at), is no witness
    home = tuple(d if j == best else 0 for j in range(market.n - 2))
    at = d if best == market.n - 2 else 0
    witnesses = []
    for outer, left, dots in runs:
        prefix = tuple(map(by_count.__getitem__, outer))
        vertex = at if outer == home else -1
        for c in range(left + 1):
            if c:
                dots = list(map(add, dots, inner))
            if c == vertex:
                continue
            # another action has a count > 0 and the best expectation is the
            # unique largest, so gap > 0: some l is not 0, and widest > 0
            gap = dots[-1]
            magnitudes = list(map(abs, dots))
            magnitudes.pop()  # the gap's row
            widest = max(magnitudes)  # the widest |l| and its probability weight
            if magnitudes.count(widest) == 1:
                mass = weights[magnitudes.index(widest)]
            else:
                mass = sum(p for p, m in zip(weights, magnitudes) if m == widest)
            tail_empty_at = Fraction(widest, length)
            if 2 * widest * mass >= gap:  # the widest magnitude alone covers half the gap
                threshold = tail_empty_at
            else:
                # down the atoms by magnitude, ties unmerged (module docstring)
                tail = 0
                for m, p in sorted(zip(magnitudes, weights), reverse=True):
                    if 2 * tail >= gap:  # tail >= gap/2, doubled to stay in integers
                        break
                    low, tail = m, tail + m * p
                threshold = Fraction(low, length)
            witnesses.append(
                GridWitness(
                    (*prefix, by_count[c], by_count[left - c]),
                    Fraction(gap, gap_denominator),
                    threshold,
                    tail_empty_at,
                )
            )
    return BoundSearchResult(bound, min_gap, grid_resolution, best, tuple(witnesses))


def _vertex_bound(market: Market, grid_resolution: int) -> tuple[int, Fraction, Fraction]:
    """Best action, scale bound and least grid gap, in closed form.  Raises
    ExpectationNotUnique for a tied best, then check_simplex_grid's errors,
    then DegenerateSupport for a one-action market."""
    view = instance_of(market, Market, "a market").integer_view
    sums, argmax = market.expectation_sums, market.best_actions
    denominator = view.mass * view.scale  # of the expectation sums
    if len(argmax) != 1:
        mu = rational_text(Fraction(sums[argmax[0]], denominator))
        raise ExpectationNotUnique(
            f"actions {list(argmax)} tie at expectation {mu}; relabeling needs a unique best"
        )
    (best,) = argmax
    check_simplex_grid(market.n, grid_resolution)
    if market.n == 1:
        raise DegenerateSupport("no action other than the best to bound against")
    spread = max(abs(x - row[best]) for row in view.values for x in row)
    runner_up, top = sorted(sums)[-2:]
    min_gap = Fraction(top - runner_up, denominator * grid_resolution)
    return best, Fraction(spread, view.scale), min_gap


def build_bounded_linear(
    market: Market, players: int, grid_resolution: int
) -> BoundedLinearPlan:
    """Output-gated linear plan scaled by the vertex bound.  grid_resolution
    is validated as in find_bounding_m but scans nothing and changes nothing."""
    _, bound, _ = _vertex_bound(market, grid_resolution)
    return BoundedLinearPlan(players, bound)
