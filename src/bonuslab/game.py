"""Allocation games induced by a market and a bonus plan.

k players each pick an action (or a portfolio of actions) on a shared
market; a bonus plan splits one unit by their realized results.  Player i's
payoff with earnings weight w in [0, 1) is

    E[ w * own result  +  (1 - w) * own bonus share ]

evaluated atom by atom, so players on the same action realize identical
results and a portfolio enters the plan at its pointwise value — a mixed
strategy is *not* a lottery over pure plays.  At w = 0 every game is
fixed-sum: payoffs at any profile sum to exactly 1.

Verdict semantics (documented once here, relied on throughout):

* A strict-gain deviation found by any search is conclusive:
  NOT_EQUILIBRIUM, with the deviation and its exact gain attached.
* EQUILIBRIUM is reported only when the search that found no violation was
  decisive: either the plan is pure-sufficient on this market (below), or
  the caller asked for a pure-only check (complete over pure deviations,
  which is the whole claim).
* A simplex-grid search that found no violation yields
  NO_VIOLATION_AT_RESOLUTION: portfolios off the grid were not examined.

A plan is pure-sufficient on a market exactly when it states a linear form
there: `BonusPlan.linear_form(market)` is the pair (equal, slope) when the
kind's gate is open at every atom of every pure profile, else None, and
`Game._affine` holds it, decided once per game.  A portfolio's value at an
atom lies between the actions' values there, so the gate stays open at
every profile of portfolios too.  At a profile's shared unit u, with
results over scale * u, player i's share numerator is then
kden / k + slope * (k * v_i - sum v) at every atom, kden the kernel's
denominator at that scale (equal * u for the linear kinds) and the slope
the same at every multiple of the scale.  By linearity of expectation its
share sum (below) is mass * kden / k + slope * (k * E_i - sum_j E_j), E_i
its expectation sum over the unit: S[a_i] at a pure profile a, S the
market's `expectation_sums`, and sum_j c_j * S_j over u for a portfolio.
So under a form every cell, pure or of portfolios, is O(k) and reads no
atom.
Weighed by `_weigh`, the payoff numerator is c * E_i plus a term of the
others' strategies alone, c = b * slope * (k - 1) + r with b > 0 and r
the weights of `_Scoring`.  The slope is >= 0 and k >= 2, so c > 0
exactly when the slope or the earnings weight w is, and only that sign is
read.  No portfolio beats the best pure action: the pure scan is complete
(`best_response`'s method "pure-sufficient"), and against any opponents,
pure or portfolios, the best response is the earliest action of largest
S[a] when c > 0, else action 0, one cell read, the memoized one against
pure opponents.  No search under a linear form reads an atom.  And a
dominates b exactly when c > 0 and S[a] > S[b], against every opponent
profile, so `strict_dominance` reads no cell; with c = 0 (the constant
plan at w = 0) no pair is strict.

Searches are shared under an anonymous plan, one whose kind declares
`anonymous`: permuting the results permutes the shares (constant, wta,
lta, m_linear, bounded_linear; not tabulated).  A player's opponents are
the profile less its own strategy, so two players with equal strategies
face the same multiset of opponent strategies.  At every atom the deviator
then sees the same opponent results in another order, gets the same share
and the same payoff, and so has the same candidates, exact values and
tie-break.  Their payoffs are equal too, by the same argument at the
profile itself.  `check_nash` searches once per distinct strategy and
copies the result and its gain to the other players; a symmetric profile
costs one search, not k.
The tensor is shared by the same argument: `Game.payoffs` computes one cell
per sorted profile, C(n + k - 1, k) of the n^k, and gives each profile that
cell permuted, the player on action a the entry at a's rank in the sorted
profile (players on one action get one payoff).

Strict dominance is shared the same way.  Under an anonymous plan with
no linear form a player's payoff is u(own action, multiset of opponent
actions), the same function for every player, so `strict_dominance`
computes one relation, player 0's, u(a, rest) = payoff((a,) + rest)[0]
with rest running over the sorted (k-1)-profiles of surviving actions,
and gives it to every player.  The survivors stay one set: all players
start with every action, and if all players hold the same set at the
start of a round, they face the same opponent multisets, find the same
dominated actions and the same first dominators, and so hold the same set
after it.  The pairs and the
elimination trace are the ones the per-player relation over the tensor
gives, in the same round, player, removed, dominator order.  In the same
way `check_optimal` scans only the sorted best-expectation profiles: a
profile's sorted permutation comes no later in product order and is an
equilibrium exactly when it is, so the witness does not change.

Payoff cells are computed on first read.  A pure-deviation verdict at one
profile reads that profile and its unilateral deviations, at most
1 + k(n-1) cells of the n^k tensor, so a cell is computed when it is first
read, through `Game.payoff` or the integer reader behind it, and kept on
the game.  Only `Game.payoffs` (and
through it the CLI's tensor listings) materializes every cell, and it
refuses a tensor over TENSOR_CAP pure profiles before computing any.  Every
other enumeration is capped on its own size, before any cell.  The shared
dominance relation reads at most n * C(n+k-2, k-1) cells and each cell sums
k shares per atom, so it is refused when cells times players exceed
TENSOR_CAP.  Under a linear form it reads no cell, and it is refused
when the k * n^2 pairs its report may list exceed TENSOR_CAP.
`check_optimal` scans C(|argmax|+k-1, k) sorted profiles,
refused over TENSOR_CAP, and a simplex grid's C(d+n-1, n-1) points are
refused over GRID_CAP, and its points times n weights over
GRID_WEIGHT_CAP.  A dominance relation or a scan that is not shared is
capped at its n^k, or |argmax|^k, profiles.  `market._power_exceeds` and `_multisets_exceed`
decide every cap: binomials and powers too large to build are never built,
and a refusal names the shape, never the count.  A verdict read from a
profile and its deviations is not refused for the size of the tensor.

Payoffs are computed in integers and are exact all the same.  A market's
`integer_view`, built once, writes every outcome over one common
denominator and every probability over another.  A portfolio keeps its
weights as integer counts c_j over its unit d; scaled to a unit all the
strategies share, they realize sum_j c_j * outcome-numerator_j over d times
that denominator, and the plan's `kernel` for that scale returns integer
share numerators, its gates compared as integers.  One function,
`Game._cell`, computes every cell, pure or of portfolios, from three
inputs: the profile's shared unit, each player's expectation sum over it
and the atoms' result rows.  A cell starts from each player's share sums B,
its share numerators summed against the atoms' probability weights, over
mass * kernel denominator: B does not depend on w.  Under a linear form B is
the form's (above) and no row is read; otherwise the cell hands every
atom's result row to the plan's `share_sums` (by default the kernel's
shares at every atom, column by column; the wta and lta kinds count each
atom's winners in one pass).  The rows are lazy: a pure cell's are the
atoms' values at its actions, and `_rows` realizes portfolios at an atom
only as its row is read.  `_weigh` states the payoff once: over the cell's
denominator the numerator is b * B + r * E, with E the player's expected
result over mass * scale, read from the market's `expectation_sums`, S[a]
for a pure action and sum_j c_j * S_j over the shared unit for a portfolio,
so no result is summed over the atoms.  `_Scoring` keeps (b, r, denominator)
in lowest terms, so at w = 0 they are (1, 0, mass * kernel denominator): E
is not read, and a w = 0 game's cells are the share sums themselves.  A cell
holds integer payoff numerators over one denominator, the same for every
cell of the game, so comparing two numerators compares the two payoffs:
`strict_dominance` and the pure scan of `best_response` rank cells as
integers and build no `Fraction` while they do.  `Game.payoff` is where a
cell's `Fraction`s are built, one per distinct numerator, shared by the
players that have it.  With no linear form, a deviation search other than a
pure-only one against pure opponents is one scan: the opponents are
realized once, by `_rows`, and each candidate, a count vector over d (the
pure actions are the vertices, then the grid's other points in the order
`simplex_grid` yields), is scored by its payoff numerator over a
denominator all candidates share, `_weigh`'s form written inline.  `_walk`
yields the count vectors in lexicographic order, with every atom's result
carried as a prefix sum, so a point costs one add per atom and no
multiplication; it is a loop, not a recursion, so a d = 1 grid over any
number of actions walks.  The plan's `response` at each atom, built once
from the opponents' results there, maps the deviator's result to its share,
without a kernel call for the wta and lta kinds.  When w is not 0 each
action's column ends in one more row, its expectation sum, so the walk's
last dot is the candidate's E.  The vertices are scored first, then, for
d > 1, the walk's other points, and only a strictly larger score replaces the
best, so pure actions win ties by index and grid points by order.  The
search compares integers and builds one `Fraction`, for the winner's value,
and a `MixedAction` only for a winner off the vertices.  Every pure strategy
a search hands back or checks is the market's own vertex, `Market._vertex`,
built once per market.  `find_bounding_m` and `simplex_grid` walk the same
way.  `Fraction` stays at the interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations_with_replacement, product, repeat
from math import gcd, lcm
from operator import add, itemgetter, mul, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    ArityMismatch,
    GridCapExceeded,
    InvalidParameter,
    TensorCapExceeded,
)
from .market import (
    GRID_CAP,
    IntegerView,
    Market,
    MixedAction,
    Profile,
    _multisets_exceed,
    _power_exceeds,
    check_arity,
)
from .plans import BonusPlan, Kernel
from .rational import as_count, as_rational, instance_of, items_of, rational_text

TENSOR_CAP = 200_000  # a full tensor, check_optimal's scan, or dominance's cells x players
GRID_WEIGHT_CAP = 4_000_000  # a simplex grid's points x arity: 2 000 actions at d = 1

ZERO = Fraction(0)


class Verdict(str, Enum):
    EQUILIBRIUM = "equilibrium"
    NOT_EQUILIBRIUM = "not-equilibrium"
    NO_VIOLATION_AT_RESOLUTION = "no-violation-at-resolution"


class OptimalityVerdict(str, Enum):
    OPTIMAL = "optimal"
    NOT_OPTIMAL_AMONG_CHECKED = "not-optimal-among-checked-profiles"


@dataclass(frozen=True)
class Game:
    """Induced game over pure profiles, kept exact and filled in on demand.

    `_cell` computes every payoff cell, pure or of portfolios, as integer
    numerators over `_scoring(scale * unit).denominator`, unit the
    profile's shared unit (module docstring).
    `cells` memoizes the pure ones computed so far, keyed by action-index
    tuple: each over the game's one denominator,
    `_scoring(integer_view.scale).denominator`, so rankings compare them
    directly.  A pure cell is added on first read; `payoff` turns one into
    `Fraction`s.  Only `payoffs` materializes the full n^k tensor.  At
    w = 0 a cell is the players' share sums.
    `kernels` keeps a `_Scoring` per result scale: the plan's kernel and
    the payoff's integer weights in lowest terms.  Both start empty, so
    `replace` gives a game fresh memos; so does the plan's linear form,
    `_affine`, decided on first use and kept on the game.  The market and
    the plan must be a `Market` and a `BonusPlan`, else ArityMismatch, and
    the earnings weight is coerced by as_rational and must lie in [0, 1).
    """

    market: Market
    plan: BonusPlan
    earnings_weight: Fraction
    cells: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    kernels: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        instance_of(self.market, Market, "a market")
        instance_of(self.plan, BonusPlan, "a plan")
        w = as_rational(self.earnings_weight)
        if not ZERO <= w < 1:
            raise InvalidParameter(f"earnings weight must lie in [0, 1), got {rational_text(w)}")
        object.__setattr__(self, "earnings_weight", w)

    @property
    def players(self) -> int:
        return self.plan.players

    @property
    def actions(self) -> int:
        return self.market.n

    def payoff(self, combo: tuple[int, ...]) -> tuple[Fraction, ...]:
        """Exact payoffs at one pure profile, computed on first read."""
        combo = tuple(
            as_count(a, "action", None, ArityMismatch) for a in items_of(combo, "actions")
        )
        scoring = self._scoring(self.market.integer_view.scale)
        return _fractions(self._numerators(combo), scoring.denominator)

    def _numerators(self, combo: tuple[int, ...]) -> tuple[int, ...]:
        """The payoff numerators at one pure profile, over the game's
        denominator: `_cell` at unit 1 on the actions' expectation sums and
        atom rows, computed on first read and kept in `cells`."""
        cached = self.cells.get(combo)
        if cached is not None:
            return cached
        k, n = self.players, self.actions
        if len(combo) != k or not all(0 <= a < n for a in combo):
            raise ArityMismatch(
                f"{rational_text(combo)} is not a {k}-player profile over {n} actions"
            )
        get = itemgetter(*combo)
        rows = map(get, self.market.integer_view.values)
        value = self.cells[combo] = self._cell(1, get(self.market.expectation_sums), rows)[0]
        return value

    def _cell(
        self, unit: int, expectations: Sequence[int], rows: Iterable[tuple[int, ...]]
    ) -> tuple[tuple[int, ...], int]:
        """The payoff numerators at a profile, and their denominator
        `_scoring(scale * unit).denominator`, from the profile's shared unit,
        each player's expectation sum over unit * mass * scale, and the atoms'
        result rows over scale * unit.  Under a linear form the share sums B
        come from the expectation sums and no row is read (module
        docstring); otherwise from `share_sums` on the rows."""
        view = self.market.integer_view
        scoring = self._scoring(view.scale * unit)
        form = self._affine
        if form is None:
            shares = self.plan.share_sums(scoring.kernel, rows, view.weights)
        else:
            k, slope, total = self.players, form[1], sum(expectations)
            equal = view.mass * (scoring.kernel.denominator // k)
            shares = [equal + slope * (k * s - total) for s in expectations]
        return _weigh(scoring, shares, expectations), scoring.denominator

    def _profile_cell(self, strategies: Sequence[MixedAction]) -> tuple[tuple[int, ...], int]:
        """`_cell` at a profile of strategies: the memoized pure cell, over
        the game's denominator, or the portfolios' cell at their shared unit."""
        pure = tuple(s.pure_action for s in strategies)
        if None not in pure:
            scale = self.market.integer_view.scale
            return self._numerators(pure), self._scoring(scale).denominator
        market, unit = self.market, _unit(strategies)
        expectations = _expectations(market, strategies, unit)
        return self._cell(unit, expectations, _rows(market.integer_view, strategies, unit))

    @cached_property
    def _affine(self) -> tuple[int, int] | None:
        """The plan's linear form (equal, slope) on the market, decided once
        per game; not None exactly when the plan is pure-sufficient there."""
        return self.plan._linear_form(self.market)  # Game has checked its market

    @property
    def payoffs(self) -> dict:
        """The full tensor, action-index tuple -> payoffs, in product order;
        TensorCapExceeded before any cell when it exceeds TENSOR_CAP profiles.

        Under an anonymous plan one cell is computed per sorted profile, and
        every other profile's cell is that cell permuted (see the module
        docstring), sharing its `Fraction`s and kept in `cells` as well."""
        if profiles := _power_exceeds(self.actions, self.players, TENSOR_CAP):
            raise TensorCapExceeded(f"{profiles} pure profiles exceed cap {TENSOR_CAP}")
        combos = product(range(self.actions), repeat=self.players)
        if not self.plan.anonymous:
            return {combo: self.payoff(combo) for combo in combos}
        denominator = self._scoring(self.market.integer_view.scale).denominator
        orbits = {}  # sorted profile -> its numerators and payoffs
        tensor = {}
        for combo in combos:
            key = tuple(sorted(combo))
            orbit = orbits.get(key)
            if orbit is None:
                numerators = self._numerators(key)
                orbit = orbits[key] = numerators, _fractions(numerators, denominator)
            # the player on action a sits at rank key.index(a) of the sorted
            # profile, as every player on a does: they hold equal entries
            ranks = tuple(map(key.index, combo))
            numerators, fractions = orbit
            self.cells[combo] = tuple(map(numerators.__getitem__, ranks))
            tensor[combo] = tuple(map(fractions.__getitem__, ranks))
        return tensor

    def _scoring(self, scale: int) -> _Scoring:
        """The plan's kernel at a result scale, with the payoff's integer
        weights in lowest terms."""
        scoring = self.kernels.get(scale)
        if scoring is None:
            kernel = self.plan._kernel(scale)
            w, mass = self.earnings_weight, self.market.integer_view.mass
            weights = (
                (w.denominator - w.numerator) * scale,
                w.numerator * kernel.denominator,
                w.denominator * mass * kernel.denominator * scale,
            )
            common = gcd(*weights)
            scoring = self.kernels[scale] = _Scoring(kernel, *(x // common for x in weights))
        return scoring


class _Scoring(NamedTuple):
    """The payoff's integer weights at one result scale, divided by their
    gcd: `_weigh` turns share sums into payoff numerators over
    `denominator`.  At w = 0 they are (1, 0, mass * kernel denominator)."""

    kernel: Kernel
    bonus_weight: int
    result_weight: int
    denominator: int


def _weigh(
    scoring: _Scoring, shares: Sequence[int], expectations: Sequence[int]
) -> tuple[int, ...]:
    """Payoff numerators over `scoring.denominator`, one per player:

        bonus_weight * B + result_weight * E

    B the player's share sums, over mass * kernel denominator, and E its
    expected result, over mass * scale, read only when w is not 0; that is
    (1 - w) * E[share] + w * E[own result], exactly.  At w = 0 the weights
    are (1, 0, ...), so the numerators are the share sums themselves."""
    result_weight = scoring.result_weight
    if not result_weight:
        return tuple(shares)
    bonus_weight = scoring.bonus_weight
    return tuple(bonus_weight * b + result_weight * e for b, e in zip(shares, expectations))


def _fractions(numerators: Sequence[int], denominator: int) -> tuple[Fraction, ...]:
    """The payoffs of a cell; players with equal numerators share one
    Fraction, so one gcd per distinct value."""
    fractions = {num: Fraction(num, denominator) for num in set(numerators)}
    return tuple(map(fractions.__getitem__, numerators))


def _rows(
    view: IntegerView, strategies: Sequence[MixedAction], unit: int
) -> Iterator[tuple[int, ...]]:
    """The strategies' results at each atom, one tuple per atom over
    view.scale * unit, `unit` a multiple of every strategy's: each
    strategy's counts scaled to `unit` and dotted with the atom's values.
    A row is realized only when it is read, so a cell under a linear form
    realizes none."""
    scaled = [[c * (unit // s.unit) for c in s.counts] for s in strategies]
    # one lazy column per strategy: sum(map(mul, counts, values)) at each atom
    return zip(*(map(sum, map(map, repeat(mul), repeat(c), view.values)) for c in scaled))


def _unit(strategies: Sequence[MixedAction]) -> int:
    """The least common multiple of the strategies' units."""
    return lcm(*(s.unit for s in strategies))


def _expectations(market: Market, strategies: Sequence[MixedAction], unit: int) -> list[int]:
    """Each strategy's expected result over unit * mass * scale: its counts,
    scaled to `unit`, a multiple of its own, dotted with the expectation sums."""
    sums = market.expectation_sums
    return [(unit // s.unit) * sum(map(mul, s.counts, sums)) for s in strategies]


def induce_game(market: Market, plan: BonusPlan, earnings_weight=0) -> Game:
    """The game of a market and a plan; cells are computed as they are read."""
    return Game(market, plan, earnings_weight)


def expected_payoffs(game: Game, profile: Profile) -> tuple[Fraction, ...]:
    """Exact expected payoff per player, portfolios evaluated pointwise."""
    market, plan = instance_of(game, Game, "a game").market, game.plan
    if instance_of(profile, Profile, "a profile").players != plan.players:
        raise ArityMismatch(
            f"{profile.players} strategies for a {plan.players}-player plan"
        )
    profile.check_arity(market)
    return _fractions(*game._profile_cell(profile.strategies))


def principal_value(market: Market, profile: Profile) -> Fraction:
    """Total expected earnings across the profile — the plan designer's
    objective: one integer dot per strategy over the profile's unit, and
    one Fraction."""
    instance_of(profile, Profile, "a profile").check_arity(market)
    view, unit = market.integer_view, _unit(profile.strategies)
    total = sum(_expectations(market, profile.strategies, unit))
    return Fraction(total, unit * view.mass * view.scale)


def check_simplex_grid(arity: int, denominator: int) -> None:
    """ArityMismatch unless the arity is an int >= 1, InvalidParameter unless
    the denominator is (FloatRejected for a float); GridCapExceeded when the
    grid's points, the multisets of `denominator` units out of `arity`
    actions, exceed GRID_CAP, or when their weights, points x arity, exceed
    GRID_WEIGHT_CAP: points > cap // arity exactly when points x arity > cap."""
    as_count(arity, "grid arity", 1, ArityMismatch)
    as_count(denominator, "grid denominator", 1, InvalidParameter)
    if points := _multisets_exceed(arity, denominator, GRID_CAP):
        raise GridCapExceeded(
            f"{points} grid points over {rational_text(arity)} actions exceed cap {GRID_CAP}"
        )
    if points := _multisets_exceed(arity, denominator, GRID_WEIGHT_CAP // arity):
        raise GridCapExceeded(
            f"{points} grid portfolios x {rational_text(arity)} actions"
            f" exceed cap {GRID_WEIGHT_CAP} weights"
        )


def simplex_grid(arity: int, denominator: int) -> Iterator[MixedAction]:
    """All weight vectors with the given denominator, lexicographically;
    check_simplex_grid runs before anything is yielded."""
    check_simplex_grid(arity, denominator)
    by_count = tuple(Fraction(c, denominator) for c in range(denominator + 1))
    for counts, _ in _walk(((),) * arity, denominator):
        yield MixedAction(tuple(map(by_count.__getitem__, counts)))


def _walk(
    columns: Sequence[Sequence[int]], total: int
) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Every count vector of len(columns) counts >= 0 summing to `total`, in
    lexicographic order, with its dot product at each atom: the list of
    sum over j of counts[j] * columns[j][t], one entry per atom t.

    A column holds one action's value at every atom.  The last count is what
    the others leave, so the dots are total * last + the sum over the other
    counts c_j of c_j * (columns[j] - last): raising c_j by one adds column
    j's differences, so a point costs one add per atom.  The next-to-last
    count, the inner one, runs over what the outer counts before it leave,
    with no step past its last point; then the outer counts step to their
    next value in lexicographic order, which raises one of them by one and
    drops at most one after it to 0.
    The walk is a loop, not a recursion, so any number of actions fits.
    `starts` holds, for each outer count, the dots from just before it last
    rose from 0: the dots to go back to when it drops.
    """
    *heads, last = columns
    steps = [list(map(sub, column, last)) for column in heads]
    dots = [total * x for x in last]
    if not steps:
        yield (total,), dots
        return
    *outer, inner = steps
    counts = [0] * len(outer)
    starts = [dots] * len(outer)
    deepest = -1  # the last nonzero outer count, -1 for none
    left = total  # what the outer counts leave to the inner and the last
    while True:
        prefix, start = tuple(counts), dots
        for c in range(left):
            yield (*prefix, c, left - c), dots
            dots = list(map(add, dots, inner))
        yield (*prefix, left, 0), dots  # the run's last point: no step past it
        if left and outer:  # the last outer count rises
            j, left = len(outer) - 1, left - 1
        elif deepest > 0:  # the last nonzero one drops to 0, the one before rises
            j, left, start = deepest - 1, counts[deepest] - 1, starts[deepest]
            counts[deepest] = 0
        else:
            return
        if not counts[j]:
            starts[j] = start
        counts[j] += 1
        deepest = j
        dots = list(map(add, start, outer[j]))


@dataclass(frozen=True)
class BestResponse:
    """The best deviation found for one player, and how it was searched."""

    player: int
    strategy: MixedAction
    value: Fraction
    method: str


def best_response(
    game: Game,
    player: int,
    opponents: Sequence[MixedAction],
    resolution: int | None = None,
) -> BestResponse:
    """Maximize one player's payoff against fixed opponents.

    Searches pure actions always; with a resolution d (and no sufficiency
    argument) also every portfolio with weights in denominators of d.
    Deterministic tie-break: earliest candidate wins — pure actions by
    index, then grid points in lexicographic weight order.  Under a linear
    form the search is pure-sufficient against any opponents and reads one
    cell, the earliest action of largest S[a] (`best_actions[0]`) when
    c > 0, or action 0 when c = 0: the game's memoized cell against pure
    opponents, else `Game._cell` at the profile's unit, with no atom read.
    With no form, a pure-only search against pure opponents reads the n
    memoized cells of the player's actions, and every other search is one
    `_deviation_scan` over count vectors, pure actions as the grid's
    vertices.  Candidates are compared as integers; only the best value
    becomes a Fraction.
    """
    k, n = instance_of(game, Game, "a game").players, game.actions
    if not 0 <= as_count(player, "player", None, ArityMismatch) < k:
        raise ArityMismatch(f"player {rational_text(player)} out of range for {k}")
    opponents = tuple(items_of(opponents, "strategies"))
    if len(opponents) != k - 1:
        raise ArityMismatch(f"expected {k - 1} opponents, got {len(opponents)}")
    check_arity(opponents, n)
    if resolution is not None:
        as_count(resolution, "grid denominator", 1, InvalidParameter)
    form = game._affine
    if form is not None:
        _, slope = form  # c > 0 exactly when the slope or w is (module docstring)
        best = game.market.best_actions[0] if slope or game.earnings_weight else 0
        vertex = game.market._vertex(best)
        cell, denominator = game._profile_cell(opponents[:player] + (vertex,) + opponents[player:])
        return BestResponse(player, vertex, Fraction(cell[player], denominator), "pure-sufficient")
    pure = tuple(s.pure_action for s in opponents)
    if resolution is None and None not in pure:
        # Cells, not the scorer: the profile's own action is a cell that
        # expected_payoffs has already computed.  Scoring these actions with
        # the scan cut bench/run.py's `sweep` from a median of 2 403 to 1 969
        # tasks/s, p50 0.383 to 0.467 ms, slower in 5 of 5 alternating pairs
        # (2 vCPUs, Python 3.11.7, --seed 0 --seconds 20; see CHANGES.md).
        before, after = pure[:player], pure[player:]
        values = [game._numerators(before + (a,) + after)[player] for a in range(n)]
        # numerators over one denominator rank as the payoffs: the earliest largest wins
        top = max(values)
        best = values.index(top)
        value = Fraction(top, game._scoring(game.market.integer_view.scale).denominator)
        return BestResponse(player, game.market._vertex(best), value, "pure-only")
    d = resolution or 1
    if resolution is not None:
        check_simplex_grid(n, d)
    winner, value = _deviation_scan(game, player, opponents, d)
    if type(winner) is int:
        best = game.market._vertex(winner)
    else:
        best = MixedAction(tuple(Fraction(c, d) for c in winner))
    method = "pure-only" if resolution is None else f"grid(d={resolution})"
    return BestResponse(player, best, value, method)


def _deviation_scan(
    game: Game,
    player: int,
    opponents: Sequence[MixedAction],
    d: int,
) -> tuple[int | tuple[int, ...], Fraction]:
    """The earliest candidate of strictly largest payoff, and its value;
    run only for a plan with no linear form on the market.

    A candidate is a count vector over d, the portfolio counts / d: the
    pure actions, as the vertices d * e_a in index order, then, for d > 1,
    the grid's other points in `_walk` order.  A vertex winner is returned
    as its action index, any other as its counts.  The opponents are
    realized once by `_rows`, over a scale every candidate shares, and each
    atom's action values are scaled to it once, so `_walk` gives a
    candidate's result at every atom as an integer.  The plan's `response`
    at each atom turns it into the player's share, and B sums them against
    the probability weights.  When w is not 0 each column ends in step * S_j, so the last
    dot is E: unit * S[a] at a vertex, step * sum_j c_j * S_j at a grid point.
    The score is `_weigh`'s b * B + r * E, written inline for one player.
    """
    view = game.market.integer_view
    unit = lcm(_unit(opponents), d)
    step = unit // d
    scoring = game._scoring(view.scale * unit)
    bonus_weight, result_weight = scoring.bonus_weight, scoring.result_weight
    others = _rows(view, opponents, unit)
    responses = [game.plan.response(scoring.kernel, player, rest) for rest in others]
    weights = view.weights
    columns = [[v * step for v in column] for column in zip(*view.values)]
    if result_weight:  # the expectation row: the walk's last dot is E
        for column, s in zip(columns, game.market.expectation_sums):
            column.append(step * s)
    # a vertex is named by its action index: only a grid winner's counts are built
    points = ((a, [d * v for v in column]) for a, column in enumerate(columns))
    if d > 1:
        points = chain(points, ((c, xs) for c, xs in _walk(columns, d) if d not in c))
    winner = top = None
    for counts, results in points:
        bonus = 0
        for p, share, x in zip(weights, responses, results):  # stops at the atoms
            bonus += p * share(x)
        score = bonus_weight * bonus
        if result_weight:
            score += result_weight * results[-1]
        if top is None or score > top:
            winner, top = counts, score
    return winner, Fraction(top, scoring.denominator)


@dataclass(frozen=True)
class EquilibriumReport:
    """Outcome of a deviation search at a profile.

    deviations holds each player's best search result; gains[i] is its
    advantage over the profile payoff (positive means a violation).
    """

    verdict: Verdict
    profile: Profile
    payoffs: tuple[Fraction, ...]
    deviations: tuple[BestResponse, ...]
    gains: tuple[Fraction, ...]
    method: str


def check_nash(
    game: Game, profile: Profile, resolution: int | None = None
) -> EquilibriumReport:
    """Verify a profile against unilateral deviations; see module docstring.

    Under an anonymous plan, players with equal strategies face the same
    opponents and have equal payoffs, so they share one search and its gain.
    """
    payoffs = expected_payoffs(game, profile)
    searched: dict = {}  # by counts: they sum to their unit, so they name the strategy
    deviations = []
    gains = []
    for player, own in enumerate(profile.strategies):
        key = own.counts
        found = searched.get(key)
        if found is None:
            others = [s for i, s in enumerate(profile.strategies) if i != player]
            br = best_response(game, player, others, resolution)
            gain = br.value - payoffs[player]
            if game.plan.anonymous:
                searched[key] = br, gain
        else:
            shared, gain = found
            br = BestResponse(player, shared.strategy, shared.value, shared.method)
        deviations.append(br)
        gains.append(gain)
    method = deviations[0].method
    if any(g > 0 for g in gains):
        verdict = Verdict.NOT_EQUILIBRIUM
    elif method.startswith("grid"):
        verdict = Verdict.NO_VIOLATION_AT_RESOLUTION
    else:
        verdict = Verdict.EQUILIBRIUM
    return EquilibriumReport(
        verdict, profile, payoffs, tuple(deviations), tuple(gains), method
    )


# ---------------------------------------------------------------------
# Strict dominance and iterated elimination
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class Elimination:
    round: int
    player: int
    removed: int
    dominator: int


@dataclass(frozen=True)
class DominanceReport:
    """Strict-dominance pairs on the full game plus the elimination trace."""

    pairs: tuple[tuple[int, int, int], ...]  # (player, dominator, dominated)
    eliminations: tuple[Elimination, ...]
    survivors: tuple[tuple[int, ...], ...]  # surviving action indices per player
    unique_profile: tuple[int, ...] | None

    def dominates(self, player: int, a: int, b: int) -> bool:
        return (player, a, b) in self.pairs


def strict_dominance(game: Game) -> DominanceReport:
    """Find all strict-dominance pairs and run iterated elimination.

    Each round removes, for every player simultaneously, every action
    strictly dominated by a surviving action against all surviving opponent
    profiles (order-independent for strict dominance).  Under a linear
    form a dominates b exactly when c > 0 and S[a] > S[b], for every player
    against every opponent profile, so no cell is read.  Otherwise, under an
    anonymous plan one relation, over sorted opponent profiles, serves every
    player; see the module docstring.  TensorCapExceeded before any work
    when it exceeds TENSOR_CAP: under a linear form the k * n^2 pairs the
    report may list, n x n for each of the k players; else under an
    anonymous plan the n * C(n + k - 2, k - 1) cells the relation may read,
    times the k players each cell sums; otherwise the n^k tensor.
    """
    k, n = instance_of(game, Game, "a game").players, game.actions
    shared = game.plan.anonymous
    form = game._affine
    if form is not None:
        if n * n * k > TENSOR_CAP:
            raise TensorCapExceeded(
                f"{n} x {n} pairs x {rational_text(k)} players exceed cap {TENSOR_CAP}"
            )
    elif shared:
        if cells := _multisets_exceed(n, k - 1, TENSOR_CAP // (n * k)):
            raise TensorCapExceeded(f"{n} x {cells} cells x {k} players exceed cap {TENSOR_CAP}")
    elif profiles := _power_exceeds(n, k, TENSOR_CAP):
        raise TensorCapExceeded(f"{profiles} pure profiles exceed cap {TENSOR_CAP}")

    alive = [tuple(range(n))] * k  # surviving actions per player

    if form is not None:
        _, slope = form
        moves, sums = bool(slope or game.earnings_weight), game.market.expectation_sums

        def dominated(player: int, a: int, b: int) -> bool:
            """Whether a beats b: by c's sign and S[a] > S[b] alone."""
            return moves and sums[a] > sums[b]

    else:
        cell = game._numerators  # one denominator: numerators rank as payoffs

        def dominated(player: int, a: int, b: int) -> bool:
            """Whether a beats b for the player against every surviving
            opponent profile; under anonymity, against every sorted one."""
            if shared:
                opponents = combinations_with_replacement(alive[0], k - 1)
            else:
                opponents = product(*(alive[j] for j in range(k) if j != player))
            for rest in opponents:
                before, after = rest[:player], rest[player:]
                if (
                    cell(before + (a,) + after)[player]
                    <= cell(before + (b,) + after)[player]
                ):
                    return False
            return True

    def relation(p: int) -> list[tuple[int, int]]:
        """(dominator, dominated) among player p's surviving actions."""
        return [(a, b) for a in alive[p] for b in alive[p] if a != b and dominated(p, a, b)]

    def player_relations() -> list[list[tuple[int, int]]]:
        """Every player's relation; under anonymity player 0's serves all."""
        return [relation(0)] * k if shared else [relation(p) for p in range(k)]

    relations = player_relations()
    pairs = tuple((p, a, b) for p, found in enumerate(relations) for a, b in found)
    trace: list[Elimination] = []
    round_no = 1
    while any(relations):
        for p, found in enumerate(relations):
            first: dict[int, int] = {}  # dominated action -> its least dominator
            for a, b in found:
                first.setdefault(b, a)
            trace.extend(Elimination(round_no, p, b, first[b]) for b in sorted(first))
            alive[p] = tuple(x for x in alive[p] if x not in first)
        round_no += 1
        relations = player_relations()

    survivors = tuple(alive)
    unique = (
        tuple(s[0] for s in survivors)
        if all(len(s) == 1 for s in survivors)
        else None
    )
    return DominanceReport(pairs, tuple(trace), survivors, unique)


# ---------------------------------------------------------------------
# Optimality: does the plan make some best-expectation profile stable?
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class OptimalityReport:
    """Result of check_optimal at earnings weight 0.

    The search space is every pure profile over the actions of maximal
    expectation (any such profile attains the maximal total k * mu_star);
    mixed profiles that tie under expectation are out of scope and the
    verdict says so by name.
    """

    verdict: OptimalityVerdict
    mu_star: Fraction
    argmax_actions: tuple[int, ...]
    witness: tuple[int, ...] | None
    checked: tuple[tuple[tuple[int, ...], EquilibriumReport], ...]


def check_optimal(
    market: Market, plan: BonusPlan, resolution: int | None = None
) -> OptimalityReport:
    """Check whether some maximal-expectation pure profile is an equilibrium.

    Runs at earnings weight 0 (the allocation game proper).  OPTIMAL
    requires a decisive EQUILIBRIUM verdict on a checked profile; a grid
    search that merely found no violation is not promoted.  The candidates
    are the |argmax|^k profiles in product order, or under an anonymous plan
    only the C(|argmax| + k - 1, k) sorted ones, in the same order: sorted(t)
    comes no later than t and is an equilibrium exactly when t is, so the
    witness is the same.  The candidates are capped at TENSOR_CAP.
    """
    game = induce_game(market, plan, 0)
    argmax = market.best_actions
    k = plan.players
    exceeds = _multisets_exceed if plan.anonymous else _power_exceeds
    if profiles := exceeds(len(argmax), k, TENSOR_CAP):
        raise TensorCapExceeded(f"{profiles} best-expectation profiles exceed cap {TENSOR_CAP}")
    if plan.anonymous:
        candidates = combinations_with_replacement(argmax, k)
    else:
        candidates = product(argmax, repeat=k)
    checked = []
    witness = None
    for combo in candidates:
        report = check_nash(game, Profile(tuple(map(market._vertex, combo))), resolution)
        checked.append((combo, report))
        if report.verdict is Verdict.EQUILIBRIUM:
            witness = combo
            break
    verdict = (
        OptimalityVerdict.OPTIMAL
        if witness is not None
        else OptimalityVerdict.NOT_OPTIMAL_AMONG_CHECKED
    )
    view = market.integer_view
    mu_star = Fraction(market.expectation_sums[argmax[0]], view.mass * view.scale)
    return OptimalityReport(verdict, mu_star, argmax, witness, tuple(checked))
