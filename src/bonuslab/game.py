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
  decisive: either the plan admits a pure-sufficiency argument on this
  market (payoff affine and increasing in the player's expected result, so
  the pure scan is complete over all portfolios), or the caller asked for a
  pure-only check (complete over pure deviations, which is the whole claim).
* A simplex-grid search that found no violation yields
  NO_VIOLATION_AT_RESOLUTION: portfolios off the grid were not examined.

Pure sufficiency is established per plan *and* market, by each plan kind's
`pure_search_complete(market)` method: a constant plan always; the
interval-gated linear plan when every market value lies inside its
interval; the output-gated linear plan when no atom's result spread exceeds
twice its scale bound; no other kind.  In each case the bonus term is the
linear form at every reachable profile, hence affine in the deviator's
expected result with positive slope.

Payoff cells are computed on first read.  A pure-deviation verdict at one
profile reads that profile and its unilateral deviations, at most
1 + k(n-1) cells of the n^k tensor, so `Game.payoff` computes a cell when it
is first asked for and keeps it on the game.  Only `Game.payoffs` (and
through it `strict_dominance` and the CLI's tensor listings) materializes
every cell, and it refuses a tensor over TENSOR_CAP pure profiles before
computing any; `check_optimal` applies the same cap to the best-expectation
profiles it scans.  A verdict read from a profile and its deviations is
not refused for the size of the tensor.

Payoffs are computed in integers and are exact all the same.  A market's
`integer_view`, built once, writes every outcome over one common
denominator and every probability over another.  A portfolio whose weights
are c_j / d then realizes the integer sum_j c_j * outcome-numerator_j over
d times that denominator, and the plan's `kernel` for that scale returns
integer share numerators, its gates compared as integers.  A cell sums
probability times share numerator as integers and builds one `Fraction`
per player at the end; the earnings-weight term w * E[own result] is added
to the same numerator.  `best_response` realizes the opponents once and
scores each grid portfolio by its payoff numerator over a denominator that
all candidates share, so the search compares integers and builds one
`Fraction`, for the winner.  `Fraction` stays at the interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm
from operator import mul, sub
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import ArityMismatch, GridCapExceeded, InvalidParameter, TensorCapExceeded
from .market import IntegerView, Market, MixedAction, Profile, expectation
from .plans import BonusPlan
from .rational import as_rational

TENSOR_CAP = 200_000  # pure profiles enumerated: a full tensor, or check_optimal's scan
GRID_CAP = TENSOR_CAP  # simplex grid points, and probed base points

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

    `cells` memoizes the payoff vectors computed so far, keyed by
    action-index tuple; `payoff` adds one on first read.  Only `payoffs`
    materializes the full n^k tensor.  `kernels` keeps the plan's kernel
    per result scale.
    """

    market: Market
    plan: BonusPlan
    earnings_weight: Fraction
    cells: dict = field(default_factory=dict, compare=False, repr=False)
    kernels: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def players(self) -> int:
        return self.plan.players

    @property
    def actions(self) -> int:
        return self.market.n

    def payoff(self, combo: tuple[int, ...]) -> tuple[Fraction, ...]:
        """Exact payoffs at one pure profile, computed on first read."""
        cached = self.cells.get(combo)
        if cached is not None:
            return cached
        k, n = self.players, self.actions
        if len(combo) != k or not all(0 <= a < n for a in combo):
            raise ArityMismatch(f"{combo} is not a {k}-player profile over {n} actions")
        view = self.market.integer_view
        rows = [tuple(values[a] for a in combo) for values in view.values]
        value = self.cells[combo] = _cell(self, rows, view.scale)
        return value

    @property
    def payoffs(self) -> dict:
        """The full tensor, action-index tuple -> payoffs, in product order;
        TensorCapExceeded before any cell when it exceeds TENSOR_CAP profiles."""
        _check_profiles(self.actions, self.players)
        return {
            combo: self.payoff(combo)
            for combo in product(range(self.actions), repeat=self.players)
        }

    def _scoring(self, scale: int) -> _Scoring:
        """The plan's kernel at a result scale, with the payoff's integer weights."""
        scoring = self.kernels.get(scale)
        if scoring is None:
            denominator, shares = self.plan.kernel(scale)
            w = self.earnings_weight
            scoring = self.kernels[scale] = _Scoring(
                shares,
                (w.denominator - w.numerator) * scale,
                w.numerator * denominator,
                w.denominator * self.market.integer_view.mass * denominator * scale,
            )
        return scoring


class _Scoring(NamedTuple):
    """Payoff = (bonus_weight * B + result_weight * R) / denominator.

    B sums probability weight times share numerator over the atoms and R
    sums probability weight times result; that is
    (1 - w) * E[share] + w * E[own result], exactly.
    """

    shares: Callable[[tuple[int, ...]], Sequence[int]]
    bonus_weight: int
    result_weight: int
    denominator: int


def _cell(game: Game, rows: Sequence[tuple[int, ...]], scale: int) -> tuple[Fraction, ...]:
    """Expected payoffs from one integer result vector per atom, over `scale`."""
    scoring = game._scoring(scale)
    k = game.players
    bonus, result = [0] * k, [0] * k
    for p, results in zip(game.market.integer_view.weights, rows):
        for i, share in enumerate(scoring.shares(results)):
            bonus[i] += p * share
        if scoring.result_weight:
            for i, x in enumerate(results):
                result[i] += p * x
    return tuple(
        Fraction(scoring.bonus_weight * b + scoring.result_weight * r, scoring.denominator)
        for b, r in zip(bonus, result)
    )


def _counts(strategy: MixedAction, unit: int) -> list[int]:
    """The weights times `unit`, a multiple of every weight's denominator."""
    return [w.numerator * (unit // w.denominator) for w in strategy.weights]


def _realize(view: IntegerView, strategy: MixedAction, unit: int) -> list[int]:
    """A portfolio's value at each atom, over view.scale * unit."""
    counts = _counts(strategy, unit)
    return [sum(map(mul, counts, values)) for values in view.values]


def _unit(strategies: Sequence[MixedAction]) -> int:
    """The least common denominator of the strategies' weights."""
    return lcm(*(w.denominator for s in strategies for w in s.weights))


def _power_exceeds(n: int, k: int, cap: int) -> bool:
    """Whether n^k > cap, without building a huge n^k."""
    # n >= 2 gives n^b > cap at b = the cap's bit length, so n^k exceeds the
    # cap exactly when n^min(k, b) does
    return n ** min(k, cap.bit_length()) > cap


def _check_profiles(n: int, k: int) -> None:
    """TensorCapExceeded when n^k pure profiles exceed TENSOR_CAP."""
    if _power_exceeds(n, k, TENSOR_CAP):
        raise TensorCapExceeded(f"{n}^{k} pure profiles exceed cap {TENSOR_CAP}")


def induce_game(market: Market, plan: BonusPlan, earnings_weight=0) -> Game:
    """The game of a market and a plan; cells are computed as they are read."""
    w = as_rational(earnings_weight)
    if not ZERO <= w < 1:
        raise InvalidParameter(f"earnings weight must lie in [0, 1), got {w}")
    return Game(market, plan, w)


def expected_payoffs(game: Game, profile: Profile) -> tuple[Fraction, ...]:
    """Exact expected payoff per player, portfolios evaluated pointwise."""
    market, plan = game.market, game.plan
    if profile.players != plan.players:
        raise ArityMismatch(
            f"{profile.players} strategies for a {plan.players}-player plan"
        )
    profile.check_arity(market)
    pure = tuple(s.pure_action for s in profile.strategies)
    if all(a is not None for a in pure):
        return game.payoff(pure)
    view, unit = market.integer_view, _unit(profile.strategies)
    columns = [_realize(view, s, unit) for s in profile.strategies]
    return _cell(game, list(zip(*columns)), view.scale * unit)


def principal_value(market: Market, profile: Profile) -> Fraction:
    """Total expected earnings across the profile — the plan designer's objective."""
    profile.check_arity(market)
    return sum((expectation(market, s) for s in profile.strategies), start=ZERO)


def check_simplex_grid(arity: int, denominator: int) -> None:
    """InvalidParameter for a denominator below 1; GridCapExceeded when the
    grid's C(denominator + arity - 1, arity - 1) points exceed GRID_CAP."""
    if denominator < 1:
        raise InvalidParameter(f"grid denominator must be >= 1, got {denominator}")
    size = comb(denominator + arity - 1, arity - 1)
    if size > GRID_CAP:
        raise GridCapExceeded(
            f"a {arity}-action grid of denominator {denominator} has {size} points; "
            f"cap {GRID_CAP}"
        )


def simplex_grid(arity: int, denominator: int) -> Iterator[MixedAction]:
    """All weight vectors with the given denominator, lexicographically;
    check_simplex_grid runs before anything is yielded."""
    check_simplex_grid(arity, denominator)
    # Stars and bars: arity - 1 bars among `slots` places leave runs of
    # stars between them, one count per action, and bar positions in
    # lexicographic order give the counts in lexicographic order.  The gap
    # g between consecutive bars holds g - 1 stars, so its weight is
    # by_gap[g]; the d + 1 weights are built once.
    by_gap = (None, *(Fraction(c, denominator) for c in range(denominator + 1)))
    slots = denominator + arity - 1
    for bars in combinations(range(slots), arity - 1):
        gaps = map(sub, (*bars, slots), (-1, *bars))
        yield MixedAction._unchecked(tuple(map(by_gap.__getitem__, gaps)))


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
    index, then grid points in lexicographic weight order.  Pure actions
    are valued by `expected_payoffs`, so against pure opponents they read
    the game's memoized cells; grid points are scored in integers.
    """
    k, n = game.players, game.actions
    if not 0 <= player < k:
        raise ArityMismatch(f"player {player} out of range for {k}")
    if len(opponents) != k - 1:
        raise ArityMismatch(f"expected {k - 1} opponents, got {len(opponents)}")
    if resolution is not None and resolution < 1:
        raise InvalidParameter(f"grid denominator must be >= 1, got {resolution}")
    complete = game.plan.pure_search_complete(game.market)
    if complete:
        method = "pure-sufficient"
    elif resolution is None:
        method = "pure-only"
    else:
        method = f"grid(d={resolution})"

    best: MixedAction | None = None
    best_value = ZERO
    for a in range(n):
        row = list(opponents)
        row.insert(player, MixedAction.pure(a, n))
        value = expected_payoffs(game, Profile(tuple(row)))[player]
        if best is None or value > best_value:
            best, best_value = row[player], value
    if not complete and resolution is not None:
        best, best_value = _grid_search(game, player, opponents, resolution, best, best_value)
    return BestResponse(player, best, best_value, method)


def _grid_search(
    game: Game,
    player: int,
    opponents: Sequence[MixedAction],
    resolution: int,
    best: MixedAction,
    best_value: Fraction,
) -> tuple[MixedAction, Fraction]:
    """The earliest grid point that strictly beats best_value, else the incumbent.

    Opponents are realized once, over a scale every grid point shares; each
    point's payoff numerator over the common denominator is then a sum of
    integer products.  Vertices are skipped: the pure scan valued them.
    """
    view = game.market.integer_view
    unit = lcm(_unit(opponents), resolution)
    scoring = game._scoring(view.scale * unit)
    shares = scoring.shares
    others = zip(*(_realize(view, s, unit) for s in opponents))
    atoms = list(zip(view.weights, view.values, others))
    # the incumbent's numerator over the common denominator, as a ratio
    incumbent = best_value * scoring.denominator
    bar, bar_den = incumbent.numerator, incumbent.denominator
    for point in simplex_grid(game.actions, resolution):
        counts = _counts(point, unit)
        if unit in counts:
            continue
        bonus = result = 0
        for p, values, rest in atoms:
            x = sum(map(mul, counts, values))
            bonus += p * shares(rest[:player] + (x,) + rest[player:])[player]
            result += p * x
        score = scoring.bonus_weight * bonus + scoring.result_weight * result
        if score * bar_den > bar:
            best, bar, bar_den = point, score, 1
    return best, Fraction(bar, bar_den * scoring.denominator)


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
    """Verify a profile against unilateral deviations; see module docstring."""
    payoffs = expected_payoffs(game, profile)
    deviations = []
    gains = []
    for player in range(game.players):
        others = [s for i, s in enumerate(profile.strategies) if i != player]
        br = best_response(game, player, others, resolution)
        deviations.append(br)
        gains.append(br.value - payoffs[player])
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
    profiles (order-independent for strict dominance).
    """
    k, n = game.players, game.actions
    table = game.payoffs

    def dominated(player: int, a: int, b: int, alive: list[tuple[int, ...]]) -> bool:
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
    trace: list[Elimination] = []
    round_no = 0
    while True:
        round_no += 1
        removals: list[tuple[int, int, int]] = []
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
    search that merely found no violation is not promoted.  The
    |argmax|^k candidate profiles are capped at TENSOR_CAP.
    """
    game = induce_game(market, plan, 0)
    exps = market.expectations()
    mu = max(exps)
    argmax = tuple(i for i, e in enumerate(exps) if e == mu)
    _check_profiles(len(argmax), plan.players)
    checked = []
    witness = None
    for combo in product(argmax, repeat=plan.players):
        report = check_nash(game, Profile.pure(combo, market.n), resolution)
        checked.append((combo, report))
        if report.verdict is Verdict.EQUILIBRIUM:
            witness = combo
            break
    verdict = (
        OptimalityVerdict.OPTIMAL
        if witness is not None
        else OptimalityVerdict.NOT_OPTIMAL_AMONG_CHECKED
    )
    return OptimalityReport(verdict, mu, argmax, witness, tuple(checked))
