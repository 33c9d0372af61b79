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
is first asked for and keeps it on the game.  Only `Game.payoffs` (and through it `strict_dominance` and the
CLI's tensor listings) materializes every cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import product
from typing import Iterator, Sequence

from .errors import ArityMismatch, InvalidParameter, TensorCapExceeded
from .market import Market, MixedAction, Profile, expectation
from .plans import BonusPlan
from .rational import as_rational

DEFAULT_TENSOR_CAP = 200_000

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
    materializes the full n^k tensor.
    """

    market: Market
    plan: BonusPlan
    earnings_weight: Fraction
    cells: dict = field(default_factory=dict, compare=False, repr=False)

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
        rows = ((atom, tuple(atom.outcomes[a] for a in combo)) for atom in self.market.atoms)
        value = self.cells[combo] = _cell(self.plan, self.earnings_weight, rows)
        return value

    @property
    def payoffs(self) -> dict:
        """The full tensor, action-index tuple -> payoffs, in product order."""
        return {
            combo: self.payoff(combo)
            for combo in product(range(self.actions), repeat=self.players)
        }


def _cell(plan: BonusPlan, w: Fraction, rows) -> tuple[Fraction, ...]:
    """Expected payoffs over (atom, result-vector) rows, one per atom."""
    k = plan.players
    totals = [ZERO] * k
    for atom, results in rows:
        shares = plan.evaluate(results)
        for i in range(k):
            term = (1 - w) * shares[i]
            if w:
                term += w * results[i]
            totals[i] += atom.probability * term
    return tuple(totals)


def induce_game(
    market: Market,
    plan: BonusPlan,
    earnings_weight=0,
    tensor_cap: int = DEFAULT_TENSOR_CAP,
) -> Game:
    """The game of a market and a plan; cells are computed as they are read."""
    w = as_rational(earnings_weight)
    if not ZERO <= w < 1:
        raise InvalidParameter(f"earnings weight must lie in [0, 1), got {w}")
    k, n = plan.players, market.n
    profiles = n**k
    if profiles > tensor_cap:
        raise TensorCapExceeded(f"{n}^{k} = {profiles} profiles exceeds cap {tensor_cap}")
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
    rows = (
        (atom, tuple(s.value_at(atom) for s in profile.strategies))
        for atom in market.atoms
    )
    return _cell(plan, game.earnings_weight, rows)


def principal_value(market: Market, profile: Profile) -> Fraction:
    """Total expected earnings across the profile — the plan designer's objective."""
    profile.check_arity(market)
    return sum((expectation(market, s) for s in profile.strategies), start=ZERO)


def simplex_grid(arity: int, denominator: int) -> Iterator[MixedAction]:
    """All weight vectors with the given denominator, lexicographically."""
    if denominator < 1:
        raise InvalidParameter(f"grid denominator must be >= 1, got {denominator}")

    def compositions(total: int, slots: int):
        if slots == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in compositions(total - head, slots - 1):
                yield (head,) + tail

    for combo in compositions(denominator, arity):
        yield MixedAction(tuple(Fraction(c, denominator) for c in combo))


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
    index, then grid points in lexicographic weight order.
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

    def candidates() -> Iterator[MixedAction]:
        for a in range(n):
            yield MixedAction.pure(a, n)
        if not complete and resolution is not None:
            for point in simplex_grid(n, resolution):
                if point.pure_action is None:  # vertices already scanned
                    yield point

    best: MixedAction | None = None
    best_value = ZERO
    for cand in candidates():
        row = list(opponents)
        row.insert(player, cand)
        value = expected_payoffs(game, Profile(tuple(row)))[player]
        if best is None or value > best_value:
            best, best_value = cand, value
    assert best is not None
    return BestResponse(player, best, best_value, method)


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

    def gain_for(self, player: int) -> Fraction:
        return self.gains[player]


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
    market: Market,
    plan: BonusPlan,
    resolution: int | None = None,
    tensor_cap: int = DEFAULT_TENSOR_CAP,
) -> OptimalityReport:
    """Check whether some maximal-expectation pure profile is an equilibrium.

    Runs at earnings weight 0 (the allocation game proper).  OPTIMAL
    requires a decisive EQUILIBRIUM verdict on a checked profile; a grid
    search that merely found no violation is not promoted.
    """
    game = induce_game(market, plan, 0, tensor_cap)
    exps = market.expectations()
    mu = max(exps)
    argmax = tuple(i for i, e in enumerate(exps) if e == mu)
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
