"""Universality probes and counterexample markets.

A plan is universal when, on every market, some profile of maximal-
expectation actions is an equilibrium of the induced allocation game.
These generators refute universality for concrete plans: a cheap probe of
the plan at grid points finds a monotonicity violation, and a builder
turns the violation into an explicit market plus a profitable deviation
away from a best-expectation profile, validated end to end by
game.check_nash.

Violation directions, shared by the two-player and many-player probes:

  decrease  the plan pays a player more for a *lower* own result
            (against fixed others) — refuted by rewarding the drop with
            certainty, or by a single-atom market for two players.
  increase  the plan pays more for a *higher* own result — innocuous
            looking, but refuted by a market where the higher result
            belongs to the lower-expectation action; a rare huge outcome
            (outside any gate the plan may have) keeps the expectation
            ordering while the common case collects the reward.

Every builder re-evaluates its violation against the plan first
(StaleViolation on mismatch) and self-validates the emitted counterexample
before returning it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

from .errors import ArityMismatch, GridCapExceeded, SearchExhausted, StaleViolation
from .game import (
    GRID_CAP,
    Verdict,
    check_nash,
    expected_payoffs,
    induce_game,
)
from .market import (
    Market,
    MixedAction,
    Profile,
    build_market,
    market_to_dict,
    product_market,
    profile_to_list,
    _power_exceeds,
)
from .plans import BonusPlan
from .rational import as_rational, format_rational, rationals

ONE = Fraction(1)
HALF = Fraction(1, 2)
ESCALATIONS = 64  # rare-mass halvings, probability steps, escape doublings


class Direction(str, Enum):
    DECREASE = "decrease"
    INCREASE = "increase"


@dataclass(frozen=True)
class PairViolation:
    """Two-player monotonicity violation at a point pair x < y."""

    direction: Direction
    x: Fraction
    y: Fraction
    player: int
    deficit: Fraction

    def to_document(self) -> dict:
        return {
            "direction": self.direction.value,
            "player": self.player,
            "deficit": format_rational(self.deficit),
            "x": format_rational(self.x),
            "y": format_rational(self.y),
        }


@dataclass(frozen=True)
class CoordinateViolation:
    """Own-coordinate violation at a distinct-coordinate base point."""

    direction: Direction
    player: int
    base: tuple[Fraction, ...]
    witness: Fraction
    deficit: Fraction

    def to_document(self) -> dict:
        return {
            "direction": self.direction.value,
            "player": self.player,
            "deficit": format_rational(self.deficit),
            "base": [format_rational(b) for b in self.base],
            "witness": format_rational(self.witness),
        }


@dataclass(frozen=True)
class Counterexample:
    """A market on which the plan fails, with its certificate.

    The profile puts every player on a maximal-expectation action; the
    named player strictly gains by switching to the deviation action, whose
    expectation is strictly lower.  certificate lists every action's exact
    expectation; params records construction constants (escalation
    probability, escape values, iteration counts).
    """

    market: Market
    profile: Profile
    player: int
    deviation: int
    gain: Fraction
    certificate: tuple[tuple[str, Fraction], ...]
    params: dict

    def to_document(self) -> dict:
        """JSON form; the market is a market document, so it can be reloaded."""
        return {
            "market": market_to_dict(self.market),
            "profile": profile_to_list(self.profile),
            "player": self.player,
            "deviation": self.deviation,
            "deviation_action": self.market.actions[self.deviation],
            "gain": format_rational(self.gain),
            "certificate": [
                [label, format_rational(value)] for label, value in self.certificate
            ],
            "params": {
                key: format_rational(value) if isinstance(value, Fraction) else value
                for key, value in self.params.items()
            },
        }


# =====================================================================
# Probes
# =====================================================================


def probe_pairs(plan: BonusPlan, points: Sequence) -> tuple[PairViolation, ...]:
    """Evaluate a two-player plan at all pairs (and diagonals) of grid points.

    For each x < y the four universality-forced inequalities are checked:
    neither player may be paid more at (x, y)-type points than at the
    matching diagonal.  Every violation found is reported, in scan order
    (pairs ascending; per pair: player-1 decrease, player-2 decrease,
    player-1 increase, player-2 increase).  GridCapExceeded when the
    C(|grid|, 2) pairs exceed game.GRID_CAP.
    """
    return tuple(_pair_violations(plan, points))


def _pair_violations(plan: BonusPlan, points: Sequence):
    if plan.players != 2:
        raise ArityMismatch("pair probing is for two-player plans")
    grid = sorted(set(rationals(points)))
    pairs = len(grid) * (len(grid) - 1) // 2
    if pairs > GRID_CAP:
        raise GridCapExceeded(
            f"C({len(grid)}, 2) = {pairs} point pairs exceeds cap {GRID_CAP}"
        )
    (denominator, shares), ints = plan.kernel_for(grid)
    diagonal = [shares((a, a)) for a in ints]
    for (i, x), (j, y) in combinations(enumerate(grid), 2):
        f_xx, f_yy = diagonal[i], diagonal[j]
        f_xy = shares((ints[i], ints[j]))
        f_yx = shares((ints[j], ints[i]))
        for direction, player, paid, diagonal_share in (
            (Direction.DECREASE, 0, f_xy, f_yy),
            (Direction.DECREASE, 1, f_yx, f_yy),
            (Direction.INCREASE, 0, f_yx, f_xx),
            (Direction.INCREASE, 1, f_xy, f_xx),
        ):
            if paid[player] > diagonal_share[player]:
                deficit = Fraction(paid[player] - diagonal_share[player], denominator)
                yield PairViolation(direction, x, y, player, deficit)


def four_point_shares_equal(plan: BonusPlan, x, y) -> bool:
    """Whether the plan is constant across {x,y}^2 (forced when no violation:
    the four inequalities plus shares-sum-to-1 collapse to equalities)."""
    x, y = as_rational(x), as_rational(y)
    reference = plan.evaluate((x, x))
    return all(
        plan.evaluate(r) == reference
        for r in ((x, y), (y, x), (y, y))
    )


def probe_own_coordinate(
    plan: BonusPlan, points: Sequence
) -> tuple[CoordinateViolation, ...]:
    """Scan base points with pairwise-distinct coordinates for own-coordinate
    violations: some witness value strictly raises the player's share.

    Repeated-coordinate base points are skipped on purpose: the market
    builders need one marginal value per player.  GridCapExceeded when the
    |grid|^k candidate base points exceed game.GRID_CAP.
    """
    return tuple(_coordinate_violations(plan, points))


def _coordinate_violations(plan: BonusPlan, points: Sequence):
    grid = sorted(set(rationals(points)))
    k = plan.players
    if len(grid) < k:
        raise ArityMismatch(
            f"need at least {k} distinct points for distinct-coordinate probing"
        )
    if _power_exceeds(len(grid), k, GRID_CAP):
        raise GridCapExceeded(f"{len(grid)}^{k} base points exceed cap {GRID_CAP}")
    (denominator, shares), ints = plan.kernel_for(grid)
    value = dict(zip(ints, grid))
    for player in range(k):
        for base in product(ints, repeat=k):
            if len(set(base)) != k:
                continue
            own_share = shares(base)[player]
            for witness in ints:
                if witness == base[player]:
                    continue
                bent = base[:player] + (witness,) + base[player + 1 :]
                share = shares(bent)[player]
                if share > own_share:
                    direction = (
                        Direction.DECREASE
                        if witness < base[player]
                        else Direction.INCREASE
                    )
                    yield CoordinateViolation(
                        direction,
                        player,
                        tuple(value[b] for b in base),
                        value[witness],
                        Fraction(share - own_share, denominator),
                    )


# =====================================================================
# Two-player builders
# =====================================================================


def pair_decrease_counterexample(plan: BonusPlan, violation: PairViolation) -> Counterexample:
    """Single-atom market refuting a two-player decrease violation.

    With certainty the best action realizes y and the alternative realizes
    x < y; dropping to the alternative is rewarded by exactly the deficit.
    """
    _check_pair(plan, violation, Direction.DECREASE)
    x, y = violation.x, violation.y
    market = build_market(("X1", "X2"), [(ONE, (y, x))])
    profile = Profile.pure((0, 0), 2)
    certificate = (("X1", y), ("X2", x))
    ce = Counterexample(
        market, profile, violation.player, 1, violation.deficit, certificate, {}
    )
    validate_counterexample(plan, ce)
    return ce


def pair_increase_counterexample(plan: BonusPlan, violation: PairViolation) -> Counterexample:
    """Two-atom market refuting a two-player increase violation.

    Common case (probability p): the best action realizes x while the
    deviation realizes y > x, collecting the deficit.  Rare case: the best
    action realizes an escape value z far above the probed points, which
    keeps its expectation strictly ahead.  Starting from
    p = (1 + deficit/2) / (1 + deficit) — at which the deficit already
    outweighs a worst-case rare loss of 1 — the rare mass is halved until
    the plan's actual rare-case behavior leaves the exact gain positive.
    """
    _check_pair(plan, violation, Direction.INCREASE)
    x, y, player, deficit = violation.x, violation.y, violation.player, violation.deficit
    rare_mass = ONE - (1 + deficit / 2) / (1 + deficit)
    for iteration in range(ESCALATIONS):
        p = ONE - rare_mass
        z = x + p * (y - x) / rare_mass + 1
        market = build_market(("X1", "X2"), [(p, (x, y)), (rare_mass, (z, x))])
        stay = plan.evaluate((x, x))[player] * p + plan.evaluate((z, z))[player] * rare_mass
        if player == 0:
            move = plan.evaluate((y, x))[0] * p + plan.evaluate((x, z))[0] * rare_mass
        else:
            move = plan.evaluate((x, y))[1] * p + plan.evaluate((z, x))[1] * rare_mass
        gain = move - stay
        if gain > 0:
            profile = Profile.pure((0, 0), 2)
            certificate = (
                ("X1", p * x + rare_mass * z),
                ("X2", p * y + rare_mass * x),
            )
            ce = Counterexample(
                market,
                profile,
                player,
                1,
                gain,
                certificate,
                {"p": p, "z": z, "iterations": iteration},
            )
            validate_counterexample(plan, ce)
            return ce
        rare_mass = rare_mass / 2
    raise SearchExhausted(f"no positive gain after {ESCALATIONS} rare-mass halvings")


def _check_pair(plan: BonusPlan, violation: PairViolation, direction: Direction) -> None:
    if violation.direction is not direction:
        raise StaleViolation(
            f"expected a {direction.value} violation, got {violation.direction.value}"
        )
    if not violation.x < violation.y:
        raise StaleViolation(f"points must satisfy x < y, got {violation.x}, {violation.y}")
    current = [
        v
        for v in probe_pairs(plan, (violation.x, violation.y))
        if v.direction is direction and v.player == violation.player
    ]
    if not any(
        v.deficit == violation.deficit for v in current
    ):
        raise StaleViolation(
            f"violation {violation} does not match the plan's current behavior"
        )


# =====================================================================
# Many-player builders (product markets)
# =====================================================================


def _check_coordinate(plan: BonusPlan, violation: CoordinateViolation) -> None:
    base, player, witness = violation.base, violation.player, violation.witness
    if len(base) != plan.players:
        raise ArityMismatch(f"base point {base} is not a {plan.players}-vector")
    if len(set(base)) != len(base):
        raise StaleViolation(f"base point {base} has repeated coordinates")
    expected_direction = (
        Direction.DECREASE if witness < base[player] else Direction.INCREASE
    )
    bent = base[:player] + (witness,) + base[player + 1 :]
    deficit = plan.evaluate(bent)[player] - plan.evaluate(base)[player]
    if (
        violation.direction is not expected_direction
        or witness == base[player]
        or deficit <= 0
        or deficit != violation.deficit
    ):
        raise StaleViolation(
            f"violation {violation} does not match the plan's current behavior"
        )


def _base_marginal(violation: CoordinateViolation) -> list[tuple[Fraction, Fraction]]:
    """Half the mass on the violating player's coordinate, the rest split evenly."""
    base, player = violation.base, violation.player
    others_share = Fraction(1, 2 * (len(base) - 1))
    return [
        (value, HALF if j == player else others_share) for j, value in enumerate(base)
    ]


def tuple_probability(violation: CoordinateViolation) -> Fraction:
    """Probability that k independent draws from the base marginal hit the base
    point coordinate-for-coordinate."""
    prob = ONE
    for _, p in _base_marginal(violation):
        prob *= p
    return prob


def coordinate_decrease_counterexample(
    plan: BonusPlan, violation: CoordinateViolation
) -> Counterexample:
    """Product market where dropping one's result is rewarded with certainty.

    Each player draws independently from the base marginal; the deviation
    action copies the violating player's draw except on the exact base
    tuple, where it realizes the lower witness — collecting the deficit
    there and losing expectation, never bonus, elsewhere.
    """
    _check_coordinate(plan, violation)
    if violation.direction is not Direction.DECREASE:
        raise StaleViolation("expected a decrease violation")
    base, player, witness = violation.base, violation.player, violation.witness
    k = plan.players

    def dip(combo: tuple) -> Fraction:
        return witness if combo == base else combo[player]

    market = product_market(_base_marginal(violation), k, [("dev", dip)])
    profile = Profile.pure(tuple(range(k)), market.n)
    gain = violation.deficit * tuple_probability(violation)
    certificate = tuple(zip(market.actions, market.expectations()))
    ce = Counterexample(
        market,
        profile,
        player,
        k,
        gain,
        certificate,
        {"tuple_probability": tuple_probability(violation)},
    )
    validate_counterexample(plan, ce)
    return ce


def coordinate_increase_counterexample(
    plan: BonusPlan, violation: CoordinateViolation
) -> Counterexample:
    """Product market where chasing a higher result forfeits expectation.

    The marginal is the base marginal scaled by p plus a high escape value
    with the rare mass 1 - p.  The deviation action raises the violating
    player's draw to the witness exactly on the base tuple and crashes to a
    low escape value whenever any player draws the high escape.  p climbs
    the schedule 1 - 2^-t until the guaranteed gain

        deficit * p^k * (base tuple probability)  -  (1 - p^k)

    turns positive (a rare-case bonus loss is at most 1); then the escape
    values double outward until the deviation's expectation drops strictly
    below the common one.  The reported gain is recomputed exactly.
    """
    _check_coordinate(plan, violation)
    if violation.direction is not Direction.INCREASE:
        raise StaleViolation("expected an increase violation")
    base, player, witness = violation.base, violation.player, violation.witness
    k = plan.players
    pi_base = tuple_probability(violation)

    p = None
    schedule_steps = None
    for t in range(1, ESCALATIONS + 1):
        candidate = ONE - Fraction(1, 2**t)
        if violation.deficit * candidate**k * pi_base > 1 - candidate**k:
            p, schedule_steps = candidate, t
            break
    if p is None:
        raise SearchExhausted(
            f"guaranteed gain still negative after {ESCALATIONS} probability steps"
        )

    magnitude = max(max(abs(v) for v in base), abs(witness))
    escape = ONE
    while escape <= magnitude:
        escape *= 2

    for doubling in range(ESCALATIONS):
        high, low = escape, -escape
        marginal = [(v, p * q) for v, q in _base_marginal(violation)]
        marginal.append((high, ONE - p))

        def chase(combo: tuple) -> Fraction:
            if combo == base:
                return witness
            if high in combo:
                return low
            return combo[player]

        market = product_market(marginal, k, [("dev", chase)])
        common = market.expectation_of(0)
        deviant = market.expectation_of(k)
        if deviant < common:
            game = induce_game(market, plan, 0)
            profile = Profile.pure(tuple(range(k)), market.n)
            swapped = Profile(
                tuple(
                    MixedAction.pure(k if j == player else j, market.n)
                    for j in range(k)
                )
            )
            gain = (
                expected_payoffs(game, swapped)[player]
                - expected_payoffs(game, profile)[player]
            )
            certificate = tuple(zip(market.actions, market.expectations()))
            ce = Counterexample(
                market,
                profile,
                player,
                k,
                gain,
                certificate,
                {
                    "p": p,
                    "escape_high": high,
                    "escape_low": low,
                    "probability_steps": schedule_steps,
                    "escape_doublings": doubling,
                },
            )
            validate_counterexample(plan, ce)
            return ce
        escape *= 2
    raise SearchExhausted(
        f"deviation expectation still not below after {ESCALATIONS} escape doublings"
    )


# =====================================================================
# Validation and the one-call verdict
# =====================================================================


def validate_counterexample(plan: BonusPlan, ce: Counterexample) -> None:
    """Re-derive every claim a counterexample makes; StaleViolation on failure.

    Checks: certificate expectations match the market; the profile sits on
    maximal-expectation actions and the deviation's expectation is strictly
    lower; switching the player to the deviation action gains exactly
    ce.gain > 0; and check_nash refutes the profile with at least that gain
    for the player.
    """
    market = ce.market
    expected_cert = tuple(zip(market.actions, market.expectations()))
    if ce.certificate != expected_cert:
        raise StaleViolation("certificate expectations do not match the market")
    exps = market.expectations()
    mu = max(exps)
    profile_actions = [s.pure_action for s in ce.profile.strategies]
    if any(a is None or exps[a] != mu for a in profile_actions):
        raise StaleViolation("profile is not on maximal-expectation actions")
    if exps[ce.deviation] >= mu:
        raise StaleViolation("deviation action does not lose expectation")
    if ce.gain <= 0:
        raise StaleViolation(f"gain {ce.gain} is not positive")

    game = induce_game(market, plan, 0)
    base = expected_payoffs(game, ce.profile)[ce.player]
    swapped = list(ce.profile.strategies)
    swapped[ce.player] = MixedAction.pure(ce.deviation, market.n)
    moved = expected_payoffs(game, Profile(tuple(swapped)))[ce.player]
    if moved - base != ce.gain:
        raise StaleViolation(
            f"recorded gain {ce.gain} differs from recomputed {moved - base}"
        )
    report = check_nash(game, ce.profile, resolution=None)
    if report.verdict is not Verdict.NOT_EQUILIBRIUM:
        raise StaleViolation("check_nash does not refute the profile")
    if report.gains[ce.player] < ce.gain:
        raise StaleViolation("check_nash found less gain than recorded")


@dataclass(frozen=True)
class UniversalityReport:
    """Either the grid showed nothing (plan constant across every probe) or a
    validated counterexample built from the first violation found."""

    verdict: str  # "constant-on-grid" | "counterexample"
    violation: PairViolation | CoordinateViolation | None
    counterexample: Counterexample | None


def universality_verdict(plan: BonusPlan, points: Sequence) -> UniversalityReport:
    """Probe the plan on the grid and refute universality if possible.

    The scan stops at the first violation, in the probes' scan order.

    Two players: pair probing.  With no violation the plan is constant on
    each pair's four points {x,y}^2 (four_point_shares_equal holds): the
    four inequalities, with shares summing to 1, chain player 1's share as
    f(x,x) >= f(y,x) >= f(y,y) >= f(x,y) >= f(x,x), so all four are equal.
    Three or more: own-coordinate probing at distinct-coordinate points; no
    violations means every probed own-coordinate move was weakly losing.
    """
    if plan.players == 2:
        violation = next(_pair_violations(plan, points), None)
        if violation is None:
            return UniversalityReport("constant-on-grid", None, None)
        if violation.direction is Direction.DECREASE:
            ce = pair_decrease_counterexample(plan, violation)
        else:
            ce = pair_increase_counterexample(plan, violation)
        return UniversalityReport("counterexample", violation, ce)

    violation = next(_coordinate_violations(plan, points), None)
    if violation is None:
        return UniversalityReport("constant-on-grid", None, None)
    if violation.direction is Direction.DECREASE:
        ce = coordinate_decrease_counterexample(plan, violation)
    else:
        ce = coordinate_increase_counterexample(plan, violation)
    return UniversalityReport("counterexample", violation, ce)
