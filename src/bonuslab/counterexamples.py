"""Universality probes and counterexample markets.

A plan is universal when, on every market, some profile of maximal-
expectation actions is an equilibrium of the induced allocation game.
These generators refute universality for concrete plans: a cheap probe of
the plan at grid points finds a monotonicity violation, and a builder
turns the violation into an explicit market plus a profitable deviation
away from a best-expectation profile, validated by recomputing the
deviation's exact gain on a game of its own.

Violation directions, shared by the two-player and many-player probes:

  decrease  the plan pays a player more for a *lower* own result
            (against fixed others) — refuted by rewarding the drop with
            certainty, or by a single-atom market for two players.
  increase  the plan pays more for a *higher* own result — innocuous
            looking, but refuted by a market where the higher result
            belongs to the lower-expectation action; a rare huge outcome
            (outside any gate the plan may have) keeps the expectation
            ordering while the common case collects the reward.

Every builder re-evaluates its violation against the plan first: one
own-move deficit, evaluate(bent)[player] - evaluate(base)[player], backs
the pair and the coordinate checks (StaleViolation on mismatch), and the
builder computes with it.  Before any arithmetic the checks read the
violation's fields: its direction must be a `Direction`, a coordinate
violation's base a tuple, and each point, coordinate and witness an int or
a Fraction.  The decrease builders state their gains in closed form, the
increase builders none.  All four return through one path, which reads
the certificate from the market's expectations and makes
`validate_counterexample`'s checks on the one game it induces (two pure
cells at earnings weight 0), recording the recomputed gain where none is
stated.  The increase builder's escape asks in closed form what validation
asks of the built market's `Market.best_actions`: the profile's actions
are best and the deviation is not; so a wrong closed form ends in
StaleViolation, never in a wrong counterexample.  A recorded deficit, gain
or certificate value is an int or a Fraction, compared and never parsed: a
float is FloatRejected even where it equals the exact value.

The two coordinate builders share one market design, `_coordinate_market`,
the one place a product market is laid out: k draws from a marginal held
as integer weights, one action X1..Xk per draw, and a deviation action
"dev" that realizes the witness on the base tuple and the violating
player's draw elsewhere, except, for the increase builder, a low value,
minus its high escape, wherever a draw is that escape.  The base point and
the witness go over one scale, the lcm of their denominators, which the
integer escape keeps; the atoms' rows and weights are written in product
order as integers, with no rule and no coercion per atom, and handed to
`Market` as its view.  The increase builder decides its escape before any
of that: the copy actions' expectations and the deviation's are affine in
the escape, so each doubling compares integers (`_escape_line`), and the
market is built once a verdict.  No atom's `Fraction`s are built or
compared; the market derives them only when a reader asks for its atoms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, prod
from operator import mul
from typing import Sequence

from .errors import (
    ArityMismatch,
    AtomCapExceeded,
    FloatRejected,
    GridCapExceeded,
    SearchExhausted,
    StaleViolation,
)
from .game import induce_game
from .market import (
    GRID_CAP,
    IntegerView,
    Market,
    Profile,
    build_market,
    _multisets_exceed,
    _power_exceeds,
    _vertex,
)
from .plans import BonusPlan
from .rational import (
    as_count,
    as_rational,
    input_text,
    instance_of,
    rational_text,
    rationals,
    ratios_over_lcm,
)

ONE = Fraction(1)
HALF = Fraction(1, 2)
ATOM_CAP = 100_000  # atoms of a coordinate market, checked before any is built
ESCALATIONS = 64  # the coordinate increase builder's probability steps and escape doublings


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


@dataclass(frozen=True)
class CoordinateViolation:
    """Own-coordinate violation at a distinct-coordinate base point."""

    direction: Direction
    player: int
    base: tuple[Fraction, ...]
    witness: Fraction
    deficit: Fraction


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


# =====================================================================
# Probes
# =====================================================================


def probe_pairs(plan: BonusPlan, points: Sequence) -> tuple[PairViolation, ...]:
    """Evaluate a two-player plan at all pairs (and diagonals) of grid points.

    For each x < y the four universality-forced inequalities are checked:
    neither player may be paid more at (x, y)-type points than at the
    matching diagonal.  Every violation found is reported, in scan order
    (pairs ascending; per pair: player-1 decrease, player-2 decrease,
    player-1 increase, player-2 increase).  ArityMismatch for fewer than 2
    distinct points, which hold no pair; GridCapExceeded when the
    C(|grid|, 2) pairs exceed market.GRID_CAP.
    """
    return tuple(_pair_violations(plan, points))


def _pair_violations(plan: BonusPlan, points: Sequence):
    if instance_of(plan, BonusPlan, "a plan").players != 2:
        raise ArityMismatch("pair probing is for two-player plans")
    grid = sorted(set(rationals(points)))
    if len(grid) < 2:
        raise ArityMismatch("need at least 2 distinct points for pair probing")
    # the pairs x < y of m points are the multisets of 2 out of m - 1
    if pairs := _multisets_exceed(len(grid) - 1, 2, GRID_CAP):
        raise GridCapExceeded(f"{pairs} point pairs exceed cap {GRID_CAP}")
    (denominator, shares), ints = plan._kernel_for(grid)
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
    instance_of(plan, BonusPlan, "a plan")
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
    |grid|^k candidate base points exceed market.GRID_CAP.
    """
    return tuple(_coordinate_violations(plan, points))


def _coordinate_violations(plan: BonusPlan, points: Sequence):
    k = instance_of(plan, BonusPlan, "a plan").players
    grid = sorted(set(rationals(points)))
    if len(grid) < k:
        raise ArityMismatch(
            f"need at least {k} distinct points for distinct-coordinate probing"
        )
    if base_points := _power_exceeds(len(grid), k, GRID_CAP):
        raise GridCapExceeded(f"{base_points} base points exceed cap {GRID_CAP}")
    (denominator, shares), ints = plan._kernel_for(grid)
    value = dict(zip(ints, grid))
    for player in range(k):
        for base in permutations(ints, k):
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
    deficit = _check_pair(plan, violation, Direction.DECREASE)
    market = build_market(("X1", "X2"), [(ONE, (violation.y, violation.x))])
    return _certified(plan, market, (0, 0), violation.player, 1, deficit, {})


def pair_increase_counterexample(plan: BonusPlan, violation: PairViolation) -> Counterexample:
    """Two-atom market refuting a two-player increase violation.

    Common case (probability p): the best action realizes x while the
    deviation realizes y > x, collecting the deficit.  Rare case (mass
    r = 1 - p): the best action realizes an escape value z far above the
    probed points, which keeps its expectation strictly ahead.  At
    r = (deficit/2) / (1 + deficit) the gain is positive for every plan on
    the simplex: the common case pays exactly the deficit, the rare case
    costs at most a share of 1, so the gain is at least
    (1 - r) * deficit - r = deficit / 2.  A plan off the simplex can leave
    it nonpositive, and validation then raises StaleViolation.  params
    records "iterations": 0, as no escalation is needed.
    """
    deficit = _check_pair(plan, violation, Direction.INCREASE)
    x, y = violation.x, violation.y
    rare_mass = HALF * deficit / (1 + deficit)
    p = ONE - rare_mass
    z = x + p * (y - x) / rare_mass + 1
    market = build_market(("X1", "X2"), [(p, (x, y)), (rare_mass, (z, x))])
    params = {"p": p, "z": z, "iterations": 0}
    return _certified(plan, market, (0, 0), violation.player, 1, None, params)


def _check_pair(plan: BonusPlan, violation: PairViolation, direction: Direction) -> Fraction:
    if instance_of(plan, BonusPlan, "a plan").players != 2:
        raise ArityMismatch("pair violations are for two-player plans")
    x, y = _exact(violation.x, "x"), _exact(violation.y, "y")
    # a decrease drops the player from (y, y) to x; an increase lifts it from (x, x) to y
    if direction is Direction.DECREASE:
        return _check_own_move(plan, violation, direction, (y, y), x)
    return _check_own_move(plan, violation, direction, (x, x), y)


def _check_own_move(
    plan: BonusPlan,
    violation: PairViolation | CoordinateViolation,
    direction: Direction,
    base: tuple[Fraction, ...],
    witness: Fraction,
) -> Fraction:
    """The deficit: StaleViolation unless moving the violation's player from
    its base coordinate to witness, against fixed others, is a `direction`
    move that raises its share by exactly the recorded deficit > 0.  The
    caller has read base and witness through `_exact`; both points are read
    with one kernel, at the common denominator of base and witness."""
    if not isinstance(violation.direction, Direction):
        raise StaleViolation(f"direction {input_text(violation.direction)} is not a Direction")
    if violation.direction is not direction:
        raise StaleViolation(
            f"expected a {direction.value} violation, got {violation.direction.value}"
        )
    player = as_count(violation.player, "player", None, StaleViolation)
    recorded = _exact(violation.deficit, "deficit")
    if not 0 <= player < len(base):
        raise StaleViolation(f"player {rational_text(player)} is not one of {len(base)} players")
    own = base[player]
    if witness == own or (witness < own) != (direction is Direction.DECREASE):
        raise StaleViolation(
            f"moving {rational_text(own)} to {rational_text(witness)}"
            f" is not a {direction.value} of the own result"
        )
    # one kernel for both points: every kind is exact at any common multiple
    # of the scales, so the share difference over it is the deficit
    (denominator, shares), ints = plan._kernel_for((*base, witness))
    at_base = ints[:-1]
    bent = at_base[:player] + ints[-1:] + at_base[player + 1 :]
    deficit = Fraction(shares(bent)[player] - shares(at_base)[player], denominator)
    if deficit <= 0 or deficit != recorded:
        raise StaleViolation(
            f"{violation.direction.value} violation of player {player} with deficit"
            f" {rational_text(recorded)} does not match the plan's current behavior"
        )
    return deficit


def _exact(value, name: str):
    """`value` if it is an int or a Fraction; FloatRejected for a float,
    StaleViolation for any other value, a bool or a string too."""
    if isinstance(value, float):
        raise FloatRejected(f"refusing float {name} {input_text(value)}")
    if type(value) is not int and not isinstance(value, Fraction):
        raise StaleViolation(f"{name} {input_text(value)} is not an int or a Fraction")
    return value


# =====================================================================
# Many-player builders (product markets)
# =====================================================================


def _check_coordinate(
    plan: BonusPlan, violation: CoordinateViolation, direction: Direction
) -> Fraction:
    k = instance_of(plan, BonusPlan, "a plan").players
    base = violation.base
    if type(base) is not tuple:
        raise StaleViolation(f"base point {input_text(base)} is not a tuple")
    if len(base) != k:
        raise ArityMismatch(f"base point {rational_text(base)} is not a {k}-vector")
    for value in base:
        _exact(value, "base coordinate")
    witness = _exact(violation.witness, "witness")
    if len(set(base)) != len(base):
        raise StaleViolation(f"base point {rational_text(base)} has repeated coordinates")
    return _check_own_move(plan, violation, direction, base, witness)


def _base_weights(k: int, player: int) -> list[int]:
    """The base marginal's integer weights over 2(k - 1), in base order: half
    the mass on the violating player's coordinate, the rest split evenly."""
    return [k - 1 if j == player else 1 for j in range(k)]


def _coordinate_ints(violation: CoordinateViolation) -> tuple[int, list[int], int]:
    """(scale, base, witness): the base point's coordinates, in base order,
    and the witness as integers over the lcm of their denominators."""
    ratios = [v.as_integer_ratio() for v in (*violation.base, violation.witness)]
    scale, (ints,) = ratios_over_lcm([ratios])
    return scale, list(ints[:-1]), ints[-1]


def _coordinate_market(
    violation: CoordinateViolation,
    ints: tuple[int, list[int], int],
    weights: list[int],
    escape: int | None = None,
) -> Market:
    """The product market of k draws from a marginal, plus the deviation
    action "dev", written in integers.  `ints` is `_coordinate_ints`; the
    marginal puts weights[j] on base coordinate j and, with an escape,
    weights[k] on the high value `escape`, an integer above every base
    coordinate.  The atoms run in product order of the sorted support:
    coordinate action Xj realizes draw j, and "dev" the witness at the base
    atom, -escape at every atom where some draw is the escape, and the
    violating player's draw elsewhere.  An atom's weight is the product of
    its draws' weights over mass^k, in lowest terms once the marginal's are:
    a prime that divides the mass misses some weight, and so the product of
    k of them.  The scale is the lcm over the support, the witness and
    -escape: an integer escape leaves `_coordinate_ints`' scale as it is.
    More than ATOM_CAP atoms raise AtomCapExceeded before any is built."""
    scale, values, witness = ints
    player, k = violation.player, len(values)
    n = k + (escape is not None)
    if atoms := _power_exceeds(n, k, ATOM_CAP):
        raise AtomCapExceeded(f"{atoms} atoms exceed cap {ATOM_CAP}")
    order = sorted(range(k), key=values.__getitem__)
    support = [values[j] for j in order]
    marginal = [weights[j] for j in order]
    base_ix = tuple(map(support.index, values))
    if escape is None:
        high = None  # no draw is an escape
    else:
        high = escape * scale
        support.append(high)
        marginal.append(weights[k])
    rows = [
        draw + (-high if high in draw else draw[player],)
        for draw in product(support, repeat=k)
    ]
    position = 0
    for i in base_ix:
        position = position * n + i
    rows[position] = (*values, witness)
    g = gcd(*marginal)
    marginal = [w // g for w in marginal]
    view = IntegerView(
        scale,
        sum(marginal) ** k,
        tuple(map(prod, product(marginal, repeat=k))),
        tuple(rows),
    )
    return Market(tuple(f"X{j + 1}" for j in range(k)) + ("dev",), view)


def tuple_probability(violation: CoordinateViolation) -> Fraction:
    """Probability that k independent draws from the base marginal hit the base
    point coordinate-for-coordinate; ArityMismatch for a value that is not a
    CoordinateViolation."""
    k = len(instance_of(violation, CoordinateViolation, "a violation").base)
    return Fraction(prod(_base_weights(k, violation.player)), (2 * (k - 1)) ** k)


def coordinate_decrease_counterexample(
    plan: BonusPlan, violation: CoordinateViolation
) -> Counterexample:
    """Product market where dropping one's result is rewarded with certainty.

    Each player draws independently from the base marginal; the deviation
    action copies the violating player's draw except on the exact base
    tuple, where it realizes the lower witness — collecting the deficit
    there and losing expectation, never bonus, elsewhere.
    """
    deficit = _check_coordinate(plan, violation, Direction.DECREASE)
    k = plan.players
    weights = _base_weights(k, violation.player)
    market = _coordinate_market(violation, _coordinate_ints(violation), weights)
    pi_base = tuple_probability(violation)
    gain, params = deficit * pi_base, {"tuple_probability": pi_base}
    return _certified(plan, market, tuple(range(k)), violation.player, k, gain, params)


def _probability_step(k: int, weighted_deficit: Fraction) -> tuple[Fraction, int]:
    """The schedule's first p = 1 - 2^-t, and its t, at which the guaranteed
    gain weighted_deficit * p^k - (1 - p^k) is positive; SearchExhausted
    past ESCALATIONS steps.  With a / b = weighted_deficit + 1, the gain is
    positive exactly when p^k * a / b > 1, that is when
    (2^t - 1)^k * a > 2^(t k) * b: integers, and one Fraction, for the p
    that passes."""
    a, b = (weighted_deficit + 1).as_integer_ratio()
    for t in range(1, ESCALATIONS + 1):
        if (2**t - 1) ** k * a > 2 ** (t * k) * b:
            return Fraction(2**t - 1, 2**t), t
    raise SearchExhausted(f"guaranteed gain still negative after {ESCALATIONS} probability steps")


def _escape_line(
    ints: tuple[int, list[int], int], weights: list[int], player: int
) -> tuple[int, int]:
    """(slope, offset): with the escape at e, each copy action's expectation
    exceeds the deviation's by slope * e * scale + offset, over
    mass^k * scale, in `_coordinate_market(violation, ints, weights, e)`
    (mass = sum(weights)).  With kept the base coordinates' weight and t
    their weighted values, a copy expects mass^(k-1) (t + weights[k] e scale);
    the deviation expects kept^(k-1) t, plus the base atom's weight times
    (witness - the player's coordinate), less (mass^k - kept^k) e scale on
    the atoms where some draw is the escape."""
    scale, values, witness = ints
    k = len(values)
    kept, mass = sum(weights[:k]), sum(weights)
    total = sum(map(mul, weights[:k], values))
    slope = mass ** (k - 1) * weights[k] + mass**k - kept**k
    offset = total * (mass ** (k - 1) - kept ** (k - 1)) - prod(weights[:k]) * (
        witness - values[player]
    )
    return slope, offset


def coordinate_increase_counterexample(
    plan: BonusPlan, violation: CoordinateViolation
) -> Counterexample:
    """Product market where chasing a higher result forfeits expectation.

    The marginal is the base marginal scaled by p plus a high escape value
    with the rare mass 1 - p.  The deviation action raises the violating
    player's draw to the witness exactly on the base tuple and crashes to a
    low escape value, minus the high one, whenever any player draws the high
    escape.  p climbs the schedule 1 - 2^-t until the guaranteed gain

        deficit * p^k * (base tuple probability)  -  (1 - p^k)

    turns positive (a rare-case bonus loss is at most 1), a test each step
    makes by comparing integers (`_probability_step`).  The escape starts at
    the least power of two above every coordinate's magnitude and doubles
    until the deviation's expectation drops strictly below the common one.
    No market is built for that test: with m the base marginal's mean, pi
    the base tuple's probability and e the escape, each copy action expects
    p m + (1 - p) e and the deviation p^k (m + pi (witness - base[player]))
    - (1 - p^k) e, both affine in e, so each doubling compares two integers.
    The market is then built once, and the reported gain recomputed on it
    exactly; `_certified` checks the ranking again on the built market.
    """
    deficit = _check_coordinate(plan, violation, Direction.INCREASE)
    player, k = violation.player, plan.players
    p, schedule_steps = _probability_step(k, deficit * tuple_probability(violation))

    ints = scale, values, witness = _coordinate_ints(violation)
    # p q_j = num w_j / (den 2(k - 1)) and 1 - p = (den - num) 2(k - 1) / (den 2(k - 1))
    num, den = p.as_integer_ratio()
    weights = [num * w for w in _base_weights(k, player)]
    weights.append((den - num) * 2 * (k - 1))
    slope, offset = _escape_line(ints, weights, player)
    escape = 1 << (max(map(abs, (*values, witness))) // scale).bit_length()
    for doubling in range(ESCALATIONS):
        if slope * escape * scale + offset > 0:  # the deviation k ranks below the copies
            market = _coordinate_market(violation, ints, weights, escape)
            params = {
                "p": p,
                "escape_high": Fraction(escape),
                "escape_low": Fraction(-escape),
                "probability_steps": schedule_steps,
                "escape_doublings": doubling,
            }
            return _certified(plan, market, tuple(range(k)), player, k, None, params)
        escape *= 2
    raise SearchExhausted(
        f"deviation expectation still not below after {ESCALATIONS} escape doublings"
    )


# =====================================================================
# One path out of the builders, validation and the one-call verdict
# =====================================================================


def _certified(
    plan: BonusPlan,
    market: Market,
    actions: tuple[int, ...],
    player: int,
    deviation: int,
    gain: Fraction | None,
    params: dict,
) -> Counterexample:
    """The counterexample at the pure profile `actions`, its certificate read
    from the market, checked by `_recomputed_gain` before it is returned: a
    stated gain as it is, None as the gain recomputed there."""
    certificate = tuple(zip(market.actions, market.expectations()))
    profile = Profile(tuple(_vertex(a, market.n) for a in actions))
    ce = Counterexample(market, profile, player, deviation, gain, certificate, params)
    recomputed = _recomputed_gain(plan, ce)
    return ce if gain is not None else replace(ce, gain=recomputed)


def validate_counterexample(plan: BonusPlan, ce: Counterexample) -> None:
    """Re-derive every claim a counterexample makes; StaleViolation on failure.

    Checks: the profile has one strategy per player over the market's
    actions, and the player and the deviation index them; certificate
    expectations match the market; the profile's actions lie in
    `Market.best_actions` and the deviation does not; and switching the
    player to the deviation action gains exactly ce.gain > 0, read from two
    cells of a game induced here, not by the builders.  A strictly positive
    exact gain from a unilateral switch is the refutation.  The gain and the
    certificate values are ints or Fractions: a float is FloatRejected.  A
    plan, a counterexample, or its market or profile of the wrong type is
    ArityMismatch.
    """
    instance_of(ce, Counterexample, "a counterexample")
    _exact(ce.gain, "gain")
    _recomputed_gain(plan, ce)


def _recomputed_gain(plan: BonusPlan, ce: Counterexample) -> Fraction:
    """The switch's exact gain, read from two cells of a game induced here,
    once every claim holds; a gain of None claims only that it is positive."""
    market = instance_of(ce.market, Market, "a market")
    k = instance_of(plan, BonusPlan, "a plan").players
    instance_of(ce.profile, Profile, "a profile")
    as_count(ce.player, "player", None, StaleViolation)
    as_count(ce.deviation, "deviation", None, StaleViolation)
    if not (ce.profile.players == k and 0 <= ce.player < k and 0 <= ce.deviation < market.n):
        raise StaleViolation(
            f"player {rational_text(ce.player)} and deviation {rational_text(ce.deviation)}"
            f" do not index a {k}-player profile over {market.n} actions"
        )
    ce.profile.check_arity(market)
    if ce.certificate != tuple(zip(market.actions, market.expectations())):
        raise StaleViolation("certificate expectations do not match the market")
    for _, value in ce.certificate:
        _exact(value, "certificate value")
    actions = tuple(s.pure_action for s in ce.profile.strategies)
    if any(a not in market.best_actions for a in actions):  # nor is a mixed one's None
        raise StaleViolation("profile is not on maximal-expectation actions")
    if ce.deviation in market.best_actions:
        raise StaleViolation("deviation action does not lose expectation")

    game = induce_game(market, plan, 0)
    swapped = list(actions)
    swapped[ce.player] = ce.deviation
    recomputed = game.payoff(tuple(swapped))[ce.player] - game.payoff(actions)[ce.player]
    gain = recomputed if ce.gain is None else ce.gain
    if gain <= 0:
        raise StaleViolation(f"gain {rational_text(gain)} is not positive")
    if recomputed != gain:
        raise StaleViolation(
            f"recorded gain {rational_text(gain)}"
            f" differs from recomputed {rational_text(recomputed)}"
        )
    return recomputed


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
    if instance_of(plan, BonusPlan, "a plan").players == 2:
        violations = _pair_violations
        decrease, increase = pair_decrease_counterexample, pair_increase_counterexample
    else:
        violations = _coordinate_violations
        decrease = coordinate_decrease_counterexample
        increase = coordinate_increase_counterexample
    violation = next(violations(plan, points), None)
    if violation is None:
        return UniversalityReport("constant-on-grid", None, None)
    build = decrease if violation.direction is Direction.DECREASE else increase
    return UniversalityReport("counterexample", violation, build(plan, violation))
