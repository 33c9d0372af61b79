"""Bonus plans: rules that split one unit of bonus among k players by results.

A plan maps a vector of realized results (one per player) to an allocation
on the k-simplex: every share in [0, 1], shares summing to exactly 1.  The
built-in kinds:

  constant        equal split regardless of results
  wta             winner takes all; ties split equally among the leaders
  lta             loser takes all; ties split equally among the laggards
  m_linear        equal split plus a pairwise-difference term, active only
                  while every result lies in a declared interval
  bounded_linear  the same linear form, active while every share it
                  produces lies in [0, 2/k]; otherwise the whole vector
                  reverts to equal split (vector-level fallback keeps the
                  sum at exactly 1)
  tabulated       explicit table of result vectors to allocations, with a
                  fallback allocation off the table

The linear form for player i with scale bound M is
    1/k + sum_j (r_i - r_j) / (2 k (k-1) M)
so a result one market-spread above the field earns at most 2/k.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

from .errors import ArityMismatch, BonusLabError, InvalidParameter, NonSimplexTable
from .rational import as_rational, format_rational, rationals

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class BonusPlan:
    """Shared base: number of players and the allocation contract."""

    players: int

    def __post_init__(self) -> None:
        if self.players < 2:
            raise ArityMismatch("a bonus plan needs at least 2 players")

    def evaluate(self, results: Sequence) -> tuple[Fraction, ...]:
        r = rationals(results)
        if len(r) != self.players:
            raise ArityMismatch(
                f"{len(r)} results for a {self.players}-player plan"
            )
        return self._allocate(r)

    def _allocate(self, r: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantPlan(BonusPlan):
    kind = "constant"

    def _allocate(self, r):
        share = Fraction(1, self.players)
        return (share,) * self.players


@dataclass(frozen=True)
class WinnerTakeAllPlan(BonusPlan):
    kind = "wta"

    def _allocate(self, r):
        top = max(r)
        leaders = [i for i, v in enumerate(r) if v == top]
        share = Fraction(1, len(leaders))
        return tuple(share if i in leaders else ZERO for i in range(self.players))


@dataclass(frozen=True)
class LoserTakeAllPlan(BonusPlan):
    kind = "lta"

    def _allocate(self, r):
        bottom = min(r)
        laggards = [i for i, v in enumerate(r) if v == bottom]
        share = Fraction(1, len(laggards))
        return tuple(share if i in laggards else ZERO for i in range(self.players))


def _linear_form(r: tuple[Fraction, ...], players: int, bound: Fraction):
    """The unclamped linear shares: 1/k + (k*r_i - sum r) / (2k(k-1)M)."""
    base = Fraction(1, players)
    denom = 2 * players * (players - 1) * bound
    total = sum(r)
    return tuple(base + (players * v - total) / denom for v in r)


@dataclass(frozen=True)
class MLinearPlan(BonusPlan):
    """Linear comparison plan gated by an interval.

    Active exactly when every result lies in [lo, hi]; off the interval the
    allocation is the equal split.  Requires hi - lo <= 2*bound so that the
    active shares stay within [0, 2/k].
    """

    bound: Fraction
    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.bound <= 0:
            raise InvalidParameter(f"scale bound must be positive, got {self.bound}")
        if self.lo > self.hi:
            raise InvalidParameter(f"empty interval [{self.lo}, {self.hi}]")
        if self.hi - self.lo > 2 * self.bound:
            raise InvalidParameter(
                f"interval width {self.hi - self.lo} exceeds 2*bound = {2 * self.bound}; "
                "shares would leave [0, 1]"
            )

    kind = "m_linear"

    def _allocate(self, r):
        if all(self.lo <= v <= self.hi for v in r):
            return _linear_form(r, self.players, self.bound)
        return (Fraction(1, self.players),) * self.players


@dataclass(frozen=True)
class BoundedLinearPlan(BonusPlan):
    """Linear comparison plan gated by its own output range.

    Computes the linear shares and keeps them only if every one lies in
    [0, 2/k]; otherwise the whole allocation reverts to the equal split.
    The fallback is taken vector-wide (never per coordinate) so the shares
    always sum to exactly 1.
    """

    bound: Fraction

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.bound <= 0:
            raise InvalidParameter(f"scale bound must be positive, got {self.bound}")

    kind = "bounded_linear"

    def _allocate(self, r):
        shares = _linear_form(r, self.players, self.bound)
        cap = Fraction(2, self.players)
        if all(ZERO <= s <= cap for s in shares):
            return shares
        return (Fraction(1, self.players),) * self.players


@dataclass(frozen=True)
class TabulatedPlan(BonusPlan):
    """Explicit table from result vectors to allocations, with a fallback."""

    points: Mapping[tuple[Fraction, ...], tuple[Fraction, ...]] = field(
        default_factory=dict
    )
    fallback: tuple[Fraction, ...] = ()

    kind = "tabulated"

    def __post_init__(self) -> None:
        super().__post_init__()
        frozen = {}
        for key, shares in self.points.items():
            k = rationals(key)
            if len(k) != self.players:
                raise ArityMismatch(f"table key {key} is not a {self.players}-vector")
            frozen[k] = _checked_allocation(shares, self.players, f"table entry {key}")
        object.__setattr__(self, "points", frozen)
        object.__setattr__(
            self,
            "fallback",
            _checked_allocation(self.fallback, self.players, "fallback"),
        )

    def _allocate(self, r):
        return self.points.get(r, self.fallback)


def _checked_allocation(shares, players: int, where: str) -> tuple[Fraction, ...]:
    vec = rationals(shares)
    if len(vec) != players:
        raise NonSimplexTable(f"{where}: expected {players} shares, got {len(vec)}")
    if any(s < 0 or s > 1 for s in vec) or sum(vec) != 1:
        raise NonSimplexTable(f"{where}: {vec} is not on the simplex")
    return vec


PLAN_KINDS = ("constant", "wta", "lta", "m_linear", "bounded_linear", "tabulated")


def evaluate(plan: BonusPlan, results: Sequence) -> tuple[Fraction, ...]:
    """Allocate the bonus for one realized result vector."""
    return plan.evaluate(results)


def zero_sum_shares(plan: BonusPlan, results: Sequence) -> tuple[Fraction, ...]:
    """The allocation recentered by -1/k per player; sums to exactly 0."""
    base = Fraction(1, plan.players)
    return tuple(s - base for s in plan.evaluate(results))


# ---------------------------------------------------------------------
# Simplex validation by deterministic sampling
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class SimplexReport:
    """Outcome of validate_simplex: pass/fail plus the first offending point."""

    ok: bool
    evaluations: int
    failure: tuple | None = None  # (results, shares-or-None, reason)


def validate_simplex(
    plan: BonusPlan,
    count: int = 1000,
    seed: int = 0,
    lo=-2,
    hi=2,
    max_denominator: int = 60,
) -> SimplexReport:
    """Check the allocation contract on pseudo-random result vectors.

    Samples `count` vectors with coordinates in [lo, hi] from a seeded
    generator (deterministic), and always also probes any tabulated points
    and the corners of a declared interval.  Reports the first vector whose
    allocation leaves the simplex, if any.
    """
    lo, hi = as_rational(lo), as_rational(hi)
    rng = random.Random(seed)
    probes: list[tuple[Fraction, ...]] = []
    if isinstance(plan, TabulatedPlan):
        probes.extend(plan.points)
    corners: tuple[Fraction, ...] | None = None
    if isinstance(plan, MLinearPlan):
        corners = (plan.lo, plan.hi)
    elif isinstance(plan, BoundedLinearPlan):
        corners = (-plan.bound, plan.bound)
    if corners is not None and 2**plan.players <= 1024:
        probes.extend(product(corners, repeat=plan.players))

    for _ in range(count):
        probes.append(
            tuple(_random_rational(rng, lo, hi, max_denominator) for _ in range(plan.players))
        )

    checked = 0
    for r in probes:
        try:
            shares = plan.evaluate(r)
        except Exception as exc:  # a raising plan fails validation, with the reason
            return SimplexReport(False, checked, (r, None, repr(exc)))
        checked += 1
        if len(shares) != plan.players:
            return SimplexReport(False, checked, (r, shares, "wrong arity"))
        if any(s < 0 or s > 1 for s in shares):
            return SimplexReport(False, checked, (r, shares, "share outside [0, 1]"))
        if sum(shares) != 1:
            return SimplexReport(False, checked, (r, shares, "shares do not sum to 1"))
    return SimplexReport(True, checked)


def _random_rational(rng: random.Random, lo: Fraction, hi: Fraction, max_den: int) -> Fraction:
    den = rng.randint(1, max_den)
    lo_num = -(-lo.numerator * den // lo.denominator)  # ceil(lo * den)
    hi_num = hi.numerator * den // hi.denominator  # floor(hi * den)
    if lo_num > hi_num:
        return lo
    return Fraction(rng.randint(lo_num, hi_num), den)


# ---------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------


def plan_to_dict(plan: BonusPlan) -> dict:
    data: dict = {"players": plan.players, "kind": plan.kind}
    if isinstance(plan, MLinearPlan):
        data["bound"] = format_rational(plan.bound)
        data["interval"] = [format_rational(plan.lo), format_rational(plan.hi)]
    elif isinstance(plan, BoundedLinearPlan):
        data["bound"] = format_rational(plan.bound)
    elif isinstance(plan, TabulatedPlan):
        data["points"] = [
            {
                "r": [format_rational(v) for v in key],
                "shares": [format_rational(s) for s in shares],
            }
            for key, shares in sorted(plan.points.items())
        ]
        data["fallback"] = [format_rational(s) for s in plan.fallback]
    return data


def plan_from_dict(data: Mapping) -> BonusPlan:
    try:
        return _plan_from_dict(data)
    except BonusLabError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ArityMismatch(f"malformed plan document: {exc}") from exc


def _plan_from_dict(data: Mapping) -> BonusPlan:
    kind = data["kind"]
    players = int(data["players"])
    if kind == "constant":
        return ConstantPlan(players)
    if kind == "wta":
        return WinnerTakeAllPlan(players)
    if kind == "lta":
        return LoserTakeAllPlan(players)
    if kind == "m_linear":
        lo, hi = data["interval"]
        return MLinearPlan(players, as_rational(data["bound"]), as_rational(lo), as_rational(hi))
    if kind == "bounded_linear":
        return BoundedLinearPlan(players, as_rational(data["bound"]))
    if kind == "tabulated":
        points = {
            tuple(rationals(entry["r"])): rationals(entry["shares"])
            for entry in data.get("points", ())
        }
        return TabulatedPlan(players, points, rationals(data["fallback"]))
    raise ArityMismatch(f"unknown plan kind {kind!r}; expected one of {PLAN_KINDS}")


def dump_plan(plan: BonusPlan) -> str:
    return json.dumps(plan_to_dict(plan), indent=2)


def load_plan(text: str) -> BonusPlan:
    return plan_from_dict(json.loads(text))
