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

A kind states its allocation once, as an integer kernel (`BonusPlan.kernel`)
for results that are integers over a fixed scale: the allocation as integer
numerators over one denominator, with every gate an integer comparison.
Payoff cells, grid searches and probes run kernels; `evaluate` runs the
kernel at one result vector's least common denominator.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, product
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    ArityMismatch,
    BonusLabError,
    FloatRejected,
    InvalidParameter,
    NonSimplexTable,
)
from .market import Market, support_stats
from .rational import as_rational, format_rational, rationals

class Kernel(NamedTuple):
    """A plan compiled for integer results over one fixed scale.

    `shares(v)` takes a tuple of one integer per player, the results times
    the scale, and returns the allocation times `denominator`: integers
    that sum to exactly `denominator`.
    """

    denominator: int
    shares: Callable[[tuple[int, ...]], Sequence[int]]


@dataclass(frozen=True)
class BonusPlan:
    """Shared base: number of players and the allocation contract.

    A kind defines its allocation once, in `kernel`; `evaluate` runs that
    kernel at the results' least common denominator.  Each kind also owns
    its document fields, its construction from a document, the result
    vectors `validate_simplex` always probes, and its pure-sufficiency rule.
    The defaults here fit a kind with no parameters and no sufficiency
    argument.
    """

    players: int

    def __post_init__(self) -> None:
        if self.players < 2:
            raise ArityMismatch("a bonus plan needs at least 2 players")

    def evaluate(self, results: Sequence) -> tuple[Fraction, ...]:
        """Allocate the bonus for one realized result vector."""
        r = rationals(results)
        if len(r) != self.players:
            raise ArityMismatch(
                f"{len(r)} results for a {self.players}-player plan"
            )
        (denominator, shares), v = self.kernel_for(r)
        return tuple(Fraction(s, denominator) for s in shares(v))

    def kernel(self, scale: int) -> Kernel:
        """This plan for results given as integers over `scale`."""
        raise NotImplementedError

    def kernel_for(self, values: Sequence[Fraction]) -> tuple[Kernel, tuple[int, ...]]:
        """The kernel at the values' least common denominator, and the values
        as integers over it."""
        scale = lcm(*(x.denominator for x in values))
        return self.kernel(scale), _over(values, scale)

    def pure_search_complete(self, market: Market) -> bool:
        """True when scanning pure deviations provably covers all portfolios."""
        return False

    def probes(self) -> Iterable[tuple[Fraction, ...]]:
        """Result vectors validate_simplex checks besides its random samples."""
        return ()

    def document_fields(self) -> dict:
        """The kind's own document fields, after "players" and "kind"."""
        return {}

    @classmethod
    def from_document(cls, players: int, data: Mapping) -> BonusPlan:
        """The plan of this kind from a document whose player count is checked."""
        return cls(players)


@dataclass(frozen=True)
class ConstantPlan(BonusPlan):
    kind = "constant"

    def kernel(self, scale):
        equal = (1,) * self.players
        return Kernel(self.players, lambda v: equal)

    def pure_search_complete(self, market: Market) -> bool:
        return True


@dataclass(frozen=True)
class WinnerTakeAllPlan(BonusPlan):
    kind = "wta"

    def kernel(self, scale):
        return _split_kernel(self.players, max)


@dataclass(frozen=True)
class LoserTakeAllPlan(BonusPlan):
    kind = "lta"

    def kernel(self, scale):
        return _split_kernel(self.players, min)


def _split_kernel(players: int, pick) -> Kernel:
    """Everything to the players whose result is pick(results), split equally."""
    denominator = lcm(*range(1, players + 1))
    split = [0] + [denominator // count for count in range(1, players + 1)]

    def shares(v):
        best = pick(v)
        share = split[v.count(best)]
        return [share if x == best else 0 for x in v]

    return Kernel(denominator, shares)


@dataclass(frozen=True)
class _LinearPlan(BonusPlan):
    """The linear form with a positive scale bound; subclasses choose the gate."""

    bound: Fraction

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.bound <= 0:
            raise InvalidParameter(f"scale bound must be positive, got {self.bound}")

    def _linear_kernel(self, scale: int, gate) -> Kernel:
        """The linear form over 2k(k-1)M·scale, kept where gate(v, shares) holds.

        An equal share is `equal`; player i's linear numerator is
        equal + (k·v_i - sum v)·(denominator of M).
        """
        k, bound = self.players, self.bound
        equal = 2 * (k - 1) * bound.numerator * scale
        fallback = [equal] * k

        def shares(v):
            total = sum(v)
            linear = [equal + (k * x - total) * bound.denominator for x in v]
            return linear if gate(v, linear) else fallback

        return Kernel(k * equal, shares)

    def _corners(self, lo: Fraction, hi: Fraction) -> Iterable[tuple[Fraction, ...]]:
        """Every vector with coordinates in {lo, hi}, up to 1024 of them."""
        return product((lo, hi), repeat=self.players) if 2**self.players <= 1024 else ()

    def document_fields(self) -> dict:
        return {"bound": format_rational(self.bound)}


@dataclass(frozen=True)
class MLinearPlan(_LinearPlan):
    """Linear comparison plan gated by an interval.

    Active exactly when every result lies in [lo, hi]; off the interval the
    allocation is the equal split.  Requires hi - lo <= 2*bound so that the
    active shares stay within [0, 2/k].  Pure-sufficient on a market whose
    values all lie inside the interval.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.lo > self.hi:
            raise InvalidParameter(f"empty interval [{self.lo}, {self.hi}]")
        if self.hi - self.lo > 2 * self.bound:
            raise InvalidParameter(
                f"interval width {self.hi - self.lo} exceeds 2*bound = {2 * self.bound}; "
                "shares would leave [0, 1]"
            )

    kind = "m_linear"

    def kernel(self, scale):
        lo, hi = self.lo * scale, self.hi * scale
        lo, hi = -(-lo.numerator // lo.denominator), hi.numerator // hi.denominator
        return self._linear_kernel(scale, lambda v, shares: lo <= min(v) and max(v) <= hi)

    def pure_search_complete(self, market: Market) -> bool:
        stats = support_stats(market)
        return self.lo <= stats.lo and stats.hi <= self.hi

    def probes(self):
        return self._corners(self.lo, self.hi)

    def document_fields(self) -> dict:
        interval = [format_rational(self.lo), format_rational(self.hi)]
        return {**super().document_fields(), "interval": interval}

    @classmethod
    def from_document(cls, players, data):
        lo, hi = rationals(data["interval"])
        return cls(players, as_rational(data["bound"]), lo, hi)


@dataclass(frozen=True)
class BoundedLinearPlan(_LinearPlan):
    """Linear comparison plan gated by its own output range.

    Computes the linear shares and keeps them only if every one lies in
    [0, 2/k]; otherwise the whole allocation reverts to the equal split.
    The fallback is taken vector-wide (never per coordinate) so the shares
    always sum to exactly 1.  Pure-sufficient on a market where no atom's
    result spread exceeds twice the bound.
    """

    kind = "bounded_linear"

    def kernel(self, scale):
        cap = 4 * (self.players - 1) * self.bound.numerator * scale  # a share of 2/k
        return self._linear_kernel(
            scale, lambda v, shares: min(shares) >= 0 and max(shares) <= cap
        )

    def pure_search_complete(self, market: Market) -> bool:
        spread = max(max(atom.outcomes) - min(atom.outcomes) for atom in market.atoms)
        return spread <= 2 * self.bound

    def probes(self):
        return self._corners(-self.bound, self.bound)

    @classmethod
    def from_document(cls, players, data):
        return cls(players, as_rational(data["bound"]))


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
        fallback = _checked_allocation(self.fallback, self.players, "fallback")
        object.__setattr__(self, "points", frozen)
        object.__setattr__(self, "fallback", fallback)
        # the table in integers, built once: each key as reduced
        # (numerator, denominator) pairs, shares over their common denominator
        denominator = lcm(*(s.denominator for row in (fallback, *frozen.values()) for s in row))
        table = {
            tuple((x.numerator, x.denominator) for x in key): _over(row, denominator)
            for key, row in frozen.items()
        }
        object.__setattr__(self, "_table", (denominator, table, _over(fallback, denominator)))

    def kernel(self, scale):
        denominator, table, fallback = self._table

        def shares(v):
            key = []
            for x in v:
                g = gcd(x, scale)
                key.append((x // g, scale // g))
            return table.get(tuple(key), fallback)

        return Kernel(denominator, shares)

    def probes(self):
        return self.points

    def document_fields(self) -> dict:
        points = [
            {
                "r": [format_rational(v) for v in key],
                "shares": [format_rational(s) for s in shares],
            }
            for key, shares in sorted(self.points.items())
        ]
        return {"points": points, "fallback": [format_rational(s) for s in self.fallback]}

    @classmethod
    def from_document(cls, players, data):
        points = {
            rationals(entry["r"]): rationals(entry["shares"])
            for entry in data.get("points", ())
        }
        return cls(players, points, rationals(data["fallback"]))


def _over(vector: Sequence[Fraction], denominator: int) -> tuple[int, ...]:
    """The numerators of `vector` over a common multiple of its denominators."""
    return tuple(x.numerator * (denominator // x.denominator) for x in vector)


def _checked_allocation(shares, players: int, where: str) -> tuple[Fraction, ...]:
    vec = rationals(shares)
    if len(vec) != players:
        raise NonSimplexTable(f"{where}: expected {players} shares, got {len(vec)}")
    if any(s < 0 or s > 1 for s in vec) or sum(vec) != 1:
        raise NonSimplexTable(f"{where}: {vec} is not on the simplex")
    return vec


_KINDS = {
    cls.kind: cls
    for cls in (
        ConstantPlan,
        WinnerTakeAllPlan,
        LoserTakeAllPlan,
        MLinearPlan,
        BoundedLinearPlan,
        TabulatedPlan,
    )
}


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

    Each vector is allocated by `evaluate`, which runs the plan's kernel:
    the check covers the rule the games compute payoffs with.

    Samples `count` vectors with coordinates in [lo, hi] from a seeded
    generator (deterministic), after the plan's own `probes()`: tabulated
    points, the corners of a linear plan's interval or bound.  Samples are
    drawn one at a time as they are checked.  Reports the first vector whose
    allocation leaves the simplex, if any.
    """
    if count < 1:
        raise InvalidParameter(f"sample count must be >= 1, got {count}")
    lo, hi = as_rational(lo), as_rational(hi)
    if lo > hi:
        raise InvalidParameter(f"sample range {lo}:{hi} is inverted")
    rng = random.Random(seed)
    samples = (
        tuple(_random_rational(rng, lo, hi, max_denominator) for _ in range(plan.players))
        for _ in range(count)
    )

    checked = 0
    for r in chain(plan.probes(), samples):
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
    return {"players": plan.players, "kind": plan.kind, **plan.document_fields()}


def plan_from_dict(data: Mapping) -> BonusPlan:
    try:
        kind, players = data["kind"], data["players"]
        if isinstance(players, float):
            raise FloatRejected(f"refusing float player count {players!r}")
        if type(players) is not int:  # a bool is not a player count either
            raise TypeError(f"player count must be an integer, got {players!r}")
        if kind not in _KINDS:
            raise ArityMismatch(f"unknown plan kind {kind!r}; expected one of {tuple(_KINDS)}")
        return _KINDS[kind].from_document(players, data)
    except BonusLabError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ArityMismatch(f"malformed plan document: {exc}") from exc


def dump_plan(plan: BonusPlan) -> str:
    return json.dumps(plan_to_dict(plan), indent=2)


def load_plan(text: str) -> BonusPlan:
    return plan_from_dict(json.loads(text))
