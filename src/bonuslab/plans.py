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

A plan's public methods are `evaluate`, `kernel` and `linear_form`, and
each checks its arguments.  The rest of a kind is a set of private hooks,
the ones a `BonusPlan` subclass overrides.  A kind states its allocation
once, as an integer kernel (`_kernel`, read through `BonusPlan.kernel`,
which refuses a scale that is not an int >= 1) for results that are
integers over a fixed scale: the allocation as integer numerators over one
denominator, with every gate an integer comparison.  Payoff cells, grid
searches and probes run kernels; `evaluate` runs the kernel at one result
vector's least common denominator (`_kernel_for`).  A deviation search
asks `_run_sums` for one player's share sums along a run of grid points
against fixed opponents: at each point of the run the player's result at
every atom is one step further along a line.  By default it runs the
kernel at every atom of every point and reads the player's entry.  The
wta and lta kinds, one split rule whose `_pick` is max or min, state it
in closed form: along the run the player's share at an atom changes only
where its result crosses pick(others), so one divmod per atom places the
change and a difference list sums the whole run.  A payoff cell asks
`_share_sums` for each player's share numerators summed against the
atoms' probability weights: by default the kernel's shares at every atom,
summed column by column; the split kinds count each atom's picked players
in one pass.  `BonusPlan` lists the other hooks.

A kind's pure-sufficiency rule is `BonusPlan.linear_form(market)`, which
refuses a market that is not a `Market` and asks the kind's `_linear_form`:
the pair (equal, slope) over the market's `integer_view.scale`, with player
i's share numerator equal + slope * (k * v_i - sum v), when the kind's gate
is open at every atom of every pure profile on that market, and None
otherwise; its slope holds at every multiple of that scale, with the
kernel's denominator over k as the equal term.  The two linear kinds
decide it from the market's integer bounds summary (`Market._bounds`),
computed once per market: the interval-gated kind compares the least and
largest value with its interval's ends over the scale, the output-gated
kind the widest atom spread with twice its bound.  The constant kind
states (1, 0) on every market, and the two linear kinds state
(2(k-1) * num(M) * scale, den(M)), the pair their kernels are built from;
the wta, lta and tabulated kinds state none.
`bonuslab.game` gives the argument that makes the form sufficient.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, product
from math import lcm
from operator import add, mul
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    ArityMismatch,
    BonusLabError,
    InvalidParameter,
    NonSimplexTable,
)
from .market import Market
from .rational import (
    as_count,
    as_rational,
    format_rational,
    input_text,
    instance_of,
    items_of,
    load_json,
    over_lcm,
    rational_text,
    rationals,
)

PLAYER_CAP = 20_000  # players of a plan, checked before any kernel is built


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

    A kind defines its allocation once, in `_kernel`; `kernel` checks the
    scale and runs it, and `evaluate` runs it at the results' least common
    denominator.  Each kind also owns its private hooks: one player's share
    sums along a run of grid points (`_run_sums`), its share numerators
    summed over a market's atoms (`_share_sums`), its document fields
    (`_document_fields`), its construction from a document
    (`_from_document`), the result vectors `validate_simplex` always probes
    (`_probes`), its pure-sufficiency rule (`_linear_form`, read through the
    checked `linear_form`) and whether it is `anonymous`.  The defaults
    here fit a kind with no parameters, no sufficiency argument and no
    symmetry.  A plan has 2 to PLAYER_CAP players, checked before any
    kernel is built.
    """

    players: int

    # Anonymous: permuting the results permutes the shares the same way, so
    # a player's payoff depends on the opponents' results only as a multiset.
    anonymous = False

    def __post_init__(self) -> None:
        as_count(self.players, "player count", 2, ArityMismatch)
        if self.players > PLAYER_CAP:
            raise ArityMismatch(f"{rational_text(self.players)} players exceed cap {PLAYER_CAP}")

    def evaluate(self, results: Sequence) -> tuple[Fraction, ...]:
        """Allocate the bonus for one realized result vector."""
        r = rationals(results)
        if len(r) != self.players:
            raise ArityMismatch(
                f"{len(r)} results for a {self.players}-player plan"
            )
        (denominator, shares), v = self._kernel_for(r)
        return tuple(Fraction(s, denominator) for s in shares(v))

    def kernel(self, scale: int) -> Kernel:
        """This plan for results given as integers over `scale`, an int >= 1
        (ArityMismatch otherwise): the kind's `_kernel`."""
        return self._kernel(as_count(scale, "kernel scale", 1, ArityMismatch))

    def _kernel(self, scale: int) -> Kernel:
        """The kind's allocation for results given as integers over `scale`."""
        raise NotImplementedError

    def _run_sums(
        self,
        kernel: Kernel,
        player: int,
        others: Iterable[tuple[int, ...]],
        weights: Sequence[int],
    ) -> Callable[[Sequence[int], Sequence[int], int], list[int]]:
        """The player's share sums at every point of a run, against fixed opponents.

        `kernel` is this plan's kernel at some scale; `others` yields the
        other players' results at each atom, integers over that scale in
        player order, in atom order and once; `weights` holds the atoms'
        probability weights, one per atom.  The function takes `first`, the
        player's result at each atom at the run's first point, `step`, what
        one point adds to each, and `left`, and returns [B(0), ..., B(left)]:
        B(c) the sum over the atoms of weight times the player's share
        numerator at result first[t] + c * step[t].  Entries of `first` and
        `step` past the atoms are not read.  This default runs the kernel at
        every atom of every point, the player's result put in at `player`.
        """
        shares = kernel.shares
        atoms = [(rest[:player], rest[player:]) for rest in others]

        def sums(first, step, left):
            found = []
            results = first
            for c in range(left + 1):
                if c:
                    results = list(map(add, results, step))
                bonus = 0
                for p, (before, after), x in zip(weights, atoms, results):  # stops at the atoms
                    bonus += p * shares(before + (x,) + after)[player]
                found.append(bonus)
            return found

        return sums

    def _share_sums(
        self, kernel: Kernel, rows: Iterable[tuple[int, ...]], weights: Sequence[int]
    ) -> list[int]:
        """Each player's share numerators summed against the atoms' weights.

        `kernel` is this plan's kernel at some scale, `rows` yields one result
        vector per atom, integers over that scale, in atom order and once: a
        game realizes each row as it is read.  `weights` holds the atoms'
        probability weights, one per row.  Entry i is the sum over the atoms
        of weight times entry i of the kernel's shares there.  This default
        runs the kernel at every atom and sums each player's column.
        """
        return [sum(map(mul, weights, column)) for column in zip(*map(kernel.shares, rows))]

    def _kernel_for(self, values: Sequence[Fraction]) -> tuple[Kernel, tuple[int, ...]]:
        """The kernel at the values' least common denominator, and the values
        as integers over it."""
        scale, (ints,) = over_lcm(values)
        return self._kernel(scale), ints

    def linear_form(self, market: Market) -> tuple[int, int] | None:
        """(equal, slope) with `kernel(scale).shares(v)[i] == equal + slope *
        (k * v[i] - sum(v))` at every atom of every pure profile on the
        market, scale its `integer_view.scale`; None when the kind's gate
        may close there, or it has no such form.  The slope holds at every
        multiple u * scale of the market's scale too: at results over
        u * scale, at every atom of every profile of portfolios on the
        market, the share is kernel(u * scale).denominator / k + slope *
        (k * v[i] - sum(v)).  Every built-in kind meets this (the linear
        kinds' equal is linear in the scale, their slope free of it, and a
        portfolio's result lies between the actions'), and a game's
        portfolio cells rely on it.  ArityMismatch for a market that is not
        a Market; the kind's `_linear_form` decides."""
        return self._linear_form(instance_of(market, Market, "a market"))

    def _linear_form(self, market: Market) -> tuple[int, int] | None:
        """The kind's linear form on a market; by default none."""
        return None

    def _probes(self) -> Iterable[tuple[Fraction, ...]]:
        """Result vectors validate_simplex checks besides its random samples."""
        return ()

    def _document_fields(self) -> dict:
        """The kind's own document fields, after "players" and "kind"."""
        return {}

    @classmethod
    def _from_document(cls, players: int, data: Mapping) -> BonusPlan:
        """The plan of this kind from a document; the constructor checks the
        player count."""
        return cls(players)


@dataclass(frozen=True)
class ConstantPlan(BonusPlan):
    kind = "constant"
    anonymous = True

    def _kernel(self, scale):
        equal = (1,) * self.players
        return Kernel(self.players, lambda v: equal)

    def _linear_form(self, market):
        return 1, 0


@dataclass(frozen=True)
class _SplitPlan(BonusPlan):
    """Everything to the players whose result is pick(results), split
    equally; a subclass names its `kind` and its `_pick`, max or min."""

    anonymous = True

    def _kernel(self, scale):
        pick = self._pick
        denominator = lcm(*range(1, self.players + 1))

        def shares(v):
            best = pick(v)
            share = denominator // v.count(best)
            return [share if x == best else 0 for x in v]

        return Kernel(denominator, shares)

    def _run_sums(self, kernel, player, others, weights):
        """In closed form.  At an atom the player's share is `below`, `tie`
        or `above` as its result x is under, at or over best =
        pick(others), and along a run x = first + c * step is affine in c,
        so the share changes at most twice, where x crosses best.  One
        divmod per atom places the crossing, and a difference list over
        c = 0..left gives every B(c) in O(atoms + left)."""
        full = kernel.denominator
        atoms = []
        for rest, p in zip(others, weights):
            best = self._pick(rest)
            whole, tie = p * full, p * (full // (rest.count(best) + 1))  # split with the tied
            below, above = (whole, 0) if self._pick is min else (0, whole)
            atoms.append((best, below, tie, above))

        def sums(first, step, left):
            changes = [0] * (left + 2)  # B(c) - B(c - 1); the last entry is past the run
            for (best, lo, tie, hi), x, s in zip(atoms, first, step):
                if s < 0:  # a falling result, read negated: it rises, and the shares swap
                    x, s, best, lo, hi = -x, -s, -best, hi, lo
                if not s:
                    changes[0] += hi if x > best else tie if x == best else lo
                    continue
                q, r = divmod(best - x, s)  # x meets best at c = q + r / s
                if q < 0:  # over best at every point
                    changes[0] += hi
                elif q > left:  # under best at every point
                    changes[0] += lo
                else:
                    changes[0] += lo
                    if r:  # no point meets best: over it from q + 1 on
                        changes[q + 1] += hi - lo
                    else:  # the point c = q meets best and ties
                        changes[q] += tie - lo
                        changes[q + 1] += hi - tie
            found = list(accumulate(changes))
            found.pop()
            return found

        return sums

    def _share_sums(self, kernel, rows, weights):
        """One pass over the atoms with no share row: a lone pick(v) gets
        p * denominator, each of `count` tied ones p * (denominator // count)."""
        pick, denominator = self._pick, kernel.denominator
        sums = [0] * self.players
        for v, p in zip(rows, weights):
            best = pick(v)
            count = v.count(best)
            if count == 1:
                sums[v.index(best)] += p * denominator
            else:
                tied = p * (denominator // count)
                for i, x in enumerate(v):
                    if x == best:
                        sums[i] += tied
        return sums


@dataclass(frozen=True)
class WinnerTakeAllPlan(_SplitPlan):
    kind = "wta"
    _pick = staticmethod(max)


@dataclass(frozen=True)
class LoserTakeAllPlan(_SplitPlan):
    kind = "lta"
    _pick = staticmethod(min)


@dataclass(frozen=True)
class _LinearPlan(BonusPlan):
    """The linear form with a positive scale bound; subclasses choose a gate
    that is symmetric in the results."""

    bound: Fraction
    anonymous = True

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "bound", as_rational(self.bound))
        if self.bound <= 0:
            raise InvalidParameter(
                f"scale bound must be positive, got {rational_text(self.bound)}"
            )

    def _scaled_form(self, scale: int) -> tuple[int, int]:
        """(equal, slope) over 2k(k-1)M·scale: an equal share is
        2(k-1)·num(M)·scale, and (r_i - r_j) / (2k(k-1)M) is den(M)·(v_i - v_j)."""
        numerator, denominator = self.bound.as_integer_ratio()
        return 2 * (self.players - 1) * numerator * scale, denominator

    def _linear_kernel(self, scale: int, gate) -> Kernel:
        """Player i's share numerator equal + (k·v_i - sum v)·slope,
        (equal, slope) = `_scaled_form(scale)`, kept where gate(v, shares)
        holds; otherwise the equal split."""
        k = self.players
        equal, slope = self._scaled_form(scale)
        fallback = [equal] * k

        def shares(v):
            total = sum(v)
            linear = [equal + (k * x - total) * slope for x in v]
            return linear if gate(v, linear) else fallback

        return Kernel(k * equal, shares)

    def _corners(self, lo: Fraction, hi: Fraction) -> Iterable[tuple[Fraction, ...]]:
        """Every vector with coordinates in {lo, hi}; none past 10 players (1024 vectors)."""
        return product((lo, hi), repeat=self.players) if self.players <= 10 else ()

    def _document_fields(self) -> dict:
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
        object.__setattr__(self, "lo", as_rational(self.lo))
        object.__setattr__(self, "hi", as_rational(self.hi))
        if self.lo > self.hi:
            raise InvalidParameter(
                f"empty interval [{rational_text(self.lo)}, {rational_text(self.hi)}]"
            )
        if self.hi - self.lo > 2 * self.bound:
            raise InvalidParameter(
                f"interval width {rational_text(self.hi - self.lo)} exceeds"
                f" 2*bound = {rational_text(2 * self.bound)}; shares would leave [0, 1]"
            )

    kind = "m_linear"

    def _interval(self, scale: int) -> tuple[int, int]:
        """(ceil(lo * scale), floor(hi * scale)), from the ends' integer
        ratios: a result v / scale lies in the interval exactly when the
        integer v lies between them."""
        (lo, lo_den), (hi, hi_den) = self.lo.as_integer_ratio(), self.hi.as_integer_ratio()
        return -(-lo * scale // lo_den), hi * scale // hi_den

    def _kernel(self, scale):
        lo, hi = self._interval(scale)
        return self._linear_kernel(scale, lambda v, shares: lo <= min(v) and max(v) <= hi)

    def _linear_form(self, market):
        scale = market.integer_view.scale
        lo, hi = self._interval(scale)
        least, largest, _ = market._bounds
        if lo <= least and largest <= hi:
            return self._scaled_form(scale)
        return None

    def _probes(self):
        return self._corners(self.lo, self.hi)

    def _document_fields(self) -> dict:
        interval = [format_rational(self.lo), format_rational(self.hi)]
        return {**super()._document_fields(), "interval": interval}

    @classmethod
    def _from_document(cls, players, data):
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

    def _kernel(self, scale):
        cap = 4 * (self.players - 1) * self.bound.numerator * scale  # a share of 2/k
        return self._linear_kernel(
            scale, lambda v, shares: min(shares) >= 0 and max(shares) <= cap
        )

    def _linear_form(self, market):
        # the widest atom spread is over view.scale: spread / scale <= 2 * bound
        view = market.integer_view
        spread = market._bounds.spread
        if spread * self.bound.denominator <= 2 * self.bound.numerator * view.scale:
            return self._scaled_form(view.scale)
        return None

    def _probes(self):
        return self._corners(-self.bound, self.bound)

    @classmethod
    def _from_document(cls, players, data):
        return cls(players, as_rational(data["bound"]))


@dataclass(frozen=True)
class TabulatedPlan(BonusPlan):
    """Explicit table from result vectors to allocations, with a fallback;
    each result vector is listed once."""

    points: Mapping[tuple[Fraction, ...], tuple[Fraction, ...]] = field(
        default_factory=dict
    )
    fallback: tuple[Fraction, ...] = ()

    kind = "tabulated"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.points, Mapping):
            raise ArityMismatch(
                f"expected a mapping of result vectors to shares, got {input_text(self.points)}"
            )
        frozen = {}
        for key, shares in self.points.items():
            k = rationals(key)
            if len(k) != self.players:
                raise ArityMismatch(
                    f"table key {rational_text(key)} has length {len(k)},"
                    f" not {rational_text(self.players)}"
                )
            if k in frozen:
                raise _repeated_key(k)
            where = f"table entry {rational_text(key)}"
            frozen[k] = _checked_allocation(shares, self.players, where)
        fallback = _checked_allocation(self.fallback, self.players, "fallback")
        object.__setattr__(self, "points", frozen)
        object.__setattr__(self, "fallback", fallback)
        # the shares in integers, built once over their common denominator
        denominator, (fallback_ints, *rows) = over_lcm(fallback, *frozen.values())
        table = dict(zip(frozen, rows))
        object.__setattr__(self, "_table", (denominator, table, fallback_ints))

    def _kernel(self, scale):
        denominator, table, fallback = self._table

        def shares(v):
            return table.get(tuple(Fraction(x, scale) for x in v), fallback)

        return Kernel(denominator, shares)

    def _probes(self):
        return self.points

    def _document_fields(self) -> dict:
        points = [
            {
                "r": [format_rational(v) for v in key],
                "shares": [format_rational(s) for s in shares],
            }
            for key, shares in sorted(self.points.items())
        ]
        return {"points": points, "fallback": [format_rational(s) for s in self.fallback]}

    @classmethod
    def _from_document(cls, players, data):
        points = {}
        for entry in items_of(data.get("points", ()), "table points"):
            r = rationals(entry["r"])
            if r in points:
                raise _repeated_key(r)
            points[r] = rationals(entry["shares"])
        return cls(players, points, rationals(data["fallback"]))


def _repeated_key(key: tuple[Fraction, ...]) -> NonSimplexTable:
    return NonSimplexTable(f"table entry {rational_text(key)} is listed more than once")


def _checked_allocation(shares, players: int, where: str) -> tuple[Fraction, ...]:
    vec = rationals(shares)
    if len(vec) != players:
        raise NonSimplexTable(f"{where}: expected {rational_text(players)} shares, got {len(vec)}")
    if any(s < 0 or s > 1 for s in vec) or sum(vec) != 1:
        raise NonSimplexTable(f"{where}: {rational_text(vec)} is not on the simplex")
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
    base = Fraction(1, instance_of(plan, BonusPlan, "a plan").players)
    return tuple(s - base for s in plan.evaluate(results))


# ---------------------------------------------------------------------
# Simplex validation by deterministic sampling
# ---------------------------------------------------------------------

SAMPLE_DENOMINATOR = 60  # largest denominator of a sampled result
SAMPLE_CAP = 200_000  # sampled coordinates, count * players, checked before any sample


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
) -> SimplexReport:
    """Check the allocation contract on pseudo-random result vectors.

    Each vector is allocated by `evaluate`, which runs the plan's kernel:
    the check covers the rule the games compute payoffs with.

    Samples `count` vectors with coordinates in [lo, hi] and denominators up
    to SAMPLE_DENOMINATOR from a seeded generator (deterministic), after the
    plan's own `_probes()`: tabulated points, the corners of a linear plan's
    interval or bound.  Samples are drawn one at a time as they are
    checked; more than SAMPLE_CAP sampled coordinates, count * players, are
    refused before the first.  Reports the first vector whose allocation
    leaves the simplex, if any.
    """
    instance_of(plan, BonusPlan, "a plan")
    as_count(count, "sample count", 1, InvalidParameter)
    if count * plan.players > SAMPLE_CAP:
        raise InvalidParameter(
            f"{rational_text(count)} samples x {plan.players} players"
            f" exceed cap {SAMPLE_CAP} sampled coordinates"
        )
    lo, hi = as_rational(lo), as_rational(hi)
    if lo > hi:
        raise InvalidParameter(
            f"sample range {rational_text(lo)}:{rational_text(hi)} is inverted"
        )
    rng = random.Random(as_count(seed, "seed", None, InvalidParameter))
    samples = (
        tuple(_random_rational(rng, lo, hi) for _ in range(plan.players))
        for _ in range(count)
    )

    checked = 0
    for r in chain(plan._probes(), samples):
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


def _random_rational(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    den = rng.randint(1, SAMPLE_DENOMINATOR)
    lo_num = -(-lo.numerator * den // lo.denominator)  # ceil(lo * den)
    hi_num = hi.numerator * den // hi.denominator  # floor(hi * den)
    if lo_num > hi_num:
        return lo
    return Fraction(rng.randint(lo_num, hi_num), den)


# ---------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------


def plan_to_dict(plan: BonusPlan) -> dict:
    instance_of(plan, BonusPlan, "a plan")
    return {"players": plan.players, "kind": plan.kind, **plan._document_fields()}


def plan_from_dict(data: Mapping) -> BonusPlan:
    try:
        kind, players = data["kind"], data["players"]
        if kind not in _KINDS:
            raise ArityMismatch(
                f"unknown plan kind {input_text(kind)}; expected one of {tuple(_KINDS)}"
            )
        return _KINDS[kind]._from_document(players, data)
    except BonusLabError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ArityMismatch(f"malformed plan document: {exc}") from exc


def load_plan(text: str) -> BonusPlan:
    return plan_from_dict(load_json(text))
