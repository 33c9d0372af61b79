"""Finite markets of stochastic actions.

A market is a finite probability space together with n actions; each atom
carries a probability and one exact outcome per action.  Actions are random
variables on the *shared* space: two players who choose the same action
realize identical outcomes, and a mixed action is a portfolio — its realized
value at an atom is the weighted sum of the pure outcomes there, not a
lottery over pure plays.

All numbers are fractions.Fraction at the surface, read by
rational.integer_ratio (see rational.as_rational for what parses); every
portfolio is built through `MixedAction`, which checks its weights once, on
the integer counts it keeps.

A market is kept as its `integer_view`, the one form `Market` checks:
outcomes are integers over one common denominator, probabilities over
another, each the least.  `build_market` reads its atoms' numbers as
integer ratios (`rational.integer_ratio`) and writes them so with
`ratios_over_lcm`; a caller that has its numbers in integers already, as
the coordinate counterexamples do, hands `Market` its view directly.  A
market's `atoms`, the (probability, outcomes) pairs `build_market` reads,
are derived from the view on first read, one `Fraction` per distinct
integer, so a verdict that never reads them never builds them.
`market_to_dict` writes a document from the view itself, one string per
distinct integer by `format_ratio`, with no `Fraction`: a document in
canonical form goes to the view and back with no `Fraction` either way.
Action a's expectation is one integer sum, sum_t weight_t * value_t[a],
over mass * scale, kept once per market in `expectation_sums`.  Those sums are the one
ranking of expectations: `best_actions`, the indices of the largest in
index order, is the set every best-action test reads, and no `Fraction` is
compared to rank actions.  `expectations()` builds `Fraction`s from the
sums for reports and certificates, and `expectation` gives a portfolio's as
one `Fraction`, its counts' integer dot with the sums over unit * mass *
scale.

One more thing a market fixes is built once, on first read, and shared
by every reader.  `Market._bounds` is the view's integer bounds summary,
from one pass over the atoms: the least value, the largest value and the
widest atom spread (an atom's largest value less its least), all over the
scale.  The interval-gated plan and its builder read the least and the
largest, the output-gated plan the spread; no `Fraction` summary of a
market is built.

A pure strategy depends on its action and the action count alone, so it is
built once per process, not once per market: `_vertex(a, n)` reads one
table keyed by (a, n), built on a first read and handed out as that one
object to every market of n actions and every search that names a pure
strategy on one.  Sharing is safe because a `MixedAction` is frozen and its
equality and hash read only its weights.  The table holds at most
VERTEX_CAP weights over all its entries; a vertex past that is built on
every read, the same value, and not kept.  `MixedAction.pure` checks its
arguments as ints before it reads the table, since `True` and `1.0` hash
as 1 does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd
from operator import mul, sub
from threading import Lock
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    ArityMismatch,
    BonusLabError,
    GridCapExceeded,
    InvalidParameter,
    NonPositiveProbability,
    NonSimplexWeights,
    NonUnitMass,
)
from .rational import (
    as_count,
    format_rational,
    format_ratio,
    input_text,
    instance_of,
    integer_ratio,
    integer_ratios,
    items_of,
    load_json,
    over_lcm,
    ratios_over_lcm,
    rational_text,
    rationals,
)

GRID_CAP = 200_000  # simplex grid points, probed base points, a pure portfolio's actions
VERTEX_CAP = 1 << 16  # weights held by the table of pure strategies, over all its entries

ZERO = Fraction(0)
ONE = Fraction(1)


# =====================================================================
# Core types
# =====================================================================


@dataclass(frozen=True)
class IntegerView:
    """A market's numbers as integers over two common denominators.

    The t-th atom has probability weights[t] / mass and action a's outcome is
    values[t][a] / scale, where scale and mass are the least common
    denominators of the outcomes and of the probabilities.
    """

    scale: int
    mass: int
    weights: tuple[int, ...]
    values: tuple[tuple[int, ...], ...]


class _Bounds(NamedTuple):
    """A market's integer bounds summary, every value over the view's scale."""

    least: int
    largest: int
    spread: int  # the widest atom's largest value less its least


@dataclass(frozen=True)
class Market:
    """Immutable finite market.  Validated on construction, on its view.

    Attributes:
        actions: distinct labels, one per action, each text that UTF-8 can
            encode (a lone surrogate cannot be printed or written); read as
            a list by `items_of` and kept as a tuple.
        integer_view: the probability space over least common denominators;
            every weight is positive and they sum to the mass, and every
            atom has one value per action.
    """

    actions: tuple[str, ...]
    integer_view: IntegerView

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(items_of(self.actions, "action labels")))
        if not self.actions:
            raise ArityMismatch("market needs at least one action")
        if not all(isinstance(label, str) for label in self.actions):
            raise ArityMismatch(f"action labels must be strings, got {input_text(self.actions)}")
        for label in self.actions:
            try:
                label.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ArityMismatch(f"action label {input_text(label)} is not UTF-8 text") from exc
        if len(set(self.actions)) != len(self.actions):
            raise ArityMismatch(f"duplicate action labels in {input_text(self.actions)}")
        view = self.integer_view
        if not view.weights:
            raise NonUnitMass("market needs at least one atom")
        if len(view.values) != len(view.weights):
            raise ArityMismatch(
                f"{len(view.weights)} atom weights for {len(view.values)} outcome rows"
            )
        if (
            min(view.scale, view.mass) < 1
            or gcd(view.mass, *view.weights) != 1
            or gcd(view.scale, *chain.from_iterable(view.values)) != 1
        ):
            raise InvalidParameter(
                "an integer view's scale and mass must be the least common denominators"
                " of its outcomes and probabilities"
            )
        n = len(self.actions)
        for weight, row in zip(view.weights, view.values):
            if weight <= 0:
                probability = rational_text(Fraction(weight, view.mass))
                raise NonPositiveProbability(f"atom probability {probability} is not positive")
            if len(row) != n:
                raise ArityMismatch(f"atom has {len(row)} outcomes, expected {n}")
        if (total := sum(view.weights)) != view.mass:
            total_text = rational_text(Fraction(total, view.mass))
            raise NonUnitMass(f"atom probabilities sum to {total_text}, not 1")

    @property
    def n(self) -> int:
        return len(self.actions)

    @cached_property
    def atoms(self) -> tuple[tuple[Fraction, tuple[Fraction, ...]], ...]:
        """The probability space as the (probability, outcomes) pairs
        `build_market` reads, derived from the integer view on first read:
        one `Fraction` per distinct weight, over the mass, and per distinct
        value, over the scale, shared by every atom that holds it."""
        view = self.integer_view
        probability = {w: Fraction(w, view.mass) for w in dict.fromkeys(view.weights)}
        values = dict.fromkeys(chain.from_iterable(view.values))
        outcome = {x: Fraction(x, view.scale) for x in values}
        return tuple(
            (probability[w], tuple(map(outcome.__getitem__, row)))
            for w, row in zip(view.weights, view.values)
        )

    def expectations(self) -> tuple[Fraction, ...]:
        """Every action's expectation, computed on the integer view once."""
        return self._expectations

    @cached_property
    def expectation_sums(self) -> tuple[int, ...]:
        """Each action's expectation over the integer view's mass * scale:
        sum_t weights[t] * values[t][a], one integer per action."""
        view = self.integer_view
        return tuple(sum(map(mul, view.weights, column)) for column in zip(*view.values))

    @cached_property
    def best_actions(self) -> tuple[int, ...]:
        """The actions of maximal expectation: the largest sums, in index order."""
        sums = self.expectation_sums
        top = max(sums)
        return tuple(i for i, s in enumerate(sums) if s == top)

    @cached_property
    def _expectations(self) -> tuple[Fraction, ...]:
        view = self.integer_view
        denominator = view.mass * view.scale
        return tuple(Fraction(s, denominator) for s in self.expectation_sums)

    @cached_property
    def _bounds(self) -> _Bounds:
        """The view's least value, largest value and widest atom spread, from
        one pass over the atoms."""
        lows, highs = zip(*((min(row), max(row)) for row in self.integer_view.values))
        return _Bounds(min(lows), max(highs), max(map(sub, highs, lows)))


@dataclass(frozen=True)
class MixedAction:
    """A portfolio over the market's actions: simplex weights, exact.

    Checked once, on integers it keeps: weight i is counts[i] / unit, the
    unit the weights' least common denominator; `pure_action` is the index
    whose count is the whole unit, which leaves 0 to the others and makes
    the unit 1, or None.  Equality, hash and repr read the weights only.
    """

    weights: tuple[Fraction, ...]
    counts: tuple[int, ...] = field(init=False, compare=False, repr=False)
    unit: int = field(init=False, compare=False, repr=False)
    pure_action: int | None = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", rationals(self.weights))
        if not self.weights:
            raise NonSimplexWeights("empty weight vector")
        unit, (counts,) = over_lcm(self.weights)
        if min(counts) < 0 or max(counts) > unit:
            raise NonSimplexWeights(f"weights out of [0, 1]: {rational_text(self.weights)}")
        if (total := sum(counts)) != unit:
            total_text = rational_text(Fraction(total, unit))
            raise NonSimplexWeights(
                f"weights sum to {total_text}, not 1: {rational_text(self.weights)}"
            )
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "pure_action", counts.index(1) if unit == 1 else None)

    @classmethod
    def pure(cls, action: int, arity: int) -> "MixedAction":
        """The vertex of `action`, the table's object (`_vertex`) once both
        arguments are checked as ints; GridCapExceeded before any weight is
        built when the arity exceeds GRID_CAP, the actions of a d = 1 grid
        at its cap."""
        as_count(arity, "arity", None, ArityMismatch)
        if not 0 <= as_count(action, "action", None, ArityMismatch) < arity:
            raise ArityMismatch(
                f"action index {rational_text(action)} out of range for {rational_text(arity)}"
            )
        if arity > GRID_CAP:
            raise GridCapExceeded(
                f"a portfolio over {rational_text(arity)} actions exceeds cap {GRID_CAP}"
            )
        return _vertex(action, arity)


_vertices: dict[tuple[int, int], MixedAction] = {}
_vertex_weights = 0  # the weights the table holds, at most VERTEX_CAP
_vertex_lock = Lock()  # held while a vertex is added and its weights counted


def _vertex(action: int, n: int) -> MixedAction:
    """Action `action`'s pure strategy over n actions, two ints in range:
    the table's object, built on the first read and kept while the table
    has room for its n weights."""
    global _vertex_weights
    key = action, n
    vertex = _vertices.get(key)
    if vertex is None:
        vertex = MixedAction(tuple(ONE if i == action else ZERO for i in range(n)))
        with _vertex_lock:
            if key in _vertices:  # another thread added it first
                return _vertices[key]
            if _vertex_weights + n <= VERTEX_CAP:
                _vertices[key] = vertex
                _vertex_weights += n
    return vertex


@dataclass(frozen=True)
class Profile:
    """One `MixedAction` per player (player count >= 2), kept as a tuple."""

    strategies: tuple[MixedAction, ...]

    def __post_init__(self) -> None:
        strategies = tuple(
            instance_of(s, MixedAction, "a strategy")
            for s in items_of(self.strategies, "strategies")
        )
        object.__setattr__(self, "strategies", strategies)
        if len(strategies) < 2:
            raise ArityMismatch("a profile needs at least 2 players")

    @property
    def players(self) -> int:
        return len(self.strategies)

    @classmethod
    def pure(cls, actions: Sequence[int], arity: int) -> "Profile":
        return cls(tuple(MixedAction.pure(a, arity) for a in actions))

    def check_arity(self, market: Market) -> None:
        check_arity(self.strategies, instance_of(market, Market, "a market").n)


def check_arity(strategies: Iterable[MixedAction], n: int) -> None:
    """ArityMismatch unless every strategy is a `MixedAction` with one
    weight per action."""
    for s in strategies:
        if len(instance_of(s, MixedAction, "a strategy").weights) != n:
            raise ArityMismatch(f"strategy over {len(s.weights)} actions on a market with {n}")


# =====================================================================
# Construction and queries
# =====================================================================


def build_market(actions: Sequence[str], atoms: Iterable[tuple]) -> Market:
    """Build a validated market from (probability, outcomes) pairs.

    Probabilities and outcomes may be ints, Fractions, or exact strings;
    each atom's probability, then its outcomes, are read by
    `integer_ratio`, with the errors `as_rational` raises, and the market is
    checked on the view `ratios_over_lcm` writes them in: no `Fraction` is
    built for a string in canonical form.
    The labels and the atoms are each read as a list by `items_of`, so a
    string is refused rather than read one item per character, and so is a
    value that is not iterable; an atom that is not a pair is ArityMismatch.
    """
    labels = tuple(items_of(actions, "action labels"))
    probabilities, outcomes = [], []
    for i, atom in enumerate(items_of(atoms, "(probability, outcomes) pairs")):
        try:
            p, row = atom
        except (TypeError, ValueError) as exc:
            raise ArityMismatch(f"atom {i} is not a (probability, outcomes) pair: {exc}") from exc
        probabilities.append(integer_ratio(p))
        outcomes.append(integer_ratios(row))
    mass, (weights,) = ratios_over_lcm([probabilities])
    scale, values = ratios_over_lcm(outcomes)
    return Market(labels, IntegerView(scale, mass, weights, tuple(values)))


def expectation(market: Market, strategy: MixedAction) -> Fraction:
    """Expected value of a portfolio: its counts dotted with the expectation sums."""
    check_arity((strategy,), instance_of(market, Market, "a market").n)
    view = market.integer_view
    dot = sum(map(mul, strategy.counts, market.expectation_sums))
    return Fraction(dot, strategy.unit * view.mass * view.scale)


def two_bond_market() -> Market:
    """The two-bond motivating market.

    X1 is a safe bond returning 5% surely; X2 returns 5.1% with probability
    3/5 and 0% with probability 2/5 (gross values, so 21/20 and 1051/1000 or
    1).  X1 has the higher expectation, 21/20 vs 5153/5000.
    """
    return build_market(
        ("X1", "X2"),
        [
            ("3/5", ("21/20", "1051/1000")),
            ("2/5", ("21/20", "1")),
        ],
    )


def _power_exceeds(n: int, k: int, cap: int) -> str | None:
    """The shape "n^k" when n^k > cap, else None; every cap message names
    such a shape, and a huge count is never built."""
    # n >= 2 gives n^b > cap at b = the cap's bit length, so n^k exceeds the
    # cap exactly when n^min(k, b) does
    exceeds = n ** min(k, cap.bit_length()) > cap
    return f"{rational_text(n)}^{rational_text(k)}" if exceeds else None


def _multisets_exceed(n: int, size: int, cap: int) -> str | None:
    """The shape "C(size + n - 1, s)", s = min(size, n - 1), when that count
    of the multisets of `size` items out of n exceeds cap, else None.  The
    shape is written with n and size as given: their sum can be past the
    digit limit of int-to-str when neither is."""
    # C(m, s) with m = n + size - 1 is built up as C(m - s + j, j) for
    # j = 1..s; each step multiplies by (m - s + j) / j >= 2, since
    # m - s >= s, so the loop stops within cap.bit_length() steps
    m, s = n + size - 1, min(size, n - 1)
    count, j = 1, 0
    while count <= cap and j < s:
        j += 1
        count = count * (m - s + j) // j
    if count <= cap:
        return None
    return f"C({rational_text(size)} + {rational_text(n)} - 1, {rational_text(s)})"


# =====================================================================
# Serialization — markets and profiles travel as JSON with rational strings
# =====================================================================


def market_to_dict(market: Market) -> dict:
    """The market's document, written from its integer view: each distinct
    integer once, over its denominator by `format_ratio`, with no
    `Fraction`."""
    view = instance_of(market, Market, "a market").integer_view
    probability = {w: format_ratio(w, view.mass) for w in dict.fromkeys(view.weights)}
    values = dict.fromkeys(chain.from_iterable(view.values))
    outcome = {x: format_ratio(x, view.scale) for x in values}
    return {
        "actions": list(market.actions),
        "atoms": [
            {"p": probability[w], "outcomes": [outcome[x] for x in row]}
            for w, row in zip(view.weights, view.values)
        ],
    }


def market_from_dict(data: Mapping) -> Market:
    try:
        actions = data["actions"]
        atoms = [(atom["p"], atom["outcomes"]) for atom in items_of(data["atoms"], "atoms")]
        return build_market(actions, atoms)
    except BonusLabError:
        raise
    except (KeyError, TypeError) as exc:
        raise ArityMismatch(f"malformed market document: {exc}") from exc


def load_market(text: str) -> Market:
    return market_from_dict(load_json(text))


def profile_to_list(profile: Profile) -> list[list[str]]:
    strategies = instance_of(profile, Profile, "a profile").strategies
    return [[format_rational(w) for w in s.weights] for s in strategies]


def profile_from_list(rows: Sequence[Sequence]) -> Profile:
    if not isinstance(rows, Sequence) or isinstance(rows, (str, bytes)):
        raise NonSimplexWeights("profile document must be a list of weight vectors")
    strategies = []
    for row in rows:
        if not isinstance(row, Sequence) or isinstance(row, (str, bytes)):
            raise NonSimplexWeights(f"weight vector expected, got {input_text(row)}")
        strategies.append(MixedAction(row))
    return Profile(tuple(strategies))
