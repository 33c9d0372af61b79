"""Finite markets of stochastic actions.

A market is a finite probability space together with n actions; each atom
carries a probability and one exact outcome per action.  Actions are random
variables on the *shared* space: two players who choose the same action
realize identical outcomes, and a mixed action is a portfolio — its realized
value at an atom is the weighted sum of the pure outcomes there, not a
lottery over pure plays.

All numbers are fractions.Fraction; see rational.as_rational for what
parses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    ArityMismatch,
    AtomCapExceeded,
    BonusLabError,
    IncompleteMapping,
    NonPositiveProbability,
    NonSimplexWeights,
    NonUnitMass,
)
from .rational import as_rational, format_rational, rationals

DEFAULT_ATOM_CAP = 100_000

ZERO = Fraction(0)
ONE = Fraction(1)


# =====================================================================
# Core types
# =====================================================================


@dataclass(frozen=True)
class Atom:
    """One point of the probability space: its mass and one outcome per action."""

    probability: Fraction
    outcomes: tuple[Fraction, ...]


@dataclass(frozen=True)
class Market:
    """Immutable finite market.  Validated on construction.

    Attributes:
        actions: distinct labels, one per action.
        atoms: the probability space; probabilities are positive and sum to 1,
            and every atom has one outcome per action.
    """

    actions: tuple[str, ...]
    atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        if not self.actions:
            raise ArityMismatch("market needs at least one action")
        if len(set(self.actions)) != len(self.actions):
            raise ArityMismatch(f"duplicate action labels in {self.actions}")
        if not self.atoms:
            raise NonUnitMass("market needs at least one atom")
        n = len(self.actions)
        total = ZERO
        for atom in self.atoms:
            if atom.probability <= 0:
                raise NonPositiveProbability(
                    f"atom probability {atom.probability} is not positive"
                )
            if len(atom.outcomes) != n:
                raise ArityMismatch(
                    f"atom has {len(atom.outcomes)} outcomes, expected {n}"
                )
            total += atom.probability
        if total != 1:
            raise NonUnitMass(f"atom probabilities sum to {total}, not 1")

    @property
    def n(self) -> int:
        return len(self.actions)

    def expectation_of(self, action: int) -> Fraction:
        return sum(
            (a.probability * a.outcomes[action] for a in self.atoms), start=ZERO
        )

    def expectations(self) -> tuple[Fraction, ...]:
        return tuple(self.expectation_of(i) for i in range(self.n))


@dataclass(frozen=True)
class MixedAction:
    """A portfolio over the market's actions: simplex weights, exact."""

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", rationals(self.weights))
        if not self.weights:
            raise NonSimplexWeights("empty weight vector")
        if any(w < 0 or w > 1 for w in self.weights):
            raise NonSimplexWeights(f"weights out of [0, 1]: {self.weights}")
        if sum(self.weights) != 1:
            raise NonSimplexWeights(
                f"weights sum to {sum(self.weights)}, not 1: {self.weights}"
            )

    @classmethod
    def pure(cls, action: int, arity: int) -> "MixedAction":
        if not 0 <= action < arity:
            raise ArityMismatch(f"action index {action} out of range for {arity}")
        return cls(tuple(ONE if i == action else ZERO for i in range(arity)))

    @property
    def pure_action(self) -> int | None:
        """The action index if this is a vertex of the simplex, else None."""
        for i, w in enumerate(self.weights):
            if w == 1:
                return i
        return None

    def value_at(self, atom: Atom) -> Fraction:
        """Realized portfolio value at one atom: sum_i w_i * outcome_i."""
        return sum(
            (w * x for w, x in zip(self.weights, atom.outcomes) if w), start=ZERO
        )


@dataclass(frozen=True)
class Profile:
    """One mixed action per player (player count >= 2)."""

    strategies: tuple[MixedAction, ...]

    def __post_init__(self) -> None:
        if len(self.strategies) < 2:
            raise ArityMismatch("a profile needs at least 2 players")

    @property
    def players(self) -> int:
        return len(self.strategies)

    @classmethod
    def pure(cls, actions: Sequence[int], arity: int) -> "Profile":
        return cls(tuple(MixedAction.pure(a, arity) for a in actions))

    def check_arity(self, market: Market) -> None:
        for s in self.strategies:
            if len(s.weights) != market.n:
                raise ArityMismatch(
                    f"strategy over {len(s.weights)} actions on a market with {market.n}"
                )


@dataclass(frozen=True)
class SupportStats:
    """Summary of a market's outcome values.

    values: every outcome value that occurs, sorted ascending.
    lo/hi: the support interval endpoints.
    max_abs: the largest magnitude, i.e. max(|lo|, |hi|).
    """

    values: tuple[Fraction, ...]
    lo: Fraction
    hi: Fraction
    max_abs: Fraction


# =====================================================================
# Construction and queries
# =====================================================================


def build_market(actions: Sequence[str], atoms: Iterable[tuple]) -> Market:
    """Build a validated market from (probability, outcomes) pairs.

    Probabilities and outcomes may be ints, Fractions, or exact strings.
    """
    built = tuple(
        Atom(as_rational(p), rationals(outcomes)) for p, outcomes in atoms
    )
    return Market(tuple(actions), built)


def expectation(market: Market, strategy: MixedAction) -> Fraction:
    """Expected value of a portfolio over the market."""
    if len(strategy.weights) != market.n:
        raise ArityMismatch(
            f"strategy over {len(strategy.weights)} actions on a market with {market.n}"
        )
    return sum(
        (a.probability * strategy.value_at(a) for a in market.atoms), start=ZERO
    )


def support_stats(market: Market) -> SupportStats:
    """Distinct outcome values, support interval, and max magnitude."""
    values = sorted({x for a in market.atoms for x in a.outcomes})
    lo, hi = values[0], values[-1]
    return SupportStats(tuple(values), lo, hi, max(abs(lo), abs(hi)))


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


def product_market(
    marginal: Iterable[tuple],
    copies: int,
    extra_actions: Sequence[tuple[str, "Mapping | Callable"]] = (),
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> Market:
    """Market of `copies` i.i.d. draws from a marginal, one action per copy.

    marginal: (value, probability) pairs; duplicate values merge their mass.
    extra_actions: (label, rule) pairs, where rule maps each outcome tuple
        (one value per copy) to the extra action's outcome there.  A rule is
        a callable or a mapping keyed by tuples; a missing tuple raises
        IncompleteMapping.

    The atoms are all value tuples in support^copies with product
    probabilities; coordinate action j realizes component j.
    """
    if copies < 1:
        raise ArityMismatch("need at least one copy")
    merged: dict[Fraction, Fraction] = {}
    for value, prob in marginal:
        v, p = as_rational(value), as_rational(prob)
        if p <= 0:
            raise NonPositiveProbability(f"marginal probability {p} is not positive")
        merged[v] = merged.get(v, ZERO) + p
    if sum(merged.values()) != 1:
        raise NonUnitMass(
            f"marginal probabilities sum to {sum(merged.values())}, not 1"
        )
    support = sorted(merged)
    count = len(support) ** copies
    if count > atom_cap:
        raise AtomCapExceeded(
            f"{len(support)}^{copies} = {count} atoms exceeds cap {atom_cap}"
        )

    rules = [(label, _total_rule(label, rule)) for label, rule in extra_actions]
    labels = tuple(f"X{j + 1}" for j in range(copies)) + tuple(l for l, _ in rules)
    atoms = []
    for combo in product(support, repeat=copies):
        prob = ONE
        for v in combo:
            prob *= merged[v]
        extras = tuple(rule(combo) for _, rule in rules)
        atoms.append(Atom(prob, tuple(combo) + extras))
    return Market(labels, tuple(atoms))


def _total_rule(label: str, rule) -> Callable:
    """Wrap a mapping/callable so gaps surface as IncompleteMapping."""

    def lookup(combo: tuple) -> Fraction:
        if callable(rule):
            try:
                value = rule(combo)
            except KeyError as exc:
                raise IncompleteMapping(
                    f"extra action {label!r} has no value at {combo}"
                ) from exc
        else:
            value = rule.get(combo)
        if value is None:
            raise IncompleteMapping(f"extra action {label!r} has no value at {combo}")
        return as_rational(value)

    return lookup


# =====================================================================
# Serialization — markets and profiles travel as JSON with rational strings
# =====================================================================


def market_to_dict(market: Market) -> dict:
    return {
        "actions": list(market.actions),
        "atoms": [
            {
                "p": format_rational(a.probability),
                "outcomes": [format_rational(x) for x in a.outcomes],
            }
            for a in market.atoms
        ],
    }


def market_from_dict(data: Mapping) -> Market:
    try:
        actions = data["actions"]
        atoms = [(atom["p"], atom["outcomes"]) for atom in data["atoms"]]
        return build_market(actions, atoms)
    except BonusLabError:
        raise
    except (KeyError, TypeError) as exc:
        raise ArityMismatch(f"malformed market document: {exc}") from exc


def dump_market(market: Market) -> str:
    return json.dumps(market_to_dict(market), indent=2)


def load_market(text: str) -> Market:
    return market_from_dict(json.loads(text))


def profile_to_list(profile: Profile) -> list[list[str]]:
    return [[format_rational(w) for w in s.weights] for s in profile.strategies]


def profile_from_list(rows: Sequence[Sequence]) -> Profile:
    if not isinstance(rows, Sequence) or isinstance(rows, (str, bytes)):
        raise NonSimplexWeights("profile document must be a list of weight vectors")
    strategies = []
    for row in rows:
        if not isinstance(row, Sequence) or isinstance(row, (str, bytes)):
            raise NonSimplexWeights(f"weight vector expected, got {row!r}")
        strategies.append(MixedAction(rationals(row)))
    return Profile(tuple(strategies))
