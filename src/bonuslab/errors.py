"""Exception types raised by bonuslab.

Every error below derives from BonusLabError so callers (and the CLI) can
catch model/validation failures in one place while letting genuine
programming errors propagate.
"""


class BonusLabError(Exception):
    """Base class for all bonuslab validation and search failures."""


class UnparsableNumber(BonusLabError):
    """A string could not be read as an exact rational."""


class FloatRejected(BonusLabError, TypeError):
    """A float, or another value that is not an exact rational, was given as a number."""


class InvalidParameter(BonusLabError, ValueError):
    """A parameter lies outside its domain: a scale bound, an earnings weight, a grid."""


class NonUnitMass(BonusLabError):
    """Atom probabilities do not sum to exactly 1."""


class NonPositiveProbability(BonusLabError):
    """An atom was given probability <= 0."""


class ArityMismatch(BonusLabError):
    """A vector's length disagrees with the expected number of actions or players."""


class NonSimplexWeights(BonusLabError):
    """Mixed-action weights are negative or do not sum to exactly 1."""


class AtomCapExceeded(BonusLabError):
    """A market construction would create more atoms than the configured cap."""


class IncompleteMapping(BonusLabError):
    """An extra action in a product market has no value for some outcome tuple."""


class NonSimplexTable(BonusLabError):
    """A tabulated plan entry is not a valid allocation (negative or sum != 1)."""


class TensorCapExceeded(BonusLabError):
    """Inducing a game would create more pure profiles than the configured cap."""


class DegenerateSupport(BonusLabError):
    """Every outcome in the market is zero, so no scale for a linear plan exists."""


class ExpectationNotUnique(BonusLabError):
    """Two or more actions tie for the maximal expectation where a unique one is required."""


class StaleViolation(BonusLabError):
    """A recorded plan violation no longer holds when re-evaluated against the plan."""


class SearchExhausted(BonusLabError):
    """An escalation schedule hit its iteration cap before meeting its target."""
