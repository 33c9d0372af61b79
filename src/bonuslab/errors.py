"""Exception types raised by bonuslab.

Every error below derives from BonusLabError so callers (and the CLI) can
catch model/validation failures in one place while letting genuine
programming errors propagate.  An exponent or a JSON integer past the
int-to-str digit limit is refused where it is read (UnparsableNumber), and
a report number past it where the report would write it (UnwritableNumber);
a message writes such a number by its sign and the limit.
"""


class BonusLabError(Exception):
    """Base class for all bonuslab validation and search failures."""


class UnparsableNumber(BonusLabError):
    """A string could not be read as an exact rational."""


class UnwritableNumber(BonusLabError):
    """A report number is too long to write exactly: past sys.get_int_max_str_digits()."""


class FloatRejected(BonusLabError, TypeError):
    """A float, or another value that is not an exact rational, was given as a number."""


class InvalidParameter(BonusLabError, ValueError):
    """A parameter lies outside its domain: a scale bound, an earnings weight, a grid."""


class NonUnitMass(BonusLabError):
    """The atoms' probabilities do not sum to exactly 1."""


class NonPositiveProbability(BonusLabError):
    """An atom was given probability <= 0."""


class ArityMismatch(BonusLabError):
    """A vector's length disagrees with the expected number of actions or players."""


class NonSimplexWeights(BonusLabError):
    """Mixed-action weights are negative or do not sum to exactly 1."""


class AtomCapExceeded(BonusLabError):
    """A product market would have more atoms than counterexamples.ATOM_CAP."""


class NonSimplexTable(BonusLabError):
    """A tabulated plan entry is not a valid allocation (negative or sum != 1),
    or the table lists one result vector twice."""


class TensorCapExceeded(BonusLabError):
    """A full payoff tensor, the best-expectation profiles that check_optimal
    scans, or the cells a strict-dominance relation may read would number
    more than game.TENSOR_CAP."""


class GridCapExceeded(BonusLabError):
    """A simplex grid, a probe grid, or the pairs or base points probed on it
    would number more than the cap allows, a simplex grid would yield more
    than game.GRID_WEIGHT_CAP weights, or a pure portfolio would span more
    than market.GRID_CAP actions; the message names their shape."""


class DegenerateSupport(BonusLabError):
    """Every outcome in the market is zero, so no scale for a linear plan exists."""


class ExpectationNotUnique(BonusLabError):
    """Two or more actions tie for the maximal expectation where a unique one is required."""


class StaleViolation(BonusLabError):
    """A recorded plan violation no longer holds when re-evaluated against the plan."""


class SearchExhausted(BonusLabError):
    """A coordinate increase builder's schedule ran ESCALATIONS steps in vain."""
