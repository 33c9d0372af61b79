"""Exact-arithmetic toolkit for bonus plans over finite markets.

Markets are finite probability spaces whose actions are rational-valued
random variables; plans split a unit bonus pool by realized results.  The
package induces the resulting allocation games, verifies equilibria and
optimality exactly, constructs linear plans that make every
best-expectation profile an equilibrium, and builds counterexample markets
for plans that violate the monotonicity such plans require.
"""

from .construct import (
    BoundSearchResult,
    GridWitness,
    build_bounded_linear,
    build_m_linear,
    find_bounding_m,
)
from .counterexamples import (
    Counterexample,
    CoordinateViolation,
    Direction,
    PairViolation,
    UniversalityReport,
    coordinate_decrease_counterexample,
    coordinate_increase_counterexample,
    four_point_shares_equal,
    pair_decrease_counterexample,
    pair_increase_counterexample,
    probe_own_coordinate,
    probe_pairs,
    universality_verdict,
    validate_counterexample,
)
from .errors import (
    ArityMismatch,
    AtomCapExceeded,
    BonusLabError,
    DegenerateSupport,
    ExpectationNotUnique,
    FloatRejected,
    GridCapExceeded,
    InvalidParameter,
    NonPositiveProbability,
    NonSimplexTable,
    NonSimplexWeights,
    NonUnitMass,
    SearchExhausted,
    StaleViolation,
    TensorCapExceeded,
    UnparsableNumber,
    UnwritableNumber,
)
from .game import (
    BestResponse,
    DominanceReport,
    EquilibriumReport,
    Game,
    OptimalityReport,
    OptimalityVerdict,
    Verdict,
    best_response,
    check_nash,
    check_optimal,
    expected_payoffs,
    induce_game,
    principal_value,
    simplex_grid,
    strict_dominance,
)
from .market import (
    Market,
    MixedAction,
    Profile,
    build_market,
    expectation,
    load_market,
    market_from_dict,
    market_to_dict,
    profile_from_list,
    profile_to_list,
    two_bond_market,
)
from .plans import (
    BonusPlan,
    BoundedLinearPlan,
    ConstantPlan,
    LoserTakeAllPlan,
    MLinearPlan,
    SimplexReport,
    TabulatedPlan,
    WinnerTakeAllPlan,
    load_plan,
    plan_from_dict,
    plan_to_dict,
    validate_simplex,
    zero_sum_shares,
)
from .rational import as_rational, format_rational

__version__ = "0.1.0"
