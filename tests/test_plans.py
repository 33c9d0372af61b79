"""Plan allocations: frozen values, the simplex contract, serialization."""

from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bonuslab import (
    ArityMismatch,
    BonusPlan,
    BoundedLinearPlan,
    ConstantPlan,
    InvalidParameter,
    LoserTakeAllPlan,
    MLinearPlan,
    NonSimplexTable,
    TabulatedPlan,
    WinnerTakeAllPlan,
    load_plan,
    plan_from_dict,
    plan_to_dict,
    validate_simplex,
    zero_sum_shares,
)
from bonuslab.plans import Kernel
from conftest import fraction_allocation

F = Fraction


def test_constant_splits_equally():
    assert ConstantPlan(3).evaluate(("5", "-1", "0")) == (F(1, 3),) * 3


def test_winner_take_all():
    plan = WinnerTakeAllPlan(3)
    assert plan.evaluate(("1", "3", "2")) == (0, 1, 0)
    # ties split the unit among the leaders
    assert plan.evaluate(("1", "3", "3")) == (0, F(1, 2), F(1, 2))
    assert plan.evaluate(("2", "2", "2")) == (F(1, 3),) * 3


def test_loser_take_all():
    plan = LoserTakeAllPlan(3)
    assert plan.evaluate(("1", "3", "2")) == (1, 0, 0)
    assert plan.evaluate(("1", "1", "2")) == (F(1, 2), F(1, 2), 0)


def test_m_linear_active_shares():
    # scale bound and interval from the two-bond market support
    plan = MLinearPlan(2, F(1051, 1000), F(1), F(1051, 1000))
    assert plan.evaluate(("1051/1000", "1")) == (F(2153, 4204), F(2051, 4204))
    assert plan.evaluate(("1", "1051/1000")) == (F(2051, 4204), F(2153, 4204))
    assert plan.evaluate(("1", "1")) == (F(1, 2), F(1, 2))


def test_m_linear_formula():
    plan = MLinearPlan(3, F(5), F(-5), F(5))
    r = (F(1), F(-2), F(4))
    shares = plan.evaluate(r)
    denominator = 2 * 3 * 2 * F(5)
    expected = tuple(F(1, 3) + (3 * v - sum(r)) / denominator for v in r)
    assert shares == expected
    assert sum(shares) == 1


def test_m_linear_is_equal_split_off_interval():
    plan = MLinearPlan(2, F(1051, 1000), F(1), F(1051, 1000))
    assert plan.evaluate(("2", "1")) == (F(1, 2), F(1, 2))
    assert plan.evaluate(("1", "1/2")) == (F(1, 2), F(1, 2))


def test_m_linear_rejects_wide_interval():
    # a wider interval than 2*bound could push a share below zero
    with pytest.raises(ValueError):
        MLinearPlan(2, F(1), F(0), F(5))
    with pytest.raises(ValueError):
        MLinearPlan(2, F(0), F(0), F(0))


def test_bounded_linear_keeps_in_range_shares():
    plan = BoundedLinearPlan(2, F(1, 20))
    assert plan.evaluate(("21/20", "21/20")) == (F(1, 2), F(1, 2))
    shares = plan.evaluate(("21/20", "103/100"))
    assert shares == (F(1, 2) + F(1, 50) / F(1, 5), F(1, 2) - F(1, 50) / F(1, 5))


def test_bounded_linear_fallback_is_vector_wide():
    plan = BoundedLinearPlan(3, F(1))
    # the leader's raw share would exceed 2/3, so everyone reverts to 1/3
    assert plan.evaluate(("10", "0", "0")) == (F(1, 3),) * 3
    assert sum(plan.evaluate(("10", "0", "0"))) == 1


def test_tabulated_lookup_and_fallback():
    plan = TabulatedPlan(
        2,
        {("0", "1"): ("1/4", "3/4")},
        ("1/2", "1/2"),
    )
    assert plan.evaluate(("0", "1")) == (F(1, 4), F(3, 4))
    assert plan.evaluate(("9", "9")) == (F(1, 2), F(1, 2))


def test_tabulated_rejects_off_simplex_rows():
    with pytest.raises(NonSimplexTable):
        TabulatedPlan(2, {("0", "0"): ("1/2", "1/4")}, ("1/2", "1/2"))
    with pytest.raises(NonSimplexTable):
        TabulatedPlan(2, {}, ("2", "-1"))


def test_evaluate_checks_arity():
    with pytest.raises(ArityMismatch):
        WinnerTakeAllPlan(2).evaluate(("1", "2", "3"))


def test_plans_need_two_players():
    with pytest.raises(ArityMismatch):
        ConstantPlan(1)


# ---------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------

results = st.fractions(min_value=-2, max_value=2, max_denominator=16)


def plans_for(k: int) -> list[BonusPlan]:
    zero = (F(0),) * k
    first = (F(1),) + (F(0),) * (k - 1)
    return [
        ConstantPlan(k),
        WinnerTakeAllPlan(k),
        LoserTakeAllPlan(k),
        MLinearPlan(k, F(2), F(-2), F(2)),
        BoundedLinearPlan(k, F(3, 2)),
        TabulatedPlan(k, {zero: first}, (F(1, k),) * k),
    ]


@given(st.lists(results, min_size=2, max_size=4))
def test_allocations_stay_on_simplex(r):
    for plan in plans_for(len(r)):
        shares = plan.evaluate(r)
        assert len(shares) == len(r)
        assert all(0 <= s <= 1 for s in shares)
        assert sum(shares) == 1


@st.composite
def scaled_vectors(draw):
    """A scale and integer results over it, dense around the plans' gates."""
    scale = draw(st.integers(1, 12))
    k = draw(st.integers(2, 4))
    v = draw(st.lists(st.integers(-3 * scale, 3 * scale), min_size=k, max_size=k))
    return scale, tuple(v)


@settings(max_examples=300)
@given(scaled_vectors())
def test_kernels_match_evaluate(case):
    """Each kind's integer kernel, and `evaluate` on it, is the reference
    Fraction allocation, exactly, gates included."""
    scale, v = case
    k = len(v)
    r = tuple(F(x, scale) for x in v)
    first, last = (F(1),) + (F(0),) * (k - 1), (F(0),) * (k - 1) + (F(1),)
    # off the scale's lattice unless v is 0, and with v's numerators at this scale
    decoy = tuple(F(x, 10007 * scale) for x in v)
    kinds = plans_for(k) + [
        MLinearPlan(k, F(1), F(-1, 3), F(5, 4)),  # an interval off the integer lattice
        BoundedLinearPlan(k, F(2, 7)),
        TabulatedPlan(k, {r: last, decoy: first}, (F(1, 2), F(1, 2)) + first[2:]),
    ]
    for plan in kinds:
        denominator, shares = plan.kernel(scale)
        got = list(shares(v))
        assert sum(got) == denominator
        expected = fraction_allocation(plan, r)
        assert tuple(F(x, denominator) for x in got) == expected
        assert plan.evaluate(r) == expected


@given(st.lists(results, min_size=2, max_size=4))
def test_zero_sum_shares_sum_to_zero(r):
    for plan in plans_for(len(r)):
        assert sum(zero_sum_shares(plan, r)) == 0


@st.composite
def vector_and_permutation(draw):
    r = draw(st.lists(results, min_size=2, max_size=4))
    sigma = draw(st.permutations(range(len(r))))
    return r, sigma


@given(vector_and_permutation())
def test_anonymous_plans_commute_with_permutations(case):
    """Relabeling players relabels the shares for the symmetric kinds."""
    r, sigma = case
    k = len(r)
    permuted = [r[sigma[i]] for i in range(k)]
    for plan in plans_for(k)[:5]:  # all but the tabulated plan
        shares = plan.evaluate(r)
        assert plan.evaluate(permuted) == tuple(shares[sigma[i]] for i in range(k))


@given(st.lists(results, min_size=2, max_size=4))
def test_bounded_linear_agrees_with_interval_gate(r):
    # with interval width <= 2*bound the interval gate implies the range gate
    k = len(r)
    gated = MLinearPlan(k, F(2), F(-2), F(2))
    free = BoundedLinearPlan(k, F(2))
    assert gated.evaluate(r) == free.evaluate(r)


# ---------------------------------------------------------------------
# validate_simplex and serialization
# ---------------------------------------------------------------------


def test_validate_simplex_passes_builtins():
    for plan in plans_for(2) + plans_for(3):
        report = validate_simplex(plan, count=200)
        assert report.ok, report.failure
        assert report.evaluations >= 200


def test_validate_simplex_refuses_an_inverted_range():
    with pytest.raises(InvalidParameter):
        validate_simplex(WinnerTakeAllPlan(2), lo=2, hi=-2)
    assert validate_simplex(WinnerTakeAllPlan(2), count=10, lo=1, hi=1).ok


def test_validate_simplex_on_a_thousand_point_table():
    """The table is compiled to integers once per plan, not once per evaluation:
    an O(table) build per call would make these 2 000 evaluations take seconds."""
    keys = [(F(i, 7), F(j, 5)) for i in range(-20, 20) for j in range(-12, 13)]
    rows = ((F(1, 4), F(3, 4)), (F(2, 3), F(1, 3)), (F(1), F(0)))
    plan = TabulatedPlan(2, {key: rows[n % 3] for n, key in enumerate(keys)}, (F(1, 2),) * 2)
    assert len(plan.points) == 1000
    report = validate_simplex(plan, count=1000)
    assert report.ok, report.failure
    assert report.evaluations == 2000
    for r in keys[::37] + [(F(1, 14), F(0)), (F(3), F(0)), (F(-2, 7), F(12, 5))]:
        assert plan.evaluate(r) == fraction_allocation(plan, r)


def test_table_keys_over_many_coprime_denominators():
    """Keys are looked up one reduced coordinate at a time: a table whose keys
    have a thousand coprime denominators needs no common denominator of them
    all, which would run to thousands of bits."""
    primes = [p for p in range(2, 8000) if all(p % d for d in range(2, int(p**0.5) + 1))]
    rows = ((F(1, 4), F(3, 4)), (F(2, 3), F(1, 3)))
    keys = [(F(1, p), F(-1, p)) for p in primes[:1000]]
    plan = TabulatedPlan(2, {key: rows[n % 2] for n, key in enumerate(keys)}, (F(1, 2),) * 2)
    assert validate_simplex(plan, count=1000).ok
    last = primes[999]
    denominator, shares = plan.kernel(6 * last)
    assert [Fraction(s, denominator) for s in shares((6, -6))] == list(rows[1])
    assert [Fraction(s, denominator) for s in shares((3 * last, -3 * last))] == list(rows[0])
    assert [Fraction(s, denominator) for s in shares((6, -7))] == [F(1, 2)] * 2
    for p, key in zip(primes, keys):
        assert plan.evaluate(key) == fraction_allocation(plan, key)
        assert plan.evaluate((F(2, p), F(-1, p))) == (F(1, 2),) * 2


@dataclass(frozen=True)
class _LeakyPlan(BonusPlan):
    kind = "leaky"

    def kernel(self, scale):
        return Kernel(1, lambda v: (2, -1))


def test_validate_simplex_reports_first_failure():
    report = validate_simplex(_LeakyPlan(2), count=50)
    assert not report.ok
    r, shares, reason = report.failure
    assert shares == (F(2), F(-1))
    assert "outside" in reason


def test_plan_serialization_round_trips():
    for plan in plans_for(2) + plans_for(3):
        again = plan_from_dict(plan_to_dict(plan))
        assert again == plan
        assert again.kind == plan.kind


def test_plan_dict_shapes():
    # exact key order: documents are hashed byte for byte downstream
    shapes = [
        (ConstantPlan(3), [("players", 3), ("kind", "constant")]),
        (WinnerTakeAllPlan(2), [("players", 2), ("kind", "wta")]),
        (LoserTakeAllPlan(4), [("players", 4), ("kind", "lta")]),
        (
            MLinearPlan(2, F(1051, 1000), F(1), F(1051, 1000)),
            [
                ("players", 2),
                ("kind", "m_linear"),
                ("bound", "1051/1000"),
                ("interval", ["1", "1051/1000"]),
            ],
        ),
        (
            BoundedLinearPlan(2, F(1, 20)),
            [("players", 2), ("kind", "bounded_linear"), ("bound", "1/20")],
        ),
        (
            TabulatedPlan(2, {("0", "1"): ("1/4", "3/4")}, ("1/2", "1/2")),
            [
                ("players", 2),
                ("kind", "tabulated"),
                ("points", [{"r": ["0", "1"], "shares": ["1/4", "3/4"]}]),
                ("fallback", ["1/2", "1/2"]),
            ],
        ),
    ]
    for plan, items in shapes:
        assert list(plan_to_dict(plan).items()) == items


def test_unknown_plan_kind_rejected():
    with pytest.raises(ArityMismatch):
        load_plan('{"kind": "mystery", "players": 2}')

