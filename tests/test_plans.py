"""Plan allocations: frozen values, the simplex contract, serialization."""

import inspect
import math
import random
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bonuslab import (
    ArityMismatch,
    BonusPlan,
    BoundedLinearPlan,
    ConstantPlan,
    FloatRejected,
    InvalidParameter,
    LoserTakeAllPlan,
    MLinearPlan,
    NonSimplexTable,
    TabulatedPlan,
    UnparsableNumber,
    WinnerTakeAllPlan,
    build_market,
    induce_game,
    load_plan,
    plan_from_dict,
    plan_to_dict,
    validate_simplex,
    zero_sum_shares,
)
from bonuslab.plans import PLAYER_CAP, SAMPLE_CAP, Kernel, _random_rational
from conftest import (
    every_kind,
    fraction_allocation,
    fraction_atoms,
    markets,
    plans_with_a_form,
    random_market,
    tied_markets,
)

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


def test_linear_plans_probe_their_corners_up_to_ten_players():
    """10 players probe all 1 024 vectors in {lo, hi}^10; 11 probe none."""
    for plan, corner in (
        (MLinearPlan(10, F(1), F(0), F(1)), (F(0), F(1))),
        (BoundedLinearPlan(10, F(1, 2)), (F(-1, 2), F(1, 2))),
    ):
        probes = list(plan._probes())
        assert len(probes) == 1024
        assert set(probes) == set(product(corner, repeat=10))
    assert list(MLinearPlan(11, F(1), F(0), F(1))._probes()) == []
    assert list(BoundedLinearPlan(11, F(1, 2))._probes()) == []


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


def test_a_table_that_is_not_a_mapping_is_refused():
    """A table given as a number or as a list of pairs ends in
    ArityMismatch, not in a bare AttributeError on `.items`."""
    refused = "expected a mapping of result vectors to shares, got "
    with pytest.raises(ArityMismatch, match=refused + "5"):
        TabulatedPlan(2, 5, ("1/2", "1/2"))
    pairs = [(("0", "1"), ("1/4", "3/4"))]
    with pytest.raises(ArityMismatch, match=re.escape(refused + repr(pairs))):
        TabulatedPlan(2, pairs, ("1/2", "1/2"))


def test_tabulated_lists_each_result_vector_once():
    """Two rows for one vector, written two ways, are refused: none may
    silently overwrite the other."""
    with pytest.raises(NonSimplexTable, match=r"\(1/2, 0\) is listed"):
        TabulatedPlan(2, {("1/2", "0"): ("1", "0"), (F(1, 2), 0): ("0", "1")}, ("1/2", "1/2"))
    document = {
        "players": 2,
        "kind": "tabulated",
        "points": [{"r": ["1/2", "0"], "shares": ["1", "0"]},
                   {"r": ["0.5", "0"], "shares": ["0", "1"]}],
        "fallback": ["1/2", "1/2"],
    }
    with pytest.raises(NonSimplexTable, match="listed more than once"):
        plan_from_dict(document)


def test_a_plan_has_three_public_methods():
    """`evaluate`, `kernel` and `linear_form` are the only public methods of
    `BonusPlan` and its six kinds, each checking its arguments; every hook
    a kind overrides is private."""
    kinds = (ConstantPlan, WinnerTakeAllPlan, LoserTakeAllPlan, MLinearPlan,
             BoundedLinearPlan, TabulatedPlan)
    for cls in (BonusPlan, *kinds):
        public = {name for name, _ in inspect.getmembers(cls, inspect.isroutine)
                  if not name.startswith("_")}
        assert public == {"evaluate", "kernel", "linear_form"}, cls


def test_evaluate_checks_arity():
    with pytest.raises(ArityMismatch):
        WinnerTakeAllPlan(2).evaluate(("1", "2", "3"))


def test_plans_need_two_players():
    with pytest.raises(ArityMismatch):
        ConstantPlan(1)


def test_player_counts_are_ints():
    """Every constructor, and so every document, refuses a float count with
    FloatRejected and any other non-int, a bool included, with ArityMismatch.
    tests/test_public_ints.py sweeps 2.5, True, "2" and Fraction(2) over
    every constructor and over build_m_linear."""
    for players, error in ((2.0, FloatRejected), ("3", ArityMismatch), (None, ArityMismatch)):
        with pytest.raises(error):
            WinnerTakeAllPlan(players)
        with pytest.raises(error):
            MLinearPlan(players, F(2), F(-2), F(2))
        with pytest.raises(error):
            TabulatedPlan(players, {}, (F(1, 2), F(1, 2)))
    for players, error in ((2.5, FloatRejected), (2.0, FloatRejected), ("3", ArityMismatch),
                           (True, ArityMismatch), (None, ArityMismatch)):
        with pytest.raises(error):
            plan_from_dict({"players": players, "kind": "bounded_linear", "bound": "1"})


def test_player_count_is_capped_in_the_constructor():
    """PLAYER_CAP players pass for every kind and one more is ArityMismatch,
    from a constructor or a document, before any kernel is built."""
    for players in (PLAYER_CAP, PLAYER_CAP + 1):
        fallback = (F(1),) + (F(0),) * (players - 1)
        calls = [
            lambda: ConstantPlan(players),
            lambda: WinnerTakeAllPlan(players),
            lambda: LoserTakeAllPlan(players),
            lambda: MLinearPlan(players, F(1), F(0), F(1)),
            lambda: BoundedLinearPlan(players, F(1)),
            lambda: TabulatedPlan(players, {}, fallback),
            lambda: plan_from_dict({"players": players, "kind": "wta"}),
        ]
        for call in calls:
            if players == PLAYER_CAP:
                assert call().players == PLAYER_CAP
            else:
                with pytest.raises(ArityMismatch, match=f"^{players} players exceed cap"
                                   f" {PLAYER_CAP}$"):
                    call()


def test_linear_parameters_are_exact():
    """Bounds and interval ends go through as_rational: a float is refused
    where evaluate would end in an AttributeError, a bool is refused, and an
    exact string parses."""
    for bad, error in ((0.1, FloatRejected), (True, FloatRejected), (None, FloatRejected),
                       ("x", UnparsableNumber)):
        with pytest.raises(error):
            BoundedLinearPlan(2, bad)
        with pytest.raises(error):
            MLinearPlan(2, bad, F(0), F(1))
        with pytest.raises(error):
            MLinearPlan(2, F(2), bad, F(1))
        with pytest.raises(error):
            MLinearPlan(2, F(2), F(0), bad)
    assert BoundedLinearPlan(2, "1/10") == BoundedLinearPlan(2, F(1, 10))
    assert MLinearPlan(2, "2", 0, "1") == MLinearPlan(2, F(2), F(0), F(1))
    assert BoundedLinearPlan(2, "1/10").evaluate(("0", "1/10")) == (F(1, 4), F(3, 4))


def test_validate_simplex_sample_counts_are_ints():
    # 2.5, True, "2" and Fraction(2): tests/test_public_ints.py
    for count, error in ((2.0, FloatRejected), (None, InvalidParameter)):
        with pytest.raises(error):
            validate_simplex(WinnerTakeAllPlan(2), count)


def test_validate_simplex_caps_its_sampled_coordinates():
    """count * players coordinates up to SAMPLE_CAP are sampled; past it the
    call is InvalidParameter, naming the shape, before any sample.  A plan
    that fails its first vector shows that the cap let the call through."""
    count = SAMPLE_CAP // 4
    assert validate_simplex(_LeakyPlan(4), count=count).failure[2] == "wrong arity"
    plan = WinnerTakeAllPlan(4)
    for count, text in ((count + 1, f"{count + 1}"), (10**9, "1000000000"),
                        (10**5000, "an int of over")):
        start = time.perf_counter()
        with pytest.raises(InvalidParameter, match=f"^{text}.* samples x 4 players exceed cap"
                           f" {SAMPLE_CAP} sampled coordinates$"):
            validate_simplex(plan, count=count)
        assert time.perf_counter() - start < 1


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


@settings(max_examples=40, deadline=None)
@given(markets(max_actions=4) | tied_markets(), st.integers(2, 5))
def test_linear_forms_match_the_kernel_where_the_gate_is_open(market, k):
    """A form a kind states on a market is its kernel's shares at every atom
    of every pure profile there, and its kernel's denominator is k * equal.
    wta, lta and tabulated state none.  A linear kind states none only where
    its gate closes: on a market where no atom gives every action the same
    value, some pure row then leaves the pair its kernel is built from."""
    view = market.integer_view
    rows = {
        tuple(map(values.__getitem__, combo))
        for values in view.values
        for combo in product(range(market.n), repeat=k)
    }
    level_atom = any(len(set(values)) == 1 for values in view.values)
    for plan in every_kind(market, k) + plans_with_a_form(market, k):
        form = plan.linear_form(market)
        if plan.kind in ("wta", "lta", "tabulated"):
            assert form is None
            continue
        equal, slope = form if form is not None else plan._scaled_form(view.scale)
        kernel = plan.kernel(view.scale)
        assert kernel.denominator == k * equal
        leaves = [
            v for v in rows
            if list(kernel.shares(v)) != [equal + slope * (k * x - sum(v)) for x in v]
        ]
        if form is not None:
            assert leaves == []
        elif not level_atom:
            assert leaves


def test_responses_match_the_kernel():
    """The default `_run_sums` scores each point of a run by the kernel: for
    every kind, over a run of one atom whose player's result steps by one,
    each B(c) is the atom's weight times the player's entry of the kernel's
    shares there, the other players' results in place.  The cases: random
    opponents, opponents tied at their top and at their bottom, results
    that tie them, a tabulated row hit, and the linear gates both open and
    closed."""
    rng = random.Random(18)
    gates = {"m_linear": set(), "bounded_linear": set()}  # seen open, closed
    table_hits = 0
    wide_ties = set()  # split kinds seen tied three or more ways at their pick
    for _ in range(300):
        k, scale = rng.randint(2, 7), rng.randint(1, 12)
        player = rng.randrange(k)
        spread = rng.choice((1, 3))  # narrow draws tie often and open the gates
        others = [rng.randint(-spread * scale, spread * scale) for _ in range(k - 1)]
        shape = rng.choice(("free", "top", "bottom"))
        if shape != "free":
            level = max(others) if shape == "top" else min(others)
            for i in rng.sample(range(k - 1), rng.randint(1, k - 1)):
                others[i] = level
        others = tuple(others)
        xs = {*others, *(o + 1 for o in others), *(o - 1 for o in others), 0, 4 * scale}
        xs.add(rng.randint(-4 * scale, 4 * scale))
        first, left = min(xs), max(xs) - min(xs)  # the run passes every result in xs
        weight = rng.randint(1, 9)
        # the table holds the vector where the player ties the first opponent
        row = others[:player] + (others[0],) + others[player:]
        last = (F(0),) * (k - 1) + (F(1),)
        kinds = plans_for(k) + [
            MLinearPlan(k, F(1), F(-1, 3), F(5, 4)),
            BoundedLinearPlan(k, F(2, 7)),
            TabulatedPlan(k, {tuple(F(x, scale) for x in row): last}, (F(1, k),) * k),
        ]
        for plan in kinds:
            kernel = plan.kernel(scale)
            sums = BonusPlan._run_sums(plan, kernel, player, [others], [weight])
            got = sums([first], [1], left)
            assert len(got) == left + 1
            equal = [kernel.denominator // k] * k
            for c, bonus in enumerate(got):
                v = others[:player] + (first + c,) + others[player:]
                shares = list(kernel.shares(v))
                assert bonus == weight * shares[player], (plan, player, v)
                if plan.kind in ("wta", "lta") and 0 < shares[player] < kernel.denominator // 2:
                    wide_ties.add(plan.kind)
                if plan.kind in gates and len(set(v)) > 1:
                    # unequal results: the linear form is not the equal split
                    gates[plan.kind].add(shares != equal)
                table_hits += plan.kind == "tabulated" and v == row
    assert gates == {"m_linear": {True, False}, "bounded_linear": {True, False}}
    assert table_hits
    assert wide_ties == {"wta", "lta"}


@pytest.mark.parametrize("kind", [WinnerTakeAllPlan, LoserTakeAllPlan], ids=["wta", "lta"])
def test_split_run_sums_match_the_response_default(kind):
    """The split kinds' closed-form `_run_sums` gives what the default gives,
    the player's kernel entry summed at every atom of every point of the
    run: random rows at k = 2-7, with crossings exactly at an
    integer c inside the run, at c = 0, at c = left and past the run,
    crossings between two points, zero and negative steps, and opponents
    tied at the pick.  Each row's first and step end in one more entry, as
    a scan's expectation row does, which neither form reads."""
    rng = random.Random(52)
    seen = set()
    for _ in range(600):
        k = rng.randint(2, 7)
        plan, scale, left = kind(k), rng.randint(1, 6), rng.randint(0, 9)
        kernel, player = plan.kernel(scale), rng.randrange(k)
        others, first, step = [], [], []
        for _ in range(rng.randint(1, 6)):
            rest = [rng.randint(-20, 20) for _ in range(k - 1)]
            if k > 2 and rng.random() < 0.4:  # two or more opponents tied at the pick
                best = plan._pick(rest)
                for i in rng.sample(range(k - 1), rng.randint(1, k - 1)):
                    rest[i] = best
            best = plan._pick(rest)
            s = rng.choice((0, rng.randint(-6, -1), rng.randint(1, 6)))
            shape = rng.choice(("free", "inside", "first", "last", "past", "before"))
            if shape == "free":
                x = rng.randint(-60, 60)
            else:
                c = {
                    "inside": rng.randint(0, left),
                    "first": 0,
                    "last": left,
                    "past": left + rng.randint(1, 3),
                    "before": -rng.randint(1, 3),
                }[shape]
                x = best - c * s  # the result meets best at that c
                if s:
                    seen.add(shape)
            others.append(tuple(rest))
            first.append(x)
            step.append(s)
            seen.add("falling" if s < 0 else "rising" if s else "still")
            if rest.count(best) > 1:
                seen.add("tied")
        weights = [rng.randint(1, 9) for _ in others]
        first.append(rng.randint(-9, 9))
        step.append(rng.randint(-9, 9))
        got = plan._run_sums(kernel, player, others, weights)(first, step, left)
        want = BonusPlan._run_sums(plan, kernel, player, others, weights)(first, step, left)
        assert got == want, (k, player, others, weights, first, step, left)
        assert len(got) == left + 1
    assert seen == {
        "inside", "first", "last", "past", "before", "falling", "rising", "still", "tied"
    }


@dataclass(frozen=True)
class _FirstLeaderPlan(BonusPlan):
    """A kind that states only its kernel, so `_share_sums` runs the default:
    everything to the first player of largest result."""

    kind = "first-leader"

    def _kernel(self, scale):
        def shares(v):
            first = v.index(max(v))
            return [self.players if i == first else 0 for i in range(len(v))]

        return Kernel(self.players, shares)


@st.composite
def share_rows(draw):
    """k, a scale, result rows over it and weights >= 1, one per row: rows
    tied at every player, two-way at the top, two-way at the bottom, and
    free ones, negative results among them."""
    k = draw(st.integers(2, 7))
    scale = draw(st.integers(1, 6))
    rows = []
    shapes = ("free", "level", "top", "bottom")
    for shape in draw(st.lists(st.sampled_from(shapes), min_size=1, max_size=6)):
        v = draw(st.lists(st.integers(-3 * scale, 3 * scale), min_size=k, max_size=k))
        if shape == "level":
            v = [v[0]] * k
        elif shape != "free":
            i, j = draw(st.permutations(range(k)))[:2]
            v[i] = v[j] = max(v) if shape == "top" else min(v)
        rows.append(tuple(v))
    weights = draw(st.lists(st.integers(1, 50), min_size=len(rows), max_size=len(rows)))
    return k, scale, rows, weights


@settings(max_examples=300)
@given(share_rows())
def test_share_sums_match_the_kernel(case):
    """Each kind's `_share_sums` is its kernel's shares summed against the
    weights row by row: the one-pass wta and lta sums, and the default for
    every other kind and for a kind that states only its kernel."""
    k, scale, rows, weights = case
    for plan in plans_for(k) + [_FirstLeaderPlan(k)]:
        kernel = plan.kernel(scale)
        expected = [0] * k
        for v, p in zip(rows, weights):
            for i, share in enumerate(kernel.shares(v)):
                expected[i] += p * share
        assert list(plan._share_sums(kernel, rows, weights)) == expected, plan


@pytest.mark.parametrize(
    "kind,lone", [(WinnerTakeAllPlan, "1"), (LoserTakeAllPlan, "-1")], ids=["wta", "lta"]
)
def test_split_share_sums_at_the_player_cap(kind, lone):
    """At PLAYER_CAP players on a 2-atom market: at one atom every player
    ties, at the other one player, the only one on action B, stands alone
    at the top (wta) or the bottom (lta)."""
    plan = kind(PLAYER_CAP)
    market = build_market(("A", "B"), [("1/4", ("0", "0")), ("3/4", ("0", lone))])
    winner = PLAYER_CAP // 3
    combo = (0,) * winner + (1,) + (0,) * (PLAYER_CAP - winner - 1)
    view = market.integer_view
    rows = [tuple(values[a] for a in combo) for values in view.values]
    kernel = plan.kernel(view.scale)
    got = plan._share_sums(kernel, rows, view.weights)
    tied = kernel.denominator // PLAYER_CAP  # the weight of the level atom is 1
    assert got == [tied + 3 * kernel.denominator if i == winner else tied
                   for i in range(PLAYER_CAP)]
    assert got == BonusPlan._share_sums(plan, kernel, rows, view.weights)
    payoffs = induce_game(market, plan).payoff(combo)
    assert payoffs == tuple(F(1, 4 * PLAYER_CAP) + (F(3, 4) if i == winner else 0)
                            for i in range(PLAYER_CAP))


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


@settings(max_examples=300)
@given(scaled_vectors(), st.data())
def test_anonymous_kinds_have_permutation_equivariant_kernels(case, data):
    """check_nash shares one search between players with equal strategies
    exactly when `anonymous` is set, so the flag must hold for the kernel and
    for the reference rule, gates included; the tabulated kind makes no such
    promise, and a table can break it."""
    scale, v = case
    k = len(v)
    sigma = data.draw(st.permutations(range(k)))
    permuted = tuple(v[sigma[i]] for i in range(k))
    r = tuple(F(x, scale) for x in v)
    first = (F(1),) + (F(0),) * (k - 1)
    kinds = plans_for(k) + [
        MLinearPlan(k, F(1), F(-1, 3), F(5, 4)),
        BoundedLinearPlan(k, F(2, 7)),
    ]
    anonymous = [plan for plan in kinds if plan.anonymous]
    assert {plan.kind for plan in anonymous} == {
        "constant", "wta", "lta", "m_linear", "bounded_linear"
    }
    for plan in anonymous:
        _, shares = plan.kernel(scale)
        got = list(shares(v))
        assert list(shares(permuted)) == [got[sigma[i]] for i in range(k)]
        reference = fraction_allocation(plan, r)
        assert fraction_allocation(plan, tuple(F(x, scale) for x in permuted)) == tuple(
            reference[sigma[i]] for i in range(k)
        )
    table = TabulatedPlan(k, {r: first}, (F(1, k),) * k)
    assert not table.anonymous
    if permuted != v:
        assert table.evaluate([F(x, scale) for x in permuted]) == (F(1, k),) * k


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


def test_validate_simplex_draws_in_a_range_with_no_point_of_a_denominator():
    """A denominator with no multiple of 1/den in [lo, hi] draws lo: on
    [1/7, 1/7] every denominator but the multiples of 7, on [1/7, 1/6] a
    denominator such as 5.  Every draw lies in the range."""
    for lo, hi in ((F(1, 7), F(1, 7)), (F(1, 7), F(1, 6))):
        for seed in range(5):
            rng = random.Random(seed)
            assert all(lo <= _random_rational(rng, lo, hi) <= hi for _ in range(200))
    report = validate_simplex(WinnerTakeAllPlan(2), count=100, lo="1/7", hi="1/7")
    assert report.ok and report.evaluations == 100


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

    def _kernel(self, scale):
        return Kernel(1, lambda v: (2, -1))


def test_validate_simplex_reports_first_failure():
    report = validate_simplex(_LeakyPlan(2), count=50)
    assert not report.ok
    r, shares, reason = report.failure
    assert shares == (F(2), F(-1))
    assert "outside" in reason


@dataclass(frozen=True)
class _RaisingPlan(BonusPlan):
    kind = "raising"

    def _kernel(self, scale):
        raise ZeroDivisionError("no kernel")


@dataclass(frozen=True)
class _ShortPlan(BonusPlan):
    kind = "short"

    def _kernel(self, scale):
        return Kernel(1, lambda v: (1,))


@dataclass(frozen=True)
class _OverfullPlan(BonusPlan):
    kind = "overfull"

    def _kernel(self, scale):
        return Kernel(2, lambda v: (1, 2))


@pytest.mark.parametrize(
    "plan,evaluations,shares,reason",
    [
        (_RaisingPlan(2), 0, None, "ZeroDivisionError('no kernel')"),
        (_ShortPlan(2), 1, (F(1),), "wrong arity"),
        (_OverfullPlan(2), 1, (F(1, 2), F(1)), "shares do not sum to 1"),
    ],
    ids=["raises", "wrong-arity", "sum-not-one"],
)
def test_validate_simplex_names_each_broken_contract(plan, evaluations, shares, reason):
    """The first sampled vector fails: the report gives the evaluations
    that returned, the shares (None when the plan raised) and the reason."""
    report = validate_simplex(plan, count=5)
    assert not report.ok
    assert report.evaluations == evaluations
    r, got, why = report.failure
    assert len(r) == 2
    assert (got, why) == (shares, reason)


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



@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from((-1, 0, 1)))
def test_linear_sufficiency_matches_the_fraction_rule(seed, outlier, nudge):
    """Whether both linear kinds state a form, read from the integer view,
    against the rules on the Fraction outcomes, at and around the edges."""
    market = random_market(random.Random(seed), outlier=outlier)
    atoms = fraction_atoms(market)
    outcomes = [x for _, row in atoms for x in row]
    lo, hi = min(outcomes), max(outcomes)
    step = F(nudge, 7)
    for a, b in ((lo + step, hi), (lo, hi + step), (lo - step, hi - step)):
        if a <= b:
            plan = MLinearPlan(2, max(b - a, F(1)), a, b)
            assert (plan.linear_form(market) is not None) == (a <= lo and hi <= b)
    spread = max(max(row) - min(row) for _, row in atoms)
    for bound in (spread / 2, spread / 2 + step, F(1, 3), spread):
        if bound > 0:
            plan = BoundedLinearPlan(3, bound)
            assert (plan.linear_form(market) is not None) == (spread <= 2 * bound)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=60), min_size=2, max_size=2),
    st.integers(1, 10**12),
)
def test_integer_interval_matches_the_fraction_products(ends, scale):
    """`MLinearPlan._interval(scale)`, computed from the ends' integer
    ratios, is the ceiling of lo * scale and the floor of hi * scale, for
    negative ends too and at scales above 1."""
    lo, hi = sorted(ends)
    plan = MLinearPlan(2, max(hi - lo, F(1)), lo, hi)
    assert plan._interval(scale) == (math.ceil(lo * scale), math.floor(hi * scale))


@pytest.mark.parametrize("plan", plans_for(2), ids=lambda plan: plan.kind)
def test_kernel_and_linear_form_refuse_bad_arguments(plan):
    """Every kind's kernel refuses a scale that is not an int >= 1, and its
    linear form a market that is not a Market, as ArityMismatch: the checks
    sit in BonusPlan.kernel and BonusPlan.linear_form, before the kind's own
    `_kernel` and `_linear_form`."""
    for scale in (0, -3, "x", True, F(2)):
        with pytest.raises(ArityMismatch, match="kernel scale must be an int >= 1"):
            plan.kernel(scale)
    with pytest.raises(FloatRejected):
        plan.kernel(2.0)
    with pytest.raises(ArityMismatch, match="a market must be a Market, got 'm'"):
        plan.linear_form("m")
    assert plan.kernel(1).denominator >= 1
