"""Mutation gate: each fast path's differential tests must catch its mutants.

Every row of MUTANTS names a source file, an exact snippet in it, the
replacement that breaks the fast path, and the tests that must fail once
the replacement is made.  For each row the script copies `src/` and
`tests/` into a temporary directory, applies the one replacement there and
runs only the named tests, hypothesis seeded so that a run is repeatable and
without shrinking (the `mutants` profile in `tests/conftest.py`).  A mutant
is caught when pytest reports failing tests.

The named tests run once unmutated first and must pass.  The gate fails
when they do not, when a mutant survives, when pytest ends for another
reason (a usage or collection error is not a catch), and when a snippet
does not occur exactly once in its file: a fast path that was rewritten
needs its row rewritten too, never skipped.  EQUIVALENTS lists the known
equivalent mutants, each with the reason no test can catch it; their
snippets are checked the same way, and they are not run.

Run from the root of a checkout (standard library and pytest/hypothesis):

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root of the checkout
    snippet: str
    replacement: str
    tests: tuple[str, ...]


class Equivalent(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    reason: str  # why no test can catch it


MUTANTS = (
    Mutant(
        "expectation over scale, not mass * scale",
        "src/bonuslab/market.py",
        "denominator = view.mass * view.scale",
        "denominator = view.scale",
        ("tests/test_market.py::test_expectations_match_the_fraction_oracle",),
    ),
    Mutant(
        "portfolio expectation with its counts reversed",
        "src/bonuslab/market.py",
        "map(mul, strategy.counts, market.expectation_sums)",
        "map(mul, strategy.counts[::-1], market.expectation_sums)",
        ("tests/test_market.py::test_expectations_match_the_fraction_oracle",),
    ),
    Mutant(
        "best actions keep only the first largest sum",
        "src/bonuslab/market.py",
        "return tuple(i for i, s in enumerate(sums) if s == top)",
        "return (sums.index(top),)",
        ("tests/test_market.py::test_expectations_match_the_fraction_oracle",),
    ),
    Mutant(
        "product-market total mass, not mass**k",
        "src/bonuslab/counterexamples.py",
        "        sum(marginal) ** k,\n",
        "        sum(marginal),\n",
        ("tests/test_counterexamples.py::test_integer_coordinate_market_matches_the_index_rule",),
    ),
    Mutant(
        "market positivity check lets a zero weight through",
        "src/bonuslab/market.py",
        "if weight <= 0:",
        "if weight < 0:",
        ("tests/test_market.py::test_market_faults_keep_their_order",),
    ),
    Mutant(
        "market mass compared with the outcome scale",
        "src/bonuslab/market.py",
        "(total := sum(view.weights)) != view.mass",
        "(total := sum(view.weights)) != view.scale",
        ("tests/test_market.py::test_market_checks_match_the_fraction_oracle",),
    ),
    Mutant(
        "portfolio check lets a negative count through",
        "src/bonuslab/market.py",
        "if min(counts) < 0 or max(counts) > unit:",
        "if max(counts) > unit:",
        ("tests/test_market.py::test_mixed_action_checks_match_the_fraction_oracle",),
    ),
    Mutant(
        "portfolio check without its above-unit bound",
        "src/bonuslab/market.py",
        "if min(counts) < 0 or max(counts) > unit:",
        "if min(counts) < 0:",
        ("tests/test_market.py::test_mixed_action_checks_match_the_fraction_oracle",),
    ),
    Mutant(
        "portfolio sum compared with unit + 1",
        "src/bonuslab/market.py",
        "(total := sum(counts)) != unit",
        "(total := sum(counts)) != unit + 1",
        ("tests/test_market.py::test_mixed_action_checks_match_the_fraction_oracle",),
    ),
    Mutant(
        "pure action read as the first nonzero count",
        "src/bonuslab/market.py",
        "counts.index(1) if unit == 1 else None",
        "next((i for i, c in enumerate(counts) if c), None)",
        ("tests/test_market.py::test_mixed_action_checks_match_the_fraction_oracle",),
    ),
    Mutant(
        "shared searches keyed without the last count",
        "src/bonuslab/game.py",
        "key = own.counts",
        "key = own.counts[:-1]",
        ("tests/test_game.py::test_check_nash_keys_each_distinct_strategy_apart",),
    ),
    Mutant(
        "payoff rows gathered over a reversed combo",
        "src/bonuslab/game.py",
        "itemgetter(*combo)",
        "itemgetter(*reversed(combo))",
        ("tests/test_game.py::test_lazy_cells_match_the_eager_tensor",),
    ),
    Mutant(
        "dominance cap without the players factor",
        "src/bonuslab/game.py",
        "TENSOR_CAP // (n * k)",
        "TENSOR_CAP // n",
        ("tests/test_game.py::test_strict_dominance_caps_cells_times_players",),
    ),
    Mutant(
        "pure scan reads the cell with the opponents swapped round",
        "src/bonuslab/game.py",
        "before, after = pure[:player], pure[player:]",
        "after, before = pure[:player], pure[player:]",
        ("tests/test_game.py::test_grid_best_response_matches_the_fraction_oracle",),
    ),
    Mutant(
        "pure scan keeps the last of tied actions",
        "src/bonuslab/game.py",
        "best = values.index(top)",
        "best = n - 1 - values[::-1].index(top)",
        ("tests/test_game.py::test_grid_ties_keep_the_earliest_candidate",),
    ),
    Mutant(
        "dominance compares numerators with < for <=",
        "src/bonuslab/game.py",
        "<= cell(before + (b,) + after)[player]",
        "< cell(before + (b,) + after)[player]",
        ("tests/test_game.py::test_strict_dominance_matches_the_tensor_relation",),
    ),
    Mutant(
        "a cell drops its earnings term",
        "src/bonuslab/game.py",
        "bonus_weight * b + result_weight * e for b, e in zip(shares, expectations)",
        "bonus_weight * b for b in shares",
        ("tests/test_game.py::test_cells_hold_numerators_over_the_game_denominator",),
    ),
    Mutant(
        "a pure cell hands the first player's expectation sum to every player",
        "src/bonuslab/game.py",
        "self._cell(1, get(self.market.expectation_sums), rows)",
        "self._cell(1, (self.market.expectation_sums[combo[0]],) * k, rows)",
        ("tests/test_game.py::test_lazy_cells_match_the_eager_tensor",),
    ),
    Mutant(
        "a portfolio's expectation taken over its own unit, not the profile's",
        "src/bonuslab/game.py",
        "(unit // s.unit) * sum(map(mul, s.counts, sums))",
        "1 * sum(map(mul, s.counts, sums))",
        (
            "tests/test_game.py::test_lazy_cells_match_the_eager_tensor",
            "tests/test_game.py::test_principal_value_matches_the_fraction_oracle",
        ),
    ),
    Mutant(
        "the deviation scan's expectation row left unscaled by step",
        "src/bonuslab/game.py",
        "column.append(step * s)",
        "column.append(s)",
        ("tests/test_game.py::test_grid_best_response_matches_the_fraction_oracle",),
    ),
    Mutant(
        "the deviation scan reads its earnings term from the first atom's dot",
        "src/bonuslab/game.py",
        "earned, rise = first[-1], slope[-1]",
        "earned, rise = first[0], slope[0]",
        ("tests/test_game.py::test_grid_best_response_matches_the_fraction_oracle",),
    ),
    Mutant(
        "deviation scan scores the own action unscaled",
        "src/bonuslab/game.py",
        "columns = [[v * step for v in column] for column in zip(*view.values)]",
        "columns = [list(column) for column in zip(*view.values)]",
        ("tests/test_game.py::test_grid_best_response_matches_the_fraction_oracle",),
    ),
    Mutant(
        "deviation scan keeps the last of tied candidates",
        "src/bonuslab/game.py",
        "if top is None or score > top:",
        "if top is None or score >= top:",
        ("tests/test_game.py::test_grid_ties_keep_the_earliest_candidate",),
    ),
    Mutant(
        "deviation scan walks the grid before the vertices: a vertex loses a tie",
        "src/bonuslab/game.py",
        "in _scan_runs(columns, d):",
        "in sorted(_scan_runs(columns, d), key=lambda run: type(run[0]) is int):",
        ("tests/test_game.py::test_grid_ties_keep_the_earliest_candidate",),
    ),
    Mutant(
        "split run sums give a still result's tie to the player whole",
        "src/bonuslab/plans.py",
        "changes[0] += hi if x > best else tie if x == best else lo",
        "changes[0] += hi if x >= best else lo",
        ("tests/test_plans.py::test_split_run_sums_match_the_response_default",),
    ),
    Mutant(
        "split run sums: below and above swapped",
        "src/bonuslab/plans.py",
        "below, above = (whole, 0) if self._pick is min else (0, whole)",
        "above, below = (whole, 0) if self._pick is min else (0, whole)",
        ("tests/test_plans.py::test_split_run_sums_match_the_response_default",),
    ),
    Mutant(
        "split run sums score an exact crossing hi in place of tie",
        "src/bonuslab/plans.py",
        "                        changes[q] += tie - lo\n                        changes[q + 1] += hi - tie\n",
        "                        changes[q] += hi - lo\n",
        ("tests/test_plans.py::test_split_run_sums_match_the_response_default",),
    ),
    Mutant(
        "split run sums put a crossing between two points at q, not q + 1",
        "src/bonuslab/plans.py",
        "changes[q + 1] += hi - lo",
        "changes[q] += hi - lo",
        ("tests/test_plans.py::test_split_run_sums_match_the_response_default",),
    ),
    Mutant(
        "split run sums read a falling result without swapping the low and high shares",
        "src/bonuslab/plans.py",
        "x, s, best, lo, hi = -x, -s, -best, hi, lo",
        "x, s, best = -x, -s, -best",
        ("tests/test_plans.py::test_split_run_sums_match_the_response_default",),
    ),
    Mutant(
        "split run sums take an exact crossing at c = 0 as before the run",
        "src/bonuslab/plans.py",
        "if q < 0:  # over best at every point",
        "if q <= 0:  # over best at every point",
        ("tests/test_plans.py::test_split_run_sums_match_the_response_default",),
    ),
    Mutant(
        "split run sums take an exact crossing at c = left as past the run",
        "src/bonuslab/plans.py",
        "elif q > left:  # under best at every point",
        "elif q >= left:  # under best at every point",
        ("tests/test_plans.py::test_split_run_sums_match_the_response_default",),
    ),
    Mutant(
        "the default run sums score every point of a run at its first",
        "src/bonuslab/plans.py",
        "                if c:\n                    results = list(map(add, results, step))\n",
        "",
        ("tests/test_game.py::test_grid_best_response_matches_the_fraction_oracle",),
    ),
    Mutant(
        "the default run sums step every point one further, the first too",
        "src/bonuslab/plans.py",
        "                if c:\n                    results = list(map(add, results, step))\n",
        "                results = list(map(add, results, step))\n",
        ("tests/test_plans.py::test_responses_match_the_kernel",),
    ),
    Mutant(
        "bounded-plan spread compared without the view's scale",
        "src/bonuslab/plans.py",
        "2 * self.bound.numerator * view.scale",
        "2 * self.bound.numerator",
        ("tests/test_plans.py::test_linear_sufficiency_matches_the_fraction_rule",),
    ),
    Mutant(
        "m_linear's support interval from one atom's row only",
        "src/bonuslab/market.py",
        "return _Bounds(min(lows), max(highs), max(map(sub, highs, lows)))",
        "return _Bounds(lows[0], max(highs), max(map(sub, highs, lows)))",
        (
            "tests/test_construct.py::test_interval_plan_matches_the_fraction_outcomes",
            "tests/test_market.py::test_bounds_summary_matches_a_scan_of_the_fraction_outcomes",
        ),
    ),
    Mutant(
        "the bounds summary's largest value taken with min",
        "src/bonuslab/market.py",
        "return _Bounds(min(lows), max(highs), max(map(sub, highs, lows)))",
        "return _Bounds(min(lows), min(highs), max(map(sub, highs, lows)))",
        (
            "tests/test_construct.py::test_interval_plan_matches_the_fraction_outcomes",
            "tests/test_market.py::test_bounds_summary_matches_a_scan_of_the_fraction_outcomes",
        ),
    ),
    Mutant(
        "the widest spread taken over the whole support instead of per atom",
        "src/bonuslab/market.py",
        "return _Bounds(min(lows), max(highs), max(map(sub, highs, lows)))",
        "return _Bounds(min(lows), max(highs), max(highs) - min(lows))",
        (
            "tests/test_plans.py::test_linear_sufficiency_matches_the_fraction_rule",
            "tests/test_market.py::test_bounds_summary_matches_a_scan_of_the_fraction_outcomes",
        ),
    ),
    Mutant(
        "a vertex of the wrong action",
        "src/bonuslab/market.py",
        "ONE if i == action else ZERO",
        "ONE if i == n - 1 - action else ZERO",
        ("tests/test_market.py::test_vertices_are_built_once_per_action_count",),
    ),
    Mutant(
        "the vertex table read before the arguments are checked",
        "src/bonuslab/market.py",
        '        as_count(arity, "arity", None, ArityMismatch)\n',
        "        if (action, arity) in _vertices:\n"
        "            return _vertices[action, arity]\n"
        '        as_count(arity, "arity", None, ArityMismatch)\n',
        ("tests/test_market.py::test_a_vertex_is_read_only_after_its_arguments_are_checked",),
    ),
    Mutant(
        "the vertex table keyed by the action alone",
        "src/bonuslab/market.py",
        "key = action, n",
        "key = action",
        ("tests/test_market.py::test_vertices_are_built_once_per_action_count",),
    ),
    Mutant(
        "the vertex table's bound not enforced",
        "src/bonuslab/market.py",
        "if _vertex_weights + n <= VERTEX_CAP:",
        "if True:",
        ("tests/test_market.py::test_the_vertex_table_holds_at_most_its_bound",),
    ),
    Mutant(
        "m_linear's integer interval rounds lo down, not up",
        "src/bonuslab/plans.py",
        "-(-lo * scale // lo_den)",
        "lo * scale // lo_den",
        (
            "tests/test_plans.py::test_linear_sufficiency_matches_the_fraction_rule",
            "tests/test_plans.py::test_integer_interval_matches_the_fraction_products",
        ),
    ),
    Mutant(
        "WTA/LTA ties not split",
        "src/bonuslab/plans.py",
        "share = denominator // v.count(best)",
        "share = denominator",
        ("tests/test_plans.py::test_kernels_match_evaluate",),
    ),
    Mutant(
        "WTA/LTA share sums give a tie the whole share",
        "src/bonuslab/plans.py",
        "tied = p * (denominator // count)",
        "tied = p * denominator",
        ("tests/test_plans.py::test_share_sums_match_the_kernel",),
    ),
    Mutant(
        "WTA/LTA share sums credit a lone winner at index 0",
        "src/bonuslab/plans.py",
        "sums[v.index(best)] += p * denominator",
        "sums[0] += p * denominator",
        ("tests/test_plans.py::test_share_sums_match_the_kernel",),
    ),
    Mutant(
        "LTA picks the largest result",
        "src/bonuslab/plans.py",
        "_pick = staticmethod(min)",
        "_pick = staticmethod(max)",
        ("tests/test_plans.py::test_kernels_match_evaluate",),
    ),
    Mutant(
        "probability schedule passes a zero guaranteed gain",
        "src/bonuslab/counterexamples.py",
        "(2**t - 1) ** k * a > 2 ** (t * k) * b",
        "(2**t - 1) ** k * a >= 2 ** (t * k) * b",
        ("tests/test_counterexamples.py::test_integer_schedule_passes_over_a_zero_gain",),
    ),
    Mutant(
        "probability schedule compares against k * 2^t, not 2^(t k)",
        "src/bonuslab/counterexamples.py",
        "2 ** (t * k) * b",
        "2 ** t * k * b",
        ("tests/test_counterexamples.py::test_integer_schedule_matches_the_fraction_schedule",),
    ),
    Mutant(
        "grid compositions in reversed order within a run",
        "src/bonuslab/game.py",
        "for c in range(left + 1):",
        "for c in reversed(range(left + 1)):",
        ("tests/test_game.py::test_compositions_follow_the_old_grid_order",),
    ),
    Mutant(
        "prefix-sum step adds the wrong column",
        "src/bonuslab/game.py",
        "dots = list(map(add, start, outer[j]))",
        "dots = list(map(add, start, outer[j - 1]))",
        ("tests/test_game.py::test_compositions_follow_the_old_grid_order",),
    ),
    Mutant(
        "walk drops a count back to the dots of its last value, not of 0",
        "src/bonuslab/game.py",
        "        if not counts[j]:\n            starts[j] = start\n",
        "        starts[j] = start\n",
        ("tests/test_game.py::test_compositions_follow_the_old_grid_order",),
    ),
    Mutant(
        "the checks take the recomputed gain over a stated one",
        "src/bonuslab/counterexamples.py",
        "gain = recomputed if ce.gain is None else ce.gain",
        "gain = recomputed",
        ("tests/test_counterexamples.py::test_a_stated_gain_is_checked_not_replaced",),
    ),
    Mutant(
        "a nonpositive recomputed gain accepted when no gain is stated",
        "src/bonuslab/counterexamples.py",
        "if gain <= 0:",
        "if ce.gain is not None and gain <= 0:",
        (
            "tests/test_counterexamples.py::"
            "test_pair_increase_builder_refuses_a_nonpositive_recomputed_gain",
        ),
    ),
    Mutant(
        "a deficit compared without being read as a rational",
        "src/bonuslab/counterexamples.py",
        'recorded = _exact(violation.deficit, "deficit")',
        "recorded = violation.deficit",
        ("tests/test_counterexamples.py::test_builders_refuse_a_deficit_that_is_not_exact",),
    ),
    Mutant(
        "validation compares a gain without reading it as a rational",
        "src/bonuslab/counterexamples.py",
        '    _exact(ce.gain, "gain")\n',
        "",
        (
            "tests/test_counterexamples.py::"
            "test_a_verdict_refuses_floats_that_equal_its_exact_values",
        ),
    ),
    Mutant(
        "validation compares certificate values without reading them as rationals",
        "src/bonuslab/counterexamples.py",
        '_exact(value, "certificate value")',
        "pass",
        (
            "tests/test_counterexamples.py::"
            "test_a_verdict_refuses_floats_that_equal_its_exact_values",
        ),
    ),
    Mutant(
        "decrease stale check moves from the increase base",
        "src/bonuslab/counterexamples.py",
        "_check_own_move(plan, violation, direction, (y, y), x)",
        "_check_own_move(plan, violation, direction, (x, x), x)",
        ("tests/test_counterexamples.py::test_decrease_builder_rewards_the_drop_with_certainty",),
    ),
    Mutant(
        "certificate read from reversed expectations",
        "src/bonuslab/counterexamples.py",
        "certificate = tuple(zip(market.actions, market.expectations()))",
        "certificate = tuple(zip(market.actions, market.expectations()[::-1]))",
        ("tests/test_counterexamples.py::test_decrease_builder_rewards_the_drop_with_certainty",),
    ),
    Mutant(
        "validation without the player and deviation index check",
        "src/bonuslab/counterexamples.py",
        "if not (ce.profile.players == k and 0 <= ce.player < k and 0 <= ce.deviation < market.n):",
        "if False:",
        (
            "tests/test_counterexamples.py::"
            "test_validate_refuses_a_player_or_deviation_out_of_range",
        ),
    ),
    Mutant(
        "validation accepts a deviation among the best actions",
        "src/bonuslab/counterexamples.py",
        "if ce.deviation in market.best_actions:",
        "if False:",
        ("tests/test_counterexamples.py::test_validation_matches_the_search_it_dropped",),
    ),
    Mutant(
        "the escape loop stops while the deviation still ties",
        "src/bonuslab/counterexamples.py",
        "if slope * escape * scale + offset > 0:",
        "if slope * escape * scale + offset >= 0:",
        ("tests/test_counterexamples.py::test_coordinate_increase_escape_passes_a_tie",),
    ),
    Mutant(
        "the escape's mass taken as p instead of 1 - p",
        "src/bonuslab/counterexamples.py",
        "weights.append((den - num) * 2 * (k - 1))",
        "weights.append(num * 2 * (k - 1))",
        ("tests/test_counterexamples.py::test_coordinate_increase_builder_frozen_values",),
    ),
    Mutant(
        "the player cap dropped",
        "src/bonuslab/plans.py",
        "if self.players > PLAYER_CAP:",
        "if False:",
        ("tests/test_plans.py::test_player_count_is_capped_in_the_constructor",),
    ),
    Mutant(
        "the sample cap dropped",
        "src/bonuslab/plans.py",
        "if count * plan.players > SAMPLE_CAP:",
        "if False:",
        ("tests/test_plans.py::test_validate_simplex_caps_its_sampled_coordinates",),
    ),
    Mutant(
        "int check admits a bool",
        "src/bonuslab/rational.py",
        "type(value) is not int",
        "not isinstance(value, int)",
        ("tests/test_public_ints.py::test_int_parameters_refuse_non_ints",),
    ),
    Mutant(
        "int check without its float branch",
        "src/bonuslab/rational.py",
        'if isinstance(value, float):\n        raise FloatRejected(f"refusing float {name}',
        'if False:\n        raise FloatRejected(f"refusing float {name}',
        ("tests/test_public_ints.py::test_int_parameters_refuse_non_ints",),
    ),
    Mutant(
        "strict interval gate",
        "src/bonuslab/plans.py",
        "lo <= min(v) and max(v) <= hi",
        "lo < min(v) and max(v) < hi",
        ("tests/test_plans.py::test_kernels_match_evaluate",),
    ),
    Mutant(
        "strict output gate",
        "src/bonuslab/plans.py",
        "min(shares) >= 0 and max(shares) <= cap",
        "min(shares) > 0 and max(shares) < cap",
        ("tests/test_plans.py::test_kernels_match_evaluate",),
    ),
    Mutant(
        "common denominator from the max, not the lcm, of the denominators",
        "src/bonuslab/rational.py",
        "denominator = lcm(*{d for row in ratios for _, d in row})",
        "denominator = max(d for row in ratios for _, d in row)",
        (
            "tests/test_plans.py::test_kernels_match_evaluate",
            "tests/test_rational.py::test_over_lcm_matches_the_fraction_oracle",
        ),
    ),
    Mutant(
        "pair probe without its cap",
        "src/bonuslab/counterexamples.py",
        "if pairs := _multisets_exceed(len(grid) - 1, 2, GRID_CAP):",
        "if pairs := None:",
        ("tests/test_counterexamples.py::test_pair_probe_caps_its_pairs",),
    ),
    Mutant(
        "off-lattice tabulated keys kept: the kernel matches numerators only",
        "src/bonuslab/plans.py",
        "return table.get(tuple(Fraction(x, scale) for x in v), fallback)",
        "return {tuple(x.numerator for x in k): row for k, row in table.items()}"
        ".get(tuple(Fraction(x, scale).numerator for x in v), fallback)",
        ("tests/test_plans.py::test_kernels_match_evaluate",),
    ),
    Mutant(
        "tabulated plan marked anonymous, seen by check_nash",
        "src/bonuslab/plans.py",
        'kind = "tabulated"',
        'kind = "tabulated"\n    anonymous = True',
        ("tests/test_game.py::test_check_nash_searches_every_player_under_a_tabulated_plan",),
    ),
    Mutant(
        "tabulated plan marked anonymous, seen by strict_dominance",
        "src/bonuslab/plans.py",
        'kind = "tabulated"',
        'kind = "tabulated"\n    anonymous = True',
        ("tests/test_game.py::test_strict_dominance_matches_the_tensor_relation",),
    ),
    Mutant(
        "shared search keeps the first player's label",
        "src/bonuslab/game.py",
        "br = BestResponse(player, shared.strategy, shared.value, shared.method)",
        "br = shared",
        ("tests/test_game.py::test_check_nash_matches_one_best_response_per_player",),
    ),
    Mutant(
        "universality verdict scans every violation first",
        "src/bonuslab/counterexamples.py",
        "violation = next(violations(plan, points), None)",
        "violation = next(iter(tuple(violations(plan, points))), None)",
        (
            "tests/test_counterexamples.py::"
            "test_universality_verdict_stops_at_the_first_violation",
        ),
    ),
    Mutant(
        "multiset guard stops one step short",
        "src/bonuslab/market.py",
        "while count <= cap and j < s:",
        "while count <= cap and j < s - 1:",
        ("tests/test_game.py::test_multiset_count_guard_matches_the_binomial",),
    ),
    Mutant(
        "grid cap counts n - 1 actions",
        "src/bonuslab/game.py",
        "_multisets_exceed(arity, denominator, GRID_CAP)",
        "_multisets_exceed(arity - 1, denominator, GRID_CAP)",
        ("tests/test_game.py::test_grid_cap_is_checked_before_the_first_point",),
    ),
    Mutant(
        "power cap message formats the count",
        "src/bonuslab/market.py",
        'return f"{rational_text(n)}^{rational_text(k)}"',
        "return rational_text(n**k)",
        (
            "tests/test_market.py::test_product_market_atom_cap",
            "tests/test_market.py::test_product_market_cap_on_huge_copy_counts",
        ),
    ),
    Mutant(
        "grid cap message formats the count",
        "src/bonuslab/game.py",
        'f"{points} grid points',
        'f"{__import__(\'math\').comb(denominator + arity - 1, arity - 1)} grid points',
        (
            "tests/test_cli.py::"
            "test_malformed_input_is_a_json_error[find-m-grid-cap-wide-market]",
        ),
    ),
    Mutant(
        "exponent read by Fraction unbounded",
        "src/bonuslab/rational.py",
        'if limit and abs(int(text.lower().partition("e")[2])) > limit:',
        "if False:",
        ("tests/test_rational.py::test_rejects_garbage_strings",),
    ),
    Mutant(
        "JSON integers read without the digit-limit hook",
        "src/bonuslab/rational.py",
        ", parse_int=_int_literal)",
        ")",
        (
            "tests/test_rational.py::test_json_integers_past_the_digit_limit_are_unparsable",
            "tests/test_cli.py::"
            "test_malformed_input_is_a_json_error[validate-plan-players-past-the-digit-limit]",
        ),
    ),
    Mutant(
        "document writer abbreviates a number past the digit limit",
        "src/bonuslab/rational.py",
        'raise UnwritableNumber(f"a report cannot write {rational_text(value)} exactly") from exc',
        "return rational_text(value)",
        (
            "tests/test_rational.py::"
            "test_documents_write_the_longest_numbers_and_refuse_one_digit_more",
            "tests/test_cli.py::"
            "test_malformed_input_is_a_json_error[induce-report-past-the-digit-limit]",
        ),
    ),
    Mutant(
        "decimal suffix writes its integer part past the digit limit",
        "src/bonuslab/rational.py",
        'return f"{sign}{format_rational(whole)}.{frac:06d}"',
        'return f"{sign}{rational_text(whole)}.{frac:06d}"',
        (
            "tests/test_rational.py::"
            "test_documents_write_the_longest_numbers_and_refuse_one_digit_more",
        ),
    ),
    Mutant(
        "grid weight cap off by one",
        "src/bonuslab/game.py",
        "_multisets_exceed(arity, denominator, GRID_WEIGHT_CAP // arity)",
        "_multisets_exceed(arity, denominator, GRID_WEIGHT_CAP // arity + 1)",
        ("tests/test_game.py::test_grid_weight_cap_matches_points_times_arity",),
    ),
    Mutant(
        "pure arity cap compared with >=",
        "src/bonuslab/market.py",
        "if arity > GRID_CAP:",
        "if arity >= GRID_CAP:",
        ("tests/test_public_ints.py::test_pure_arity_is_capped_before_any_weight",),
    ),
    Mutant(
        "game without its earnings weight check",
        "src/bonuslab/game.py",
        "if not ZERO <= w < 1:\n            raise InvalidParameter("
        'f"earnings weight must lie in [0, 1), got {rational_text(w)}")',
        "pass",
        ("tests/test_game.py::test_game_checks_its_own_earnings_weight",),
    ),
    Mutant(
        "validation reads player 0's gain, not the counterexample's player's",
        "src/bonuslab/counterexamples.py",
        "recomputed = game.payoff(tuple(swapped))[ce.player] - game.payoff(actions)[ce.player]",
        "recomputed = game.payoff(tuple(swapped))[0] - game.payoff(actions)[0]",
        ("tests/test_counterexamples.py::test_validation_matches_the_search_it_dropped",),
    ),
    Mutant(
        "product-market probabilities keyed by the first draw's weight",
        "src/bonuslab/counterexamples.py",
        "tuple(map(prod, product(marginal, repeat=k)))",
        "tuple(draw[0] for draw in product(marginal, repeat=k))",
        ("tests/test_counterexamples.py::test_integer_coordinate_market_matches_the_index_rule",),
    ),
    Mutant(
        "base_ix taken from the wrong player's index",
        "src/bonuslab/counterexamples.py",
        "base_ix = tuple(map(support.index, values))",
        "base_ix = tuple(map(support.index, values[1:] + values[:1]))",
        (
            "tests/test_counterexamples.py::test_coordinate_decrease_builder_frozen_values",
            "tests/test_counterexamples.py::test_coordinate_increase_builder_frozen_values",
            "tests/test_counterexamples.py::test_integer_coordinate_market_matches_the_index_rule",
        ),
    ),
    Mutant(
        "the escape taken as the least support value, not the high one",
        "src/bonuslab/counterexamples.py",
        "-high if high in draw",
        "-high if support[0] in draw",
        (
            "tests/test_counterexamples.py::test_coordinate_increase_builder_frozen_values",
            "tests/test_counterexamples.py::test_integer_coordinate_market_matches_the_index_rule",
        ),
    ),
    Mutant(
        "the escape branch taken without a low value",
        "src/bonuslab/counterexamples.py",
        "high = None  # no draw is an escape",
        "high = support[-1]",
        ("tests/test_counterexamples.py::test_coordinate_decrease_builder_frozen_values",),
    ),
    Mutant(
        "the dev column read at the wrong player's digit",
        "src/bonuslab/counterexamples.py",
        "else draw[player],)",
        "else draw[player - 1],)",
        (
            "tests/test_counterexamples.py::test_coordinate_decrease_builder_frozen_values",
            "tests/test_counterexamples.py::test_integer_coordinate_market_matches_the_index_rule",
        ),
    ),
    Mutant(
        "a value that is not iterable left to the TypeError of iterating it",
        "src/bonuslab/rational.py",
        "        except TypeError:\n            pass",
        "        except KeyError:\n            pass",
        ("tests/test_rational.py::test_rationals_refuses_what_is_not_iterable",),
    ),
    Mutant(
        "a market's atoms iterated without the list check",
        "src/bonuslab/market.py",
        'enumerate(items_of(atoms, "(probability, outcomes) pairs"))',
        "enumerate(atoms)",
        ("tests/test_market.py::test_a_value_that_is_not_a_list_is_refused_as_a_string_is",),
    ),
    Mutant(
        "a strategy's weights read without checking it is a MixedAction",
        "src/bonuslab/market.py",
        'len(instance_of(s, MixedAction, "a strategy").weights)',
        "len(s.weights)",
        ("tests/test_market.py::test_a_strategy_that_is_not_a_mixed_action_is_refused",),
    ),
    Mutant(
        "a profile read without checking it is a Profile",
        "src/bonuslab/game.py",
        'instance_of(profile, Profile, "a profile").players != plan.players',
        "profile.players != plan.players",
        ("tests/test_market.py::test_a_profile_that_is_not_a_profile_is_refused",),
    ),
    Mutant(
        "a game built without checking its market",
        "src/bonuslab/game.py",
        '        instance_of(self.market, Market, "a market")\n',
        "",
        ("tests/test_game.py::test_a_game_checks_its_market_and_plan",),
    ),
    Mutant(
        "an object argument of the wrong type let through",
        "src/bonuslab/rational.py",
        "if not isinstance(value, cls):",
        "if False:",
        ("tests/test_public_objects.py::test_object_parameters_refuse_a_wrong_object",),
    ),
    Mutant(
        "every payoff written as the first one's text",
        "src/bonuslab/cli.py",
        "written = texts.get(id(value))",
        "written = next(iter(texts.values()), None)",
        ("tests/test_cli.py::test_induce_document_byte_for_byte",),
    ),
    Mutant(
        "a best response's opponents read without the list check",
        "src/bonuslab/game.py",
        'opponents = tuple(items_of(opponents, "strategies"))',
        "opponents = tuple(opponents)",
        ("tests/test_market.py::test_opponents_that_are_not_a_list_are_refused",),
    ),
    Mutant(
        "a pure profile's actions read without the list check",
        "src/bonuslab/game.py",
        'for a in items_of(combo, "actions")',
        "for a in combo",
        ("tests/test_market.py::test_a_pure_profile_that_is_not_a_list_is_refused",),
    ),
    Mutant(
        "a table read without checking it is a mapping",
        "src/bonuslab/plans.py",
        "if not isinstance(self.points, Mapping):",
        "if False:",
        ("tests/test_plans.py::test_a_table_that_is_not_a_mapping_is_refused",),
    ),
    Mutant(
        "a profile keeps its strategies unread",
        "src/bonuslab/market.py",
        "strategies = tuple(\n"
        '            instance_of(s, MixedAction, "a strategy")\n'
        '            for s in items_of(self.strategies, "strategies")\n'
        "        )",
        "strategies = self.strategies",
        ("tests/test_market.py::test_a_profile_checks_its_strategies_when_it_is_built",),
    ),
    Mutant(
        "a profile keeps its strategies without checking each is a MixedAction",
        "src/bonuslab/market.py",
        '            instance_of(s, MixedAction, "a strategy")\n'
        '            for s in items_of(self.strategies, "strategies")',
        '            s\n            for s in items_of(self.strategies, "strategies")',
        ("tests/test_market.py::test_a_profile_checks_its_strategies_when_it_is_built",),
    ),
    Mutant(
        "a derived atom's probability taken over view.scale instead of view.mass",
        "src/bonuslab/market.py",
        "Fraction(w, view.mass) for w in dict.fromkeys(view.weights)",
        "Fraction(w, view.scale) for w in dict.fromkeys(view.weights)",
        (
            "tests/test_market.py::test_product_markets_rebuild_from_their_atoms",
            "tests/test_market.py::test_documents_match_the_format_rational_oracle",
        ),
    ),
    Mutant(
        "common denominator over the first vector's denominators only",
        "src/bonuslab/rational.py",
        "lcm(*{d for row in ratios for _, d in row})",
        "lcm(*{d for _, d in ratios[0]})",
        (
            "tests/test_market.py::test_integer_view_matches_the_lcm_construction",
            "tests/test_rational.py::test_over_lcm_matches_the_fraction_oracle",
        ),
    ),
    Mutant(
        "each vector over its own lcm, not the common one",
        "src/bonuslab/rational.py",
        "[n * (denominator // d) for n, d in row]",
        "[n * (lcm(*{e for _, e in row}) // d) for n, d in row]",
        (
            "tests/test_plans.py::test_tabulated_lookup_and_fallback",
            "tests/test_plans.py::test_validate_simplex_on_a_thousand_point_table",
            "tests/test_market.py::test_integer_view_matches_the_lcm_construction",
        ),
    ),
    Mutant(
        "deviation scan hands back the winning vertex from the other end",
        "src/bonuslab/game.py",
        "best = _vertex(winner, n)",
        "best = _vertex(n - 1 - winner, n)",
        ("tests/test_game.py::test_walks_go_past_the_recursion_limit",),
    ),
    Mutant(
        "a game's cell memo is a constructor field again",
        "src/bonuslab/game.py",
        "cells: dict = field(default_factory=dict, init=False, compare=False, repr=False)",
        "cells: dict = field(default_factory=dict, compare=False, repr=False)",
        ("tests/test_game.py::test_replace_starts_with_empty_memos",),
    ),
    Mutant(
        "validation writes a non-positive gain with an f-string",
        "src/bonuslab/counterexamples.py",
        'f"gain {rational_text(gain)} is not positive"',
        'f"gain {gain} is not positive"',
        ("tests/test_counterexamples.py::test_refusals_write_numbers_past_the_digit_limit",),
    ),
    Mutant(
        "linear plans probe their corners up to 11 players",
        "src/bonuslab/plans.py",
        "if self.players <= 10 else ()",
        "if self.players <= 11 else ()",
        ("tests/test_plans.py::test_linear_plans_probe_their_corners_up_to_ten_players",),
    ),
    Mutant(
        "coordinate probe scans every base tuple, repeated coordinates too",
        "src/bonuslab/counterexamples.py",
        "for base in permutations(ints, k):",
        "for base in __import__('itertools').product(ints, repeat=k):",
        ("tests/test_counterexamples.py::test_probes_match_the_reference_scan",),
    ),
    Mutant(
        "JSON nested past the decoder's depth escapes as RecursionError",
        "src/bonuslab/rational.py",
        "except (json.JSONDecodeError, RecursionError) as exc:",
        "except json.JSONDecodeError as exc:",
        ("tests/test_rational.py::test_text_that_is_not_json_is_arity_mismatch",),
    ),
    Mutant(
        "a tabulated plan keeps the last row for a repeated result vector",
        "src/bonuslab/plans.py",
        "if k in frozen:",
        "if False:",
        ("tests/test_plans.py::test_tabulated_lists_each_result_vector_once",),
    ),
    Mutant(
        "a game takes a linear kind's form without its gate test on the market",
        "src/bonuslab/game.py",
        "return self.plan._linear_form(self.market)",
        "return (self.plan._scaled_form(self.market.integer_view.scale)"
        " if hasattr(self.plan, '_scaled_form') else self.plan._linear_form(self.market))",
        ("tests/test_game.py::test_pure_cells_from_the_linear_form_match_the_atom_rows",),
    ),
    Mutant(
        "pure cells from a form for every anonymous kind, with or without one",
        "src/bonuslab/game.py",
        "        if form is None:\n            shares = self.plan._share_sums(",
        "        if not self.plan.anonymous:\n            shares = self.plan._share_sums(",
        ("tests/test_game.py::test_strict_dominance_matches_the_tensor_relation",),
    ),
    Mutant(
        "dominance under a form by the sign of S[a] - S[b], without c's",
        "src/bonuslab/game.py",
        "return moves and sums[a] > sums[b]",
        "return sums[a] > sums[b]",
        ("tests/test_game.py::test_strict_dominance_matches_the_tensor_relation",),
    ),
    Mutant(
        "dominance under a form by >= in place of >",
        "src/bonuslab/game.py",
        "return moves and sums[a] > sums[b]",
        "return moves and sums[a] >= sums[b]",
        ("tests/test_game.py::test_strict_dominance_matches_the_tensor_relation",),
    ),
    Mutant(
        "m_linear states its form on a market its interval does not cover",
        "src/bonuslab/plans.py",
        "if lo <= least and largest <= hi:",
        "if True:",
        (
            "tests/test_plans.py::test_linear_forms_match_the_kernel_where_the_gate_is_open",
            "tests/test_game.py::test_pure_cells_from_the_linear_form_match_the_atom_rows",
        ),
    ),
    Mutant(
        "bounded_linear states its form on a market with an atom spread past 2M",
        "src/bonuslab/plans.py",
        "if spread * self.bound.denominator <= 2 * self.bound.numerator * view.scale:",
        "if True:",
        (
            "tests/test_plans.py::test_linear_forms_match_the_kernel_where_the_gate_is_open",
            "tests/test_game.py::test_pure_cells_from_the_linear_form_match_the_atom_rows",
        ),
    ),
    Mutant(
        "the linear-form dominance cap applied to every anonymous plan",
        "src/bonuslab/game.py",
        "    if form is not None:\n        if n * n * k > TENSOR_CAP:",
        "    if shared:\n        if n * n * k > TENSOR_CAP:",
        ("tests/test_game.py::test_strict_dominance_caps_the_cells_it_may_read",),
    ),
    Mutant(
        "dominance under a form reads the cells, as without one",
        "src/bonuslab/game.py",
        "    if form is not None:\n        _, slope = form\n        moves",
        "    if False:\n        _, slope = form\n        moves",
        (
            "tests/test_game.py::test_strict_dominance_matches_the_tensor_relation",
            "tests/test_game.py::test_strict_dominance_in_a_separable_game_reads_no_cell",
        ),
    ),
    Mutant(
        "pure share sums from the form add the others' term, not subtract it",
        "src/bonuslab/game.py",
        "slope * (k * s - total)",
        "slope * (k * s + total)",
        ("tests/test_game.py::test_pure_cells_from_the_linear_form_match_the_atom_rows",),
    ),
    Mutant(
        "pure share sums from the form without the mass on the equal term",
        "src/bonuslab/game.py",
        "equal = view.mass * (scoring.kernel.denominator // k)",
        "equal = (scoring.kernel.denominator // k)",
        ("tests/test_game.py::test_pure_cells_from_the_linear_form_match_the_atom_rows",),
    ),
    Mutant(
        "pure share sums from the form weigh the own sum by k - 1, not k",
        "src/bonuslab/game.py",
        "slope * (k * s - total)",
        "slope * ((k - 1) * s - total)",
        ("tests/test_game.py::test_pure_cells_from_the_linear_form_match_the_atom_rows",),
    ),
    Mutant(
        "pure share sums from the form take k * s as s",
        "src/bonuslab/game.py",
        "slope * (k * s - total)",
        "slope * (s - total)",
        ("tests/test_game.py::test_pure_cells_from_the_linear_form_match_the_atom_rows",),
    ),
    Mutant(
        "pure best response under a form reads c = 0 as c > 0",
        "src/bonuslab/game.py",
        "best = game.market.best_actions[0] if slope or game.earnings_weight else 0",
        "best = game.market.best_actions[0] if slope or game.earnings_weight"
        " or all(s.pure_action is not None for s in opponents) else 0",
        ("tests/test_game.py::test_pure_best_response_under_a_form_reads_one_cell",),
    ),
    Mutant(
        "best response against portfolios under a form reads c = 0 as c > 0",
        "src/bonuslab/game.py",
        "best = game.market.best_actions[0] if slope or game.earnings_weight else 0",
        "best = game.market.best_actions[0] if slope or game.earnings_weight"
        " or any(s.pure_action is None for s in opponents) else 0",
        (
            "tests/test_game.py::"
            "test_best_response_against_portfolios_under_a_form_matches_the_scan",
        ),
    ),
    Mutant(
        "a portfolio cell scored at the market's scale, not scale x unit",
        "src/bonuslab/game.py",
        "scoring = self._scoring(view.scale * unit)",
        "scoring = self._scoring(view.scale)",
        ("tests/test_game.py::test_portfolio_cells_from_the_linear_form_match_the_atom_rows",),
    ),
    Mutant(
        "the equal share taken from the form at the market's scale,"
        " not the kernel's denominator over k",
        "src/bonuslab/game.py",
        "(scoring.kernel.denominator // k)",
        "form[0]",
        ("tests/test_game.py::test_portfolio_cells_from_the_linear_form_match_the_atom_rows",),
    ),
    Mutant(
        "the row reader leaves a strategy's counts unscaled to the shared unit",
        "src/bonuslab/game.py",
        "[c * (unit // s.unit) for c in s.counts]",
        "list(s.counts)",
        (
            "tests/test_game.py::test_lazy_cells_match_the_eager_tensor",
            "tests/test_game.py::test_grid_best_response_matches_the_fraction_oracle",
        ),
    ),
    Mutant(
        "pure best response under a form reads c's sign from the slope alone",
        "src/bonuslab/game.py",
        "if slope or game.earnings_weight else 0",
        "if slope else 0",
        ("tests/test_game.py::test_pure_best_response_under_a_form_reads_one_cell",),
    ),
    Mutant(
        "dominance under a form reads c's sign from the slope alone",
        "src/bonuslab/game.py",
        "moves, sums = bool(slope or game.earnings_weight),",
        "moves, sums = bool(slope),",
        ("tests/test_game.py::test_strict_dominance_matches_the_tensor_relation",),
    ),
    Mutant(
        "the payoff weights not reduced by their gcd",
        "src/bonuslab/game.py",
        "common = gcd(*weights)",
        "common = 1",
        (
            "tests/test_game.py::test_lazy_cells_match_the_eager_tensor",
            "tests/test_game.py::test_cells_at_weight_zero_are_the_share_sums",
        ),
    ),
    Mutant(
        "a mapping let through where a list belongs",
        "src/bonuslab/rational.py",
        "isinstance(values, (str, bytes, Mapping))",
        "isinstance(values, (str, bytes))",
        (
            "tests/test_rational.py::test_a_mapping_is_refused_where_a_list_belongs",
            "tests/test_cli.py::test_malformed_input_is_a_json_error[induce-outcomes-as-object]",
        ),
    ),
    Mutant(
        "a table's points read without the list check",
        "src/bonuslab/plans.py",
        'items_of(data.get("points", ()), "table points")',
        'data.get("points", ())',
        (
            "tests/test_market.py::test_an_object_where_a_list_belongs_is_refused",
            "tests/test_cli.py::test_malformed_input_is_a_json_error[validate-plan-points-as-object]",
        ),
    ),
    Mutant(
        "a market's atoms read without the list check",
        "src/bonuslab/market.py",
        'items_of(data["atoms"], "atoms")',
        'data["atoms"]',
        ("tests/test_cli.py::test_malformed_input_is_a_json_error[induce-atoms-as-object]",),
    ),
    Mutant(
        "pair probing on a grid of fewer than 2 distinct points",
        "src/bonuslab/counterexamples.py",
        "    if len(grid) < 2:\n",
        "    if False:\n",
        ("tests/test_counterexamples.py::test_pair_probe_needs_two_distinct_points",),
    ),
    Mutant(
        "the constant plan states the form (0, 1)",
        "src/bonuslab/plans.py",
        "return 1, 0",
        "return 0, 1",
        (
            "tests/test_plans.py::test_linear_forms_match_the_kernel_where_the_gate_is_open",
            "tests/test_game.py::test_pure_cells_from_the_linear_form_match_the_atom_rows",
        ),
    ),
    Mutant(
        "an action label that UTF-8 cannot encode is let through",
        "src/bonuslab/market.py",
        'label.encode("utf-8")',
        "label",
        ("tests/test_market.py::test_action_labels_are_utf8_text",),
    ),
    Mutant(
        "the widest magnitude's Fraction shared when the threshold lies below it",
        "src/bonuslab/construct.py",
        "threshold = Fraction(low, length)",
        "threshold = tail_empty_at",
        ("tests/test_construct.py::test_sweep_matches_the_rescan",),
    ),
    Mutant(
        "the vertex exclusion keyed on action 0's count, not the best action's",
        "src/bonuslab/construct.py",
        "home = tuple(d if j == best else 0 for j in range(market.n - 2))",
        "home = tuple(d if j == 0 else 0 for j in range(market.n - 2))",
        ("tests/test_construct.py::test_sweep_matches_the_rescan",),
    ),
    Mutant(
        "the run's vertex skip at c = d dropped: the best vertex next to last is a witness",
        "src/bonuslab/construct.py",
        "at = d if best == market.n - 2 else 0",
        "at = 0",
        ("tests/test_construct.py::test_sweep_matches_the_rescan",),
    ),
    Mutant(
        "a tail of exactly half the gap passes the truncation test",
        "src/bonuslab/construct.py",
        "if 2 * tail >= gap:",
        "if 2 * tail > gap:",
        ("tests/test_construct.py::test_one_pass_witnesses_on_hand_cases",),
    ),
    Mutant(
        "the widest mass taken from one atom only",
        "src/bonuslab/construct.py",
        "if magnitudes.count(widest) == 1:",
        "if True:",
        ("tests/test_construct.py::test_one_pass_witnesses_on_hand_cases",),
    ),
    Mutant(
        "the fast case written >, so a widest tail of exactly half the gap takes the sort",
        "src/bonuslab/construct.py",
        "if 2 * widest * mass >= gap:",
        "if 2 * widest * mass > gap:",
        ("tests/test_construct.py::test_one_pass_witnesses_on_hand_cases",),
    ),
    Mutant(
        "the gap row written S_j - S*",
        "src/bonuslab/construct.py",
        "[sums[best] - sums[j]]",
        "[sums[j] - sums[best]]",
        ("tests/test_construct.py::test_sweep_matches_the_rescan",),
    ),
    Mutant(
        "the last point of each run dropped from the witness sweep",
        "src/bonuslab/construct.py",
        "        for c in range(left + 1):\n            if c:\n",
        "        for c in range(left):\n            if c:\n",
        ("tests/test_construct.py::test_sweep_matches_the_rescan",),
    ),
    Mutant(
        "main reads the plan before the market",
        "src/bonuslab/cli.py",
        '("market", market_from_dict), ("plan", plan_from_dict)',
        '("plan", plan_from_dict), ("market", market_from_dict)',
        ("tests/test_cli.py::test_inputs_are_read_market_plan_profile_then_options",),
    ),
    Mutant(
        "a counterexample's deviation action written from the player index",
        "src/bonuslab/cli.py",
        '"deviation_action": ce.market.actions[ce.deviation],',
        '"deviation_action": ce.market.actions[ce.player],',
        ("tests/test_cli.py::test_probe_universal_document_byte_for_byte",),
    ),
    Mutant(
        "a pair violation written with x and y swapped",
        "src/bonuslab/cli.py",
        "document.update(x=format_rational(v.x), y=format_rational(v.y))",
        "document.update(x=format_rational(v.y), y=format_rational(v.x))",
        ("tests/test_cli.py::test_probe_universal_document_byte_for_byte",),
    ),
    Mutant(
        "a coordinate violation's base written in reverse",
        "src/bonuslab/cli.py",
        "base=[format_rational(b) for b in v.base]",
        "base=[format_rational(b) for b in v.base[::-1]]",
        ("tests/test_cli.py::test_probe_universal_document_byte_for_byte",),
    ),
    Mutant(
        "a counterexample's certificate written without its last action",
        "src/bonuslab/cli.py",
        "for label, value in ce.certificate]",
        "for label, value in ce.certificate[:-1]]",
        ("tests/test_cli.py::test_probe_universal_document_byte_for_byte",),
    ),
    Mutant(
        "a refused number written in full at any length",
        "src/bonuslab/rational.py",
        "if max(map(len, digits)) <= 20:",
        "if True:",
        (
            "tests/test_rational.py::test_rational_text_writes_a_long_int_by_its_size",
            "tests/test_rational.py::test_rational_text_writes_a_long_rational_by_its_size",
            "tests/test_cli.py::test_a_refused_huge_count_is_written_by_its_size",
        ),
    ),
    Mutant(
        "a long vector written item by item",
        "src/bonuslab/rational.py",
        "if len(value) > 20:",
        "if False:",
        (
            "tests/test_rational.py::test_rational_text_writes_a_long_tuple_by_its_length",
            "tests/test_cli.py::test_a_long_quoted_input_is_written_by_its_size",
        ),
    ),
    Mutant(
        "a tabulated plan's shares taken at any count",
        "src/bonuslab/plans.py",
        "if len(vec) != players:",
        "if False:",
        (
            "tests/test_cli.py::"
            "test_malformed_input_is_a_json_error[validate-plan-fallback-of-one-share]",
            "tests/test_cli.py::"
            "test_malformed_input_is_a_json_error[validate-plan-row-of-three-shares]",
            "tests/test_cli.py::test_a_table_of_the_wrong_share_count_is_refused",
        ),
    ),
    Mutant(
        "the canonical reader keeps an unreduced ratio",
        "src/bonuslab/rational.py",
        "return numerator // g, denominator // g",
        "return numerator, denominator",
        (
            "tests/test_rational.py::"
            "test_integer_ratio_reads_the_edge_cases_as_the_fraction_parser",
            "tests/test_rational.py::test_integer_ratio_matches_the_fraction_parser",
        ),
    ),
    Mutant(
        "the document writer drops the gcd",
        "src/bonuslab/rational.py",
        "numerator, denominator = numerator // g, denominator // g",
        "pass",
        (
            "tests/test_rational.py::test_format_ratio_writes_what_format_rational_writes",
            "tests/test_market.py::test_documents_match_the_format_rational_oracle",
        ),
    ),
    Mutant(
        "the tensor shares orbits under a non-anonymous plan too",
        "src/bonuslab/game.py",
        "if not self.plan.anonymous:",
        "if False:",
        (
            "tests/test_game.py::test_lazy_cells_match_the_eager_tensor",
            "tests/test_cli.py::test_induce_document_byte_for_byte",
        ),
    ),
    Mutant(
        "a sorted cell's permutation applied inverted",
        "src/bonuslab/game.py",
        "ranks = tuple(map(key.index, combo))",
        "ranks = tuple(map(combo.index, key))",
        (
            "tests/test_game.py::test_lazy_cells_match_the_eager_tensor",
            "tests/test_cli.py::test_induce_document_byte_for_byte",
        ),
    ),
    Mutant(
        "a denominator with no point in the range draws above it",
        "src/bonuslab/plans.py",
        "return lo",
        "return Fraction(lo_num, den)",
        (
            "tests/test_plans.py::"
            "test_validate_simplex_draws_in_a_range_with_no_point_of_a_denominator",
        ),
    ),
)

# Known equivalent mutants: they change no result, so no test can catch
# them.  They are not run, but their snippets are kept current like the
# rows above.
EQUIVALENTS = (
    Equivalent(
        "power guard bounds the exponent one bit higher",
        "src/bonuslab/market.py",
        "n ** min(k, cap.bit_length())",
        "n ** min(k, cap.bit_length() + 1)",
        "any exponent bound b with 2^b > cap gives the same verdict for every n >= 1",
    ),
    Equivalent(
        "deviation scan walks the vertices a second time",
        "src/bonuslab/game.py",
        "            if left == d:\n"
        "                yield (outer, left), first, inner, left, range(1, d)\n"
        "            elif left or d not in outer:\n",
        "            if True:\n",
        "the vertices are scored first, so a vertex met again in the walk, c = 0 or c = d"
        " of the first run or a run of one point, scores at most the best so far and the"
        " strict > keeps the winner",
    ),
    Equivalent(
        "pure action found by the count equal to the unit",
        "src/bonuslab/market.py",
        "counts.index(1) if unit == 1 else None",
        "counts.index(unit) if unit in counts else None",
        "counts are >= 0 and sum to the unit, so a count equal to the unit leaves 0 to the"
        " others; the unit, the least common denominator, is then 1, and the count is the 1",
    ),
)


def stale_snippets(mutants=MUTANTS + EQUIVALENTS, root: Path = ROOT) -> dict[str, str]:
    """Mutant name -> why its snippet does not occur exactly once."""
    stale = {}
    for m in mutants:
        found = (root / m.path).read_text().count(m.snippet)
        if found != 1:
            stale[m.name] = f"snippet occurs {found} times in {m.path}: {m.snippet!r}"
    return stale


def run_tests(tests, mutant: Mutant | None = None) -> int:
    """pytest's exit code for the tests in a fresh copy, mutated if given."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        if mutant is not None:
            target = copy / mutant.path
            target.write_text(target.read_text().replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [
            sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", "--hypothesis-profile=mutants", *tests,
        ]
        return subprocess.run(command, cwd=copy, env=env, capture_output=True).returncode


def outcome(code: int) -> str:
    """A mutated run's exit code as 'caught', 'SURVIVED' or 'ERROR ...'."""
    if code == 1:
        return "caught"
    return "SURVIVED" if code == 0 else f"ERROR (pytest exit {code})"


def main() -> int:
    stale = stale_snippets()
    for name, why in stale.items():
        print(f"STALE    {name}: {why}")
    # the named tests must pass unmutated, or every mutant would look caught
    tests = sorted({t for m in MUTANTS for t in m.tests})
    code = run_tests(tests)
    print(f"{'passes' if code == 0 else 'FAILS':<8} unmutated: {len(tests)} tests")
    failed = bool(stale) or code != 0
    for m in MUTANTS:
        if m.name in stale:
            continue
        start = time.perf_counter()
        result = outcome(run_tests(m.tests, m))
        print(f"{result:<8} {time.perf_counter() - start:5.1f}s  {m.name}  [{m.path}]")
        failed |= result != "caught"
    print("mutation gate:", "FAILED" if failed else f"all {len(MUTANTS)} mutants caught")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
