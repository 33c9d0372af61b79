"""Command-line behavior: exit codes, JSON reports, file round-trips."""

import ast
import errno
import hashlib
import json
import os
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import bonuslab
from bonuslab import market_to_dict, plan_to_dict, plans, two_bond_market, WinnerTakeAllPlan
from bonuslab.cli import PIPE_CLOSED, _build_parser, main
from bonuslab.errors import BonusLabError
from bonuslab.market import market_from_dict, profile_from_list
from bonuslab.plans import SimplexReport, plan_from_dict

F = Fraction


@pytest.fixture
def files(tmp_path):
    market = tmp_path / "market.json"
    market.write_text(json.dumps(market_to_dict(two_bond_market()), indent=2))
    plan = tmp_path / "wta.json"
    plan.write_text(json.dumps(plan_to_dict(WinnerTakeAllPlan(2)), indent=2))
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps([["0", "1"], ["0", "1"]]))
    return tmp_path, str(market), str(plan), str(profile)


def run_json(capsys, argv):
    code = main(["--json", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_replicate_example_text(capsys):
    assert main(["replicate-example"]) == 0
    out = capsys.readouterr().out
    assert "strict dominance" in out
    assert "iterated elimination leaves (X2,X2)" in out
    assert "2153/5000" in out  # the slope of the off-diagonal payoff


def test_replicate_example_json(capsys):
    code, data = run_json(capsys, ["replicate-example", "--lambda", "1/2"])
    assert code == 0
    assert data["coefficients"]["X2,X1"][0] == ["3/5", "2153/5000"]
    assert data["coefficients"]["X1,X2"][0] == ["2/5", "13/20"]
    assert data["at_lambda"]["payoffs"]["X2,X2"] == ["7653/10000", "7653/10000"]
    assert data["dominance"]["unique_profile"] == ["X2", "X2"]
    assert data["equilibrium"]["verdict"] == "equilibrium"


def test_replicate_example_document_at_the_tie(capsys):
    """The whole report at L = 500/597, where each player's two actions pay
    the same against either opponent action: every coefficient pair, each
    slope E[own action] - share, and no dominance."""
    code, data = run_json(capsys, ["replicate-example", "--lambda", "500/597"])
    assert code == 0
    assert data == {
        "market": {
            "actions": ["X1", "X2"],
            "atoms": [
                {"p": "3/5", "outcomes": ["21/20", "1051/1000"]},
                {"p": "2/5", "outcomes": ["21/20", "1"]},
            ],
        },
        "plan": {"players": 2, "kind": "wta"},
        "coefficients": {
            "X1,X1": [["1/2", "11/20"], ["1/2", "11/20"]],
            "X1,X2": [["2/5", "13/20"], ["3/5", "2153/5000"]],
            "X2,X1": [["3/5", "2153/5000"], ["2/5", "13/20"]],
            "X2,X2": [["1/2", "2653/5000"], ["1/2", "2653/5000"]],
        },
        "at_lambda": {
            "lambda": "500/597",
            "payoffs": {
                "X1,X1": ["1147/1194", "1147/1194"],
                "X1,X2": ["2819/2985", "1147/1194"],
                "X2,X1": ["1147/1194", "2819/2985"],
                "X2,X2": ["2819/2985", "2819/2985"],
            },
        },
        "dominance": {"pairs": [], "unique_profile": None, "survivors": [["X1", "X2"]] * 2},
        "equilibrium": None,
    }


def test_replicate_example_past_threshold(capsys):
    code, data = run_json(capsys, ["replicate-example", "--lambda", "9/10"])
    assert code == 0
    assert data["dominance"]["unique_profile"] == ["X1", "X1"]


def test_induce_reports_tensor(capsys, files):
    _, market, plan, _ = files
    code, data = run_json(
        capsys, ["induce", "--market", market, "--plan", plan, "--lambda", "0"]
    )
    assert code == 0
    assert data["payoffs"]["X1,X2"] == ["2/5", "3/5"]


def test_check_eq_verdicts(capsys, files):
    _, market, plan, profile = files
    code, data = run_json(
        capsys, ["check-eq", "--market", market, "--plan", plan, "--profile", profile]
    )
    assert code == 0
    assert data["verdict"] == "equilibrium"
    assert data["method"] == "pure-only"

    code, data = run_json(
        capsys,
        [
            "check-eq", "--market", market, "--plan", plan,
            "--profile", profile, "--resolution", "20",
        ],
    )
    assert code == 0
    assert data["verdict"] == "no-violation-at-resolution"


def test_check_eq_rejects_bad_profile(tmp_path, capsys, files):
    _, market, plan, _ = files
    bad = tmp_path / "bad-profile.json"
    bad.write_text(json.dumps([["1/2", "1/4"], ["1", "0"]]))
    code = main(["check-eq", "--market", market, "--plan", plan, "--profile", str(bad)])
    assert code == 1
    assert "NonSimplexWeights" in capsys.readouterr().err


def test_check_optimal_and_builders(tmp_path, capsys, files):
    _, market, plan, _ = files
    code, data = run_json(capsys, ["check-optimal", "--market", market, "--plan", plan])
    assert code == 0
    assert data["verdict"] == "not-optimal-among-checked-profiles"

    built = tmp_path / "linear.json"
    assert main(["build-linear", "--market", market, "--players", "2",
                 "--out", str(built)]) == 0
    capsys.readouterr()
    doc = json.loads(built.read_text())
    assert doc["kind"] == "m_linear"
    assert doc["bound"] == "1051/1000"

    code, data = run_json(
        capsys, ["check-optimal", "--market", market, "--plan", str(built)]
    )
    assert code == 0
    assert data["verdict"] == "optimal"
    assert data["witness"] == ["X1", "X1"]


def test_find_m_and_build_bounded(tmp_path, capsys, files):
    _, market, _, _ = files
    code, data = run_json(capsys, ["find-m", "--market", market, "--grid", "10"])
    assert code == 0
    assert data["bound"] == "1/20"
    assert data["min_gap"] == "97/50000"
    assert len(data["witnesses"]) == 10

    out = tmp_path / "bounded.json"
    assert main(["build-bounded", "--market", market, "--players", "2",
                 "--grid", "10", "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text()) == {
        "players": 2, "kind": "bounded_linear", "bound": "1/20"
    }


def test_probe_universal_emits_reusable_market(tmp_path, capsys, files):
    _, _, plan, _ = files
    code, data = run_json(
        capsys,
        ["probe-universal", "--plan", plan, "--grid", "0:1:1", "--players", "2"],
    )
    assert code == 0
    assert data["verdict"] == "counterexample"
    assert data["violation"]["direction"] == "increase"
    assert data["counterexample"]["gain"] == "1/3"

    # the emitted market document feeds straight back into check-eq
    market_file = tmp_path / "refuted.json"
    market_file.write_text(json.dumps(data["counterexample"]["market"]))
    profile_file = tmp_path / "refuted-profile.json"
    profile_file.write_text(json.dumps(data["counterexample"]["profile"]))
    code, verdict = run_json(
        capsys,
        [
            "check-eq", "--market", str(market_file), "--plan", plan,
            "--profile", str(profile_file),
        ],
    )
    assert code == 0
    assert verdict["verdict"] == "not-equilibrium"
    assert verdict["deviations"][0]["gain"] == "1/3"


def test_probe_universal_grid_errors(capsys, files):
    _, _, plan, _ = files
    for grid in ("0:1", "1:0:1/2", "0:1:0"):
        assert main(["probe-universal", "--plan", plan, "--grid", grid,
                     "--players", "2"]) == 1
        assert "grid" in capsys.readouterr().err


def test_probe_universal_player_mismatch(capsys, files):
    _, _, plan, _ = files
    assert main(["probe-universal", "--plan", plan, "--grid", "0:1:1",
                 "--players", "3"]) == 1
    assert "players" in capsys.readouterr().err


def test_validate_plan(capsys, files):
    _, _, plan, _ = files
    code, data = run_json(capsys, ["validate-plan", "--plan", plan,
                                   "--samples", "100"])
    assert code == 0
    assert data["ok"] is True
    assert data["evaluations"] >= 100

    assert main(["validate-plan", "--plan", plan, "--range", "nonsense"]) == 1
    assert "range" in capsys.readouterr().err


# validate-plan's failure report.  Every built-in kind meets the allocation
# contract by construction, so the report is stood in for.
FAILURES = [
    ("off-simplex", SimplexReport(False, 3, ((F(1, 2), F(-1)), (F(3, 2), F(-1, 2)),
                                             "share outside [0, 1]")),
     {"ok": False, "evaluations": 3,
      "failure": {"r": ["1/2", "-1"], "shares": ["3/2", "-1/2"], "reason": "share outside [0, 1]"}},
     "FAILED after 3 evaluations: share outside [0, 1]\n"
     "  at r = (1/2, -1)\n"
     "  shares = (3/2, -1/2)\n"),
    ("raised", SimplexReport(False, 0, ((F(0), F(2)), None, "ZeroDivisionError('x')")),
     {"ok": False, "evaluations": 0,
      "failure": {"r": ["0", "2"], "shares": None, "reason": "ZeroDivisionError('x')"}},
     "FAILED after 0 evaluations: ZeroDivisionError('x')\n"
     "  at r = (0, 2)\n"),
]


@pytest.mark.parametrize(
    "report,document,text", [case[1:] for case in FAILURES], ids=[c[0] for c in FAILURES]
)
def test_validate_plan_reports_a_failure(monkeypatch, capsys, files, report, document, text):
    _, _, plan, _ = files
    monkeypatch.setattr(plans, "validate_simplex", lambda *args, **kwargs: report)
    code, data = run_json(capsys, ["validate-plan", "--plan", plan])
    assert code == 0
    assert data == document
    assert main(["validate-plan", "--plan", plan]) == 0
    assert capsys.readouterr().out == text


def test_missing_file_is_a_validation_error(capsys):
    assert main(["check-optimal", "--market", "/no/such/file.json",
                 "--plan", "/none.json"]) == 1
    assert "FileNotFoundError" in capsys.readouterr().err


def test_malformed_json_is_a_validation_error(tmp_path, capsys, files):
    _, market, _, _ = files
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["check-optimal", "--market", market, "--plan", str(broken)]) == 1
    assert "JSONDecodeError" in capsys.readouterr().err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_decimal_rendering(capsys, files):
    _, market, _, _ = files
    assert main(["--decimal", "find-m", "--market", market, "--grid", "4"]) == 0
    out = capsys.readouterr().out
    assert "~0.050000" in out


# ---------------------------------------------------------------------
# Malformed input: every rejection is exit 1 and a JSON error object
# ---------------------------------------------------------------------

WTA = {"players": 2, "kind": "wta"}
MARKET = {
    "actions": ["X1", "X2"],
    "atoms": [{"p": "3/5", "outcomes": ["21/20", "1051/1000"]},
              {"p": "2/5", "outcomes": ["21/20", "1"]}],
}
FLOAT_MARKET = {**MARKET, "atoms": [{"p": "1", "outcomes": [0.25, "1"]}]}
NEGATIVE_MARKET = {**MARKET, "atoms": [{"p": "-3/5", "outcomes": ["1", "1"]},
                                       {"p": "8/5", "outcomes": ["1", "2"]}]}
FLAT_MARKET = {"actions": ["A", "B"], "atoms": [{"p": "1", "outcomes": ["0", "0"]}]}
TIED_MARKET = {"actions": ["A", "B"], "atoms": [{"p": "1", "outcomes": ["1", "1"]}]}
ONE_ACTION_MARKET = {"actions": ["A"], "atoms": [{"p": "1", "outcomes": ["1"]}]}
STRING_MARKET = {**MARKET, "atoms": [{"p": "1", "outcomes": "12"}]}
STRING_TABLE = {"players": 2, "kind": "tabulated", "fallback": ["1/2", "1/2"],
                "points": [{"r": "01", "shares": ["1", "0"]}]}
NO_INTERVAL = {"players": 2, "kind": "m_linear", "bound": "4"}
BOUND_ZERO = {"players": 2, "kind": "bounded_linear", "bound": "0"}
SIX_ACTION_MARKET = {
    "actions": [f"A{i}" for i in range(6)],
    "atoms": [{"p": "1/2", "outcomes": ["3", "1", "2", "0", "5/2", "1"]},
              {"p": "1/4", "outcomes": ["1", "4", "0", "2", "1/2", "3"]},
              {"p": "1/4", "outcomes": ["2", "0", "3", "1", "1", "-1"]}],
}
SEVEN_PLAYER_PLAN = {"players": 7, "kind": "m_linear", "bound": "4", "interval": ["-1", "4"]}
# one atom, 10 000 actions: a grid of denominator 10 000 has C(19999, 9999)
# points, a count whose digits Python refuses to print
WIDE_MARKET = {"actions": [f"A{i}" for i in range(10_000)],
               "atoms": [{"p": "1", "outcomes": [str(i) for i in range(10_000)]}]}
WIDE_PROFILE = [["1"] + ["0"] * 9_999] * 2
# LO:HI:STEP = 0:Z:1/Z has Z^2 + 1 points, a count of 8 401 digits
HUGE_Z = "1" + "0" * 4_200
# a grid denominator of 4 300 digits, the most int() reads; on a 2-action
# market the grid's C(d + 1, 1) has 4 301.  A library caller can pass an int
# past that limit too: test_game.py::test_messages_write_ints_past_the_digit_limit
NINES = "9" * 4_300
# "1e4300" parses to 10**4300, one digit past the limit: a message must
# write it without int-to-str (test_game.py::test_messages_write_rationals_past_the_digit_limit)
TINY_ATOM_MARKET = {"actions": ["A"], "atoms": [{"p": "1e-4300", "outcomes": ["1"]},
                                                {"p": "1", "outcomes": ["1"]}]}
# a tie at expectation 10^-4300 / 2, whose denominator has 4 301 digits
TINY_TIE_MARKET = {"actions": ["A", "B"], "atoms": [{"p": "1/2", "outcomes": ["1e-4300", "0"]},
                                                    {"p": "1/2", "outcomes": ["0", "1e-4300"]}]}
# a WTA plan of 10^4000 players, a count int() still reads, on a one-atom
# market: it ended in an OverflowError traceback before the player cap
HUGE_WTA = {"players": 10**4000, "kind": "wta"}
# JSON text nested deeper than the decoder follows
DEEP_JSON = "[" * 100_000 + "]" * 100_000
PAIR_INCREASE = {
    "verdict": "counterexample",
    "violation": {"direction": "increase", "player": 0, "deficit": "1/2", "x": "0", "y": "1"},
    "counterexample": {
        "market": {"actions": ["X1", "X2"], "atoms": [{"p": "5/6", "outcomes": ["0", "1"]},
                                                      {"p": "1/6", "outcomes": ["6", "0"]}]},
        "profile": [["1", "0"], ["1", "0"]],
        "player": 0,
        "deviation": 1,
        "deviation_action": "X2",
        "gain": "1/3",
        "certificate": [["X1", "1"], ["X2", "5/6"]],
        "params": {"p": "5/6", "z": "6", "iterations": 0},
    },
}
PAIR_DECREASE = {
    "verdict": "counterexample",
    "violation": {"direction": "decrease", "player": 0, "deficit": "1/2", "x": "0", "y": "1/2"},
    "counterexample": {
        "market": {"actions": ["X1", "X2"], "atoms": [{"p": "1", "outcomes": ["1/2", "0"]}]},
        "profile": [["1", "0"], ["1", "0"]],
        "player": 0,
        "deviation": 1,
        "deviation_action": "X2",
        "gain": "1/2",
        "certificate": [["X1", "1/2"], ["X2", "0"]],
        "params": {},
    },
}
# (kind, players, grid, the document, or the sha256 of stdout for the two
# coordinate violations: WTA(3) an increase on 64 atoms with escalation
# params, LTA(3) a decrease on 27 atoms)
PROBE_DOCUMENTS = [
    ("wta", 2, "0:1:1", PAIR_INCREASE),
    ("lta", 2, "0:1:1/2", PAIR_DECREASE),
    ("wta", 3, "0:2:1", "09dcfa4471b5cca282c4520d806ca6198325828cae39c0396ac0c5d2df37da5b"),
    ("lta", 3, "0:2:1", "aeb36fff15e3a974131e66e1177b91629cf4c52f6867fbd7101db44b5dde8afa"),
    # the increase builder's market built a second time: one escape doubling
    ("wta", 4, "0:3:1", "0cca02f307220d1c5ceb360b68c58a80aba2af717490b6d370a0cdb77e673a26"),
]


@pytest.mark.parametrize("kind,players,grid,expected", PROBE_DOCUMENTS,
                         ids=[f"{c[0]}{c[1]}" for c in PROBE_DOCUMENTS])
def test_probe_universal_document_byte_for_byte(tmp_path, capsys, kind, players, grid, expected):
    """The --json probe-universal stdout, pinned for a pair and a coordinate
    violation in each direction."""
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"players": players, "kind": kind}))
    assert main(["--json", "probe-universal", "--plan", str(plan), "--grid", grid,
                 "--players", str(players)]) == 0
    out = capsys.readouterr().out
    if isinstance(expected, dict):
        assert out == json.dumps(expected, indent=2) + "\n"
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == expected


# a 3-action market whose induce tensors hold profiles of three distinct
# actions; (plan, --lambda, the sha256 of --json induce stdout)
THREE_ACTION_MARKET = {
    "actions": ["A", "B", "C"],
    "atoms": [{"p": "1/2", "outcomes": ["1", "3/2", "0"]},
              {"p": "1/3", "outcomes": ["2", "1/4", "1"]},
              {"p": "1/6", "outcomes": ["-1", "5", "3/2"]}],
}
INDUCE_DOCUMENTS = {
    "wta3": ({"players": 3, "kind": "wta"}, "0",
             "0df7ed82f9f0cc8b255820e16eb6aa38bfc92d71eb3965c03bce0b00118b93eb"),
    "lta3": ({"players": 3, "kind": "lta"}, "0",
             "1b703e390d39c48cd4e2f5b4695104c0d49b2f86c37434cfc4dda749e75d48d3"),
    "tabulated3": ({"players": 3, "kind": "tabulated", "fallback": ["1/3", "1/3", "1/3"],
                    "points": [{"r": ["1", "3/2", "0"], "shares": ["1/2", "1/2", "0"]},
                               {"r": ["2", "1/4", "1"], "shares": ["1", "0", "0"]},
                               {"r": ["0", "1", "1"], "shares": ["0", "1/4", "3/4"]}]}, "0",
                   "8712b2c1f3841b416523d8a89779f93af72ac9dbf16b106a4a804106ae11dde4"),
    "m_linear3": ({"players": 3, "kind": "m_linear", "bound": "4", "interval": ["-1", "5"]},
                  "1/3", "09b4956e7472bbc1f8daf19d27494b07cb178fbfbb4133bbcba8584275c8e5b8"),
}


@pytest.mark.parametrize("plan,lam,expected", INDUCE_DOCUMENTS.values(), ids=INDUCE_DOCUMENTS)
def test_induce_document_byte_for_byte(tmp_path, capsys, plan, lam, expected):
    """The --json induce stdout, all 27 cells, pinned for the two anonymous
    kinds that share one cell per sorted profile, a tabulated plan that does
    not, and an m_linear plan at earnings weight 1/3."""
    market, plan_file = tmp_path / "market.json", tmp_path / "plan.json"
    market.write_text(json.dumps(THREE_ACTION_MARKET))
    plan_file.write_text(json.dumps(plan))
    assert main(["--json", "induce", "--market", str(market), "--plan", str(plan_file),
                 "--lambda", lam]) == 0
    out = capsys.readouterr().out
    assert len(json.loads(out)["payoffs"]) == 27
    assert hashlib.sha256(out.encode()).hexdigest() == expected


# a lone surrogate is a str, written by json.dumps as the escape \ud800, that
# no output can encode
SURROGATE_MARKET = {"actions": ["\ud800", "b"], "atoms": [{"p": "1", "outcomes": ["2", "1"]}]}
# a 2-player table whose fallback, or whose one row, has the wrong share count
SHORT_FALLBACK = {"players": 2, "kind": "tabulated", "fallback": ["1"], "points": []}
LONG_ROW = {"players": 2, "kind": "tabulated", "fallback": ["1/2", "1/2"],
            "points": [{"r": ["0", "1"], "shares": ["1", "0", "0"]}]}
# a count of 4 001 digits, which int() still reads
HUGE = str(10**4000)
# long inputs a message quotes, each written by its size: a plan's players
# as a string and as a list, a plan kind, two equal labels, an outcome and a
# profile row, each of 100 000 characters or items, on a one-atom market
ONE_ATOM_MARKET = {"actions": ["A", "B"], "atoms": [{"p": "1", "outcomes": ["1", "0"]}]}
LONG_TEXT = "9" * 100_000
LONG_LABELS_MARKET = {**ONE_ATOM_MARKET, "actions": ["a" * 100_000] * 2}
LONG_OUTCOME_MARKET = {**ONE_ATOM_MARKET,
                       "atoms": [{"p": "1", "outcomes": ["x" * 100_000, "0"]}]}
# LO:HI:STEP = 0:Z:1/Z with Z of 4 201 nines, a grid text of 8 407 characters
NINES_Z = "9" * 4_201
# long vectors a message writes, each written by its length: a table key of
# 100 000 zeros, a profile row of 100 000 ones, a row out of [0, 1] of
# 100 000 items, and a 20 000-player table whose fallback holds 20 000 ones
LONG_KEY_TABLE = {"players": 2, "kind": "tabulated", "fallback": ["1/2", "1/2"],
                  "points": [{"r": ["0"] * 100_000, "shares": ["1", "0"]}]}
LONG_FALLBACK_TABLE = {"players": 20_000, "kind": "tabulated", "fallback": ["1"] * 20_000,
                       "points": []}
# one result vector, listed as ["1/2", "0"] and as ["0.5", "0"]
REPEATED_TABLE = {"players": 2, "kind": "tabulated", "fallback": ["1/2", "1/2"],
                  "points": [{"r": ["1/2", "0"], "shares": ["1", "0"]},
                             {"r": ["0.5", "0"], "shares": ["0", "1"]}]}

# (case, documents by placeholder, argv, exit code, error type under --json)
REJECTED = [
    ("replicate-lambda-one", {}, ["replicate-example", "--lambda", "1"], "InvalidParameter"),
    ("replicate-lambda-text", {}, ["replicate-example", "--lambda", "x"], "UnparsableNumber"),
    ("induce-float-in-market", {"M": FLOAT_MARKET, "P": WTA},
     ["induce", "--market", "M", "--plan", "P"], "FloatRejected"),
    ("induce-lambda-one", {"M": MARKET, "P": WTA},
     ["induce", "--market", "M", "--plan", "P", "--lambda", "1"], "InvalidParameter"),
    ("induce-lambda-of-4001-digits", {"M": MARKET, "P": WTA},
     ["induce", "--market", "M", "--plan", "P", "--lambda", "1e4000"], "InvalidParameter"),
    ("induce-tensor-cap", {"M": SIX_ACTION_MARKET, "P": SEVEN_PLAYER_PLAN},  # 6^7 profiles
     ["induce", "--market", "M", "--plan", "P"], "TensorCapExceeded"),
    ("check-eq-resolution-zero", {"M": MARKET, "P": WTA, "Q": [["1", "0"], ["1", "0"]]},
     ["check-eq", "--market", "M", "--plan", "P", "--profile", "Q", "--resolution", "0"],
     "InvalidParameter"),
    ("check-eq-float-profile", {"M": MARKET, "P": WTA, "Q": [[0.5, "1/2"], ["1", "0"]]},
     ["check-eq", "--market", "M", "--plan", "P", "--profile", "Q"], "FloatRejected"),
    ("check-eq-profile-arity", {"M": MARKET, "P": WTA, "Q": [["1", "0", "0"]] * 2},
     ["check-eq", "--market", "M", "--plan", "P", "--profile", "Q"], "ArityMismatch"),
    ("check-optimal-m-linear-without-interval", {"M": MARKET, "P": NO_INTERVAL},
     ["check-optimal", "--market", "M", "--plan", "P"], "ArityMismatch"),
    ("check-optimal-bound-zero", {"M": MARKET, "P": BOUND_ZERO},
     ["check-optimal", "--market", "M", "--plan", "P"], "InvalidParameter"),
    ("check-optimal-unknown-kind", {"M": MARKET, "P": {"players": 2, "kind": "median"}},
     ["check-optimal", "--market", "M", "--plan", "P"], "ArityMismatch"),
    ("check-optimal-plan-is-a-list", {"M": MARKET, "P": [1, 2]},
     ["check-optimal", "--market", "M", "--plan", "P"], "ArityMismatch"),
    ("check-optimal-market-actions-not-a-list", {"M": {"actions": 5, "atoms": []}, "P": WTA},
     ["check-optimal", "--market", "M", "--plan", "P"], "ArityMismatch"),
    ("check-optimal-null-probability",
     {"M": {"actions": ["A"], "atoms": [{"p": None, "outcomes": ["1"]}]}, "P": WTA},
     ["check-optimal", "--market", "M", "--plan", "P"], "FloatRejected"),
    ("check-optimal-outcomes-as-string", {"M": STRING_MARKET, "P": WTA},
     ["check-optimal", "--market", "M", "--plan", "P"], "ArityMismatch"),
    ("check-optimal-integer-labels", {"M": {**MARKET, "actions": [1, 2]}, "P": WTA},
     ["check-optimal", "--market", "M", "--plan", "P"], "ArityMismatch"),
    ("check-optimal-labels-as-string", {"M": {**MARKET, "actions": "X1"}, "P": WTA},
     ["check-optimal", "--market", "M", "--plan", "P"], "ArityMismatch"),
    ("validate-plan-table-key-as-string", {"P": STRING_TABLE},
     ["validate-plan", "--plan", "P"], "ArityMismatch"),
    ("check-optimal-float-players", {"M": MARKET, "P": {**WTA, "players": 2.7}},
     ["check-optimal", "--market", "M", "--plan", "P"], "FloatRejected"),
    ("check-optimal-text-players", {"M": MARKET, "P": {**WTA, "players": "3"}},
     ["check-optimal", "--market", "M", "--plan", "P"], "ArityMismatch"),
    ("check-optimal-bool-players", {"M": MARKET, "P": {**WTA, "players": True}},
     ["check-optimal", "--market", "M", "--plan", "P"], "ArityMismatch"),
    ("induce-outcomes-as-object",  # read as its keys, it would load as outcomes (3, 5)
     {"M": {**MARKET, "atoms": [{"p": "1", "outcomes": {"3": "x", "5": "y"}}]}, "P": WTA},
     ["induce", "--market", "M", "--plan", "P"], "ArityMismatch"),
    ("validate-plan-fallback-as-object",  # read as its keys, it would be (1/2, 1/2)
     {"P": {"players": 2, "kind": "tabulated", "fallback": {"1/2": "a", "2/4": "b"},
            "points": []}},
     ["validate-plan", "--plan", "P"], "ArityMismatch"),
    ("check-optimal-short-interval",
     {"M": MARKET, "P": {**NO_INTERVAL, "interval": ["1"]}},
     ["check-optimal", "--market", "M", "--plan", "P"], "ArityMismatch"),
    ("build-linear-one-player", {"M": MARKET},
     ["build-linear", "--market", "M", "--players", "1"], "ArityMismatch"),
    ("build-bounded-grid-zero", {"M": MARKET},
     ["build-bounded", "--market", "M", "--players", "2", "--grid", "0"], "InvalidParameter"),
    ("find-m-grid-zero", {"M": MARKET}, ["find-m", "--market", "M", "--grid", "0"],
     "InvalidParameter"),
    ("find-m-grid-cap", {"M": MARKET}, ["find-m", "--market", "M", "--grid", "300000"],
     "GridCapExceeded"),
    ("check-eq-resolution-cap", {"M": MARKET, "P": WTA, "Q": [["1", "0"], ["1", "0"]]},
     ["check-eq", "--market", "M", "--plan", "P", "--profile", "Q", "--resolution", "300000"],
     "GridCapExceeded"),
    ("find-m-negative-probability", {"M": NEGATIVE_MARKET},
     ["find-m", "--market", "M", "--grid", "4"], "NonPositiveProbability"),
    ("find-m-tied-best", {"M": TIED_MARKET}, ["find-m", "--market", "M", "--grid", "4"],
     "ExpectationNotUnique"),
    ("find-m-missing-file", {}, ["find-m", "--market", "/no/such/market.json", "--grid", "4"],
     "FileNotFoundError"),
    ("find-m-one-action", {"M": ONE_ACTION_MARKET}, ["find-m", "--market", "M", "--grid", "4"],
     "DegenerateSupport"),
    ("build-bounded-one-action", {"M": ONE_ACTION_MARKET},
     ["build-bounded", "--market", "M", "--players", "2", "--grid", "4"], "DegenerateSupport"),
    ("probe-grid-text", {"P": WTA},
     ["probe-universal", "--plan", "P", "--grid", "a:b:c", "--players", "2"],
     "UnparsableNumber"),
    ("probe-player-mismatch", {"P": WTA},
     ["probe-universal", "--plan", "P", "--grid", "0:1:1", "--players", "3"], "BonusLabError"),
    ("probe-pair-grid-of-one-point", {"P": WTA},  # no pair to probe
     ["probe-universal", "--plan", "P", "--grid", "0:0:1", "--players", "2"], "ArityMismatch"),
    ("probe-pair-cap", {"P": WTA},  # C(701, 2) = 245 350 point pairs
     ["probe-universal", "--plan", "P", "--grid", "0:700:1", "--players", "2"],
     "GridCapExceeded"),
    ("probe-grid-cap", {"P": WTA},  # 10 000 001 points, counted before any is built
     ["probe-universal", "--plan", "P", "--grid", "0:10000000:1", "--players", "2"],
     "GridCapExceeded"),
    ("probe-coordinate-cap", {"P": {"players": 3000, "kind": "wta"}},  # 3001^3000 base points
     ["probe-universal", "--plan", "P", "--grid", "0:3000:1", "--players", "3000"],
     "GridCapExceeded"),
    ("validate-plan-float-bound", {"P": {"players": 2, "kind": "bounded_linear", "bound": 0.5}},
     ["validate-plan", "--plan", "P"], "FloatRejected"),
    ("validate-plan-negative-samples", {"P": WTA},
     ["validate-plan", "--plan", "P", "--samples", "-5"], "InvalidParameter"),
    ("validate-plan-zero-samples", {"P": WTA},
     ["validate-plan", "--plan", "P", "--samples", "0"], "InvalidParameter"),
    ("validate-plan-bad-range", {"P": WTA}, ["validate-plan", "--plan", "P", "--range", "x"],
     "BonusLabError"),
    ("validate-plan-inverted-range", {"P": WTA},
     ["validate-plan", "--plan", "P", "--range=2:-2"], "InvalidParameter"),
    ("find-m-grid-cap-wide-market", {"M": WIDE_MARKET},
     ["find-m", "--market", "M", "--grid", "10000"], "GridCapExceeded"),
    ("check-eq-resolution-cap-wide-market", {"M": WIDE_MARKET, "P": WTA, "Q": WIDE_PROFILE},
     ["check-eq", "--market", "M", "--plan", "P", "--profile", "Q", "--resolution", "10000"],
     "GridCapExceeded"),
    ("find-m-grid-past-the-digit-limit", {"M": MARKET},
     ["find-m", "--market", "M", "--grid", NINES], "GridCapExceeded"),
    ("find-m-tie-past-the-digit-limit", {"M": TINY_TIE_MARKET},
     ["find-m", "--market", "M", "--grid", "2"], "ExpectationNotUnique"),
    ("check-eq-resolution-past-the-digit-limit",
     {"M": MARKET, "P": WTA, "Q": [["1", "0"], ["1", "0"]]},
     ["check-eq", "--market", "M", "--plan", "P", "--profile", "Q", "--resolution", NINES],
     "GridCapExceeded"),
    ("probe-grid-cap-fine-step", {"P": WTA},
     ["probe-universal", "--plan", "P", "--grid", f"0:{HUGE_Z}:1/{HUGE_Z}", "--players", "2"],
     "GridCapExceeded"),
    ("validate-plan-players-past-the-digit-limit",  # raw JSON text: 5 001 digits
     {"P": '{"players": %s, "kind": "wta"}' % ("1" * 5_001)},
     ["validate-plan", "--plan", "P"], "UnparsableNumber"),
    ("induce-lambda-past-the-digit-limit", {"M": MARKET, "P": WTA},
     ["induce", "--market", "M", "--plan", "P", "--lambda=-1e4300"], "InvalidParameter"),
    ("validate-plan-range-past-the-digit-limit", {"P": WTA},
     ["validate-plan", "--plan", "P", "--range=1e4300:0"], "InvalidParameter"),
    ("check-optimal-mass-past-the-digit-limit", {"M": TINY_ATOM_MARKET, "P": WTA},
     ["check-optimal", "--market", "M", "--plan", "P"], "NonUnitMass"),
    ("check-eq-weights-past-the-digit-limit",
     {"M": MARKET, "P": WTA, "Q": [["1e-4300", "1"], ["1", "0"]]},
     ["check-eq", "--market", "M", "--plan", "P", "--profile", "Q"], "NonSimplexWeights"),
    ("validate-plan-bound-past-the-digit-limit",
     {"P": {"players": 2, "kind": "bounded_linear", "bound": "-1e4300"}},
     ["validate-plan", "--plan", "P"], "InvalidParameter"),
    # the earnings weight parses and lies in [0, 1), but a report number built
    # from it is past the digit limit: the document refuses to write it
    ("induce-report-past-the-digit-limit", {"M": MARKET, "P": WTA},
     ["induce", "--market", "M", "--plan", "P", "--lambda=1e-4300"], "UnwritableNumber"),
    ("induce-decimal-report-past-the-digit-limit", {"M": MARKET, "P": WTA},
     ["--decimal", "induce", "--market", "M", "--plan", "P", "--lambda=1e-4299"],
     "UnwritableNumber"),
    ("replicate-report-past-the-digit-limit", {},
     ["replicate-example", "--lambda=1e-4300"], "UnwritableNumber"),
    ("check-optimal-plan-not-json", {"M": MARKET, "P": "{not json"},
     ["check-optimal", "--market", "M", "--plan", "P"], "ArityMismatch"),
    ("find-m-market-nested-too-deep", {"M": DEEP_JSON},
     ["find-m", "--market", "M", "--grid", "2"], "ArityMismatch"),
    ("find-m-market-not-utf8", {"M": b'{"actions": ["\xff"]}'},
     ["find-m", "--market", "M", "--grid", "2"], "ArityMismatch"),
    ("find-m-label-not-utf8", {"M": SURROGATE_MARKET},
     ["find-m", "--market", "M", "--grid", "2"], "ArityMismatch"),
    ("find-m-no-actions", {"M": {"actions": [], "atoms": [{"p": "1", "outcomes": []}]}},
     ["find-m", "--market", "M", "--grid", "2"], "ArityMismatch"),
    ("find-m-atom-is-a-string", {"M": {"actions": ["A"], "atoms": ["x"]}},
     ["find-m", "--market", "M", "--grid", "2"], "ArityMismatch"),
    ("find-m-market-is-a-list", {"M": [{"p": "1", "outcomes": ["1"]}]},
     ["find-m", "--market", "M", "--grid", "2"], "ArityMismatch"),
    ("find-m-atom-without-outcomes", {"M": {"actions": ["A"], "atoms": [{"p": "1"}]}},
     ["find-m", "--market", "M", "--grid", "2"], "ArityMismatch"),
    ("find-m-market-without-atoms", {"M": {"actions": ["A", "B"]}},
     ["find-m", "--market", "M", "--grid", "2"], "ArityMismatch"),
    ("find-m-no-atoms", {"M": {"actions": ["A", "B"], "atoms": []}},
     ["find-m", "--market", "M", "--grid", "2"], "NonUnitMass"),
    ("check-eq-profile-is-an-object", {"M": MARKET, "P": WTA, "Q": {"0": ["1", "0"]}},
     ["check-eq", "--market", "M", "--plan", "P", "--profile", "Q"], "NonSimplexWeights"),
    ("check-eq-profile-entry-is-a-number", {"M": MARKET, "P": WTA, "Q": [1, ["1", "0"]]},
     ["check-eq", "--market", "M", "--plan", "P", "--profile", "Q"], "NonSimplexWeights"),
    ("check-eq-profile-players", {"M": MARKET, "P": WTA, "Q": [["1", "0"]] * 3},
     ["check-eq", "--market", "M", "--plan", "P", "--profile", "Q"], "ArityMismatch"),
    ("validate-plan-repeated-table-key", {"P": REPEATED_TABLE},
     ["validate-plan", "--plan", "P"], "NonSimplexTable"),
    ("check-optimal-players-past-the-cap", {"M": TIED_MARKET, "P": HUGE_WTA},
     ["check-optimal", "--market", "M", "--plan", "P"], "ArityMismatch"),
    ("validate-plan-samples-past-the-cap", {"P": WTA},
     ["validate-plan", "--plan", "P", "--samples", "1000000000"], "InvalidParameter"),
    ("validate-plan-samples-of-4001-digits", {"P": WTA},
     ["validate-plan", "--plan", "P", "--samples", HUGE], "InvalidParameter"),
    ("find-m-grid-of-4001-digits", {"M": MARKET},
     ["find-m", "--market", "M", "--grid", HUGE], "GridCapExceeded"),
    ("check-eq-resolution-of-4001-digits",
     {"M": MARKET, "P": WTA, "Q": [["1", "0"], ["1", "0"]]},
     ["check-eq", "--market", "M", "--plan", "P", "--profile", "Q", "--resolution", HUGE],
     "GridCapExceeded"),
    ("probe-players-of-4001-digits", {"P": WTA},
     ["probe-universal", "--plan", "P", "--grid", "0:2:1", "--players", HUGE], "BonusLabError"),
    ("validate-plan-fallback-of-one-share", {"P": SHORT_FALLBACK},
     ["validate-plan", "--plan", "P"], "NonSimplexTable"),
    ("validate-plan-row-of-three-shares", {"P": LONG_ROW},
     ["validate-plan", "--plan", "P"], "NonSimplexTable"),
    ("check-optimal-players-as-a-long-string",
     {"M": ONE_ATOM_MARKET, "P": {**WTA, "players": LONG_TEXT}},
     ["check-optimal", "--market", "M", "--plan", "P"], "ArityMismatch"),
    ("check-optimal-players-as-a-long-list",
     {"M": ONE_ATOM_MARKET, "P": {**WTA, "players": [9] * 100_000}},
     ["check-optimal", "--market", "M", "--plan", "P"], "ArityMismatch"),
    ("check-optimal-long-unknown-kind",
     {"M": ONE_ATOM_MARKET, "P": {"players": 2, "kind": "k" * 100_000}},
     ["check-optimal", "--market", "M", "--plan", "P"], "ArityMismatch"),
    ("probe-grid-of-a-long-text", {"P": WTA},
     ["probe-universal", "--plan", "P", "--grid", f"0:{NINES_Z}:1/{NINES_Z}", "--players", "2"],
     "GridCapExceeded"),
    ("find-m-long-equal-labels", {"M": LONG_LABELS_MARKET},
     ["find-m", "--market", "M", "--grid", "2"], "ArityMismatch"),
    ("find-m-long-outcome", {"M": LONG_OUTCOME_MARKET},
     ["find-m", "--market", "M", "--grid", "2"], "UnparsableNumber"),
    ("check-eq-profile-row-as-a-long-string",
     {"M": ONE_ATOM_MARKET, "P": WTA, "Q": ["r" * 100_000, ["1", "0"]]},
     ["check-eq", "--market", "M", "--plan", "P", "--profile", "Q"], "NonSimplexWeights"),
    ("validate-plan-long-table-key", {"P": LONG_KEY_TABLE},
     ["validate-plan", "--plan", "P"], "ArityMismatch"),
    ("check-eq-long-profile-row-off-the-sum",
     {"M": ONE_ATOM_MARKET, "P": WTA, "Q": [["1"] * 100_000, ["1", "0"]]},
     ["check-eq", "--market", "M", "--plan", "P", "--profile", "Q"], "NonSimplexWeights"),
    ("check-eq-long-profile-row-out-of-range",
     {"M": ONE_ATOM_MARKET, "P": WTA, "Q": [["2", "-1"] + ["0"] * 99_998, ["1", "0"]]},
     ["check-eq", "--market", "M", "--plan", "P", "--profile", "Q"], "NonSimplexWeights"),
    ("validate-plan-long-fallback", {"P": LONG_FALLBACK_TABLE},
     ["validate-plan", "--plan", "P"], "NonSimplexTable"),
    ("check-optimal-exponent-past-the-digit-limit",
     {"M": {"actions": ["A"], "atoms": [{"p": "1", "outcomes": ["1e100000000"]}]}, "P": WTA},
     ["check-optimal", "--market", "M", "--plan", "P"], "UnparsableNumber"),
]

USAGE = [
    ("find-m-grid-text", {"M": MARKET}, ["find-m", "--market", "M", "--grid", "four"]),
    ("check-eq-resolution-text", {"M": MARKET, "P": WTA, "Q": [["1", "0"], ["1", "0"]]},
     ["check-eq", "--market", "M", "--plan", "P", "--profile", "Q", "--resolution", "abc"]),
    ("check-eq-resolution-pure", {"M": MARKET, "P": WTA, "Q": [["1", "0"], ["1", "0"]]},
     ["check-eq", "--market", "M", "--plan", "P", "--profile", "Q", "--resolution", "pure"]),
    ("check-optimal-resolution-text", {"M": MARKET, "P": WTA},
     ["check-optimal", "--market", "M", "--plan", "P", "--resolution", "1/2"]),
    ("build-linear-without-players", {"M": MARKET}, ["build-linear", "--market", "M"]),
]


def test_check_optimal_is_not_refused_for_the_size_of_the_tensor(tmp_path, capsys):
    argv = ["check-optimal", "--market", "M", "--plan", "P"]
    documents = {"M": SIX_ACTION_MARKET, "P": SEVEN_PLAYER_PLAN}
    assert main(["--json", *_materialize(tmp_path, documents, argv)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "optimal"


def test_caps_are_not_flags(capsys):
    for argv in (["--help"], ["probe-universal", "--help"]):
        with pytest.raises(SystemExit):
            main(argv)
        usage = capsys.readouterr().out
        for flag in ("--tensor-cap", "--atom-cap", "--max-iterations"):
            assert flag not in usage


# float literals that a float would round or overflow, placed in a market
# and in a plan document as raw JSON text
FLOAT_LITERALS = ["1.0000000000000001", "1e400"]
RAW_DOCUMENTS = [
    ("market", '{"actions": ["A", "B"], "atoms": [{"p": "1", "outcomes": [%s, "1"]}]}',
     ["find-m", "--market", "DOC", "--grid", "2"]),
    ("plan", '{"players": 2, "kind": "bounded_linear", "bound": %s}',
     ["validate-plan", "--plan", "DOC"]),
]


@pytest.mark.parametrize("literal", FLOAT_LITERALS)
@pytest.mark.parametrize(
    "template,argv", [case[1:] for case in RAW_DOCUMENTS], ids=[c[0] for c in RAW_DOCUMENTS]
)
def test_float_literals_are_quoted_as_written(tmp_path, capsys, template, argv, literal):
    path = tmp_path / "doc.json"
    path.write_text(template % literal)
    code = main(["--json", *[str(path) if arg == "DOC" else arg for arg in argv]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "FloatRejected"
    assert literal in error["message"]


def test_one_parser_serves_every_request(capsys, files):
    """The parser is built once per process; a usage error in between leaves
    it as it was, and each output matches a run on a freshly built parser."""
    _, market, plan, profile = files
    requests = [
        ["--json", "check-eq", "--market", market, "--plan", plan, "--profile", profile],
        ["find-m", "--market", market, "--grid", "four"],
        ["--decimal", "find-m", "--market", market, "--grid", "3"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    _build_parser.cache_clear()
    shared = [run(argv) for argv in requests]
    assert _build_parser() is _build_parser()
    fresh = []
    for argv in requests:
        _build_parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0]


def _materialize(tmp_path, documents, argv):
    """Write each document, a string as raw JSON text and bytes as they are,
    and put its path in argv."""
    paths = {}
    for name, data in documents.items():
        path = tmp_path / f"{name}.json"
        if isinstance(data, bytes):
            path.write_bytes(data)
        else:
            path.write_text(data if isinstance(data, str) else json.dumps(data))
        paths[name] = str(path)
    return [paths.get(arg, arg) for arg in argv]


def test_build_linear_on_a_flat_market(tmp_path, capsys):
    """Where every outcome is 0 the builder returns the interval [0, 0] with
    bound 1, and check-optimal reads that plan as a decisive optimal."""
    market, built = tmp_path / "flat.json", tmp_path / "linear.json"
    market.write_text(json.dumps(FLAT_MARKET))
    argv = ["build-linear", "--market", str(market), "--players", "2", "--out", str(built)]
    assert main(argv) == 0
    capsys.readouterr()
    assert json.loads(built.read_text()) == {
        "players": 2, "kind": "m_linear", "bound": "1", "interval": ["0", "0"]
    }
    code, data = run_json(capsys, ["check-optimal", "--market", str(market), "--plan", str(built)])
    assert code == 0
    assert (data["verdict"], data["witness"]) == ("optimal", ["A", "A"])


@pytest.mark.parametrize(
    "documents,argv,error_type", [case[1:] for case in REJECTED], ids=[c[0] for c in REJECTED]
)
def test_malformed_input_is_a_json_error(tmp_path, capsys, documents, argv, error_type):
    code = main(["--json", *_materialize(tmp_path, documents, argv)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == error_type
    assert isinstance(error["message"], str) and error["message"]


@pytest.mark.parametrize("case", ["check-optimal-players-past-the-cap",
                                  "validate-plan-samples-past-the-cap"])
def test_cap_refusals_end_within_a_second(tmp_path, capsys, case):
    """The player cap and the sample cap refuse before any work is done."""
    ((documents, argv, error_type),) = [c[1:] for c in REJECTED if c[0] == case]
    argv = _materialize(tmp_path, documents, argv)
    start = time.perf_counter()
    code = main(["--json", *argv])
    assert time.perf_counter() - start < 1
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"]["type"] == error_type


HUGE_COUNTS = [
    ("check-optimal-players-past-the-cap", "an int of 4001 digits players exceed cap 20000"),
    ("validate-plan-samples-of-4001-digits",
     "an int of 4001 digits samples x 2 players exceed cap 200000 sampled coordinates"),
    ("find-m-grid-of-4001-digits",
     "C(an int of 4001 digits + 2 - 1, 1) grid points over 2 actions exceed cap 200000"),
    ("check-eq-resolution-of-4001-digits",
     "C(an int of 4001 digits + 2 - 1, 1) grid points over 2 actions exceed cap 200000"),
    ("probe-players-of-4001-digits",
     "plan is for 2 players, --players says an int of 4001 digits"),
    ("induce-lambda-of-4001-digits",
     "earnings weight must lie in [0, 1), got a rational of 4001 digits"),
]


@pytest.mark.parametrize("case,message", HUGE_COUNTS, ids=[c[0] for c in HUGE_COUNTS])
def test_a_refused_huge_count_is_written_by_its_size(tmp_path, capsys, case, message):
    """A count of 4 001 digits, from a document or a flag, is written by its
    digit count: the error object stays short."""
    ((documents, argv, _),) = [c[1:] for c in REJECTED if c[0] == case]
    assert main(["--json", *_materialize(tmp_path, documents, argv)]) == 1
    err = capsys.readouterr().err
    assert json.loads(err)["error"]["message"] == message
    assert len(message) < 120 and len(err) < 512


SHARE_COUNTS = [
    ("validate-plan-fallback-of-one-share", "fallback: expected 2 shares, got 1"),
    ("validate-plan-row-of-three-shares", "table entry (0, 1): expected 2 shares, got 3"),
]


@pytest.mark.parametrize("case,message", SHARE_COUNTS, ids=[c[0] for c in SHARE_COUNTS])
def test_a_table_of_the_wrong_share_count_is_refused(tmp_path, capsys, case, message):
    """A tabulated plan's fallback and each row hold one share per player;
    any other count is refused as the plan loads."""
    ((documents, argv, _),) = [c[1:] for c in REJECTED if c[0] == case]
    assert main(["--json", *_materialize(tmp_path, documents, argv)]) == 1
    assert json.loads(capsys.readouterr().err)["error"]["message"] == message


MALFORMED_MARKETS = [
    "find-m-atom-is-a-string",
    "find-m-market-is-a-list",
    "find-m-atom-without-outcomes",
    "find-m-market-without-atoms",
]


@pytest.mark.parametrize("case", MALFORMED_MARKETS)
def test_a_market_document_of_the_wrong_shape_is_refused(tmp_path, capsys, case):
    """A market document that is not an object of actions and atoms, each
    atom an object with "p" and "outcomes", is refused as malformed.  Only
    the prefix is matched: the text Python's own error adds after it
    differs between versions."""
    ((documents, argv, error_type),) = [c[1:] for c in REJECTED if c[0] == case]
    assert main(["--json", *_materialize(tmp_path, documents, argv)]) == 1
    err = capsys.readouterr().err
    error = json.loads(err)["error"]
    assert error["type"] == error_type
    assert error["message"].startswith("malformed market document: ")
    assert len(err) < 512


LONG_INPUTS = [
    "check-optimal-players-as-a-long-string",
    "check-optimal-players-as-a-long-list",
    "check-optimal-long-unknown-kind",
    "probe-grid-of-a-long-text",
    "find-m-long-equal-labels",
    "find-m-long-outcome",
    "check-eq-profile-row-as-a-long-string",
    "validate-plan-long-table-key",
    "check-eq-long-profile-row-off-the-sum",
    "check-eq-long-profile-row-out-of-range",
    "validate-plan-long-fallback",
]


@pytest.mark.parametrize("case", LONG_INPUTS)
def test_a_long_quoted_input_is_written_by_its_size(tmp_path, capsys, case):
    """A message quotes an input of 100 000 characters or items by its kind
    and size, and writes a vector of over 20 numbers by its length, so the
    error object stays short."""
    ((documents, argv, error_type),) = [c[1:] for c in REJECTED if c[0] == case]
    assert main(["--json", *_materialize(tmp_path, documents, argv)]) == 1
    err = capsys.readouterr().err
    assert json.loads(err)["error"]["type"] == error_type
    assert len(err) < 512


def test_only_the_writers_of_documents_import_format_rational():
    """A report document is written where it is read back: in src/bonuslab
    only rational, which defines it, market and plans, which write their
    documents, cli, which writes every report, and the package's exports
    import format_rational."""
    package = Path(bonuslab.__file__).parent
    importers = {
        p.stem
        for p in package.glob("*.py")
        for node in ast.walk(ast.parse(p.read_text(), str(p)))
        if isinstance(node, ast.ImportFrom)
        and any(alias.name == "format_rational" for alias in node.names)
    }
    assert importers <= {"rational", "market", "plans", "cli", "__init__"}


# Read order.  Each document below fails its reader with an error of its own;
# each request also carries a bad option of its command.
BAD_DOCUMENTS = {"M": {"actions": 5, "atoms": []}, "P": {"players": 2, "kind": "median"},
                 "Q": [1, ["1", "0"]]}
GOOD_DOCUMENTS = {"M": MARKET, "P": WTA, "Q": [["1", "0"], ["1", "0"]]}
READERS = {"M": market_from_dict, "P": plan_from_dict, "Q": profile_from_list}
READ_ORDER = [
    ("induce", ["induce", "--market", "M", "--plan", "P", "--lambda", "x"]),
    ("check-eq", ["check-eq", "--market", "M", "--plan", "P", "--profile", "Q", "--lambda", "x"]),
    ("check-optimal", ["check-optimal", "--market", "M", "--plan", "P", "--resolution", "0"]),
    ("build-linear", ["build-linear", "--market", "M", "--players", "1"]),
    ("build-bounded", ["build-bounded", "--market", "M", "--players", "2", "--grid", "0"]),
    ("find-m", ["find-m", "--market", "M", "--grid", "0"]),
    ("probe-universal", ["probe-universal", "--plan", "P", "--grid", "x", "--players", "3"]),
    ("validate-plan", ["validate-plan", "--plan", "P", "--range", "x"]),
]


@pytest.mark.parametrize("argv", [c[1] for c in READ_ORDER], ids=[c[0] for c in READ_ORDER])
def test_inputs_are_read_market_plan_profile_then_options(tmp_path, capsys, argv):
    """Of several bad inputs the first in the order market, plan, profile,
    then the command's options, is the one reported."""
    names = [name for name in "MPQ" if name in argv]

    def error(bad):
        documents = {n: BAD_DOCUMENTS[n] if n in bad else GOOD_DOCUMENTS[n] for n in names}
        assert main(["--json", *_materialize(tmp_path, documents, argv)]) == 1
        return json.loads(capsys.readouterr().err)["error"]

    refusals = {}
    for name in names:
        with pytest.raises(BonusLabError) as exc:
            READERS[name](BAD_DOCUMENTS[name])
        refusals[name] = {"type": type(exc.value).__name__, "message": str(exc.value)}
    assert error(()) not in refusals.values()  # the option alone is refused
    for i, first in enumerate(names):
        assert error(names[i:]) == refusals[first]


def _document_plans(rng):
    """52 plan documents: every kind, 2 to 5 players, three bounds, random tables."""
    def simplex(k):
        weights = [rng.randint(0, 9) for _ in range(k)]
        weights[rng.randrange(k)] += 1
        return [str(F(w, sum(weights))) for w in weights]

    documents = []
    for k in range(2, 6):
        documents += [{"players": k, "kind": kind} for kind in ("constant", "wta", "lta")]
        for bound in ("1/3", "1", "7/2"):
            documents.append({"players": k, "kind": "bounded_linear", "bound": bound})
            lo = F(rng.randint(-6, 6), 4)
            interval = [str(lo), str(lo + 2 * F(bound))]
            documents.append({"players": k, "kind": "m_linear", "bound": bound,
                              "interval": interval})
        for size in range(4):
            points = {tuple(str(F(rng.randint(-8, 8), rng.randint(1, 4))) for _ in range(k))
                      for _ in range(size)}
            documents.append({"players": k, "kind": "tabulated", "fallback": simplex(k),
                              "points": [{"r": list(r), "shares": simplex(k)} for r in points]})
    return documents


def test_every_document_plan_meets_the_allocation_contract(tmp_path, capsys):
    """Each kind's constructor enforces the contract, so validate-plan passes
    every plan a document can describe: exit 0 and "ok": true."""
    documents = _document_plans(random.Random(0))
    assert len(documents) == 52
    assert {doc["kind"] for doc in documents} == set(plans._KINDS)
    for doc in documents:
        argv = _materialize(tmp_path, {"P": doc}, ["validate-plan", "--plan", "P"])
        for interval in ("-2:2", "-1e40:1e40", "0:0", "-1/7:3/11"):
            code, data = run_json(capsys, [*argv, f"--range={interval}", "--samples", "100"])
            assert code == 0
            assert data["ok"] is True, (doc, interval, data)


# rejections checked in text mode too: a label or a decoder failure must
# still end in one error line
IN_TEXT = ("find-m-label-not-utf8", "find-m-market-nested-too-deep", "find-m-market-not-utf8")


@pytest.mark.parametrize(
    "documents,argv,error_type",
    [case[1:] for case in REJECTED if case[0] in IN_TEXT],
    ids=[c[0] for c in REJECTED if c[0] in IN_TEXT],
)
def test_malformed_input_is_a_text_error(tmp_path, capsys, documents, argv, error_type):
    code = main(_materialize(tmp_path, documents, argv))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error [{error_type}]: ")
    assert captured.err.count("\n") == 1


def test_a_repeated_table_key_is_written_as_the_document_writes_it(tmp_path, capsys):
    """The refusal of a result vector listed twice, once as ["1/2", "0"] and
    once as ["0.5", "0"], writes the vector as rationals, not Fraction reprs."""
    argv = _materialize(tmp_path, {"P": REPEATED_TABLE}, ["validate-plan", "--plan", "P"])
    assert main(["--json", *argv]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {
        "type": "NonSimplexTable",
        "message": "table entry (1/2, 0) is listed more than once",
    }


@pytest.mark.parametrize(
    "documents,argv", [case[1:] for case in USAGE], ids=[c[0] for c in USAGE]
)
def test_malformed_flags_are_usage_errors(tmp_path, capsys, documents, argv):
    with pytest.raises(SystemExit) as exc:
        main(["--json", *_materialize(tmp_path, documents, argv)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err


# ---------------------------------------------------------------------
# Text output, byte for byte
# ---------------------------------------------------------------------

LTA = {"players": 2, "kind": "lta"}
CONSTANT = {"players": 2, "kind": "constant"}
LINEAR = {"players": 2, "kind": "m_linear", "bound": "1051/1000", "interval": ["1", "1051/1000"]}
PURE_X2 = [["0", "1"], ["0", "1"]]
MIXED = [["1/2", "1/2"], ["1", "0"]]

REPLICATE_HEAD = (
    "two-bond market: X1 sure 21/20; X2 pays 1051/1000 w.p. 3/5, 1 w.p. 2/5\n"
    "expectations: E[X1] = 21/20, E[X2] = 5153/5000\n"
    "\n"
    "winner-take-all payoffs, symbolic in the earnings weight L:\n"
    "  (X1,X1):  1/2 + 11/20*L, 1/2 + 11/20*L\n"
    "  (X1,X2):  2/5 + 13/20*L, 3/5 + 2153/5000*L\n"
    "  (X2,X1):  3/5 + 2153/5000*L, 2/5 + 13/20*L\n"
    "  (X2,X2):  1/2 + 2653/5000*L, 1/2 + 2653/5000*L\n"
    "\n"
)

# (case, documents by placeholder, argv, stdout under --decimal).  The plain
# stdout is the same text with every " (~decimal)" annotation removed.
TEXT = [
    ("replicate-half", {}, ["replicate-example", "--lambda", "1/2"],
     REPLICATE_HEAD
     + "at L = 1/2:\n"
     "  (X1,X1):  31/40 (~0.775000), 31/40 (~0.775000)\n"
     "  (X1,X2):  29/40 (~0.725000), 8153/10000 (~0.815300)\n"
     "  (X2,X1):  8153/10000 (~0.815300), 29/40 (~0.725000)\n"
     "  (X2,X2):  7653/10000 (~0.765300), 7653/10000 (~0.765300)\n"
     "\n"
     "strict dominance: player 1: X2 > X1; player 2: X2 > X1\n"
     "iterated elimination leaves (X2,X2)\n"
     "check at (X2,X2): equilibrium\n"),
    ("replicate-no-dominance", {}, ["replicate-example", "--lambda", "500/597"],
     REPLICATE_HEAD
     + "at L = 500/597:\n"
     "  (X1,X1):  1147/1194 (~0.960637), 1147/1194 (~0.960637)\n"
     "  (X1,X2):  2819/2985 (~0.944389), 1147/1194 (~0.960637)\n"
     "  (X2,X1):  1147/1194 (~0.960637), 2819/2985 (~0.944389)\n"
     "  (X2,X2):  2819/2985 (~0.944389), 2819/2985 (~0.944389)\n"
     "\n"
     "strict dominance: none\n"
     "surviving actions per player: {X1,X2}, {X1,X2}\n"),
    ("induce", {"M": MARKET, "P": WTA},
     ["induce", "--market", "M", "--plan", "P", "--lambda", "1/4"],
     "(X1,X1):  51/80 (~0.637500), 51/80 (~0.637500)\n"
     "(X1,X2):  9/16 (~0.562500), 14153/20000 (~0.707650)\n"
     "(X2,X1):  14153/20000 (~0.707650), 9/16 (~0.562500)\n"
     "(X2,X2):  12653/20000 (~0.632650), 12653/20000 (~0.632650)\n"),
    ("check-eq-pure-only", {"M": MARKET, "P": WTA, "Q": PURE_X2},
     ["check-eq", "--market", "M", "--plan", "P", "--profile", "Q"],
     "verdict: equilibrium   (search: pure-only)\n"
     "payoffs: 1/2 (~0.500000), 1/2 (~0.500000)\n"
     "  player 1: best deviation (0, 1) value 1/2 (~0.500000) gain 0\n"
     "  player 2: best deviation (0, 1) value 1/2 (~0.500000) gain 0\n"),
    ("check-eq-grid", {"M": MARKET, "P": WTA, "Q": PURE_X2},
     ["check-eq", "--market", "M", "--plan", "P", "--profile", "Q", "--resolution", "4"],
     "verdict: no-violation-at-resolution   (search: grid(d=4))\n"
     "payoffs: 1/2 (~0.500000), 1/2 (~0.500000)\n"
     "  player 1: best deviation (0, 1) value 1/2 (~0.500000) gain 0\n"
     "  player 2: best deviation (0, 1) value 1/2 (~0.500000) gain 0\n"),
    ("check-eq-mixed-not-equilibrium", {"M": MARKET, "P": WTA, "Q": MIXED},
     ["check-eq", "--market", "M", "--plan", "P", "--profile", "Q", "--lambda", "1/3"],
     "verdict: not-equilibrium   (search: pure-only)\n"
     "payoffs: 22403/30000 (~0.746767), 37/60 (~0.616667)\n"
     "  player 1: best deviation (0, 1) value 11153/15000 (~0.743533)"
     " gain -97/30000 (~-0.003233)\n"
     "  player 2: best deviation (0, 1) value 11153/15000 (~0.743533)"
     " gain 1903/15000 (~0.126867)\n"),
    ("check-optimal-witness", {"M": MARKET, "P": LINEAR},
     ["check-optimal", "--market", "M", "--plan", "P"],
     "verdict: optimal\n"
     "best expectation: 21/20 (~1.050000)\n"
     "argmax actions: X1\n"
     "equilibrium witness: (X1,X1)\n"),
    ("check-optimal-checked", {"M": MARKET, "P": WTA},
     ["check-optimal", "--market", "M", "--plan", "P"],
     "verdict: not-optimal-among-checked-profiles\n"
     "best expectation: 21/20 (~1.050000)\n"
     "argmax actions: X1\n"
     "  (X1,X1): not-equilibrium\n"),
    ("build-linear-stdout", {"M": MARKET}, ["build-linear", "--market", "M", "--players", "2"],
     json.dumps(LINEAR, indent=2) + "\n"),
    ("find-m", {"M": MARKET}, ["find-m", "--market", "M", "--grid", "4"],
     "bound: 1/20 (~0.050000)\n"
     "min expectation gap: 97/20000 (~0.004850)\n"
     "best action: X1\n"
     "witnesses: 4 grid portfolios\n"),
    ("probe-wta", {"P": WTA},
     ["probe-universal", "--plan", "P", "--grid", "0:1:1", "--players", "2"],
     "verdict: counterexample\n"
     "violation: player 1 is paid 1/2 more for a higher own result at results (0, 1)\n"
     "player 1 deviates to X2 and gains 1/3 (~0.333333)\n"
     "market:\n"
     "  p = 5/6: (0, 1)\n"
     "  p = 1/6: (6, 0)\n"
     "expectations: E[X1] = 1, E[X2] = 5/6 (~0.833333)\n"),
    ("probe-lta", {"P": LTA},
     ["probe-universal", "--plan", "P", "--grid", "0:1:1/2", "--players", "2"],
     "verdict: counterexample\n"
     "violation: player 1 is paid 1/2 more for a lower own result at results (0, 1/2)\n"
     "player 1 deviates to X2 and gains 1/2 (~0.500000)\n"
     "market:\n"
     "  p = 1: (1/2, 0)\n"
     "expectations: E[X1] = 1/2 (~0.500000), E[X2] = 0\n"),
    ("probe-constant", {"P": CONSTANT},
     ["probe-universal", "--plan", "P", "--grid", "0:1:1", "--players", "2"],
     "verdict: constant-on-grid\n"),
    ("validate-plan", {"P": WTA}, ["validate-plan", "--plan", "P", "--samples", "100"],
     "ok: 100 evaluations stayed on the simplex\n"),
]


def _without_decimals(text):
    return re.sub(r" \(~-?\d+\.\d+\)", "", text)


@pytest.mark.parametrize(
    "documents,argv,decimal_out", [case[1:] for case in TEXT], ids=[c[0] for c in TEXT]
)
def test_text_output_is_exact(tmp_path, capsys, documents, argv, decimal_out):
    argv = _materialize(tmp_path, documents, argv)
    assert main(["--decimal", *argv]) == 0
    assert capsys.readouterr().out == decimal_out
    assert main(argv) == 0
    assert capsys.readouterr().out == _without_decimals(decimal_out)


def test_probe_text_for_three_players_names_the_coordinate_violation(tmp_path, capsys):
    argv = _materialize(
        tmp_path,
        {"P": {"players": 3, "kind": "wta"}},
        ["probe-universal", "--plan", "P", "--grid", "0:2:1", "--players", "3"],
    )
    head = [
        "verdict: counterexample",
        "violation: player 1 is paid 1/2 more for a higher own result"
        " at base (0, 1, 2) moving to 2",
        "player 1 deviates to dev and gains 37210301/3221225472 (~0.011552)",
        "market:",
    ]
    assert main(["--decimal", *argv]) == 0
    assert capsys.readouterr().out.splitlines()[:4] == head
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[:4] == [_without_decimals(h) for h in head]


def test_build_linear_writes_the_plan_file(tmp_path, capsys):
    argv = _materialize(tmp_path, {"M": MARKET}, ["build-linear", "--market", "M"])
    out = tmp_path / "plan.json"
    for mode in ([], ["--decimal"]):
        assert main([*mode, *argv, "--players", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert out.read_text() == json.dumps(LINEAR, indent=2) + "\n"
        out.unlink()


def test_replicate_example_json_reports_survivors(capsys):
    code, data = run_json(capsys, ["replicate-example", "--lambda", "500/597"])
    assert code == 0
    assert data["dominance"]["unique_profile"] is None
    assert data["dominance"]["survivors"] == [["X1", "X2"], ["X1", "X2"]]


class ClosedPipe:
    """A stdout whose reader has gone: `write`, or only `flush` when
    `at_flush`, raises BrokenPipeError.  Its descriptor is `fd`."""

    def __init__(self, fd: int, at_flush: bool) -> None:
        self.fd, self.at_flush = fd, at_flush

    def write(self, text: str) -> int:
        if not self.at_flush:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        return len(text)

    def flush(self) -> None:
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self) -> int:
        return self.fd


@pytest.mark.parametrize("at_flush", [False, True], ids=["write", "flush"])
@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_a_closed_stdout_ends_quietly(tmp_path, capsys, monkeypatch, mode, at_flush):
    """The reader of stdout gone before the report is written, as in
    `bonuslab --json probe-universal ... | head -c 10`: main returns
    PIPE_CLOSED with nothing on stderr, and stdout's descriptor then points
    at os.devnull, so the flush at interpreter exit cannot raise again."""
    argv = _materialize(
        tmp_path,
        {"P": {"players": 3, "kind": "wta"}},
        ["probe-universal", "--plan", "P", "--grid", "0:2:1", "--players", "3"],
    )
    read, write = os.pipe()
    os.close(read)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", ClosedPipe(write, at_flush))
            assert main([*mode, *argv]) == PIPE_CLOSED == 141
        assert capsys.readouterr() == ("", "")
        assert os.path.samestat(os.fstat(write), os.stat(os.devnull))
    finally:
        os.close(write)
