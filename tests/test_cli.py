"""Command-line behavior: exit codes, JSON reports, file round-trips."""

import json
import re
from fractions import Fraction

import pytest

from bonuslab import dump_market, dump_plan, two_bond_market, WinnerTakeAllPlan
from bonuslab.cli import main

F = Fraction


@pytest.fixture
def files(tmp_path):
    market = tmp_path / "market.json"
    market.write_text(dump_market(two_bond_market()))
    plan = tmp_path / "wta.json"
    plan.write_text(dump_plan(WinnerTakeAllPlan(2)))
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

# (case, documents by placeholder, argv, exit code, error type under --json)
REJECTED = [
    ("replicate-lambda-one", {}, ["replicate-example", "--lambda", "1"], "InvalidParameter"),
    ("replicate-lambda-text", {}, ["replicate-example", "--lambda", "x"], "UnparsableNumber"),
    ("induce-float-in-market", {"M": FLOAT_MARKET, "P": WTA},
     ["induce", "--market", "M", "--plan", "P"], "FloatRejected"),
    ("induce-lambda-one", {"M": MARKET, "P": WTA},
     ["induce", "--market", "M", "--plan", "P", "--lambda", "1"], "InvalidParameter"),
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
    ("validate-plan-table-key-as-string", {"P": STRING_TABLE},
     ["validate-plan", "--plan", "P"], "ArityMismatch"),
    ("check-optimal-float-players", {"M": MARKET, "P": {**WTA, "players": 2.7}},
     ["check-optimal", "--market", "M", "--plan", "P"], "FloatRejected"),
    ("check-optimal-text-players", {"M": MARKET, "P": {**WTA, "players": "3"}},
     ["check-optimal", "--market", "M", "--plan", "P"], "ArityMismatch"),
    ("check-optimal-bool-players", {"M": MARKET, "P": {**WTA, "players": True}},
     ["check-optimal", "--market", "M", "--plan", "P"], "ArityMismatch"),
    ("check-optimal-short-interval",
     {"M": MARKET, "P": {**NO_INTERVAL, "interval": ["1"]}},
     ["check-optimal", "--market", "M", "--plan", "P"], "ArityMismatch"),
    ("build-linear-one-player", {"M": MARKET},
     ["build-linear", "--market", "M", "--players", "1"], "ArityMismatch"),
    ("build-linear-flat-market", {"M": FLAT_MARKET},
     ["build-linear", "--market", "M", "--players", "2"], "DegenerateSupport"),
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
]

USAGE = [
    ("find-m-grid-text", {"M": MARKET}, ["find-m", "--market", "M", "--grid", "four"]),
    ("check-eq-resolution-text", {"M": MARKET, "P": WTA, "Q": [["1", "0"], ["1", "0"]]},
     ["check-eq", "--market", "M", "--plan", "P", "--profile", "Q", "--resolution", "abc"]),
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


def _materialize(tmp_path, documents, argv):
    paths = {}
    for name, data in documents.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        paths[name] = str(path)
    return [paths.get(arg, arg) for arg in argv]


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
