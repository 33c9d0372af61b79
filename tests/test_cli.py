"""Command-line behavior: exit codes, JSON reports, file round-trips."""

import json
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
NO_INTERVAL = {"players": 2, "kind": "m_linear", "bound": "4"}
BOUND_ZERO = {"players": 2, "kind": "bounded_linear", "bound": "0"}

# (case, documents by placeholder, argv, exit code, error type under --json)
REJECTED = [
    ("replicate-lambda-one", {}, ["replicate-example", "--lambda", "1"], "InvalidParameter"),
    ("replicate-lambda-text", {}, ["replicate-example", "--lambda", "x"], "UnparsableNumber"),
    ("induce-float-in-market", {"M": FLOAT_MARKET, "P": WTA},
     ["induce", "--market", "M", "--plan", "P"], "FloatRejected"),
    ("induce-lambda-one", {"M": MARKET, "P": WTA},
     ["induce", "--market", "M", "--plan", "P", "--lambda", "1"], "InvalidParameter"),
    ("induce-tensor-cap", {"M": MARKET, "P": WTA},
     ["--tensor-cap", "3", "induce", "--market", "M", "--plan", "P"], "TensorCapExceeded"),
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
    ("find-m-negative-probability", {"M": NEGATIVE_MARKET},
     ["find-m", "--market", "M", "--grid", "4"], "NonPositiveProbability"),
    ("find-m-tied-best", {"M": TIED_MARKET}, ["find-m", "--market", "M", "--grid", "4"],
     "ExpectationNotUnique"),
    ("find-m-missing-file", {}, ["find-m", "--market", "/no/such/market.json", "--grid", "4"],
     "FileNotFoundError"),
    ("probe-grid-text", {"P": WTA},
     ["probe-universal", "--plan", "P", "--grid", "a:b:c", "--players", "2"],
     "UnparsableNumber"),
    ("probe-player-mismatch", {"P": WTA},
     ["probe-universal", "--plan", "P", "--grid", "0:1:1", "--players", "3"], "BonusLabError"),
    ("validate-plan-float-bound", {"P": {"players": 2, "kind": "bounded_linear", "bound": 0.5}},
     ["validate-plan", "--plan", "P"], "FloatRejected"),
    ("validate-plan-bad-range", {"P": WTA}, ["validate-plan", "--plan", "P", "--range", "x"],
     "BonusLabError"),
]

USAGE = [
    ("find-m-grid-text", {"M": MARKET}, ["find-m", "--market", "M", "--grid", "four"]),
    ("check-eq-resolution-text", {"M": MARKET, "P": WTA, "Q": [["1", "0"], ["1", "0"]]},
     ["check-eq", "--market", "M", "--plan", "P", "--profile", "Q", "--resolution", "abc"]),
    ("check-optimal-resolution-text", {"M": MARKET, "P": WTA},
     ["check-optimal", "--market", "M", "--plan", "P", "--resolution", "1/2"]),
    ("build-linear-without-players", {"M": MARKET}, ["build-linear", "--market", "M"]),
]


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
