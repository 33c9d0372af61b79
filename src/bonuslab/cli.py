"""bonuslab command line.

Subcommands:

  replicate-example   the two-bond market and its winner-take-all game:
                      symbolic payoff table, dominance verdict, equilibrium
  induce              payoff tensor for a market/plan/earnings-weight
  check-eq            deviation search at a profile
  check-optimal       is some best-expectation profile an equilibrium?
  build-linear        construct the interval-gated linear plan
  build-bounded       construct the output-gated linear plan (grid-certified)
  find-m              the grid certification behind build-bounded
  probe-universal     probe a plan on a value grid; emit a counterexample
  validate-plan       allocation-contract fuzzing for a plan file

Markets, plans, and profiles travel as JSON documents of exact rational
strings (see the package README for the formats).  All numbers print as
exact rationals; --decimal appends a 6-place approximation marked with "~".
Exit status: 0 on success, 1 on any validation or model error, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import construct, counterexamples, game as game_mod, market as market_mod, plans
from .errors import BonusLabError
from .game import (
    EquilibriumReport,
    OptimalityReport,
    check_nash,
    check_optimal,
    induce_game,
    strict_dominance,
)
from .market import (
    Market,
    Profile,
    load_market,
    market_to_dict,
    profile_from_list,
    profile_to_list,
    two_bond_market,
)
from .plans import WinnerTakeAllPlan, load_plan, plan_to_dict
from .rational import approx_decimal, as_rational, format_rational


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.handler(args)
    except BonusLabError as exc:
        _emit_error(args, exc)
        return 1
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        _emit_error(args, exc)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bonuslab", description=__doc__.split("\n")[0])
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument(
        "--decimal", action="store_true", help="append approximate decimals to text output"
    )
    parser.add_argument(
        "--atom-cap", type=int, default=market_mod.DEFAULT_ATOM_CAP, metavar="N"
    )
    parser.add_argument(
        "--tensor-cap", type=int, default=game_mod.DEFAULT_TENSOR_CAP, metavar="N"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("replicate-example", help="two-bond market walkthrough")
    p.add_argument("--lambda", dest="lam", default="1/2", metavar="Q",
                   help="earnings weight in [0, 1), e.g. 1/2 (default)")
    p.set_defaults(handler=_cmd_replicate)

    p = sub.add_parser("induce", help="payoff tensor for market + plan")
    p.add_argument("--market", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--lambda", dest="lam", default="0", metavar="Q")
    p.set_defaults(handler=_cmd_induce)

    p = sub.add_parser("check-eq", help="deviation search at a profile")
    p.add_argument("--market", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--resolution", type=_resolution, default=None, metavar="D",
                   help="simplex grid denominator; omit for pure-only search")
    p.add_argument("--lambda", dest="lam", default="0", metavar="Q")
    p.set_defaults(handler=_cmd_check_eq)

    p = sub.add_parser("check-optimal", help="equilibrium among best-expectation profiles")
    p.add_argument("--market", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--resolution", type=_resolution, default=None, metavar="D")
    p.set_defaults(handler=_cmd_check_optimal)

    p = sub.add_parser("build-linear", help="interval-gated linear plan for a market")
    p.add_argument("--market", required=True)
    p.add_argument("--players", type=int, required=True)
    p.add_argument("--out", default=None, help="plan file to write (default stdout)")
    p.set_defaults(handler=_cmd_build_linear)

    p = sub.add_parser("build-bounded", help="output-gated linear plan via grid certification")
    p.add_argument("--market", required=True)
    p.add_argument("--players", type=int, required=True)
    p.add_argument("--grid", type=int, required=True, metavar="D")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_build_bounded)

    p = sub.add_parser("find-m", help="grid certification for the scale bound")
    p.add_argument("--market", required=True)
    p.add_argument("--grid", type=int, required=True, metavar="D")
    p.set_defaults(handler=_cmd_find_m)

    p = sub.add_parser("probe-universal", help="probe a plan and build a counterexample")
    p.add_argument("--plan", required=True)
    p.add_argument("--grid", required=True, metavar="LO:HI:STEP",
                   help="value grid, rational endpoints and step, inclusive")
    p.add_argument("--players", type=int, required=True)
    p.add_argument("--max-iterations", type=int, default=64)
    p.set_defaults(handler=_cmd_probe)

    p = sub.add_parser("validate-plan", help="fuzz a plan's allocation contract")
    p.add_argument("--plan", required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--range", default="-2:2", metavar="LO:HI")
    p.set_defaults(handler=_cmd_validate_plan)

    return parser


# ---------------------------------------------------------------------
# Shared rendering
# ---------------------------------------------------------------------


def _emit_error(args, exc: Exception) -> None:
    kind = type(exc).__name__
    if getattr(args, "json", False):
        print(json.dumps({"error": {"type": kind, "message": str(exc)}}), file=sys.stderr)
    else:
        print(f"error [{kind}]: {exc}", file=sys.stderr)


def _fmt(args, value: Fraction) -> str:
    text = format_rational(value)
    if args.decimal and value.denominator != 1:
        text += f" (~{approx_decimal(value)})"
    return text


def _say(args, line: str = "") -> None:
    if not args.json:
        print(line)


def _read_market(args) -> Market:
    with open(args.market) as fh:
        return load_market(fh.read())


def _read_plan(args):
    with open(args.plan) as fh:
        return load_plan(fh.read())


def _resolution(text: str) -> int | None:
    """--resolution: a grid denominator, or "pure"/"pure-only" for none."""
    if text in ("pure", "pure-only"):
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'pure', got {text!r}")


def _combo_label(market: Market, combo) -> str:
    return ",".join(market.actions[a] for a in combo)


def _equilibrium_dict(market: Market, report: EquilibriumReport) -> dict:
    return {
        "verdict": report.verdict.value,
        "method": report.method,
        "profile": profile_to_list(report.profile),
        "payoffs": [format_rational(v) for v in report.payoffs],
        "deviations": [
            {
                "player": br.player,
                "weights": [format_rational(w) for w in br.strategy.weights],
                "value": format_rational(br.value),
                "gain": format_rational(g),
            }
            for br, g in zip(report.deviations, report.gains)
        ],
    }


def _print_equilibrium(args, market: Market, report: EquilibriumReport) -> None:
    _say(args, f"verdict: {report.verdict.value}   (search: {report.method})")
    _say(args, "payoffs: " + ", ".join(_fmt(args, v) for v in report.payoffs))
    for br, gain in zip(report.deviations, report.gains):
        weights = ", ".join(format_rational(w) for w in br.strategy.weights)
        _say(
            args,
            f"  player {br.player + 1}: best deviation ({weights}) "
            f"value {_fmt(args, br.value)} gain {_fmt(args, gain)}",
        )


def _optimality_dict(market: Market, report: OptimalityReport) -> dict:
    return {
        "verdict": report.verdict.value,
        "best_expectation": format_rational(report.mu_star),
        "argmax_actions": [market.actions[a] for a in report.argmax_actions],
        "witness": None
        if report.witness is None
        else [market.actions[a] for a in report.witness],
        "checked": [
            {
                "profile": _combo_label(market, combo),
                "report": _equilibrium_dict(market, rep),
            }
            for combo, rep in report.checked
        ],
    }


def _counterexample_dict(ce: counterexamples.Counterexample) -> dict:
    return {
        "market": market_to_dict(ce.market),
        "profile": profile_to_list(ce.profile),
        "player": ce.player,
        "deviation": ce.deviation,
        "deviation_action": ce.market.actions[ce.deviation],
        "gain": format_rational(ce.gain),
        "certificate": [
            [label, format_rational(value)] for label, value in ce.certificate
        ],
        "params": {
            key: format_rational(value) if isinstance(value, Fraction) else value
            for key, value in ce.params.items()
        },
    }


# ---------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------


def _cmd_replicate(args) -> dict:
    lam = as_rational(args.lam)
    market = two_bond_market()
    plan = WinnerTakeAllPlan(2)
    at_zero = induce_game(market, plan, 0, tensor_cap=args.tensor_cap).payoffs
    at_half = induce_game(market, plan, Fraction(1, 2), tensor_cap=args.tensor_cap).payoffs
    coefficients = {}
    for combo, base in at_zero.items():
        mid = at_half[combo]
        coefficients[combo] = tuple(
            (b, 2 * (m - b)) for b, m in zip(base, mid)
        )

    at_lam = induce_game(market, plan, lam, tensor_cap=args.tensor_cap)
    lam_table = at_lam.payoffs
    dominance = strict_dominance(at_lam)
    equilibrium = None
    if dominance.unique_profile is not None:
        equilibrium = check_nash(
            at_lam, Profile.pure(dominance.unique_profile, market.n), None
        )

    _say(args, "two-bond market: X1 sure 21/20; X2 pays 1051/1000 w.p. 3/5, 1 w.p. 2/5")
    _say(args, f"expectations: E[X1] = 21/20, E[X2] = {format_rational(market.expectation_of(1))}")
    _say(args)
    _say(args, "winner-take-all payoffs, symbolic in the earnings weight L:")
    for combo, pair in coefficients.items():
        rendered = ", ".join(
            f"{format_rational(c)} + {format_rational(s)}*L" for c, s in pair
        )
        _say(args, f"  ({_combo_label(market, combo)}):  {rendered}")
    _say(args)
    _say(args, f"at L = {format_rational(lam)}:")
    for combo, values in lam_table.items():
        _say(
            args,
            f"  ({_combo_label(market, combo)}):  "
            + ", ".join(_fmt(args, v) for v in values),
        )
    _say(args)
    pairs = [
        f"player {p + 1}: {market.actions[a]} > {market.actions[b]}"
        for p, a, b in dominance.pairs
    ]
    _say(args, "strict dominance: " + ("; ".join(pairs) if pairs else "none"))
    if dominance.unique_profile is not None:
        label = _combo_label(market, dominance.unique_profile)
        _say(args, f"iterated elimination leaves ({label})")
        assert equilibrium is not None
        _say(args, f"check at ({label}): {equilibrium.verdict.value}")
    else:
        survivors = [
            "{" + ",".join(market.actions[a] for a in s) + "}"
            for s in dominance.survivors
        ]
        _say(args, "surviving actions per player: " + ", ".join(survivors))

    return {
        "market": market_to_dict(market),
        "plan": plan_to_dict(plan),
        "coefficients": {
            _combo_label(market, combo): [
                [format_rational(c), format_rational(s)] for c, s in pair
            ]
            for combo, pair in coefficients.items()
        },
        "at_lambda": {
            "lambda": format_rational(lam),
            "payoffs": {
                _combo_label(market, combo): [format_rational(v) for v in values]
                for combo, values in lam_table.items()
            },
        },
        "dominance": {
            "pairs": [
                {"player": p, "dominator": market.actions[a], "dominated": market.actions[b]}
                for p, a, b in dominance.pairs
            ],
            "unique_profile": None
            if dominance.unique_profile is None
            else [market.actions[a] for a in dominance.unique_profile],
        },
        "equilibrium": None
        if equilibrium is None
        else _equilibrium_dict(market, equilibrium),
    }


def _cmd_induce(args) -> dict:
    market = _read_market(args)
    plan = _read_plan(args)
    g = induce_game(market, plan, as_rational(args.lam), tensor_cap=args.tensor_cap)
    table = g.payoffs
    for combo, values in table.items():
        _say(
            args,
            f"({_combo_label(market, combo)}):  " + ", ".join(_fmt(args, v) for v in values),
        )
    return {
        "lambda": format_rational(g.earnings_weight),
        "payoffs": {
            _combo_label(market, combo): [format_rational(v) for v in values]
            for combo, values in table.items()
        },
    }


def _cmd_check_eq(args) -> dict:
    market = _read_market(args)
    plan = _read_plan(args)
    with open(args.profile) as fh:
        profile = profile_from_list(json.load(fh))
    g = induce_game(market, plan, as_rational(args.lam), tensor_cap=args.tensor_cap)
    report = check_nash(g, profile, args.resolution)
    _print_equilibrium(args, market, report)
    return _equilibrium_dict(market, report)


def _cmd_check_optimal(args) -> dict:
    market = _read_market(args)
    plan = _read_plan(args)
    report = check_optimal(
        market, plan, args.resolution, tensor_cap=args.tensor_cap
    )
    _say(args, f"verdict: {report.verdict.value}")
    _say(args, f"best expectation: {_fmt(args, report.mu_star)}")
    _say(
        args,
        "argmax actions: " + ", ".join(market.actions[a] for a in report.argmax_actions),
    )
    if report.witness is not None:
        _say(args, f"equilibrium witness: ({_combo_label(market, report.witness)})")
    else:
        for combo, rep in report.checked:
            _say(args, f"  ({_combo_label(market, combo)}): {rep.verdict.value}")
    return _optimality_dict(market, report)


def _write_plan(args, plan) -> dict:
    text = plans.dump_plan(plan)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        _say(args, f"wrote {args.out}")
    elif not args.json:
        print(text)
    return plan_to_dict(plan)


def _cmd_build_linear(args) -> dict:
    market = _read_market(args)
    plan = construct.build_m_linear(market, args.players)
    return _write_plan(args, plan)


def _cmd_build_bounded(args) -> dict:
    market = _read_market(args)
    plan = construct.build_bounded_linear(market, args.players, args.grid)
    return _write_plan(args, plan)


def _cmd_find_m(args) -> dict:
    market = _read_market(args)
    result = construct.find_bounding_m(market, args.grid)
    _say(args, f"bound: {_fmt(args, result.bound)}")
    _say(args, f"min expectation gap: {_fmt(args, result.min_gap)}")
    _say(args, f"best action: {market.actions[result.best_action]}")
    _say(args, f"witnesses: {len(result.witnesses)} grid portfolios")
    return {
        "bound": format_rational(result.bound),
        "min_gap": format_rational(result.min_gap),
        "grid_resolution": result.grid_resolution,
        "best_action": market.actions[result.best_action],
        "witnesses": [
            {
                "weights": [format_rational(w) for w in wit.weights],
                "gap": format_rational(wit.gap),
                "threshold": format_rational(wit.threshold),
                "tail_empty_at": format_rational(wit.tail_empty_at),
            }
            for wit in result.witnesses
        ],
    }


def _describe_violation(violation) -> str:
    moved = "lower" if violation.direction is counterexamples.Direction.DECREASE else "higher"
    if isinstance(violation, counterexamples.PairViolation):
        where = f"results ({format_rational(violation.x)}, {format_rational(violation.y)})"
    else:
        base = ", ".join(format_rational(b) for b in violation.base)
        where = f"base ({base}) moving to {format_rational(violation.witness)}"
    return (
        f"player {violation.player + 1} is paid {format_rational(violation.deficit)} "
        f"more for a {moved} own result at {where}"
    )


def _parse_grid(text: str) -> list[Fraction]:
    try:
        lo_text, hi_text, step_text = text.split(":")
    except ValueError as exc:
        raise BonusLabError(f"grid must be LO:HI:STEP, got {text!r}") from exc
    lo, hi, step = as_rational(lo_text), as_rational(hi_text), as_rational(step_text)
    if step <= 0 or hi < lo:
        raise BonusLabError(f"grid {text!r} is empty or has nonpositive step")
    values = []
    current = lo
    while current <= hi:
        values.append(current)
        current += step
    return values


def _cmd_probe(args) -> dict:
    plan = _read_plan(args)
    if plan.players != args.players:
        raise BonusLabError(
            f"plan is for {plan.players} players, --players says {args.players}"
        )
    grid = _parse_grid(args.grid)
    report = counterexamples.universality_verdict(
        plan, grid, max_iterations=args.max_iterations, atom_cap=args.atom_cap
    )
    _say(args, f"verdict: {report.verdict}")
    if report.counterexample is not None:
        ce = report.counterexample
        _say(args, "violation: " + _describe_violation(report.violation))
        _say(
            args,
            f"player {ce.player + 1} deviates to {ce.market.actions[ce.deviation]} "
            f"and gains {_fmt(args, ce.gain)}",
        )
        _say(args, "market:")
        for atom in ce.market.atoms:
            outcomes = ", ".join(format_rational(x) for x in atom.outcomes)
            _say(args, f"  p = {format_rational(atom.probability)}: ({outcomes})")
        _say(
            args,
            "expectations: "
            + ", ".join(f"E[{l}] = {_fmt(args, v)}" for l, v in ce.certificate),
        )
    payload: dict = {"verdict": report.verdict}
    if report.violation is not None:
        v = report.violation
        payload["violation"] = {
            "direction": v.direction.value,
            "player": v.player,
            "deficit": format_rational(v.deficit),
            **(
                {"x": format_rational(v.x), "y": format_rational(v.y)}
                if isinstance(v, counterexamples.PairViolation)
                else {
                    "base": [format_rational(b) for b in v.base],
                    "witness": format_rational(v.witness),
                }
            ),
        }
    if report.counterexample is not None:
        payload["counterexample"] = _counterexample_dict(report.counterexample)
    return payload


def _cmd_validate_plan(args) -> dict:
    plan = _read_plan(args)
    try:
        lo_text, hi_text = args.range.split(":")
    except ValueError as exc:
        raise BonusLabError(f"--range must be LO:HI, got {args.range!r}") from exc
    report = plans.validate_simplex(
        plan, count=args.samples, seed=args.seed, lo=lo_text, hi=hi_text
    )
    if report.ok:
        _say(args, f"ok: {report.evaluations} evaluations stayed on the simplex")
    else:
        r, shares, reason = report.failure
        _say(args, f"FAILED after {report.evaluations} evaluations: {reason}")
        _say(args, f"  at r = ({', '.join(format_rational(v) for v in r)})")
        if shares is not None:
            _say(args, f"  shares = ({', '.join(format_rational(s) for s in shares)})")
    payload: dict = {"ok": report.ok, "evaluations": report.evaluations}
    if report.failure:
        r, shares, reason = report.failure
        payload["failure"] = {
            "r": [format_rational(v) for v in r],
            "shares": None if shares is None else [format_rational(s) for s in shares],
            "reason": reason,
        }
    return payload


if __name__ == "__main__":
    sys.exit(main())
