"""bonuslab command line.

Subcommands:

  replicate-example   the two-bond market and its winner-take-all game:
                      symbolic payoff table, dominance verdict, equilibrium
  induce              payoff tensor for a market/plan/earnings-weight
  check-eq            deviation search at a profile
  check-optimal       is some best-expectation profile an equilibrium?
  build-linear        construct the interval-gated linear plan
  build-bounded       construct the output-gated linear plan (vertex bound)
  find-m              grid certification of the build-bounded bound
  probe-universal     probe a plan on a value grid; emit a counterexample
  validate-plan       allocation-contract fuzzing for a plan file

Markets, plans, and profiles travel as JSON documents of exact rational
strings (see the package README for the formats).  `main` reads a request's
inputs before the command runs, in one order: --market, --plan, --profile,
then --lambda, each one the command has; of several bad inputs the first is
the one reported.  Each command builds one report document: --json prints
it, and the text output is rendered from it.  This module writes and renders
every report document; the library's reports are plain data.  All numbers
print as exact rationals; --decimal appends a 6-place approximation marked
with "~".  Exit status: 0 on success, 1 on any validation or model error, 2
on usage errors, and PIPE_CLOSED (141, as a shell reports a process that
SIGPIPE ends) when stdout is closed before the report is written: `main`
then points stdout at os.devnull and returns quietly, with no traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import construct, counterexamples, plans
from .errors import ArityMismatch, BonusLabError, GridCapExceeded
from .game import (
    EquilibriumReport,
    Game,
    OptimalityReport,
    check_nash,
    check_optimal,
    induce_game,
    strict_dominance,
)
from .market import (
    GRID_CAP,
    Market,
    Profile,
    market_from_dict,
    market_to_dict,
    profile_from_list,
    profile_to_list,
    two_bond_market,
)
from .plans import WinnerTakeAllPlan, plan_from_dict, plan_to_dict
from .rational import (
    approx_decimal,
    as_rational,
    format_rational,
    input_text,
    load_json,
    rational_text,
)


PIPE_CLOSED = 141  # 128 + SIGPIPE


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        inputs = {}
        # the readers are looked up per call, so a wrapper put on the module
        # attribute sees every read
        for name, parse in (
            ("market", market_from_dict), ("plan", plan_from_dict), ("profile", profile_from_list)
        ):
            if name in args:
                inputs[name] = _read(getattr(args, name), parse)
        if "lam" in args:
            inputs["lam"] = as_rational(args.lam)
        document = args.handler(args, **inputs)
    except (BonusLabError, OSError) as exc:
        _emit_error(args, exc)
        return 1
    try:
        if args.json:
            print(json.dumps(document, indent=2))
        else:
            for line in args.text(document, args):
                print(line)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader has gone; with stdout on os.devnull the flush at exit
        # cannot raise again ("Note on SIGPIPE" in the signal module's docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return PIPE_CLOSED
    return 0


@functools.cache  # parse_args leaves the parser as it found it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bonuslab", description=__doc__.split("\n")[0])
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument(
        "--decimal", action="store_true", help="append approximate decimals to text output"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("replicate-example", help="two-bond market walkthrough")
    p.add_argument("--lambda", dest="lam", default="1/2", metavar="Q",
                   help="earnings weight in [0, 1), e.g. 1/2 (default)")
    p.set_defaults(handler=_cmd_replicate, text=_text_replicate)

    p = sub.add_parser("induce", help="payoff tensor for market + plan")
    p.add_argument("--market", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--lambda", dest="lam", default="0", metavar="Q")
    p.set_defaults(handler=_cmd_induce, text=_text_induce)

    p = sub.add_parser("check-eq", help="deviation search at a profile")
    p.add_argument("--market", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--resolution", type=int, default=None, metavar="D",
                   help="simplex grid denominator; omit for pure-only search")
    p.add_argument("--lambda", dest="lam", default="0", metavar="Q")
    p.set_defaults(handler=_cmd_check_eq, text=_text_check_eq)

    p = sub.add_parser("check-optimal", help="equilibrium among best-expectation profiles")
    p.add_argument("--market", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--resolution", type=int, default=None, metavar="D")
    p.set_defaults(handler=_cmd_check_optimal, text=_text_check_optimal)

    p = sub.add_parser("build-linear", help="interval-gated linear plan for a market")
    p.add_argument("--market", required=True)
    p.add_argument("--players", type=int, required=True)
    p.add_argument("--out", default=None, help="plan file to write (default stdout)")
    p.set_defaults(handler=_cmd_build_linear, text=_text_plan)

    p = sub.add_parser("build-bounded", help="output-gated linear plan, vertex bound")
    p.add_argument("--market", required=True)
    p.add_argument("--players", type=int, required=True)
    p.add_argument("--grid", type=int, required=True, metavar="D",
                   help="grid resolution; validated as in find-m, does not change the plan")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_build_bounded, text=_text_plan)

    p = sub.add_parser("find-m", help="grid certification for the scale bound")
    p.add_argument("--market", required=True)
    p.add_argument("--grid", type=int, required=True, metavar="D")
    p.set_defaults(handler=_cmd_find_m, text=_text_find_m)

    p = sub.add_parser("probe-universal", help="probe a plan and build a counterexample")
    p.add_argument("--plan", required=True)
    p.add_argument("--grid", required=True, metavar="LO:HI:STEP",
                   help="value grid, rational endpoints and step, inclusive; "
                   "a negative LO needs the = form, as in --grid=-1:1:1")
    p.add_argument("--players", type=int, required=True)
    p.set_defaults(handler=_cmd_probe, text=_text_probe)

    p = sub.add_parser("validate-plan", help="fuzz a plan's allocation contract")
    p.add_argument("--plan", required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--range", default="-2:2", metavar="LO:HI",
                   help="sample interval (default -2:2); "
                   "a negative LO needs the = form, as in --range=-1:1")
    p.set_defaults(handler=_cmd_validate_plan, text=_text_validate_plan)

    return parser


# ---------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------


def _emit_error(args, exc: Exception) -> None:
    kind = type(exc).__name__
    if getattr(args, "json", False):
        print(json.dumps({"error": {"type": kind, "message": str(exc)}}), file=sys.stderr)
    else:
        print(f"error [{kind}]: {exc}", file=sys.stderr)


def _fmt(args, text: str) -> str:
    """A rational string from a document, with its decimal under --decimal."""
    if args.decimal:
        value = Fraction(text)
        if value.denominator != 1:
            text += f" (~{approx_decimal(value)})"
    return text


def _read(path: str, parse):
    """parse() of the JSON document in the file at `path`; ArityMismatch for
    a file that is not UTF-8 text, as for text that is not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ArityMismatch(
            f"{input_text(path)} is not UTF-8 text: UnicodeDecodeError: {exc}"
        ) from exc
    return parse(load_json(text))


def _combo_label(market: Market, combo) -> str:
    return ",".join(market.actions[a] for a in combo)


def _payoff_dict(market: Market, game: Game) -> dict:
    """The game's full payoff tensor as a document.  Each payoff `Fraction`
    is written once: under an anonymous plan the permuted cells share their
    `Fraction` objects, so a text is kept per object, by its id; the tensor
    keeps every object alive while the document is written."""
    texts: dict[int, str] = {}

    def text(value: Fraction) -> str:
        written = texts.get(id(value))
        if written is None:
            written = texts[id(value)] = format_rational(value)
        return written

    return {
        "lambda": format_rational(game.earnings_weight),
        "payoffs": {
            _combo_label(market, combo): list(map(text, values))
            for combo, values in game.payoffs.items()
        },
    }


def _equilibrium_dict(report: EquilibriumReport) -> dict:
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
                "report": _equilibrium_dict(rep),
            }
            for combo, rep in report.checked
        ],
    }


# ---------------------------------------------------------------------
# Handlers, each returning its report document, and their text renderers
# ---------------------------------------------------------------------


def _cmd_replicate(args, lam) -> dict:
    market = two_bond_market()
    plan = WinnerTakeAllPlan(2)
    at_zero = induce_game(market, plan, 0).payoffs
    exps = market.expectations()
    at_lam = induce_game(market, plan, lam)
    dominance = strict_dominance(at_lam)
    equilibrium = None
    if dominance.unique_profile is not None:
        equilibrium = check_nash(
            at_lam, Profile(tuple(map(market._vertex, dominance.unique_profile))), None
        )

    return {
        "market": market_to_dict(market),
        "plan": plan_to_dict(plan),
        "coefficients": {  # payoff = share + (E[own action] - share) * L, per player
            _combo_label(market, combo): [
                [format_rational(b), format_rational(exps[a] - b)]
                for a, b in zip(combo, base)
            ]
            for combo, base in at_zero.items()
        },
        "at_lambda": _payoff_dict(market, at_lam),
        "dominance": {
            "pairs": [
                {"player": p, "dominator": market.actions[a], "dominated": market.actions[b]}
                for p, a, b in dominance.pairs
            ],
            "unique_profile": None
            if dominance.unique_profile is None
            else [market.actions[a] for a in dominance.unique_profile],
            "survivors": [[market.actions[a] for a in s] for s in dominance.survivors],
        },
        "equilibrium": None
        if equilibrium is None
        else _equilibrium_dict(equilibrium),
    }


def _text_replicate(doc, args):
    market = market_from_dict(doc["market"])
    yield "two-bond market: X1 sure 21/20; X2 pays 1051/1000 w.p. 3/5, 1 w.p. 2/5"
    yield "expectations: " + ", ".join(
        f"E[{label}] = {format_rational(e)}"
        for label, e in zip(market.actions, market.expectations())
    )
    yield ""
    yield "winner-take-all payoffs, symbolic in the earnings weight L:"
    for label, pair in doc["coefficients"].items():
        yield f"  ({label}):  " + ", ".join(f"{c} + {s}*L" for c, s in pair)
    yield ""
    yield f"at L = {doc['at_lambda']['lambda']}:"
    for row in _text_induce(doc["at_lambda"], args):
        yield "  " + row
    yield ""
    dominance = doc["dominance"]
    pairs = [
        f"player {d['player'] + 1}: {d['dominator']} > {d['dominated']}"
        for d in dominance["pairs"]
    ]
    yield "strict dominance: " + ("; ".join(pairs) if pairs else "none")
    if dominance["unique_profile"] is not None:
        label = ",".join(dominance["unique_profile"])
        yield f"iterated elimination leaves ({label})"
        yield f"check at ({label}): {doc['equilibrium']['verdict']}"
    else:
        survivors = ["{" + ",".join(s) + "}" for s in dominance["survivors"]]
        yield "surviving actions per player: " + ", ".join(survivors)


def _cmd_induce(args, market, plan, lam) -> dict:
    return _payoff_dict(market, induce_game(market, plan, lam))


def _text_induce(doc, args):
    for label, values in doc["payoffs"].items():
        yield f"({label}):  " + ", ".join(_fmt(args, v) for v in values)


def _cmd_check_eq(args, market, plan, profile, lam) -> dict:
    g = induce_game(market, plan, lam)
    return _equilibrium_dict(check_nash(g, profile, args.resolution))


def _text_check_eq(doc, args):
    yield f"verdict: {doc['verdict']}   (search: {doc['method']})"
    yield "payoffs: " + ", ".join(_fmt(args, v) for v in doc["payoffs"])
    for dev in doc["deviations"]:
        yield (
            f"  player {dev['player'] + 1}: best deviation ({', '.join(dev['weights'])}) "
            f"value {_fmt(args, dev['value'])} gain {_fmt(args, dev['gain'])}"
        )


def _cmd_check_optimal(args, market, plan) -> dict:
    return _optimality_dict(market, check_optimal(market, plan, args.resolution))


def _text_check_optimal(doc, args):
    yield f"verdict: {doc['verdict']}"
    yield f"best expectation: {_fmt(args, doc['best_expectation'])}"
    yield "argmax actions: " + ", ".join(doc["argmax_actions"])
    if doc["witness"] is not None:
        yield f"equilibrium witness: ({','.join(doc['witness'])})"
    else:
        for checked in doc["checked"]:
            yield f"  ({checked['profile']}): {checked['report']['verdict']}"


def _write_plan(args, plan) -> dict:
    document = plan_to_dict(plan)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(document, indent=2) + "\n")
    return document


def _text_plan(doc, args):
    yield f"wrote {args.out}" if args.out else json.dumps(doc, indent=2)


def _cmd_build_linear(args, market) -> dict:
    return _write_plan(args, construct.build_m_linear(market, args.players))


def _cmd_build_bounded(args, market) -> dict:
    return _write_plan(args, construct.build_bounded_linear(market, args.players, args.grid))


def _cmd_find_m(args, market) -> dict:
    result = construct.find_bounding_m(market, args.grid)
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


def _text_find_m(doc, args):
    yield f"bound: {_fmt(args, doc['bound'])}"
    yield f"min expectation gap: {_fmt(args, doc['min_gap'])}"
    yield f"best action: {doc['best_action']}"
    yield f"witnesses: {len(doc['witnesses'])} grid portfolios"


def _parse_grid(text: str) -> list[Fraction]:
    try:
        lo_text, hi_text, step_text = text.split(":")
    except ValueError as exc:
        raise BonusLabError(f"grid must be LO:HI:STEP, got {input_text(text)}") from exc
    lo, hi, step = as_rational(lo_text), as_rational(hi_text), as_rational(step_text)
    if step <= 0 or hi < lo:
        raise BonusLabError(f"grid {input_text(text)} is empty or has nonpositive step")
    size = (hi - lo) // step + 1
    if size > GRID_CAP:
        raise GridCapExceeded(f"grid {input_text(text)} has over {GRID_CAP} points")
    return [lo + i * step for i in range(size)]


def _violation_dict(v) -> dict:
    document = {
        "direction": v.direction.value,
        "player": v.player,
        "deficit": format_rational(v.deficit),
    }
    if isinstance(v, counterexamples.PairViolation):  # read back as "x" in v
        document.update(x=format_rational(v.x), y=format_rational(v.y))
    else:
        document.update(base=[format_rational(b) for b in v.base],
                        witness=format_rational(v.witness))
    return document


def _counterexample_dict(ce) -> dict:
    """The market is a market document, so it can be reloaded."""
    return {
        "market": market_to_dict(ce.market),
        "profile": profile_to_list(ce.profile),
        "player": ce.player,
        "deviation": ce.deviation,
        "deviation_action": ce.market.actions[ce.deviation],
        "gain": format_rational(ce.gain),
        "certificate": [[label, format_rational(value)] for label, value in ce.certificate],
        "params": {
            key: format_rational(value) if isinstance(value, Fraction) else value
            for key, value in ce.params.items()
        },
    }


def _cmd_probe(args, plan) -> dict:
    if plan.players != args.players:
        raise BonusLabError(
            f"plan is for {rational_text(plan.players)} players,"
            f" --players says {rational_text(args.players)}"
        )
    grid = _parse_grid(args.grid)
    report = counterexamples.universality_verdict(plan, grid)
    document: dict = {"verdict": report.verdict}
    if report.violation is not None:
        document["violation"] = _violation_dict(report.violation)
    if report.counterexample is not None:
        document["counterexample"] = _counterexample_dict(report.counterexample)
    return document


def _text_probe(doc, args):
    yield f"verdict: {doc['verdict']}"
    if "counterexample" not in doc:
        return
    v, ce = doc["violation"], doc["counterexample"]
    moved = "lower" if v["direction"] == counterexamples.Direction.DECREASE else "higher"
    if "x" in v:  # a two-player pair violation
        where = f"results ({v['x']}, {v['y']})"
    else:
        where = f"base ({', '.join(v['base'])}) moving to {v['witness']}"
    yield (
        f"violation: player {v['player'] + 1} is paid {v['deficit']} "
        f"more for a {moved} own result at {where}"
    )
    yield (
        f"player {ce['player'] + 1} deviates to {ce['deviation_action']} "
        f"and gains {_fmt(args, ce['gain'])}"
    )
    yield "market:"
    for atom in ce["market"]["atoms"]:
        yield f"  p = {atom['p']}: ({', '.join(atom['outcomes'])})"
    yield "expectations: " + ", ".join(
        f"E[{label}] = {_fmt(args, value)}" for label, value in ce["certificate"]
    )


def _cmd_validate_plan(args, plan) -> dict:
    try:
        lo_text, hi_text = args.range.split(":")
    except ValueError as exc:
        raise BonusLabError(f"--range must be LO:HI, got {input_text(args.range)}") from exc
    report = plans.validate_simplex(
        plan, count=args.samples, seed=args.seed, lo=lo_text, hi=hi_text
    )
    document: dict = {"ok": report.ok, "evaluations": report.evaluations}
    if report.failure:
        r, shares, reason = report.failure
        document["failure"] = {
            "r": [format_rational(v) for v in r],
            "shares": None if shares is None else [format_rational(s) for s in shares],
            "reason": reason,
        }
    return document


def _text_validate_plan(doc, args):
    if doc["ok"]:
        yield f"ok: {doc['evaluations']} evaluations stayed on the simplex"
        return
    failure = doc["failure"]
    yield f"FAILED after {doc['evaluations']} evaluations: {failure['reason']}"
    yield f"  at r = ({', '.join(failure['r'])})"
    if failure["shares"] is not None:
        yield f"  shares = ({', '.join(failure['shares'])})"


if __name__ == "__main__":
    sys.exit(main())
