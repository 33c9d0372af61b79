"""Seeded inputs, tasks and exact-result checks for the four workloads.

A workload is a fixed cycle of task shapes.  The seed and the pass draw the
values (market outcomes and probabilities, value grids), never the shapes,
so two seeds, and two passes of one run, time the same mix of task sizes and
their latency distributions are comparable.  No two executions of a run get
equal inputs, so a cache held across calls cannot answer one from another.
Each shape cycle is built so that the median and the 90th percentile of a
run fall inside one class of task cost rather than on the boundary between
two classes, where a one-task shift would move them by the whole gap.

Every task's result is reduced to a JSON value of exact rational strings
(`summarize`); `check` re-derives the invariants that hold for any seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import bonuslab as bl
from bonuslab import cli

_DENOMINATORS = (1, 1, 1, 2, 2, 4, 5, 8)


def random_market(rng: random.Random, n: int, atoms: int, outlier: bool) -> bl.Market:
    """A market of n actions and `atoms` atoms with a unique best action.

    Probabilities are integer weights over a common denominator.  With
    `outlier` one more atom carries probability at most 1/1000 and an outcome
    of magnitude at least 1000.  Only the values are redrawn until the best
    action is unique, so the shape is the one asked for.
    """
    while True:
        rows = [
            [Fraction(rng.randint(-40, 40), rng.choice(_DENOMINATORS)) for _ in range(n)]
            for _ in range(atoms)
        ]
        weights = [rng.randint(1, 9) for _ in range(atoms)]
        probabilities = [Fraction(w, sum(weights)) for w in weights]
        if outlier:
            rare = Fraction(1, 1000 * rng.randint(1, 20))
            probabilities = [p * (1 - rare) for p in probabilities]
            row = [Fraction(rng.randint(-40, 40), rng.choice(_DENOMINATORS)) for _ in range(n)]
            row[rng.randrange(n)] = Fraction(
                rng.choice((-1, 1)) * rng.randint(1000, 10**6), rng.choice(_DENOMINATORS)
            )
            rows.append(row)
            probabilities.append(rare)
        market = bl.build_market(
            [f"A{i + 1}" for i in range(n)], zip(probabilities, map(tuple, rows))
        )
        exps = market.expectations()
        if exps.count(max(exps)) == 1:
            return market


def progression(rng: random.Random) -> list[Fraction]:
    """Three evenly spaced values; the draws make two grids equal only by chance."""
    start = Fraction(rng.randint(-1000, 1000), rng.choice(_DENOMINATORS))
    step = Fraction(rng.randint(1, 50), rng.choice(_DENOMINATORS))
    return [start, start + step, start + 2 * step]


def best_action(market: bl.Market) -> int:
    exps = market.expectations()
    return exps.index(max(exps))


def q(value: Fraction) -> str:
    return bl.format_rational(value)


def qs(values) -> list[str]:
    return [q(v) for v in values]


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _optimality(report: bl.OptimalityReport) -> dict:
    return {
        "verdict": report.verdict.value,
        "mu_star": q(report.mu_star),
        "witness": None if report.witness is None else list(report.witness),
        "gains": [qs(rep.gains) for _, rep in report.checked],
    }


def _equilibrium(report: bl.EquilibriumReport) -> dict:
    return {
        "verdict": report.verdict.value,
        "method": report.method,
        "payoffs": qs(report.payoffs),
        "gains": qs(report.gains),
        "deviations": [qs(br.strategy.weights) for br in report.deviations],
    }


def _counterexample(report: bl.UniversalityReport) -> dict:
    v, ce = report.violation, report.counterexample
    return {
        "verdict": report.verdict,
        "violation": {
            "direction": v.direction.value,
            "player": v.player,
            "deficit": q(v.deficit),
            "base": qs(v.base),
            "witness": q(v.witness),
        },
        "player": ce.player,
        "deviation": ce.deviation,
        "atoms": len(ce.market.atoms),
        "gain": q(ce.gain),
        "params": {
            k: q(x) if isinstance(x, Fraction) else x for k, x in sorted(ce.params.items())
        },
        "certificate": [[label, q(x)] for label, x in ce.certificate],
    }


def _bound_violations(bound, min_gap, witnesses) -> list[str]:
    """find_bounding_m invariants, on (threshold, tail_empty_at, gap) triples."""
    problems = []
    if bound != max(max(t, tail) for t, tail, _ in witnesses):
        problems.append("bound is not the largest witness threshold or tail")
    if min_gap != min(gap for _, _, gap in witnesses) or min_gap <= 0:
        problems.append("min_gap is not the smallest, positive witness gap")
    return problems


def _nash_violations(report: bl.EquilibriumReport) -> list[str]:
    gains = [br.value - p for br, p in zip(report.deviations, report.payoffs)]
    if list(report.gains) != gains:
        return ["gains differ from deviation value minus payoff"]
    expected = (
        bl.Verdict.NOT_EQUILIBRIUM
        if any(g > 0 for g in gains)
        else bl.Verdict.NO_VIOLATION_AT_RESOLUTION
    )
    if report.verdict is not expected:
        return [f"verdict {report.verdict.value} does not follow from the gains"]
    return []


class Workload:
    """A window of seeded tasks, timed in `passes` passes.

    A run covers `window_per_second` task shapes per second of the run
    length, at least 100; at the commit that introduced the benchmark a run
    then measures about that many seconds.  The window is fixed by the run
    length, so every run and every commit times the same mix of shapes.
    `generate(seed, pass_no, workdir, count)` draws the values of one pass.
    """

    name: str
    window_per_second: float
    passes: int

    def prepare(self, seed: int, pass_no: int, workdir: Path, count: int) -> tuple:
        """The tasks of one pass and the documents they read, {path: JSON text},
        not yet written.  Only cli tasks read documents."""
        return self.generate(seed, pass_no, workdir, count), {}

    def expected(self, task):
        """The result a task must give whatever the reference says, if any."""
        return None

    def trace_counts(self, raw) -> dict:
        """Counters a traced run takes from a task's result."""
        return {}


# ---------------------------------------------------------------------
# sweep: many small verdicts
# ---------------------------------------------------------------------


class Sweep(Workload):
    """build_m_linear -> check_optimal, strict_dominance of that plan's game,
    then build_bounded_linear(d=4) -> check_optimal, on small markets."""

    name = "sweep"
    window_per_second = 9
    passes = 3

    def generate(self, seed: int, pass_no: int, workdir: Path, count: int) -> list:
        rng = random.Random(f"sweep:{seed}:{pass_no}")
        tasks = []
        for i in range(count):
            n = 2 + i % 3
            players = 2 + (i // 15) % 2
            # Three players shift the atom counts by one, so that the four
            # slowest shapes of the 30-shape cycle (4 actions, 3 players) come
            # in two pairs of equal size and the 90th percentile falls
            # inside the lower pair rather than on the gap below the top three.
            atoms = 2 + (i // 3 + players - 2) % 5
            tasks.append((random_market(rng, n, atoms, i % 6 == 5), players))
        return tasks

    def run(self, task):
        market, players = task
        plan = bl.build_m_linear(market, players)
        report = bl.check_optimal(market, plan)
        dominance = bl.strict_dominance(bl.induce_game(market, plan))
        bounded = bl.build_bounded_linear(market, players, 4)
        bounded_report = bl.check_optimal(market, bounded)
        return plan, report, dominance, bounded, bounded_report

    def summarize(self, task, raw) -> dict:
        plan, report, dominance, bounded, bounded_report = raw
        return {
            "m_linear": {"bound": q(plan.bound), "interval": [q(plan.lo), q(plan.hi)]},
            "optimal": _optimality(report),
            "dominance": {
                "pairs": [list(p) for p in dominance.pairs],
                "survivors": [list(s) for s in dominance.survivors],
                "unique": None
                if dominance.unique_profile is None
                else list(dominance.unique_profile),
            },
            "bounded": {"bound": q(bounded.bound)},
            "bounded_optimal": _optimality(bounded_report),
        }

    def check(self, task, raw) -> list[str]:
        market, _ = task
        _, report, dominance, _, bounded_report = raw
        problems = []
        if report.verdict is not bl.OptimalityVerdict.OPTIMAL:
            problems.append("m_linear plan is not optimal")
        if bounded_report.verdict is not bl.OptimalityVerdict.OPTIMAL:
            problems.append("bounded_linear plan is not optimal")
        best = best_action(market)
        unique = dominance.unique_profile
        if unique is None:
            problems.append("strict dominance leaves no unique profile")
        elif any(a != best for a in unique):
            problems.append("dominance survivor is off the best action")
        return problems


# ---------------------------------------------------------------------
# wide: many players, few cells read
# ---------------------------------------------------------------------


class Wide(Workload):
    """check_optimal at k=4 or 5 on 4x6 markets (m_linear, WTA, LTA plans),
    and universality_verdict for WTA(3) or LTA(3) on drawn 3-point grids."""

    name = "wide"
    window_per_second = 5
    passes = 1

    def generate(self, seed: int, pass_no: int, workdir: Path, count: int) -> list:
        rng = random.Random(f"wide:{seed}:{pass_no}")
        tasks = []
        for i in range(count):
            if i % 4 == 3:
                # Three WTA probes to one LTA probe keeps the run's median
                # inside the m_linear k=4 class; see the module docstring.
                plan = bl.LoserTakeAllPlan(3) if (i // 4) % 4 == 3 else bl.WinnerTakeAllPlan(3)
                tasks.append(("universality", plan, progression(rng)))
                continue
            c = 3 * (i // 4) + i % 4
            players = 5 if c % 4 == 3 else 4
            market = random_market(rng, 4, 6, False)
            kind = ("m_linear", "wta", "lta")[c % 3]
            if kind == "m_linear":
                plan = bl.build_m_linear(market, players)
            elif kind == "wta":
                plan = bl.WinnerTakeAllPlan(players)
            else:
                plan = bl.LoserTakeAllPlan(players)
            tasks.append(("optimal", plan, market))
        return tasks

    def run(self, task):
        kind, plan, arg = task
        if kind == "universality":
            return bl.universality_verdict(plan, arg)
        return bl.check_optimal(arg, plan)

    def summarize(self, task, raw) -> dict:
        if task[0] == "universality":
            return _counterexample(raw)
        return _optimality(raw)

    def check(self, task, raw) -> list[str]:
        kind, plan, _ = task
        if kind == "universality":
            ce = raw.counterexample
            if ce is None:
                return ["no counterexample for a winner- or loser-take-all plan"]
            if ce.gain <= 0:
                return ["counterexample gain is not positive"]
            try:
                bl.validate_counterexample(plan, ce)
            except bl.BonusLabError as exc:
                return [f"counterexample fails validation: {exc}"]
            return []
        if plan.kind == "m_linear" and raw.verdict is not bl.OptimalityVerdict.OPTIMAL:
            return ["m_linear plan is not optimal"]
        return []


# ---------------------------------------------------------------------
# deep: two players, fine grids
# ---------------------------------------------------------------------


class Deep(Workload):
    """find_bounding_m(d), then check_nash of WTA(2) at the best pure profile
    with resolution d, for d in 6..8 on markets of 2-5 actions."""

    name = "deep"
    window_per_second = 5
    passes = 2

    def generate(self, seed: int, pass_no: int, workdir: Path, count: int) -> list:
        rng = random.Random(f"deep:{seed}:{pass_no}")
        plan = bl.WinnerTakeAllPlan(2)
        tasks = []
        for i in range(count):
            # Action counts 2,3,4,4,5 put the median inside the 4-action
            # class and the 90th percentile inside the 5-action class.
            n = (2, 3, 4, 4, 5)[i % 5]
            resolution = 6 + i % 3
            atoms = 2 + i % 7
            outlier = (i + i // 5) % 5 == 4
            market = random_market(rng, n, atoms, outlier)
            best = best_action(market)
            tasks.append((market, plan, resolution, bl.Profile.pure((best, best), n)))
        return tasks

    def run(self, task):
        market, plan, resolution, profile = task
        search = bl.find_bounding_m(market, resolution)
        report = bl.check_nash(bl.induce_game(market, plan), profile, resolution)
        return search, report

    def summarize(self, task, raw) -> dict:
        search, report = raw
        return {
            "bound": q(search.bound),
            "min_gap": q(search.min_gap),
            "best_action": search.best_action,
            "witnesses": len(search.witnesses),
            "witness_digest": digest(
                [
                    [qs(w.weights), q(w.gap), q(w.threshold), q(w.tail_empty_at)]
                    for w in search.witnesses
                ]
            ),
            "nash": _equilibrium(report),
        }

    def check(self, task, raw) -> list[str]:
        search, report = raw
        triples = [(w.threshold, w.tail_empty_at, w.gap) for w in search.witnesses]
        return _bound_violations(search.bound, search.min_gap, triples) + _nash_violations(
            report
        )


# ---------------------------------------------------------------------
# cli: the front end, in process
# ---------------------------------------------------------------------

# One cycle of requests.  Well-formed requests name the documents they read;
# malformed ones carry the exit code the command-line contract promises
# (1 for a rejected document, 2 for a usage error).  The last four malformed
# kinds escape cli.main as exceptions at the commit that introduced this
# benchmark, and count as failed until the front end maps them to exit 1.
CLI_CYCLE = (
    "induce",
    "check-optimal",
    "find-m",
    "bad:negative-probability",
    "build-bounded",
    "probe-universal",
    "bad:float-in-market",
    "check-optimal",
    "induce",
    "bad:unknown-plan-kind",
    "find-m",
    "bad:m-linear-without-interval",
    "check-optimal",
    "probe-universal",
    "bad:missing-file",
    "build-bounded",
    "bad:bounded-linear-bound-zero",
    "check-optimal",
    "induce",
    "bad:usage-error",
    "find-m",
    "probe-universal",
    "bad:find-m-grid-zero",
    "check-optimal",
)

MALFORMED_EXIT = {
    "negative-probability": 1,
    "unknown-plan-kind": 1,
    "missing-file": 1,
    "usage-error": 2,
    "float-in-market": 1,
    "m-linear-without-interval": 1,
    "bounded-linear-bound-zero": 1,
    "find-m-grid-zero": 1,
}

_PROBE_GRIDS = ("0:2:1", "-1:1:1", "0:1:1/2", "-1:1/2:1/2", "1:3:1")


class Cli(Workload):
    """bonuslab.cli.main(argv) with --json, stdout and stderr captured."""

    name = "cli"
    window_per_second = 24
    passes = 4

    def generate(self, seed: int, pass_no: int, workdir: Path, count: int) -> list:
        tasks, documents = self.prepare(seed, pass_no, workdir, count)
        workdir.mkdir(parents=True, exist_ok=True)
        for path, text in documents.items():
            path.write_text(text)
        return tasks

    def prepare(self, seed: int, pass_no: int, workdir: Path, count: int) -> tuple:
        rng = random.Random(f"cli:{seed}:{pass_no}")
        texts: dict[Path, str] = {}

        def store(name: str, data) -> str:
            texts[workdir / name] = json.dumps(data)
            return str(workdir / name)

        wta3 = store("wta3.json", bl.plan_to_dict(bl.WinnerTakeAllPlan(3)))
        probes = [
            store("wta2.json", bl.plan_to_dict(bl.WinnerTakeAllPlan(2))),
            store("lta2.json", bl.plan_to_dict(bl.LoserTakeAllPlan(2))),
        ]

        good_market = bl.market_to_dict(random_market(rng, 3, 3, False))
        good = store("good.json", good_market)
        negative = json.loads(json.dumps(good_market))
        negative["atoms"][0]["p"] = "-" + negative["atoms"][0]["p"]
        negative = store("negative.json", negative)
        floating = json.loads(json.dumps(good_market))
        floating["atoms"][1]["outcomes"][0] = 0.25
        floating = store("float.json", floating)
        unknown = store("unknown.json", {"players": 2, "kind": "median"})
        no_interval = store("no_interval.json", {"players": 2, "kind": "m_linear", "bound": "4"})
        zero = store("bound_zero.json", {"players": 2, "kind": "bounded_linear", "bound": "0"})
        malformed = {
            "negative-probability": ["find-m", "--market", negative, "--grid", "4"],
            "unknown-plan-kind": ["check-optimal", "--market", good, "--plan", unknown],
            "missing-file": ["find-m", "--market", str(workdir / "absent.json"), "--grid", "4"],
            "usage-error": ["find-m", "--market", good, "--grid", "four"],
            "float-in-market": ["induce", "--market", floating, "--plan", probes[0]],
            "m-linear-without-interval": [
                "check-optimal", "--market", good, "--plan", no_interval
            ],
            "bounded-linear-bound-zero": ["check-optimal", "--market", good, "--plan", zero],
            "find-m-grid-zero": ["find-m", "--market", good, "--grid", "0"],
        }

        tasks = []
        documents = 0  # every well-formed request reads documents of its own
        for i in range(count):
            command = CLI_CYCLE[i % len(CLI_CYCLE)]
            turn = i // len(CLI_CYCLE)
            if command.startswith("bad:"):
                tasks.append((command, ["--json"] + malformed[command[4:]]))
                continue
            if command == "probe-universal":
                lo, mid, hi = progression(rng)
                argv = [
                    "probe-universal",
                    "--plan",
                    probes[turn % len(probes)],
                    f"--grid={lo}:{hi}:{mid - lo}",
                    "--players",
                    "2",
                ]
                tasks.append((command, ["--json"] + argv))
                continue
            j = documents
            documents += 1
            shape = (2 + j % 3, 2 + (j // 3) % 5, j % 6 == 5)
            market_doc = random_market(rng, *shape)
            market = store(f"market{j}.json", bl.market_to_dict(market_doc))
            if command == "induce":
                argv = ["induce", "--market", market, "--plan", wta3]
            elif command == "check-optimal":
                players = 2 + j % 2
                plan = (
                    bl.build_m_linear(market_doc, players)
                    if j % 4
                    else bl.WinnerTakeAllPlan(players)
                )
                argv = [
                    "check-optimal", "--market", market,
                    "--plan", store(f"plan{j}.json", bl.plan_to_dict(plan)),
                ]
                command = f"check-optimal:{plan.kind}"
            elif command == "find-m":
                argv = ["find-m", "--market", market, "--grid", str(4 + turn % 3)]
            else:
                argv = ["build-bounded", "--market", market, "--players", "2", "--grid", "4"]
            tasks.append((command, ["--json"] + argv))
        return tasks, texts

    def run(self, task):
        _, argv = task
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def trace_counts(self, raw) -> dict:
        code, stdout, stderr = raw
        return {"cli.output_bytes": len(stdout) + len(stderr), "cli.nonzero_exits": int(code != 0)}

    def summarize(self, task, raw) -> dict:
        code, stdout, _ = raw
        return {"exit": code, "stdout": digest(json.loads(stdout)) if stdout else ""}

    def expected(self, task):
        """The contract's result for a malformed request, else None."""
        command, _ = task
        if command.startswith("bad:"):
            return {"exit": MALFORMED_EXIT[command[4:]], "stdout": ""}
        return None

    def check(self, task, raw) -> list[str]:
        command, argv = task
        code, stdout, stderr = raw
        if command.startswith("bad:"):
            if code == 1 and not _is_error_object(stderr):
                return ["exit 1 without a JSON error object on stderr"]
            return []
        if code != 0:
            return [f"well-formed request exited {code}"]
        payload = json.loads(stdout)
        if command == "check-optimal:m_linear" and payload["verdict"] != "optimal":
            return ["m_linear plan is not optimal"]
        if command == "find-m":
            triples = [
                (Fraction(w["threshold"]), Fraction(w["tail_empty_at"]), Fraction(w["gap"]))
                for w in payload["witnesses"]
            ]
            return _bound_violations(
                Fraction(payload["bound"]), Fraction(payload["min_gap"]), triples
            )
        if command == "probe-universal" and "counterexample" in payload:
            return _cli_counterexample_violations(argv, payload["counterexample"])
        return []


def _is_error_object(stderr: str) -> bool:
    try:
        error = json.loads(stderr)["error"]
    except (ValueError, KeyError, TypeError):
        return False
    return isinstance(error.get("type"), str) and isinstance(error.get("message"), str)


def _cli_counterexample_violations(argv: list[str], data: dict) -> list[str]:
    """Rebuild an emitted counterexample and re-validate it against its plan."""
    with open(argv[argv.index("--plan") + 1]) as fh:
        plan = bl.load_plan(fh.read())
    market = bl.market_from_dict(data["market"])
    ce = bl.Counterexample(
        market,
        bl.profile_from_list(data["profile"]),
        data["player"],
        data["deviation"],
        Fraction(data["gain"]),
        tuple((label, Fraction(value)) for label, value in data["certificate"]),
        data["params"],
    )
    if ce.gain <= 0:
        return ["counterexample gain is not positive"]
    try:
        bl.validate_counterexample(plan, ce)
    except bl.BonusLabError as exc:
        return [f"counterexample fails validation: {exc}"]
    return []


WORKLOADS = {w.name: w for w in (Sweep(), Wide(), Deep(), Cli())}
