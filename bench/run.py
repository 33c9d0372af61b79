"""bonuslab benchmark: four seeded verdict workloads with exact-result checks.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

`--workload all` runs the four workloads one after the other, each in its
own process.

bonuslab hands out exact verdicts, so its users care about two things: how
long a verdict takes, and whether it is still exactly the same verdict.
Each workload is a closed loop: one caller, one task at a time, in one
process.  A task is one verdict: a fixed sequence of library calls, or one
`bonuslab.cli.main` invocation.  The cost sits in different layers for
different uses, so one workload cannot show them all:

  sweep  many small verdicts (2-4 actions, 2-6 atoms, 1 in 6 with a rare
         outlier atom, k = 2 or 3): build_m_linear -> check_optimal,
         strict_dominance of the induced game, build_bounded_linear(d=4) ->
         check_optimal.  Per-call overhead counts here, and strict_dominance
         is the one consumer that reads the whole payoff tensor, so a lazy
         game must not slow it.
  wide   many players, few cells read: check_optimal at k=4 (k=5 for every
         fourth) on 4x6 markets with m_linear, WTA and LTA plans, and one
         task in four a universality_verdict for WTA(3) or LTA(3) on a
         3-point grid (27-64 atom product markets).  The full n^k tensor is
         built while a verdict reads about k*n cells, and
         validate_counterexample builds it a second time.
  deep   two players, fine grids: find_bounding_m(d) then check_nash of
         WTA(2) at the best pure profile with resolution d, d in 6..8, on
         markets of 2-5 actions and 2-8 atoms (1 in 5 with an outlier).  The
         cost sits in the mixed grid and the witness scan while the tensor
         has at most 25 cells.
  cli    the front end in process: induce (3-player WTA, full tensor
         serialized), check-optimal, find-m, build-bounded and
         probe-universal under --json, plus a fixed share (1 in 3) of
         malformed requests.  Argument parsing, JSON load and dump,
         rational formatting and the error path are a large share here; it
         is the bypass case for kernel work.

Set-up (`setup_s`) imports bonuslab and generates the inputs of the run's
first pass, in a fresh interpreter.  It is timed several times before the
first pass and after each pass, 15 times at least, and the median is
reported.

A run times a fixed window of task shapes, sized from `--seconds` (see
workloads.Workload) and at least 100 so that the 90th percentile has at least
ten samples beyond it.  The window is run in several passes.  Each pass draws
new values for the same shapes, so no execution repeats another's inputs.
The percentiles are taken over every execution, and `tasks_per_s` is the
number of executions over the sum of their latencies.

Times are reported at reference speed.  The machines this runs on change
speed by up to twice over spans of a second, as neighbours come and go, and
a run's median moves with them: the same tasks, timed in rounds of a few
seconds, spread by a quarter from round to round.  So a fixed piece of
pure-Python rational arithmetic that uses no bonuslab code (`calibrate`) is
timed right before and right after every task, and every SAMPLE_S seconds
while a task runs (see SpeedSampler).  The task's time, less the time those
calibrations took, is scaled by CALIBRATION_S over their mean: it is the time
the task would take on a machine that runs the calibration in CALIBRATION_S.
A set-up is scaled the same way, by calibrations taken in its interpreter.
A change that makes bonuslab faster makes its scaled times smaller in the
same ratio, since nothing it does changes the calibration.  The summary also
prints every time as measured.

Every execution's result is checked: against the committed reference
(bench/reference.json, one list per pass) when the seed is the reference
seed, and against the invariants in workloads.py for any seed.  A task fails
if it raises or if its result is wrong; `error_rate` is failed / attempted,
where every execution is an attempt.  `correct` is false when any result is
wrong, and when a task raises that has no outcome of its own to expect (the
malformed cli requests do; see workloads.Workload.expected).

`--trace 1` runs the first pass with every public bonuslab function wrapped
(see tracing.py), prints the per-layer metrics, then runs the second pass
untraced; `trace.overhead_s` is the difference of the two task times.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from math import gcd
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
REFERENCE_SEED = 0
MIN_TASKS = 100
SETUP_COUNT = 15  # cold set-ups per run, at least, spread before and between passes
CALIBRATION_S = 0.0002  # calibrate() on the reference machine (see at_reference_speed)
SAMPLE_S = 0.02  # while a task runs, calibrate every SAMPLE_S seconds
LOOP_LIMIT_S = 150.0
WORKLOADS = ("sweep", "wide", "deep", "cli")

# (metric, unit, better); BENCHMARK.json lists the same.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("tasks_per_s", "1/s", "higher"),
    ("task_p50_ms", "ms", "lower"),
    ("task_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


class _Ratio:
    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int) -> None:
        common = gcd(num, den)
        self.num, self.den = num // common, den // common

    def __add__(self, other: _Ratio) -> _Ratio:
        return _Ratio(self.num * other.den + other.num * self.den, self.den * other.den)


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work that uses no bonuslab code.

    Like bonuslab, it adds rationals held in small objects, so its time moves
    with the machine's speed of the moment as bonuslab's does, and with
    nothing a change to bonuslab can do.
    """
    t0 = time.perf_counter()
    total = _Ratio(0, 1)
    for i in range(1, 200):
        total = total + _Ratio(i % 17 - 8, i % 7 + 1)
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, calibrations: list[float]) -> float:
    """`seconds` measured while the calibrations were taken, scaled to the reference machine."""
    return seconds * CALIBRATION_S / statistics.fmean(calibrations)


class SpeedSampler:
    """Calibrates every SAMPLE_S seconds while a task runs, from a SIGALRM handler.

    The handler runs between two bytecodes of the task, so a task longer than
    SAMPLE_S is scaled by the machine's speed during it and not only at its
    ends.  `paused_s` is the time the handler took, which is not the task's.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.paused_s = 0.0
        self.armed = False

    def _tick(self, signum, frame) -> None:
        if self.armed:
            t0 = time.perf_counter()
            self.samples.append(calibrate())
            self.paused_s += time.perf_counter() - t0

    def install(self) -> None:
        self.previous = signal.signal(signal.SIGALRM, self._tick)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def start(self) -> None:
        self.samples, self.paused_s, self.armed = [], 0.0, True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.armed = False


class Verifier:
    """Counts the attempted, failed and incorrect executions of one run.

    `reference` holds one list of expected summaries per pass, or is None.
    """

    def __init__(self, workload, reference: list | None) -> None:
        self.workload = workload
        self.reference = reference or []
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.raised: Counter = Counter()
        self.problems: list[str] = []

    def record(self, pass_no: int, index: int, task, raw, error: Exception | None) -> None:
        self.attempted += 1
        expected = self.workload.expected(task)
        if error is not None:
            self.failed += 1
            self.raised[f"{type(error).__name__}: {error}"] += 1
            if expected is None:  # only a malformed request may fail this way
                self.incorrect += 1
                self.problems.append(f"pass {pass_no} task {index}: raised {error!r}")
            return
        try:
            summary = self.workload.summarize(task, raw)
            problems = self.workload.check(task, raw)
        except Exception as exc:  # a result the checks cannot read is wrong
            summary, problems = None, [f"result check raised {exc!r}"]
        if expected is None and pass_no < len(self.reference):
            expected = self.reference[pass_no][index]
        if expected is not None and summary != expected:
            problems.append("result differs from the reference")
        if problems:
            self.failed += 1
            self.incorrect += 1
            self.problems.append(f"pass {pass_no} task {index}: " + "; ".join(problems))


def window_size(workload, seconds: float) -> int:
    return max(MIN_TASKS, round(workload.window_per_second * seconds))


def load_reference(name: str) -> list:
    with open(REFERENCE) as fh:
        data = json.load(fh)
    if data["seed"] != REFERENCE_SEED:
        raise SystemExit(f"bench: {REFERENCE.name} is not for seed {REFERENCE_SEED}")
    return data["workloads"][name]


def setup_once(name: str, seed: int, count: int, workdir: str) -> None:
    """Import bonuslab, generate the first pass's inputs and print the seconds it took,
    as measured and at reference speed.

    Meant for a fresh interpreter, so that the import is a cold one.  The cli
    documents are serialized but not written: creating a file took from 0.1
    to 0.6 ms on a 2-vCPU KVM guest, depending on the directory, and that is
    the benchmark's own I/O, not work of bonuslab's.
    """
    calibrate()  # warm-up
    before = calibrate()
    sampler = SpeedSampler()
    sampler.install()
    sampler.start()
    t0 = time.perf_counter()
    import bonuslab.cli  # noqa: F401  (the cli workload's entry point)
    from workloads import WORKLOADS as REGISTRY

    REGISTRY[name].prepare(seed, 0, Path(workdir), count)
    spent = time.perf_counter() - t0
    sampler.stop()
    sampler.uninstall()
    spent -= sampler.paused_s
    after = calibrate()
    print(spent, at_reference_speed(spent, [before, after, *sampler.samples]))


def time_setups(name: str, seed: int, count: int, workdir: Path, repeats: int) -> list:
    """(measured, at reference speed) seconds of `repeats` cold set-ups."""
    times = []
    for _ in range(repeats):
        code = (
            f"import sys; sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]; import run; "
            f"run.setup_once({name!r}, {seed}, {count}, {str(workdir)!r})"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        times.append(tuple(map(float, proc.stdout.split()[-2:])))
    return times


def run_task(workload, task):
    try:
        return workload.run(task), None
    except Exception as exc:  # counted as a failed task, never fatal
        return None, exc


def timed_run(workload, seed: int, count: int, workdir: Path, verifier: Verifier) -> dict:
    repeats = math.ceil(SETUP_COUNT / (workload.passes + 1))
    setups = time_setups(workload.name, seed, count, workdir, repeats)
    measured: list[float] = []
    latencies: list[float] = []  # at reference speed
    calibrations: list[float] = []
    sampler = SpeedSampler()
    start = time.perf_counter()
    for pass_no in range(workload.passes):
        elapsed = time.perf_counter() - start
        if pass_no and elapsed * (pass_no + 1) / pass_no > LOOP_LIMIT_S:
            break  # the next pass would end past the limit
        window = workload.generate(seed, pass_no, workdir / f"pass{pass_no}", count)
        before = calibrate()
        sampler.install()
        try:
            for index, task in enumerate(window):
                sampler.start()
                t0 = time.perf_counter()
                raw, error = run_task(workload, task)
                spent = time.perf_counter() - t0
                sampler.stop()
                spent -= sampler.paused_s
                after = calibrate()
                measured.append(spent)
                latencies.append(at_reference_speed(spent, [before, after, *sampler.samples]))
                calibrations.append(before)
                before = after
                verifier.record(pass_no, index, task, raw, error)
        finally:
            sampler.uninstall()
        setups += time_setups(workload.name, seed, count, workdir, repeats)
    elapsed = time.perf_counter() - start
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "setup_s": (statistics.median(s for _, s in setups), len(setups)),
        "tasks_per_s": (len(latencies) / sum(latencies), len(latencies)),
        "task_p50_ms": (statistics.median(latencies) * 1000, len(latencies)),
        "task_p90_ms": (deciles[8] * 1000, len(latencies)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "as_measured": {
            "setup_s": statistics.median(s for s, _ in setups),
            "tasks_per_s": len(measured) / sum(measured),
            "task_p50_ms": statistics.median(measured) * 1000,
            "task_p90_ms": statistics.quantiles(measured, n=10)[8] * 1000,
        },
        "calibration_s": statistics.median(calibrations),
        "passes": (len(latencies) // count, elapsed),
    }


def traced_run(package, workload, seed: int, count: int, workdir: Path, verifier: Verifier):
    from tracing import Tracer

    tracer = Tracer()
    window = workload.generate(seed, 0, workdir / "pass0", count)
    tracer.install(package)
    try:
        for index, task in enumerate(window):
            with tracer.task(index):
                raw, error = run_task(workload, task)
            verifier.record(0, index, task, raw, error)
            if error is None:
                tracer.counts.update(workload.trace_counts(raw))
    finally:
        tracer.uninstall()
    window = workload.generate(seed, 1, workdir / "pass1", count)
    untraced = 0.0
    for index, task in enumerate(window):
        t0 = time.perf_counter()
        raw, error = run_task(workload, task)
        untraced += time.perf_counter() - t0
        verifier.record(1, index, task, raw, error)
    return tracer, tracer.task_s - untraced


def print_trace_table(tracer, out) -> None:
    print(f"  {'function':<46} {'calls':>9} {'self_s':>10} {'total_s':>10}", file=out)
    for name in sorted(tracer.calls, key=tracer.self_s.get, reverse=True):
        print(
            f"  {name:<46} {tracer.calls[name]:>9} {tracer.self_s[name]:>10.4f} "
            f"{tracer.total_s[name]:>10.4f}",
            file=out,
        )
    layers = tracer.layer_self_s()
    print(
        f"  layers' self time {layers:.9f} s + benchmark's own {tracer.bench_s:.9f} s"
        f" = {layers + tracer.bench_s:.9f} s; traced wall {tracer.task_s:.9f} s",
        file=out,
    )


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    window: int | None = None,
    reference: list | None = None,
    out=sys.stdout,
) -> dict | None:
    """Set up and run one workload; print the summary and return the result.

    Returns None, after a message on stderr, when the bonuslab sources are
    not in the checkout.  `window` overrides the window size and `reference`
    the committed reference; the self-test uses both.
    """
    if not (SRC / "bonuslab" / "__init__.py").is_file():
        print(f"bench: no bonuslab package under {SRC}", file=sys.stderr)
        return None
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bonuslab
    import bonuslab.cli  # noqa: F401

    if Path(bonuslab.__file__).resolve().parent != (SRC / "bonuslab").resolve():
        print(f"bench: bonuslab was imported from {bonuslab.__file__}", file=sys.stderr)
        return None
    from workloads import WORKLOADS as REGISTRY

    workload = REGISTRY[name]
    count = window or window_size(workload, seconds)
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    if reference is None and seed == REFERENCE_SEED:
        reference = load_reference(name)
    verifier = Verifier(workload, reference)
    try:
        if trace:
            tracer, overhead = traced_run(bonuslab, workload, seed, count, workdir, verifier)
            tracer.write(ROOT / ".bench_work" / "traces" / f"{name}-seed{seed}.jsonl")
            metrics = tracer.metrics(overhead)
        else:
            measured = timed_run(workload, seed, count, workdir, verifier)
            metrics = {
                metric: {"value": measured[metric][0], "unit": unit}
                for metric, unit, _ in END_TO_END
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        f"workload {name}  seed {seed}  window {count} tasks  trace {int(trace)}"
        f"  executions {verifier.attempted}",
        file=out,
    )
    if trace:
        print_trace_table(tracer, out)
        for metric, value in metrics.items():
            print(f"  {metric:<34} {value['value']:>16.6f} {value['unit']}", file=out)
    else:
        passes, elapsed = measured["passes"]
        calibration = measured["calibration_s"]
        print(
            f"  {passes} passes in {elapsed:.1f} s; calibration {calibration * 1e6:.0f} us,"
            f" reference {CALIBRATION_S * 1e6:.0f} us; times at reference speed"
            " (as measured in brackets)",
            file=out,
        )
        for metric, unit, _ in END_TO_END:
            value, samples = measured[metric]
            as_measured = measured["as_measured"].get(metric)
            aside = "" if as_measured is None else f"  ({as_measured:.4f})"
            print(f"  {metric:<12} {value:>12.4f} {unit:<5} n={samples}{aside}", file=out)
    error_rate = verifier.failed / verifier.attempted
    print(
        f"  {'error_rate':<12} {error_rate:>12.4f} ratio n={verifier.attempted}"
        f"  (failed {verifier.failed}, incorrect {verifier.incorrect})",
        file=out,
    )
    for message, times in sorted(verifier.raised.items()):
        print(f"  raised x{times}: {message}", file=out)
    for problem in verifier.problems[:20]:
        print(f"  incorrect: {problem}", file=out)
    return {
        "correct": verifier.incorrect == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # One process per workload, one after the other.
        status = 0
        for name in WORKLOADS:
            options = ["--seed", str(args.seed), "--seconds", str(args.seconds)]
            command = [sys.executable, __file__, "--workload", name, *options]
            status |= subprocess.run(command + ["--trace", str(args.trace)]).returncode
        return status
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if result is None:
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
