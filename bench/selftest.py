"""Self-test of the benchmark on tiny windows of all four workloads.

    python3 bench/selftest.py

Checks that:
  * BENCHMARK.json lists the metrics run.py and tracing.py report, with the
    same units and directions;
  * every end-to-end metric is printed with its name and unit, and every
    result at the reference seed matches the committed reference;
  * a corrupted reference entry makes the run wrong and raises error_rate;
  * a task that raises, other than a malformed cli request, makes the run
    incorrect;
  * in a traced run the layers' self times plus the benchmark's own time add
    up to the traced wall time, and every per-layer metric is printed;
  * in a directory holding only BENCHMARK.json and bench/, the benchmark
    exits non-zero without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import io
import json
import shutil
import subprocess
import sys

import run
import tracing

WINDOW = {"sweep": 12, "wide": 4, "deep": 5, "cli": 24}


def check(condition: bool, message: str, failures: list[str]) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def declared_metrics(failures: list[str]) -> None:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for key, expected in (("end_to_end", run.END_TO_END), ("per_layer", tracing.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        check(declared == list(expected), f"BENCHMARK.json {key} matches the code", failures)
    check(
        [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
        "BENCHMARK.json workloads match the code",
        failures,
    )


def end_to_end(name: str, failures: list[str]) -> dict:
    out = io.StringIO()
    result = run.measure(name, run.REFERENCE_SEED, 1, False, window=WINDOW[name], out=out)
    text = out.getvalue()
    for metric, unit, _ in run.END_TO_END:
        printed = any(
            line.split()[:1] == [metric] and f" {unit} " in line for line in text.splitlines()
        )
        reported = result["metrics"].get(metric, {}).get("unit") == unit
        check(printed and reported, f"{name}: {metric} printed and reported in {unit}", failures)
    check(result["correct"], f"{name}: every result matches the reference", failures)
    return result


def corrupted_reference(name: str, baseline: dict, failures: list[str]) -> None:
    reference = copy.deepcopy(run.load_reference(name))
    reference[0][0] = {"corrupted": True}  # task 0 is well-formed in every workload
    result = run.measure(
        name, run.REFERENCE_SEED, 1, False, window=WINDOW[name], reference=reference,
        out=io.StringIO(),
    )
    before = baseline["failed"] / baseline["attempted"]
    after = result["failed"] / result["attempted"]
    check(
        not result["correct"] and after > before,
        f"{name}: a corrupted reference entry raises error_rate ({before:.3f} -> {after:.3f})",
        failures,
    )


def raising_task(name: str, failures: list[str]) -> None:
    import workloads  # importable once run.measure has put src/ on the path

    workload = workloads.WORKLOADS[name]

    def raises(task):
        raise RuntimeError("a task made to raise")

    workload.run = raises  # an instance attribute, shadowing the method
    try:
        result = run.measure(
            name, run.REFERENCE_SEED, 1, False, window=WINDOW[name], out=io.StringIO()
        )
    finally:
        del workload.run
    check(
        not result["correct"] and result["failed"] == result["attempted"],
        f"{name}: a task that raises makes the run incorrect",
        failures,
    )


def traced(name: str, failures: list[str]) -> None:
    out = io.StringIO()
    result = run.measure(name, run.REFERENCE_SEED, 1, True, window=WINDOW[name], out=out)
    text = out.getvalue()
    line = next(l for l in text.splitlines() if "layers' self time" in l)
    words = line.split()
    layers, own, wall = float(words[3]), float(words[8]), float(words[-2])
    check(
        abs(layers + own - wall) <= 5e-9 and layers > 0 and own >= 0,
        f"{name}: layers' self {layers:.4f} s + benchmark's own {own:.4f} s"
        f" = traced wall {wall:.4f} s",
        failures,
    )
    names = [metric for metric, _, _ in tracing.PER_LAYER]
    check(
        list(result["metrics"]) == names
        and all(any(l.split()[:1] == [m] for l in text.splitlines()) for m in names),
        f"{name}: every per-layer metric printed and reported",
        failures,
    )
    check(result["correct"], f"{name}: traced results match the reference", failures)


def bare_directory(failures: list[str]) -> None:
    bare = run.ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(
        proc.returncode != 0 and "{" not in proc.stdout,
        f"without src/ the benchmark exits {proc.returncode} and prints no result",
        failures,
    )


def main() -> int:
    failures: list[str] = []
    declared_metrics(failures)
    for name in run.WORKLOADS:
        baseline = end_to_end(name, failures)
        corrupted_reference(name, baseline, failures)
        raising_task(name, failures)
        traced(name, failures)
    bare_directory(failures)
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
