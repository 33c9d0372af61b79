"""Regenerate bench/reference.json: every task's exact result at the reference seed.

    python3 bench/make_reference.py [workload ...]

The reference covers every pass of the window a run of BENCHMARK.json's
run_seconds times, one list per pass, and pass 1, which a traced run times.  Regenerating it changes the
benchmark; a change that claims a speed-up must leave this file alone.  The
script refuses to write a result that breaks an invariant.  Malformed cli requests are stored with the
outcome the command-line contract promises, not with what the code does.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main(names: list[str]) -> int:
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    with open(run.ROOT / "BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    data = {"seed": run.REFERENCE_SEED, "workloads": {}}
    if run.REFERENCE.exists():
        with open(run.REFERENCE) as fh:
            data = json.load(fh)
    workdir = run.ROOT / ".bench_work" / "reference"
    try:
        for name in names or run.WORKLOADS:
            workload = WORKLOADS[name]
            count = run.window_size(workload, seconds)
            passes = []
            # A traced run times pass 1 untraced, so every workload has two at least.
            for pass_no in range(max(workload.passes, 2)):
                results = []
                window = workload.generate(
                    run.REFERENCE_SEED, pass_no, workdir / f"pass{pass_no}", count
                )
                for index, task in enumerate(window):
                    expected = workload.expected(task)
                    if expected is not None:
                        results.append(expected)
                        continue
                    raw = workload.run(task)
                    problems = workload.check(task, raw)
                    if problems:
                        where = f"{name} pass {pass_no} task {index}"
                        print(f"{where}: {'; '.join(problems)}", file=sys.stderr)
                        return 1
                    results.append(workload.summarize(task, raw))
                passes.append(results)
            data["workloads"][name] = passes
            print(f"{name}: {len(passes)} x {count} results", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    entries = sorted(data["workloads"].items())
    with open(run.REFERENCE, "w") as fh:
        fh.write('{"seed": %d, "workloads": {\n' % data["seed"])
        for i, (name, passes) in enumerate(entries):
            lists = ",\n".join(
                "[\n"
                + ",\n".join(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in results)
                + "\n]"
                for results in passes
            )
            fh.write(f'"{name}": [\n{lists}\n]' + (",\n" if i + 1 < len(entries) else "\n"))
        fh.write("}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
