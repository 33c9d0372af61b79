"""Per-layer tracing of bonuslab from outside the package.

`Tracer.install` replaces every public function of the layer modules with a
timing wrapper, in every bonuslab module namespace that bound it (modules
import each other's functions by name), and wraps the `BonusPlan.evaluate`
method.  Nothing under src/ is edited; `uninstall` restores the originals.

Each task is one span tagged with its task id.  A call into a wrapped
function while a task is open records one span: id, parent, task, name,
start and end.  The hot leaves -- plan evaluation, the rational helpers and
the points yielded by `simplex_grid` -- are counted and timed in aggregate
under their parent span instead, which keeps a run's spans within memory.
Self time is a call's duration minus the time of the calls it made.  Spans
stay in memory until `write` at the end of the run.

The module-level `plans.evaluate` is not wrapped: it only forwards to the
`BonusPlan.evaluate` method, whose calls are the ones counted.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("market", "plans", "game", "construct", "counterexamples", "cli", "rational")

LEAVES = frozenset(
    {
        "plans.evaluate",
        "rational.as_rational",
        "rational.rationals",
        "rational.format_rational",
        "rational.approx_decimal",
        "game.simplex_grid",
    }
)

NOT_WRAPPED = frozenset({"plans.evaluate"})

ESCALATION_PARAMS = ("iterations", "probability_steps", "escape_doublings")

PROBES = ("probe_pairs", "probe_own_coordinate", "four_point_shares_equal")
BUILDERS = (
    "pair_decrease_counterexample",
    "pair_increase_counterexample",
    "coordinate_decrease_counterexample",
    "coordinate_increase_counterexample",
)


def _adds(metric: str, amount):
    """A counter hook that adds amount(result) to `metric`."""
    return lambda counts, result: counts.update({metric: amount(result)})


def _escalations(ce) -> int:
    return sum(ce.params.get(key, 0) for key in ESCALATION_PARAMS)


def _atoms(market) -> int:
    return len(market.atoms)


# Counts taken from a wrapped function's result, by function.
COUNTERS = {
    "game.induce_game": _adds("game.cells", lambda game: game.market.n ** game.plan.players),
    "construct.find_bounding_m": _adds("construct.witnesses", lambda s: len(s.witnesses)),
    "counterexamples.probe_pairs": _adds("counterexamples.probe_violations", len),
    "counterexamples.probe_own_coordinate": _adds("counterexamples.probe_violations", len),
    "market.build_market": _adds("market.atoms_built", _atoms),
    "market.product_market": _adds("market.atoms_built", _atoms),
    **{
        f"counterexamples.{builder}": _adds("counterexamples.escalations", _escalations)
        for builder in BUILDERS
    },
}

# (metric, unit, better); see BENCHMARK.json for the same list.
PER_LAYER = (
    ("game.induce_calls", "count", "lower"),
    ("game.induce_self_s", "s", "lower"),
    ("game.cells", "count", "lower"),
    ("game.pure_queries", "count", "lower"),
    ("game.cells_per_pure_query", "cells/query", "lower"),
    ("game.mixed_queries", "count", "lower"),
    ("game.expected_payoffs_self_s", "s", "lower"),
    ("game.best_response_calls", "count", "lower"),
    ("game.best_response_self_s", "s", "lower"),
    ("game.grid_points", "count", "lower"),
    ("game.strict_dominance_self_s", "s", "lower"),
    ("game.check_nash_calls", "count", "lower"),
    ("game.check_optimal_calls", "count", "lower"),
    ("plans.evaluate_calls", "count", "lower"),
    ("plans.evaluate_self_s", "s", "lower"),
    ("rational.coerce_calls", "count", "lower"),
    ("rational.coerce_self_s", "s", "lower"),
    ("construct.find_bounding_m_calls", "count", "lower"),
    ("construct.find_bounding_m_self_s", "s", "lower"),
    ("construct.witnesses", "count", "lower"),
    ("construct.builds", "count", "lower"),
    ("counterexamples.probe_self_s", "s", "lower"),
    ("counterexamples.probe_violations", "count", "lower"),
    ("counterexamples.build_self_s", "s", "lower"),
    ("counterexamples.escalations", "count", "lower"),
    ("counterexamples.validate_calls", "count", "lower"),
    ("counterexamples.validate_s", "s", "lower"),
    ("market.build_calls", "count", "lower"),
    ("market.build_self_s", "s", "lower"),
    ("market.atoms_built", "count", "lower"),
    ("market.load_self_s", "s", "lower"),
    ("cli.requests", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("cli.nonzero_exits", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Spans and per-function aggregates for the tasks of one traced run."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # open calls: [start, child time, owning span id]
        self.spans: list[tuple] = []  # (id, parent, task, name, start, end)
        self.leaves: dict = defaultdict(lambda: [0, 0.0])  # (span id, name) -> [calls, self]
        self.calls: Counter = Counter()
        self.self_s: dict = defaultdict(float)
        self.total_s: dict = defaultdict(float)
        self.counts: Counter = Counter()
        self.task_s = 0.0  # summed task durations: the traced wall time
        self.bench_s = 0.0  # task time spent in benchmark code, outside bonuslab
        self._task_id = None
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- installation --------------------------------------------------

    def install(self, package) -> None:
        prefix = package.__name__
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(f"{prefix}."))
        ]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in NOT_WRAPPED
                ):
                    wrappers[obj] = self._wrap(name, obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        plan_class = sys.modules[f"{package.__name__}.plans"].BonusPlan
        self._patch(plan_class, "evaluate", self._wrap("plans.evaluate", plan_class.evaluate))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- spans ---------------------------------------------------------

    @contextmanager
    def task(self, task_id):
        span_id = self._new_id()
        self._task_id = task_id
        frame = [time.perf_counter(), 0.0, span_id]
        self.stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - frame[0]
            self.task_s += duration
            self.bench_s += duration - frame[1]
            self.spans.append((span_id, None, task_id, "task", frame[0], end))

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _close(self, name: str, frame: list, end: float, leaf: bool) -> None:
        stack = self.stack
        stack.pop()
        duration = end - frame[0]
        stack[-1][1] += duration
        own = duration - frame[1]
        self.calls[name] += 1
        self.self_s[name] += own
        self.total_s[name] += duration
        if leaf:
            entry = self.leaves[(frame[2], name)]
            entry[0] += 1
            entry[1] += own
        else:
            self.spans.append((frame[2], stack[-1][2], self._task_id, name, frame[0], end))

    def _wrap(self, name: str, fn):
        stack, clock, leaf = self.stack, time.perf_counter, name in LEAVES
        counter = COUNTERS.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if name == "game.expected_payoffs":
                self._count_query(args, kwargs)
            frame = [0.0, 0.0, stack[-1][2] if leaf else self._new_id()]
            stack.append(frame)
            frame[0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, clock(), leaf)
            if counter is not None:
                counter(self.counts, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                if not stack:
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    yield item
                    continue
                frame = [clock(), 0.0, stack[-1][2]]
                stack.append(frame)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close(name, frame, clock(), True)
                self.counts["game.grid_points"] += 1
                yield item

        return traced

    def _count_query(self, args, kwargs) -> None:
        profile = args[1] if len(args) > 1 else kwargs["profile"]
        pure = all(s.pure_action is not None for s in profile.strategies)
        self.counts["game.pure_queries" if pure else "game.mixed_queries"] += 1

    # -- results -------------------------------------------------------

    def layer_self_s(self) -> float:
        return sum(self.self_s.values())

    def metrics(self, overhead_s: float) -> dict:
        calls, own, counts = self.calls, self.self_s, self.counts

        def summed(table, layer: str, names) -> float:
            return sum(table[f"{layer}.{name}"] for name in names)

        coercions = ("as_rational", "rationals")
        builders = BUILDERS + ("tuple_probability",)
        market_builds = ("build_market", "product_market")
        values = {
            "game.induce_calls": calls["game.induce_game"],
            "game.induce_self_s": own["game.induce_game"],
            "game.cells": counts["game.cells"],
            "game.pure_queries": counts["game.pure_queries"],
            "game.cells_per_pure_query": counts["game.cells"] / counts["game.pure_queries"]
            if counts["game.pure_queries"]
            else 0.0,
            "game.mixed_queries": counts["game.mixed_queries"],
            "game.expected_payoffs_self_s": own["game.expected_payoffs"],
            "game.best_response_calls": calls["game.best_response"],
            "game.best_response_self_s": own["game.best_response"],
            "game.grid_points": counts["game.grid_points"],
            "game.strict_dominance_self_s": own["game.strict_dominance"],
            "game.check_nash_calls": calls["game.check_nash"],
            "game.check_optimal_calls": calls["game.check_optimal"],
            "plans.evaluate_calls": calls["plans.evaluate"],
            "plans.evaluate_self_s": own["plans.evaluate"],
            "rational.coerce_calls": summed(calls, "rational", coercions),
            "rational.coerce_self_s": summed(own, "rational", coercions),
            "construct.find_bounding_m_calls": calls["construct.find_bounding_m"],
            "construct.find_bounding_m_self_s": own["construct.find_bounding_m"],
            "construct.witnesses": counts["construct.witnesses"],
            "construct.builds": calls["construct.build_m_linear"]
            + calls["construct.build_bounded_linear"],
            "counterexamples.probe_self_s": summed(own, "counterexamples", PROBES),
            "counterexamples.probe_violations": counts["counterexamples.probe_violations"],
            "counterexamples.build_self_s": summed(own, "counterexamples", builders),
            "counterexamples.escalations": counts["counterexamples.escalations"],
            "counterexamples.validate_calls": calls["counterexamples.validate_counterexample"],
            "counterexamples.validate_s": self.total_s["counterexamples.validate_counterexample"],
            "market.build_calls": summed(calls, "market", market_builds),
            "market.build_self_s": summed(own, "market", market_builds),
            "market.atoms_built": counts["market.atoms_built"],
            "market.load_self_s": own["market.load_market"] + own["market.market_from_dict"],
            "cli.requests": calls["cli.main"],
            "cli.self_s": own["cli.main"],
            "cli.output_bytes": counts["cli.output_bytes"],
            "cli.nonzero_exits": counts["cli.nonzero_exits"],
            "trace.overhead_s": overhead_s,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                record = dict(zip(("id", "parent", "task", "name", "start", "end"), span))
                fh.write(json.dumps(record) + "\n")
            for (parent, name), (calls, own) in sorted(self.leaves.items()):
                record = {"parent": parent, "name": name, "calls": calls, "self_s": own}
                fh.write(json.dumps(record) + "\n")
