"""Benchmark of the meadows library and CLI: one workload, one seed, one process.

    python3 bench/run.py --workload poly-expand --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload term-mix --seed 1 --print-inputs
    python3 bench/run.py --workload gil-split --seed 1 --smoke

A run imports the program from ``src/`` of the checkout it sits in, then
repeats whole rounds of the workload's operations, one caller and no
threads, until ``--seconds`` have passed; with ``--trace 0`` it times
three set-ups (import plus parsing every input text, each in a fresh
interpreter) after every round.  Each operation's output is
checked against the reference semantics in ``reference.py``.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import ops
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODEL_SAMPLES = 60
SETUPS_PER_ROUND = 3
MODULES = ("syntax", "terms", "normalize", "decide", "evaluate", "partial", "translate",
           "theories", "cli")


def input_texts(inputs: dict) -> list[str]:
    texts = []
    for items in inputs.values():
        if isinstance(items, list):
            for item in items:
                if isinstance(item, dict):
                    texts += [item[k] for k in ("text", "lhs", "rhs") if k in item]
    return list(dict.fromkeys(texts))


def setup(inputs: dict):
    """Import the program and parse every input, for the operations to use."""
    importlib.import_module("meadows")
    m = SimpleNamespace(**{n: importlib.import_module(f"meadows.{n}") for n in MODULES})
    parsed = {text: m.syntax.parse(text).term for text in input_texts(inputs)}
    return m, parsed


# One timed set-up in a fresh interpreter: the input texts come on stdin,
# the seconds that importing the program and parsing them took go to stdout.
SETUP_CHILD = f"""
import importlib, json, sys, time
texts = json.load(sys.stdin)
start = time.perf_counter()
syntax = importlib.import_module("meadows.syntax")
for name in {MODULES!r}:
    importlib.import_module("meadows." + name)
for text in texts:
    syntax.parse(text)
print(time.perf_counter() - start)
"""


def setup_sample(texts: list[str]) -> float:
    """Time one set-up as a new process makes it: import the program, parse every input.

    A fresh interpreter each time, so set-ups neither find the program's
    modules already imported nor leave their garbage in this process,
    whose peak memory is a metric.
    """
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD], input=json.dumps(texts),
                          env=ops.cold_env(str(SRC)), cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout)


class Round:
    """Timings, counts and check results of the rounds run so far on one op list.

    An op may occur several times in the list; its samples are pooled.
    """

    def __init__(self, op_list):
        self.ops = op_list
        self.samples: dict[int, list[float]] = {id(op): [] for op in op_list}
        self.round_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.failures: dict[str, str] = {}

    def run(self) -> None:
        """One pass over the op list: time each call, then check its output."""
        busy = 0.0
        for op in self.ops:
            samples = self.samples[id(op)]
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a failed operation is counted, the round goes on
                self.failed += 1
                self.failures.setdefault(op.name, f"{type(exc).__name__}: {exc}"[:200])
                continue
            elapsed = time.perf_counter() - start
            busy += elapsed
            samples.append(elapsed)
            try:
                op.check(result)
            except Exception as exc:  # any error while checking means a wrong output
                self.mismatches.append(f"{op.name}: {type(exc).__name__}: {exc}"[:300])
        self.round_s.append(busy)

    def op_times(self) -> list[tuple[str, float]]:
        """(metric, loaded time of its samples) for each distinct op that ran."""
        distinct = {id(op): op for op in self.ops}
        return [(op.metric, loaded(self.samples[key]))
                for key, op in distinct.items() if self.samples[key]]


def median(xs):
    return statistics.median(xs)


def loaded(xs):
    """The upper quartile of a run's samples: the time at the machine's usual, loaded speed.

    The machine runs most seconds at one speed and some stretches up to
    1.6 times faster, for as much as half of a run.  The upper quartile
    stays with the usual speed as long as a quarter of the samples see it;
    the median already follows the fast stretches when they fill half the
    run, and the minimum follows them whenever they occur.
    """
    return statistics.quantiles(xs, n=4, method="inclusive")[2] if len(xs) > 1 else xs[0]


def end_to_end(r: Round, setup_s: float) -> dict:
    """The end-to-end metrics from each operation's loaded time over the run.

    Each op's samples are spread over the whole run, and ``loaded`` takes
    their upper quartile.  A ``*_p50_*`` metric is the median of these
    times over the operations of its kind, that is, over the workload's
    inputs of that kind; ``run_s`` is their sum.
    """
    times = r.op_times()

    def p50(metric, scale):
        return median([t for m, t in times if m == metric]) * scale

    ms, us = 1e3, 1e6
    roundtrips = [t for m, t in times if m == "roundtrip"]
    values = {
        "setup_s": (setup_s, "s"),
        "run_s": (sum(t for _, t in times), "s"),
        "iamd_true_p50_ms": (p50("iamd_true", ms), "ms"),
        "iamd_false_p50_ms": (p50("iamd_false", ms), "ms"),
        "gil_true_p50_ms": (p50("gil_true", ms), "ms"),
        "gil_false_p50_ms": (p50("gil_false", ms), "ms"),
        "normalize_p50_ms": (p50("normalize", ms), "ms"),
        "closed_p50_us": (p50("closed", us), "us"),
        "eval_p50_us": (p50("eval", us), "us"),
        "check_model_p50_ms": (p50("check_model", ms), "ms"),
        "cli_cold_p50_ms": (p50("cli_cold", ms), "ms"),
        "cli_main_p50_ms": (p50("cli_main", ms), "ms"),
        "roundtrip_per_s": (len(roundtrips) / sum(roundtrips), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced inputs, one round, every check on")
    parser.add_argument("--print-inputs", action="store_true",
                        help="print the generated inputs as JSON and exit")
    args = parser.parse_args(argv)

    inputs = workloads.build(args.workload, args.seed, args.smoke)
    inputs["seed"] = args.seed
    if args.print_inputs:
        print(json.dumps(workloads.public(inputs), indent=1))
        return 0
    if not (SRC / "meadows" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'meadows'}", file=sys.stderr)
        return 2
    # Cold starts read compiled bytecode, as they would from an installed package.
    compileall.compile_dir(str(SRC / "meadows"), quiet=1)
    sys.path.insert(0, str(SRC))

    m, parsed = setup(inputs)
    api = ops.make_api(m)
    op_list = ops.prepare(inputs, m, api, parsed, str(SRC), str(ROOT), MODEL_SAMPLES)
    # The inputs, the program's modules and the benchmark live for the whole
    # run; keeping them out of the collector's scans makes the time a
    # collection adds to an operation depend on that operation alone.
    gc.collect()
    gc.freeze()

    deadline = time.perf_counter() + args.seconds
    rounds = Round(op_list)
    if args.trace:
        # A first, unmeasured round takes the cold start (first big
        # allocations) off both sides.  Then untraced and traced rounds
        # alternate, so drift in the machine's speed falls on both sides
        # of trace.overhead_s alike.
        warm = Round(op_list)
        warm.run()
        tracer = tracing.Tracer()
        traced = Round(op_list)
        while True:
            rounds.run()
            tracer.install(m, api)
            try:
                traced.run()
            finally:
                tracer.uninstall()
            if args.smoke or time.perf_counter() >= deadline:
                break
        n = len(traced.round_s)
        overhead_s = median(traced.round_s) - median(rounds.round_s)
        metrics = tracer.metrics(n, overhead_s, tracing.cold_import_s(ops.cold_env(str(SRC))))
        print(tracer.report(n), file=sys.stderr)
        print(f"round time: untraced median {median(rounds.round_s):.3f} s, "
              f"traced median {median(traced.round_s):.3f} s", file=sys.stderr)
        for other in (warm, traced):
            rounds.attempted += other.attempted
            rounds.failed += other.failed
            rounds.mismatches += other.mismatches
            rounds.failures.update(other.failures)
    else:
        # Set-ups after every round sample set-up across the whole run, as
        # the rounds sample the operations, not at one moment.
        texts = input_texts(inputs)
        setup_times = []
        while True:
            rounds.run()
            setup_times += [setup_sample(texts) for _ in range(SETUPS_PER_ROUND)]
            if args.smoke or time.perf_counter() >= deadline:
                break
        metrics = end_to_end(rounds, loaded(setup_times))

    for name, message in rounds.failures.items():
        print(f"failed: {name}: {message}", file=sys.stderr)
    for message in rounds.mismatches[:20]:
        print(f"mismatch: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not rounds.mismatches,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
