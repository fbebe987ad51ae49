#!/usr/bin/env python3
"""Benchmark for splitqm: one workload per run, closed loop, one client.

Run from the root of a checkout:

    python3 splitbench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Operations run back to back in whole rounds until ``--seconds`` have passed.
The process runs a fixed standard-library reference kernel before every
operation; each operation's time is reported as a multiple of the mean of
the kernel runs on either side of it, because the raw speed of a shared
machine drifts, within seconds, by more than any bound worth gating on.  Raw figures are printed as reference lines.
Every output is checked against ``oracles.py``; a negative control confirms
that the checks reject a wrong value.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` each operation runs once untraced and once with every splitqm
layer wrapped (see ``tracing.py``); the last line reports per-layer metrics
per operation and the tracing overhead, and the spans go to
``splitbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads
from oracles import CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ("showcase", "finite_qrep", "sign")
MODULES = ("groups", "words", "quasimorphisms", "counting", "automorphisms",
           "quasicocycles", "defect_space", "qrep", "selftest", "cli")
SETUP_REPS = 5
MIN_OPS = 40  # the tail percentile needs ten operations beyond it
HALF = Fraction(1, 2)
KERNEL_TABLE = {1: Fraction(3, 2), -1: Fraction(-3, 2), 2: HALF, -2: -HALF}
KERNEL_RESIDUES = (Fraction(0), HALF, -HALF)


def reference_kernel():
    """A few milliseconds of standard-library work like the program's own:
    Fraction sums of a slope + table + periodic + sign formula, then tuple
    and dict counting.  It keeps nothing alive between calls, so the
    program's state cannot move it."""
    total = Fraction(0)
    for x in range(-150, 150):
        value = HALF * x + KERNEL_TABLE.get(x, 0) + KERNEL_RESIDUES[x % 3] + HALF * ((x > 0) - (x < 0))
        total += value if value > 0 else -value
    counts = {}
    acc = 0
    for i in range(2500):
        key = (i % 13, (i % 7 > 3) - (i % 7 < 3))
        counts[key] = counts.get(key, 0) + i
        acc += key[0] * key[1]
    return total, acc, len(counts)


def import_splitqm() -> SimpleNamespace:
    """A fresh import of the package from the checkout's ``src``."""
    for name in [n for n in sys.modules if n == "splitqm" or n.startswith("splitqm.")]:
        del sys.modules[name]
    package = importlib.import_module("splitqm")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"splitqm was imported from {package.__file__}, not from {SRC}")
    mods = {m: importlib.import_module(f"splitqm.{m}") for m in MODULES}
    return SimpleNamespace(qm=mods["quasimorphisms"], **mods)


def setup(workload: str, seed: int):
    """Import, config loading and input construction, timed as one set-up."""
    start = time.perf_counter()
    api = import_splitqm()
    load_start = time.perf_counter()
    configs = {name: api.cli.load_config(str(ROOT / "configs" / f"{name}.json")) for name in CONFIGS}
    load_end = time.perf_counter()
    built = workloads.WORKLOADS[workload](api, seed, configs)
    end = time.perf_counter()
    return built, end - start, load_end - load_start


class Outcome:
    """Attempted and failed operations, and whether every check held."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._reported = set()

    def report(self, op, message):
        if op.label not in self._reported:
            self._reported.add(op.label)
            print(f"{op.label}: {message}", file=sys.stderr)

    def check(self, op, out) -> None:
        try:
            op.check(out)
        except CheckFailed as exc:
            self.correct = False
            self.report(op, f"check failed: {exc}")


def run_op(op, outcome: Outcome, count: bool = True):
    """Run one operation; returns (output, seconds) or None when it raised."""
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception:  # an operation's failure is counted, not fatal
        if count:
            outcome.attempted += 1
            outcome.failed += 1
        outcome.report(op, "raised\n" + traceback.format_exc())
        return None
    elapsed = time.perf_counter() - start
    if count:
        outcome.attempted += 1
    outcome.check(op, out)
    return out, elapsed


def negative_control(built, outcome: Outcome) -> None:
    """The checks must pass a real output and reject an off-by-one copy."""
    op = built.ops[0]
    done = run_op(op, outcome, count=False)
    if done is None:
        return
    try:
        op.check(built.corrupt(done[0]))
    except CheckFailed:
        return
    outcome.correct = False
    print("negative control: a corrupted output passed the checks", file=sys.stderr)


def kernel_seconds(expected) -> float:
    start = time.perf_counter()
    result = reference_kernel()
    elapsed = time.perf_counter() - start
    if result != expected:
        raise RuntimeError("reference kernel returned a different value")
    return elapsed


def measure(ops, seconds: float, outcome: Outcome):
    """Whole rounds with a reference-kernel run before every operation and one
    after the last.  Returns each operation's time as a multiple of the mean
    of the kernel runs on either side of it, its raw time, and the kernel times."""
    expected = reference_kernel()
    raw, kernel_times, before = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        for op in ops:
            kernel_times.append(kernel_seconds(expected))
            done = run_op(op, outcome)
            if done is not None:
                raw.append(done[1])
                before.append(len(kernel_times) - 1)
        if time.perf_counter() >= deadline and (len(raw) >= MIN_OPS or not raw):
            break
    kernel_times.append(kernel_seconds(expected))
    ratios = [t * 2 / (kernel_times[i] + kernel_times[i + 1]) for t, i in zip(raw, before)]
    return ratios, raw, kernel_times


def measure_traced(ops, seconds: float, outcome: Outcome):
    """Each operation untraced, then traced, in whole rounds."""
    tracer = tracing.Tracer()
    plain = traced = 0.0
    traced_ops = 0
    deadline = time.perf_counter() + seconds
    while True:
        for op in ops:
            done = run_op(op, outcome)
            tracer.install()
            try:
                traced_done = run_op(op, outcome, count=False)
            finally:
                tracer.uninstall()
            if done is not None and traced_done is not None:
                plain += done[1]
                traced += traced_done[1]
                traced_ops += 1
        if time.perf_counter() >= deadline:
            break
    return tracer, traced_ops, (traced / plain if plain else 0.0)


def end_to_end(ratios, raw, kernel_times, setup_times):
    """Metrics from kernel-normalised operation times; the tail is the
    highest percentile with ten operations beyond it."""
    ordered = sorted(ratios)
    n = len(ordered)
    tail = ordered[n - 11] if n > 10 else ordered[-1]
    raw_sorted = sorted(raw)
    print(
        f"reference: kernel_p50_ms={statistics.median(kernel_times) * 1e3:.4f} "
        f"raw_p50_ms={statistics.median(raw_sorted) * 1e3:.4f} "
        f"raw_tail_ms={raw_sorted[max(n - 11, 0)] * 1e3:.4f} raw_ops_per_s={n / sum(raw):.3f} "
        f"ops={n} tail_percentile={100.0 * max(n - 10, 0) / n:.2f} setup_runs={len(setup_times)}"
    )
    return {
        "time_p50_ref": (statistics.median(ordered), "ref"),
        "time_tail_ref": (tail, "ref"),
        "ops_per_kref": (1000.0 / statistics.mean(ordered), "1/kref"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in [SRC / "splitqm" / "__init__.py"] + [ROOT / "configs" / f"{c}.json" for c in CONFIGS]
               if not p.is_file()]
    if missing:
        print(f"error: not a splitqm checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_times, load_times = [], []
    for _ in range(SETUP_REPS):
        built, elapsed, load = setup(args.workload, args.seed)
        setup_times.append(elapsed)
        load_times.append(load)
    for op in built.ops:
        op.prepare()

    outcome = Outcome()
    negative_control(built, outcome)
    for op in built.ops:  # warm-up round, checked but not counted
        run_op(op, outcome, count=False)
    gc.collect()

    if args.trace:
        tracer, traced_ops, overhead = measure_traced(built.ops, args.seconds, outcome)
        layers = tracing.layer_metrics(tracer, max(traced_ops, 1))
        layers["cli.load_config_ms"] = (statistics.median(load_times) * 1e3, "ms")
        layers["trace.overhead"] = (overhead, "ratio")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed, "traced_ops": traced_ops,
                           "overhead": overhead})
        print(f"reference: traced_ops={traced_ops} overhead={overhead:.3f} spans={len(tracer.spans)} "
              f"spans_dropped={tracer.dropped} trace={path.relative_to(ROOT)}")
        metrics = layers
    else:
        ratios, raw, kernel_times = measure(built.ops, args.seconds, outcome)
        if not ratios:
            print("error: every operation failed", file=sys.stderr)
            return 1
        metrics = end_to_end(ratios, raw, kernel_times, setup_times)

    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
