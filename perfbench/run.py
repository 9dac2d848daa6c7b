"""Benchmark of the balg verify and certify paths.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload verify_default --seed 1 --seconds 30 --trace 0

One run sets up SETUP_REPEATS times (import, config parse, input generation)
and then runs whole rounds of the workload's operations, one after another
in this single process: at least MIN_ROUNDS, then more until the next round
would end past ``--seconds``.  Every operation's output is checked after its
round.  Every time is calibrated (see ``calibrate``): the calibration kernel
runs before each operation and each set-up, and a time is scaled by the
kernel's speed around it, so that a slow spell of a shared host does not
show.  Each distinct operation is timed by the median of its calibrated
repeats; ``wall_s`` is the sum of those times over the round, and the
operation percentiles are taken over them.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` untraced and traced rounds alternate and the metrics are the
per-layer ones derived from the spans, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate
import tracing
from workloads import WORKLOADS, Balg

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 15
MIN_ROUNDS = 2
MIN_OPS = 100  # so the 90th percentile has at least ten operations beyond it


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def set_up(workload_cls, seed: int):
    """Import balg afresh and build the workload, SETUP_REPEATS times.

    Returns the last workload and the median calibrated set-up time in
    seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = [calibrate.kernel_seconds() for _ in range(calibrate.NEIGHBOURS)]
        started = time.perf_counter()
        workload = workload_cls(Balg(ROOT / "src"), ROOT, seed)
        seconds = time.perf_counter() - started
        after = [calibrate.kernel_seconds() for _ in range(calibrate.NEIGHBOURS)]
        times.append(seconds * calibrate.scale(before + after, calibrate.NEIGHBOURS - 1))
    return workload, statistics.median(times)


class Runner:
    """Runs rounds of one workload and keeps their timings and verdicts."""

    def __init__(self, workload):
        self.workload = workload
        self.op_seconds: list[list[float]] = [[] for _ in workload.inputs]
        self.raw_seconds: list[list[float]] = [[] for _ in workload.inputs]
        self.kernel_seconds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._reported: set[str] = set()
        self._pending: list = []

    def round(self, inputs, tracer=None, calibrated=False) -> float:
        """One pass over ``inputs``; returns its wall time in seconds.

        With ``calibrated`` the kernel runs before each operation and after
        the last, and the calibrated times are kept.  Outputs wait for
        ``check`` so that checking is neither timed nor traced."""
        w = self.workload
        outputs, raw = [], []
        kernel = [calibrate.kernel_seconds()] if calibrated else []
        started = time.perf_counter()
        for k, item in enumerate(inputs):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = w.run(item)
                else:
                    with tracer.span("bench.op", k):
                        out = w.run(item)
            except Exception:  # a failing operation is counted, not fatal
                self._report(traceback.format_exc())
                out = _FAILED
            raw.append(time.perf_counter() - t0)
            outputs.append(out)
            if calibrated:
                kernel.append(calibrate.kernel_seconds())
        wall = time.perf_counter() - started
        if calibrated:
            for k, seconds in enumerate(raw):
                self.raw_seconds[k].append(seconds)
                self.op_seconds[k].append(seconds * calibrate.scale(kernel, k))
            self.kernel_seconds += kernel
        self._pending = list(zip(inputs, outputs))
        return wall

    def check(self) -> None:
        """Check the outputs of the last round."""
        w = self.workload
        for item, out in self._pending:
            self.attempted += 1
            if out is _FAILED:
                self.failed += 1
                continue
            try:
                w.check(item, out)
            except AssertionError:
                self._report(traceback.format_exc())
                self.correct = False
        self._pending = []

    def _report(self, text: str) -> None:
        if text not in self._reported:
            self._reported.add(text)
            print(text, file=sys.stderr)


_FAILED = object()


def percentile_ms(seconds: list[float], q: int) -> float:
    return statistics.quantiles(seconds, n=100, method="inclusive")[q - 1] * 1e3


def measure(runner: Runner, budget: float) -> None:
    """Whole untraced rounds: at least MIN_ROUNDS, then until the next would
    end past ``budget``."""
    rounds = 0
    begun = time.perf_counter()
    while True:
        wall = runner.round(runner.workload.inputs, calibrated=True)
        runner.check()
        rounds += 1
        elapsed = time.perf_counter() - begun
        if rounds >= MIN_ROUNDS and elapsed + wall > budget:
            return


def end_to_end(runner: Runner, setup_s: float) -> dict:
    ops = [statistics.median(times) for times in runner.op_seconds]
    raw = [statistics.median(times) for times in runner.raw_seconds]
    print(f"uncalibrated wall_s {math.fsum(raw):.4f}; kernel median "
          f"{statistics.median(runner.kernel_seconds) * 1e3:.4f} ms, reference "
          f"{calibrate.REF_SECONDS * 1e3:.4f} ms", file=sys.stderr)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": math.fsum(ops), "unit": "s"},
        "op_p50_ms": {"value": statistics.median(ops) * 1e3, "unit": "ms"},
        "op_p90_ms": {"value": percentile_ms(ops, 90), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def per_layer(runner: Runner, budget: float, seed: int) -> dict:
    """Alternate untraced and traced passes over the workload's traced
    inputs; derive the layer metrics from the spans of each traced pass.

    The spans of the first traced pass are kept and written out; later
    passes are reduced to their metrics and dropped, which bounds memory."""
    w = runner.workload
    inputs = w.inputs[:w.TRACED_OPS]
    tracer = tracing.Tracer(w.balg)
    # config parse as set-up pays it: a traced rebuild of the workload
    tracer.install()
    type(w)(w.balg, ROOT, seed)
    setup_parse = tracing.layer_metrics(tracer, 0, len(tracer))["config.parse.ms"]
    tracer.uninstall()
    kept = len(tracer)

    plain, traced, layers = [], [], []
    begun = time.perf_counter()
    while True:
        plain.append(runner.round(inputs))
        runner.check()
        lo = len(tracer)
        tracer.install()
        try:
            traced.append(runner.round(inputs, tracer))
        finally:
            tracer.uninstall()
        runner.check()
        layers.append(tracing.layer_metrics(tracer, lo, len(tracer)))
        if len(layers) == 1:
            kept = len(tracer)
        tracer.truncate(kept)
        elapsed = time.perf_counter() - begun
        if elapsed + plain[-1] + traced[-1] > budget:
            break
    values = tracing.combine_rounds(layers)
    values["config.parse.ms"] = setup_parse
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{w.name}-{seed}.json")
    metrics = {name: {"value": v, "unit": "ms" if name.endswith("ms") else "count"}
               for name, v in values.items()}
    base = statistics.median(plain)
    metrics["trace.untraced_wall_s"] = {"value": base, "unit": "s"}
    metrics["trace.traced_wall_s"] = {"value": statistics.median(traced), "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": statistics.median(traced) / base,
                                       "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        workload, setup_s = set_up(WORKLOADS[args.workload], args.seed)
    except (ImportError, OSError) as exc:
        print(f"cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2
    if len(workload.inputs) < MIN_OPS:
        print(f"{args.workload} has {len(workload.inputs)} operations, "
              f"fewer than {MIN_OPS}", file=sys.stderr)
        return 2
    runner = Runner(workload)
    if args.trace:
        metrics = per_layer(runner, args.seconds, args.seed)
    else:
        measure(runner, args.seconds)
        metrics = end_to_end(runner, setup_s)
    result = {"correct": runner.correct, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
