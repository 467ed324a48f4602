"""orbidegen benchmark: one workload, measured for a fixed time, outputs checked.

Usage:
  python3 perfbench/run.py --workload {expand-ladder,poset-ladder,cli-mix}
                           --seed N --seconds S --trace {0,1}

Run it from the root of a checkout.  It prints one line per op of the first
pass with the op's output digest, a readable report, and as the last line a
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are the per-layer ones, taken from spans around orbidegen's
public functions (see tracer.py), and the spans are written to
.perfbench/trace/.

A pass runs the workload's op list once, one op at a time.  Passes repeat
until --seconds have elapsed, and at least MIN_PASSES run.  Between ops,
outside the timed region, the runner checks the output, collects garbage and
runs a calibration kernel; bounded times are CPU seconds normalized by that
kernel (see normalized()).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REQUIRED = ("BENCHMARK.json", "src/orbidegen/__init__.py", "demos/data", "tests/golden")
MIN_PASSES = 3
SETUP_PROBES = 3
REF_PASSES = 1  # untraced passes of a traced run: the base of trace.overhead_ratio
SPAWN_PROBES = 5
SETUP_OP = -1
KERNEL_ROUNDS = 12_000
REFERENCE_KERNEL_S = 0.0075  # kernel CPU time that defines one normalized second


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    pos = pct / 100 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(ops_per_pass: int) -> int:
    """Highest whole percentile with at least ten samples beyond it at MIN_PASSES.

    Fixed per workload, so runs that fit a different number of passes report
    the same percentile.
    """
    return math.floor(100 * (1 - 10 / (ops_per_pass * MIN_PASSES)))


def kernel_seconds() -> float:
    """CPU time of a fixed pure-Python kernel: the machine's current speed.

    The kernel does the kinds of work orbidegen spends its time on (sorting
    small tuples, dict counting, Fraction sums) and uses no orbidegen code, so
    a change to the program cannot move it.
    """
    c0 = time.process_time()
    acc = Fraction(0)
    seen: dict[tuple, int] = {}
    for i in range(KERNEL_ROUNDS):
        key = tuple(sorted((i % 7, i % 5, i % 3)))
        seen[key] = seen.get(key, 0) + 1
        if i % 16 == 0:
            acc += Fraction(i % 11 + 1, i % 13 + 1)
    return time.process_time() - c0


def normalized(cpu: float, before: float, after: float) -> float:
    """CPU seconds rescaled to the speed at which the kernel takes REFERENCE_KERNEL_S.

    The kernel runs right before and right after the measured work; on a
    shared machine whose speed drifts by tens of percent within minutes, the
    ratio moves far less than the CPU time itself.
    """
    return cpu * REFERENCE_KERNEL_S / ((before + after) / 2)


def spawn_times(argv: list[str]) -> tuple[float, float, float]:
    """Wall, CPU (with reaped descendants) and normalized seconds of one child run."""
    before = kernel_seconds()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    stderr = proc.stderr.read()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: "
                           f"{stderr.decode(errors='replace')[-500:]}")
    cpu = usage.ru_utime + usage.ru_stime
    return elapsed, cpu, normalized(cpu, before, kernel_seconds())


class Runner:
    """Runs ops one at a time, checks their outputs and counts failures."""

    def __init__(self, workload: str, seed: int, tracer=None, cli=None) -> None:
        self.tracer = tracer
        self.cli = cli
        self.rng = random.Random(f"{workload}:{seed}:order")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.first_latency: dict[str, float] = {}
        self.op_ids: dict[int, str] = {}
        self.child_info: list[tuple[int, str, dict]] = []

    def run_op(self, op, op_id: int) -> tuple[float, float, float, int]:
        """Run and check one op; returns its wall, CPU and normalized seconds and
        its result count.  Garbage from earlier ops is collected first, so each op
        pays only for its own collections."""
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.current_op = op_id
            self.op_ids[op_id] = op.name
        gc.collect()
        before = kernel_seconds()
        c0, t0 = time.process_time(), time.perf_counter()
        problem = None
        try:
            wall, cpu, out = op.call()
        except Exception as exc:  # a failing op is counted, the run goes on
            wall, cpu, out = time.perf_counter() - t0, time.process_time() - c0, None
            problem = f"raised {type(exc).__name__}: {exc}"
        norm = normalized(cpu, before, kernel_seconds())
        if tracer is not None:
            tracer.recording = False
        try:
            self._merge_child_trace(op_id)
            if problem is None:
                digest, problem = op.verify(out)
                if problem is None and self.digests.setdefault(op.name, digest) != digest:
                    problem = "output differs between passes"
        finally:
            if tracer is not None:
                tracer.recording = True
        if problem is not None:
            self._fail(op.name, problem)
            return wall, cpu, norm, 0
        self.first_latency.setdefault(op.name, wall)
        return wall, cpu, norm, op.results(out)

    def _fail(self, name: str, problem: str) -> None:
        self.failed += 1
        self.problems.append(f"{name}: {problem}")

    def _merge_child_trace(self, op_id: int) -> None:
        if self.tracer is None or self.cli is None or not self.cli.trace_files:
            return
        path = self.cli.trace_files.pop()
        if not path.exists():
            self._fail(self.op_ids[op_id], "child wrote no trace")
            return
        payload = json.loads(path.read_text(encoding="utf-8"))
        path.unlink()
        self.tracer.merge(payload, op_id)
        self.child_info.append((op_id, self.op_ids[op_id], payload))

    def passes(self, ops, seconds: float, min_passes: int, first_id: int = 0) -> list[dict]:
        """Run whole passes until `seconds` elapsed and at least `min_passes` ran."""
        out = []
        start = time.perf_counter()
        while len(out) < min_passes or time.perf_counter() - start < seconds:
            order = list(ops)
            self.rng.shuffle(order)
            record = {"names": [op.name for op in order], "walls": [], "cpus": [],
                      "norms": [], "results": 0}
            for op in order:
                wall, cpu, norm, count = self.run_op(op, first_id)
                first_id += 1
                record["walls"].append(wall)
                record["cpus"].append(cpu)
                record["norms"].append(norm)
                record["results"] += count
            out.append(record)
        return out


def op_samples(passes: list[dict], key: str) -> list[float]:
    """One sample per op run, each the median of that op's runs in this run.

    Passes shuffle the op order, so samples of one op share a position in
    the pooled list only through their value; replacing each by its op's
    median keeps a percentile that falls between two ops from resting on
    the extremes of their runs.
    """
    by_op: dict[str, list[float]] = {}
    for p in passes:
        for name, x in zip(p["names"], p[key]):
            by_op.setdefault(name, []).append(x)
    return [statistics.median(xs) for xs in by_op.values() for _ in xs]


def end_to_end(passes: list[dict], ops_per_pass: int, setup: list[tuple[float, float, float]],
               peak_rss_mb: float) -> tuple[dict, list[str]]:
    """End-to-end values in normalized seconds, and report lines with the raw
    CPU and wall-clock figures."""
    tail = tail_percentile(ops_per_pass)
    stats = {}
    for key in ("norms", "cpus", "walls"):
        samples = op_samples(passes, key)
        stats[key] = (statistics.median(sum(p[key]) for p in passes),
                      percentile(samples, 50) * 1000, percentile(samples, tail) * 1000,
                      statistics.median(p["results"] / sum(p[key]) for p in passes))
    values = dict(zip(("pass_norm_s", "op_norm_p50_ms", "op_norm_tail_ms",
                       "results_per_norm_s"), stats["norms"]))
    values["setup_s"] = statistics.median(norm for _, _, norm in setup)
    values["peak_rss_mb"] = peak_rss_mb
    notes = [f"op latency percentiles are p50 and p{tail} of {len(passes) * ops_per_pass} op "
             f"samples ({len(passes)} passes of {ops_per_pass} ops), each the median of its op"]
    for key, label in (("cpus", "raw CPU"), ("walls", "wall clock")):
        total, p50, p_tail, rate = stats[key]
        notes.append(f"{label}, unbounded: pass {total:.6g} s, op p50 {p50:.6g} ms, "
                     f"op p{tail} {p_tail:.6g} ms, {rate:.6g} results/s")
    notes.append("setup_s is the median normalized CPU time of fresh set-ups: " + ", ".join(
        f"{norm:.3f} s (CPU {cpu:.3f} s, wall {w:.3f} s)" for w, cpu, norm in setup))
    return values, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"error: {ROOT} lacks {', '.join(missing)}; run the benchmark from the "
              "root of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import layers
    import workloads
    from tracer import SpanTable, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload]
    workloads.SCRATCH.mkdir(exist_ok=True)
    # one CPU for the runner and every child, so the kernel and the ops share it
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    setup_times = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setup_times.append(spawn_times(
                [sys.executable, str(BENCH / "setup_probe.py"), args.workload, str(args.seed)]))

    tracer = Tracer() if args.trace else None
    trace_dir = workloads.SCRATCH / "trace"
    cli = workloads.CliRunner(trace_dir if args.trace else None)
    if tracer is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.install()
    runner = Runner(args.workload, args.seed, tracer, cli)
    ops = workloads.build_ops(args.workload, args.seed, cli)
    warmup = next(op for op in ops if op.name == spec.warmup)
    runner.run_op(warmup, SETUP_OP)
    runner.first_latency.clear()

    if tracer is None:
        passes = runner.passes(ops, args.seconds, MIN_PASSES)
        if spec.in_process:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            peak_kb = cli.peak_rss_kb
        values, report = end_to_end(passes, len(ops), setup_times, peak_kb / 1024)
    else:
        tracer.uninstall()
        cli.trace_dir = None
        start = time.perf_counter()
        ref = runner.passes(ops, 0, REF_PASSES, first_id=-10 ** 6)
        cli.trace_dir = trace_dir
        tracer.install()
        remaining = args.seconds - (time.perf_counter() - start)
        traced = runner.passes(ops, remaining, MIN_PASSES)
        tracer.uninstall()
        spawn = [spawn_times([sys.executable, "-c", "pass"])[0] for _ in range(SPAWN_PROBES)]
        values, report, mismatches = layers.per_layer(
            SpanTable(tracer), traced, ref, runner, spawn,
            workloads.load_refs()["crosscheck"], workloads.GLUE_OPS)
        for problem in mismatches:
            runner._fail("crosscheck", problem)
        tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.json",
                     {"ops": {str(k): v for k, v in runner.op_ids.items() if k >= SETUP_OP}})
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: (float(values[m["name"]]), m["unit"])
               for m in declared["per_layer" if args.trace else "end_to_end"]}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={runner.attempted} failed={runner.failed} "
          f"fail_ratio={runner.failed / max(runner.attempted, 1):.6f}")
    for name in sorted(runner.digests):
        print(f"op {name} sha256={runner.digests[name]} "
              f"first_ms={runner.first_latency.get(name, float('nan')) * 1000:.3f}")
    for problem in runner.problems:
        print(f"FAILED {problem}")
    for line in report:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
