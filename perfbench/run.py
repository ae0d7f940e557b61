"""rulebend benchmark: one workload, timed or traced, with checked outputs.

    python3 perfbench/run.py --workload grid --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one client, a closed loop and no threads: each
operation starts when the previous one has finished.  Workloads and
their checks are in ``workloads.py``.

``--trace 0`` (timed run) sets the program up, runs the workload once
untimed, then runs operations for ``--seconds`` seconds and prints the
end-to-end metrics: the median and p90 time of one operation, the
set-up time (measured in fresh interpreters spread over the run, see
``setup_probe.py``) and the peak resident memory.  Times are corrected
for the host's speed by ``yardstick.py``; the raw times are printed
beside them.

``--trace 1`` (traced run) times a fixed unit of work for half the
seconds, then again with the layer wrappers of ``tracing.py``
installed, and prints the per-layer metrics of one unit and the
tracing overhead.

Every operation runs guarded: an exception or an unexpected exit code
counts as failed.  The outputs are checked (reference grid, calibrate
lines, sweep digest and byte-identical re-runs, brute-force KNN
oracle).  The last line of standard output is the JSON result; the exit
code is 0 only when every check passed and no operation failed.  The
line before it records the machine, the generator parameters and the
case-base digest; everything, with all samples, is also written to
``perfbench/.results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import tracing
import workloads
import yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh-interpreter set-ups per timed run; setup_s is their median.
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 120


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _benchmark_spec() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _git_commit() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine(seed: int) -> Dict[str, object]:
    import rulebend

    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "package_version": rulebend.__version__,
        "seed": seed,
    }


def _p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class Guard:
    """Runs operations, counting failures by exception type."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Counter = Counter()

    def run(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # an operation's failure is counted, not fatal
            self.failures[type(exc).__name__] += 1
            print(f"perfbench: operation failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return None


def _timed_ops(workload, guard: Guard, sampler, seconds: float = 0.0, args_list=None,
               between=None) -> List[Tuple[float, float]]:
    """Run operations until ``seconds`` pass (or over ``args_list`` once).

    ``between(elapsed)``, if given, runs before each operation, outside
    its timing.  Returns (raw, corrected) seconds of each successful
    operation.
    """
    timings: List[Tuple[float, float]] = []
    start = time.perf_counter()
    index = 0
    while (index < len(args_list)) if args_list is not None else (
            time.perf_counter() - start < seconds):
        if between is not None:
            between(time.perf_counter() - start)
        args = args_list[index] if args_list is not None else workload.prepare(index)
        mark = sampler.mark()
        result = guard.run(workload.op, args)
        timing = sampler.elapsed(mark)
        if result is not None:
            timings.append(timing)
        workload.record(args, result)
        index += 1
    return timings


class SetupProbes:
    """Set-up samples in fresh interpreters, spread over the timed phase.

    Load on a shared host comes and goes over seconds, so the samples
    are taken at evenly spaced moments of the run rather than together.
    """

    def __init__(self, workload, seed: int, seconds: float):
        self.command = [sys.executable, str(HERE / "setup_probe.py"), "--workload",
                        workload.name, "--kb", str(workload.kb_path), "--seed", str(seed)]
        self.interval = seconds / SETUP_SAMPLES
        self.samples: List[Tuple[float, float]] = []

    def _one(self) -> None:
        done = subprocess.run(self.command, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        self.samples.append((sample["raw_s"], sample["corrected_s"]))

    def due(self, elapsed: float) -> None:
        while len(self.samples) < SETUP_SAMPLES and len(self.samples) * self.interval <= elapsed:
            self._one()

    def finish(self) -> List[Tuple[float, float]]:
        while len(self.samples) < SETUP_SAMPLES:
            self._one()
        return self.samples


def timed_run(workload, guard: Guard, seconds: float, seed: int):
    probes = SetupProbes(workload, seed, seconds)
    workload.setup()
    guard.run(workload.warmup)
    with yardstick.Sampler() as sampler:
        timings = _timed_ops(workload, guard, sampler, seconds,
                             between=lambda elapsed: sampler.paused(probes.due, elapsed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = probes.finish()
    if not timings:
        raise RuntimeError("no operation succeeded")
    raw_ms = [raw * 1000.0 for raw, _ in timings]
    ms = [corrected * 1000.0 for _, corrected in timings]
    setup_s = [corrected for _, corrected in setups]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_ms": (statistics.median(ms), "ms"),
        "op_ms_p90": (_p90(ms), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    decisions = getattr(workload, "decisions", None) or workload.decisions_per_op * len(ms)
    notes = {
        "setup_s": f"median of {len(setups)} fresh-interpreter set-ups; "
                   f"raw median {statistics.median(r for r, _ in setups):.6f} s",
        "op_ms": f"{workload.op_label}: median of n={len(ms)}; "
                 f"raw median {statistics.median(raw_ms):.4f} ms",
        "op_ms_p90": f"p90 of n={len(ms)}; raw p90 {_p90(raw_ms):.4f} ms",
        "peak_rss_mb": "peak resident memory of this process",
    }
    if decisions:
        notes["op_ms"] += f"; decisions_per_s {decisions / math.fsum(ms) * 1000.0:.4f}"
    return metrics, notes, {"setup_s": setups, "op_s": timings}


def traced_run(workload, guard: Guard, seconds: float):
    workload.setup()
    guard.run(workload.warmup)
    unit = workload.unit()
    per_unit: List[Dict[str, Optional[float]]] = []
    with yardstick.Sampler() as sampler:
        reference = _repeat_unit(workload, guard, sampler, unit, seconds / 2)
        # The tracer reads the sampler's work clock, so no layer is
        # charged for yardstick samples; its times are then corrected
        # for host speed like the unit's own.
        tracer = tracing.Tracer(clock=sampler.work_clock)
        installation = tracing.Installation(tracer).install()
        try:
            def traced_unit() -> List[Tuple[float, float]]:
                tracer.reset()
                workload.reload()
                work_start = sampler.work_clock()
                timings = _timed_ops(workload, guard, sampler, args_list=unit)
                scale = math.fsum(c for _, c in timings) / (sampler.work_clock() - work_start)
                per_unit.append({
                    name: value * scale if value is not None and name.endswith("_ms") else value
                    for name, value in tracing.unit_metrics(
                        tracer, installation.missing_spans).items()
                })
                return timings

            traced = _repeat_unit(workload, guard, sampler, unit, seconds / 2, traced_unit)
        finally:
            installation.uninstall()

    metrics = {}
    for name in tracing.LAYER_METRICS[:-1]:
        values = [m[name] for m in per_unit]
        metrics[name] = None if values[0] is None else statistics.median(values)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(reference)
    units = _layer_units()
    notes = {
        "casekb.retrieve_calls": f"per unit of work: {workload.unit_label}",
        "trace.overhead_ratio": f"{len(traced)} traced / {len(reference)} untraced units",
    }
    return {k: (v, units[k]) for k, v in metrics.items()}, notes, {
        "traced_unit_s": traced, "untraced_unit_s": reference}


def _repeat_unit(workload, guard: Guard, sampler, unit, seconds: float, run_unit=None):
    """Corrected seconds of each repeat of the unit, for ``seconds`` (at least once)."""
    run_unit = run_unit or (lambda: _timed_ops(workload, guard, sampler, args_list=unit))
    totals = []
    deadline = time.perf_counter() + seconds
    while not totals or time.perf_counter() < deadline:
        totals.append(math.fsum(corrected for _, corrected in run_unit()))
    return totals


def _layer_units() -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rulebend" / "__init__.py").is_file():
        _die(f"no package source at {ROOT / 'src' / 'rulebend'}; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload not in workloads.WORKLOADS:
        _die(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")

    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workloads.Context(ROOT, work, args.seed)
        workload = workloads.WORKLOADS[args.workload](ctx)
        workload.write_inputs()
        guard = Guard()
        if args.trace:
            metrics, notes, samples = traced_run(workload, guard, args.seconds)
        else:
            metrics, notes, samples = timed_run(workload, guard, args.seconds, args.seed)
        problems = workload.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while other runs use it
            work.parent.rmdir()

    failed = sum(guard.failures.values())
    correct = not problems and failed == 0
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine(args.seed),
        "generator": workload.generator_record(),
        "attempted": guard.attempted,
        "failed": failed,
        "fail_ratio": failed / guard.attempted if guard.attempted else 0.0,
        "failures_by_type": dict(guard.failures),
        "problems": problems,
        "notes": notes,
        "samples": samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = HERE / ".results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<40} {shown:>14} {unit:<6} {notes.get(name, '')}")
    print(f"  fail_ratio {failed}/{guard.attempted} "
          f"{dict(guard.failures) if guard.failures else ''}".rstrip())
    print("context " + json.dumps(
        {"machine": record["machine"], "generator": record["generator"]}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": guard.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
