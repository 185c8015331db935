"""cfii benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run from the root of a checkout; cfii is imported from ./src (it need not be
installed).  Set-up (a fresh process importing cfii.cli, several times) is
measured first, then passes of the workload's script repeat for --seconds.
Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run spends half its time
untraced and half traced and reports the per-layer metrics, the tracing
overhead among them.  --smoke shrinks every workload for a quick self-test.
Results and spans are also written under .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import layers
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
CHILD_TIMEOUT_S = 120
OPS_PER_CPU = 4

# (metric, unit, better); BENCHMARK.json lists the same names in this order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("invocation_s.p50", "s", "lower"),
    ("invocation_s.p90", "s", "lower"),
    ("calls_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


@dataclass
class Outcome:
    wall: float
    cpu: float
    canon: str
    failures: list[str]
    calls: int = 1


@dataclass
class Pass:
    outcomes: list[Outcome]
    traced: bool = False

    @property
    def wall(self) -> float:
        return sum(o.wall for o in self.outcomes)

    @property
    def cpu(self) -> float:
        return sum(o.cpu for o in self.outcomes)


def _cpu_now() -> float:
    """CPU seconds of this process plus its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Runner:
    """Runs ops of one workload; owns the child environment and tracer."""

    def __init__(self, env: dict, smoke: bool):
        self.env = env
        self.smoke = smoke
        self.spans: list[dict] = []
        self.tracer = None
        self.trace_id = "0"
        self.cpus = sorted(os.sched_getaffinity(0))
        self.calls_run = 0

    def start_tracing(self, in_process: bool) -> None:
        """Trace the following ops: in this process by patching cfii, in
        child processes by running them under tracing.py."""
        self.tracer = tracing.Tracer()
        if in_process:
            self.tracer.install()

    def stop_tracing(self, in_process: bool) -> None:
        if in_process:
            self.tracer.uninstall()
            self.spans += self.tracer.finished_spans()
        self.tracer = None

    def child(self, argv: list[str]):
        return subprocess.run([sys.executable, *argv], env=self.env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)

    def run(self, op: workloads.Op) -> Outcome:
        if op.call is not None:
            return self._run_call(op)
        return self._run_process(op)

    def _run_process(self, op: workloads.Op) -> Outcome:
        spans_file = OUT_DIR / f"spans-{os.getpid()}.json"
        if self.tracer is not None:
            argv = [str(HERE / "tracing.py"), str(spans_file), "--", *op.argv]
        else:
            argv = ["-m", "cfii.cli", *op.argv]
        cpu0, start = _cpu_now(), time.perf_counter()
        try:
            proc = self.child(argv)
        except subprocess.TimeoutExpired:
            return Outcome(time.perf_counter() - start, _cpu_now() - cpu0, "",
                           [f"{op.label}: timed out"])
        wall, cpu = time.perf_counter() - start, _cpu_now() - cpu0
        failures = []
        if proc.returncode != 0:
            failures.append(f"exit code {proc.returncode}")
        if "Traceback" in proc.stderr:
            failures.append("Traceback on stderr")
        if self.tracer is not None and spans_file.exists():
            spans = json.loads(spans_file.read_text(encoding="utf-8"))
            spans_file.unlink()
            for s in spans:
                s["trace"] = self.trace_id
            self.spans += spans
        if not failures:
            failures += _checked(op, proc.stdout, lambda out: (
                checks.table_cells(*checks.parse_table(out)[1:])
                + op.check(out)))
        return Outcome(wall, cpu, checks.drop_wallclock(proc.stdout)
                       if not failures else "", failures)

    def _run_call(self, op: workloads.Op) -> Outcome:
        # Each CPU of a shared machine has its own slow and fast spells, and
        # a lone busy thread stays on one CPU; moving the warm process to
        # the next CPU every few ops makes each pass sample them all evenly.
        # Moving it at every op cost about a tenth of a pass in cold caches.
        cpu = self.cpus[self.calls_run // OPS_PER_CPU % len(self.cpus)]
        os.sched_setaffinity(0, {cpu})
        self.calls_run += 1
        if self.tracer is not None:
            self.tracer.trace_id = self.trace_id
        cpu0, start = _cpu_now(), time.perf_counter()
        try:
            value, failures = op.call(), []
        except Exception:  # a failed call is a failed operation
            traceback.print_exc()
            value, failures = None, [f"{op.label}: raised"]
        wall, cpu = time.perf_counter() - start, _cpu_now() - cpu0
        os.sched_setaffinity(0, self.cpus)
        if failures:
            return Outcome(wall, cpu, "", failures)
        return Outcome(wall, cpu, op.canon(value),
                       _checked(op, value, op.check))


def _checked(op: workloads.Op, output, check) -> list[str]:
    try:
        return [f"{op.label}: {f}" for f in check(output)]
    except (ValueError, KeyError, IndexError, TypeError):
        traceback.print_exc()
        return [f"{op.label}: output could not be checked"]


def run_passes(runner: Runner, workload: workloads.Workload, seconds: float,
               reference: list[str], alternate: bool = False) -> list[Pass]:
    """Repeat passes while the next one should still end within `seconds`.

    `reference` holds each op's output from the first pass of the run; every
    later pass must reproduce it byte for byte (same seed, same output).
    With `alternate`, every second pass is traced, so that drift in machine
    speed falls on traced and untraced passes alike.
    """
    passes = []
    start = time.perf_counter()
    while True:
        traced = alternate and len(passes) % 2 == 1
        if traced:
            runner.start_tracing(workload.in_process)
        try:
            outcomes = []
            for i, op in enumerate(workload.ops):
                runner.trace_id = f"{len(passes)}.{i}"
                outcome = runner.run(op)
                outcome.calls = op.calls
                if len(reference) <= i:
                    reference.append(outcome.canon)
                elif not outcome.failures:
                    outcome.failures += checks.identical(
                        op.label, reference[i], outcome.canon)
                outcomes.append(outcome)
        finally:
            if traced:
                runner.stop_tracing(workload.in_process)
        passes.append(Pass(outcomes, traced))
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1].wall > seconds and (
                not alternate or len(passes) >= 2):
            return passes


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (the inclusive method)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure_setup(runner: Runner, repeats: int) -> list[float]:
    """Wall time of fresh processes importing cfii.cli; the first, which
    may compile bytecode, is not counted."""
    times = []
    for i in range(repeats + 1):
        start = time.perf_counter()
        proc = runner.child(["-c", "import cfii.cli"])
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"import cfii.cli failed:\n{proc.stderr}")
        if i:
            times.append(elapsed)
    return times


def import_times(runner: Runner, repeats: int) -> dict[str, float]:
    cfii, scipy = [], []
    for _ in range(repeats):
        proc = runner.child(["-X", "importtime", "-c", "import cfii.cli"])
        a, b = layers.parse_importtime(proc.stderr)
        cfii.append(a)
        scipy.append(b)
    return {"cli.import_s": statistics.median(cfii),
            "cli.import_scipy_s": statistics.median(scipy)}


def machine_info(threads_env: str | None) -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        # as the caller set it; runs always leave it unset
        "CFII_THREADS": "unset" if threads_env is None else threads_env,
    }


def group_shares(workload: workloads.Workload,
                 passes: list[Pass]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for p in passes:
        for op, outcome in zip(workload.ops, p.outcomes):
            totals[op.group] = totals.get(op.group, 0.0) + outcome.wall
    whole = sum(totals.values())
    return {group: t / whole for group, t in totals.items()}


def end_to_end(setup: list[float], passes: list[Pass]) -> dict[str, float]:
    outcomes = [o for p in passes for o in p.outcomes]
    invocations = [o.wall for o in outcomes]
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "invocation_s.p50": percentile(invocations, 0.5),
        "invocation_s.p90": percentile(invocations, 0.9),
        "calls_per_s": sum(o.calls for o in outcomes) / sum(invocations),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(runner: Runner, passes: list[Pass]) -> dict[str, float]:
    traced = [p.wall for p in passes if p.traced]
    untraced = [p.wall for p in passes if not p.traced]
    out = layers.from_spans(runner.spans, len(traced))
    out.update(import_times(runner, 1 if runner.smoke else 3))
    out.update(layers.probes())
    out["trace.overhead_s"] = (statistics.median(traced)
                               - statistics.median(untraced))
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own test")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "cfii" / "cli.py").is_file():
        print(f"perfbench: no cfii sources under {SRC}; run from the root "
              "of a cfii checkout", file=sys.stderr)
        return 2
    # Users get the default restart pool, so runs leave CFII_THREADS unset.
    threads_env = os.environ.pop("CFII_THREADS", None)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    runner = Runner(env, args.smoke)
    info = machine_info(threads_env)
    setup = measure_setup(runner, 1 if args.smoke else 5)
    workload = workloads.build(args.workload, args.seed, args.smoke)
    reference: list[str] = []
    # warm caches and lazy set-up of the warm process before timing
    warmup = (run_passes(runner, workload, 0.0, reference)
              if workload.in_process else [])

    passes = run_passes(runner, workload, args.seconds, reference,
                        alternate=bool(args.trace))
    if args.trace:
        metrics = per_layer(runner, passes)
        declared = layers.PER_LAYER
    else:
        metrics = end_to_end(setup, passes)
        declared = END_TO_END

    after = [runner.run(op) for op in workload.after]
    outcomes = [o for p in warmup + passes for o in p.outcomes] + after
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.failures)
    for o in outcomes:
        for f in o.failures:
            print(f"perfbench: FAILED {f}", file=sys.stderr)
    shares = group_shares(workload, [p for p in passes if not p.traced])
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "machine": info,
              "passes": len(passes), "operations": len(outcomes),
              "pass_wall_s": [p.wall for p in passes],
              "pass_cpu_s": [p.cpu for p in passes],
              "pass_traced": [p.traced for p in passes],
              "op_wall_s": [[o.wall for o in p.outcomes] for p in passes],
              "failed_ratio": failed / attempted,
              "group_shares": shares, "setup_samples": setup,
              "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{stem}.json").write_text(
        json.dumps(report, indent=2), encoding="utf-8")
    if runner.spans:
        (OUT_DIR / f"spans-{stem}.json").write_text(json.dumps(runner.spans),
                                                    encoding="utf-8")

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} smoke={args.smoke}")
    print("# machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"# samples passes={len(passes)} operations={len(outcomes)} "
          f"setup={len(setup)}")
    print("# group shares of wall time: " + " ".join(
        f"{g}={s:.3f}" for g, s in sorted(shares.items())))
    print(f"failed_ratio {failed / attempted:.6g} ratio "
          f"({failed}/{attempted})")
    for name, unit, _ in declared:
        print(f"{name} {metrics[name]:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
