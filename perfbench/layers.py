"""Per-layer metrics from recorded spans, import timings and probes.

Span totals are divided by the number of traced passes, so a count is per
pass and repeats exactly when the program does the same work.  A layer a
workload does not call reads 0.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

COMMANDS = ("fi", "landscape", "certify", "adversary", "rmse", "chain",
            "nsit-demo", "crossing")
SOLVERS = ("witness.split_optimized_benchmark", "witness.gamma_crossing")
COUNTED = ("models.fi", "fim.effective_fi",
           "witness.split_optimized_benchmark", "witness.gamma_crossing",
           "witness.k_chain_gain", "estimate.analytic_certification",
           "estimate.certify_vk", "estimate.sample_binary", "estimate.mc_rmse",
           "estimate.mc_vk_distribution", "estimate.classifier_fi",
           "rng.derive_rng")

# (metric, unit, better); BENCHMARK.json lists the same names in this order.
PER_LAYER = (
    [("cli.import_s", "s", "lower"), ("cli.import_scipy_s", "s", "lower")]
    + [(f"cli.execute_s.{c}", "s", "lower") for c in COMMANDS]
    + [("cli.render_s", "s", "lower"), ("cli.build_config_us", "us", "lower"),
       ("models.fi_scalar_us", "us", "lower"),
       ("models.fi_array_us", "us", "lower")]
    + [m for name in COUNTED for m in ((f"{name}.calls", "count", "lower"),
                                       (f"{name}.self_s", "s", "lower"))]
    + [("witness.fi_evals_per_solve", "count", "lower"),
       ("adversary.optimize_restarts.self_s", "s", "lower"),
       ("adversary.step_us", "us", "lower"),
       ("adversary.steps_per_s", "1/s", "higher"),
       ("adversary.cpu_per_wall", "ratio", "lower"),
       ("adversary.gamma_adv_gradient_us", "us", "lower"),
       ("adversary.best_gamma", "ratio", "higher"),
       ("trace.overhead_s", "s", "lower")]
)


def self_times(spans: list[dict]) -> dict[tuple, float]:
    """Span duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[(s["trace"], s["parent"])].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children[(s["trace"], s["id"])]):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[(s["trace"], s["id"])] = s["end"] - s["start"] - covered
    return out


def _solver_fi_evals(spans: list[dict]) -> tuple[int, int]:
    """(fi calls made inside a witness solver, number of solver calls)."""
    by_key = {(s["trace"], s["id"]): s for s in spans}
    solves = sum(1 for s in spans if s["name"] in SOLVERS)
    evals = 0
    for s in spans:
        if s["name"] != "models.fi":
            continue
        parent = s["parent"]
        while parent is not None:
            up = by_key[(s["trace"], parent)]
            if up["name"] in SOLVERS:
                evals += 1
                break
            parent = up["parent"]
    return evals, solves


def from_spans(spans: list[dict], passes: int) -> dict[str, float]:
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    wall = defaultdict(float)
    for s in spans:
        calls[s["name"]] += 1
        self_s[s["name"]] += selfs[(s["trace"], s["id"])]
        wall[s["name"]] += s["end"] - s["start"]
    out = {}
    for name in COUNTED:
        out[f"{name}.calls"] = calls[name] / passes
        out[f"{name}.self_s"] = self_s[name] / passes
    for command in COMMANDS:
        out[f"cli.execute_s.{command}"] = sum(
            s["end"] - s["start"] for s in spans
            if s["name"] == "cli.execute" and s["command"] == command) / passes
    out["cli.render_s"] = wall["cli.render"] / passes
    n_config = calls["cli.build_config"]
    out["cli.build_config_us"] = (wall["cli.build_config"] / n_config * 1e6
                                  if n_config else 0.0)
    evals, solves = _solver_fi_evals(spans)
    out["witness.fi_evals_per_solve"] = evals / solves if solves else 0.0

    restarts = [s for s in spans if s["name"] == "adversary.optimize_restarts"]
    steps = sum(s["restarts"] * s["steps"] for s in restarts)
    busy = sum(s["end"] - s["start"] for s in restarts)
    out["adversary.optimize_restarts.self_s"] = (
        self_s["adversary.optimize_restarts"] / passes)
    out["adversary.step_us"] = busy / steps * 1e6 if steps else 0.0
    out["adversary.steps_per_s"] = steps / busy if busy else 0.0
    out["adversary.cpu_per_wall"] = (sum(s["cpu"] for s in restarts) / busy
                                     if busy else 0.0)
    out["adversary.best_gamma"] = max(
        (s.get("best_gamma", 0.0) for s in restarts), default=0.0)
    return out


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(cfii import, scipy import) in seconds from ``-X importtime`` output.

    The cfii figure is the cumulative time of the top-level cfii entries;
    the scipy figure sums the cumulative time of each scipy entry that no
    other scipy entry encloses.  Entries are printed after their children,
    so a stack of (depth, node) rebuilds the tree.
    """
    stack: list[tuple[int, tuple]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = len(name) - len(name.lstrip())
        children = []
        while stack and stack[-1][0] > depth:
            children.append(stack.pop()[1])
        stack.append((depth, (name.strip(), int(cumulative) * 1e-6,
                              children)))
    roots = [node for _, node in stack]

    def scipy_time(node) -> float:
        name, seconds, children = node
        if name == "scipy" or name.startswith("scipy."):
            return seconds
        return sum(scipy_time(child) for child in children)

    cfii = sum(seconds for name, seconds, _ in roots
               if name == "cfii" or name.startswith("cfii."))
    return cfii, sum(scipy_time(root) for root in roots)


def probe(fn, calls: int, batches: int = 7) -> float:
    """Median over batches of the mean time per call, in microseconds."""
    per_call = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(per_call)


def probes() -> dict[str, float]:
    """Per-call times of single layer functions on fixed inputs."""
    import numpy as np

    from cfii import (AdversaryParams, NoisyFringeModel, NoisyFringeParams,
                      gamma_adv_gradient)

    model = NoisyFringeModel(NoisyFringeParams(gamma=0.25, epsilon_r=0.02))
    thetas = np.linspace(0.05, 6.25, 10_000)
    rng = np.random.default_rng(0)
    params = AdversaryParams(rng.normal(size=5), rng.normal(size=5),
                             rng.normal(size=(5, 5)), rng.normal(size=(5, 5)))
    return {
        "models.fi_scalar_us": probe(lambda: model.fi(1.0), 300),
        "models.fi_array_us": probe(lambda: model.fi(thetas), 10),
        "adversary.gamma_adv_gradient_us":
            probe(lambda: gamma_adv_gradient(params), 30),
    }
