"""The benchmark's three workloads.

Each workload is a fixed script of operations built from the workload seed;
one pass runs the script once, and a run repeats passes.  Every workload is
a closed loop with one client: the next operation starts when the previous
one has finished.

* cli-startup: each non-adversary subcommand as a fresh ``python -m cfii.cli``
  process.  Import is about nine tenths of each call, so startup and
  lazy-import changes show here.
* adversary-frontier: the 36-restart L = M = 5 adversary as a fresh process,
  at a step count where Adam steps are nine tenths of the call.  All 36
  restarts are kept so that a batched rewrite has its full width.
* warm-library: one warm process that loops over a balanced mix of library
  calls; nothing imports, so an import change should move nothing here.

The program receives only the generated inputs (parameter grids and --seed
values); sizes are fixed, so the work per pass does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field
from typing import Callable

import checks

NAMES = ("cli-startup", "adversary-frontier", "warm-library")

# Adam steps per adversary-frontier call: the fewest at which every seed
# tried reaches best_gamma within 1e-9 of 1 (250 steps does not).
FRONTIER_STEPS = 500
SMOKE_FRONTIER_STEPS = 60
SMOKE_SATURATION_TOL = 1e-2


@dataclass
class Op:
    """One operation of a pass.

    A process op runs ``cfii <argv>`` as a fresh process and `check` gets its
    stdout; an in-process op calls `call` and `check` gets the return value.
    `canon` turns the output into the text that must repeat exactly when the
    same op runs again.
    """

    label: str
    group: str
    check: Callable[[object], list[str]]
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    canon: Callable[[object], str] = field(default=repr)
    calls: int = 1  # library calls the op makes, for calls_per_s


@dataclass
class Workload:
    name: str
    ops: list[Op]
    in_process: bool
    # run once after the timed passes; extra checks, counted as attempted
    after: list[Op] = field(default_factory=list)


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "cli-startup":
        return Workload(name, _cli_startup_ops(rng), in_process=False)
    if name == "adversary-frontier":
        return _adversary_frontier(rng, smoke)
    return Workload(name, _warm_library_ops(rng, smoke), in_process=True)


def _program_seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2 ** 31))


def _uniform(rng: random.Random, lo: float, hi: float) -> str:
    return repr(round(rng.uniform(lo, hi), 6))


# ---------------------------------------------------------------------------
# cli-startup

def _quantity_check(expect: Callable[[dict], list[str]]):
    def check(stdout: str) -> list[str]:
        _, _, rows = checks.parse_table(stdout)
        return expect(checks.quantities(rows))
    return check


def _certify_point(q: dict) -> list[str]:
    return (checks.readme_golden("analytic_certification.se",
                                 q["se_analytic"])
            + checks.readme_golden("analytic_certification.z",
                                   q["z_analytic"])
            + checks.readme_golden("k_chain_gain.v", q["v_analytic"]))


def _nsit(q: dict) -> list[str]:
    return (checks.near("nsit_holds", q["nsit_holds"], 1.0, 0.0)
            + checks.near("v_path", q["v_path"], -1.0, 1e-10))


def _crossing_check(k: int):
    def check(stdout: str) -> list[str]:
        _, columns, rows = checks.parse_table(stdout)
        return checks.crossing(checks.column(columns, rows, "gamma_star")[0],
                               k)
    return check


def _no_extra_check(stdout: str) -> list[str]:
    return []


def _cli_startup_ops(rng: random.Random) -> list[Op]:
    k_chain = rng.randint(2, 8)
    k_cross = rng.randint(2, 7)
    specs = [
        ("fi", ["fi", "--model", "noisy", "--gamma", _uniform(rng, 0.05, 0.5),
                "--grid", f"0.05:{_uniform(rng, 5.0, 6.25)}:200"],
         _no_extra_check),
        ("landscape", ["landscape",
                       "--vartheta", _uniform(rng, 0.3 * math.pi,
                                              0.8 * math.pi),
                       "--varphi", _uniform(rng, 0.1 * math.pi, 0.5 * math.pi),
                       "--grid", "0.05:6.0:64"], _no_extra_check),
        ("certify-point", ["certify", "--seed", _program_seed(rng),
                           "--shots", "1000"],
         _quantity_check(_certify_point)),
        ("certify-sweep", ["certify",
                           "--gamma-grid", f"0.0:{_uniform(rng, 0.4, 0.8)}:25",
                           "--shots-grid", "100:100000:7"], _no_extra_check),
        ("chain", ["chain", "--gamma-grid", f"0.0:{_uniform(rng, 0.4, 0.8)}:25",
                   "--k", str(k_chain)], _no_extra_check),
        ("crossing", ["crossing", "--k", str(k_cross)],
         _crossing_check(k_cross)),
        ("nsit-demo", ["nsit-demo"], _quantity_check(_nsit)),
        ("rmse", ["rmse", "--model", "ideal",
                  "--theta", _uniform(rng, 0.5, 2.5),
                  "--seed", _program_seed(rng)], _no_extra_check),
    ]
    return [Op(label, label, check, argv=argv) for label, argv, check in specs]


# ---------------------------------------------------------------------------
# adversary-frontier

def _frontier_check(tol: float):
    def check(stdout: str) -> list[str]:
        meta, columns, rows = checks.parse_table(stdout)
        gammas = checks.column(columns, rows, "gamma_adv")
        return (checks.series_law(gammas)
                + checks.saturated(float(meta["summary_max"]), tol)
                + checks.near("summary_max", max(gammas),
                              float(meta["summary_max"]), 0.0))
    return check


def _blind_check(stdout: str) -> list[str]:
    _, columns, rows = checks.parse_table(stdout)
    return checks.blind_endpoint(checks.column(columns, rows, "gamma_adv"))


def _adversary_frontier(rng: random.Random, smoke: bool) -> Workload:
    steps = SMOKE_FRONTIER_STEPS if smoke else FRONTIER_STEPS
    tol = SMOKE_SATURATION_TOL if smoke else checks.SATURATION_TOL
    seed = _program_seed(rng)
    frontier = Op("adversary", "adversary", _frontier_check(tol),
                  argv=["adversary", "--l", "5", "--m", "5", "--restarts",
                        "36", "--steps", str(steps), "--seed", seed])
    blind = Op("adversary-m2", "adversary", _blind_check,
               argv=["adversary", "--l", "5", "--m", "2", "--restarts", "4",
                     "--steps", "50", "--seed", seed])
    return Workload("adversary-frontier", [frontier], in_process=False,
                    after=[blind])


# ---------------------------------------------------------------------------
# warm-library

def _finite(*values: float) -> list[str]:
    return [f"non-finite value {v!r}" for v in values if not math.isfinite(v)]


def _cli_text(argv: list[str]) -> Callable[[], tuple[int, str]]:
    from cfii import cli

    def call() -> tuple[int, str]:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(argv)
        return code, out.getvalue()
    return call


def _landscape_check(rows_expected: int):
    def check(value: tuple[int, str]) -> list[str]:
        code, stdout = value
        if code != 0:
            return [f"cli.main exited {code}"]
        _, columns, rows = checks.parse_table(stdout)
        failures = checks.table_cells(columns, rows)
        if len(rows) != rows_expected:
            failures.append(f"{len(rows)} rows, expected {rows_expected}")
        return failures
    return check


def _landscape_canon(value: tuple[int, str]) -> str:
    return f"{value[0]}\n{checks.drop_wallclock(value[1])}"


def _warm_library_ops(rng: random.Random, smoke: bool) -> list[Op]:
    """Sweeps a library user runs from a warm session.  Each op is one sweep
    (a short loop of library calls over a grid), so op latencies run from a
    few to a few hundred milliseconds rather than from microseconds."""
    import numpy as np

    # Library functions are looked up on the package at call time, so that
    # the traced run's wrappers see these calls.
    import cfii
    from cfii import (AdversaryParams, CategoricalModel, NoisyFringeModel,
                      NoisyFringeParams, QubitFringeModel, QubitPreparation,
                      categorical_fi)

    reps = 1 if smoke else 4
    ops: list[Op] = []

    def add(group, label, calls, call, check):
        ops.append(Op(label, group, check, call=call, calls=calls))

    def noisy(gamma, eps_r=0.02):
        return NoisyFringeModel(NoisyFringeParams(gamma=gamma,
                                                  epsilon_r=eps_r))

    def gammas(n):
        return [rng.uniform(0.0, 0.6) for _ in range(n)]

    readme = noisy(0.25)
    half_pi = math.pi / 2

    # split: each optimized solve makes 512 scalar fi calls, then a bounded
    # scalar minimization.  The first sweep starts at the README point.
    for i in range(reps):
        theta, grid = rng.uniform(0.8, 2.5), gammas(4)

        def optimized_sweep(theta=theta, grid=grid, first=i == 0):
            out = []
            if first:
                r = cfii.k_chain_gain(readme, half_pi, 4)
                out += [r.v, r.gamma_ratio]
            for g in grid:
                r = cfii.k_chain_gain(noisy(g), theta, 2,
                                      partition="optimized")
                out += [r.v, r.gamma_ratio, r.segments[0]]
            return tuple(out)

        def check_optimized(v, first=i == 0):
            failures = _finite(*v)
            if first:
                failures += (checks.readme_golden("k_chain_gain.v", v[0])
                             + checks.readme_golden("k_chain_gain.gamma",
                                                    v[1]))
            return failures
        add("split", "k_chain_gain.optimized", 4 + (i == 0),
            optimized_sweep, check_optimized)
    theta, grid = rng.uniform(0.8, 2.5), gammas(4)
    add("split", "split_optimized_benchmark", len(grid),
        lambda theta=theta, grid=grid: tuple(x for g in grid
                      for x in cfii.split_optimized_benchmark(noisy(g),
                                                              theta)),
        lambda v: _finite(*v) + [f"lambda* = {lam!r}" for lam in v[1::2]
                                 if not 0.0 < lam < 1.0])

    # crossing: a 64-point scan plus a bracketed root solve for each K
    for _ in range(2 * reps):
        eps_r = rng.uniform(0.0, 0.1)
        ks = range(2, 8)
        add("crossing", "gamma_crossing", len(ks),
            lambda eps_r=eps_r, ks=ks: tuple(cfii.gamma_crossing(
                NoisyFringeParams(gamma=0.0, epsilon_r=eps_r), half_pi, k)
                for k in ks),
            lambda v, eps_r=eps_r, ks=ks: [
                f for g, k in zip(v, ks)
                for f in checks.crossing(g, k, eps_r=eps_r)])

    # estimate: delta-method certification over (gamma, shots), sampled
    # certification, Monte Carlo and the classifier estimator
    shots = (100, 1000, 10_000, 100_000)
    for i in range(reps):
        grid = gammas(6)

        def cert_sweep(grid=grid, first=i == 0):
            out = []
            if first:
                r = cfii.analytic_certification(readme, half_pi, 4, 1000)
                out += [r.se, r.z]
            out += [cfii.analytic_certification(noisy(g), half_pi, 4, n).z
                    for g in grid for n in shots]
            return tuple(out)

        def check_cert(v, first=i == 0):
            failures = _finite(*v)
            if first:
                failures += (
                    checks.readme_golden("analytic_certification.se", v[0])
                    + checks.readme_golden("analytic_certification.z", v[1]))
            return failures
        add("estimate", "analytic_certification",
            len(grid) * len(shots) + (i == 0), cert_sweep, check_cert)
    for _ in range(reps):
        grid, seed = gammas(16), rng.randrange(2 ** 31)

        def sampled(grid=grid, seed=seed):
            out = []
            for j, g in enumerate(grid):
                model, base = noisy(g), seed + 10 * j
                endpoint = cfii.sample_binary(model, half_pi, 1000, base)
                segments = [cfii.sample_binary(model, half_pi / 4, 1000,
                                               base + 1 + c)
                            for c in range(4)]
                r = cfii.certify_vk(endpoint, segments, model)
                out += [r.v_hat, r.se, r.z]
            return tuple(out)
        add("estimate", "certify_vk", 6 * len(grid), sampled,
            lambda v: _finite(*v))
        params = NoisyFringeParams(gamma=rng.uniform(0.0, 0.5),
                                   epsilon_r=0.02)

        def vk_dist(params=params, seed=seed):
            mean, (lo, hi) = cfii.mc_vk_distribution(params, half_pi, 4,
                                                     1000, 20_000, seed)
            return mean, lo, hi
        add("estimate", "mc_vk_distribution", 1, vk_dist,
            lambda v: _finite(*v) + ([] if v[1] <= v[0] <= v[2]
                                     else ["mean outside its 95% band"]))
    ideal = QubitFringeModel(QubitPreparation(vartheta=0.0, varphi=half_pi))
    for _ in range(reps):
        thetas = [rng.uniform(0.5, 2.5) for _ in range(16)]
        seed = rng.randrange(2 ** 31)
        add("estimate", "mc_rmse+classifier_fi", 2 * len(thetas),
            lambda thetas=thetas, seed=seed: tuple(
                x for t in thetas
                for x in (cfii.mc_rmse(ideal, t, 1000, 5000, seed),
                          cfii.classifier_fi(readme, t, seed=seed).value)),
            lambda v: _finite(*v) + [f"estimate {x!r} <= 0" for x in v
                                     if not x > 0.0])

    # fim: effective FI of 2x2 matrices and coarse-graining channels
    for _ in range(reps):
        mats = []
        for _ in range(150):
            a, b = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
            j = rng.uniform(-0.9, 0.9) * math.sqrt(a * b)
            mats.append((np.array([[a, j], [j, b]]),
                         (a * b - j * j) / (a + b - 2 * j)))
        add("fim", "effective_fi", len(mats),
            lambda mats=mats: tuple(cfii.effective_fi(m, np.ones(2))
                                    for m, _ in mats),
            lambda v, mats=mats: [
                f for f_got, (_, f_exp) in zip(v, mats)
                for f in checks.near("effective_fi", f_got, f_exp, 1e-9)])
        channels = []
        for _ in range(150):
            p = np.array([rng.uniform(0.1, 1.0) for _ in range(3)])
            pdot = np.array([rng.uniform(-0.3, 0.3) for _ in range(3)])
            model = CategoricalModel(p / p.sum(), pdot - pdot.mean())
            w = rng.uniform(0.0, 1.0)
            channel = np.array([[1.0, 0.0], [w, 1.0 - w], [0.0, 1.0]])
            channels.append((model, channel, categorical_fi(model)))
        add("fim", "coarse_grain_fi", len(channels),
            lambda channels=channels: tuple(
                cfii.coarse_grain_fi(m, c) for m, c, _ in channels),
            lambda v, channels=channels: [
                f"DPI broken: {f!r} > {bound!r}"
                for f, (_, _, bound) in zip(v, channels)
                if not 0.0 <= f <= bound + 1e-12])

    # adversary: the single-restart (B = 1) path, saturating and blind
    steps = 40 if smoke else 300
    for m in (5, 5, 2):
        seed = rng.randrange(2 ** 31)

        def adversary(m=m, seed=seed):
            r = cfii.optimize_restarts(5, m, n_restarts=1, steps=steps,
                                       seed=seed)
            return r.best_gamma, r.restart_gammas[0]
        add("adversary", f"optimize_restarts.m{m}", 1, adversary,
            (lambda v: checks.series_law(list(v))) if m == 5
            else (lambda v: checks.blind_endpoint(list(v))))
    points = [AdversaryParams(*(np.array([rng.gauss(0.0, 1.0)
                                          for _ in range(n)]).reshape(shape)
                                for n, shape in ((5, 5), (5, 5), (25, (5, 5)),
                                                 (25, (5, 5)))))
              for _ in range(40)]
    add("adversary", "gamma_adv_gradient", len(points),
        lambda: tuple(float(np.abs(g).sum()) for p in points
                      for g in cfii.gamma_adv_gradient(p)),
        lambda v: _finite(*v))

    # cli: a large landscape rendered in both formats
    n = 16 if smoke else 128
    vartheta = rng.uniform(0.3, 0.8) * math.pi
    varphi = rng.uniform(0.1, 0.5) * math.pi
    for fmt in ("csv", "json"):
        argv = ["landscape", "--vartheta", repr(vartheta), "--varphi",
                repr(varphi), "--grid", f"0.05:6.0:{n}", "--format", fmt]
        ops.append(Op(f"landscape.{fmt}", "cli", _landscape_check(n * n),
                      call=_cli_text(argv), canon=_landscape_canon))
    return ops
