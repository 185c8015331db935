"""Path witnesses, classical benchmarks, and chain gain ratios.

The central quantity is the path witness

    V = 1/F_ab - 1/F_ac - 1/F_cb,

built from the end-to-end Fisher information F_ab and the two segment
informations F_ac, F_cb of a split protocol.  Any classical (sequential,
signaling-free) realization obeys V >= 0: inverse Fisher information adds
like series resistance along a causal chain.  V < 0 therefore witnesses a
resource beyond the classical path composition, with the improvement factor
R_cl / (R_cl + V) quantifying how far past the frontier the protocol sits.

The K-segment generalization sums the chain resistances, the split-optimized
benchmark maximizes the harmonic composition over the intermediate time, and
`gamma_crossing` locates the dephasing rate at which the chain advantage
Gamma_K drops to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (DegenerateBenchmarkError, NoCrossingError,
                     NonPositiveFiError, OptimizationError)
from .models import (BinaryModel, CategoricalModel, NoisyFringeModel,
                     NoisyFringeParams, QubitFringeModel, QubitPreparation,
                     categorical_product)
from .rng import require_integral

# Segment FIs below this are treated as dead when maximizing over splits.
SPLIT_FI_FLOOR = 1e-12

# Bisection levels that gamma_crossing evaluates per array call.
_TREE_DEPTH = 6


@dataclass(frozen=True)
class WitnessReport:
    """Witness value and the quantities it was built from."""

    v: float
    f_end: float
    f_benchmark: float
    gamma_ratio: float
    g_indicator: float
    f_segments: tuple[float, ...]
    segments: tuple[float, ...]

    @property
    def k(self) -> int:
        return len(self.f_segments)


def v_path(f_ab: float, f_ac: float, f_cb: float) -> float:
    """Path witness 1/f_ab - 1/f_ac - 1/f_cb; negative values are
    unreachable by classical split protocols."""
    _require_positive(f_ab=f_ab, f_ac=f_ac, f_cb=f_cb)
    return 1.0 / f_ab - 1.0 / f_ac - 1.0 / f_cb


def v_chain(f_end: float, f_segments: Sequence[float]) -> float:
    """Chain witness 1/f_end - sum_j 1/f_j over the segment informations."""
    if len(f_segments) == 0:
        raise ValueError("need at least one segment")
    _require_positive(f_end=f_end)
    f_seg = np.asarray(f_segments, dtype=float)
    bad = np.flatnonzero(~(f_seg > 0.0))
    if bad.size:
        j = int(bad[0])
        _require_positive(**{f"f_segment_{j}": f_segments[j]})
    return 1.0 / f_end - float(np.sum(1.0 / f_seg))


def classical_benchmark_path(f_ac: float, f_cb: float) -> float:
    """Harmonic composition (1/f_ac + 1/f_cb)^(-1): the best end-to-end FI a
    classical two-segment protocol can reach."""
    _require_positive(f_ac=f_ac, f_cb=f_cb)
    return 1.0 / (1.0 / f_ac + 1.0 / f_cb)


def gain_indicator(f_end: float, f_benchmark: float) -> float:
    """Log error-ratio G = (1/2) ln(f_benchmark / f_end); G < 0 exactly when
    the protocol beats the classical benchmark."""
    _require_positive(f_end=f_end, f_benchmark=f_benchmark)
    return 0.5 * math.log(f_benchmark / f_end)


def improvement_factor(v: float, r_cl: float) -> float:
    """Resistance ratio r_cl / (r_cl + v) comparing classical and achieved
    end-to-end information resistances."""
    if r_cl <= 0.0:
        raise NonPositiveFiError(f"classical resistance must be > 0, got {r_cl}")
    if r_cl + v <= 0.0:
        raise DegenerateBenchmarkError(
            f"achieved resistance r_cl + v = {r_cl + v} is not positive")
    return r_cl / (r_cl + v)


def split_optimized_benchmark(model: BinaryModel,
                              theta_total: float) -> tuple[float, float]:
    """Maximize the harmonic benchmark over the split point.

    Evaluates the benchmark on a 512-point midpoint grid of split fractions,
    then zooms 65-point grids into the bracket around the best point until
    the bracket is at most 1e-8 wide, and breaks near-flat ties (within a
    relative 1e-9, absorbing FI roundoff near fringe extremes) toward the
    symmetric split lambda = 0.5.  Returns (benchmark FI, lambda_star).
    """
    _require_chain(2, theta_total, "theta_total")

    def benchmark(lam):
        f = np.stack([model.fi(lam * theta_total),
                      model.fi((1.0 - lam) * theta_total)])
        harmonic = 1.0 / np.sum(1.0 / np.maximum(f, SPLIT_FI_FLOOR), axis=0)
        return np.where(f.min(axis=0) < SPLIT_FI_FLOOR, 0.0, harmonic)

    grid = (np.arange(512) + 0.5) / 512.0
    values = benchmark(grid)
    if np.max(values) <= 0.0:
        raise OptimizationError(
            "segment FI vanishes for every scanned split; no benchmark exists")
    while True:
        best = int(np.argmax(values))
        lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
        if hi - lo <= 1e-8:
            break
        grid = np.linspace(lo, hi, 65)
        values = benchmark(grid)
    lam_star, f_star = float(grid[best]), float(values[best])
    # Flat objective (constant-FI model): prefer the symmetric split.  The
    # 1e-9 band absorbs the 1 - z^2 cancellation noise of near-extremal
    # fringe points, which would otherwise win the argmax by ~1e-11.
    f_half = float(benchmark(0.5))
    if abs(f_half - f_star) <= 1e-9 * max(1.0, abs(f_star)):
        lam_star, f_star = 0.5, f_half
    return f_star, lam_star


def k_chain_gain(model: BinaryModel, theta_total: float, k: int,
                 partition: str = "equal") -> WitnessReport:
    """Chain witness report for a K-segment protocol of total angle
    theta_total.  Each segment context runs the same model for its segment
    length from a fresh preparation.

    partition="equal" uses K equal segments; partition="optimized" is
    available for k=2 and maximizes the benchmark over the split point.
    """
    k = _require_chain(k, theta_total, "theta_total")

    if partition == "equal":
        segments = (theta_total / k,) * k
    elif partition == "optimized":
        if k != 2:
            raise ValueError("optimized partitions are supported for k=2 only")
        _, lam = split_optimized_benchmark(model, theta_total)
        segments = (lam * theta_total, (1.0 - lam) * theta_total)
    else:
        raise ValueError(f"unknown partition {partition!r}")

    f_end = float(model.fi(theta_total))
    # one evaluation per distinct angle: an equal partition needs one
    f_by_angle = {seg: float(model.fi(seg)) for seg in set(segments)}
    f_segments = tuple(f_by_angle[seg] for seg in segments)
    v = v_chain(f_end, f_segments)
    f_benchmark = 1.0 / float(np.sum(1.0 / np.asarray(f_segments)))
    return WitnessReport(
        v=v,
        f_end=f_end,
        f_benchmark=f_benchmark,
        gamma_ratio=f_end / f_benchmark,
        g_indicator=gain_indicator(f_end, f_benchmark),
        f_segments=f_segments,
        segments=segments,
    )


def gamma_crossing(base: NoisyFringeParams, t_total: float, k: int,
                   gamma_range: tuple[float, float] = (0.0, 2.0)) -> float:
    """Dephasing rate gamma_star at which the chain gain Gamma_K(gamma)
    crosses 1, for the noisy fringe with `base`'s eps_r and vartheta0.

    Scans 64 bracketing points over gamma_range in one array evaluation,
    then bisects the first sign-change bracket [a, b], keeping
    Gamma_K(a) > 1 >= Gamma_K(b), until it is at most 1e-8 wide; returns
    its midpoint.  The bisection is batched: each round evaluates the next
    six levels of midpoints at once and walks that tree with the scalar
    bisection's test, so gamma_star is bit-identical to bisecting one
    midpoint at a time.  A zero segment FI raises only at a point that
    scalar bisection would evaluate.
    """
    k = _require_chain(k, t_total, "t_total")

    def excess(gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = NoisyFringeModel(NoisyFringeParams(
            gamma=gammas, epsilon_r=base.epsilon_r, vartheta0=base.vartheta0))
        f_segment = m.fi(t_total / k)
        # points off the bisection path may have a zero segment FI
        with np.errstate(divide="ignore", invalid="ignore"):
            return m.fi(t_total) * k / f_segment - 1.0, f_segment

    lo, hi = gamma_range
    grid = np.linspace(lo, hi, 64)
    vals, f_segment = excess(grid)
    bad = np.flatnonzero(~(f_segment > 0.0))
    if bad.size:
        _require_positive(f_segment=float(f_segment[bad[0]]))
    if vals[0] <= 0.0:
        raise NoCrossingError("Gamma_K does not start above 1 at gamma = "
                              f"{lo}")
    sign_change = np.nonzero(vals[:-1] * vals[1:] <= 0.0)[0]
    if sign_change.size == 0:
        raise NoCrossingError(
            f"Gamma_K stays above 1 on [{lo}, {hi}]; no crossing")
    i = int(sign_change[0])
    a, b = float(grid[i]), float(grid[i + 1])
    while b - a > 1e-8:
        # the next levels of midpoints, each the midpoint of its two sorted
        # neighbours, as bisection computes them; walking the levels is a
        # binary search over the sorted edges
        edges = np.array([a, b])
        for _ in range(_TREE_DEPTH):
            finer = np.empty(2 * edges.size - 1)
            finer[::2], finer[1::2] = edges, 0.5 * (edges[:-1] + edges[1:])
            edges = finer
        vals, f_segment = excess(edges)
        lo_j, hi_j = 0, edges.size - 1
        while b - a > 1e-8 and hi_j - lo_j > 1:
            j = (lo_j + hi_j) // 2
            _require_positive(f_segment=float(f_segment[j]))
            if vals[j] > 0.0:
                a, lo_j = float(edges[j]), j
            else:
                b, hi_j = float(edges[j]), j
    return 0.5 * (a + b)


def nsit_separation_demo(grid_points: int = 1000) -> tuple[bool, float]:
    """Constant-FI fringe that satisfies no-signaling-in-time yet violates
    every path witness maximally.

    Builds the family p0(theta) = cos^2(theta/2) and a second measurement
    context in which an outcome-blind coin a is tossed first: the joint
    distribution of (a, b) is the product of a fair, parameter-independent
    coin with the fringe, and a channel (a, b) -> b then marginalizes a out.
    Checks on a theta grid that the two contexts give the same marginal of
    b (`nsit_holds`), that the family's FI is 1 everywhere, and that V = -1
    for every nontrivial split.  Returns (nsit_holds, witness value).
    """
    model = QubitFringeModel(QubitPreparation(vartheta=0.0, varphi=math.pi / 2))
    thetas = np.linspace(0.0, 2.0 * math.pi, grid_points)

    coin = CategoricalModel(np.array([0.5, 0.5]), np.zeros(2))
    forget_a = np.tile(np.eye(2), (2, 1))
    p_blind = np.array([
        (forget_a.T @ categorical_product(coin, model.as_categorical(t)).p)[0]
        for t in thetas])
    nsit_holds = _nsit_holds(model.p0(thetas), p_blind)

    fi = model.fi(thetas)
    nsit_holds = nsit_holds and bool(np.max(np.abs(fi - 1.0)) < 1e-10)

    splits = np.linspace(0.1, 2.0 * math.pi - 0.1, 101)
    total = 2.0 * math.pi - 0.05
    witnesses = [
        v_path(float(model.fi(total)), float(model.fi(s)),
               float(model.fi(total - s)))
        for s in splits if 0.0 < s < total
    ]
    v = float(np.median(witnesses))
    nsit_holds = nsit_holds and bool(
        np.max(np.abs(np.asarray(witnesses) + 1.0)) < 1e-10)
    return nsit_holds, v


def _nsit_holds(p_direct, p_context) -> bool:
    """No-signaling-in-time: the final outcome probabilities with and
    without the interposed measurement agree to 1e-14 at every angle."""
    return bool(np.max(np.abs(np.asarray(p_context) - p_direct)) < 1e-14)


def _require_chain(k, total: float, name: str) -> int:
    """Check the arguments of a k-segment chain of total angle `total`:
    k an integral value >= 2 (an integral float such as 4.0 acts as 4) and
    a finite total > 0.  Returns k as an int."""
    k = require_integral(k, "k")
    if k < 2:
        raise ValueError(f"chain needs k >= 2 segments, got {k}")
    if not (math.isfinite(total) and total > 0.0):
        raise ValueError(f"need a finite {name} > 0, got {total}")
    return k


def _require_positive(**named: float) -> None:
    for name, value in named.items():
        if not value > 0.0:
            raise NonPositiveFiError(f"{name} must be > 0, got {value}")
