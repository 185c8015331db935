"""Path witnesses, classical benchmarks, and chain gain ratios.

The central quantity is the path witness

    V = 1/F_ab - 1/F_ac - 1/F_cb,

built from the end-to-end Fisher information F_ab and the two segment
informations F_ac, F_cb of a split protocol.  Any classical (sequential,
signaling-free) realization obeys V >= 0: inverse Fisher information adds
like series resistance along a causal chain.  V < 0 therefore witnesses a
resource beyond the classical path composition, with the improvement factor
R_cl / (R_cl + V) = F_end / F_benchmark (a report's gamma_ratio) quantifying
how far past the frontier the protocol sits.

The K-segment generalization sums the chain resistances, the split-optimized
benchmark maximizes the harmonic composition over the intermediate time, and
`gamma_crossing` locates the dephasing rate at which the chain advantage
Gamma_K drops to 1.  The witness, benchmark and indicator functions take
FIs (floats, lists or arrays) that broadcast together, and refuse any FI
that is not > 0, or whose inverse (or a sum of inverses) overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (NoCrossingError, NonPositiveFiError,
                     OptimizationError, ResistanceOverflowError)
from .models import (BinaryModel, NoisyFringeModel, NoisyFringeParams,
                     QubitFringeModel, QubitPreparation)
from .rng import require_integral, require_real

# Segment FIs below this are treated as dead when maximizing over splits.
SPLIT_FI_FLOOR = 1e-12

# Longest chain accepted; a K = 10**6 chain takes about 0.3 ms per rate and
# allocates no K-long array, its segments being a view of one FI per rate.
MAX_CHAIN_K = 10 ** 6


@dataclass(frozen=True)
class WitnessReport:
    """Witness value and the quantities it was built from.

    A one-rate report holds floats; a report over an array of rates holds
    one column per quantity, of the rates' shape.  The K segments lie on
    the last axis, as everywhere in the library: f_segments is a read-only
    float64 array of shape (*rates, K) and segments the (K,) segment
    angles, both views of the distinct values evaluated, so that
    v_chain(f_end, f_segments) == v and K is len(segments).  The gain
    indicator of a report is gain_indicator(f_end, f_benchmark).  A report
    that holds arrays supports neither == nor hash; compare its fields.
    """

    v: float | np.ndarray
    f_end: float | np.ndarray
    f_benchmark: float | np.ndarray
    gamma_ratio: float | np.ndarray
    f_segments: np.ndarray
    segments: np.ndarray


def v_path(f_ab, f_ac, f_cb):
    """Path witness 1/f_ab - 1/f_ac - 1/f_cb; negative values are
    unreachable by classical split protocols."""
    return _series(lambda r_ab, r_ac, r_cb: r_ab - r_ac - r_cb,
                   f_ab=f_ab, f_ac=f_ac, f_cb=f_cb)


def v_chain(f_end, f_segments):
    """Chain witness 1/f_end - sum_j 1/f_j over the segment informations,
    which lie on the last axis of f_segments."""
    f_seg = np.asarray(f_segments, dtype=float)
    if f_seg.ndim == 0 or f_seg.shape[-1] == 0:
        raise ValueError("need at least one segment")
    return _series(lambda r_end, r_seg: r_end - np.sum(r_seg, axis=-1),
                   f_end=f_end, f_segment_=f_seg)


def classical_benchmark_path(f_ac, f_cb):
    """Harmonic composition (1/f_ac + 1/f_cb)^(-1): the best end-to-end FI a
    classical two-segment protocol can reach."""
    return 1.0 / _series(lambda r_ac, r_cb: r_ac + r_cb, f_ac=f_ac, f_cb=f_cb)


def gain_indicator(f_end, f_benchmark):
    """Log error-ratio G = (1/2) ln(f_benchmark / f_end); G < 0 exactly when
    the protocol beats the classical benchmark."""
    _require_positive(f_end=f_end, f_benchmark=f_benchmark)
    return 0.5 * (np.log(f_benchmark) - np.log(f_end))


def split_optimized_benchmark(model: BinaryModel,
                              t_total: float) -> tuple[float, float]:
    """Maximize the harmonic benchmark over the split point.

    Evaluates the benchmark on a 512-point midpoint grid of split fractions,
    then zooms 65-point grids into the bracket around the best point until
    the bracket is at most 1e-8 wide, and breaks near-flat ties (within a
    relative 1e-9, absorbing FI roundoff near fringe extremes) toward the
    symmetric split lambda = 0.5.  Returns (benchmark FI, lambda_star).
    """
    _require_chain(2, t_total)
    _require_one_rate(model)

    def benchmark(lam):
        f = [model.fi(x * t_total) for x in (lam, 1.0 - lam)]
        harmonic = classical_benchmark_path(*np.maximum(f, SPLIT_FI_FLOOR))
        return np.where(np.min(f, axis=0) < SPLIT_FI_FLOOR, 0.0, harmonic)

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


def k_chain_gain(model: BinaryModel, t_total: float, k: int,
                 partition: str = "equal") -> WitnessReport:
    """Chain witness report for a K-segment protocol of total angle
    t_total.  Each segment context runs the same model for its segment
    length from a fresh preparation.

    partition="equal" uses K equal segments; partition="optimized" is
    available for k=2 and maximizes the benchmark over the split point.  An
    array-gamma NoisyFringeModel (equal partitions) gives each rate's report
    as an entry of columns.
    """
    k = _require_chain(k, t_total)
    f_end = model.fi(t_total)
    shape = np.shape(f_end)

    if partition == "equal":
        angles = [t_total / k]
    elif partition == "optimized":
        if k != 2 or shape:
            raise ValueError("optimized partitions need k=2 and one rate")
        _, lam = split_optimized_benchmark(model, t_total)
        angles = [lam * t_total, (1.0 - lam) * t_total]
    else:
        raise ValueError(f"unknown partition {partition!r}")

    # one evaluation per distinct angle, (*rates, P); the K segments view it
    f_parts = np.stack([model.fi(theta) for theta in angles], axis=-1)

    def series(r_end, r_parts):  # a view of K inverses sums as K copies
        r_segments = np.broadcast_to(r_parts, (*shape, k)).sum(axis=-1)
        return r_end - r_segments, r_segments

    v, r_segments = _series(series, f_end=f_end, f_segment_=f_parts)
    # a scalar rate gets the Python floats of a one-rate report
    f_end, f_benchmark = (col if shape else float(col)
                          for col in (f_end, 1.0 / r_segments))
    return WitnessReport(
        v=v[()],
        f_end=f_end,
        f_benchmark=f_benchmark,
        gamma_ratio=f_end / f_benchmark,
        f_segments=np.broadcast_to(f_parts, (*shape, k)),
        segments=np.broadcast_to(angles, (k,)),
    )


def gamma_crossing(base: NoisyFringeParams, t_total: float, k: int,
                   gamma_max: float = 2.0) -> float:
    """Dephasing rate gamma_star at which the chain gain Gamma_K(gamma)
    crosses 1, for the noisy fringe with `base`'s eps_r and vartheta0.

    Scans 64 bracketing points over [0, gamma_max] (gamma_max finite and
    > 0) in one array evaluation, then bisects the first sign-change
    bracket [a, b], keeping Gamma_K(a) > 1 >= Gamma_K(b), until it is at
    most 1e-8 wide or its midpoint is one of its ends; returns its
    midpoint.  A zero segment FI raises NonPositiveFiError where the scan or
    the bisection meets it.
    """
    k = _require_chain(k, t_total)

    def excess(gammas):
        m = NoisyFringeModel(NoisyFringeParams(
            gamma=gammas, epsilon_r=base.epsilon_r, vartheta0=base.vartheta0))
        f_segment, f_end = m.fi(t_total / k), m.fi(t_total)
        _require_positive(f_segment=f_segment)
        with np.errstate(over="ignore"):  # F k past the largest float is inf
            return f_end * k / f_segment - 1.0

    gamma_max = require_real(gamma_max, "gamma_max", 0, bounds="(]")
    grid = np.linspace(0.0, gamma_max, 64)
    vals = excess(grid)
    if vals[0] <= 0.0:
        raise NoCrossingError("Gamma_K does not start above 1 at gamma = 0.0")
    sign_change = np.nonzero(vals[:-1] * vals[1:] <= 0.0)[0]
    if sign_change.size == 0:
        raise NoCrossingError(
            f"Gamma_K stays above 1 on [0.0, {gamma_max}]; no crossing")
    i = int(sign_change[0])
    a, b = float(grid[i]), float(grid[i + 1])
    while b - a > 1e-8 and a < 0.5 * (a + b) < b:
        mid = 0.5 * (a + b)
        a, b = (mid, b) if excess(mid) > 0.0 else (a, mid)
    return 0.5 * (a + b)


def nsit_separation_demo() -> tuple[bool, float]:
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
    thetas = np.linspace(0.0, 2.0 * math.pi, 1000)

    p0 = model.p0(thetas)
    joint = np.multiply.outer([0.5, 0.5], [p0, 1.0 - p0])  # p(a, b, theta)
    nsit_holds = _nsit_holds(p0, joint.sum(axis=0)[0])

    fi = model.fi(thetas)
    nsit_holds = nsit_holds and bool(np.max(np.abs(fi - 1.0)) < 1e-10)

    splits = np.linspace(0.1, 2.0 * math.pi - 0.1, 101)
    total = 2.0 * math.pi - 0.05
    witnesses = v_path(model.fi(total), model.fi(splits),
                       model.fi(total - splits))
    # the median of the 101; numpy's median() would import numpy.ma
    v = float(np.sort(witnesses)[witnesses.size // 2])
    nsit_holds = nsit_holds and bool(np.max(np.abs(witnesses + 1.0)) < 1e-10)
    return nsit_holds, v


def _nsit_holds(p_direct, p_context) -> bool:
    """No-signaling-in-time: the final outcome probabilities with and
    without the interposed measurement agree to 1e-14 at every angle."""
    return bool(np.max(np.abs(np.asarray(p_context) - p_direct)) < 1e-14)


def _require_chain(k, t_total: float) -> int:
    """Check the arguments of a k-segment chain of total angle t_total:
    k an integral value in [2, MAX_CHAIN_K] (an integral float such as 4.0
    acts as 4) and a finite t_total > 0.  Returns k as an int."""
    k = require_integral(k, "k", 2, MAX_CHAIN_K)
    require_real(t_total, "t_total", 0, bounds="(]")
    return k


def _require_one_rate(model: BinaryModel) -> None:
    """Refuse a model over an array of rates, an array-gamma
    NoisyFringeModel, which only the equal-partition chain, the analytic
    certification and the model's own methods take."""
    if isinstance(model, NoisyFringeModel) and np.ndim(model.params.gamma):
        raise ValueError(f"the model must have one rate, got rates of shape "
                         f"{np.shape(model.params.gamma)}")


def _series(compose, **named):
    """compose(*inverses) of the inverses 1/F of the named FIs, after
    _require_positive.  A result that is not finite raises
    ResistanceOverflowError, naming the FIs too small to invert, or else
    all the FIs whose inverses were summed, instead of letting numpy warn."""
    values = _require_positive(**named)
    with np.errstate(over="ignore", invalid="ignore"):
        inverses = [1.0 / value for value in values]
        series = compose(*inverses)
    if not np.isfinite(series).all():
        names = [name.rstrip("_") for name in named]
        small = [name for name, inverse in zip(names, inverses)
                 if not np.isfinite(inverse).all()]
        raise ResistanceOverflowError(
            f"1/F overflows for {', '.join(small)}" if small else
            f"the sum of 1/F over {', '.join(names)} overflows")
    return series


def _require_positive(**named) -> list:
    """The named FIs, a float as it is and anything else as an array, after
    raising ValueError at the first that is not real, and NonPositiveFiError
    at the first entry not > 0 (NaN included) or infinite, in argument
    order and then C order.  A name ending in "_" gets the entry's index on
    the last axis appended."""
    checked = []
    for name, given in named.items():
        value = given
        # fast path: np.asarray and the scan cost a float FI 14x
        if not (isinstance(value, float) and 0.0 < value < math.inf):
            value = np.asarray(value)
            if value.dtype.kind not in "biuf":
                raise ValueError(f"{name} must be a real value, got {given!r}")
            bad = np.flatnonzero(~(value > 0.0) | (value == math.inf))
            if bad.size:
                if name.endswith("_"):
                    name += str(bad[0] % value.shape[-1])
                entry = value.flat[bad[0]].item()
                need = "finite" if entry == math.inf else "> 0"
                raise NonPositiveFiError(f"{name} must be {need}, got {entry}")
        checked.append(value)
    return checked
