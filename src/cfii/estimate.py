"""Finite-shot estimation and certification of the chain witness.

A certificate takes two stages.  `_plugin` turns outcome counts into each
context's plug-in FI, F_hat = (1/n) sum_i s(x_i)^2, and its variance, the
sample variance of the squared scores over n.  `_witness` turns FIs into the
witness estimate V_hat = 1/F_hat(end) - sum_j 1/F_hat(segment j), its
delta-method SE^2 = sum_s Var_s/F_s^4 and Z = -V_hat/SE, the number of SEs
the witness sits below the classical boundary.  The variances are the
plug-in ones ("empirical" mode) or the analytic (mu4 - F^2)/n, with
mu4 = sum_x p_x s_x^4 ("analytic-moment" mode).  A report holds the K
segments' FIs and variances on the last axis.  The analytic certification
of an equal-partition chain also takes a model over an array of rates: one
K = 10**6 chain takes about 0.04 s and 40 MB, and 10**5 rates at K = 4 about
0.04 s and 36 MB (2-vCPU box, above the import).

Also here: the smoothed two-class classifier score, a closed-form MLE for
the binary fringe, and seeded Monte-Carlo experiments for RMSE
achievability and the sampling distribution of V_hat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (DegenerateModelError, EstimationError,
                     ResistanceOverflowError)
from .models import BinaryModel, NoisyFringeModel, NoisyFringeParams
from .rng import derive_rng, require_integral, require_real
from .witness import _require_chain, v_chain

Z95 = 1.959964

# Most draws in one array (a sampled context's shots, mc_vk_distribution's
# count table), and most replications of a Monte Carlo run.
MAX_SHOTS = 10 ** 7
MAX_REPS = 10 ** 6
# Most entries of a block of chains in analytic_certification.
_CHAIN_BLOCK = 2 ** 20

# RNG path tags (see rng.py).
_TAG_SAMPLE = 1
_TAG_CLASSIFIER = 2
_TAG_RMSE = 3
_TAG_VK = 4


@dataclass(frozen=True)
class ContextSample:
    """Outcome counts of one measurement context at angle theta: n0 of its
    n shots gave outcome 0."""

    theta: float
    n: int
    n0: int

    def __post_init__(self) -> None:
        require_real(self.theta, "theta")
        require_integral(self.n0, "n0", 0, require_integral(self.n, "n", 1))


@dataclass(frozen=True)
class FiEstimate:
    """Plug-in FI estimate of n shots with an estimate of its variance."""

    value: float
    variance: float
    n: int

    def __post_init__(self) -> None:
        require_real(self.value, "value", 0)
        require_real(self.variance, "variance", 0)


@dataclass(frozen=True)
class CertificationReport:
    """Witness estimate with delta-method error bar and significance, and each
    context's plug-in FI and variance: floats, or columns of the rates' shape.
    The K segments lie on the last axis: f_segments and var_segments are
    read-only (*rates, K) float64 arrays, and v_chain(f_end, f_segments) ==
    v_hat.  A report that holds arrays supports neither == nor hash."""

    v_hat: float | np.ndarray
    se: float | np.ndarray
    z: float | np.ndarray
    f_end: float | np.ndarray
    var_end: float | np.ndarray
    f_segments: np.ndarray
    var_segments: np.ndarray
    mode: str

    @property
    def ci95(self) -> tuple[float, float]:
        return self.v_hat - Z95 * self.se, self.v_hat + Z95 * self.se


def sample_binary(model: BinaryModel, theta: float, n: int, seed: int,
                  *path: int) -> ContextSample:
    """Count the outcome-0 shots among n draws with P(x=0) = p0(theta) from
    stream (seed, 1, *path)."""
    return _sample_contexts(model, [theta], n, seed, [path])[0]


def _sample_contexts(model: BinaryModel, thetas: Sequence[float], n: int,
                     seed: int, paths: Sequence[tuple[int, ...]]
                     ) -> list[ContextSample]:
    """sample_binary at each of thetas on the matching path, evaluating p0
    once on the array of angles."""
    n = require_integral(n, "n", 1, MAX_SHOTS)
    p0 = require_real(model.p0(np.array(thetas, dtype=float)), "p0", 0, 1)
    return [ContextSample(theta=float(theta), n=n, n0=int(np.count_nonzero(
                derive_rng(seed, _TAG_SAMPLE, *path).random(n) < p)))
            for theta, p, path in zip(thetas, p0.tolist(), paths)]


def _plugin(n, n0, scores):
    """Plug-in FI F_hat of each context and its variance estimate Var_hat,
    from the outcome-0 counts n0 (..., C) of n (C,) shots whose outcomes
    score scores = (s0, s1), each (C,)."""
    _require_scores(scores)
    n, n0 = np.asarray(n, dtype=float), np.asarray(n0, dtype=float)
    n1 = n - n0
    # a square past the largest float is inf, as in models.py; v_chain and
    # _require_finite refuse it.  An outcome never seen adds 0, not 0 * inf
    with np.errstate(over="ignore", invalid="ignore"):
        sq0, sq1 = (s * s for s in scores)
        # two-valued data: the sum of squared deviations is n0 n1 (sq0 -
        # sq1)^2 / n, exactly 0 when both outcomes carry the same squared
        # score.  n^2 (n - 1) rounds in float64 like the exact integer while
        # n < 9e7 (and overflows int64); one shot gives 0
        gap = sq0 - sq1
        both = n0 * n1
        return ((np.where(n0 > 0.0, n0 * sq0, 0.0)
                 + np.where(n1 > 0.0, n1 * sq1, 0.0)) / n,
                np.where(both > 0.0, both * gap * gap, 0.0)
                / np.where(n > 1.0, n * n * (n - 1.0), 1.0))


def _require_scores(scores) -> None:
    """Refuse a score (s0, s1) that is not finite: its outcome has p = 0."""
    if not np.isfinite(scores).all():
        x = int(np.isfinite(scores[0]).all())  # the first bad outcome
        raise DegenerateModelError(
            f"outcome {x} has zero probability; score undefined")


def _variance(f, mu4, n):
    """Analytic variance (mu4 - F^2)/n of the n-shot plug-in FI, at least 0:
    mu4 = F^2 where s^2 is outcome-independent, and may round below it.
    NaN where F^2 overflows; _witness refuses such an F, whose F^4 overflows
    too."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.maximum(0.0, (mu4 - f * f) / n)


def _witness(f_hat, f, var):
    """(V_hat, SE, Z) of each row of plug-in FIs f_hat (..., C), context 0
    the endpoint, with SE^2 = sum Var/F^4 over the FIs f and variances var.
    v_chain refuses an f_hat not > 0, and an F whose 1/F^4 or F^4 (an SE of
    0) overflows raises ResistanceOverflowError naming its context."""
    v = v_chain(f_hat[..., 0], f_hat[..., 1:])
    # libm's pow, and below a left-to-right cumsum: numpy's SIMD power and
    # pairwise sum differ in the last bit, and seeded reports are pinned
    with np.errstate(divide="ignore", over="ignore"):
        f4 = np.float_power(f, 4)
        bad = np.flatnonzero(np.isinf(1.0 / f4) | np.isinf(f4))
    if bad.size:
        i, big = bad[0] % f4.shape[-1], f4.flat[bad[0]] > 1.0
        raise ResistanceOverflowError(("F^4" if big else "1/F^4") + (
            " overflows for " + (f"f_segment_{i - 1}" if i else "f_end")))
    se = np.sqrt(np.cumsum(var / f4, axis=-1)[..., -1])
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0.0, -v / se,
                     np.where(v == 0.0, 0.0, np.copysign(np.inf, -v)))
    return v, se, z


def _require_finite(f_hat, var_hat) -> None:
    """Refuse a plug-in FI or variance that overflowed."""
    for name, x in (("FI", f_hat), ("FI variance", var_hat)):
        if not np.isfinite(x).all():
            raise EstimationError(f"plug-in {name} overflows")


def certify_vk(endpoint: ContextSample, segments: Iterable[ContextSample],
               model: BinaryModel,
               se_mode: str = "empirical") -> CertificationReport:
    """Estimate the chain witness from sampled contexts of one model and
    attach a delta-method standard error.

    se_mode selects how per-context estimator variances are computed:
    "empirical" from the samples, "analytic-moment" from the model's exact
    moments at each context angle.  The model is evaluated once, on the
    array of context angles.
    """
    contexts = [endpoint, *segments]
    if len(contexts) == 1:
        raise EstimationError("need at least one segment context")
    if se_mode not in ("empirical", "analytic-moment"):
        raise ValueError(f"unknown se_mode {se_mode!r}")
    s0, s1, f, mu4 = model._moments(np.array([s.theta for s in contexts]))
    n = [s.n for s in contexts]
    f_hat, var_hat = _plugin(n, [s.n0 for s in contexts], (s0, s1))
    if se_mode == "analytic-moment":
        v, se, z = map(float, _witness(f_hat, f, _variance(f, mu4, n)))
    else:
        v, se, z = map(float, _witness(f_hat, f_hat, var_hat))
        if se == 0.0:
            raise EstimationError("empirical SE is 0: significance undefined")
    _require_finite(f_hat, var_hat)
    f_hat.flags.writeable = var_hat.flags.writeable = False
    return CertificationReport(v, se, z, float(f_hat[0]), float(var_hat[0]),
                               f_hat[1:], var_hat[1:], se_mode)


def analytic_certification(model: BinaryModel, t_total: float, k: int,
                           n_per_context) -> CertificationReport:
    """Deterministic delta-method prediction for the equal-partition chain:
    the witness, SE, and Z that an n_per_context-shot experiment is expected
    to produce, computed entirely from analytic moments.  An array-gamma
    NoisyFringeModel, or shot counts broadcasting with its rates, give each
    row's report as an entry of columns."""
    k = _require_chain(k, t_total, "t_total")
    shots = np.asarray(n_per_context)
    for count in dict.fromkeys(shots.ravel().tolist()):
        require_integral(count, "n_per_context", 2)
    # (s0, s1, F, mu4) at both angles; a degenerate protocol, with an
    # outcome of probability 0, would predict a claim that its data refuse
    moments = np.array([model._moments(theta)
                        for theta in (t_total, t_total / k)])
    _require_scores((moments[:, 0], moments[:, 1]))
    shape = np.broadcast(moments[0, 2], shots).shape
    ones = np.ones(shape)
    # F and mu4 of each row of the broadcast shape (x * 1 is x), and then
    # each row's variances: (rows, angles) each
    f, mu4 = (np.moveaxis(moments[:, 2:], (0, 1), (-1, -2))
              * ones[..., None, None]).reshape(-1, 2, 2).transpose(1, 0, 2)
    var = _variance(f, mu4, (shots * ones).reshape(-1, 1))
    columns = np.empty((3, len(f)))  # v, se and z
    # blocks of rows whose chains, C-contiguous and of at most _CHAIN_BLOCK
    # entries, sum and cumsum each row as they would that row alone
    step = max(1, _CHAIN_BLOCK // (k + 1))
    for i in range(0, len(f), step):
        f_rows, var_rows = (x[i:i + step].repeat([1, k], axis=-1)
                            for x in (f, var))
        columns[:, i:i + step] = _witness(f_rows, f_rows, var_rows)
    # one rate gets Python floats, and the K segments view each row's value
    return CertificationReport(
        *(col.reshape(shape) if shape else col.item()
          for col in (*columns, f[:, 0], var[:, 0])),
        *(np.broadcast_to(x[:, 1:].reshape(*shape, 1), (*shape, k))
          for x in (f, var)), "analytic-moment")


def classifier_score(counts_plus: tuple[int, int], counts_minus: tuple[int, int],
                     delta: float, alpha: float = 5.0) -> tuple[float, float]:
    """Smoothed log-ratio score from two-class training counts.

    With n_{+-,x} outcome counts collected at theta +- delta,

        s_hat(x) = (1/2 delta) ln[ ((n_{+,x}+alpha)/(N_+ + 2 alpha))
                                 / ((n_{-,x}+alpha)/(N_- + 2 alpha)) ].
    """
    if not 0.0 < delta < math.inf:
        raise EstimationError(f"delta must be > 0 and finite, got {delta}")
    alpha = require_real(alpha, "alpha", 0)
    counts_plus = [require_integral(c, "counts_plus") for c in counts_plus]
    counts_minus = [require_integral(c, "counts_minus") for c in counts_minus]
    np_, nm = sum(counts_plus), sum(counts_minus)
    if np_ < 1 or nm < 1:
        raise ValueError("each class needs at least one training count")
    scores = []
    for x in (0, 1):
        num = (counts_plus[x] + alpha) / (np_ + 2.0 * alpha)
        den = (counts_minus[x] + alpha) / (nm + 2.0 * alpha)
        if num <= 0.0 or den <= 0.0:
            raise EstimationError(
                "empty training cell with alpha=0; score undefined")
        scores.append(math.log(num / den) / (2.0 * delta))
    if not all(map(math.isfinite, scores)):
        raise EstimationError(f"score overflows at delta = {delta}")
    return scores[0], scores[1]


def classifier_fi(model: BinaryModel, theta: float, delta: float = 0.10,
                  n_train: int = 10 ** 5, n_eval: int = 10 ** 5,
                  alpha: float = 5.0, seed: int = 0) -> FiEstimate:
    """Model-free FI estimate: train the classifier score on samples drawn
    at theta +- delta, then average its square over fresh samples at theta."""
    theta = require_real(theta, "theta")
    delta = require_real(delta, "delta", 0, bounds="(]")
    n_train = require_integral(n_train, "n_train", 1)
    n_eval = require_integral(n_eval, "n_eval", 1)
    rng_p, rng_m, rng_e = (derive_rng(seed, _TAG_CLASSIFIER, j)
                           for j in range(3))

    n1_p = int(rng_p.binomial(n_train, float(model.p1(theta + delta))))
    n1_m = int(rng_m.binomial(n_train, float(model.p1(theta - delta))))
    s0, s1 = classifier_score((n_train - n1_p, n1_p),
                              (n_train - n1_m, n1_m), delta, alpha)
    n1_e = int(rng_e.binomial(n_eval, float(model.p1(theta))))
    f_hat, var_hat = _plugin([n_eval], [n_eval - n1_e], (s0, s1))
    _require_finite(f_hat, var_hat)
    return FiEstimate(float(f_hat[0]), float(var_hat[0]), n_eval)


def _mle_theta(p0_hat, vartheta: float):
    """Invert the ideal fringe p0 = cos^2((theta - vartheta)/2), one-to-one
    on the branch (vartheta, vartheta + pi), at each frequency p0_hat in
    [0, 1].  Frequencies are clamped to [1e-12, 1 - 1e-12]; a frequency of
    0 or 1 sits on the branch boundary, where the estimate is pinned to
    vartheta + pi or vartheta."""
    clamped = np.clip(p0_hat, 1e-12, 1.0 - 1e-12)
    theta_hat = vartheta + 2.0 * np.arccos(np.sqrt(clamped))
    return np.where(p0_hat >= 1.0, vartheta,
                    np.where(p0_hat <= 0.0, vartheta + math.pi, theta_hat))


def mc_rmse(model: BinaryModel, theta_true: float, n: int, reps: int,
            seed: int, *path: int, vartheta: float = 0.0) -> float:
    """Root-mean-square error of the fringe MLE over seeded replications of
    an n-shot experiment at theta_true, drawn from the stream
    (seed, 3, *path).  The MLE inverts z = cos(theta - vartheta) only: a
    model with another fringe is refused."""
    theta_true = require_real(theta_true, "theta_true")
    vartheta = require_real(vartheta, "vartheta")
    n = require_integral(n, "n", 1)
    reps = require_integral(reps, "reps", 1, MAX_REPS)
    grid = np.arange(64) * (2.0 * math.pi / 64)
    if np.max(np.abs(model.z(grid) - np.cos(grid - vartheta))) > 1e-12:
        raise ValueError(f"the MLE inverts z = cos(theta - {vartheta}) only")
    p0 = float(model.p0(theta_true))
    rng = derive_rng(seed, _TAG_RMSE, *path)
    err = _mle_theta(rng.binomial(n, p0, size=reps) / n, vartheta) - theta_true
    # err scaled exactly by 2**-e <= 1/max|err|: its square cannot overflow
    e = max(0, math.frexp(float(np.max(np.abs(err))))[1])
    return math.ldexp(float(np.sqrt(np.mean(np.ldexp(err, -e) ** 2))), e)


def mc_vk_distribution(params: NoisyFringeParams, t_total: float, k: int,
                       n_per_context: int, reps: int, seed: int
                       ) -> tuple[float, tuple[float, float]]:
    """Sampling distribution of the chain witness estimate.

    Runs `reps` independent equal-partition experiments with n_per_context
    shots in each of the 1 + k contexts (one derived stream per context) and
    returns the mean and the empirical 2.5%/97.5% quantiles of V_hat.
    A zero plug-in FI estimate in any replication raises
    NonPositiveFiError, as in certify_vk.
    """
    k = _require_chain(k, t_total, "t_total")
    n_per_context = require_integral(n_per_context, "n_per_context", 1)
    reps = require_integral(reps, "reps", 1, MAX_REPS)
    require_integral(reps * (k + 1), "reps * (k + 1)", hi=MAX_SHOTS)
    model = NoisyFringeModel(params)
    # the model on the K + 1 context angles; context j draws from its own
    # stream (seed, 4, j)
    thetas = np.repeat([t_total, t_total / k], [1, k])
    s0, s1 = model._moments(thetas)[:2]
    n0 = np.column_stack([
        derive_rng(seed, _TAG_VK, j).binomial(n_per_context, p, size=reps)
        for j, p in enumerate(model.p0(thetas).tolist())])
    f_hat = _plugin(np.full(k + 1, n_per_context), n0, (s0, s1))[0]
    v = v_chain(f_hat[:, 0], f_hat[:, 1:])
    lo, hi = np.quantile(v, [0.025, 0.975])
    return float(v.mean()), (float(lo), float(hi))
