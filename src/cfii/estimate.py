"""Finite-shot estimation and certification of the chain witness.

The plug-in Fisher information estimator averages squared model scores over a
sample, F_hat = (1/n) sum_i s(x_i)^2, and its variance comes from the sample
variance of the squared scores.  The chain witness estimate

    V_hat = 1/F_hat(end) - sum_j 1/F_hat(segment j)

gets a delta-method standard error SE^2 = sum_s Var(F_hat_s)/F_s^4, either
with empirical moments ("empirical" mode) or with the analytic fourth moment
mu4 = sum_x p_x s_x^4 ("analytic-moment" mode).  Z = -V_hat/SE measures how
many standard errors the witness sits below the classical boundary.

Also here: the smoothed two-class classifier score (a finite-difference
log-likelihood-ratio estimate), a closed-form MLE for the binary fringe, and
seeded Monte-Carlo experiments for RMSE achievability and the sampling
distribution of V_hat.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BranchWarning, DegenerateModelError, EstimationError
from .models import BinaryModel, NoisyFringeModel, NoisyFringeParams, _score
from .rng import derive_rng, require_integral, require_real
from .witness import _require_chain, v_chain

Z95 = 1.959964

# Most draws in one array (a sampled context's shots, mc_vk_distribution's
# count table), and most replications of a Monte Carlo run.
MAX_SHOTS = 10 ** 7
MAX_REPS = 10 ** 6

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
    """Plug-in FI estimate with an estimate of its own variance."""

    value: float
    variance: float
    n: int
    degenerate: bool = False

    def __post_init__(self) -> None:
        require_real(self.value, "value", 0)
        require_real(self.variance, "variance", 0)


@dataclass(frozen=True)
class CertificationReport:
    """Witness estimate with delta-method error bar and significance."""

    v_hat: float
    se: float
    z: float
    ci95: tuple[float, float]
    estimates: tuple[FiEstimate, ...]
    mode: str


def sample_binary(model: BinaryModel, theta: float, n: int, seed: int,
                  *path: int) -> ContextSample:
    """Count the outcome-0 shots among n draws with P(x=0) = p0(theta) from
    stream (seed, 1, *path)."""
    return _sample_contexts(model, [theta], n, seed, [path])[0]


def _sample_contexts(model: BinaryModel, thetas: Sequence[float], n: int,
                     seed: int, paths: Sequence[tuple[int, ...]]
                     ) -> list[ContextSample]:
    """sample_binary at each of thetas on the matching path, evaluating p0
    once per distinct angle."""
    n = require_integral(n, "n", 1, MAX_SHOTS)
    p0 = {theta: require_real(float(model.p0(theta)), "p0", 0, 1)
          for theta in set(thetas)}
    return [ContextSample(theta=float(theta), n=n, n0=int(np.count_nonzero(
                derive_rng(seed, _TAG_SAMPLE, *path).random(n) < p0[theta])))
            for theta, path in zip(thetas, paths)]


def _certify(n, n0=None, scores=None, moments=None):
    """The certification core over leading axes of replicated experiments.

    Each row of the outcome-0 counts n0 (..., C) is one experiment on C
    contexts with n (C,) shots, whose outcomes score scores = (s0, s1), each
    (C,).  Returns the plug-in FI F_hat of each context with its variance
    Var_hat, and, for C >= 2, the (V_hat, SE, Z) of each row, context 0
    being the endpoint; SE^2 = sum Var / F^4 takes the analytic moments
    (F, Var), each (C,), when given, and a zero F_hat raises
    EstimationError.  Without counts the moments are F_hat and Var_hat: the
    report the analytic certification expects.
    """
    if n0 is None:
        f_hat, var_hat = moments
    else:
        n, n0 = np.asarray(n, dtype=float), np.asarray(n0, dtype=float)
        n1 = n - n0
        sq0, sq1 = (s * s for s in scores)
        f_hat = (n0 * sq0 + n1 * sq1) / n
        # two-valued data: the sum of squared deviations is
        # n0 n1 (sq0 - sq1)^2 / n, exactly 0 when both outcomes carry the
        # same squared score.  n^2 (n - 1) rounds in float64 like the exact
        # integer while n < 9e7 (and overflows int64); one shot gives 0
        gap = sq0 - sq1
        var_hat = n0 * n1 * gap * gap / np.where(
            n > 1.0, n * n * (n - 1.0), 1.0)
    if f_hat.shape[-1] < 2:
        return f_hat, var_hat, None
    if n0 is not None and not (f_hat > 0.0).all():
        raise EstimationError("zero plug-in FI estimate; witness undefined")
    f, var = (f_hat, var_hat) if moments is None else moments
    v = v_chain(f_hat[..., 0], f_hat[..., 1:])
    # left to right and with libm's pow: numpy's pairwise sum and its SIMD
    # power differ in the last bit, and seeded reports are pinned to these
    se = np.sqrt(np.cumsum(var / np.float_power(f, 4), axis=-1)[..., -1])
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0.0, -v / se,
                     np.where(v == 0.0, 0.0, np.copysign(np.inf, -v)))
    return f_hat, var_hat, (v, se, z)


def _estimates(n, f_hat, var_hat) -> tuple[FiEstimate, ...]:
    """FiEstimate of each context of one experiment; equal estimates share
    one object, so a long chain holds few."""
    keys = list(zip(f_hat.tolist(), var_hat.tolist(), n))
    made = {key: FiEstimate(*key, degenerate=key[2] == 1)
            for key in dict.fromkeys(keys)}
    return tuple(made[key] for key in keys)


def _report(n, f_hat, var_hat, witness, mode: str) -> CertificationReport:
    """The report of one experiment from its _certify results."""
    v, se, z = (float(x) for x in witness)
    return CertificationReport(v_hat=v, se=se, z=z,
                               ci95=(v - Z95 * se, v + Z95 * se),
                               estimates=_estimates(n, f_hat, var_hat),
                               mode=mode)


def plugin_fi(sample: ContextSample, model: BinaryModel) -> FiEstimate:
    """Average squared score over the sample, with the sample variance of
    the squared scores divided by n as the variance estimate.

    A single-shot sample cannot estimate a variance; it reports 0 with the
    degenerate flag set.
    """
    n, scores = [sample.n], _scores(*_fringe(model, sample.theta))
    return _estimates(n, *_certify(n, [sample.n0], scores)[:2])[0]


def _fringe(model: BinaryModel, theta: float) -> tuple[float, float]:
    """z and zdot at theta: the one model evaluation per angle here."""
    return float(model.z(theta)), float(model.zdot(theta))


def _scores(z: float, zd: float) -> tuple[float, float]:
    """The scores (s0, s1) at the fringe point (z, zdot)."""
    return _score(0, z, zd), _score(1, z, zd)


def analytic_mu4(model: BinaryModel, theta: float) -> float:
    """Fourth moment of the score, sum_x p_x s_x^4."""
    return _mu4(*_fringe(model, require_real(theta, "theta")))


def _mu4(z: float, zd: float) -> float:
    """analytic_mu4 at the fringe point (z, zdot)."""
    if zd == 0.0:
        return 0.0
    p0, p1 = 0.5 * (1.0 + z), 0.5 * (1.0 - z)
    if p0 <= 0.0 or p1 <= 0.0:
        raise DegenerateModelError("mu4 undefined at a degenerate point")
    s0, s1 = _scores(z, zd)
    return p0 * s0 ** 4 + p1 * s1 ** 4


def fi_estimate_variance(model: BinaryModel, theta: float, n: int) -> float:
    """Analytic variance (mu4 - F^2)/n of the n-shot plug-in FI estimator."""
    theta = require_real(theta, "theta")
    n = require_integral(n, "n", 1)
    return _moments(model, theta, *_fringe(model, theta), n)[1]


def _moments(model: BinaryModel, theta: float, z: float, zd: float,
             n: int) -> tuple[float, float]:
    """F at theta and the analytic variance (mu4 - F^2)/n of its n-shot
    plug-in estimator, from z and zdot there.  mu4 >= F^2 (Jensen), with
    equality where the squared score is outcome-independent; the
    subtraction can round below 0 there, so it is clamped at 0."""
    f = float(model._fi(theta, z, zd))
    return f, max(0.0, (_mu4(z, zd) - f * f) / n)


def certify_vk(endpoint: ContextSample, segments: Sequence[ContextSample],
               model: BinaryModel,
               se_mode: str = "empirical") -> CertificationReport:
    """Estimate the chain witness from sampled contexts of one model and
    attach a delta-method standard error.

    se_mode selects how per-context estimator variances are computed:
    "empirical" from the samples, "analytic-moment" from the model's exact
    moments at each context angle.  The model is evaluated once per
    distinct angle, however many contexts share it.
    """
    if len(segments) == 0:
        raise EstimationError("need at least one segment context")
    if se_mode not in ("empirical", "analytic-moment"):
        raise ValueError(f"unknown se_mode {se_mode!r}")
    contexts = [endpoint, *segments]
    fringe = {theta: _fringe(model, theta)
              for theta in {s.theta for s in contexts}}
    scores = {theta: _scores(*point) for theta, point in fringe.items()}
    moments = None
    if se_mode == "analytic-moment":
        by_context = {(theta, n): _moments(model, theta, *fringe[theta], n)
                      for theta, n in {(s.theta, s.n) for s in contexts}}
        moments = np.array([by_context[s.theta, s.n] for s in contexts]).T
    n = [s.n for s in contexts]
    report = _report(n, *_certify(
        n, [s.n0 for s in contexts],
        np.array([scores[s.theta] for s in contexts]).T, moments), se_mode)
    if se_mode == "empirical" and report.se == 0.0:
        raise EstimationError("empirical SE is 0: significance undefined")
    return report


def analytic_certification(model: BinaryModel, t_total: float, k: int,
                           n_per_context: int) -> CertificationReport:
    """Deterministic delta-method prediction for the equal-partition chain:
    the witness, SE, and Z that an n_per_context-shot experiment is expected
    to produce, computed entirely from analytic moments."""
    k = _require_chain(k, t_total, "t_total")
    n_per_context = require_integral(n_per_context, "n_per_context", 2)
    moments = np.repeat([
        _moments(model, theta, *_fringe(model, theta), n_per_context)
        for theta in (t_total, t_total / k)], [1, k], axis=0).T
    n = [n_per_context] * (k + 1)
    return _report(n, *_certify(n, moments=moments), "analytic-moment")


def classifier_score(counts_plus: tuple[int, int], counts_minus: tuple[int, int],
                     delta: float, alpha: float = 5.0) -> tuple[float, float]:
    """Smoothed log-ratio score from two-class training counts.

    With n_{+-,x} outcome counts collected at theta +- delta,

        s_hat(x) = (1/2 delta) ln[ ((n_{+,x}+alpha)/(N_+ + 2 alpha))
                                 / ((n_{-,x}+alpha)/(N_- + 2 alpha)) ].
    """
    if not delta > 0.0:
        raise EstimationError(f"delta must be > 0, got {delta}")
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
    rng_p = derive_rng(seed, _TAG_CLASSIFIER, 0)
    rng_m = derive_rng(seed, _TAG_CLASSIFIER, 1)
    rng_e = derive_rng(seed, _TAG_CLASSIFIER, 2)

    n1_p = int(rng_p.binomial(n_train, float(model.p1(theta + delta))))
    n1_m = int(rng_m.binomial(n_train, float(model.p1(theta - delta))))
    s0, s1 = classifier_score((n_train - n1_p, n1_p),
                              (n_train - n1_m, n1_m), delta, alpha)

    n1_e = int(rng_e.binomial(n_eval, float(model.p1(theta))))
    n = [n_eval]
    return _estimates(n, *_certify(n, [n_eval - n1_e], (s0, s1))[:2])[0]


def mle_theta(p0_hat: float, vartheta: float = 0.0) -> float:
    """Invert the ideal fringe p0 = cos^2((theta - vartheta)/2), one-to-one
    on the branch (vartheta, vartheta + pi).  Frequencies are clamped to
    [1e-12, 1 - 1e-12]; a frequency of 0 or 1 sits on the branch boundary,
    where the estimate is pinned to vartheta + pi or vartheta with a
    warning."""
    p0_hat = require_real(p0_hat, "p0_hat", 0, 1)
    vartheta = require_real(vartheta, "vartheta")
    if p0_hat <= 0.0 or p0_hat >= 1.0:
        warnings.warn("frequency on the branch boundary; estimate pinned",
                      BranchWarning, stacklevel=2)
    return float(_mle_theta(p0_hat, vartheta))


def _mle_theta(p0_hat, vartheta: float):
    """Array core of mle_theta: clamp, invert, and pin the branch ends."""
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
    A zero plug-in FI estimate in any replication raises EstimationError,
    as in certify_vk.
    """
    k = _require_chain(k, t_total, "t_total")
    n_per_context = require_integral(n_per_context, "n_per_context", 1)
    reps = require_integral(reps, "reps", 1, MAX_REPS)
    require_integral(reps * (k + 1), "reps * (k + 1)", hi=MAX_SHOTS)
    model = NoisyFringeModel(params)
    # one model evaluation per angle, the k segments sharing theirs, while
    # each context j keeps its own stream (seed, 4, j)
    segment, end = [(0.5 * (1.0 + z), *_scores(z, zd)) for z, zd in
                    (_fringe(model, theta) for theta in (t_total / k, t_total))]
    p0, s0, s1 = np.array([end] + [segment] * k).T
    n0 = np.column_stack([
        derive_rng(seed, _TAG_VK, j).binomial(n_per_context, p, size=reps)
        for j, p in enumerate(p0.tolist())])
    v = _certify(np.full(k + 1, n_per_context), n0, (s0, s1))[2][0]
    lo, hi = np.quantile(v, [0.025, 0.975])
    return float(v.mean()), (float(lo), float(hi))
