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
from .models import BinaryModel, NoisyFringeModel, NoisyFringeParams
from .rng import derive_rng, require_integral
from .witness import _require_chain, v_chain

Z95 = 1.959964

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
        if not (require_integral(self.n, "n") >= 1
                and 0 <= require_integral(self.n0, "n0") <= self.n):
            raise ValueError("need n >= 1 and 0 <= n0 <= n, got "
                             f"n = {self.n}, n0 = {self.n0}")


@dataclass(frozen=True)
class FiEstimate:
    """Plug-in FI estimate with an estimate of its own variance."""

    value: float
    variance: float
    n: int
    degenerate: bool = False

    def __post_init__(self) -> None:
        if self.variance < 0.0:
            raise ValueError("variance must be >= 0")


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
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    p0 = float(model.p0(theta))
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"p0 must lie in [0, 1], got {p0}")
    rng = derive_rng(seed, _TAG_SAMPLE, *path)
    n0 = int(np.count_nonzero(rng.random(n) < p0))
    return ContextSample(theta=float(theta), n=n, n0=n0)


def _score_mean(n0, n: int, s0: float, s1: float):
    """Mean squared score over n0 zeros and n - n0 ones; n0 may be an
    array of counts."""
    return (n0 * (s0 * s0) + (n - n0) * (s1 * s1)) / n


def _plugin_estimate(n0: int, n: int, s0: float, s1: float) -> FiEstimate:
    """plugin_fi from n0 zeros among n outcomes with scores s0 and s1."""
    value = float(_score_mean(n0, n, s0, s1))
    if n == 1:
        return FiEstimate(value=value, variance=0.0, n=1, degenerate=True)
    # two-valued data: sum of squared deviations = n0 n1 (sq0 - sq1)^2 / n,
    # exactly zero when both outcomes carry the same squared score
    gap = s0 * s0 - s1 * s1
    return FiEstimate(value=value, n=n,
                      variance=n0 * (n - n0) * gap * gap / (n * n * (n - 1)))


def plugin_fi(sample: ContextSample, model: BinaryModel) -> FiEstimate:
    """Average squared score over the sample, with the sample variance of
    the squared scores divided by n as the variance estimate.

    A single-shot sample cannot estimate a variance; it reports 0 with the
    degenerate flag set.
    """
    return _plugin_estimate(sample.n0, sample.n,
                            *_scores(model, sample.theta))


def _scores(model: BinaryModel, theta: float) -> tuple[float, float]:
    """The scores (s0, s1) of the two outcomes at theta."""
    return float(model.score(0, theta)), float(model.score(1, theta))


def analytic_mu4(model: BinaryModel, theta: float) -> float:
    """Fourth moment of the score, sum_x p_x s_x^4."""
    zd = float(model.zdot(theta))
    if zd == 0.0:
        return 0.0
    p0 = float(model.p0(theta))
    p1 = float(model.p1(theta))
    if p0 <= 0.0 or p1 <= 0.0:
        raise DegenerateModelError("mu4 undefined at a degenerate point")
    s0, s1 = _scores(model, theta)
    return p0 * s0 ** 4 + p1 * s1 ** 4


def fi_estimate_variance(model: BinaryModel, theta: float, n: int) -> float:
    """Analytic variance (mu4 - F^2)/n of the n-shot plug-in FI estimator."""
    return _fi_moments(model, theta, n)[1]


def _fi_moments(model: BinaryModel, theta: float,
                n: int) -> tuple[float, float]:
    """F at theta and the analytic variance (mu4 - F^2)/n of its n-shot
    plug-in estimator.  mu4 >= F^2 (Jensen), with equality where the squared
    score is outcome-independent; the subtraction can round below 0 there,
    so it is clamped at 0."""
    f = float(model.fi(theta))
    return f, max(0.0, (analytic_mu4(model, theta) - f * f) / n)


def certify_vk(endpoint: ContextSample, segments: Sequence[ContextSample],
               model: BinaryModel,
               se_mode: str = "empirical") -> CertificationReport:
    """Estimate the chain witness from sampled contexts of one model and
    attach a delta-method standard error.

    se_mode selects how per-context estimator variances are computed:
    "empirical" from the samples, "analytic-moment" from the model's exact
    moments at each context angle.  The model is evaluated once per
    distinct angle (and shot count), however many contexts share it.
    """
    if len(segments) == 0:
        raise EstimationError("need at least one segment context")
    if se_mode not in ("empirical", "analytic-moment"):
        raise ValueError(f"unknown se_mode {se_mode!r}")
    contexts = [endpoint, *segments]
    scores = {theta: _scores(model, theta)
              for theta in {s.theta for s in contexts}}
    estimates = [_plugin_estimate(s.n0, s.n, *scores[s.theta])
                 for s in contexts]
    if any(e.value <= 0.0 for e in estimates):
        raise EstimationError("zero plug-in FI estimate; witness undefined")

    if se_mode == "empirical":
        moments = [(e.value, e.variance) for e in estimates]
    else:
        analytic = {key: _fi_moments(model, *key)
                    for key in {(s.theta, s.n) for s in contexts}}
        moments = [analytic[s.theta, s.n] for s in contexts]
    return _report(estimates, moments, se_mode)


def analytic_certification(model: BinaryModel, t_total: float, k: int,
                           n_per_context: int) -> CertificationReport:
    """Deterministic delta-method prediction for the equal-partition chain:
    the witness, SE, and Z that an n_per_context-shot experiment is expected
    to produce, computed entirely from analytic moments."""
    k = _require_chain(k, t_total, "t_total")
    if n_per_context < 2:
        raise ValueError("need n_per_context >= 2")
    endpoint, segment = [
        FiEstimate(*_fi_moments(model, theta, n_per_context), n=n_per_context)
        for theta in (t_total, t_total / k)]
    estimates = [endpoint] + [segment] * k
    return _report(estimates, [(e.value, e.variance) for e in estimates],
                   "analytic-moment")


def _report(estimates: Sequence[FiEstimate],
            moments: Sequence[tuple[float, float]],
            mode: str) -> CertificationReport:
    """Witness from the estimates; delta-method SE^2 = sum Var/F^4 over the
    (F, Var) moments of the same contexts."""
    v = v_chain(estimates[0].value, [e.value for e in estimates[1:]])
    se = math.sqrt(sum(var / f ** 4 for f, var in moments))
    if se > 0.0:
        z = -v / se
    else:
        z = 0.0 if v == 0.0 else math.copysign(math.inf, -v)
    return CertificationReport(v_hat=v, se=se, z=z,
                               ci95=(v - Z95 * se, v + Z95 * se),
                               estimates=tuple(estimates), mode=mode)


def classifier_score(counts_plus: tuple[int, int], counts_minus: tuple[int, int],
                     delta: float, alpha: float = 5.0) -> tuple[float, float]:
    """Smoothed log-ratio score from two-class training counts.

    With n_{+-,x} outcome counts collected at theta +- delta,

        s_hat(x) = (1/2 delta) ln[ ((n_{+,x}+alpha)/(N_+ + 2 alpha))
                                 / ((n_{-,x}+alpha)/(N_- + 2 alpha)) ].
    """
    if delta <= 0.0:
        raise EstimationError(f"delta must be > 0, got {delta}")
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
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
    if n_train < 1 or n_eval < 1:
        raise ValueError("n_train and n_eval must be >= 1")
    rng_p = derive_rng(seed, _TAG_CLASSIFIER, 0)
    rng_m = derive_rng(seed, _TAG_CLASSIFIER, 1)
    rng_e = derive_rng(seed, _TAG_CLASSIFIER, 2)

    n1_p = int(rng_p.binomial(n_train, float(model.p1(theta + delta))))
    n1_m = int(rng_m.binomial(n_train, float(model.p1(theta - delta))))
    s0, s1 = classifier_score((n_train - n1_p, n1_p),
                              (n_train - n1_m, n1_m), delta, alpha)

    n1_e = int(rng_e.binomial(n_eval, float(model.p1(theta))))
    return _plugin_estimate(n_eval - n1_e, n_eval, s0, s1)


def mle_theta(p0_hat: float, vartheta: float = 0.0) -> float:
    """Invert the ideal fringe p0 = cos^2((theta - vartheta)/2), one-to-one
    on the branch (vartheta, vartheta + pi).  Frequencies are clamped to
    [1e-12, 1 - 1e-12]; a frequency of 0 or 1 sits on the branch boundary,
    where the estimate is pinned to vartheta + pi or vartheta with a
    warning."""
    if not 0.0 <= p0_hat <= 1.0:
        raise ValueError(f"p0_hat must lie in [0, 1], got {p0_hat}")
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
    if n < 1 or reps < 1:
        raise ValueError("n and reps must be >= 1")
    grid = np.arange(64) * (2.0 * math.pi / 64)
    if np.max(np.abs(model.z(grid) - np.cos(grid - vartheta))) > 1e-12:
        raise ValueError(f"the MLE inverts z = cos(theta - {vartheta}) only")
    p0 = float(model.p0(theta_true))
    rng = derive_rng(seed, _TAG_RMSE, *path)
    theta_hat = _mle_theta(rng.binomial(n, p0, size=reps) / n, vartheta)
    return float(np.sqrt(np.mean((theta_hat - theta_true) ** 2)))


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
    if n_per_context < 1 or reps < 1:
        raise ValueError("n_per_context and reps must be >= 1")
    model = NoisyFringeModel(params)

    def context(theta: float) -> tuple[float, float, float]:
        return (float(model.p0(theta)), *_scores(model, theta))

    def fhat(stream: int, p0: float, s0: float, s1: float) -> np.ndarray:
        rng = derive_rng(seed, _TAG_VK, stream)
        n0 = rng.binomial(n_per_context, p0, size=reps)
        return _score_mean(n0, n_per_context, s0, s1)

    # the k segments share one angle: its moments are computed once, while
    # each segment keeps its own stream (seed, 4, 1 + j)
    segment = context(t_total / k)
    f_end = fhat(0, *context(t_total))
    f_seg = np.column_stack([fhat(1 + j, *segment) for j in range(k)])
    if not ((f_end > 0.0).all() and (f_seg > 0.0).all()):
        raise EstimationError("zero plug-in FI estimate; witness undefined")
    v = v_chain(f_end, f_seg)
    lo, hi = np.quantile(v, [0.025, 0.975])
    return float(v.mean()), (float(lo), float(hi))
