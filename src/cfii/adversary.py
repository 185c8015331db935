"""Differentiable modular adversary against the path witness frontier.

The adversary builds a classical two-module causal path c -> b out of softmax
tangent kernels

    alpha(c) = softmax(a)_c,            alpha_dot_c = alpha_c (a_dot_c - <a_dot>),
    beta(b|c) = softmax(d_c.)_b,        beta_dot_cb = beta_cb (d_dot_cb - <d_dot>_c),

and tries to maximize the saturation ratio

    Gamma_adv = F_B^(u) / (1/F_ac + 1/F_cb)^(-1),   u = (1, 1),

where F_ac and F_cb are the local module Fisher informations and F_B is the
2x2 endpoint Fisher matrix of p_b = sum_c alpha_c beta_cb with respect to the
two module parameters.  The series law caps Gamma_adv at 1 for every modular
parameterization; gradient ascent with random restarts probes how tightly the
bound can be approached.

Gamma_adv, its gradient and the optimizer share one batched evaluation
(`_forward`, one row per parameter point), and the gradient is computed
analytically by reverse-mode composition through the softmax-tangent,
module-FI, endpoint-FIM, and pseudoinverse stages (`_backward`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateBenchmarkError, OptimizationError,
                     ResistanceOverflowError)
from .fim import PINV_RCOND, ROWSPACE_TOL
from .rng import derive_rng, require_integral, require_real

# Module FIs below this make the harmonic benchmark degenerate.
FI_FLOOR = 1e-14

# Most parameters, n_restarts * (2L + 2LM), of one optimizer batch.
MAX_BATCH_PARAMS = 10 ** 6

# Largest Adam learning rate: a step moves a logit by at most about 3 lr.
MAX_LR = 1e3

_NORM_U = float(np.linalg.norm(np.ones(2)))  # |u| for u = (1, 1)
_TAG_RESTART = 5


@dataclass(frozen=True)
class AdversaryParams:
    """Logits and logit-derivatives of the two softmax tangent kernels,
    kept as read-only copies of the arrays given."""

    a: np.ndarray
    a_dot: np.ndarray
    d: np.ndarray
    d_dot: np.ndarray

    def __post_init__(self) -> None:
        for name in ("a", "a_dot", "d", "d_dot"):
            values = np.array(require_real(getattr(self, name), name))
            values.flags.writeable = False  # the checks below hold for good
            object.__setattr__(self, name, values)
        shape_a, shape_d = np.shape(self.a), np.shape(self.d)
        if len(shape_a) != 1 or np.shape(self.a_dot) != shape_a:
            raise ValueError("a and a_dot must be 1-D arrays of equal length")
        if (len(shape_d) != 2 or np.shape(self.d_dot) != shape_d
                or shape_d[0] != shape_a[0]):
            raise ValueError("d and d_dot must be L x M arrays")
        if shape_a[0] < 1 or shape_d[1] < 2:
            raise ValueError("need L >= 1 mediator values and M >= 2 outcomes")

    @property
    def l(self) -> int:
        return self.a.size

    @property
    def m(self) -> int:
        return self.d.shape[1]


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of Adam ascent with restarts."""

    best_gamma: float
    restart_gammas: tuple[float, ...]


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _unpack(theta: np.ndarray, l: int, m: int):
    """Views (a, a_dot, d, d_dot) of a (B, 2L + 2LM) batch of parameters."""
    b = theta.shape[0]
    return (theta[:, :l], theta[:, l:2 * l],
            theta[:, 2 * l:2 * l + l * m].reshape(b, l, m),
            theta[:, 2 * l + l * m:].reshape(b, l, m))


def _forward(theta: np.ndarray, l: int, m: int):
    """Objective of the optimizer on a batch, one row of theta per restart.

    Returns (gamma, degenerate, ctx).  A row whose module FI is below
    FI_FLOOR, or whose direction u leaves the endpoint row space (the blind
    m = 2 endpoint), gets gamma = 0 and a zero gradient.  Every other row
    is effective_fi(F_B, u) * (1/F_ac + 1/F_cb), with the eigendecomposition
    pseudoinverse and cutoff constants of `effective_fi`.
    Rows never mix, so a row's value does not depend on the batch.
    """
    b = theta.shape[0]
    a, a_dot, d, d_dot = _unpack(theta, l, m)
    alpha = _softmax(a)
    ra = a_dot - (alpha * a_dot).sum(-1, keepdims=True)
    beta = _softmax(d)
    rb = d_dot - (beta * d_dot).sum(-1, keepdims=True)
    f_ac = (alpha * ra ** 2).sum(-1)
    g_rows = (beta * rb ** 2).sum(-1)
    f_cb = (alpha * g_rows).sum(-1)
    degenerate = np.minimum(f_ac, f_cb) < FI_FLOOR

    # three channels up[k] @ down[k]: v1 = alpha_dot @ beta,
    # v2 = alpha @ beta_dot and p = alpha @ beta
    up = np.concatenate((alpha * ra, alpha, alpha), axis=1).reshape(b, 3, 1, l)
    down = np.concatenate((beta, beta * rb, beta), axis=1).reshape(b, 3, l, m)
    vp = (up @ down)[:, :, 0]
    v, p = vp[:, :2], vp[:, 2]
    live_p = p > 1e-300
    wv = v * (live_p / np.maximum(p, 1e-300))[:, None]
    # F_B = sum v v^T / p over live outcomes; eigh reads its lower triangle
    w, vecs = np.linalg.eigh(wv @ v.swapaxes(1, 2))
    live = w > PINV_RCOND * np.maximum(w[:, -1:], 0.0)  # w is ascending
    coords = vecs.sum(axis=1)  # vecs^T u for u = (1, 1)
    lost = np.sqrt(((coords * ~live) ** 2).sum(-1)) > ROWSPACE_TOL * _NORM_U
    ok = ~(degenerate | lost)
    cw = coords / np.where(live, w, np.inf)
    inv_res = 1.0 / np.where(ok, (coords * cw).sum(-1), np.inf)
    f_ac = np.maximum(f_ac, FI_FLOOR)
    f_cb = np.maximum(f_cb, FI_FLOOR)
    harmonic_res = 1.0 / f_ac + 1.0 / f_cb
    q = (vecs @ cw[..., None])[..., 0]
    return inv_res * harmonic_res, degenerate, (
        alpha, ra, beta, rb, g_rows, f_ac, f_cb, up, down, wv, q, inv_res,
        harmonic_res, ok)


def _backward(ctx) -> np.ndarray:
    """Reverse-mode gradient of the batched objective, shape (B, n_par)."""
    (alpha, ra, beta, rb, g_rows, f_ac, f_cb, up, down, wv, q, inv_res,
     harmonic_res, ok) = ctx
    b = beta.shape[0]
    # Gamma = harmonic_res / resistance and dresistance/dF_B = -q q^T, so
    # with s = harmonic_res / resistance^2 and z = q . v / p the endpoint
    # terms are dGamma/d(v1, v2) = 2 s q z and dGamma/dp = -s z^2
    s = harmonic_res * inv_res ** 2
    z = (q[:, None] @ wv)[:, 0]
    sz = s[:, None] * z
    g_vp = np.concatenate((2.0 * q[:, :, None] * sz[:, None], -(sz * z)[:, None]),
                          axis=1)
    g_up = (down @ g_vp[..., None])[..., 0]
    g_down = up.swapaxes(2, 3) * g_vp[:, :, None]
    g_fac = (-inv_res / f_ac ** 2)[:, None]
    g_fcb = (-inv_res / f_cb ** 2)[:, None]

    # accumulate into kernel space: F_ac = sum alpha ra^2 has
    # dF/dalpha = -ra^2 and dF/dalpha_dot = 2 ra in (alpha, alpha_dot) terms
    g_alpha = g_up[:, 1] + g_up[:, 2] + g_fcb * g_rows - g_fac * ra ** 2
    g_alpha_dot = g_up[:, 0] + 2.0 * g_fac * ra
    t = g_fcb[..., None] * alpha[..., None] * rb
    g_beta = g_down[:, 0] + g_down[:, 2] - t * rb
    g_beta_dot = g_down[:, 1] + 2.0 * t

    def through_softmax(prob, r, g_prob, g_t):
        # backward of prob = softmax(x), tang = prob * r, r = xdot - <xdot>
        mean = ((g_prob + g_t * r) * prob).sum(-1, keepdims=True)
        g_t = g_t - (g_t * prob).sum(-1, keepdims=True)
        return prob * (g_prob - mean) + prob * r * g_t, prob * g_t

    ga, ga_dot = through_softmax(alpha, ra, g_alpha, g_alpha_dot)
    gd, gd_dot = through_softmax(beta, rb, g_beta, g_beta_dot)
    grad = np.concatenate((ga, ga_dot, gd.reshape(b, -1),
                           gd_dot.reshape(b, -1)), axis=1)
    grad[~ok] = 0.0  # exact zeros, whatever the row's intermediates hold
    return grad


def _forward_one(params: AdversaryParams, power: int = 1):
    """`_forward` on the single row of `params`.  Raises where a module FI,
    or at power 2 its square (which `_backward` takes), overflows, where the
    arithmetic would give a wrong value or NaN, and where a module FI is
    below FI_FLOOR, where the harmonic benchmark is degenerate."""
    theta = np.concatenate((params.a, params.a_dot, params.d.ravel(),
                            params.d_dot.ravel()))[None]
    with np.errstate(over="ignore", invalid="ignore"):
        gamma, degenerate, ctx = _forward(theta, params.l, params.m)
        for name, f in (("F_ac", ctx[5][0]), ("F_cb", ctx[6][0])):
            if not np.isfinite(f ** power):
                raise ResistanceOverflowError(name + "^2" * (power - 1)
                                              + " overflows")
    if degenerate[0]:
        raise DegenerateBenchmarkError(
            f"module FI vanished (below FI_FLOOR = {FI_FLOOR})")
    return float(gamma[0]), ctx


def gamma_adv(params: AdversaryParams) -> float:
    """Saturation ratio of the adversary; always <= 1 (series law)."""
    return _forward_one(params)[0]


def gamma_adv_gradient(params: AdversaryParams
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradient of Gamma_adv with respect to (a, a_dot, d, d_dot)."""
    _, ctx = _forward_one(params, power=2)
    return tuple(g[0] for g in _unpack(_backward(ctx), params.l, params.m))


def optimize_restarts(l: int, m: int, n_restarts: int = 36, steps: int = 2000,
                      lr: float = 0.05, seed: int = 0) -> OptimizeResult:
    """Adam ascent on Gamma_adv from independent standard-normal
    initializations, one derived RNG stream per restart.

    All restarts advance together as the rows of one batch; a restart's
    values do not depend on how many others share it.  Each restart reports
    the best objective it ever evaluated.
    """
    l, m = require_integral(l, "l", 2), require_integral(m, "m", 2)
    n_restarts = require_integral(n_restarts, "n_restarts", 1)
    steps = require_integral(steps, "steps")
    n_par = 2 * l + 2 * l * m
    require_integral(n_restarts * n_par, "n_restarts * (2 l + 2 l m)",
                     hi=MAX_BATCH_PARAMS)
    lr = require_real(lr, "lr", 0, MAX_LR, "(]")

    rngs = [derive_rng(seed, _TAG_RESTART, r) for r in range(n_restarts)]
    theta = np.empty((n_restarts, n_par))
    redraw = range(n_restarts)
    for _ in range(100):
        for r in redraw:
            theta[r] = rngs[r].normal(size=n_par)
        redraw = np.flatnonzero(_forward(theta, l, m)[1])
        if redraw.size == 0:
            break
    else:
        raise OptimizationError("could not draw a nondegenerate initialization")

    m1 = np.zeros_like(theta)
    m2 = np.zeros_like(theta)
    best = np.full(n_restarts, -np.inf)
    for t in range(1, steps + 2):
        gamma, _, ctx = _forward(theta, l, m)
        np.maximum(best, gamma, out=best)
        if t > steps:  # the final iterate is evaluated, not stepped
            break
        grad = _backward(ctx)
        if not (grad.any() or m1.any()):
            # each later Adam step is 0 (an all-blind batch): theta repeats
            break
        m1 = 0.9 * m1 + 0.1 * grad
        m2 = 0.999 * m2 + 0.001 * grad ** 2
        step = (m1 / (1.0 - 0.9 ** t)) / (np.sqrt(m2 / (1.0 - 0.999 ** t)) + 1e-8)
        theta += lr * step

    bests = tuple(best.tolist())
    return OptimizeResult(best_gamma=max(bests), restart_gammas=bests)
