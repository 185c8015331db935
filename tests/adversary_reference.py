"""Reference implementations that the adversary tests compare against.

`cfii.adversary` evaluates Gamma_adv through one batched path
(`_forward`/`_backward`).  This module keeps two independent references:

* the closed-form single-point stages `eval_kernels`, `module_fis` and
  `endpoint_fim`, which compose to effective_fi(F_B, u) * (1/F_ac + 1/F_cb);
* `joint_model_reference`, which materializes the full (c, b) distribution
  of the two-dial family and differentiates it numerically.
"""

import numpy as np

from cfii.adversary import AdversaryParams


def softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def params_from_vector(x, l, m):
    """AdversaryParams of one flat (2L + 2LM,) parameter vector."""
    return AdversaryParams(
        a=x[:l],
        a_dot=x[l:2 * l],
        d=x[2 * l:2 * l + l * m].reshape(l, m),
        d_dot=x[2 * l + l * m:].reshape(l, m),
    )


def eval_kernels(params):
    """Kernels and their tangents at the expansion point."""
    alpha = softmax(params.a)
    alpha_dot = alpha * (params.a_dot - alpha @ params.a_dot)
    beta = softmax(params.d)
    beta_dot = beta * (params.d_dot
                       - (beta * params.d_dot).sum(axis=1, keepdims=True))
    return alpha, alpha_dot, beta, beta_dot


def module_fis(kernels):
    """Local FIs F_ac = sum alpha_dot^2/alpha and
    F_cb = sum_c alpha_c sum_b beta_dot^2/beta."""
    alpha, alpha_dot, beta, beta_dot = kernels
    f_ac = float(np.sum(alpha_dot ** 2 / alpha))
    f_cb = float(np.sum(alpha * np.sum(beta_dot ** 2 / beta, axis=1)))
    return f_ac, f_cb


def endpoint_fim(kernels):
    """2x2 endpoint Fisher matrix of p_b in the two module parameters,
    symmetrized."""
    alpha, alpha_dot, beta, beta_dot = kernels
    p = beta.T @ alpha
    v1 = beta.T @ alpha_dot
    v2 = beta_dot.T @ alpha
    live = p > 1e-300
    mat = np.array([
        [np.sum(v1[live] ** 2 / p[live]), np.sum(v1[live] * v2[live] / p[live])],
        [np.sum(v1[live] * v2[live] / p[live]), np.sum(v2[live] ** 2 / p[live])],
    ])
    return 0.5 * (mat + mat.T)


def joint_model_reference(params, h=1e-5):
    """Joint-model oracle: (F_ac, F_cb, endpoint FIM) by central differences
    of the full (c, b) distribution of the two-dial family."""

    def alpha_at(t1):
        return softmax(params.a + t1 * params.a_dot)

    def beta_at(t2):
        return softmax(params.d + t2 * params.d_dot)

    def p_b(t1, t2):
        return beta_at(t2).T @ alpha_at(t1)

    alpha = alpha_at(0.0)
    beta = beta_at(0.0)
    d_alpha = (alpha_at(h) - alpha_at(-h)) / (2 * h)
    d_beta = (beta_at(h) - beta_at(-h)) / (2 * h)
    f_ac = float(np.sum(d_alpha ** 2 / alpha))
    f_cb = float(np.sum(alpha * np.sum(d_beta ** 2 / beta, axis=1)))

    p = p_b(0.0, 0.0)
    d1 = (p_b(h, 0.0) - p_b(-h, 0.0)) / (2 * h)
    d2 = (p_b(0.0, h) - p_b(0.0, -h)) / (2 * h)
    fim = np.array([
        [np.sum(d1 * d1 / p), np.sum(d1 * d2 / p)],
        [np.sum(d1 * d2 / p), np.sum(d2 * d2 / p)],
    ])
    return f_ac, f_cb, fim
