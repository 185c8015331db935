"""Multiparameter Fisher information: effective scalar information along a
direction, two-parameter synergy, the equicorrelated family, and the
data-processing inequality under classical coarse-graining.

The effective Fisher information for estimating the linear combination
u . theta is F_eff = (u^T F^+ u)^(-1), a harmonic-type projection of the
matrix onto the direction u.  When u has a component outside the row space
of F the combination is unidentifiable and F_eff = 0 (infinite resistance).
A closed form whose intermediate product or inverse passes the largest
float raises ResistanceOverflowError rather than return NaN or a wrong
number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (NonStochasticChannelError, NotPositiveDefiniteError,
                     ResistanceOverflowError)
from .models import CategoricalModel, _categorical_fi
from .rng import require_integral, require_real

# Relative eigenvalue cutoff for the pseudoinverse, and the relative mass of
# u allowed outside the row space before the direction counts as lost.
PINV_RCOND = 1e-12
ROWSPACE_TOL = 1e-9


@dataclass(frozen=True)
class FisherMatrix:
    """Validated symmetric PSD matrix wrapper."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        m = require_real(self.mat, "mat")
        if np.ndim(m) != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {np.shape(m)}")
        if np.max(np.abs(m - m.T)) > 1e-12:
            raise ValueError("matrix is not symmetric within 1e-12")
        if np.min(np.linalg.eigvalsh(m)) < -1e-10:
            raise NotPositiveDefiniteError(
                "matrix has an eigenvalue below -1e-10")
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def effective_fi(fisher: FisherMatrix | np.ndarray, u: np.ndarray) -> float:
    """Scalar information (u^T F^+ u)^(-1) for the combination u . theta.

    Uses an eigendecomposition pseudoinverse with relative cutoff
    PINV_RCOND; returns 0.0 when u lies outside the row space of F.  A
    resistance u^T F^+ u, or its inverse, past the largest float raises
    ResistanceOverflowError.
    """
    if not isinstance(fisher, FisherMatrix):
        fisher = FisherMatrix(np.asarray(fisher))
    u = require_real(u, "u")
    if np.ndim(u) != 1 or u.size != fisher.dim:
        raise ValueError(f"direction has shape {np.shape(u)}, matrix is "
                         f"{fisher.dim}x{fisher.dim}")
    norm_u = np.linalg.norm(u)
    if norm_u == 0.0:
        raise ValueError("direction must be nonzero")

    w, vecs = np.linalg.eigh(fisher.mat)
    cutoff = PINV_RCOND * max(w.max(), 0.0)
    live = w > cutoff
    coords = vecs.T @ u
    if np.linalg.norm(coords[~live]) > ROWSPACE_TOL * norm_u:
        return 0.0
    with np.errstate(over="ignore"):
        resistance = float((coords[live] ** 2 / w[live]).sum())
    if not 0.0 < resistance < math.inf:
        raise ResistanceOverflowError("u^T F^+ u overflows" if resistance
                                      else "1/(u^T F^+ u) overflows")
    return 1.0 / resistance


def synergy_effective_fi(f1: float, f2: float, j: float) -> float:
    """Effective FI (f1 f2 - j^2) / (f1 + f2 - 2 j) of the 2x2 matrix
    [[f1, j], [j, f2]] along u = (1, 1)."""
    if not (0.0 < f1 < np.inf and 0.0 < f2 < np.inf and f1 * f2 - j * j > 0.0):
        raise NotPositiveDefiniteError(
            f"(f1={f1}, f2={f2}, j={j}) is not positive definite")
    f_eff = (f1 * f2 - j * j) / (f1 + f2 - 2.0 * j)
    if not f_eff < math.inf:  # inf / inf is NaN
        raise ResistanceOverflowError("f1 f2 - j^2 overflows")
    return f_eff


def synergy_window(f1: float, f2: float) -> tuple[float, float]:
    """Open interval of couplings j for which the coupled pair beats the
    uncoupled harmonic benchmark: (0, 2 f1 f2 / (f1 + f2))."""
    if not (0.0 < f1 < np.inf and 0.0 < f2 < np.inf):
        raise NotPositiveDefiniteError("marginal informations must be positive")
    hi = 2.0 * f1 * f2 / (f1 + f2)
    if not hi < math.inf:  # inf / inf is NaN
        raise ResistanceOverflowError("2 f1 f2 overflows")
    return 0.0, hi


def equicorrelated_effective_fi(f: float, eps: float, k: int) -> float:
    """Closed-form effective FI f * (eps + (1 - eps)/k) of the K-module
    equicorrelated matrix f * [(1 - eps) I + eps J] along the all-ones
    direction."""
    f, eps = require_real(f, "f", 0), require_real(eps, "eps", 0, 1, "[)")
    return f * (eps + (1.0 - eps) / require_integral(k, "k", 1))


def equicorrelated_matrix(f: float, eps: float, k: int) -> np.ndarray:
    """The explicit K x K matrix f * [(1 - eps) I + eps J]."""
    f, eps = require_real(f, "f", 0), require_real(eps, "eps", 0, 1, "[)")
    k = require_integral(k, "k", 1)
    return f * ((1.0 - eps) * np.eye(k) + eps * np.ones((k, k)))


def coarse_grain_fi(model: CategoricalModel, channel: np.ndarray) -> float:
    """Fisher information of the pushforward through a row-stochastic
    channel: q = channel^T p, qdot = channel^T pdot.

    Never exceeds the input FI (data-processing inequality).
    """
    c = np.asarray(channel, dtype=float)
    if c.ndim != 2 or c.shape[0] != model.m:
        raise ValueError(f"channel shape {c.shape} does not match "
                         f"{model.m} input outcomes")
    if not (c >= 0.0).all():  # NaN entries fail too
        raise NonStochasticChannelError("channel entries must be nonnegative")
    if np.max(np.abs(c.sum(axis=1) - 1.0)) > 1e-9:
        raise NonStochasticChannelError("channel rows must sum to 1")
    return _categorical_fi(c.T @ model.p, c.T @ model.pdot, "pushforward")
