"""Multiparameter Fisher information: the effective scalar information of a
Fisher matrix along a direction, and the data-processing inequality under
classical coarse-graining.

The effective Fisher information for estimating the linear combination
u . theta is F_eff = (u^T F^+ u)^(-1), a harmonic-type projection of the
matrix onto the direction u.  When u has a component outside the row space
of F the combination is unidentifiable and F_eff = 0 (infinite resistance).
An F_eff whose resistance, or its inverse, passes the largest float raises
ResistanceOverflowError rather than return NaN or a wrong number.  The
closed forms of the two-parameter synergy window and the equicorrelated
chain are test oracles (tests/fim_reference.py), not library functions.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (NonStochasticChannelError, NotPositiveDefiniteError,
                     ResistanceOverflowError)
from .models import CategoricalModel, _categorical_fi
from .rng import require_real

# Relative eigenvalue cutoff for the pseudoinverse, and the relative mass of
# u allowed outside the row space before the direction counts as lost.
PINV_RCOND = 1e-12
ROWSPACE_TOL = 1e-9

# Relative tolerances of the matrix checks: two mirrored entries may differ
# by SYMMETRY_RTOL times the largest |entry|, and the smallest eigenvalue may
# fall below 0 by PSD_RTOL times the largest |eigenvalue|.
SYMMETRY_RTOL = 1e-12
PSD_RTOL = 1e-10


def effective_fi(mat: np.ndarray, u: np.ndarray) -> float:
    """Scalar information (u^T F^+ u)^(-1) of the Fisher matrix F = `mat`
    for the combination u . theta.

    F must be real, square, symmetric and positive semidefinite, each within
    a tolerance relative to its own scale.  One eigendecomposition gives both
    the PSD test and the pseudoinverse, whose relative cutoff is PINV_RCOND;
    returns 0.0 when u lies outside the row space of F.  A resistance
    u^T F^+ u, or its inverse, past the largest float raises
    ResistanceOverflowError.
    """
    m = require_real(mat, "mat")
    if np.ndim(m) != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {np.shape(m)}")
    with np.errstate(over="ignore"):  # an infinite asymmetry is refused too
        asymmetry = np.abs(m - m.T).max(initial=0.0)
    if asymmetry > SYMMETRY_RTOL * np.abs(m).max(initial=0.0):
        raise ValueError(f"matrix is not symmetric within {SYMMETRY_RTOL} "
                         "of its largest entry")
    u = require_real(u, "u")
    if np.ndim(u) != 1 or u.size != m.shape[0]:
        raise ValueError(f"direction has shape {np.shape(u)}, matrix is "
                         f"{m.shape[0]}x{m.shape[0]}")
    scale = np.abs(u).max(initial=0.0)
    if scale == 0.0:
        raise ValueError("direction must be nonzero")

    w, vecs = np.linalg.eigh(m)  # ascending, so max|w| = max(-w[0], w[-1])
    if w[0] < -PSD_RTOL * max(-w[0], w[-1]):
        raise NotPositiveDefiniteError(
            f"matrix has an eigenvalue below -{PSD_RTOL} times its largest")
    # the pseudoinverse drops the first `dead` eigenvalues, those at or below
    # the cutoff; u must lie in the span of the others
    dead = int(np.count_nonzero(w <= PINV_RCOND * max(w[-1], 0.0)))
    if dead:
        unit = u / scale  # its norm neither overflows nor underflows
        if (np.linalg.norm(vecs[:, :dead].T @ unit)
                > ROWSPACE_TOL * np.linalg.norm(unit)):
            return 0.0
    with np.errstate(over="ignore"):
        coords = vecs.T @ u
        resistance = float((coords[dead:] ** 2 / w[dead:]).sum())
    if not 0.0 < resistance < math.inf:
        raise ResistanceOverflowError("u^T F^+ u overflows" if resistance
                                      else "1/(u^T F^+ u) overflows")
    return 1.0 / resistance


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
