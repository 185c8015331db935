"""Closed forms that the effective-FI tests compare against.

`cfii.fim.effective_fi` computes F_eff = (u^T F^+ u)^(-1) of any Fisher
matrix through one eigendecomposition.  This module keeps the plain
formulas of the paper's two closed-form families, without argument checks:

* the coupled pair [[f1, j], [j, f2]] along u = (1, 1), and the window of
  couplings j in which it beats the uncoupled harmonic benchmark;
* the K-module equicorrelated matrix f * [(1 - eps) I + eps J] along the
  all-ones direction.
"""

import numpy as np


def synergy_effective_fi(f1, f2, j):
    """(f1 f2 - j^2) / (f1 + f2 - 2 j): F_eff of [[f1, j], [j, f2]] along
    u = (1, 1)."""
    return (f1 * f2 - j * j) / (f1 + f2 - 2.0 * j)


def synergy_window(f1, f2):
    """Open interval (0, 2 f1 f2 / (f1 + f2)) of couplings j for which the
    coupled pair beats the harmonic benchmark f1 f2 / (f1 + f2)."""
    return 0.0, 2.0 * f1 * f2 / (f1 + f2)


def equicorrelated_effective_fi(f, eps, k):
    """f * (eps + (1 - eps) / k): F_eff of the K-module equicorrelated matrix
    along the all-ones direction."""
    return f * (eps + (1.0 - eps) / k)


def equicorrelated_matrix(f, eps, k):
    """The K x K matrix f * [(1 - eps) I + eps J]."""
    return f * ((1.0 - eps) * np.eye(k) + eps * np.ones((k, k)))
