"""Binary-fringe and categorical outcome models.

A binary fringe is a two-outcome model parameterized through its mean
z(theta) = p0 - p1, so p0 = (1 + z)/2 and p1 = (1 - z)/2.  Two concrete
families are provided:

* `QubitFringeModel`: the ideal interferometric fringe
      z(theta) = cos(vartheta) cos(theta) + sin(vartheta) sin(varphi) sin(theta)
  of a projective readout on a pure qubit preparation.  At varphi = pi/2 it
  reduces to z = cos(theta - vartheta), whose Fisher information is
  identically 1.

* `NoisyFringeModel`: exponential phase damping plus symmetric readout error,
      z(theta) = (1 - 2 eps_r) exp(-gamma theta) cos(theta - vartheta0).

Per-outcome scores are s0 = zdot/(1 + z) and s1 = -zdot/(1 - z); the Fisher
information is F = zdot^2 / (1 - z^2).  Points with z^2 = 1 are removable
singularities for these families (zdot vanishes there too); `fi` detects
|1 - z^2| < 1e-12 and returns the analytic limit -z * zddot obtained from the
second-order expansion of z about theta.

`CategoricalModel` carries a finite outcome distribution together with its
parameter derivative at one expansion point, which is all the Fisher
information needs.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateModelError

# Below this distance from z^2 = 1 the fringe FI switches to its analytic limit.
SINGULARITY_TOL = 1e-12


@dataclass(frozen=True)
class QubitPreparation:
    """Bloch angles of the probe state: polar vartheta, azimuth varphi."""

    vartheta: float
    varphi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.vartheta <= math.pi:
            raise ValueError(f"vartheta must lie in [0, pi], got {self.vartheta}")
        if not 0.0 <= self.varphi < 2.0 * math.pi:
            raise ValueError(f"varphi must lie in [0, 2*pi), got {self.varphi}")


@dataclass(frozen=True)
class NoisyFringeParams:
    """Dephasing rate gamma, readout error eps_r, and fringe offset vartheta0.

    gamma may also be a 1-D array of rates, each checked like a scalar one;
    the model's z, zdot, zddot and fi then broadcast over it, element for
    element equal to the scalar-rate model.
    """

    gamma: float
    epsilon_r: float = 0.0
    vartheta0: float = 0.0

    def __post_init__(self) -> None:
        gamma = np.asarray(self.gamma)
        ok = np.isfinite(gamma) & (gamma >= 0.0)
        if not ok.all():
            raise ValueError("gamma must be finite and >= 0, got "
                             f"{gamma[~ok].flat[0]}")
        if not math.isfinite(self.vartheta0):
            raise ValueError(f"vartheta0 must be finite, got {self.vartheta0}")
        if not 0.0 <= self.epsilon_r < 0.5:
            raise ValueError(f"epsilon_r must lie in [0, 1/2), got {self.epsilon_r}")

    @property
    def contrast(self) -> float:
        return 1.0 - 2.0 * self.epsilon_r


class BinaryModel(ABC):
    """Two-outcome model defined through its mean z(theta) and derivatives."""

    @abstractmethod
    def z(self, theta):
        """Mean value p0 - p1 at theta."""

    @abstractmethod
    def zdot(self, theta):
        """d z / d theta."""

    @abstractmethod
    def zddot(self, theta):
        """d^2 z / d theta^2 (used for the removable-singularity limit)."""

    def p0(self, theta):
        return 0.5 * (1.0 + self.z(theta))

    def p1(self, theta):
        return 0.5 * (1.0 - self.z(theta))

    def score(self, x: int, theta):
        """Per-outcome score d ln p_x / d theta."""
        if x not in (0, 1):
            raise ValueError(f"outcome must be 0 or 1, got {x}")
        sign = 1.0 if x == 0 else -1.0
        denom = 1.0 + sign * self.z(theta)
        if np.any(denom <= 0.0):
            raise DegenerateModelError(
                f"outcome {x} has zero probability; score undefined")
        return sign * self.zdot(theta) / denom

    def fi(self, theta):
        """Fisher information zdot^2 / (1 - z^2), with the continuous
        extension -z * zddot where 1 - z^2 underflows the tolerance."""
        z = self.z(theta)
        zd = self.zdot(theta)
        denom = 1.0 - z * z
        singular = np.abs(denom) < SINGULARITY_TOL
        if np.ndim(denom) == 0:
            if singular:
                return -z * self.zddot(theta)
            return zd * zd / denom
        safe = np.where(singular, 1.0, denom)
        regular = zd * zd / safe
        return np.where(singular, -z * self.zddot(theta), regular)

    def as_categorical(self, theta) -> "CategoricalModel":
        """The same model at a fixed theta as a two-outcome categorical."""
        p0 = float(self.p0(theta))
        dp0 = 0.5 * float(self.zdot(theta))
        return CategoricalModel(np.array([p0, 1.0 - p0]),
                                np.array([dp0, -dp0]))


@dataclass(frozen=True)
class QubitFringeModel(BinaryModel):
    """Ideal qubit fringe for a given preparation."""

    prep: QubitPreparation

    def _coeffs(self):
        a = math.cos(self.prep.vartheta)
        b = math.sin(self.prep.vartheta) * math.sin(self.prep.varphi)
        return a, b

    def z(self, theta):
        a, b = self._coeffs()
        return a * np.cos(theta) + b * np.sin(theta)

    def zdot(self, theta):
        a, b = self._coeffs()
        return -a * np.sin(theta) + b * np.cos(theta)

    def zddot(self, theta):
        return -self.z(theta)


@dataclass(frozen=True)
class NoisyFringeModel(BinaryModel):
    """Damped fringe z = contrast * exp(-gamma theta) * cos(theta - vartheta0),
    defined for theta >= 0."""

    params: NoisyFringeParams

    def _check(self, theta) -> None:
        if (np.asarray(theta) < 0.0).any():
            raise ValueError("noisy fringe is defined for theta >= 0")

    def z(self, theta):
        self._check(theta)
        p = self.params
        return p.contrast * np.exp(-p.gamma * theta) * np.cos(theta - p.vartheta0)

    def zdot(self, theta):
        self._check(theta)
        p = self.params
        c = np.cos(theta - p.vartheta0)
        s = np.sin(theta - p.vartheta0)
        return -p.contrast * np.exp(-p.gamma * theta) * (p.gamma * c + s)

    def zddot(self, theta):
        self._check(theta)
        p = self.params
        c = np.cos(theta - p.vartheta0)
        s = np.sin(theta - p.vartheta0)
        return p.contrast * np.exp(-p.gamma * theta) * (
            (p.gamma * p.gamma - 1.0) * c + 2.0 * p.gamma * s)


@dataclass
class CategoricalModel:
    """Finite outcome distribution p with its derivative pdot at the
    expansion point.  p sums to 1 and pdot sums to 0 (within 1e-9)."""

    p: np.ndarray
    pdot: np.ndarray

    def __post_init__(self) -> None:
        self.p = np.asarray(self.p, dtype=float)
        self.pdot = np.asarray(self.pdot, dtype=float)
        if self.p.ndim != 1 or self.p.shape != self.pdot.shape:
            raise ValueError("p and pdot must be 1-D arrays of equal length")
        if self.p.size < 2:
            raise ValueError("need at least two outcomes")
        if np.any(self.p < 0.0):
            raise ValueError("probabilities must be nonnegative")
        if abs(self.p.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {self.p.sum()}, not 1")
        if abs(self.pdot.sum()) > 1e-9:
            raise ValueError(f"derivatives sum to {self.pdot.sum()}, not 0")

    @property
    def m(self) -> int:
        return self.p.size


def categorical_fi(model: CategoricalModel) -> float:
    """Fisher information sum_x pdot_x^2 / p_x over outcomes with p_x > 0.

    An outcome with p_x = 0 but pdot_x != 0 makes the model irregular.
    """
    p = model.p
    pdot = model.pdot
    dead = p == 0.0
    if np.any(dead & (pdot != 0.0)):
        raise DegenerateModelError(
            "irregular model: zero probability with nonzero derivative")
    live = ~dead
    return float(np.sum(pdot[live] ** 2 / p[live]))


def categorical_product(m1: CategoricalModel, m2: CategoricalModel) -> CategoricalModel:
    """Joint model of two independent components; FI is additive."""
    p = np.outer(m1.p, m2.p).ravel()
    pdot = (np.outer(m1.pdot, m2.p) + np.outer(m1.p, m2.pdot)).ravel()
    return CategoricalModel(p, pdot)
