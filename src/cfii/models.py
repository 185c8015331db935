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
  Where gamma theta overflows, the damped term takes its limit 0, as do z
  and zdot; an FI past the largest float is inf.  Neither warns (a scalar's
  overflowing products are of Python floats, which overflow silently).

Per-outcome scores are s0 = zdot/(1 + z) and s1 = -zdot/(1 - z); the Fisher
information is F = zdot^2 / (1 - z^2).  A point with z^2 = 1 is a removable
singularity where zdot vanishes too: `fi` detects |1 - z^2| < 1e-12 and,
where zdot^2 is below the same tolerance, returns the analytic limit
-z * zddot obtained from the second-order expansion of z about theta.  A
point with z^2 = 1 and zdot != 0 (the lossless damped fringe at theta = 0
with vartheta0 a multiple of pi, where zdot = -/+gamma) is irregular, and
`fi` raises DegenerateModelError there.

`CategoricalModel` carries a finite outcome distribution together with its
parameter derivative at one expansion point, which is all the Fisher
information needs.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModelError
from .rng import require_real

# Below this distance from z^2 = 1 the fringe FI switches to its analytic limit.
SINGULARITY_TOL = 1e-12


@dataclass(frozen=True)
class QubitPreparation:
    """Bloch angles of the probe state: polar vartheta, azimuth varphi."""

    vartheta: float
    varphi: float

    def __post_init__(self) -> None:
        require_real(self.vartheta, "vartheta", 0, math.pi)
        require_real(self.varphi, "varphi", 0, 2.0 * math.pi, "[)")


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
        require_real(self.gamma, "gamma", 0)
        require_real(self.vartheta0, "vartheta0")
        require_real(self.epsilon_r, "epsilon_r", 0, 0.5, "[)")

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

    def fi(self, theta):
        """Fisher information zdot^2 / (1 - z^2), with the continuous
        extension -z * zddot where 1 - z^2 and zdot^2 underflow the
        tolerance; DegenerateModelError where only 1 - z^2 does."""
        return self._fi(theta, self.z(theta), self.zdot(theta))

    def _fi(self, theta, z, zd):
        """fi at theta from z and zdot there; zddot is evaluated only where
        some point is singular, and its values elsewhere are discarded."""
        if isinstance(zd, float):  # the scalar fast path, in Python floats
            a, b = float(z), float(zd)
            if not abs(1.0 - a * a) < SINGULARITY_TOL:
                return b * b / (1.0 - a * a)
        with np.errstate(over="ignore", invalid="ignore"):
            zd2, denom = zd * zd, 1.0 - z * z
            singular = np.abs(denom) < SINGULARITY_TOL
            if not singular.any():
                return zd2 / denom
            if (singular & ~(zd2 < SINGULARITY_TOL)).any():
                raise DegenerateModelError(
                    "irregular fringe point: z^2 = 1 with nonzero zdot")
            return np.where(singular, -z * self.zddot(theta),
                            zd2 / np.where(singular, 1.0, denom))[()]

    def _moments(self, theta):
        """The scores (s0, s1), F and mu4 = sum_x p_x s_x^4 at the angles
        theta, from one z and one zdot.  mu4 is 0 where zdot is, and
        undefined (DegenerateModelError) where an outcome of zero probability
        has zdot != 0; its score comes out inf or NaN."""
        z, zd = self.z(theta), self.zdot(theta)
        f = self._fi(theta, z, zd)
        if ((zd != 0.0) & (abs(z) >= 1.0)).any():
            raise DegenerateModelError("mu4 undefined at a degenerate point")
        # float_power is libm's pow, as Python's ** is on a float
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s0, s1 = zd / (1.0 + z), -zd / (1.0 - z)
            mu4 = np.where(zd == 0.0, 0.0,
                           0.5 * (1.0 + z) * np.float_power(s0, 4)
                           + 0.5 * (1.0 - z) * np.float_power(s1, 4))
        return s0, s1, f, mu4


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

    def _terms(self, theta):
        """contrast * exp(-gamma theta) and the phase x = theta - vartheta0."""
        p = self.params
        if type(theta) is float and type(p.gamma) is float:  # the fast path
            negative, exponent = theta < 0.0, -p.gamma * theta
        else:
            with np.errstate(over="ignore"):
                negative, exponent = np.less(theta, 0).any(), -p.gamma * theta
        if negative:
            raise ValueError("noisy fringe is defined for theta >= 0")
        return p.contrast * np.exp(exponent), theta - p.vartheta0

    def z(self, theta):
        damped, x = self._terms(theta)
        return damped * np.cos(x)

    def zdot(self, theta):
        damped, x = self._terms(theta)
        return -damped * (self.params.gamma * np.cos(x) + np.sin(x))

    def zddot(self, theta):
        (damped, x), g = self._terms(theta), self.params.gamma
        return damped * ((g * g - 1.0) * np.cos(x) + 2.0 * g * np.sin(x))


@dataclass(frozen=True)
class CategoricalModel:
    """Finite outcome distribution p with its derivative pdot at the
    expansion point.  p sums to 1 and pdot sums to 0 (within 1e-9); both
    are kept as read-only copies, so the checks hold for the model's life."""

    p: np.ndarray
    pdot: np.ndarray

    def __post_init__(self) -> None:
        for name, lo in (("p", 0), ("pdot", -np.inf)):
            values = np.array(require_real(getattr(self, name), name, lo))
            values.flags.writeable = False  # the checks below hold for good
            object.__setattr__(self, name, values)
        if np.ndim(self.p) != 1 or np.shape(self.p) != np.shape(self.pdot):
            raise ValueError("p and pdot must be 1-D arrays of equal length")
        if self.p.size < 2:
            raise ValueError("need at least two outcomes")
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
    return _categorical_fi(model.p, model.pdot, "model")


def _categorical_fi(p, pdot, what: str) -> float:
    """categorical_fi of the distribution p with derivative pdot, which an
    irregularity error calls `what`."""
    dead = p == 0.0
    if (dead & (pdot != 0.0)).any():
        raise DegenerateModelError(
            f"irregular {what}: zero probability with nonzero derivative")
    live = ~dead
    with np.errstate(over="ignore"):  # an FI past the largest float is inf
        return float((pdot[live] ** 2 / p[live]).sum())
