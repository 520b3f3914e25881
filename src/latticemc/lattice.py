"""Lattice units and the per-step transition law.

Positions and times live on an integer lattice and each tick the walker
moves by one site, stays, or moves back.  A single dimensionless
parameter, the momentum propensity ``p`` in [-1, 1], fixes the three
transition probabilities

    up   = ((1 + p) / 2)**2
    stay = (1 - p**2) / 2
    down = ((1 - p) / 2)**2

which sum to one, have mean ``p`` and variance equal to ``stay``.

All simulation code works in lattice units (site size 1, tick 1, limit
speed 1).  The physical size of a cell for a particle of mass ``m`` is
informational only and never enters the dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PLANCK_H = 6.62607015e-34  # J s, SI exact
LIGHT_SPEED = 299792458.0  # m / s, SI exact
ELECTRON_MASS = 9.1093837015e-31  # kg


@dataclass(frozen=True)
class LatticeUnits:
    """Physical extent of one lattice cell for a particle of mass ``mass``.

    ``X`` is the spatial quantum in meters, ``T`` the temporal quantum in
    seconds.  By construction ``X / T`` equals the speed of light and
    ``mass * X**2 / T`` equals ``h / 2`` (one-dimensional form).
    """

    mass: float
    X: float
    T: float

    @property
    def c(self) -> float:
        return self.X / self.T

    @property
    def action_quantum(self) -> float:
        """mass * X**2 / T, equal to h/2 in one dimension."""
        return self.mass * self.X * self.X / self.T


def lattice_units(mass: float) -> LatticeUnits:
    """Lattice quanta for a particle of the given mass (kg).

    X = h / (2 m c) (half the Compton wavelength), T = h / (2 m c^2) = X / c.
    """
    if not (mass > 0.0) or math.isinf(mass):
        raise ValueError(f"mass must be positive and finite, got {mass!r}")
    X = PLANCK_H / (2.0 * mass * LIGHT_SPEED)
    T = PLANCK_H / (2.0 * mass * LIGHT_SPEED * LIGHT_SPEED)
    return LatticeUnits(mass=mass, X=X, T=T)


def uncertainty_product(n: int, units: LatticeUnits | None = None) -> tuple[float, float, float]:
    """Velocity/position uncertainty pair for a coarse-graining factor ``n``.

    Averaging the per-tick velocity over ``n`` ticks resolves it to
    ``dv = c / n`` while the reachable positions span ``dx = 2 n X``; the
    product ``dv * dx = 2 X**2 / T`` does not depend on ``n``.  With no
    ``units`` the result is in lattice units (X = T = 1).
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if units is None:
        dv = 1.0 / n
        dx = 2.0 * n
    else:
        dv = units.c / n
        dx = 2.0 * n * units.X
    return dv, dx, dv * dx


@dataclass(frozen=True)
class TransitionProbs:
    """Per-tick probabilities of moving up one site, staying, moving down."""

    up: float
    stay: float
    down: float
    propensity: float

    @property
    def mean(self) -> float:
        """Mean per-tick velocity, equal to the propensity."""
        return self.up - self.down

    @property
    def energy(self) -> float:
        """Probability of moving at all: up + down = (1 + p**2) / 2."""
        return self.up + self.down

    @property
    def variance(self) -> float:
        """Per-tick velocity variance, equal to ``stay``."""
        return self.energy - self.propensity * self.propensity

    def as_array(self) -> np.ndarray:
        """Probabilities ordered by displacement: [down, stay, up]."""
        return np.array([self.down, self.stay, self.up])


def _scalar_or_array(x, out):
    """``out`` as a float when the input ``x`` was a scalar, else as the array."""
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def _check_propensity(p: float) -> float:
    p = float(p)
    if math.isnan(p) or p < -1.0 or p > 1.0:
        raise ValueError(f"momentum propensity must lie in [-1, 1], got {p!r}")
    return p


def transition_probs(p: float) -> TransitionProbs:
    """Transition probabilities for momentum propensity ``p`` in [-1, 1]."""
    p = _check_propensity(p)
    up = ((1.0 + p) / 2.0) ** 2
    down = ((1.0 - p) / 2.0) ** 2
    stay = (1.0 - p * p) / 2.0
    return TransitionProbs(up=up, stay=stay, down=down, propensity=p)


def energy_propensity(p: float) -> float:
    """Probability (1 + p**2) / 2 that a step changes the position."""
    p = _check_propensity(p)
    return (1.0 + p * p) / 2.0
