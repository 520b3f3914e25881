"""The per-step transition law of the lattice walk.

Positions and times live on an integer lattice and each tick the walker
moves by one site, stays, or moves back.  A single dimensionless
parameter, the momentum propensity ``p`` in [-1, 1], fixes the three
transition probabilities

    up   = ((1 + p) / 2)**2
    stay = (1 - p**2) / 2
    down = ((1 - p) / 2)**2

which sum to one, have mean ``p`` and variance equal to ``stay``.

All simulation code works in lattice units (site size 1, tick 1, limit
speed 1); for a particle of mass m one site is X = h/(2mc) and one tick
is T = X/c.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class TransitionProbs:
    """Per-tick probabilities of moving up one site, staying, moving down."""

    up: float
    stay: float
    down: float

    @property
    def energy(self) -> float:
        """Probability of moving at all: up + down = (1 + p**2) / 2."""
        return self.up + self.down


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


def _check_seed(seed) -> int:
    """``seed`` as an int >= 0; None, a float or a generator raises TypeError, not fresh entropy."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def light_cone(lo: int, hi: int, n_steps: int) -> tuple[int, int]:
    """First and last site a walk of ``n_steps`` ticks from sites lo..hi can reach.

    A run's histogram has one int64 count per site of this cone, so every
    site and the exclusive end of its support must fit in int64, and the
    count array must be one numpy can address (which also keeps the one-draw
    sampler's 2 * n_steps half-steps in range).  An addressable count array
    may still be too large to allocate; the CLI reports that with exit 2.
    """
    first, last = lo - n_steps, hi + n_steps
    if first < _INT64.min or last >= _INT64.max:
        raise ValueError(f"a {n_steps}-tick walk from sites {lo}..{hi} leaves the int64 range")
    if last - first + 1 > _INT64.max // 8:
        raise ValueError(
            f"a {n_steps}-tick walk from sites {lo}..{hi} has {last - first + 1} sites, "
            "too many for an int64 count array"
        )
    return first, last


def transition_probs(p: float) -> TransitionProbs:
    """Transition probabilities for momentum propensity ``p`` in [-1, 1]."""
    p = _check_propensity(p)
    up = ((1.0 + p) / 2.0) ** 2
    down = ((1.0 - p) / 2.0) ** 2
    stay = (1.0 - p * p) / 2.0
    return TransitionProbs(up=up, stay=stay, down=down)
