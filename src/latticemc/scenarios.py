"""Interference scenario definitions and their steady-state laws.

A scenario fixes the source geometry (two sources, a general source list,
a ring, or a box), the ensemble sizes, and the preparation.  The
steady-state position and momentum densities here come from the walk
picture: each particle locks onto a ray whose effective momentum solves
q = p - sum of pairwise memory terms, and changing variables from the
preparation momentum to the ray gives the fringe densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import pmf_free
from .lattice import _scalar_or_array, light_cone


def _round_half_away(x: float) -> int:
    """Round to the nearest integer, halves away from zero."""
    return int(math.floor(abs(x) + 0.5)) * (1 if x >= 0 else -1)


KINDS = ("two-slit", "multi-slit", "ring", "box")


@dataclass(frozen=True)
class ScenarioConfig:
    """Geometry and run sizes for an interference run.

    ``kind`` is one of ``two-slit``, ``multi-slit``, ``ring``, ``box``.
    ``sources`` lists (site, weight) pairs for the slit kinds; ``ell`` is
    the ring circumference or box width in sites; ``p`` is the fixed
    preparation propensity for ring/box runs (slit runs draw it uniformly).
    A config is checked when it is built, so an invalid one cannot exist.
    """

    kind: str
    n_particles: int
    n_steps: int
    sources: tuple = ()
    ell: int = 0
    p: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        sources = tuple((int(s), float(w)) for s, w in self.sources)
        object.__setattr__(self, "sources", sources)
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.n_particles < 1 or self.n_steps < 1:
            raise ValueError("n_particles and n_steps must be >= 1")
        sites = [s for s, _ in self.sources]
        if self.kind in ("two-slit", "multi-slit"):
            if len(self.sources) < 2:
                raise ValueError("slit scenarios need at least two sources")
            if len(set(sites)) != len(sites):
                raise ValueError("sources must occupy distinct sites")
            weights = [w for _, w in self.sources]
            if not all(w >= 0.0 for w in weights) or not abs(sum(weights) - 1.0) <= 1e-9:
                raise ValueError("source weights must be nonnegative and sum to 1")
            if self.kind == "two-slit":
                if len(self.sources) != 2:
                    raise ValueError("two-slit takes exactly two sources")
                if sites[0] != -sites[1] or sites[0] == 0:
                    raise ValueError("two-slit sources must sit at +/- delta/2")
        else:
            if self.ell < 2:
                raise ValueError("ring/box needs ell >= 2")
            if self.p is None or not -1.0 <= self.p <= 1.0:
                raise ValueError("ring/box needs a fixed propensity in [-1, 1]")
        self.cone  # raises ValueError for a cone that int64 arrays cannot hold

    @property
    def cone(self) -> tuple[int, int]:
        """(first, last) site the run can reach; a slit run's histogram covers exactly these.

        A bound walk's counter starts at 0, so its cone is -n_steps..n_steps.
        """
        sites = [s for s, _ in self.sources] or [0]
        return light_cone(min(sites), max(sites), self.n_steps)

    @property
    def period(self) -> int:
        """Circumference of the ring a bound walk lives on: ell, or 2*ell for a box.

        A box's reflections are mirror images 2*ell apart, so a box of width
        ell has the statistics of a ring of circumference 2*ell.
        """
        return 2 * self.ell if self.kind == "box" else self.ell


def two_slit_config(
    delta: int, p1: float = 0.5, n_particles: int = 50000, n_steps: int = 300, seed: int = 0
) -> ScenarioConfig:
    """Symmetric pair of sources ``delta`` sites apart, weights (p1, 1-p1)."""
    if delta < 2 or delta % 2 != 0:
        raise ValueError("two-slit separation must be a positive even number of sites")
    if not 0.0 <= p1 <= 1.0:
        raise ValueError("p1 must lie in [0, 1]")
    return ScenarioConfig(
        kind="two-slit",
        n_particles=n_particles,
        n_steps=n_steps,
        sources=((delta // 2, p1), (-delta // 2, 1.0 - p1)),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# the pairwise memory sum


def _pair_terms(sources) -> tuple[np.ndarray, np.ndarray]:
    """Pair table of a weighted source list: (amplitudes, separations).

    Each source pair (i, j) contributes amplitude 2*sqrt(Pi Pj) at
    separation |si - sj|; pairs at the same separation share one row with
    their amplitudes added, so rows are the distinct separations in
    increasing order.  Every memory force and fringe law in the package
    is a sum over this table.
    """
    sources = list(sources)
    table: dict = {}
    for i, (si, wi) in enumerate(sources):
        for sj, wj in sources[i + 1 :]:
            delta = abs(si - sj)
            if delta == 0:
                raise ValueError("sources must occupy distinct sites")
            table[delta] = table.get(delta, 0.0) + 2.0 * math.sqrt(wi * wj)
    deltas = sorted(table)
    return np.array([table[d] for d in deltas], dtype=float), np.array(deltas, dtype=float)


def _memory_force(q, amps: np.ndarray, deltas: np.ndarray):
    """Converged memory force g(q) = sum of a*sin(pi*d*q)/(pi*d) over the pair table."""
    q_arr = np.asarray(q, dtype=float)
    out = np.zeros_like(q_arr)
    for amp, delta in zip(amps, deltas):
        out += amp * np.sin(math.pi * delta * q_arr) / (math.pi * delta)
    return _scalar_or_array(q, out)


def _fringe(q, amps: np.ndarray, deltas: np.ndarray):
    """Fringe law 1 + sum of a*cos(pi*d*q) over the pair table, at ray q."""
    q_arr = np.asarray(q, dtype=float)
    out = np.ones_like(q_arr)
    for amp, delta in zip(amps, deltas):
        out += amp * np.cos(math.pi * delta * q_arr)
    return _scalar_or_array(q, out)


_RAY_TABLE_INTERVALS = 2**14  # grid cells of q + g(q) on [-1, 1] that bracket the rays
_RAY_BLOCK = 2048  # rays polished together; bounds the solver's working set
_RAY_STEP_TOL = 1e-14  # a ray is done when its step is this small: F's own rounding is ~1e-15


def _solve_rays(p0: np.ndarray, amps: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Locked ray momenta: roots of F(q) = q + g(q) = p0, elementwise.

    F is nondecreasing for any valid source weighting (its slope is the
    fringe law, 2*tau times the arrival density, so nonnegative) and
    equals q at q = +/-1, so every |p0| <= 1 has a root in [-1, 1].  A
    table of F on a fixed grid brackets each root in one cell; safeguarded
    Newton with slope ``_fringe`` polishes it, bisecting the bracket when
    a step would leave it.  Every step lands strictly inside a bracket
    that shrinks, so each ray stops; near a fringe zero F is locally cubic
    and Newton takes up to ~60 steps.  Rays are polished in blocks and
    each stops on its own, so a ray's result depends on its own p0 only.
    """
    grid = np.linspace(-1.0, 1.0, _RAY_TABLE_INTERVALS + 1)
    table = grid + _memory_force(grid, amps, deltas)
    q = np.empty_like(p0)
    for start in range(0, len(p0), _RAY_BLOCK):
        p = p0[start : start + _RAY_BLOCK]
        cell = np.clip(np.searchsorted(table, p, side="right") - 1, 0, _RAY_TABLE_INTERVALS - 1)
        lo, hi = grid[cell], grid[cell + 1]
        rise = table[cell + 1] - table[cell]
        frac = np.divide(p - table[cell], rise, out=np.full_like(p, 0.5), where=rise > 0)
        x = lo + np.clip(frac, 0.0, 1.0) * (hi - lo)
        todo = np.arange(start, start + len(p))
        while len(todo):
            f = x - p + _memory_force(x, amps, deltas)
            slope = _fringe(x, amps, deltas)
            lo = np.where(f < 0, x, lo)
            hi = np.where(f > 0, x, hi)
            newton = x - np.divide(f, slope, out=np.full_like(f, np.inf), where=slope > 0)
            inside = (newton > lo) & (newton < hi) | (newton == x)  # x may sit on lo or hi
            step = np.where(inside, newton, 0.5 * (lo + hi))
            done = np.abs(step - x) <= _RAY_STEP_TOL
            q[todo[done]] = step[done]
            todo, p, x, lo, hi = (a[~done] for a in (todo, p, step, lo, hi))
    return q


# ---------------------------------------------------------------------------
# steady-state densities


def multi_slit_density(xi, tau: int, sources):
    """Arrival density for a weighted source list; pairwise cosine terms."""
    if tau < 1:
        raise ValueError("tau must be >= 1")
    return _fringe(np.asarray(xi, dtype=float) / tau, *_pair_terms(sources)) / (2.0 * tau)


def finite_time_slit_density(xi, tau: int, sources):
    """Exact arrival pmf of the locked-ray walk after ``tau`` ticks.

    The cosine fringe law is the infinite-time limit of this pmf: a walker
    locked at momentum q lands with the free-walk kernel around q*tau, and
    the locked momenta are distributed with the ray density, so the arrival
    law is that density pushed through the kernel.  The second-order
    difference from the limit law, (step variance * tau / 2) * curvature,
    fills the fringe zeros at small tau and vanishes as tau grows.  The
    Gauss-Legendre rule takes at least 400 nodes, which resolve the kernel
    width sqrt(b/tau) for tau up to a few thousand, and pi*d/2 + 8*(pi*d)**(1/3)
    for the widest separation d, which resolve cos(pi*d*q): the pmf sums to
    1 within 1e-11 for d up to 4000, at an O(d**3) node solve (seconds at 2000).
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    sources = [(int(s), float(w)) for s, w in sources]
    x = np.asarray(xi, dtype=np.int64)
    amps, deltas = _pair_terms(sources)
    omega = math.pi * deltas.max(initial=0.0)
    n_nodes = max(400, math.ceil(omega / 2.0 + 8.0 * omega ** (1 / 3)))
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    ray_density = _fringe(nodes, amps, deltas) / 2.0
    out = np.zeros(x.shape, dtype=float)
    for site, w_src in sources:
        for q, glw, rho in zip(nodes, weights, ray_density):
            out += w_src * glw * rho * pmf_free(x - site, tau, q)
    return _scalar_or_array(xi, out)


# ---------------------------------------------------------------------------
# bound geometries


def ring_steady_momentum(p: float, ell: int) -> float:
    """Quantized ray momentum on a ring: (2/ell) * round(p*ell/2).

    A box of width w quantizes as a ring of ``ScenarioConfig.period`` 2*w.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if not abs(p) <= 1.0:
        raise ValueError("p must lie in [-1, 1]")
    return 2.0 * _round_half_away(p * ell / 2.0) / ell


def ring_memory_force(pbar: float, ell: int) -> float:
    """Memory force on a ring walker moving at sample momentum ``pbar``.

    The ring is equivalent to infinitely many equal sources spaced ell
    apart, so the pairwise memory sum converges to the sawtooth
    1/ell - pbar + (2/ell)*floor(pbar*ell/2) except at the quantized rays
    pbar = 2n/ell, where every sine term vanishes and the force is zero; a
    walker is pushed toward the nearest quantized ray and chatters around
    it.  The ray test is a float test that rounding can miss (pbar =
    -28/41 at ell 41 gives pbar*ell/2 = -14.000000000000002 and a force
    of about -1/41), but |force| <= 1/ell holds everywhere, and
    ``run_ring`` relies on that bound alone.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    half = pbar * ell / 2.0
    cell = math.floor(half)
    if half == cell:
        return 0.0
    return 1.0 / ell - pbar + (2.0 / ell) * cell
