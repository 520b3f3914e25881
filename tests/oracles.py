"""Independent oracles and slow references for the test suite.

The closed-form oracles are computed from first principles (exhaustive
path enumeration, Gauss-Legendre quadrature) without calling the library
code under test, so closed forms can be checked against ground truth.
The slow references restate a fast path or a law of the library the
plain way: ``run_free`` walks tick by tick where the library draws one
endpoint, ``bisect_rays`` bisects where ``_solve_rays`` polishes a
tabulated bracket, ``trained_per_tick`` and ``mean_motion`` step a walk
under the converged memory force, ``ring_per_tick`` steps every tick of
a bound walk where ``qforce.run_ring`` decides most of them in a bracket,
``ray_equation`` writes the two-source ray condition out by hand, and
``ring_limit_sum`` sums a finite train of ring sources.  They share only
the transition law, the step rule ``walker.move`` and the memory sums
(``scenarios._pair_terms``, ``scenarios._memory_force``,
``scenarios._fringe``, ``scenarios.ring_memory_force``) with the
library, so a differential test checks the fast path and not the
physics.  ``pad_to_cone`` places a pinned count list on a run's light
cone, ``bound_config`` builds a one-walker ring or box config, and
``ray_density`` is the density of locked ray momenta.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict

import numpy as np

from latticemc.lattice import transition_probs
from latticemc.scenarios import (
    ScenarioConfig,
    _fringe,
    _memory_force,
    _pair_terms,
    ring_memory_force,
)
from latticemc.walker import move


def step_probs(p: float) -> dict[int, float]:
    return {
        1: ((1.0 + p) / 2.0) ** 2,
        0: (1.0 - p * p) / 2.0,
        -1: ((1.0 - p) / 2.0) ** 2,
    }


def enumerate_paths(tau: int, p: float) -> dict[tuple[int, int], float]:
    """Probability of every (final site, moving-tick count) pair.

    Walks all 3**tau step sequences; feasible only for small tau.
    """
    probs = step_probs(p)
    table: dict[tuple[int, int], float] = defaultdict(float)
    for path in itertools.product((-1, 0, 1), repeat=tau):
        weight = 1.0
        for v in path:
            weight *= probs[v]
        xi = sum(path)
        sigma = sum(1 for v in path if v != 0)
        table[(xi, sigma)] += weight
    return dict(table)


def enumerated_pmf(table: dict[tuple[int, int], float]) -> dict[int, float]:
    out: dict[int, float] = defaultdict(float)
    for (xi, _), w in table.items():
        out[xi] += w
    return dict(out)


def enumerated_energy_pmf(table: dict[tuple[int, int], float], xi: int) -> dict[int, float]:
    """Conditional distribution of moving ticks given the arrival site."""
    joint = {s: w for (x, s), w in table.items() if x == xi}
    total = sum(joint.values())
    if total == 0.0:
        return {}
    return {s: w / total for s, w in joint.items()}


def enumerated_particle_energy(table: dict[tuple[int, int], float]) -> dict[int, float]:
    out: dict[int, float] = defaultdict(float)
    for (_, sigma), w in table.items():
        out[sigma] += w
    return dict(out)


def quadrature_ensemble_pmf(xi: int, tau: int, pmf, n_nodes: int = 400) -> float:
    """Average pmf(xi | p) over p uniform on [-1, 1] by Gauss-Legendre.

    ``pmf(xi, tau, p)`` is passed in by the caller; with the closed-form
    binomial pmf this integrates a degree-2*tau polynomial in p, which
    n_nodes >= tau + 1 nodes integrate exactly.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    values = np.array([pmf(xi, tau, float(r)) for r in nodes])
    return float(np.sum(weights * values) / 2.0)


def mean_and_var(pmf: dict[int, float]) -> tuple[float, float]:
    mean = sum(k * w for k, w in pmf.items())
    var = sum((k - mean) ** 2 * w for k, w in pmf.items())
    return mean, var


def bisect_rays(p0: np.ndarray, amps: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Slow reference of ``scenarios._solve_rays``: 60 bisection steps on [-1, 1].

    q + g(q) is nondecreasing and equals q at q = +/-1, so bisection
    converges to the root of every |p0| <= 1.
    """
    lo = np.full_like(p0, -1.0)
    hi = np.ones_like(p0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        low_side = mid + _memory_force(mid, amps, deltas) < p0
        lo = np.where(low_side, mid, lo)
        hi = np.where(low_side, hi, mid)
    return np.clip(0.5 * (lo + hi), -1.0, 1.0)


def trained_per_tick(
    p0: np.ndarray, amps: np.ndarray, deltas: np.ndarray, n_steps: int, rng: np.random.Generator
) -> np.ndarray:
    """Slow reference of trained mode: every walker steps tick by tick.

    Under the converged pair table (amps, deltas), a walker with
    preparation p0 moves on tick tau at p_eff = clip(p0 - g(counter/tau))
    (p0 itself before it has moved, as in ``ring_per_tick``), with
    one trinomial draw per walker per tick.  Returns the final counters.
    """
    counter = np.zeros(len(p0), dtype=np.int64)
    for tau in range(1, n_steps + 1):
        q = counter / tau if tau > 1 else p0
        p = np.clip(p0 - _memory_force(q, amps, deltas), -1.0, 1.0)
        up = ((1.0 + p) / 2.0) ** 2
        u = rng.random(len(p0))
        counter += (u < up).astype(np.int64) - (u >= up + (1.0 - p * p) / 2.0)
    return counter


def ring_per_tick(config) -> np.ndarray:
    """Slow reference of ``qforce.run_ring``: a ring or box walk's counter trace, tick by tick.

    Every tick steps ``walker.move`` at
    p_eff = clip(p0 - ring_memory_force(counter/tau)), p0 itself on the
    first tick, with one uniform draw per tick.
    """
    rng = np.random.default_rng(config.seed)
    p0 = float(config.p)
    period = config.period
    counters = np.empty(config.n_steps, dtype=np.int64)
    counter = 0
    for tau, u in enumerate(rng.random(config.n_steps).tolist(), start=1):
        q = counter / tau if tau > 1 else p0  # no self-history before the walk moves
        p_eff = max(-1.0, min(1.0, p0 - ring_memory_force(q, period)))
        counter += move(u, p_eff)
        counters[tau - 1] = counter
    return counters


def run_free(xi0: int, p: float, n_steps: int, rng: np.random.Generator) -> int:
    """Final site of one free walk of ``n_steps`` ticks at constant propensity, tick by tick."""
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    probs = transition_probs(p)
    if n_steps == 0:
        return int(xi0)
    u = rng.random(n_steps)
    moves = (u < probs.up).astype(np.int64) - (u >= probs.up + probs.stay)
    return int(xi0 + moves.sum())


def ray_equation(q: float, p: float, p1: float, p2: float, delta: int) -> float:
    """Residual of the two-source locked-ray condition q = p - g(q)."""
    return q - p + 2.0 * math.sqrt(p1 * p2) * math.sin(math.pi * delta * q) / (math.pi * delta)


def mean_motion(p: float, sources, tau_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic mean trajectory of the walk under the memory force of ``sources``.

    Iterates mean position and effective momentum from one tick after
    emission; returns (positions, momenta) arrays of length ``tau_max``
    indexed by tick (entry 0 is tick 1).
    """
    if tau_max < 1:
        raise ValueError("tau_max must be >= 1")
    if not abs(p) <= 1.0:
        raise ValueError("p must lie in [-1, 1]")
    amps, deltas = _pair_terms(sources)
    xs = np.empty(tau_max)
    ps = np.empty(tau_max)
    x = p  # one free tick from the source
    for i in range(tau_max):
        tau = i + 1
        xs[i] = x
        p_eff = max(-1.0, min(1.0, p - _memory_force(x / tau, amps, deltas)))
        ps[i] = p_eff
        x += p_eff
    return xs, ps


def ring_limit_sum(pbar: float, ell: int, n_sources: int) -> float:
    """Partial pairwise memory sum for a ring seen as equally spaced sources.

    The memory force of ``n_sources`` equal sources spaced ell apart:
    separation d*ell occurs n_sources - d times with amplitude
    2/n_sources each, so the pair table has rows (2 (n_sources - d) /
    n_sources, d*ell) for d = 1..n_sources-1.  Converges (in the averaged
    sense) to ``scenarios.ring_memory_force`` off its quantized rays.
    """
    if ell < 2 or n_sources < 2:
        raise ValueError("ell and n_sources must be >= 2")
    d = np.arange(1, n_sources, dtype=float)
    return _memory_force(float(pbar), 2.0 * (n_sources - d) / n_sources, d * ell)


def pad_to_cone(counts, offset: int, cone: tuple[int, int]) -> list[int]:
    """``counts`` from site ``offset`` on, with a zero at every other site of ``cone``."""
    first, last = cone
    return [0] * (offset - first) + list(counts) + [0] * (last + 1 - offset - len(counts))


def bound_config(kind: str, ell: int, p: float, n_steps: int = 40000, seed: int = 0):
    """Config of a one-walker ``kind`` ("ring" or "box") run of width ``ell``."""
    return ScenarioConfig(kind, 1, n_steps, ell=ell, p=p, seed=seed)


def ray_density(q, sources):
    """Density of locked ray momenta on [-1, 1]: half the fringe law at ray q."""
    return _fringe(q, *_pair_terms(sources)) / 2.0
