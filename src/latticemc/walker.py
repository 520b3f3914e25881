"""Monte Carlo engine for free (non-interfering) walks.

A walk carries an integer site, a tick counter, a net-displacement
counter, and its preparation propensity.  ``move`` is the one trinomial
step rule (u < up -> +1, u < up + stay -> 0, else -1) that ``step`` and
the memory-driven walks in ``qforce`` apply tick by tick.  A free walk
needs no ticks: one trinomial tick at propensity p is two fair half-tick
coin flips that each go up with probability (1+p)/2, so after tau ticks
the displacement is Binomial(2 tau, (1+p)/2) - tau.  ``endpoint_displacement``
draws that once per particle, for free ensembles and trained runs
alike; ``step`` and ``run_free`` stay as the per-tick reference.

Sharded runs derive one child generator per nonempty shard from a single
seed, so the merged histogram is bit-reproducible for a fixed (seed,
shards) pair no matter how shards are scheduled.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .lattice import _check_propensity, transition_probs
from .stats import Histogram, merge


@dataclass
class ParticleState:
    """Mutable walk state; ``bosons`` maps a pair shift to a carried (momentum, birth tick)."""

    xi: int = 0
    tau: int = 0
    counter: int = 0
    p0: float = 0.0
    bosons: dict = field(default_factory=dict)


def move(u: float, p: float) -> int:
    """Trinomial move for a uniform draw ``u`` at propensity ``p``: +1, 0 or -1."""
    up = ((1.0 + p) / 2.0) ** 2
    return 1 if u < up else (0 if u < up + (1.0 - p * p) / 2.0 else -1)


def endpoint_displacement(rng: np.random.Generator, n_steps: int, p):
    """Net displacement after ``n_steps`` trinomial ticks at propensity ``p``, in one draw.

    One tick is two fair half-tick coin flips, each up with probability
    (1+p)/2, so the displacement is Binomial(2*n_steps, (1+p)/2) - n_steps;
    ``p`` may be an array, giving one draw per entry.
    """
    return rng.binomial(2 * n_steps, (1.0 + p) / 2.0) - n_steps


def step(state: ParticleState, p_eff: float, rng: np.random.Generator) -> int:
    """Advance one tick with effective propensity ``p_eff``; returns the move."""
    v = move(rng.random(), _check_propensity(p_eff))
    state.xi += v
    state.counter += v
    state.tau += 1
    return v


def run_free(xi0: int, p: float, n_steps: int, rng: np.random.Generator) -> int:
    """Final site of one free walk of ``n_steps`` ticks at constant propensity."""
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    probs = transition_probs(p)
    if n_steps == 0:
        return int(xi0)
    u = rng.random(n_steps)
    moves = (u < probs.up).astype(np.int64) - (u >= probs.up + probs.stay)
    return int(xi0 + moves.sum())


def _simulate_free_shard(
    n_particles: int, n_steps: int, p: float | None, xi0: int, rng: np.random.Generator
) -> Histogram:
    # one uniform p per particle, or the fixed p as an array so the binomial draws once per particle
    p = rng.uniform(-1.0, 1.0, size=n_particles) if p is None else np.full(n_particles, p)
    return Histogram.from_samples(xi0 + endpoint_displacement(rng, n_steps, p))


def run_ensemble_free(
    n_particles: int,
    n_steps: int,
    p: float | None = None,
    xi0: int = 0,
    seed=None,
    shards: int = 1,
    threads: int = 1,
) -> Histogram:
    """Histogram of final sites for an ensemble of independent free walks.

    Every particle is emitted from site ``xi0`` with propensity ``p``, or
    with its own propensity uniform on [-1, 1] when ``p`` is None.
    ``seed`` may be an int, a SeedSequence, or a Generator (single shard
    only).  With ``shards > 1`` the particles are split as evenly as
    possible and each shard gets its own spawned generator; ``threads``
    only controls scheduling and never changes the result.
    """
    if n_particles < 1:
        raise ValueError("n_particles must be >= 1")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    p = None if p is None else _check_propensity(p)
    xi0 = int(xi0)
    parts = _run_shards(
        lambda n, rng: _simulate_free_shard(n, n_steps, p, xi0, rng),
        n_particles,
        seed,
        shards,
        threads,
    )
    return merge(parts)


def _run_shards(shard, n_particles: int, seed, shards: int, threads: int) -> list:
    """Run ``shard(n, rng)`` over an even split of ``n_particles``; results in shard order.

    ``seed`` may be an int, a SeedSequence, or a Generator (single shard
    only).  Each shard gets its own generator spawned from the seed, so
    the results depend on (seed, shards) and never on ``threads``, which
    only controls scheduling.  Shards left with no particles are neither
    seeded nor run; children are spawned by index, so skipping them leaves
    the other shards' streams unchanged.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if isinstance(seed, np.random.Generator):
        if shards != 1:
            raise ValueError("pass a seed, not a Generator, for sharded runs")
        rngs = [seed]
    else:
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        children = ss.spawn(min(shards, n_particles))
        rngs = [np.random.Generator(np.random.PCG64(child)) for child in children]

    base, extra = divmod(n_particles, shards)
    jobs = [(base + (1 if i < extra else 0), rng) for i, rng in enumerate(rngs)]
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(shard, n, rng) for n, rng in jobs]
            return [f.result() for f in futures]
    return [shard(n, rng) for n, rng in jobs]
