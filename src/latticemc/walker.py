"""Monte Carlo engine for free (non-interfering) walks.

``move`` is the one trinomial step rule (u < up -> +1, u < up + stay
-> 0, else -1) that the memory-driven walks in ``qforce`` apply tick by
tick; it writes out the law of ``lattice.transition_probs`` inline,
being the hot scalar form.  A free walk needs no ticks: one trinomial
tick at propensity p is two fair half-tick coin flips that each go up
with probability (1+p)/2, so after tau ticks the displacement is
Binomial(2 tau, (1+p)/2) - tau.  ``endpoint_displacement`` draws that
once per particle, for free ensembles and trained runs alike.

Sharded runs derive one child generator per nonempty shard from a single
seed, and each shard bins on the run's light cone, so the summed counts
are bit-reproducible for a fixed (seed, shards) pair no matter how
shards are scheduled.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .lattice import _check_propensity, light_cone
from .stats import Histogram


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


def _simulate_free_shard(
    n_particles: int, n_steps: int, p: float | None, xi0: int, cone: tuple[int, int],
    rng: np.random.Generator,
) -> Histogram:
    # one uniform p per particle, or the fixed p as an array so the binomial draws once per particle
    p = rng.uniform(-1.0, 1.0, size=n_particles) if p is None else np.full(n_particles, p)
    return Histogram.on_cone(xi0 + endpoint_displacement(rng, n_steps, p), cone)


def run_ensemble_free(
    n_particles: int,
    n_steps: int,
    p: float | None = None,
    xi0: int = 0,
    seed: int | None = None,
    shards: int = 1,
    threads: int = 1,
) -> Histogram:
    """Histogram of final sites for an ensemble of independent free walks.

    Every particle is emitted from site ``xi0`` with propensity ``p``, or
    with its own propensity uniform on [-1, 1] when ``p`` is None.  The
    histogram covers the light cone xi0 - n_steps .. xi0 + n_steps.
    ``seed`` is an int, or None for fresh entropy.  With ``shards > 1``
    the particles are split as evenly as possible and each shard gets its
    own spawned generator; ``threads`` only controls scheduling and never
    changes the result.
    """
    if n_particles < 1:
        raise ValueError("n_particles must be >= 1")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    p = None if p is None else _check_propensity(p)
    xi0 = int(xi0)
    cone = light_cone(xi0, xi0, n_steps)
    parts = _run_shards(
        lambda n, rng: _simulate_free_shard(n, n_steps, p, xi0, cone, rng),
        n_particles,
        seed,
        shards,
        threads,
    )
    return Histogram(cone[0], sum(part.counts for part in parts))


def _run_shards(shard, n_particles: int, seed: int | None, shards: int, threads: int) -> list:
    """Run ``shard(n, rng)`` over an even split of ``n_particles``; results in shard order.

    ``seed`` is an int, or None for fresh entropy.  Each shard gets its
    own generator spawned from ``SeedSequence(seed)``, so the results
    depend on (seed, shards) and never on ``threads``, which only
    controls scheduling.  Shards left with no particles are neither
    seeded nor run; children are spawned by index, so skipping them
    leaves the other shards' streams unchanged.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    children = np.random.SeedSequence(seed).spawn(min(shards, n_particles))
    rngs = [np.random.Generator(np.random.PCG64(child)) for child in children]

    base, extra = divmod(n_particles, shards)
    jobs = [(base + (1 if i < extra else 0), rng) for i, rng in enumerate(rngs)]
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(shard, n, rng) for n, rng in jobs]
            return [f.result() for f in futures]
    return [shard(n, rng) for n, rng in jobs]
