"""Monte Carlo engine for free (non-interfering) walks.

``move`` is the one trinomial step rule (u < up -> +1, u < up + stay
-> 0, else -1) that the memory-driven walks in ``qforce`` apply tick by
tick; it writes out the law of ``lattice.transition_probs`` inline,
being the hot scalar form.  ``_bracket_moves`` reads the same cuts from
``transition_probs`` to decide a block of draws at once: every draw
whose move is the same anywhere in a propensity bracket, leaving the
rest open for ``move``.  A free walk needs no ticks: one trinomial tick
at propensity p is two fair half-tick coin flips that each go up with
probability (1+p)/2, so after tau ticks the displacement is
Binomial(2 tau, (1+p)/2) - tau.  ``endpoint_displacement`` draws that
once per particle, for free ensembles and trained runs alike.

``_run_shards`` runs every ensemble, free or trained: it derives one
child generator per nonempty shard from a single seed, bins each
shard's final sites on the run's light cone, and sums the counts, so a
run is bit-reproducible for a fixed (seed, shards) pair no matter how
shards are scheduled.  It owns the block loop: each call of a shard's
draw, ``_simulate_free_shard`` or ``qforce._trained_shard``, draws one
block, so a shard's working set is flat in its particle count.  Each
draw stage reads its own stream, started where a whole-shard draw would
start that stage, so the blocks read the same random numbers bit for
bit.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .lattice import _check_propensity, _check_seed, light_cone, transition_probs
from .stats import Histogram


def move(u: float, p: float) -> int:
    """Trinomial move for a uniform draw ``u`` at propensity ``p``: +1, 0 or -1."""
    up = ((1.0 + p) / 2.0) ** 2
    return 1 if u < up else (0 if u < up + (1.0 - p * p) / 2.0 else -1)


_CUT_SLACK = 1e-12  # rounding makes the second cut, up + stay, non-monotone in p by a few ulps


def _bracket_moves(u: np.ndarray, p_lo: float, p_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Moves of draws ``u`` that are the same at every propensity in [p_lo, p_hi]; (moves, open).

    For a fixed u, ``move(u, p)`` is nondecreasing in p, so a draw below
    the first cut at p_lo is +1 for every p in the bracket, one at or
    above the second cut at p_hi is -1, and one between the first cut at
    p_hi and the second at p_lo is 0.  The second cut rounds a few ulps
    off monotone, so it is widened by ``_CUT_SLACK``; that only moves
    draws into the open set.  ``moves`` is the int64 move of each decided
    draw and 0 at the open ones, which ``move`` must step at their own p.
    """
    lo, hi = transition_probs(p_lo), transition_probs(p_hi)
    plus = u < lo.up
    minus = u >= hi.up + hi.stay + _CUT_SLACK
    stay = (u >= hi.up) & (u < lo.up + lo.stay - _CUT_SLACK)
    return plus.astype(np.int64) - minus, ~(plus | minus | stay)


def endpoint_displacement(rng: np.random.Generator, n_steps: int, p):
    """Net displacement after ``n_steps`` trinomial ticks at propensity ``p``, in one draw.

    One tick is two fair half-tick coin flips, each up with probability
    (1+p)/2, so the displacement is Binomial(2*n_steps, (1+p)/2) - n_steps;
    ``p`` may be an array, giving one draw per entry.
    """
    return rng.binomial(2 * n_steps, (1.0 + p) / 2.0) - n_steps


_BLOCK = 8192  # particles, or bound-walk ticks, drawn and summed together; bounds the working set


def _simulate_free_shard(
    n_particles: int, n_steps: int, p: float | None, xi0: int, streams: list[np.random.Generator],
) -> np.ndarray:
    """Draw one block of a shard of free walks: the final sites of its ``n_particles``.

    The preparations come from ``streams[0]`` when ``p`` is None and the
    endpoint binomials from ``streams[-1]``; see ``_run_shards``.
    """
    # one uniform p per particle, or the fixed p as an array so the binomial draws once per particle
    p_block = streams[0].uniform(-1.0, 1.0, size=n_particles) if p is None else np.full(n_particles, p)
    return xi0 + endpoint_displacement(streams[-1], n_steps, p_block)


def run_ensemble_free(
    n_particles: int,
    n_steps: int,
    p: float | None = None,
    xi0: int = 0,
    seed: int = 0,
    shards: int = 1,
    threads: int = 1,
) -> Histogram:
    """Histogram of final sites for an ensemble of independent free walks.

    Every particle is emitted from site ``xi0`` with propensity ``p``, or
    with its own propensity uniform on [-1, 1] when ``p`` is None.  The
    histogram covers the light cone xi0 - n_steps .. xi0 + n_steps.
    ``seed`` is an int >= 0.  With ``shards > 1`` the particles are split as
    evenly as possible and each shard gets its own spawned generator;
    ``threads`` caps the worker threads and never changes the result.
    """
    if n_particles < 1:
        raise ValueError("n_particles must be >= 1")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    p = None if p is None else _check_propensity(p)
    xi0, seed = int(xi0), _check_seed(seed)
    return _run_shards(
        lambda n, streams: _simulate_free_shard(n, n_steps, p, xi0, streams),
        2 if p is None else 1,  # preparations and endpoints, or endpoints alone
        light_cone(xi0, xi0, n_steps),
        n_particles,
        seed,
        shards,
        threads,
    )


def _run_shards(
    draw, stages: int, cone: tuple[int, int], n_particles: int, seed: int, shards: int, threads: int,
) -> Histogram:
    """Histogram on ``cone`` of the final sites ``draw(size, streams)`` returns over an even split.

    ``seed`` is an int >= 0.  Shard i of n particles builds its
    ``stages`` streams in its own job: stream k is the PCG64 of child i
    of ``SeedSequence(seed)`` advanced k * n outputs, where a whole-shard
    draw starts stage k.  Drawn whole, a shard makes one array call per
    stage (the source picks of trained runs, the preparations of all but
    fixed-p free runs, then the endpoint binomials), and each stage before
    the binomials takes one 64-bit output (one double) per particle, so
    the blocks read the same numbers as the whole draw.  Each ``draw`` call returns
    the final sites of the shard's next block of ``size`` particles,
    which is binned on ``cone`` and added in place to its worker's
    counts, so the result depends on (seed, shards) and never on
    ``threads``.  A block is ``_BLOCK`` particles, or the cone's row
    count when that is larger, so a shard holds O(``_BLOCK`` + cone rows)
    at any particle count and its binning costs O(particles + cone rows).
    Shards with no particles are neither seeded nor run.  min(threads,
    shards with particles, usable CPUs) workers each sum every
    workers-th shard, so the run holds no per-shard state.  Worker 0
    runs in the caller's thread and each other on a ``threading.Thread``
    of its own; every thread is joined before the first worker's
    exception, if any, is raised.  Usable CPUs are those the process may
    run on (its affinity mask where the platform has one, else
    ``os.cpu_count``).
    """
    if shards < 1 or threads < 1:
        raise ValueError("shards and threads must be >= 1")
    base, extra = divmod(n_particles, shards)
    jobs = min(shards, n_particles)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(threads, jobs, cpus)
    rows = cone[1] - cone[0] + 1
    block = max(_BLOCK, rows)

    def summed(w: int) -> np.ndarray:
        counts = np.zeros(rows, dtype=np.int64)
        for i in range(w, jobs, workers):
            n = base + (i < extra)
            child = np.random.SeedSequence(seed, spawn_key=(i,))
            streams = [np.random.Generator(np.random.PCG64(child).advance(k * n)) for k in range(stages)]
            for start in range(0, n, block):
                counts += Histogram.on_cone(draw(min(block, n - start), streams), cone).counts
        return counts

    sums = [None] * workers

    def work(w: int) -> None:
        try:
            sums[w] = summed(w)
        except BaseException as exc:  # raised in the caller once every thread is joined
            sums[w] = exc

    started = []
    try:
        for w in range(1, workers):
            thread = threading.Thread(target=work, args=(w,))
            thread.start()
            started.append(thread)
        sums[0] = summed(0)  # worker 0, in the caller's thread
    finally:
        for thread in started:
            thread.join()
    for c in sums[1:]:
        if isinstance(c, BaseException):
            raise c
        sums[0] += c
    return Histogram(cone[0], sums[0])
