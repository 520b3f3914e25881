"""Independent oracles and slow references for the test suite.

The closed-form oracles are computed from first principles (exhaustive
path enumeration, Gauss-Legendre quadrature) without calling the library
code under test, so closed forms can be checked against ground truth.
The slow references restate a fast path or a law of the library the
plain way: ``run_free`` walks tick by tick where the library draws one
endpoint, ``bisect_rays`` bisects where ``_solve_rays`` polishes a
tabulated bracket, ``trained_per_tick`` and ``mean_motion`` step a walk
under the converged memory force, ``ring_per_tick`` steps every tick of
a bound walk where ``qforce.ring_counters`` decides most of them in a
bracket, ``locked_half_summary`` reads the whole sample-momentum trace
where ``qforce.run_ring`` streams its locked half from the walk one block
at a time, ``training_per_visit`` walks training emissions through
``qforce.effective_momentum``, ``walker.move`` and ``qforce.visit`` where
``qforce.run_training_slits`` writes the tick out inline,
``ray_equation`` writes the two-source ray condition out by hand,
``ring_limit_sum`` sums a finite train of ring sources,
``free_shard_whole`` and ``trained_shard_whole`` draw a whole shard in
one array call per stage, where ``walker._simulate_free_shard`` and
``qforce._trained_shard`` draw one block per call, and
``run_shards_spawned`` builds every shard's generator before running
any, where ``walker._run_shards`` derives each in its shard's job
(``free_run`` and ``trained_run`` pair each blocked draw with its whole
reference), and
``csv_per_row`` and ``json_whole`` write a table a row at a time and as
one ``json.dump``, where ``stats.write_csv`` and ``cli._dump_table``
write it in chunks through the C csv writer and JSON encoder.
They share only the transition law, the step rule ``walker.move``, the
endpoint sampler ``walker.endpoint_displacement``, the ray solver
``scenarios._solve_rays``, the plain training tick of ``qforce``
(``ParticleState``, ``effective_momentum``, ``visit`` and the decay
laws) and the memory sums (``scenarios._pair_terms``,
``scenarios._memory_force``, ``scenarios._fringe``,
``scenarios.ring_memory_force``) with the library, so a differential
test checks the fast path and not the physics.  ``pad_to_cone`` places
a pinned count list on a run's light cone, ``bound_config`` builds a
one-walker ring or box config, ``SPLIT_EDGES`` lists locked-half
lengths at the edges of numpy's pairwise summation tree, and
``ray_density`` is the density of locked ray momenta.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from collections import defaultdict

import numpy as np

from latticemc import qforce, walker
from latticemc.lattice import light_cone, transition_probs
from latticemc.scenarios import (
    ScenarioConfig,
    _fringe,
    _memory_force,
    _pair_terms,
    _ray_table,
    _solve_rays,
    ring_memory_force,
)
from latticemc.stats import Histogram
from latticemc.walker import endpoint_displacement, move


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
    """Slow reference of ``qforce.ring_counters``: a ring or box walk's counter trace, tick by tick.

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


def locked_half_summary(counters: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Slow reference of ``qforce.run_ring``, the locked-half summary.

    Builds the whole sample-momentum trace counter/tau and reads its
    second half, ticks n//2 ... n-1: returns its mean and the (centers,
    counts) of one ``np.histogram`` over it in cells 0.02 wide centred on
    -1, -0.98, ..., 1.
    """
    p_bar = counters / np.arange(1, len(counters) + 1)
    locked = p_bar[len(counters) // 2 :]
    width = 0.02
    edges = np.arange(-1.0 - width / 2.0, 1.0 + width, width)
    counts, _ = np.histogram(locked, bins=edges)
    return float(locked.mean()), (edges[:-1] + edges[1:]) / 2.0, counts


def training_per_visit(config) -> qforce.TrainingRun:
    """Slow reference of ``qforce.run_training_slits``: every tick through the plain forms.

    Each emission draws its source with ``Generator.choice``, its
    preparation with ``Generator.uniform(-1, 1)`` and its steps with
    ``Generator.random(n_steps)``; each tick steps ``walker.move`` at
    ``qforce.effective_momentum`` and calls ``qforce.visit``, looked up
    at call time.
    """
    rng = np.random.default_rng(config.seed)
    lattice = qforce.TrainingLattice()
    damp = qforce.particle_damping(config.n_steps).tolist()
    sites = [s for s, _ in config.sources]
    weights = [w for _, w in config.sources]

    n = config.n_particles
    emissions = {
        "source": np.empty(n, dtype=np.int64),
        "final_xi": np.empty(n, dtype=np.int64),
        "bosons_created": np.empty(n, dtype=np.int64),
        "final_p_eff": np.empty(n),
    }
    for emission in range(n):
        src = int(rng.choice(len(sites), p=weights))
        particle = qforce.ParticleState(xi=sites[src], p0=rng.uniform(-1.0, 1.0))
        created = 0
        for u in rng.random(config.n_steps).tolist():
            p_eff = qforce.effective_momentum(particle, damp, lattice.ticks)
            v = move(u, p_eff)
            particle.xi += v
            particle.counter += v
            particle.tau += 1
            lattice.ticks += 1
            if qforce.visit(lattice, particle) is not None:
                created += 1
        for column, value in zip(emissions.values(), (sites[src], particle.xi, created, p_eff)):
            column[emission] = value

    return qforce.TrainingRun(Histogram.on_cone(emissions["final_xi"], config.cone), lattice, emissions)


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


def free_shard_whole(n_particles: int, n_steps: int, p, xi0: int, rng: np.random.Generator):
    """Slow reference of ``walker._simulate_free_shard``: the whole shard's final sites in one draw.

    One array call per stage over every particle: the uniform
    preparations (none for a fixed ``p``), then the endpoint binomials.
    """
    p = rng.uniform(-1.0, 1.0, size=n_particles) if p is None else np.full(n_particles, p)
    return xi0 + endpoint_displacement(rng, n_steps, p)


def trained_shard_whole(sources, table, n_particles: int, n_steps: int, rng: np.random.Generator):
    """Slow reference of ``qforce._trained_shard``: the whole shard's final sites in one draw.

    One array call per stage over every particle: the source picks, with
    ``Generator.choice`` over the (site, weight) list ``sources``, the
    preparations and their rays on ``table``, then the endpoint binomials.
    """
    sites = np.array([s for s, _ in sources], dtype=np.int64)
    src = rng.choice(len(sites), size=n_particles, p=[w for _, w in sources])
    q_star = _solve_rays(rng.uniform(-1.0, 1.0, n_particles), table)
    return endpoint_displacement(rng, n_steps, q_star) + sites[src]


def run_shards_spawned(shard, cone: tuple[int, int], n_particles: int, seed: int, shards: int):
    """Counts on ``cone`` of ``shard(n, rng)`` over an even split, every generator built up front.

    Spawns one child of ``SeedSequence(seed)`` per shard that holds
    particles, builds all their generators, then runs the shards in order
    on one thread and bins the pooled sites.  ``shard`` returns one
    shard's final sites as one array, as ``free_shard_whole`` and
    ``trained_shard_whole`` do.
    """
    children = np.random.SeedSequence(seed).spawn(min(shards, n_particles))
    rngs = [np.random.Generator(np.random.PCG64(child)) for child in children]
    base, extra = divmod(n_particles, shards)
    sites = [shard(base + (1 if i < extra else 0), rng) for i, rng in enumerate(rngs)]
    return np.bincount(np.concatenate(sites) - cone[0], minlength=cone[1] - cone[0] + 1)


def free_run(p, xi0: int, n_steps: int):
    """(block draw, stages, whole reference, cone) of a free run at propensity ``p`` from ``xi0``.

    ``walker._run_shards(draw, stages, cone, ...)`` runs the blocked
    shards, and ``run_shards_spawned(whole, cone, ...)`` the same shards
    drawn whole.
    """
    return (
        lambda n, streams: walker._simulate_free_shard(n, n_steps, p, xi0, streams),
        2 if p is None else 1,
        lambda n, rng: free_shard_whole(n, n_steps, p, xi0, rng),
        light_cone(xi0, xi0, n_steps),
    )


def trained_run(sources, n_steps: int):
    """(block draw, stages, whole reference, cone) of a trained run over ``sources``, sorted by site."""
    picks, table = qforce._source_picks(sources), _ray_table(*_pair_terms(sources))
    return (
        lambda n, streams: qforce._trained_shard(picks, table, n, n_steps, streams),
        3,
        lambda n, rng: trained_shard_whole(sources, table, n, n_steps, rng),
        light_cone(sources[0][0], sources[-1][0], n_steps),
    )


def csv_per_row(fh, names, columns) -> None:
    """A CSV of ``columns`` one row at a time: ints as they are, every float ``.17g``."""
    writer = csv.writer(fh)
    writer.writerow(names)
    for row in zip(*(np.asarray(col).tolist() for col in columns)):
        writer.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])


def json_whole(fh, names, columns, summary: dict) -> None:
    """The JSON mirror of a table as one indented ``json.dump`` of the whole document."""
    rows = list(zip(*(np.asarray(col).tolist() for col in columns)))
    json.dump({"columns": names, "rows": rows, "summary": summary}, fh, indent=1)
    fh.write("\n")


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


# Lengths at the edges of the pairwise tree that np.mean sums in and that
# ``qforce._pairwise_mean`` walks in blocks: one, two and four blocks, and
# one or eight values either side.  A bound run of 2*m - m % 2 ticks has m
# locked-half ticks.
SPLIT_EDGES = tuple(walker._BLOCK * 2**j + d for j in range(3) for d in (-8, -1, 0, 1, 8))


def ray_density(q, sources):
    """Density of locked ray momenta on [-1, 1]: half the fringe law at ray q."""
    return _fringe(q, *_pair_terms(sources)) / 2.0
