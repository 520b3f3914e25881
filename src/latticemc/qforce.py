"""Memory-mediated interference: site registers, boson pairs, decay laws.

Every site can remember the displacement counter of its last visitor.
When a walker arrives with a counter that differs from the stored one by
``shift``, a boson pair is created: the site keeps one boson whose
momentum starts at the visitor's sample momentum q = counter/tau and
decays by (1 - (delta*q)**2 / age**2) per tick (an infinite product with
limit q * sinc(delta*q)); the walker carries the other, initialized to
the momentum of the boson previously resident at the site and damped by
(1 - 1/(2*age)) per tick.  The walker's effective propensity is its
preparation minus the carried boson momenta, clamped to [-1, 1], and the
stored counter and the walker's counter are exchanged.  Bosons are
stored as (momentum, birth tick) and valued on demand: a site boson by
the closed-form ``site_decay_product``, a carried one by the
``particle_damping`` table.

Two modes exist.  Training mode runs emissions sequentially against a
persistent lattice, exactly as above.  ``ParticleState``,
``effective_momentum`` and ``visit`` are the plain forms of one training
tick, which the demos read; ``run_training_slits`` is the hot form, the
same tick written out once on local variables, and
``test_training_matches_per_visit_reference`` ties it bit for bit to
``tests/oracles.training_per_visit``, which walks the plain forms.

Trained mode treats the lattice memory as fully converged and skips its
state: each carried boson is held at its steady-state expectation
sqrt(P_i P_j) * q * sinc(delta_ij * q) (the damping series of a boson
refreshed at rate P_i * P_j sums to sqrt(P_i P_j) times the steady site
value q * sinc(delta * q)).  Under that converged force a walker's
effective propensity settles at the root of the ray equation
q + sum_pairs 2*sqrt(Pi Pj)*sin(pi*d*q)/(pi*d) = p0 for its preparation
p0, so trained runs solve that root per particle and sample the walk at
the locked propensity; the only randomness left is the source draw, the
preparation draw, and the step noise itself.  Each ``_trained_shard``
call draws one block of a shard; ``walker._run_shards`` seeds the shard,
hands it its three stage streams and bins the blocks.

A bound walk (ring or box) is one long walk steered by its own converged
memory.  One walk, ``ring_counters``, walks both: a box of ell sites is
a ring of 2*ell whose positions fold back into [0, ell].  It yields the
walker's displacement counters one block at a time, and ``run_ring``
streams the locked-half summary from those blocks as they come, so a run
holds no trace.
The ring force never exceeds 1/period in size and a move is
nondecreasing in p, so a draw that moves the same at both ends of the
bracket p0 -/+ 1/period moves so on any tick; ``ring_counters`` decides
those ticks in one array pass and steps only the rest, exactly as tick
by tick.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .stats import Histogram
from .walker import _BLOCK, _bracket_moves, _run_shards, endpoint_displacement, move
from .scenarios import (SLIT_KINDS, ScenarioConfig, _memory_force, _pair_terms, _ray_table,
                        _solve_rays, ring_memory_force)


# ---------------------------------------------------------------------------
# decay laws (a boson is valued on demand from its birth tick, never ticked)


def _stirling_tail(z: float) -> float:
    """log Gamma(z) - [(z - 1/2) log z - z + log(2 pi)/2]; error below 2e-15 for z >= 20."""
    w = 1.0 / (z * z)
    return (1.0 / 12.0 - w * (1.0 / 360.0 - w * (1.0 / 1260.0 - w / 1680.0))) / z


def site_decay_product(q: float, delta: int, n_terms: int) -> float:
    """Site-boson momentum after ``n_terms`` ticks: q * prod_{j=1..n} (1 - x**2/j**2), x = delta*q.

    O(1) in time and memory for any span, by the finite form of Euler's
    product: for n >= |x| the product is
    sinc(x) * Gamma(N-x) Gamma(N+x) / Gamma(N)**2 with N = n+1, exactly 0
    when |x| is an integer (the factor j = |x| vanishes).  The log of the
    Gamma ratio is (N-1/2) log(1 - t**2) + 2x atanh(t) plus Stirling tails,
    t = x/N, which needs N - |x| >= 20; shorter spans are multiplied out,
    fewer than |x| + 20 factors.
    """
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    x = abs(delta * q)
    if x == 0.0:
        return q
    if n_terms < x + 19.0:
        w = q
        for j in range(1, n_terms + 1):
            w *= (j - x) * (j + x) / (j * j)  # j - x is exact near a zero factor
        return w
    big_n = n_terms + 1.0
    t = x / big_n
    log_ratio = (
        (big_n - 0.5) * math.log1p(-t * t)
        + 2.0 * x * math.atanh(t)
        + _stirling_tail(big_n - x)
        + _stirling_tail(big_n + x)
        - 2.0 * _stirling_tail(big_n)
    )
    k = round(x)  # sin(pi x) = (-1)**k sin(pi (x - k)), exactly 0 at integer x
    sin_pi_x = math.sin(math.pi * (x - k)) * (-1.0 if k % 2 else 1.0)
    if sin_pi_x == 0.0:
        return 0.0
    # the ratio leaves the float range only for |x| > 560, where inf is the float answer
    scale = math.exp(log_ratio) if log_ratio < 709.0 else math.inf
    return q * sin_pi_x / (math.pi * x) * scale


def expected_site_momentum(q, delta: int):
    """Steady-state site-boson momentum q * sinc(delta*q) = sin(pi delta q)/(pi delta)."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    return _memory_force(q, (1.0,), (delta,))  # one unit-amplitude pair row


def _refresh_sum(rate: float, values: np.ndarray) -> float:
    """rate * sum_k (1-rate)**k * values[k]: the mean of values[age] under refreshes at ``rate``."""
    k = np.arange(len(values), dtype=float)
    return float(rate * np.sum((1.0 - rate) ** k * values))


def site_momentum_series(q: float, delta: int, refresh_rate: float, n_terms: int) -> float:
    """Expected site-boson momentum when refreshed at a constant rate.

    refresh_rate * sum_{age=0..n_terms} (1-refresh_rate)**age * w(age); the
    rate drops out in the limit, leaving q * sinc(delta * q).
    """
    if not 0.0 < refresh_rate < 1.0:
        raise ValueError("refresh_rate must lie in (0, 1)")
    x = delta * q
    factors = np.ones(n_terms + 1)
    j = np.arange(1, n_terms + 1, dtype=float)
    factors[1:] = 1.0 - (x / j) ** 2
    return _refresh_sum(refresh_rate, q * np.cumprod(factors))


def particle_damping(k_max: int) -> np.ndarray:
    """Cumulative damping table: damp[k] = prod_{l=1..k} (1 - 1/(2l)).

    Equals the central binomial ratio C(2k, k)/4**k, which falls off like
    1/sqrt(pi*k).
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    out = np.ones(k_max + 1)
    if k_max:
        l = np.arange(1, k_max + 1, dtype=float)
        out[1:] = np.cumprod(1.0 - 1.0 / (2.0 * l))
    return out


def particle_boson_series(p_pair: float, k_max: int) -> float:
    """Partial sum p_pair * sum_k (1-p_pair)**k * damp(k); converges to sqrt(p_pair)."""
    if not 0.0 < p_pair <= 1.0:
        raise ValueError("p_pair must lie in (0, 1]")
    return _refresh_sum(p_pair, particle_damping(k_max))


def effective_momentum(particle: ParticleState, damp, now: int) -> float:
    """Preparation minus carried boson momenta at clock ``now``, clamped to [-1, 1].

    A carried boson born at tick b with momentum p is worth p * damp[now - b],
    ``damp`` being the ``particle_damping`` table.  This is the plain form;
    ``run_training_slits`` sums the same terms in the same order inline, and
    ``test_training_matches_per_visit_reference`` ties the two.
    """
    carried = 0.0
    for p, born in particle.bosons.values():
        carried += p * damp[now - born]
    total = particle.p0 - carried
    return 1.0 if total > 1.0 else (-1.0 if total < -1.0 else total)


# ---------------------------------------------------------------------------
# the visit rule (training-mode state transition at one site)


@dataclass
class ParticleState:
    """Mutable walk state; ``bosons`` maps a pair shift to a carried (momentum, birth tick)."""

    xi: int = 0
    tau: int = 0
    counter: int = 0
    p0: float = 0.0
    bosons: dict = field(default_factory=dict)


@dataclass
class TrainingLattice:
    """Persistent lattice memory accumulated over training emissions.

    ``registers`` maps a site to the counter its last visitor left there;
    ``site_bosons`` maps a site to {shift: (q, birth tick)} for its
    resident bosons; ``ticks`` is the global clock.
    """

    registers: dict = field(default_factory=dict)
    site_bosons: dict = field(default_factory=dict)
    ticks: int = 0
    overdriven_events: int = 0


def visit(lattice: TrainingLattice, particle: ParticleState) -> int | None:
    """Process a walker's arrival at its site at clock t = ``lattice.ticks``; returns the pair shift.

    A site with no register, or with one equal to the walker's counter,
    stores the counter and creates nothing (None).  Otherwise a boson pair
    of shift = register - counter is created: the walker carries
    (momentum of the resident same-shift site boson, t), that momentum
    being 0 if there is none; the site boson restarts as (counter/tau,
    t); and register and counter are exchanged.  A pair with
    |shift * q| >= 1 is counted as overdriven, since its early decay
    factors change sign.  The walker must have tau >= 1.

    This is the plain form of the rule; ``run_training_slits`` applies it
    inline on every tick, and ``test_training_matches_per_visit_reference``
    ties the two bit for bit.
    """
    if particle.tau < 1:
        raise ValueError("visits start after the first tick; tau must be >= 1")
    xi, lam, now = particle.xi, particle.counter, lattice.ticks
    register = lattice.registers.get(xi)
    lattice.registers[xi] = lam
    if register is None or register == lam:
        return None
    shift = register - lam
    by_shift = lattice.site_bosons.setdefault(xi, {})
    previous = by_shift.get(shift)
    inherited = site_decay_product(previous[0], abs(shift), now - previous[1]) if previous else 0.0
    particle.bosons[shift] = (inherited, now)
    q = lam / particle.tau
    by_shift[shift] = (q, now)
    if abs(shift * q) >= 1.0:
        lattice.overdriven_events += 1
    particle.counter = register
    return shift


# ---------------------------------------------------------------------------
# trained mode (vectorized, no lattice state)


def _source_picks(sources) -> tuple[np.ndarray, np.ndarray]:
    """(sites, cdf) of a source list: a uniform double u picks ``np.searchsorted(cdf, u, "right")``.

    ``cdf`` is the cumulative weights over their last entry, which is how
    ``Generator.choice`` maps its one double per pick, so both slit
    runners pick their sources as ``choice`` would from the same doubles.
    """
    sites = np.array([s for s, _ in sources], dtype=np.int64)
    cdf = np.cumsum(np.array([w for _, w in sources], dtype=float))
    return sites, cdf / cdf[-1]


def _trained_shard(
    picks: tuple[np.ndarray, np.ndarray],
    table: tuple,
    n_particles: int,
    n_steps: int,
    streams: list[np.random.Generator],
) -> np.ndarray:
    """Draw one block of a shard of trained-mode walks: the final sites of its ``n_particles``.

    ``picks`` is ``_source_picks(sources)`` and ``table`` the
    ``_ray_table`` of their pair table.  With the lattice memory
    converged, a walker's effective propensity settles at the root q* of
    the ray equation for its preparation.  Trained mode samples the
    locked-ray shortcut: the whole walk at q*, in one
    ``endpoint_displacement`` draw per particle.  That is the law trained
    mode claims, and it differs from a tick-by-tick walk under the
    converged memory, whose force pulls each walker back toward its ray,
    so its endpoints spread less around q* * n_steps.  The source picks,
    the preparations and the binomials each read their own stream (see
    ``walker._run_shards``).
    """
    sites, cdf = picks
    sources, preps, ends = streams
    src = np.searchsorted(cdf, sources.random(n_particles), side="right")
    q_star = _solve_rays(preps.uniform(-1.0, 1.0, n_particles), table)
    final = endpoint_displacement(ends, n_steps, q_star)
    final += sites[src]
    return final


def run_trained_slits(config: ScenarioConfig, shards: int = 1, threads: int = 1) -> Histogram:
    """Trained-mode interference run; returns the Histogram of final sites on ``config.cone``.

    Each block of a shard is one ``_trained_shard`` call; the run builds
    the source picks, the pair table and its ray table once, and every
    shard reads them.
    """
    if config.kind not in SLIT_KINDS:
        raise ValueError("run_trained_slits handles slit scenarios only")
    picks, table = _source_picks(config.sources), _ray_table(*_pair_terms(config.sources))
    return _run_shards(
        lambda n, streams: _trained_shard(picks, table, n, config.n_steps, streams),
        3,  # source picks, preparations, endpoints
        config.cone,
        config.n_particles,
        config.seed,
        shards,
        threads,
    )


# ---------------------------------------------------------------------------
# training mode (sequential emissions against a persistent lattice)


@dataclass
class TrainingRun:
    """Final positions on the run's light cone, the lattice, and per-emission columns.

    ``emissions`` maps source, final_xi, bosons_created and final_p_eff
    (the last tick's propensity) to one array entry per emission.
    """

    positions: Histogram
    lattice: TrainingLattice
    emissions: dict

    @property
    def bosons_created(self) -> int:
        return int(self.emissions["bosons_created"].sum())


def run_training_slits(config: ScenarioConfig) -> TrainingRun:
    """Sequential training run: every emission walks one fresh, shared lattice.

    Emissions follow each other with no idle ticks, so site bosons keep
    decaying on a single global clock.

    This is the hot form of the tick: the carried sum of
    ``effective_momentum``, the step of ``walker.move`` and the rule of
    ``visit`` are written out once, inline, on local variables.  Each
    emission takes one ``rng.random(n_steps + 2)`` draw: the first double
    picks the source by ``_source_picks``, as ``Generator.choice`` would,
    the second is the preparation -1 + 2u of ``Generator.uniform(-1, 1)``,
    and the rest are the step draws.  ``tests/oracles.training_per_visit`` runs the same
    emissions through the plain forms, and
    ``test_training_matches_per_visit_reference`` ties the two bit for bit.
    """
    if config.kind not in SLIT_KINDS:
        raise ValueError("run_training_slits handles slit scenarios only")
    rng = np.random.default_rng(config.seed)
    lattice = TrainingLattice()
    registers, site_bosons = lattice.registers, lattice.site_bosons
    n_steps = config.n_steps
    damp = particle_damping(n_steps).tolist()
    sites, cdf = (a.tolist() for a in _source_picks(config.sources))
    now = overdriven = 0

    sources, finals, created_counts, final_p_effs = [], [], [], []
    for _ in range(config.n_particles):
        draws = rng.random(n_steps + 2).tolist()
        xi = sites[bisect.bisect_right(cdf, draws[0])]
        sources.append(xi)
        p0 = -1.0 + 2.0 * draws[1]
        bosons = {}  # shift -> carried (momentum, birth tick), as ParticleState.bosons
        counter = created = 0
        for tau, u in enumerate(draws[2:], start=1):
            carried = 0.0
            for p, born in bosons.values():
                carried += p * damp[now - born]
            total = p0 - carried
            p_eff = 1.0 if total > 1.0 else (-1.0 if total < -1.0 else total)
            up = ((1.0 + p_eff) / 2.0) ** 2
            v = 1 if u < up else (0 if u < up + (1.0 - p_eff * p_eff) / 2.0 else -1)
            xi += v
            counter += v
            now += 1
            register = registers.get(xi)
            registers[xi] = counter
            if register is None or register == counter:
                continue
            shift = register - counter
            by_shift = site_bosons.setdefault(xi, {})
            previous = by_shift.get(shift)
            inherited = 0.0
            if previous:
                inherited = site_decay_product(previous[0], abs(shift), now - previous[1])
            bosons[shift] = (inherited, now)
            q = counter / tau
            by_shift[shift] = (q, now)
            if abs(shift * q) >= 1.0:
                overdriven += 1
            counter = register
            created += 1
        finals.append(xi)
        created_counts.append(created)
        final_p_effs.append(p_eff)
    lattice.ticks, lattice.overdriven_events = now, overdriven

    emissions = {
        "source": np.array(sources, dtype=np.int64),
        "final_xi": np.array(finals, dtype=np.int64),
        "bosons_created": np.array(created_counts, dtype=np.int64),
        "final_p_eff": np.array(final_p_effs, dtype=float),
    }
    return TrainingRun(Histogram.on_cone(emissions["final_xi"], config.cone), lattice, emissions)


# ---------------------------------------------------------------------------
# bound geometries (a single long walk steered by its own memory)

_RING_FORCE_SLACK = 1e-9  # rounding allowance on |ring_memory_force(q, period)| <= 1/period


def ring_counters(config: ScenarioConfig) -> Iterator[np.ndarray]:
    """Yield the int64 counters of one ring or box walk, ``walker._BLOCK`` ticks at a time.

    The t-th value yielded is the counter after tick t+1, on a ring of
    ``config.period`` sites; the walker's site is the counter wrapped onto
    [0, period), folded back into [0, period/2] for a box.  Every block
    holds ``_BLOCK`` ticks but the last, which holds the rest.

    |ring_memory_force| is at most 1/period, so every p_eff the walk can
    reach lies in the bracket clamp(p0 -/+ 1/period), and
    ``walker._bracket_moves`` decides in one array pass each tick whose
    move is the same across it.  Only the open ticks are stepped one by
    one, with ``move`` at their own p_eff from the counter so far, so the
    counters are exactly those of stepping every tick.
    """
    rng = np.random.default_rng(config.seed)
    p0 = float(config.p)
    period = config.period
    reach = 1.0 / period + _RING_FORCE_SLACK
    p_lo, p_hi = max(-1.0, p0 - reach), min(1.0, p0 + reach)
    counter = 0
    for start in range(0, config.n_steps, _BLOCK):
        u = rng.random(min(_BLOCK, config.n_steps - start))
        moves, open_ = _bracket_moves(u, p_lo, p_hi)
        ticks = np.flatnonzero(open_)
        decided = np.cumsum(moves)[ticks]  # decided moves before each open tick (its own is 0)
        taus = (ticks + start + 1).tolist()
        gain = counter  # counter before the block plus the open moves taken so far
        taken = []
        for tau, u_t, known in zip(taus, u[ticks].tolist(), decided.tolist()):
            q = (gain + known) / tau if tau > 1 else p0  # no self-history before the walk moves
            p_eff = max(-1.0, min(1.0, p0 - ring_memory_force(q, period)))
            v = move(u_t, p_eff)
            gain += v
            taken.append(v)
        moves[ticks] = taken
        counters = np.cumsum(moves, out=moves)  # in place: the block holds one int64 array
        counters += counter
        counter = int(counters[-1])
        yield counters


def _pairwise_mean(chunks: Iterable[np.ndarray], n: int) -> float:
    """``np.mean`` of the ``n`` float64 values ``chunks`` yields in order, bit for bit.

    numpy sums a run of k > 128 values pairwise: it splits the run at k//2
    rounded down to a multiple of 8 and adds the sums of the two halves.
    This walks the same tree and hands each subtree of at most
    ``_BLOCK`` values to one ``np.add.reduce``, which sums it as the
    whole array's reduce would, so it holds at most one block of values
    whatever the chunk sizes.
    """
    chunks = iter(chunks)
    held = np.empty(0)

    def take(m: int) -> np.ndarray:
        nonlocal held
        parts = []
        while len(held) < m:
            parts.append(held)
            m -= len(held)
            held = next(chunks)
        parts.append(held[:m])
        held = held[m:]
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def total(m: int):
        if m <= _BLOCK:
            return np.add.reduce(take(m))
        half = m // 2 - m // 2 % 8
        return total(half) + total(m - half)

    return float(total(n) / n)


def _locked_summary(blocks: Iterable[np.ndarray], n: int):
    """(mean, centers, counts) of counter/tau over ticks n//2 ... n-1 of the counters ``blocks`` yields.

    ``blocks`` yields the ``n`` counters of one walk in order.  The mean is
    ``np.mean`` of the locked half and the counts one ``np.histogram`` of
    it in cells 0.02 wide centred on -1, -0.98, ..., 1, both bit for bit,
    with one block in memory at a time: each locked block's counters are
    divided against float taus, which are exact below 2**53, and binned as
    soon as they are written, and ``_pairwise_mean`` sums them in
    ``np.mean``'s order.
    """
    width = 0.02
    edges = np.arange(-1.0 - width / 2.0, 1.0 + width, width)
    counts = np.zeros(len(edges) - 1, dtype=np.int64)
    first = n // 2

    def locked_p_bar() -> Iterator[np.ndarray]:
        tick = 0
        for counters in blocks:
            skip = min(max(first - tick, 0), len(counters))
            if skip < len(counters):
                taus = np.arange(tick + skip + 1, tick + len(counters) + 1, dtype=float)
                p_bar = counters[skip:] / taus
                np.add(counts, np.histogram(p_bar, bins=edges)[0], out=counts)
                yield p_bar
            tick += len(counters)

    mean = _pairwise_mean(locked_p_bar(), n - first)
    return mean, (edges[:-1] + edges[1:]) / 2.0, counts


def run_ring(config: ScenarioConfig) -> tuple[float, np.ndarray, np.ndarray]:
    """Locked-half summary of one walk steered by the ring memory force of ``config.period`` sites.

    A ring of ``ell`` sites is equivalent to an infinite train of equal
    sources spaced ell apart, so the memory force on a walker at sample
    momentum q is the converged pairwise sum ``ring_memory_force(q, ell)``.
    The walk locks onto the quantized ray (2/ell) * round(p*ell/2) and the
    long-run mean of counter/tau settles there.

    A box of ``ell`` sites between reflecting walls is the same walk on a
    ring of 2*ell: a specular bounce negates the walker's preparation,
    carried boson momenta and counter, which is the statistics of a free
    walk among mirror images spaced 2*ell apart.  Its positions fold back
    into [0, ell], and its stable rays sit at multiples of 1/ell.

    Returns ``_locked_summary``'s (mean, centers, counts) of counter/tau
    over the second half of the walk.  The summary consumes each block of
    ``ring_counters`` as it comes, so a run holds one block whatever its
    tick count.
    """
    if config.kind in SLIT_KINDS:
        raise ValueError("run_ring needs a ring or box config")
    return _locked_summary(ring_counters(config), config.n_steps)
