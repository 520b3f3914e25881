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
persistent lattice, exactly as above.  Trained mode treats the lattice
memory as fully converged and skips its state: each carried boson is
held at its steady-state expectation sqrt(P_i P_j) * q * sinc(delta_ij
* q) (the damping series of a boson refreshed at rate P_i * P_j sums to
sqrt(P_i P_j) times the steady site value q * sinc(delta * q)).  Under
that converged force a walker's effective propensity settles at the root
of the ray equation q + sum_pairs 2*sqrt(Pi Pj)*sin(pi*d*q)/(pi*d) = p0
for its preparation p0, so trained runs solve that root per particle and
sample the walk at the locked propensity; the only randomness left is
the source draw, the preparation draw, and the step noise itself.

A bound walk (ring or box) is one long walk steered by its own converged
memory.  One runner, ``run_ring``, walks both: a box of ell sites is a
ring of 2*ell whose positions fold back into [0, ell].  It stores only
the counter after each tick; sample momenta and positions follow from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .stats import Histogram
from .walker import _run_shards, endpoint_displacement, move
from .scenarios import ScenarioConfig, _memory_force, _pair_terms, _solve_rays, ring_memory_force


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


def site_momentum_series(q: float, delta: int, refresh_rate: float, n_terms: int) -> float:
    """Expected site-boson momentum when refreshed at a constant rate.

    refresh_rate * sum_{age=0..n_terms} (1-refresh_rate)**age * w(age); the
    rate drops out in the limit, leaving q * sinc(delta * q).
    """
    if not 0.0 < refresh_rate < 1.0:
        raise ValueError("refresh_rate must lie in (0, 1)")
    ages = np.arange(0, n_terms + 1, dtype=float)
    x = delta * q
    factors = np.ones(n_terms + 1)
    j = np.arange(1, n_terms + 1, dtype=float)
    factors[1:] = 1.0 - (x / j) ** 2
    w = q * np.cumprod(factors)
    weights = refresh_rate * (1.0 - refresh_rate) ** ages
    return float(np.sum(weights * w))


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
    damp = particle_damping(k_max)
    k = np.arange(0, k_max + 1, dtype=float)
    return float(p_pair * np.sum((1.0 - p_pair) ** k * damp))


def effective_momentum(particle: ParticleState, damp, now: int) -> float:
    """Preparation minus carried boson momenta at clock ``now``, clamped to [-1, 1].

    A carried boson born at tick b with momentum p is worth p * damp[now - b],
    ``damp`` being the ``particle_damping`` table.
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

    def boson_snapshot(self):
        """(site, shift, w, w0) for every live site boson, valued at the current tick."""
        return [
            (site, shift, site_decay_product(q, abs(shift), self.ticks - born), q)
            for site, by_shift in sorted(self.site_bosons.items())
            for shift, (q, born) in sorted(by_shift.items())
        ]


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


def _trained_shard(
    sources: list[tuple[int, float]],
    n_particles: int,
    n_steps: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One shard of trained-mode walks; returns (xi, p0, counter, q_star).

    With the lattice memory converged, a walker's effective propensity
    settles at the root q* of the ray equation for its preparation.
    Trained mode samples the locked-ray shortcut: the whole walk at q*,
    in one ``endpoint_displacement`` draw per particle.  That is the law
    trained mode claims, and it differs from a tick-by-tick walk under
    the converged memory, whose force pulls each walker back toward its
    ray, so its endpoints spread less around q* * n_steps.
    """
    sites = np.array([s for s, _ in sources], dtype=np.int64)
    weights = np.array([w for _, w in sources], dtype=float)

    src = rng.choice(len(sources), size=n_particles, p=weights)
    p0 = rng.uniform(-1.0, 1.0, n_particles)
    amps, deltas = _pair_terms(sources)
    q_star = _solve_rays(p0, amps, deltas)
    counter = endpoint_displacement(rng, n_steps, q_star)
    xi = sites[src] + counter
    return xi, p0, counter, q_star


def run_trained_slits(config: ScenarioConfig, shards: int = 1, threads: int = 1) -> Histogram:
    """Trained-mode interference run; returns the Histogram of final sites on ``config.cone``.

    Each shard is one ``_trained_shard`` call; the final sites of all
    shards are binned together.
    """
    if config.kind not in ("two-slit", "multi-slit"):
        raise ValueError("run_trained_slits handles slit scenarios only")
    src = list(config.sources)
    parts = _run_shards(
        lambda n, rng: _trained_shard(src, n, config.n_steps, rng),
        config.n_particles,
        config.seed,
        shards,
        threads,
    )
    return Histogram.on_cone(np.concatenate([xi for xi, _, _, _ in parts]), config.cone)


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
    """
    if config.kind not in ("two-slit", "multi-slit"):
        raise ValueError("run_training_slits handles slit scenarios only")
    rng = np.random.default_rng(config.seed)
    lattice = TrainingLattice()
    damp = particle_damping(config.n_steps).tolist()
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
        particle = ParticleState(xi=sites[src], p0=rng.uniform(-1.0, 1.0))
        created = 0
        for u in rng.random(config.n_steps).tolist():
            p_eff = effective_momentum(particle, damp, lattice.ticks)
            v = move(u, p_eff)
            particle.xi += v
            particle.counter += v
            particle.tau += 1
            lattice.ticks += 1
            if visit(lattice, particle) is not None:
                created += 1
        for column, value in zip(emissions.values(), (sites[src], particle.xi, created, p_eff)):
            column[emission] = value

    return TrainingRun(Histogram.on_cone(emissions["final_xi"], config.cone), lattice, emissions)


# ---------------------------------------------------------------------------
# bound geometries (a single long walk steered by its own memory)


@dataclass
class BoundRun:
    """Counter trace of a ring or box walk; every other trace follows from it.

    ``counters[t]`` is the displacement counter after tick t+1, on a ring
    of ``period`` sites.  ``p_bar[t]`` is the sample momentum
    counter/tau after tick t+1, and ``mean_p_bar`` averages it over the
    second half of the run, after the lock-in transient.
    ``positions[t]`` is the walker's site after tick t+1: the counter
    wrapped onto [0, period), and folded back into [0, period/2] when
    ``folded`` (a box).
    """

    counters: np.ndarray
    period: int
    folded: bool

    @property
    def p_bar(self) -> np.ndarray:
        return self.counters / np.arange(1, len(self.counters) + 1)

    @property
    def mean_p_bar(self) -> float:
        return float(self.p_bar[len(self.counters) // 2 :].mean())

    @property
    def positions(self) -> np.ndarray:
        wrapped = self.counters % self.period
        return np.minimum(wrapped, self.period - wrapped) if self.folded else wrapped

    def momentum_histogram(self):
        """(centers, counts) histogram of second-half sample momenta."""
        half = len(self.counters) // 2
        width = 0.02
        edges = np.arange(-1.0 - width / 2.0, 1.0 + width, width)
        counts, _ = np.histogram(self.p_bar[half:], bins=edges)
        centers = (edges[:-1] + edges[1:]) / 2.0
        return centers, counts


def run_ring(config: ScenarioConfig) -> BoundRun:
    """One walk steered by the ring memory force of circumference ``config.period``.

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
    """
    if config.kind not in ("ring", "box"):
        raise ValueError("run_ring needs a ring or box config")
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
    return BoundRun(counters, period, folded=config.kind == "box")
