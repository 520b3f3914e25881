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
stored counter and the walker's counter are exchanged.

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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .stats import Histogram
from .walker import ParticleState, _run_shards
from .scenarios import (
    ScenarioConfig,
    _memory_force,
    _pair_terms,
    _solve_rays,
    _two_source_terms,
    ring_memory_force,
)


# ---------------------------------------------------------------------------
# boson records and decay laws


@dataclass(frozen=True)
class BosonKey:
    """Identity of an interference event: the two exchanged counters."""

    counter: int
    register: int

    @property
    def shift(self) -> int:
        return self.register - self.counter

    @property
    def delta(self) -> int:
        return abs(self.register - self.counter)


@dataclass
class SiteBoson:
    """Boson resident at a site; ``w`` decays toward w0 * sinc(delta * q)."""

    w0: float
    dw0: float
    w: float
    age: int = 0

    @property
    def overdriven(self) -> bool:
        """True when |dw0| >= 1 and early decay factors change sign."""
        return abs(self.dw0) >= 1.0


@dataclass
class ParticleBoson:
    """Boson carried by a walker; its momentum is subtracted from p0."""

    p: float
    age: int = 0


def decay_site_boson(boson: SiteBoson) -> SiteBoson:
    """One tick of site-boson decay: w *= 1 - (dw0/age')**2, age' = age + 1."""
    age = boson.age + 1
    factor = 1.0 - (boson.dw0 / age) ** 2
    return SiteBoson(w0=boson.w0, dw0=boson.dw0, w=boson.w * factor, age=age)


def decay_particle_boson(boson: ParticleBoson) -> ParticleBoson:
    """One tick of carried-boson damping: p *= 1 - 1/(2*age'), age' = age + 1."""
    age = boson.age + 1
    return ParticleBoson(p=boson.p * (1.0 - 1.0 / (2.0 * age)), age=age)


def site_decay_product(q: float, delta: int, n_terms: int) -> float:
    """Value of q * prod_{j=1..n_terms} (1 - (delta*q)**2 / j**2)."""
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    j = np.arange(1, n_terms + 1, dtype=float)
    x = delta * q
    return float(q * np.prod(1.0 - (x / j) ** 2))


def expected_site_momentum(q, delta: int):
    """Steady-state site-boson momentum q * sinc(delta*q) = sin(pi delta q)/(pi delta)."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    q_arr = np.asarray(q, dtype=float)
    out = q_arr * np.sinc(delta * q_arr)
    if np.isscalar(q) or np.ndim(q) == 0:
        return float(out)
    return out


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


def expected_particle_boson(p1: float, p2: float, q, delta: int):
    """Steady-state carried-boson momentum sqrt(p1 p2) * q * sinc(delta q)."""
    return math.sqrt(p1 * p2) * np.asarray(expected_site_momentum(q, delta))


def effective_momentum(particle: ParticleState) -> float:
    """Preparation minus carried boson momenta, clamped to [-1, 1]."""
    total = particle.p0 - sum(b.p for b in particle.bosons.values())
    return max(-1.0, min(1.0, total))


def mean_effective_momentum(p: float, p1: float, p2: float, q, delta: int):
    """Ensemble mean of the effective momentum on ray q for two sources."""
    return p - _memory_force(q, *_two_source_terms(p1, p2, delta))


# ---------------------------------------------------------------------------
# the visit rule (training-mode state transition at one site)


@dataclass
class SiteState:
    """Register plus resident bosons of one site, keyed by counter shift."""

    register: int | None = None
    bosons: dict = field(default_factory=dict)


def visit(site: SiteState, particle: ParticleState) -> BosonKey | None:
    """Process a walker's arrival at a site; returns the created pair key.

    First visit stores the counter and creates nothing.  A matching
    register is rewritten (same value) and creates nothing.  Otherwise a
    boson pair is created: the walker receives the momentum of the
    previously resident same-shift boson (0 if none), the site boson
    restarts at q = counter/tau, and register and counter are exchanged.
    Site bosons must already be decayed to the current tick; the walker
    must have tau >= 1.
    """
    if particle.tau < 1:
        raise ValueError("visits start after the first tick; tau must be >= 1")
    lam = particle.counter
    if site.register is None:
        site.register = lam
        return None
    shift = site.register - lam
    if shift == 0:
        site.register = lam
        return None
    key = BosonKey(counter=lam, register=site.register)
    previous = site.bosons.get(shift)
    inherited = previous.w if previous is not None else 0.0
    particle.bosons[shift] = ParticleBoson(p=inherited, age=0)
    q = lam / particle.tau
    site.bosons[shift] = SiteBoson(w0=q, dw0=abs(shift) * q, w=q, age=0)
    site.register, particle.counter = lam, key.register
    return key


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
    settles at the root of the ray equation for its preparation, and the
    transient before settling is negligible next to the run length.  The
    walk is therefore sampled at the locked propensity; its displacement
    after n_steps ticks is exactly Binomial(2*n_steps, (1+q)/2) shifted
    by -n_steps, since one trinomial tick compounds two half-tick coin
    flips.
    """
    sites = np.array([s for s, _ in sources], dtype=np.int64)
    weights = np.array([w for _, w in sources], dtype=float)

    src = rng.choice(len(sources), size=n_particles, p=weights)
    p0 = rng.uniform(-1.0, 1.0, n_particles)
    amps, deltas = _pair_terms(sources)
    q_star = _solve_rays(p0, amps, deltas)
    counter = rng.binomial(2 * n_steps, (1.0 + q_star) / 2.0) - n_steps
    xi = sites[src] + counter
    return xi, p0, counter, q_star


@dataclass
class RayDiagnostics:
    """Final-tick per-particle fields from a trained run.

    ``p_bar`` is the sample momentum counter/n_steps; ``p_eff`` is the
    locked effective propensity, preparation minus the converged boson
    force evaluated on the particle's ray.
    """

    xi: np.ndarray
    p0: np.ndarray
    counter: np.ndarray
    n_steps: int
    boson_sum: np.ndarray = None

    @property
    def p_bar(self) -> np.ndarray:
        return self.counter / self.n_steps

    @property
    def p_eff(self) -> np.ndarray:
        return np.clip(self.p0 - self.boson_sum, -1.0, 1.0)


def run_trained_slits(
    config: ScenarioConfig,
    seed=None,
    shards: int = 1,
    threads: int = 1,
    return_rays: bool = False,
):
    """Trained-mode interference run; returns a position Histogram.

    With ``return_rays`` also returns per-particle final diagnostics for
    checking the mean effective momentum against its closed form.
    """
    config.validate()
    if config.kind not in ("two-slit", "multi-slit"):
        raise ValueError("run_trained_slits handles slit scenarios only")
    src = list(config.sources)
    parts = _run_shards(
        lambda n, rng: _trained_shard(src, n, config.n_steps, rng),
        config.n_particles,
        config.seed if seed is None else seed,
        shards,
        threads,
    )
    xi, p0, counter, q_star = (np.concatenate(column) for column in zip(*parts))
    hist = Histogram.from_samples(xi)
    if not return_rays:
        return hist
    diag = RayDiagnostics(
        xi=xi,
        p0=p0,
        counter=counter,
        n_steps=config.n_steps,
        boson_sum=p0 - q_star,
    )
    return hist, diag


# ---------------------------------------------------------------------------
# training mode (sequential emissions against a persistent lattice)


class _LazySiteBoson:
    """Site boson advanced on demand; equivalent to one decay per tick."""

    __slots__ = ("w0", "dw0", "w", "created", "age")

    def __init__(self, w0: float, dw0: float, created: int):
        self.w0 = w0
        self.dw0 = dw0
        self.w = w0
        self.created = created
        self.age = 0

    def advance(self, target_age: int) -> float:
        if target_age > self.age:
            ages = np.arange(self.age + 1, target_age + 1, dtype=float)
            self.w *= float(np.prod(1.0 - (self.dw0 / ages) ** 2))
            self.age = target_age
        return self.w


@dataclass
class TrainingLattice:
    """Persistent lattice memory accumulated over training emissions."""

    registers: dict = field(default_factory=dict)
    site_bosons: dict = field(default_factory=dict)
    ticks: int = 0
    overdriven_events: int = 0

    def boson_snapshot(self):
        """(site, shift, w, w0) for every live site boson, decayed to now."""
        rows = []
        for site, by_shift in sorted(self.site_bosons.items()):
            for shift, boson in sorted(by_shift.items()):
                w = boson.advance(self.ticks - boson.created)
                rows.append((site, shift, w, boson.w0))
        return rows


@dataclass
class TrainingRun:
    positions: Histogram
    lattice: TrainingLattice
    bosons_created: int


def run_training_slits(
    config: ScenarioConfig,
    seed=None,
    lattice: TrainingLattice | None = None,
    diagnostics=None,
) -> TrainingRun:
    """Sequential training run: every emission walks the shared lattice.

    Emissions follow each other with no idle ticks, so site bosons keep
    decaying on a single global clock.  ``diagnostics``, if given, is a
    path receiving one CSV row per emission.
    """
    config.validate()
    if config.kind not in ("two-slit", "multi-slit"):
        raise ValueError("run_training_slits handles slit scenarios only")
    rng = np.random.default_rng(config.seed if seed is None else seed)
    lattice = lattice if lattice is not None else TrainingLattice()
    damp = particle_damping(config.n_steps)
    sites = [s for s, _ in config.sources]
    weights = [w for _, w in config.sources]

    finals = np.empty(config.n_particles, dtype=np.int64)
    created_total = 0
    diag_writer = None
    diag_fh = None
    if diagnostics is not None:
        diag_fh = open(diagnostics, "w", newline="")
        diag_writer = csv.writer(diag_fh)
        diag_writer.writerow(["emission", "source", "final_xi", "bosons_created", "final_p_eff"])

    try:
        registers = lattice.registers
        site_bosons = lattice.site_bosons
        n_steps = config.n_steps
        damp_list = damp.tolist()
        for emission in range(config.n_particles):
            src = int(rng.choice(len(sites), p=weights))
            xi = sites[src]
            counter = 0
            p0 = rng.uniform(-1.0, 1.0)
            uniforms = rng.random(n_steps)
            slots: dict[int, tuple[float, int]] = {}
            created = 0
            p_eff = p0
            g = lattice.ticks

            for tau in range(1, n_steps + 1):
                g += 1
                boson_sum = 0.0
                for p_init, born in slots.values():
                    age = g - born - 1
                    boson_sum += p_init * damp_list[age if age < n_steps else n_steps]
                p_eff = p0 - boson_sum
                if p_eff > 1.0:
                    p_eff = 1.0
                elif p_eff < -1.0:
                    p_eff = -1.0
                up = ((1.0 + p_eff) / 2.0) ** 2
                move_cut = up + (1.0 - p_eff * p_eff) / 2.0
                u = uniforms[tau - 1]
                v = 1 if u < up else (0 if u < move_cut else -1)
                xi += v
                counter += v

                reg = registers.get(xi)
                if reg is None or reg == counter:
                    registers[xi] = counter
                    continue
                shift = reg - counter
                by_shift = site_bosons.setdefault(xi, {})
                previous = by_shift.get(shift)
                inherited = previous.advance(g - previous.created) if previous else 0.0
                slots[shift] = (inherited, g)
                q = counter / tau
                boson = _LazySiteBoson(w0=q, dw0=abs(shift) * q, created=g)
                if abs(boson.dw0) >= 1.0:
                    lattice.overdriven_events += 1
                by_shift[shift] = boson
                registers[xi] = counter
                counter = reg
                created += 1
            lattice.ticks = g

            finals[emission] = xi
            created_total += created
            if diag_writer is not None:
                diag_writer.writerow(
                    [emission, sites[src], xi, created, format(p_eff, ".17g")]
                )
    finally:
        if diag_fh is not None:
            diag_fh.close()

    return TrainingRun(
        positions=Histogram.from_samples(finals),
        lattice=lattice,
        bosons_created=created_total,
    )


# ---------------------------------------------------------------------------
# bound geometries (a single long walk steered by its own memory)


@dataclass
class BoundRun:
    """Trace of a ring or box walk: sample momentum and applied propensity.

    ``p_bar[t]`` is counter/tau after tick t+1; ``p_eff[t]`` is the
    effective propensity used for that tick.  ``mean_p_bar`` averages the
    sample momentum over the second half of the run, after the lock-in
    transient.
    """

    p_bar: np.ndarray
    p_eff: np.ndarray
    mean_p_bar: float
    positions: np.ndarray | None = None

    def momentum_histogram(self, bin_width: float = 0.02):
        """(centers, counts) histogram of second-half sample momenta."""
        half = len(self.p_bar) // 2
        edges = np.arange(-1.0 - bin_width / 2.0, 1.0 + bin_width, bin_width)
        counts, _ = np.histogram(self.p_bar[half:], bins=edges)
        centers = (edges[:-1] + edges[1:]) / 2.0
        return centers, counts


def _bound_walk(config: ScenarioConfig, seed, period: int) -> BoundRun:
    """One walk steered by the ring memory force of circumference ``period``.

    The loop only stores the counter after each tick and the propensity
    applied on it; ``p_bar`` follows from the counters afterwards, and
    ``positions`` is the counter wrapped onto [0, period).
    """
    rng = np.random.default_rng(config.seed if seed is None else seed)
    p0 = float(config.p)
    n_steps = config.n_steps
    counters = np.empty(n_steps, dtype=np.int64)
    p_eff_trace = np.empty(n_steps)
    counter = 0
    for tau, u in enumerate(rng.random(n_steps).tolist(), start=1):
        q = counter / tau if tau > 1 else p0  # no self-history before the walk moves
        p_eff = max(-1.0, min(1.0, p0 - ring_memory_force(q, period)))
        p_eff_trace[tau - 1] = p_eff
        up = ((1.0 + p_eff) / 2.0) ** 2
        move_cut = up + (1.0 - p_eff * p_eff) / 2.0
        counter += 1 if u < up else (0 if u < move_cut else -1)
        counters[tau - 1] = counter
    p_bar = counters / np.arange(1, n_steps + 1)
    return BoundRun(
        p_bar=p_bar,
        p_eff=p_eff_trace,
        mean_p_bar=float(p_bar[n_steps // 2 :].mean()),
        positions=counters % period,
    )


def run_ring(config: ScenarioConfig, seed=None) -> BoundRun:
    """Walk a ring of ``ell`` sites; the counter wraps as xi = counter mod ell.

    The closed path is equivalent to an infinite train of equal sources
    spaced ell apart, so the memory force on a walker at sample momentum
    q is the converged pairwise sum ``ring_memory_force(q, ell)``.  The
    walk locks onto the quantized ray (2/ell) * round(p*ell/2) and the
    long-run mean of counter/tau settles there.
    """
    config.validate()
    if config.kind != "ring":
        raise ValueError("run_ring needs a ring config")
    return _bound_walk(config, seed, config.ell)


def run_box(config: ScenarioConfig, seed=None) -> BoundRun:
    """Walk a segment of ``ell`` sites bounded by perfectly reflecting walls.

    A specular bounce negates the walker's preparation, carried boson
    momenta, and displacement counter and restarts its clock, which makes
    successive traversals interfere at path differences that are multiples
    of 2*ell.  That is the same statistics as a free walk among mirror
    images spaced 2*ell apart, so the run unfolds the reflections: the
    walk is driven by the ring force at circumference 2*ell (which is
    ``box_memory_force``) and the position is folded back into [0, ell].
    Stable rays sit at multiples of 1/ell, half the ring spacing.
    """
    config.validate()
    if config.kind != "box":
        raise ValueError("run_box needs a box config")
    period = 2 * config.ell
    run = _bound_walk(config, seed, period)
    run.positions = np.minimum(run.positions, period - run.positions)
    return run


# ---------------------------------------------------------------------------
# dispatch


@dataclass
class ScenarioResult:
    positions: Histogram | None = None
    bound: BoundRun | None = None
    lattice: TrainingLattice | None = None


def run_interference(
    config: ScenarioConfig,
    mode: str = "trained",
    seed=None,
    shards: int = 1,
    threads: int = 1,
    diagnostics=None,
) -> ScenarioResult:
    """Run any interference scenario; see the mode-specific runners."""
    config.validate()
    if config.kind in ("two-slit", "multi-slit"):
        if mode == "trained":
            hist = run_trained_slits(config, seed=seed, shards=shards, threads=threads)
            return ScenarioResult(positions=hist)
        if mode == "training":
            run = run_training_slits(config, seed=seed, diagnostics=diagnostics)
            return ScenarioResult(positions=run.positions, lattice=run.lattice)
        raise ValueError(f"unknown mode {mode!r}")
    if config.kind == "ring":
        return ScenarioResult(bound=run_ring(config, seed=seed))
    return ScenarioResult(bound=run_box(config, seed=seed))
