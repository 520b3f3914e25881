"""Tests for the lattice-memory machinery: decay laws, visits, runs."""

import io
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import oracles
import pytest

from latticemc.qforce import (
    ParticleState,
    TrainingLattice,
    effective_momentum,
    expected_site_momentum,
    particle_boson_series,
    particle_damping,
    ring_counters,
    run_ring,
    run_trained_slits,
    run_training_slits,
    site_decay_product,
    site_momentum_series,
    visit,
)
from latticemc import cli, qforce, scenarios, walker
from latticemc.lattice import light_cone
from latticemc.scenarios import (
    ScenarioConfig,
    _memory_force,
    _pair_terms,
    finite_time_slit_density,
    multi_slit_density,
    ring_steady_momentum,
    two_slit_config,
)
from latticemc.stats import Histogram, compare, write_csv


# ---------------------------------------------------------------------------
# decay laws


def test_site_boson_decay_tick_math():
    # one and two ticks of decay by hand: q (1 - x**2) (1 - x**2/4), x = delta*q
    assert site_decay_product(0.4, 2, 0) == 0.4
    assert site_decay_product(0.4, 2, 1) == pytest.approx(0.4 * (1.0 - 0.64))
    assert site_decay_product(0.4, 2, 2) == pytest.approx(0.4 * (1.0 - 0.64) * (1.0 - 0.64 / 4.0))


def test_site_boson_overdriven_flag():
    # a pair with |shift * q| >= 1 has early decay factors that change sign
    for q_tau, counter, overdriven in [(5, 3, True), (10, 3, False)]:
        lattice = TrainingLattice(registers={0: 5}, ticks=1)
        assert visit(lattice, ParticleState(tau=q_tau, counter=counter)) == 2
        assert lattice.overdriven_events == int(overdriven)


def test_particle_boson_damping_ticks():
    # a carried boson of momentum 1 is worth 1/2 one tick after its birth
    # tick and 3/8 two ticks after it
    damp = particle_damping(2)
    particle = ParticleState(bosons={3: (-1.0, 10)})
    assert effective_momentum(particle, damp, 10) == 1.0
    assert effective_momentum(particle, damp, 11) == pytest.approx(0.5)
    assert effective_momentum(particle, damp, 12) == pytest.approx(0.375)


def test_particle_damping_table():
    damp = particle_damping(12)
    assert damp[0] == 1.0
    assert damp[1] == pytest.approx(0.5)
    assert damp[2] == pytest.approx(0.375)
    for k in range(13):
        assert damp[k] == pytest.approx(math.comb(2 * k, k) / 4.0**k, rel=1e-12)


def test_particle_damping_stirling_falloff():
    k = 10**4
    damp = particle_damping(k)
    assert damp[k] * math.sqrt(math.pi * k) == pytest.approx(1.0, abs=1e-3)


def test_particle_damping_rejects_negative():
    with pytest.raises(ValueError):
        particle_damping(-1)


def test_site_decay_product_reaches_sinc_limit():
    for q in (0.05, 0.2, 0.45):
        for delta in (1, 2):
            if abs(delta * q) > 0.9:
                continue
            limit = expected_site_momentum(q, delta)
            assert site_decay_product(q, delta, 10**5) == pytest.approx(limit, abs=1e-4)


def test_site_decay_product_matches_iterated_decay():
    q, delta, n = 0.3, 2, 50
    w = q
    for age in range(1, n + 1):
        w *= 1.0 - (delta * q / age) ** 2
    assert site_decay_product(q, delta, n) == pytest.approx(w, rel=1e-12)


DECAY_SPANS = sorted(
    set(range(0, 60)) | {99, 100, 101, 999, 1000, 1001, 4321, 10**4, 54321, 10**5}
)


@pytest.mark.parametrize("q, delta", [
    (0.0, 2), (0.3, 0),                  # x = 0
    (0.05, 1), (0.37, 2), (-0.37, 2),    # |x| < 1, either sign of q
    (0.5, 2), (1.0, 2), (-0.75, 4),      # integer x: exactly 0 from tick |x| on
    (0.6, 2), (-0.9, 3), (1.1, 2),       # overdriven |x| >= 1
    (0.85, 30), (-0.41, 100),            # spans shorter than |x| up to 25 and 41 ticks
])
def test_site_decay_product_matches_direct_product(q, delta):
    # the closed form against the product multiplied out tick by tick
    x = delta * q
    j = np.arange(1, DECAY_SPANS[-1] + 1, dtype=float)
    direct = np.concatenate(([q], q * np.cumprod(1.0 - (x / j) ** 2)))
    for n in DECAY_SPANS:
        got = site_decay_product(q, delta, n)
        assert got == pytest.approx(direct[n], rel=1e-10, abs=1e-12), n
    if x == round(x) and x:
        assert all(site_decay_product(q, delta, n) == 0.0 for n in DECAY_SPANS if n >= abs(x))


@pytest.mark.parametrize("q, delta", [(0.9999999999999999, 3), (math.nextafter(1.5, 2.0), 2)])
def test_site_decay_product_near_a_zero_factor(q, delta):
    # x = delta*q lies a rounding step from an integer, so one factor is
    # about 1e-16; the exact rational product of the same float x fixes
    # the value to full relative precision on both sides of that factor
    x = Fraction(delta * q)
    assert x != round(x)
    for n in (1, 2, 3, 10, 20, 21, 22, 40):
        exact = Fraction(q) * math.prod(1 - x * x / (j * j) for j in range(1, n + 1))
        assert site_decay_product(q, delta, n) == pytest.approx(float(exact), rel=1e-12, abs=0), n


def test_site_decay_product_past_float_range():
    # |x| in the hundreds: the product exceeds the float range a few ticks
    # after |x|; it is inf with the product's sign, or exactly 0 once an
    # integer |x| has been passed
    assert site_decay_product(1.0, 600, 620) == 0.0
    assert site_decay_product(0.5005, 1200, 640) == math.inf
    assert site_decay_product(-0.5005, 1200, 640) == -math.inf
    assert site_decay_product(0.5005, 1200, 10**10) == pytest.approx(
        expected_site_momentum(0.5005, 1200), rel=1e-3
    )


def test_site_decay_product_rejects_negative_span():
    with pytest.raises(ValueError):
        site_decay_product(0.3, 2, -1)


def _boson_snapshot(lattice):
    """(site, shift, w, w0) for every live site boson, valued at the lattice's current tick."""
    return [
        (site, shift, site_decay_product(q, abs(shift), lattice.ticks - born), q)
        for site, by_shift in sorted(lattice.site_bosons.items())
        for shift, (q, born) in sorted(by_shift.items())
    ]


def test_idle_boson_is_valued_in_constant_memory():
    # a site boson idle for 10**7 ticks, valued by a snapshot and by an
    # inheriting visit, without memory in proportion to its idle span
    idle = 10**7
    lattice = TrainingLattice(registers={0: 5}, site_bosons={0: {2: (0.3, 0)}}, ticks=idle)
    particle = ParticleState(tau=10, counter=3)
    tracemalloc.start()
    try:
        rows = _boson_snapshot(lattice)
        assert visit(lattice, particle) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    value = site_decay_product(0.3, 2, idle)
    assert rows == [(0, 2, value, 0.3)]
    assert particle.bosons[2] == (value, idle)
    assert value == pytest.approx(expected_site_momentum(0.3, 2), rel=1e-6)


def test_site_momentum_series_rate_independent():
    # the refresh rate biases the mean toward young bosons by O(rate), so
    # the series converges to the sinc limit as the rate goes to zero
    limit = expected_site_momentum(0.25, 2)
    errors = [
        abs(site_momentum_series(0.25, 2, rate, 10**5) - limit)
        for rate in (0.2, 0.03, 0.003)
    ]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-3
    with pytest.raises(ValueError):
        site_momentum_series(0.25, 2, 0.0, 10)


def test_particle_boson_series_sums_to_sqrt():
    for pair in (0.01, 0.09, 0.25):
        partial = particle_boson_series(pair, 10**5)
        assert partial == pytest.approx(math.sqrt(pair), abs=1e-4)
    with pytest.raises(ValueError):
        particle_boson_series(0.0, 10)
    with pytest.raises(ValueError):
        particle_boson_series(1.5, 10)


def test_expected_particle_boson_value():
    # the carried boson's steady value is sqrt(P1 P2) times the site value:
    # sqrt(1/4) * 0.25 * sinc(0.5) = 0.5 / (4 pi) * 2 = 1 / (4 pi)
    value = particle_boson_series(0.25, 10**5) * expected_site_momentum(0.25, 2)
    assert value == pytest.approx(0.5 / (2.0 * math.pi), abs=1e-5)


def test_effective_momentum_clamps():
    damp = particle_damping(4)
    particle = ParticleState(p0=0.9, bosons={2: (-0.5, 7)})
    assert effective_momentum(particle, damp, 7) == 1.0
    particle.bosons[2] = (0.3, 7)
    assert effective_momentum(particle, damp, 7) == pytest.approx(0.6)


def test_mean_effective_momentum_hand_value():
    # preparation minus the converged force of two equal sources on ray q
    got = 0.3 - _memory_force(0.25, *_pair_terms([(1, 0.5), (-1, 0.5)]))
    assert got == pytest.approx(0.3 - math.sin(math.pi / 2.0) / (2.0 * math.pi))


# ---------------------------------------------------------------------------
# visit rule


def test_visit_requires_started_walk():
    with pytest.raises(ValueError):
        visit(TrainingLattice(), ParticleState(tau=0))


def test_first_visit_registers_without_boson():
    lattice = TrainingLattice(ticks=4)
    particle = ParticleState(xi=7, tau=4, counter=2)
    assert visit(lattice, particle) is None
    assert lattice.registers == {7: 2}
    assert lattice.site_bosons == {} and particle.bosons == {}


def test_matching_register_rewrites_without_boson():
    lattice = TrainingLattice(registers={0: 2}, ticks=4)
    particle = ParticleState(tau=4, counter=2)
    assert visit(lattice, particle) is None
    assert lattice.registers[0] == 2 and particle.counter == 2
    assert lattice.site_bosons == {}


def test_visit_creates_pair_and_swaps():
    lattice = TrainingLattice(registers={0: 3}, ticks=9)
    particle = ParticleState(tau=4, counter=1)
    # the pair's shift is register - counter
    assert visit(lattice, particle) == 2
    # walker found no prior boson of this shift, so it carries zero momentum
    assert particle.bosons[2] == (0.0, 9)
    # the site boson restarts at the visitor's sample momentum, x = 2 * 0.25
    assert lattice.site_bosons[0][2] == (0.25, 9)
    lattice.ticks = 10
    assert _boson_snapshot(lattice) == [(0, 2, pytest.approx(0.25 * (1.0 - 0.5**2)), 0.25)]
    assert lattice.overdriven_events == 0
    # counter and register exchange values
    assert lattice.registers[0] == 1
    assert particle.counter == 3


def test_visit_inherits_previous_boson_momentum():
    lattice = TrainingLattice(registers={0: 5}, site_bosons={0: {2: (0.4, 3)}}, ticks=10)
    particle = ParticleState(tau=10, counter=3)
    assert visit(lattice, particle) == 2
    # the walker inherits the resident boson valued 7 ticks after its birth
    assert particle.bosons[2] == (pytest.approx(site_decay_product(0.4, 2, 7)), 10)
    assert particle.bosons[2][0] == pytest.approx(
        0.4 * np.prod([1.0 - (0.8 / j) ** 2 for j in range(1, 8)]), rel=1e-12
    )
    # the resident boson is replaced, not averaged
    assert lattice.site_bosons[0][2] == (pytest.approx(0.3), 10)


def test_visit_negative_shift_uses_own_slot():
    lattice = TrainingLattice(registers={0: 1}, ticks=4)
    particle = ParticleState(tau=4, counter=3)
    assert visit(lattice, particle) == -2
    assert -2 in lattice.site_bosons[0] and -2 in particle.bosons
    # |x| = 2 * 3/4 >= 1
    assert lattice.overdriven_events == 1


# ---------------------------------------------------------------------------
# trained mode


def test_trained_same_seed_is_deterministic():
    cfg = two_slit_config(delta=2, n_particles=4000, n_steps=80, seed=14)
    h1 = run_trained_slits(cfg, shards=4, threads=1)
    h2 = run_trained_slits(cfg, shards=4, threads=1)
    assert np.array_equal(h1.support, h2.support)
    assert np.array_equal(h1.counts, h2.counts)


def test_trained_threads_do_not_change_results():
    cfg = two_slit_config(delta=2, n_particles=5003, n_steps=60, seed=15)
    h1 = run_trained_slits(cfg, shards=5, threads=1)
    h2 = run_trained_slits(cfg, shards=5, threads=4)
    assert np.array_equal(h1.support, h2.support)
    assert np.array_equal(h1.counts, h2.counts)


def test_trained_single_source_is_free_motion():
    # one source means no boson pairs, so the ensemble must be the flat
    # uniform-preparation law
    cfg = two_slit_config(delta=2, p1=1.0, n_particles=40000, n_steps=50, seed=16)
    hist = run_trained_slits(cfg, shards=4)
    tau = cfg.n_steps
    assert hist.offset == -tau - 1 and hist.counts[:2].sum() == 0  # out of reach of source +1
    counts = hist.counts[2:]
    ref = np.full(len(counts), 1.0 / (2 * tau + 1))
    report = compare(counts / counts.sum(), ref, int(counts.sum()))
    assert report.passed, f"chi2 {report.chi2:.1f} critical {report.critical:.1f}"


@pytest.mark.parametrize("run", ["free-1", "free-3", "trained", "training"])
def test_runs_bin_on_their_light_cone(run):
    # every runner's histogram covers its whole cone, though 40 walks reach only part of it
    cfg = ScenarioConfig("multi-slit", 40, 30, [(-3, 0.5), (5, 0.5)], seed=4)
    assert cfg.cone == (-33, 35)
    if run == "trained":
        hist, cone = run_trained_slits(cfg), cfg.cone
    elif run == "training":
        hist, cone = run_training_slits(cfg).positions, cfg.cone
    else:
        hist = walker.run_ensemble_free(40, 30, p=0.2, xi0=7, seed=4, shards=int(run[-1]))
        cone = light_cone(7, 7, 30)
    assert hist.offset == cone[0]
    assert len(hist.counts) == cone[1] - cone[0] + 1
    assert hist.total == 40


def test_trained_light_cone():
    cfg = two_slit_config(delta=2, n_particles=3000, n_steps=40, seed=17)
    hist = run_trained_slits(cfg)
    assert hist.support.min() >= -41 and hist.support.max() <= 41


def test_trained_fringes_match_finite_time_law():
    cfg = two_slit_config(delta=2, n_particles=20000, n_steps=200, seed=18)
    hist = run_trained_slits(cfg, shards=4)
    tau, window = cfg.n_steps, 180
    edges = np.linspace(-window, window + 1, 26)
    mask = (hist.support >= -window) & (hist.support <= window)
    obs = np.zeros(25)
    np.add.at(obs, np.searchsorted(edges, hist.support[mask], side="right") - 1,
              hist.counts[mask])
    total = int(obs.sum())
    sites = np.arange(-window, window + 1)
    cell = np.searchsorted(edges, sites, side="right") - 1

    exact = finite_time_slit_density(sites, tau, cfg.sources)
    ref = np.zeros(25)
    np.add.at(ref, cell, exact)
    ref /= ref.sum()
    report = compare(obs / total, ref, total)
    assert report.passed, f"chi2 {report.chi2:.1f} critical {report.critical:.1f}"

    flat = np.diff(edges)
    flat /= flat.sum()
    negative = compare(obs / total, flat, total)
    assert not negative.passed

    sharp = multi_slit_density(sites, tau, cfg.sources)
    sharp_cells = np.zeros(25)
    np.add.at(sharp_cells, cell, sharp)
    sharp_cells /= sharp_cells.sum()
    assert np.abs(obs / total - sharp_cells).sum() < 0.06


def _trained_rays(cfg, shards):
    """Per-particle (xi, p0, counter, q_star) of the trained run of ``cfg``, all shards.

    Spies on the shard, the ray solver and the endpoint sampler record
    each block's columns as the run draws them, one shard after another.
    """
    xi, p0, counter, q_star = [], [], [], []
    shard, solve, sample = qforce._trained_shard, qforce._solve_rays, qforce.endpoint_displacement

    def shard_spy(*args):
        xi.append(shard(*args))
        return xi[-1]

    def solve_spy(p, table):
        p0.append(p)
        q_star.append(solve(p, table))
        return q_star[-1]

    def sample_spy(rng, n_steps, q):
        counter.append(sample(rng, n_steps, q))
        return counter[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qforce, "_trained_shard", shard_spy)
        mp.setattr(qforce, "_solve_rays", solve_spy)
        mp.setattr(qforce, "endpoint_displacement", sample_spy)
        run_trained_slits(cfg, shards=shards)
    return [np.concatenate(column) for column in (xi, p0, counter, q_star)]


def test_trained_diagnostics_expose_locked_rays():
    cfg = two_slit_config(delta=2, n_particles=5000, n_steps=150, seed=19)
    xi, p0, counter, q_star = _trained_rays(cfg, shards=2)
    hist = run_trained_slits(cfg, shards=2)
    assert np.array_equal(hist.counts, Histogram.on_cone(xi, cfg.cone).counts)
    assert xi.shape == p0.shape == counter.shape == q_star.shape == (5000,)
    # every locked momentum solves the ray equation for its preparation
    residual = np.array([oracles.ray_equation(q, p, 0.5, 0.5, 2) for q, p in zip(q_star, p0)])
    assert np.max(np.abs(residual)) < 1e-9
    # p_bar scatters around the locked ray with walk noise only
    spread = counter / cfg.n_steps - q_star
    assert abs(spread.mean()) < 0.005
    assert spread.std() < 2.0 * math.sqrt(0.5 / cfg.n_steps)


TEN_SOURCES = [(3 * i, 0.1) for i in range(10)]


def test_trained_ten_sources_pinned_counts():
    # exact output for a fixed (seed, shards) pair on two threads; the 45
    # source pairs merge into 9 distinct separations without moving it
    cfg = ScenarioConfig("multi-slit", 300, 20, TEN_SOURCES, seed=5)
    hist = run_trained_slits(cfg, shards=2, threads=2)
    assert hist.offset == cfg.cone[0] == -20
    assert hist.counts.tolist() == oracles.pad_to_cone([
        1, 1, 0, 3, 5, 1, 4, 4, 7, 2, 1, 4, 2, 3, 5, 6, 4, 5, 3, 6, 7, 12, 11, 7,
        7, 7, 8, 13, 14, 4, 16, 9, 13, 7, 4, 7, 5, 5, 2, 5, 5, 3, 7, 8, 4, 7, 2,
        3, 2, 6, 4, 2, 2, 5, 4, 4, 0, 0, 1, 1,
    ], -16, cfg.cone)


def test_trained_rays_solved_once_and_match_every_pair(monkeypatch):
    # each particle's ray is solved once, in its shard, and solves the ray
    # equation written out over all 45 unmerged source pairs
    solved = []
    solve = qforce._solve_rays

    def counting(p0, table):
        solved.append(len(p0))
        return solve(p0, table)

    monkeypatch.setattr(qforce, "_solve_rays", counting)
    cfg = ScenarioConfig("multi-slit", 3000, 50, TEN_SOURCES, seed=8)
    hist = run_trained_slits(cfg, shards=3)
    assert sum(solved) == 3000 and len(solved) == 3
    monkeypatch.undo()
    xi, p0, _, q = _trained_rays(cfg, shards=3)
    assert np.array_equal(hist.counts, Histogram.on_cone(xi, cfg.cone).counts)
    force = np.zeros_like(q)
    for i, (si, wi) in enumerate(TEN_SOURCES):
        for sj, wj in TEN_SOURCES[i + 1 :]:
            d = abs(si - sj)
            force += 2.0 * math.sqrt(wi * wj) * np.sin(math.pi * d * q) / (math.pi * d)
    assert np.abs(q + force - p0).max() < 1e-12


def test_trained_run_builds_its_ray_table_once(monkeypatch):
    # the 64 shards of a run share one ray table, on two threads too, and
    # a second run over the same sources builds its own
    builds = []
    table = qforce._ray_table

    def counting(amps, deltas):
        builds.append(len(amps))
        return table(amps, deltas)

    monkeypatch.setattr(qforce, "_ray_table", counting)
    cfg = ScenarioConfig("multi-slit", 640, 30, [(0, 0.2), (7, 0.3), (19, 0.5)], seed=11)
    first = run_trained_slits(cfg, shards=64, threads=2)
    assert builds == [3]
    again = run_trained_slits(cfg, shards=64)
    assert builds == [3, 3] and np.array_equal(first.counts, again.counts)


def test_trained_run_builds_its_pair_table_once(monkeypatch):
    # the run builds its pair table and source arrays once and hands them
    # to all 64 shards, on two threads too
    calls = []
    terms = qforce._pair_terms

    def counting(sources):
        calls.append(len(sources))
        return terms(sources)

    monkeypatch.setattr(qforce, "_pair_terms", counting)
    cfg = ScenarioConfig("multi-slit", 640, 30, [(0, 0.2), (7, 0.3), (19, 0.5)], seed=11)
    run_trained_slits(cfg, shards=64, threads=2)
    assert calls == [3]


def test_trained_per_tick_reference_settles_on_solved_rays():
    # the slow reference of trained mode steps every walker under the
    # converged memory; its sample momentum closes in on the ray q* the
    # trained shortcut samples at, the more the longer it walks
    amps, deltas = _pair_terms(two_slit_config(delta=2).sources)
    p0 = np.random.default_rng(30).uniform(-1.0, 1.0, 2000)
    q_star = qforce._solve_rays(p0, scenarios._ray_table(amps, deltas))
    gaps = []
    for tau in (100, 300):
        counter = oracles.trained_per_tick(p0, amps, deltas, tau, np.random.default_rng(tau))
        gaps.append(np.median(np.abs(counter / tau - q_star)))
    assert gaps[1] < 0.03 and gaps[1] < gaps[0]


def test_trained_mean_momentum_tracks_sample_ray():
    cfg = two_slit_config(delta=2, n_particles=60000, n_steps=300, seed=20)
    xi, _, _, q_star = _trained_rays(cfg, shards=4)
    q = xi / cfg.n_steps
    for center in (-0.3, 0.0, 0.3):
        sel = np.abs(q - center) < 0.02
        assert sel.sum() > 200
        assert q_star[sel].mean() == pytest.approx(center, abs=0.05)


def test_trained_l1_shrinks_with_ensemble_size():
    tau, window = 300, 270
    sites = np.arange(-window, window + 1)
    dens = multi_slit_density(sites, tau, [(1, 0.5), (-1, 0.5)])
    dens = dens / dens.sum()
    l1 = []
    for n in (500, 5000, 50000):
        cfg = two_slit_config(delta=2, n_particles=n, n_steps=tau, seed=9)
        hist = run_trained_slits(cfg, shards=4)
        emp = np.zeros(len(sites))
        mask = (hist.support >= -window) & (hist.support <= window)
        emp[hist.support[mask] + window] = hist.counts[mask]
        emp = emp / emp.sum()
        l1.append(np.abs(emp - dens).sum())
    assert l1[0] > l1[1] > l1[2]


def test_trained_rejects_bad_inputs():
    cfg = two_slit_config(delta=2, n_particles=10, n_steps=5, seed=0)
    with pytest.raises(ValueError):
        run_trained_slits(cfg, shards=0)
    with pytest.raises(ValueError):
        run_trained_slits(oracles.bound_config("ring", ell=10, p=0.3, n_steps=100))


# ---------------------------------------------------------------------------
# training mode


def test_training_bookkeeping_and_determinism():
    cfg = two_slit_config(delta=2, n_particles=300, n_steps=60, seed=21)
    run1 = run_training_slits(cfg)
    assert run1.positions.counts.sum() == 300
    assert run1.lattice.ticks == 300 * 60
    assert run1.bosons_created > 0
    assert run1.lattice.overdriven_events >= 0
    run2 = run_training_slits(cfg)
    assert np.array_equal(run1.positions.support, run2.positions.support)
    assert np.array_equal(run1.positions.counts, run2.positions.counts)


def test_training_pinned_counts():
    cfg = two_slit_config(delta=2, n_particles=100, n_steps=40, seed=3)
    run = run_training_slits(cfg)
    assert (run.bosons_created, run.lattice.overdriven_events) == (1392, 655)
    assert run.positions.offset == cfg.cone[0] == -41
    assert run.positions.counts.tolist() == oracles.pad_to_cone([
        1, 1, 1, 4, 2, 1, 2, 1, 3, 2, 1, 0, 4, 1, 2, 1, 0, 1, 2, 1, 0, 2, 1, 0, 1,
        0, 1, 1, 1, 1, 0, 0, 1, 1, 3, 2, 1, 1, 1, 2, 1, 1, 1, 3, 3, 1, 2, 2, 0, 2,
        1, 2, 0, 0, 3, 0, 0, 0, 2, 1, 3, 1, 3, 3, 1, 0, 1, 1, 2, 1, 1, 1, 0, 0, 3,
        0, 1, 1, 1,
    ], -37, cfg.cone)


def test_training_runs_through_visit(monkeypatch):
    # every tick of the per-visit reference is one call of the visit rule,
    # and every pair that rule reports is one boson the fast run created
    cfg = two_slit_config(delta=2, n_particles=30, n_steps=20, seed=32)
    fast = run_training_slits(cfg)
    shifts = []
    rule = qforce.visit

    def recording(lattice, particle):
        shifts.append(rule(lattice, particle))
        return shifts[-1]

    monkeypatch.setattr(qforce, "visit", recording)
    run = oracles.training_per_visit(cfg)
    assert len(shifts) == 30 * 20
    assert fast.bosons_created == sum(s is not None for s in shifts) == run.bosons_created
    assert np.array_equal(run.positions.counts, fast.positions.counts)


def _training_config(sources, n_particles, n_steps, seed):
    return ScenarioConfig("multi-slit", n_particles, n_steps, sources, seed=seed)


@pytest.mark.parametrize("cfg, nan_rows", [
    (two_slit_config(delta=2, n_particles=500, n_steps=100, seed=33), 0),
    (_training_config([(-1, 0.3), (1, 0.7)], 300, 60, seed=34), 0),
    (_training_config([(-3, 0.2), (0, 0.5), (4, 0.3)], 300, 60, seed=35), 0),
    (_training_config(TEN_SOURCES, 300, 60, seed=36), 0),  # weights sum to 0.9999999999999999
    (_training_config([(0, 0.0), (5, 1.0)], 300, 60, seed=37), 0),
    # the carried sum of the wide four-source run leaves the float range
    (_training_config([(-1200, 0.25), (-400, 0.25), (400, 0.25), (1200, 0.25)], 60, 1500, seed=0), 1),
], ids=["two-slit", "unequal", "three", "ten", "zero-weight", "wide-four"])
def test_training_matches_per_visit_reference(cfg, nan_rows):
    # the inline tick and its one draw call per emission reproduce the
    # plain visit rule and choice/uniform/random draws bit for bit, NaN bits too
    fast, slow = run_training_slits(cfg), oracles.training_per_visit(cfg)
    assert np.isnan(fast.emissions["final_p_eff"]).sum() == nan_rows
    assert list(fast.emissions) == list(slow.emissions)
    for name, column in fast.emissions.items():
        assert column.dtype == slow.emissions[name].dtype
        assert column.tobytes() == slow.emissions[name].tobytes(), name
    assert fast.positions.offset == slow.positions.offset
    assert np.array_equal(fast.positions.counts, slow.positions.counts)
    assert list(fast.lattice.registers.items()) == list(slow.lattice.registers.items())
    assert repr(fast.lattice.site_bosons) == repr(slow.lattice.site_bosons)
    assert fast.lattice.ticks == slow.lattice.ticks == cfg.n_particles * cfg.n_steps
    assert fast.lattice.overdriven_events == slow.lattice.overdriven_events


def test_training_diagnostics_csv():
    cfg = two_slit_config(delta=2, n_particles=40, n_steps=30, seed=24)
    run = run_training_slits(cfg)
    names = ["emission", *run.emissions]
    columns = [np.arange(40), *run.emissions.values()]
    out = io.StringIO(newline="")
    write_csv(out, names, columns)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "emission,source,final_xi,bosons_created,final_p_eff"
    assert len(lines) == 41
    for row in lines[1:]:
        fields = row.split(",")
        assert int(fields[1]) in (-1, 1)
        assert -1.0 <= float(fields[4]) <= 1.0
    final_xi = run.emissions["final_xi"]
    assert np.array_equal(Histogram.on_cone(final_xi, cfg.cone).counts, run.positions.counts)
    assert run.emissions["bosons_created"].sum() == run.bosons_created


def test_training_diagnostics_not_left_by_failed_run(tmp_path, monkeypatch):
    path = tmp_path / "diag.csv"
    decay = qforce.site_decay_product
    calls = []

    def counting(*args):
        calls.append(args)
        return decay(*args)

    # emissions draw the same stream whatever the run's length, so a
    # three-emission run makes exactly the decay calls of the first three
    monkeypatch.setattr(qforce, "site_decay_product", counting)
    run_training_slits(two_slit_config(delta=2, n_particles=3, n_steps=30, seed=24))
    first_three = len(calls)
    calls.clear()

    def decay_then_fail(*args):  # fails at the first decay call after three emissions
        calls.append(args)
        if len(calls) > first_three:
            raise OSError(28, "No space left on device")
        return decay(*args)

    monkeypatch.setattr(qforce, "site_decay_product", decay_then_fail)
    assert cli.main([
        "interfere", "--scenario", "two-slit", "--mode", "training", "--n-particles", "40",
        "--n-steps", "30", "--seed", "24", "--diagnostics", str(path),
        "--out", str(tmp_path / "t.csv"),
    ]) == 2
    assert len(calls) == first_three + 1
    assert list(tmp_path.iterdir()) == []


def test_training_snapshot_lists_live_bosons():
    cfg = two_slit_config(delta=2, n_particles=200, n_steps=50, seed=25)
    run = run_training_slits(cfg)
    rows = _boson_snapshot(run.lattice)
    assert rows, "training at this scale must create site bosons"
    for site, shift, w, w0 in rows:
        assert shift != 0
        assert math.isfinite(w) and math.isfinite(w0)


def test_training_builds_fringe_shaped_histogram():
    # the check is qualitative: a partially trained lattice already
    # pulls the histogram toward the fringe law and away from flat
    cfg = two_slit_config(delta=2, n_particles=1000, n_steps=100, seed=31)
    run = run_training_slits(cfg)
    tau, window = cfg.n_steps, 90
    edges = np.linspace(-window, window + 1, 13)
    sup, counts = run.positions.support, run.positions.counts
    mask = (sup >= -window) & (sup <= window)
    obs = np.zeros(12)
    np.add.at(obs, np.searchsorted(edges, sup[mask], side="right") - 1, counts[mask])
    obs /= obs.sum()
    sites = np.arange(-window, window + 1)
    ref = np.zeros(12)
    np.add.at(ref, np.searchsorted(edges, sites, side="right") - 1,
              multi_slit_density(sites, tau, cfg.sources))
    ref /= ref.sum()
    flat = np.diff(edges)
    flat /= flat.sum()
    a, b = obs - flat, ref - flat
    alignment = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
    assert alignment > 0.5


def test_training_rejects_bound_scenarios():
    with pytest.raises(ValueError):
        run_training_slits(oracles.bound_config("box", ell=5, p=0.3, n_steps=100))


# ---------------------------------------------------------------------------
# ring and box


def _sites(cfg):
    """The site after each tick of a ring or box walk: its counters wrapped, and folded for a box."""
    wrapped = np.concatenate(list(ring_counters(cfg))) % cfg.period
    return np.minimum(wrapped, cfg.period - wrapped) if cfg.kind == "box" else wrapped


@pytest.mark.parametrize("p", [0.05, 0.33, 0.61])
def test_ring_locks_to_quantized_momentum(p):
    # the sample momentum relaxes on a log-time clock, so the run must be
    # long enough for the slowest case (p deep inside a sawtooth plateau)
    cfg = oracles.bound_config("ring", ell=10, p=p, n_steps=100000, seed=26)
    target = ring_steady_momentum(p, 10)
    assert run_ring(cfg)[0] == pytest.approx(target, abs=0.05)
    # the wrapped walk visits every site and steps at most one site per
    # tick, crossing the seam between sites ell-1 and 0 as one step
    positions = _sites(cfg)
    steps = np.diff(positions)
    assert np.bincount(positions, minlength=10).all()
    assert np.all((steps + 1) % 10 <= 2)


def test_ring_momentum_histogram_peaks_at_ray():
    cfg = oracles.bound_config("ring", ell=10, p=0.33, n_steps=100000, seed=27)
    _, centers, counts = run_ring(cfg)
    assert centers[np.argmax(counts)] == pytest.approx(0.4, abs=0.05)


def test_box_locks_to_half_spacing():
    cfg = oracles.bound_config("box", ell=5, p=0.37, n_steps=100000, seed=28)
    assert run_ring(cfg)[0] == pytest.approx(0.4, abs=0.1)
    # the folded walk reaches both walls and steps at most one site per
    # tick, so it reflects at each wall instead of jumping
    positions = _sites(cfg)
    assert positions.min() == 0 and positions.max() == 5
    assert np.all(np.abs(np.diff(positions)) <= 1)


# Exact 200-tick paths (one character per tick: + up, 0 stay, - down) and
# 20000-tick summaries for a fixed seed; the path fixes counters and positions,
# and each 20000-tick walk's final counter and site occupancy are pinned too.
BOUND_PINS = {
    "ring": (
        oracles.bound_config("ring", ell=10, p=0.37, n_steps=200, seed=4),
        "-0-+0+0+00-0+0-+--+00-0+000-++00-0+-000+00+0+++-0+0+-00+++-+0-0++0++00++00+++000"
        "+0+0+000++++0+0000-0++0+00+0++++-000++0-+00+00000+--0+00+0+-+-+00-00+0+-0+0+-0+0"
        "00-++++00000-0+0+0-0-+-+0++++00+0+-+0-00",
        0.24053520356458463,
        (0.39994467950168683, 8000, [2012, 1971, 1919, 2040, 1992, 2076, 1994, 2011, 1932, 2053]),
    ),
    "box": (
        oracles.bound_config("box", ell=6, p=0.28, n_steps=200, seed=4),
        "-0-+0+0+00-000-+--+00-0+000-++00-0+-000+00+0+++--+0+-00+++-00--0+0++--++00+0+000"
        "+0+0+000++++0+0000-0++0+0000+++0-000++0-00-+00000+--0+00+0+-+-+00-00+0+-0+0+-0+0"
        "000++++00-00-0+0+0-0-+-+0++++00+0+-+0-00",
        0.16349149607188646,
        (0.3020357359281748, 6241, [1575, 3312, 3335, 3344, 3322, 3382, 1730]),
    ),
    # p0 - force reaches -1.2 here, so the clamp to [-1, 1] binds on almost every tick
    "ring-clamped": (
        oracles.bound_config("ring", ell=4, p=-0.95, n_steps=200, seed=4),
        "-" * 200,
        -1.0,
        (-1.0, -20000, [5000, 5000, 5000, 5000]),
    ),
}


@pytest.mark.parametrize("kind", sorted(BOUND_PINS))
def test_bound_walk_pinned_paths(kind):
    cfg, path, mean_short, (mean_long, final_counter, occupancy) = BOUND_PINS[kind]

    def fold(counter):
        if cfg.kind == "ring":
            return counter % cfg.ell
        folded = counter % (2 * cfg.ell)
        return np.where(folded <= cfg.ell, folded, 2 * cfg.ell - folded)

    counter = np.cumsum(["-0+".index(c) - 1 for c in path])
    assert np.array_equal(np.concatenate(list(ring_counters(cfg))), counter)
    assert run_ring(cfg)[0] == mean_short

    long_cfg = replace(cfg, n_steps=20000)
    long_counters = np.concatenate(list(ring_counters(long_cfg)))
    assert run_ring(long_cfg)[0] == mean_long
    assert long_counters[-1] == final_counter
    assert np.bincount(fold(long_counters)).tolist() == occupancy


# Configs where the bracket decides most ticks, where the clamp binds, where
# most ticks stay open (ring of 2), at the ends of the propensity range, and
# where p0 sits on a ray.
BRACKET_CONFIGS = {
    "ring-l10-p0.37": oracles.bound_config("ring", ell=10, p=0.37),
    "box-l7-p-0.95": oracles.bound_config("box", ell=7, p=-0.95),
    "box-l5-p0.37": oracles.bound_config("box", ell=5, p=0.37),
    "ring-l4-p-0.95": oracles.bound_config("ring", ell=4, p=-0.95),
    "ring-l2-p0.3": oracles.bound_config("ring", ell=2, p=0.3),
    "ring-l3-p1": oracles.bound_config("ring", ell=3, p=1.0),
    "box-l2-p-1": oracles.bound_config("box", ell=2, p=-1.0),
    "ring-l10-p0.4": oracles.bound_config("ring", ell=10, p=0.4),
}


@pytest.mark.parametrize("name", sorted(BRACKET_CONFIGS))
def test_run_ring_matches_per_tick_reference(name):
    # many one-tick runs, since tick 1 steps at p0 itself and is open only
    # for some draws; then runs that end at and around a block edge, whose
    # int64 blocks hold walker._BLOCK ticks each but the last, which is shorter
    block = walker._BLOCK
    runs = [(1, seed) for seed in range(40)]
    runs += [(n, seed) for n in (block - 1, block, block + 1) for seed in (0, 4, 29)]
    for n_steps, seed in runs:
        cfg = replace(BRACKET_CONFIGS[name], n_steps=n_steps, seed=seed)
        blocks = list(ring_counters(cfg))
        assert [len(b) for b in blocks[:-1]] == [block] * (len(blocks) - 1)
        assert 1 <= len(blocks[-1]) <= block
        assert all(b.dtype == np.int64 for b in blocks)
        assert np.array_equal(np.concatenate(blocks), oracles.ring_per_tick(cfg))


@pytest.mark.parametrize("name", sorted(BRACKET_CONFIGS))
def test_locked_half_summary_matches_whole_trace_reference(name):
    # the streamed locked half equals the whole trace's second half bit
    # for bit: one tick, runs whose half sits at and around a block edge,
    # an odd length past three blocks, and halves at the pairwise tree's
    # split edges, each config taking every eighth of those
    block = walker._BLOCK
    edges = oracles.SPLIT_EDGES[sorted(BRACKET_CONFIGS).index(name) :: len(BRACKET_CONFIGS)]
    for n_steps in (1, 2 * block - 1, 2 * block, 2 * block + 1, 3 * block + 777,
                    *(2 * m - m % 2 for m in edges)):
        cfg = replace(BRACKET_CONFIGS[name], n_steps=n_steps, seed=n_steps % 97)
        mean, centers, counts = oracles.locked_half_summary(oracles.ring_per_tick(cfg))
        got_mean, got_centers, got_counts = run_ring(cfg)
        assert got_mean == mean
        assert np.array_equal(got_centers, centers) and np.array_equal(got_counts, counts)
        assert got_counts.sum() == n_steps - n_steps // 2


def _ring_peak(n_steps, consume):
    """tracemalloc peak of ``consume(cfg)`` on a 10-site ring config of ``n_steps`` ticks."""
    cfg = oracles.bound_config("ring", ell=10, p=0.37, n_steps=n_steps, seed=3)
    tracemalloc.start()
    try:
        consume(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_run_ring_working_set_does_not_grow_with_ticks():
    # the walk run_ring streams draws and brackets in fixed-size blocks and
    # keeps no trace, so its peak memory is the same for 30k and 300k ticks
    def working_set(n):
        return _ring_peak(n, lambda cfg: [None for _ in ring_counters(cfg)])

    working_set(100)  # the first run in a process also allocates one-off state
    assert working_set(300_000) <= 1.5 * working_set(30_000)


def test_ring_run_and_summary_keep_a_few_bytes_per_tick():
    # no byte per tick at all: the run and its summary hold one block of
    # counters and sample momenta, so their peak is flat in the tick count
    def peak(n):
        return _ring_peak(n, run_ring)

    peak(100)  # the first run in a process also allocates one-off state
    assert peak(300_000) - peak(30_000) <= 250_000


@pytest.mark.parametrize("length", [
    *range(1, 20), 127, 128, 129, 255, 1001, *oracles.SPLIT_EDGES,
    *(walker._BLOCK * 2**j + d for j in (3, 6, 8) for d in (-8, -1, 0, 1, 8)), 3_000_001,
])
def test_pairwise_mean_matches_np_mean_on_any_chunking(length):
    # values over sixteen decades, so a different summation order shows in the bits
    rng = np.random.default_rng(length)
    values = rng.standard_normal(length) * 10.0 ** rng.uniform(-8.0, 8.0, length)
    want = float(np.mean(values))
    sizes = [8191, 8192, 8193, "random"] + ([1, 7] if length <= 5 * walker._BLOCK else [])
    for size in sizes:
        if size == "random":
            top = min(length, 3 * walker._BLOCK)
            cuts = np.cumsum(rng.integers(1, top + 1, 2 * length // top + 2))
            chunks = np.split(values, cuts[cuts < length])
        else:
            chunks = (values[i : i + size] for i in range(0, length, size))
        assert qforce._pairwise_mean(chunks, length) == want, (
            f"numpy's pairwise summation order changed (length {length}, pieces of {size}): "
            "the streamed locked-half mean no longer reproduces np.mean, so ring and box "
            "means change; bump __version__ for it, and do not edit the pins"
        )


def test_bound_runners_check_config_kind():
    with pytest.raises(ValueError):
        run_ring(two_slit_config(delta=2, n_particles=10, n_steps=50))
