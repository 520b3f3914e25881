"""Tests for the lattice-memory machinery: decay laws, visits, runs."""

import math
from dataclasses import replace

import numpy as np
import pytest

from latticemc.qforce import (
    BosonKey,
    ParticleBoson,
    SiteBoson,
    SiteState,
    TrainingLattice,
    decay_particle_boson,
    decay_site_boson,
    effective_momentum,
    expected_particle_boson,
    expected_site_momentum,
    mean_effective_momentum,
    particle_boson_series,
    particle_damping,
    run_box,
    run_interference,
    run_ring,
    run_trained_slits,
    run_training_slits,
    site_decay_product,
    site_momentum_series,
    visit,
)
from latticemc import qforce
from latticemc.scenarios import (
    box_config,
    finite_time_slit_density,
    multi_slit_config,
    ray_equation,
    ring_config,
    ring_steady_momentum,
    two_slit_config,
    two_slit_density,
)
from latticemc.stats import compare
from latticemc.walker import ParticleState


# ---------------------------------------------------------------------------
# decay laws


def test_site_boson_decay_tick_math():
    b = SiteBoson(w0=0.4, dw0=0.8, w=0.4)
    b1 = decay_site_boson(b)
    assert b1.age == 1
    assert b1.w == pytest.approx(0.4 * (1.0 - 0.64))
    b2 = decay_site_boson(b1)
    assert b2.age == 2
    assert b2.w == pytest.approx(0.4 * (1.0 - 0.64) * (1.0 - 0.64 / 4.0))
    assert b2.w0 == 0.4 and b2.dw0 == 0.8


def test_site_boson_overdriven_flag():
    assert SiteBoson(w0=0.6, dw0=1.2, w=0.6).overdriven
    assert not SiteBoson(w0=0.3, dw0=0.6, w=0.3).overdriven


def test_particle_boson_damping_ticks():
    b = ParticleBoson(p=1.0)
    b1 = decay_particle_boson(b)
    assert b1.p == pytest.approx(0.5) and b1.age == 1
    b2 = decay_particle_boson(b1)
    assert b2.p == pytest.approx(0.375) and b2.age == 2


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
    b = SiteBoson(w0=q, dw0=delta * q, w=q)
    for _ in range(n):
        b = decay_site_boson(b)
    assert site_decay_product(q, delta, n) == pytest.approx(b.w, rel=1e-12)


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
    # sqrt(1/4) * 0.25 * sinc(0.5) = 0.5 / (4 pi) * 2 = 1 / (4 pi)
    value = expected_particle_boson(0.5, 0.5, 0.25, 2)
    assert value == pytest.approx(0.5 / (2.0 * math.pi))


def test_effective_momentum_clamps():
    particle = ParticleState(p0=0.9)
    particle.bosons[2] = ParticleBoson(p=-0.5)
    assert effective_momentum(particle) == 1.0
    particle.bosons[2] = ParticleBoson(p=0.3)
    assert effective_momentum(particle) == pytest.approx(0.6)


def test_mean_effective_momentum_hand_value():
    got = mean_effective_momentum(0.3, 0.5, 0.5, 0.25, 2)
    assert got == pytest.approx(0.3 - math.sin(math.pi / 2.0) / (2.0 * math.pi))


# ---------------------------------------------------------------------------
# visit rule


def test_boson_key_shift_and_delta():
    key = BosonKey(counter=3, register=1)
    assert key.shift == -2
    assert key.delta == 2


def test_visit_requires_started_walk():
    with pytest.raises(ValueError):
        visit(SiteState(), ParticleState(tau=0))


def test_first_visit_registers_without_boson():
    site = SiteState()
    particle = ParticleState(tau=4, counter=2)
    assert visit(site, particle) is None
    assert site.register == 2
    assert site.bosons == {} and particle.bosons == {}


def test_matching_register_rewrites_without_boson():
    site = SiteState(register=2)
    particle = ParticleState(tau=4, counter=2)
    assert visit(site, particle) is None
    assert site.register == 2 and particle.counter == 2
    assert site.bosons == {}


def test_visit_creates_pair_and_swaps():
    site = SiteState(register=3)
    particle = ParticleState(tau=4, counter=1)
    key = visit(site, particle)
    assert key == BosonKey(counter=1, register=3)
    assert key.shift == 2
    # walker found no prior boson of this shift, so it carries zero momentum
    assert particle.bosons[2].p == 0.0
    # the site boson restarts at the visitor's sample momentum
    assert site.bosons[2].w0 == pytest.approx(0.25)
    assert site.bosons[2].dw0 == pytest.approx(0.5)
    assert site.bosons[2].w == pytest.approx(0.25)
    # counter and register exchange values
    assert site.register == 1
    assert particle.counter == 3


def test_visit_inherits_previous_boson_momentum():
    site = SiteState(register=5)
    site.bosons[2] = SiteBoson(w0=0.4, dw0=0.8, w=0.123, age=7)
    particle = ParticleState(tau=10, counter=3)
    key = visit(site, particle)
    assert key.shift == 2
    assert particle.bosons[2].p == pytest.approx(0.123)
    # the resident boson is replaced, not averaged
    assert site.bosons[2].w0 == pytest.approx(0.3)
    assert site.bosons[2].age == 0


def test_visit_negative_shift_uses_own_slot():
    site = SiteState(register=1)
    particle = ParticleState(tau=4, counter=3)
    key = visit(site, particle)
    assert key.shift == -2
    assert -2 in site.bosons and -2 in particle.bosons
    assert site.bosons[-2].dw0 == pytest.approx(2 * 3 / 4)


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
    full = np.arange(-tau + 1, tau + 2)  # all sites reachable from source +1
    counts = np.zeros(len(full))
    idx = hist.support - full[0]
    counts[idx] = hist.counts
    ref = np.full(len(full), 1.0 / (2 * tau + 1))
    report = compare(counts / counts.sum(), ref, int(counts.sum()), alpha=0.001)
    assert report.passed, f"chi2 {report.chi2:.1f} critical {report.critical:.1f}"


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
    report = compare(obs / total, ref, total, alpha=0.001)
    assert report.passed, f"chi2 {report.chi2:.1f} critical {report.critical:.1f}"

    flat = np.diff(edges)
    flat /= flat.sum()
    negative = compare(obs / total, flat, total, alpha=0.001)
    assert not negative.passed

    sharp = two_slit_density(sites, tau, 0.5, 0.5, 2)
    sharp_cells = np.zeros(25)
    np.add.at(sharp_cells, cell, sharp)
    sharp_cells /= sharp_cells.sum()
    assert np.abs(obs / total - sharp_cells).sum() < 0.06


def test_trained_diagnostics_expose_locked_rays():
    cfg = two_slit_config(delta=2, n_particles=5000, n_steps=150, seed=19)
    hist, diag = run_trained_slits(cfg, shards=2, return_rays=True)
    assert hist.counts.sum() == 5000
    assert diag.xi.shape == diag.p0.shape == diag.counter.shape == (5000,)
    # every locked momentum solves the ray equation for its preparation
    residual = np.array([
        ray_equation(q, p0, 0.5, 0.5, 2) for q, p0 in zip(diag.p_eff, diag.p0)
    ])
    assert np.max(np.abs(residual)) < 1e-9
    # p_bar scatters around the locked ray with walk noise only
    spread = diag.p_bar - diag.p_eff
    assert abs(spread.mean()) < 0.005
    assert spread.std() < 2.0 * math.sqrt(0.5 / cfg.n_steps)


TEN_SOURCES = [(3 * i, 0.1) for i in range(10)]


def test_trained_ten_sources_pinned_counts():
    # exact output for a fixed (seed, shards) pair on two threads; the 45
    # source pairs merge into 9 distinct separations without moving it
    cfg = multi_slit_config(TEN_SOURCES, n_particles=300, n_steps=20, seed=5)
    hist = run_trained_slits(cfg, shards=2, threads=2)
    assert hist.offset == -16
    assert hist.counts.tolist() == [
        1, 1, 0, 3, 5, 1, 4, 4, 7, 2, 1, 4, 2, 3, 5, 6, 4, 5, 3, 6, 7, 12, 11, 7,
        7, 7, 8, 13, 14, 4, 16, 9, 13, 7, 4, 7, 5, 5, 2, 5, 5, 3, 7, 8, 4, 7, 2,
        3, 2, 6, 4, 2, 2, 5, 4, 4, 0, 0, 1, 1,
    ]


def test_trained_rays_solved_once_and_match_every_pair(monkeypatch):
    # the diagnostics reuse the rays the shards solved, and those rays solve
    # the ray equation written out over all 45 unmerged source pairs
    solved = []
    solve = qforce._solve_rays

    def counting(p0, amps, deltas):
        solved.append(len(p0))
        return solve(p0, amps, deltas)

    monkeypatch.setattr(qforce, "_solve_rays", counting)
    cfg = multi_slit_config(TEN_SOURCES, n_particles=3000, n_steps=50, seed=8)
    hist, diag = run_trained_slits(cfg, shards=3, return_rays=True)
    assert sum(solved) == 3000 and len(solved) == 3
    monkeypatch.undo()
    assert np.array_equal(hist.counts, run_trained_slits(cfg, shards=3).counts)
    q = diag.p0 - diag.boson_sum
    force = np.zeros_like(q)
    for i, (si, wi) in enumerate(TEN_SOURCES):
        for sj, wj in TEN_SOURCES[i + 1 :]:
            d = abs(si - sj)
            force += 2.0 * math.sqrt(wi * wj) * np.sin(math.pi * d * q) / (math.pi * d)
    assert np.abs(q + force - diag.p0).max() < 1e-12


def test_trained_mean_momentum_tracks_sample_ray():
    cfg = two_slit_config(delta=2, n_particles=60000, n_steps=300, seed=20)
    _, diag = run_trained_slits(cfg, shards=4, return_rays=True)
    q = diag.xi / cfg.n_steps
    for center in (-0.3, 0.0, 0.3):
        sel = np.abs(q - center) < 0.02
        assert sel.sum() > 200
        assert diag.p_eff[sel].mean() == pytest.approx(center, abs=0.05)


def test_trained_l1_shrinks_with_ensemble_size():
    tau, window = 300, 270
    sites = np.arange(-window, window + 1)
    dens = two_slit_density(sites, tau, 0.5, 0.5, 2)
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
        run_trained_slits(ring_config(ell=10, p=0.3, n_steps=100))


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
    assert run.positions.offset == -37
    assert run.positions.counts.tolist() == [
        1, 1, 1, 4, 2, 1, 2, 1, 3, 2, 1, 0, 4, 1, 2, 1, 0, 1, 2, 1, 0, 2, 1, 0, 1,
        0, 1, 1, 1, 1, 0, 0, 1, 1, 3, 2, 1, 1, 1, 2, 1, 1, 1, 3, 3, 1, 2, 2, 0, 2,
        1, 2, 0, 0, 3, 0, 0, 0, 2, 1, 3, 1, 3, 3, 1, 0, 1, 1, 2, 1, 1, 1, 0, 0, 3,
        0, 1, 1, 1,
    ]


def test_training_lattice_reuse_accumulates():
    cfg = two_slit_config(delta=2, n_particles=150, n_steps=40, seed=22)
    first = run_training_slits(cfg)
    second = run_training_slits(cfg, seed=23, lattice=first.lattice)
    assert second.lattice is first.lattice
    assert second.lattice.ticks == 2 * 150 * 40


def test_training_diagnostics_csv(tmp_path):
    path = tmp_path / "diag.csv"
    cfg = two_slit_config(delta=2, n_particles=40, n_steps=30, seed=24)
    run_training_slits(cfg, diagnostics=str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "emission,source,final_xi,bosons_created,final_p_eff"
    assert len(lines) == 41
    for row in lines[1:]:
        fields = row.split(",")
        assert int(fields[1]) in (-1, 1)
        assert -1.0 <= float(fields[4]) <= 1.0


def test_training_snapshot_lists_live_bosons():
    cfg = two_slit_config(delta=2, n_particles=200, n_steps=50, seed=25)
    run = run_training_slits(cfg)
    rows = run.lattice.boson_snapshot()
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
              two_slit_density(sites, tau, 0.5, 0.5, 2))
    ref /= ref.sum()
    flat = np.diff(edges)
    flat /= flat.sum()
    a, b = obs - flat, ref - flat
    alignment = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
    assert alignment > 0.5


def test_training_rejects_bound_scenarios():
    with pytest.raises(ValueError):
        run_training_slits(box_config(ell=5, p=0.3, n_steps=100))


# ---------------------------------------------------------------------------
# ring and box


@pytest.mark.parametrize("p", [0.05, 0.33, 0.61])
def test_ring_locks_to_quantized_momentum(p):
    # the sample momentum relaxes on a log-time clock, so the run must be
    # long enough for the slowest case (p deep inside a sawtooth plateau)
    cfg = ring_config(ell=10, p=p, n_steps=100000, seed=26)
    run = run_ring(cfg)
    target = ring_steady_momentum(p, 10)
    assert run.mean_p_bar == pytest.approx(target, abs=0.05)
    assert np.all(run.positions >= 0) and np.all(run.positions < 10)
    assert np.all(np.abs(run.p_eff) <= 1.0)


def test_ring_momentum_histogram_peaks_at_ray():
    cfg = ring_config(ell=10, p=0.33, n_steps=100000, seed=27)
    run = run_ring(cfg)
    centers, counts = run.momentum_histogram()
    assert centers[np.argmax(counts)] == pytest.approx(0.4, abs=0.05)


def test_box_locks_to_half_spacing():
    cfg = box_config(ell=5, p=0.37, n_steps=100000, seed=28)
    run = run_box(cfg)
    assert run.mean_p_bar == pytest.approx(0.4, abs=0.1)
    assert np.all(run.positions >= 0) and np.all(run.positions <= 5)


# Exact 200-tick paths (one character per tick: + up, 0 stay, - down) and
# 20000-tick summaries for a fixed seed; the path fixes p_bar and positions.
BOUND_PINS = {
    "ring": (
        run_ring, ring_config(ell=10, p=0.37, n_steps=200, seed=4),
        "-0-+0+0+00-0+0-+--+00-0+000-++00-0+-000+00+0+++-0+0+-00+++-+0-0++0++00++00+++000"
        "+0+0+000++++0+0000-0++0+00+0++++-000++0-+00+00000+--0+00+0+-+-+00-00+0+-0+0+-0+0"
        "00-++++00000-0+0+0-0-+-+0++++00+0+-+0-00",
        0.24053520356458463,
        (0.39994467950168683, 8000, [2012, 1971, 1919, 2040, 1992, 2076, 1994, 2011, 1932, 2053]),
    ),
    "box": (
        run_box, box_config(ell=6, p=0.28, n_steps=200, seed=4),
        "-0-+0+0+00-000-+--+00-0+000-++00-0+-000+00+0+++--+0+-00+++-00--0+0++--++00+0+000"
        "+0+0+000++++0+0000-0++0+0000+++0-000++0-00-+00000+--0+00+0+-+-+00-00+0+-0+0+-0+0"
        "000++++00-00-0+0+0-0-+-+0++++00+0+-+0-00",
        0.16349149607188646,
        (0.3020357359281748, 6241, [1575, 3312, 3335, 3344, 3322, 3382, 1730]),
    ),
}


@pytest.mark.parametrize("kind", sorted(BOUND_PINS))
def test_bound_walk_pinned_paths(kind):
    runner, cfg, path, mean_short, (mean_long, final_counter, occupancy) = BOUND_PINS[kind]
    run = runner(cfg)
    counter = np.cumsum(["-0+".index(c) - 1 for c in path])
    tau = np.arange(1, len(path) + 1)
    assert np.array_equal(run.p_bar, counter / tau)
    if kind == "ring":
        positions = counter % cfg.ell
    else:
        folded = counter % (2 * cfg.ell)
        positions = np.where(folded <= cfg.ell, folded, 2 * cfg.ell - folded)
    assert np.array_equal(run.positions, positions)
    assert run.mean_p_bar == mean_short

    long_run = runner(replace(cfg, n_steps=20000))
    assert long_run.mean_p_bar == mean_long
    assert np.rint(long_run.p_bar[-1] * 20000) == final_counter
    assert np.bincount(long_run.positions).tolist() == occupancy


def test_bound_runners_check_config_kind():
    ring = ring_config(ell=10, p=0.3, n_steps=50)
    box = box_config(ell=5, p=0.3, n_steps=50)
    with pytest.raises(ValueError):
        run_ring(box)
    with pytest.raises(ValueError):
        run_box(ring)


# ---------------------------------------------------------------------------
# dispatch


def test_run_interference_dispatch():
    slit = two_slit_config(delta=2, n_particles=200, n_steps=30, seed=29)
    result = run_interference(slit, mode="trained")
    assert result.positions is not None and result.bound is None

    trained = run_interference(slit, mode="training")
    assert trained.positions is not None
    assert isinstance(trained.lattice, TrainingLattice)

    ring = run_interference(ring_config(ell=10, p=0.3, n_steps=400, seed=30))
    assert ring.bound is not None and ring.positions is None

    box = run_interference(box_config(ell=5, p=0.3, n_steps=400, seed=30))
    assert box.bound is not None

    with pytest.raises(ValueError):
        run_interference(slit, mode="annealed")
