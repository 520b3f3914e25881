"""Acceptance gate: eleven checks covering every advertised capability.

Each test prints one summary line ``criterion N: PASS/FAIL (details)``
(visible with ``pytest -s`` or on failure).  Tolerances are fixed here;
a failing check means the package no longer reproduces the physics it
claims, and the fix belongs in the library, never in the tolerance.
"""

import math
import time

import numpy as np
import oracles

from latticemc import analytic
from latticemc.qforce import (
    particle_boson_series,
    run_ring,
    run_trained_slits,
    site_decay_product,
    expected_site_momentum,
)
from latticemc.scenarios import (
    ScenarioConfig,
    finite_time_slit_density,
    multi_slit_density,
    ring_memory_force,
    ring_steady_momentum,
    two_slit_config,
)
from latticemc.stats import compare
from latticemc.walker import run_ensemble_free


def report(n: int, ok: bool, detail: str) -> bool:
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def bin_counts(support, counts, edges, window):
    """Histogram counts pooled into cells over |site| <= window."""
    mask = (support >= -window) & (support <= window)
    out = np.zeros(len(edges) - 1)
    np.add.at(out, np.searchsorted(edges, support[mask], side="right") - 1, counts[mask])
    return out


def bin_density(density, sites, edges):
    out = np.zeros(len(edges) - 1)
    np.add.at(out, np.searchsorted(edges, sites, side="right") - 1, density)
    return out / out.sum()


def test_criterion_1_exhaustive_path_enumeration():
    # brute force over all 3**tau paths reproduces the closed-form arrival
    # pmf, the conditional moving-tick law and its moments, and the
    # unconditional moving-tick law
    t0 = time.time()
    worst = 0.0
    for tau in range(1, 9):
        for p in (-0.9, -0.5, 0.0, 0.37, 0.9):
            table = oracles.enumerate_paths(tau, p)
            pmf = oracles.enumerated_pmf(table)
            for xi in range(-tau, tau + 1):
                worst = max(worst, abs(analytic.pmf_free(xi, tau, p) - pmf.get(xi, 0.0)))
                cond = oracles.enumerated_energy_pmf(table, xi)
                if not cond:
                    continue
                for sigma in analytic.energy_support(xi, tau):
                    gap = abs(analytic.energy_pmf(sigma, xi, tau) - cond.get(sigma, 0.0))
                    worst = max(worst, gap)
                mean, var = oracles.mean_and_var(cond)
                worst = max(worst, abs(analytic.action(xi, tau) - mean))
                worst = max(worst, abs(analytic.energy_var(xi, tau) - var))
            uncond = oracles.enumerated_particle_energy(table)
            e = (1.0 + p * p) / 2.0
            for sigma in range(tau + 1):
                gap = abs(analytic.particle_energy_pmf(sigma, tau, e) - uncond.get(sigma, 0.0))
                worst = max(worst, gap)
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    assert report(1, ok, f"max gap {worst:.2e}, {elapsed:.1f} s")


def test_criterion_2_free_motion_flatness():
    # a uniform-propensity ensemble lands uniformly on the light cone
    t0 = time.time()
    n, tau = 50000, 300
    hist = run_ensemble_free(n, tau, seed=0)
    counts = np.zeros(2 * tau + 1)
    counts[hist.support + tau] = hist.counts
    freq = counts / n
    rep = compare(freq, np.full(2 * tau + 1, 1.0 / (2 * tau + 1)), n)
    dev = float(np.abs(freq - 1.0 / (2 * tau + 1)).max())
    elapsed = time.time() - t0
    ok = rep.passed and dev <= 5.0 / math.sqrt(n) and elapsed < 60.0
    assert report(
        2,
        ok,
        f"chi2 {rep.chi2:.1f} < {rep.critical:.1f}, max dev {dev:.5f} <= "
        f"{5.0 / math.sqrt(n):.5f}, {elapsed:.1f} s",
    )


def test_criterion_3_fixed_propensity_moments():
    # fixed p: the walk drifts at p per tick and spreads at the step variance
    n, tau, p = 100000, 400, 0.2
    b = (1.0 - p * p) / 2.0
    hist = run_ensemble_free(n, tau, p=p, seed=0)
    x = hist.support.astype(float)
    f = hist.counts / hist.counts.sum()
    mean = float((x * f).sum())
    var = float(((x - mean) ** 2 * f).sum())
    mean_tol = 3.0 * math.sqrt(b * tau / n)
    ok = abs(mean - p * tau) <= mean_tol and abs(var - b * tau) <= 0.05 * b * tau
    assert report(
        3,
        ok,
        f"mean {mean:.3f} vs {p * tau} (tol {mean_tol:.3f}), "
        f"var {var:.1f} vs {b * tau} (tol 5%)",
    )


def test_criterion_4_two_slit_interference():
    # Trained two-slit run against its exact finite-time law.  At this run
    # length the walk kernel still fills a fraction of each fringe zero, a
    # bias that is proportional to the fringe signal itself in every
    # binning, so the sharp cosine law cannot serve as the chi-square null
    # for a 50000-particle sample.  The gate therefore tests three things:
    # the sample matches the exact finite-time law by chi-square, the flat
    # no-interference model is decisively rejected, and the finite-time law
    # itself is within 0.05 cell L1 of the sharp fringe law here and
    # converges to it pointwise as the run length grows.
    t0 = time.time()
    n, tau, window, n_cells = 50000, 300, 270, 25
    cfg = two_slit_config(delta=2, n_particles=n, n_steps=tau, seed=20260816)
    hist = run_trained_slits(cfg, shards=4)
    edges = np.linspace(-window, window + 1, n_cells + 1)
    obs = bin_counts(hist.support, hist.counts, edges, window)
    total = int(obs.sum())
    sites = np.arange(-window, window + 1)

    ref = bin_density(finite_time_slit_density(sites, tau, cfg.sources), sites, edges)
    positive = compare(obs / total, ref, total)
    flat = np.diff(edges)
    negative = compare(obs / total, flat / flat.sum(), total)
    sharp = bin_density(multi_slit_density(sites, tau, cfg.sources), sites, edges)
    l1_sharp = float(np.abs(obs / total - sharp).sum())

    tau_big = 3000
    xi_big = np.arange(-2850, 2851, 3)
    render = finite_time_slit_density(xi_big, tau_big, [(1, 0.5), (-1, 0.5)])
    limit = multi_slit_density(xi_big, tau_big, [(1, 0.5), (-1, 0.5)])
    conv = float(np.abs(render - limit).max() * 2 * tau_big)

    elapsed = time.time() - t0
    ok = (
        positive.passed
        and not negative.passed
        and l1_sharp <= 0.05
        and conv <= 0.005
        and elapsed < 120.0
    )
    assert report(
        4,
        ok,
        f"model chi2 {positive.chi2:.1f} < {positive.critical:.1f}, flat chi2 "
        f"{negative.chi2:.0f} rejected, L1 to fringe law {l1_sharp:.4f}, "
        f"long-run gap {conv:.4f}, {elapsed:.1f} s",
    )


def test_criterion_5_unequal_and_three_sources():
    tau, window = 10000, 9000
    sites = np.arange(-window, window + 1)
    edges = np.linspace(-window, window + 1, 11)

    cfg = two_slit_config(delta=2, p1=0.9, n_particles=5000, n_steps=tau, seed=77)
    hist = run_trained_slits(cfg, shards=4)
    obs = bin_counts(hist.support, hist.counts, edges, window)
    obs /= obs.sum()
    ref = bin_density(multi_slit_density(sites, tau, cfg.sources), sites, edges)
    l1_unequal = float(np.abs(obs - ref).sum())

    # fringe visibility from a two-regressor fit on a finer binning: the
    # 0.9/0.1 weighting gives contrast 2*sqrt(0.09) = 0.6
    edges50 = np.linspace(-window, window + 1, 51)
    obs50 = bin_counts(hist.support, hist.counts, edges50, window)
    obs50 /= obs50.sum()
    centers = (edges50[:-1] + edges50[1:]) / 2.0
    design = np.column_stack([np.ones(50), np.cos(np.pi * 2.0 * centers / tau)])
    coef, *_ = np.linalg.lstsq(design, obs50, rcond=None)
    visibility = float(coef[1] / coef[0])

    cfg3 = ScenarioConfig(
        "multi-slit", 5000, tau, [(-1, 1 / 3), (0, 1 / 3), (1, 1 / 3)], seed=78
    )
    hist3 = run_trained_slits(cfg3, shards=4)
    obs3 = bin_counts(hist3.support, hist3.counts, edges, window)
    obs3 /= obs3.sum()
    ref3 = bin_density(multi_slit_density(sites, tau, cfg3.sources), sites, edges)
    l1_three = float(np.abs(obs3 - ref3).sum())

    ok = l1_unequal <= 0.05 and abs(visibility - 0.6) <= 0.1 and l1_three <= 0.05
    assert report(
        5,
        ok,
        f"L1 unequal {l1_unequal:.4f}, visibility {visibility:.3f} vs 0.6 +- 0.1, "
        f"L1 three-source {l1_three:.4f}",
    )


def test_criterion_6_boson_closed_forms():
    worst_product = 0.0
    for delta in (1, 2, 3):
        for q in np.linspace(-0.9 / delta, 0.9 / delta, 19):
            gap = abs(site_decay_product(q, delta, 1000) - expected_site_momentum(q, delta))
            worst_product = max(worst_product, gap)
    worst_series = max(
        abs(particle_boson_series(pair, 10**5) - math.sqrt(pair))
        for pair in (0.01, 0.09, 0.25)
    )
    ok = worst_product <= 1e-3 and worst_series <= 1e-4
    assert report(
        6, ok, f"decay product gap {worst_product:.2e}, series gap {worst_series:.2e}"
    )


def test_criterion_7_ring_quantization():
    t0 = time.time()
    gaps = []
    for p in (0.05, 0.33, 0.61):
        mean = run_ring(oracles.bound_config("ring", ell=10, p=p, n_steps=100000, seed=26))[0]
        gaps.append(abs(mean - ring_steady_momentum(p, 10)))
    worst_lock = max(gaps)

    # partial pairwise sum with 1000 sources vs the sawtooth limit, off the
    # jump points where the limit is one-sided
    worst_sum = 0.0
    for q in np.linspace(-0.99, 0.99, 67):
        if abs(q * 5.0 - round(q * 5.0)) < 0.08:
            continue
        gap = abs(oracles.ring_limit_sum(q, 10, 1000) - ring_memory_force(q, 10))
        worst_sum = max(worst_sum, gap)
    elapsed = time.time() - t0
    ok = worst_lock <= 0.5 / 10.0 and worst_sum <= 1e-2
    assert report(
        7,
        ok,
        f"lock gap {worst_lock:.4f} <= 0.05, partial-sum gap {worst_sum:.2e}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_8_matter_wave_frequency():
    exact_at_one = analytic.matter_frequency(1.0) == 1.0
    worst_rel = max(
        abs(analytic.matter_frequency(e) - e) / e for e in (0.01, 0.02, 0.05)
    )
    worst_series = 0.0
    for b in (0.1, 0.25, 0.4, 0.5):
        partial = analytic.return_series_partial(b, 500)
        closed = analytic.return_series_sums(b)
        worst_series = max(
            worst_series, abs(partial[0] - closed[0]), abs(partial[1] - closed[1])
        )
    ok = exact_at_one and worst_rel <= 0.1 and worst_series <= 1e-9
    assert report(
        8,
        ok,
        f"f(1)={analytic.matter_frequency(1.0)}, small-e gap {worst_rel:.3f}, "
        f"series gap {worst_series:.1e}",
    )


def test_criterion_9_boost_identities():
    rng = np.random.default_rng(90)
    tau = 250.0
    worst = 0.0
    for _ in range(100):
        p = rng.uniform(-0.95, 0.95)
        beta = rng.uniform(-0.95, 0.95)
        q = rng.uniform(-0.95, 0.95)
        frame = analytic.lorentz_check(p, beta, q * tau, tau)
        worst = max(worst, abs(frame.shift_residual), abs(frame.spread_residual))
    gap = analytic.lorentz_check(0.2, 0.3, 0.2 * 10**4, 10**4).density_gap
    ok = worst <= 1e-10 and gap <= 1e-3
    assert report(9, ok, f"max residual {worst:.1e}, on-ray density gap {gap:.1e}")


def test_criterion_10_guidance_residuals_second_order():
    coarse = analytic.dbb_residuals(1.0)
    fine = analytic.dbb_residuals(0.5)
    ratio_cont = coarse[0] / fine[0]
    ratio_hj = coarse[1] / fine[1]
    ok = ratio_cont >= 3.0 and ratio_hj >= 3.0
    assert report(
        10, ok, f"halving shrinks residuals x{ratio_cont:.2f} and x{ratio_hj:.2f}"
    )


def test_criterion_11_wave_packet_correspondence():
    worst_flat = 0.0
    for tau in (100, 250, 1000):
        xi = np.arange(-tau, tau + 1)
        ratio = analytic.ensemble_probability(xi, tau) * 2.0 * tau - 1.0
        worst_flat = max(worst_flat, float(np.abs(ratio).max()) * 2.0 * tau)
    tau = 10**4
    xi = np.arange(1, tau // 2)
    worst_phase = float(np.max(analytic.action_phase_gap(xi, tau)))
    ok = worst_flat <= 1.0 and worst_phase <= 1e-4
    assert report(
        11,
        ok,
        f"flat-law gap {worst_flat:.3f} in units of 1/(2 tau), "
        f"phase gap {worst_phase:.1e}",
    )
