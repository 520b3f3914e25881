"""Closed forms against brute-force enumeration, quadrature, and scipy."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from latticemc import analytic
from latticemc.lattice import transition_probs
from latticemc.qm_oracle import qm_multi_source

import oracles


# ---------------------------------------------------------------------------
# free-walk pmf


@pytest.mark.parametrize("tau", [1, 2, 3, 6])
@pytest.mark.parametrize("p", [-0.8, 0.0, 0.37])
def test_pmf_free_matches_enumeration(tau, p):
    table = oracles.enumerate_paths(tau, p)
    pmf = oracles.enumerated_pmf(table)
    for xi in range(-tau, tau + 1):
        assert analytic.pmf_free(xi, tau, p) == pytest.approx(pmf.get(xi, 0.0), abs=1e-14)


@pytest.mark.parametrize("tau", [1, 5, 17, 64])
@pytest.mark.parametrize("p", [-0.9, -0.2, 0.0, 0.55, 0.99])
def test_pmf_free_matches_recursion(tau, p):
    xi = np.arange(-tau, tau + 1)
    closed = analytic.pmf_free(xi, tau, p)
    recursive = analytic.pmf_recursive(tau, p)
    assert np.abs(closed - recursive).max() <= 1e-12


def test_pmf_free_is_shifted_binomial():
    # closed form equals Binomial(2 tau, (1+p)/2) on counts xi + tau
    tau, p = 40, 0.3
    xi = np.arange(-tau, tau + 1)
    ours = analytic.pmf_free(xi, tau, p)
    reference = scipy.stats.binom.pmf(xi + tau, 2 * tau, (1.0 + p) / 2.0)
    assert np.abs(ours - reference).max() <= 1e-13


def test_pmf_free_moments():
    tau, p = 60, -0.45
    xi = np.arange(-tau, tau + 1)
    pmf = analytic.pmf_free(xi, tau, p)
    b = transition_probs(p).stay
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    assert (xi * pmf).sum() == pytest.approx(p * tau, abs=1e-9)
    assert ((xi - p * tau) ** 2 * pmf).sum() == pytest.approx(b * tau, rel=1e-10)


def test_pmf_free_point_mass_at_unit_propensity():
    assert analytic.pmf_free(7, 7, 1.0) == 1.0
    assert analytic.pmf_free(6, 7, 1.0) == 0.0
    assert analytic.pmf_free(-5, 5, -1.0) == 1.0
    cone = np.arange(-7, 8)
    assert analytic.pmf_free(cone, 7, 1.0).tolist() == [0.0] * 14 + [1.0]
    assert analytic.pmf_free(cone, 7, -1.0).tolist() == [1.0] + [0.0] * 14


def test_pmf_free_outside_support_is_zero():
    assert analytic.pmf_free(11, 10, 0.3) == 0.0
    assert analytic.pmf_free(-200, 10, 0.3) == 0.0


def test_gaussian_limit_approaches_pmf():
    p = 0.1
    l1 = {}
    for tau in (500, 2000):
        xi = np.arange(-tau, tau + 1)
        l1[tau] = np.abs(
            analytic.pmf_free(xi, tau, p) - analytic.gaussian_limit(xi, tau, p)
        ).sum()
    assert l1[2000] < l1[500]
    assert l1[2000] < 3e-3


def test_gaussian_limit_rejects_degenerate_spread():
    with pytest.raises(ValueError):
        analytic.gaussian_limit(0, 10, 1.0)


# ---------------------------------------------------------------------------
# propensity-averaged ensemble


@pytest.mark.parametrize("tau", [1, 3, 10, 25])
def test_ensemble_probability_matches_quadrature(tau):
    for xi in {0, 1, tau // 2, tau}:
        oracle = oracles.quadrature_ensemble_pmf(xi, tau, analytic.pmf_free)
        assert analytic.ensemble_probability(xi, tau) == pytest.approx(oracle, abs=1e-9)


def test_ensemble_probability_is_flat():
    tau = 150
    xi = np.arange(-tau, tau + 1)
    values = analytic.ensemble_probability(xi, tau)
    assert np.all(values == values[0])
    assert values[0] == pytest.approx(1.0 / (2 * tau + 1), abs=1e-15)
    assert analytic.ensemble_probability(tau + 1, tau) == 0.0


def test_ensemble_vs_qm_density_gap():
    for tau in (100, 1000, 10000):
        ratio = analytic.ensemble_probability(0, tau) / qm_multi_source(0, tau, [(0, 1.0)])
        assert abs(ratio - 1.0) <= 1.0 / (2 * tau)


# ---------------------------------------------------------------------------
# accumulated energy along rays


@pytest.mark.parametrize("tau", [2, 4, 7])
@pytest.mark.parametrize("p", [-0.5, 0.0, 0.37, 0.9])
def test_energy_pmf_matches_enumeration(tau, p):
    table = oracles.enumerate_paths(tau, p)
    for xi in range(-tau, tau + 1):
        oracle = oracles.enumerated_energy_pmf(table, xi)
        if not oracle:
            continue
        for sigma in analytic.energy_support(xi, tau):
            assert analytic.energy_pmf(sigma, xi, tau) == pytest.approx(
                oracle.get(sigma, 0.0), abs=1e-12
            )


def test_energy_pmf_is_propensity_free():
    # the conditional law given the arrival site does not depend on p
    tau, xi = 6, 2
    tables = [oracles.enumerate_paths(tau, p) for p in (-0.7, 0.1, 0.8)]
    dists = [oracles.enumerated_energy_pmf(t, xi) for t in tables]
    for sigma in dists[0]:
        assert dists[1][sigma] == pytest.approx(dists[0][sigma], abs=1e-12)
        assert dists[2][sigma] == pytest.approx(dists[0][sigma], abs=1e-12)


def test_energy_pmf_hand_values():
    # two ticks ending at the origin: the two moving paths carry weight 2*u*d,
    # both-stay carries b^2 = 4 u d, so never-moving wins 2/3 to 1/3
    assert analytic.energy_pmf(0, 0, 2) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert analytic.energy_pmf(2, 0, 2) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert analytic.energy_pmf(1, 1, 1) == 1.0


def test_energy_mean_var_match_enumeration():
    tau = 7
    table = oracles.enumerate_paths(tau, 0.3)
    for xi in (0, 1, 3, 6):
        oracle = oracles.enumerated_energy_pmf(table, xi)
        mean, var = oracles.mean_and_var(oracle)
        assert analytic.action(xi, tau) == pytest.approx(mean, abs=1e-11)
        assert analytic.energy_var(xi, tau) == pytest.approx(var, abs=1e-11)


def test_energy_mean_var_closed_forms():
    for xi, tau in [(0, 2), (5, 12), (0, 51), (30, 77)]:
        support = np.array(analytic.energy_support(xi, tau))
        pmf = np.array([analytic.energy_pmf(s, xi, tau) for s in support])
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        mean = float((support * pmf).sum())
        var = float(((support - mean) ** 2 * pmf).sum())
        assert analytic.action(xi, tau) == pytest.approx(mean, abs=1e-9)
        assert analytic.energy_var(xi, tau) == pytest.approx(var, abs=1e-8)


def test_energy_var_vanishes_on_light_cone():
    # at |xi| = tau every tick moved, so the energy is deterministic
    assert analytic.energy_var(9, 9) == 0.0
    assert analytic.action(9, 9) == 9.0


def test_particle_energy_matches_enumeration():
    tau, p = 6, 0.37
    table = oracles.enumerate_paths(tau, p)
    oracle = oracles.enumerated_particle_energy(table)
    e = transition_probs(p).energy
    for sigma in range(tau + 1):
        assert analytic.particle_energy_pmf(sigma, tau, e) == pytest.approx(
            oracle.get(sigma, 0.0), abs=1e-12
        )


def test_particle_energy_is_binomial():
    tau, e = 30, 0.71
    sig = np.arange(tau + 1)
    ours = np.array([analytic.particle_energy_pmf(int(s), tau, e) for s in sig])
    ref = scipy.stats.binom.pmf(sig, tau, e)
    assert np.abs(ours - ref).max() <= 1e-13


# ---------------------------------------------------------------------------
# action and phase


def test_particle_energy_certain_counts_beyond_exact_range():
    # e = 0 and e = 1 put all mass on one count; the log form must not
    # turn 0 * log(0) into nan
    tau = 50
    assert analytic.particle_energy_pmf(0, tau, 0.0) == 1.0
    assert analytic.particle_energy_pmf(1, tau, 0.0) == 0.0
    assert analytic.particle_energy_pmf(tau, tau, 1.0) == 1.0
    assert analytic.particle_energy_pmf(tau - 1, tau, 1.0) == 0.0


def test_log_binomial_matches_scipy_gammaln():
    gammaln = scipy.special.gammaln
    n = np.arange(0, 20001)
    assert np.allclose(analytic._log_factorials(20001), gammaln(n + 1.0), rtol=2e-15, atol=0)
    for big in (31, 1000, 20000):
        k = np.arange(0, big + 1)
        want = gammaln(big + 1.0) - gammaln(k + 1.0) - gammaln(big - k + 1.0)
        got = analytic._log_binomial(big, k)
        assert np.abs(got - want).max() <= 1e-15 * gammaln(big + 1.0)


def test_phase_gap_shrinks_like_inverse_tau():
    gaps = [analytic.action_phase_gap(5, tau) for tau in (100, 1000, 10000)]
    assert gaps[0] == pytest.approx(1.0 / 199.0, rel=1e-9)
    assert gaps[1] == pytest.approx(1.0 / 1999.0, rel=1e-6)
    assert gaps[2] <= 1e-4


def test_qm_phase_values():
    assert analytic.qm_phase(0, 5) == 0.0
    assert analytic.qm_phase(6, 9) == pytest.approx(2.0 * math.pi, abs=1e-12)


# ---------------------------------------------------------------------------
# continuum guidance residuals


def test_continuity_residual_is_negligible():
    cont, _ = analytic.dbb_residuals(spacing=1.0)
    assert cont <= 1e-6


def test_hamilton_residual_second_order():
    _, ham1 = analytic.dbb_residuals(spacing=1.0)
    _, ham2 = analytic.dbb_residuals(spacing=0.5)
    _, ham4 = analytic.dbb_residuals(spacing=0.25)
    assert ham1 / ham2 >= 3.0
    assert ham2 / ham4 >= 3.0


# ---------------------------------------------------------------------------
# return-time series and matter frequency


def test_return_time_first_values():
    b = transition_probs(0.4).stay
    # n=1: 2 b^2 (1/3 - 4/9 + 13/36) = b^2 / 2
    assert analytic.return_time_pmf(1, b) == pytest.approx(b * b / 2.0, abs=1e-15)
    # n=2: 2 b^4 (2/3 - 4/9 + 13/144) = 2 b^4 * 45/144
    assert analytic.return_time_pmf(2, b) == pytest.approx(2.0 * b**4 * 45.0 / 144.0, abs=1e-15)


@pytest.mark.parametrize("p", [0.05, 0.3, 0.6, 0.9])
def test_return_series_closed_sums(p):
    b = transition_probs(p).stay
    total, weighted = analytic.return_series_sums(b)
    part_total, part_weighted = analytic.return_series_partial(b, 6000)
    assert part_total == pytest.approx(total, abs=1e-9)
    assert part_weighted == pytest.approx(weighted, abs=1e-9)


def test_return_series_terms_sum_directly():
    b = transition_probs(0.35).stay
    n = np.arange(1, 4000)
    terms = analytic.return_time_pmf(n, b)
    total, weighted = analytic.return_series_sums(b)
    assert float(terms.sum()) == pytest.approx(total, abs=1e-9)
    assert float((n * terms).sum()) == pytest.approx(weighted, abs=1e-9)


def test_mean_return_time_consistency():
    b = transition_probs(0.5).stay
    total, weighted = analytic.return_series_sums(b)
    assert analytic.mean_return_time(b) == pytest.approx(weighted / total, rel=1e-12)


def test_matter_frequency_at_rest():
    assert analytic.matter_frequency(1.0) == 1.0


def test_matter_frequency_de_broglie_regime():
    for e in (0.002, 0.01, 0.05):
        f = analytic.matter_frequency(e)
        assert abs(f - e) / e <= 0.1


def test_matter_frequency_equals_series_ratio():
    # 1 / mean return time, with the clock advancing e per tick
    for p in (0.2, 0.5, 0.8):
        e = transition_probs(p).energy
        b = 1.0 - e
        assert analytic.matter_frequency(e) == pytest.approx(
            1.0 / analytic.mean_return_time(b), rel=1e-12
        )


def test_matter_frequency_domain():
    with pytest.raises(ValueError):
        analytic.matter_frequency(1.2)
    with pytest.raises(ValueError):
        analytic.matter_frequency(-0.1)


# ---------------------------------------------------------------------------
# boost identities


def test_lorentz_identities_random_triples():
    rng = np.random.default_rng(12345)
    worst_shift = worst_spread = 0.0
    for _ in range(100):
        p = float(rng.uniform(-0.95, 0.95))
        beta = float(rng.uniform(-0.95, 0.95))
        tau = int(rng.integers(50, 5000))
        xi = int(rng.integers(-tau, tau + 1))
        frame = analytic.lorentz_check(p, beta, xi, tau)
        worst_shift = max(worst_shift, abs(frame.shift_residual))
        worst_spread = max(worst_spread, abs(frame.spread_residual))
    assert worst_shift <= 1e-10
    assert worst_spread <= 1e-10


def test_lorentz_boost_composition_identity():
    # boosting by the particle's own propensity brings it to rest
    frame = analytic.lorentz_check(0.6, 0.6, 600, 1000)
    assert frame.p_boosted == pytest.approx(0.0, abs=1e-14)


def test_lorentz_comoving_density_gap():
    frame = analytic.lorentz_check(0.35, 0.35, 3500, 10000)
    assert abs(frame.density_gap) <= 1e-3


def test_lorentz_rejects_superluminal():
    with pytest.raises(ValueError):
        analytic.lorentz_check(0.5, 1.0, 0, 10)
    with pytest.raises(ValueError):
        analytic.lorentz_check(1.5, 0.2, 0, 10)
