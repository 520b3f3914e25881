"""Scenario configs, fringe densities, ray locking, bound geometries."""

import importlib.util
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import example, given, strategies as st

from latticemc import qm_oracle, scenarios
from latticemc.qforce import _RING_FORCE_SLACK

EQUAL_PAIR = [(1, 0.5), (-1, 0.5)]
TEN_SOURCES = [(s, 0.1) for s in range(-15, 13, 3)]


# ---------------------------------------------------------------------------
# rounding helper and configs


@pytest.mark.parametrize(
    "x,expected",
    [(0.0, 0), (0.5, 1), (-0.5, -1), (1.5, 2), (2.4, 2), (-2.5, -3), (-2.4, -2)],
)
def test_round_half_away(x, expected):
    assert scenarios._round_half_away(x) == expected


def test_two_slit_config_layout():
    cfg = scenarios.two_slit_config(6, p1=0.7)
    assert cfg.kind == "two-slit"
    assert cfg.sources[0] == (3, 0.7)
    assert cfg.sources[1][0] == -3
    assert cfg.sources[1][1] == pytest.approx(0.3)


@pytest.mark.parametrize("delta", [0, -2, 3, 7])
def test_two_slit_config_rejects_bad_separation(delta):
    with pytest.raises(ValueError):
        scenarios.two_slit_config(delta)


def test_two_slit_config_rejects_bad_weight():
    with pytest.raises(ValueError):
        scenarios.two_slit_config(2, p1=1.2)


def test_multi_slit_config_checks_weights_and_sites():
    cfg = scenarios.ScenarioConfig("multi-slit", 50000, 300, [(-2, 0.25), (0, 0.5), (2, 0.25)])
    assert cfg.kind == "multi-slit"
    with pytest.raises(ValueError):
        scenarios.ScenarioConfig("multi-slit", 50000, 300, [(0, 0.5), (0, 0.5)])
    with pytest.raises(ValueError):
        scenarios.ScenarioConfig("multi-slit", 50000, 300, [(0, 0.5), (2, 0.6)])
    with pytest.raises(ValueError):
        scenarios.ScenarioConfig("multi-slit", 50000, 300, [(0, 1.0)])


def test_ring_box_config_validation():
    oracles.bound_config("ring", 10, 0.3)
    oracles.bound_config("box", 6, -0.5)
    with pytest.raises(ValueError):
        oracles.bound_config("ring", 1, 0.3)
    with pytest.raises(ValueError):
        oracles.bound_config("box", 6, 1.5)
    with pytest.raises(ValueError):
        scenarios.ScenarioConfig(kind="maze", n_particles=1, n_steps=1)
    with pytest.raises(ValueError):
        scenarios.ScenarioConfig(kind="ring", n_particles=0, n_steps=1, ell=4, p=0.1)


def test_two_slit_sources_must_be_symmetric():
    with pytest.raises(ValueError):
        scenarios.ScenarioConfig(
            kind="two-slit", n_particles=10, n_steps=10, sources=((2, 0.5), (-1, 0.5))
        )


# ---------------------------------------------------------------------------
# densities


def test_two_slit_density_equals_wave_reference():
    tau, delta = 150, 4
    sources = [(delta // 2, 0.6), (-delta // 2, 0.4)]
    xi = np.arange(-tau, tau + 1)
    ours = scenarios.multi_slit_density(xi, tau, sources)
    ref = qm_oracle.qm_multi_source(xi, tau, sources)
    assert np.abs(ours - ref).max() <= 1e-15


def test_multi_slit_density_equals_wave_reference():
    tau = 80
    sources = [(-3, 0.2), (0, 0.5), (3, 0.3)]
    xi = np.arange(-tau, tau + 1)
    ours = scenarios.multi_slit_density(xi, tau, sources)
    ref = qm_oracle.qm_multi_source(xi, tau, sources)
    assert np.abs(ours - ref).max() <= 1e-15


def test_multi_slit_density_equals_benchmark_cosine_law(monkeypatch):
    # perfbench restates the fringe law for its output checks; this keeps
    # that restatement and the library's law in step
    bench = Path(__file__).resolve().parent.parent / "perfbench"

    def load(name):  # registered under its own name: workloads imports checks by it
        spec = importlib.util.spec_from_file_location(name, bench / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        return module

    checks = load("checks")
    two_sources = load("workloads").TWO_SOURCES
    xi = np.arange(-315, 313)
    ours = scenarios.multi_slit_density(xi, 300, two_sources)
    assert np.abs(checks.cosine_law(xi, 300, two_sources) - ours).max() <= 1e-15


def test_momentum_density_two_slit():
    # fringe law in momentum: maxima at pbar = 2n/delta, zeros between
    assert oracles.ray_density(0.0, EQUAL_PAIR) == pytest.approx(1.0)
    assert oracles.ray_density(0.5, EQUAL_PAIR) == pytest.approx(0.0, abs=1e-15)
    assert oracles.ray_density(1.0, EQUAL_PAIR) == pytest.approx(1.0)
    arr = oracles.ray_density(np.array([0.0, 0.25]), [(1, 0.25), (-1, 0.25)])
    assert arr[0] == pytest.approx(0.75)
    # momentum density integrates to 1 over the full range [-1, 1)
    q = np.linspace(-1.0, 1.0, 4001)[:-1]
    dens = oracles.ray_density(q, EQUAL_PAIR)
    assert 2.0 * np.mean(dens) == pytest.approx(1.0, abs=1e-12)


def test_density_domain_errors():
    with pytest.raises(ValueError):
        scenarios.multi_slit_density(0, 0, EQUAL_PAIR)
    with pytest.raises(ValueError):
        oracles.ray_density(0.0, [(1, 0.5), (1, 0.5)])
    with pytest.raises(ValueError):
        scenarios.multi_slit_density(0, 10, [(1, 0.5), (1, 0.5)])


def test_momentum_density_multi_reduces_to_pair_form():
    q = np.linspace(-1.0, 1.0, 201)
    got = oracles.ray_density(q, [(1, 0.3), (-1, 0.7)])
    want = (1.0 + 2.0 * math.sqrt(0.3 * 0.7) * np.cos(2.0 * math.pi * q)) / 2.0
    assert np.abs(got - want).max() <= 1e-15
    assert isinstance(oracles.ray_density(0.2, [(1, 0.5), (-1, 0.5)]), float)


def test_momentum_density_multi_normalizes():
    sources = [(-3, 0.2), (0, 0.5), (3, 0.3)]
    q = np.linspace(-1.0, 1.0, 6001)[:-1]
    dens = oracles.ray_density(q, sources)
    assert 2.0 * np.mean(dens) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        oracles.ray_density(0.0, [(2, 0.5), (2, 0.5)])


def test_pair_table_merges_equal_separations():
    # ten equal sources 3 apart: 45 pairs share 9 separations, and the
    # merged force and fringe law equal the sums over every pair
    sources = [(3 * i, 0.1) for i in range(10)]
    amps, deltas = scenarios._pair_terms(sources)
    assert deltas.tolist() == [3.0 * d for d in range(1, 10)]
    assert np.allclose(amps, [0.2 * (10 - d) for d in range(1, 10)], rtol=0, atol=1e-15)
    q = np.linspace(-1.0, 1.0, 401)
    force = np.zeros_like(q)
    fringe = np.ones_like(q)
    for i, (si, wi) in enumerate(sources):
        for sj, wj in sources[i + 1 :]:
            d = abs(si - sj)
            force += 2.0 * math.sqrt(wi * wj) * np.sin(math.pi * d * q) / (math.pi * d)
            fringe += 2.0 * math.sqrt(wi * wj) * np.cos(math.pi * d * q)
    assert np.abs(scenarios._memory_force(q, amps, deltas) - force).max() <= 1e-14
    assert np.abs(scenarios._fringe(q, amps, deltas) - fringe).max() <= 1e-14
    assert isinstance(scenarios._memory_force(0.3, amps, deltas), float)
    empty = scenarios._pair_terms([(0, 1.0)])
    assert empty[0].size == 0 and scenarios._memory_force(0.3, *empty) == 0.0
    with pytest.raises(ValueError):
        scenarios._pair_terms([(2, 0.5), (2, 0.5)])


def test_momentum_density_multi_single_source_is_flat():
    q = np.linspace(-1.0, 1.0, 11)
    assert np.all(oracles.ray_density(q, [(0, 1.0)]) == 0.5)


@pytest.mark.parametrize("delta,tau", [(2, 60), (2, 5), (300, 5), (800, 5), (2001, 5)])
def test_finite_time_density_is_a_pmf(delta, tau):
    # the quadrature must resolve cos(pi*delta*q) at every separation; the
    # sum runs over every site each source reaches, plus one past each edge
    sources = [(-(delta // 2), 0.5), (delta - delta // 2, 0.5)]
    xi = np.unique(np.concatenate([np.arange(s - tau - 1, s + tau + 2) for s, _ in sources]))
    pmf = scenarios.finite_time_slit_density(xi, tau, sources)
    assert np.all(pmf >= 0.0)
    assert abs(pmf.sum() - 1.0) <= 1e-9
    assert isinstance(scenarios.finite_time_slit_density(0, tau, sources), float)
    with pytest.raises(ValueError):
        scenarios.finite_time_slit_density(0, 0, sources)


def test_finite_time_density_single_source_is_uniform():
    # one source leaves the momentum density flat, and a uniform mixture of
    # locked walks lands uniformly on the light cone
    tau = 40
    xi = np.arange(-tau, tau + 1)
    pmf = scenarios.finite_time_slit_density(xi, tau, [(0, 1.0)])
    assert np.abs(pmf - 1.0 / (2 * tau + 1)).max() <= 1e-6


def test_finite_time_density_fills_fringe_zeros():
    # at finite tau the walk kernel blurs the fringe law; the dark fringe
    # at xi = tau/2 keeps a diffusion floor that the limit law lacks
    tau = 300
    dark = scenarios.finite_time_slit_density(150, tau, [(1, 0.5), (-1, 0.5)])
    sharp = scenarios.multi_slit_density(150, tau, EQUAL_PAIR)
    assert sharp <= 1e-12
    assert dark > 1e-5


def test_finite_time_density_converges_to_fringe_law():
    # interior of the light cone only: at the very edge the landing kernel
    # narrows to width 1/(2 tau) in momentum and needs more quadrature nodes
    tau = 3000
    xi = np.arange(-2850, 2851, 3)
    render = scenarios.finite_time_slit_density(xi, tau, [(1, 0.5), (-1, 0.5)])
    sharp = scenarios.multi_slit_density(xi, tau, EQUAL_PAIR)
    assert np.abs(render - sharp).max() * 2 * tau <= 0.005


# ---------------------------------------------------------------------------
# ray locking


def _solve_ray(p, sources):
    """The locked ray of one preparation ``p``."""
    return float(scenarios._solve_rays(np.array([p]), *scenarios._pair_terms(sources))[0])


def test_ray_equation_and_solver():
    for p in (0.0, 0.1, 0.3, -0.22):
        q = _solve_ray(p, EQUAL_PAIR)
        assert abs(oracles.ray_equation(q, p, 0.5, 0.5, 2)) <= 1e-11
    for p1, p2, delta in ((0.3, 0.7, 2), (0.8, 0.2, 6)):
        q = _solve_ray(0.41, [(delta // 2, p1), (-delta // 2, p2)])
        assert abs(oracles.ray_equation(q, 0.41, p1, p2, delta)) <= 1e-11
    assert _solve_ray(0.0, [(1, 0.3), (-1, 0.7)]) == pytest.approx(0.0, abs=1e-9)


def test_solve_ray_pull_is_toward_origin():
    # the memory term opposes the preparation, so |q| < |p| off the maxima
    q = _solve_ray(0.3, EQUAL_PAIR)
    assert 0.0 < q < 0.3


def test_propensity_guards_reject_nan_and_out_of_range():
    for p in (float("nan"), 1.5, -1.01):
        with pytest.raises(ValueError, match=r"p must lie in \[-1, 1\]"):
            oracles.mean_motion(p, EQUAL_PAIR, 3)
        with pytest.raises(ValueError, match=r"p must lie in \[-1, 1\]"):
            scenarios.ring_steady_momentum(p, 4)


@pytest.mark.parametrize(
    "sources",
    [[(1, 0.5), (-1, 0.5)], [(1, 0.3), (-1, 0.7)], [(4, 0.5), (-4, 0.5)], [(4, 0.3), (-4, 0.7)],
     TEN_SOURCES],
    ids=["d2", "d2-unequal", "d8", "d8-unequal", "ten-sources"],
)
def test_solve_rays_matches_bisection_residuals(sources):
    # compare residuals |F(q) - p0|, not q: at a fringe zero F is locally
    # cubic and every q in a window about 1e-5 wide solves F(q) = p0 to
    # rounding.  p0 = +/-1 sits on a fringe zero of the ten-source row.
    amps, deltas = scenarios._pair_terms(sources)
    grid = np.linspace(-1.0, 1.0, 200_001)
    flat = grid[np.argsort(scenarios._fringe(grid, amps, deltas))[:50]]
    at_flat = flat + scenarios._memory_force(flat, amps, deltas)
    p0 = np.concatenate([
        np.random.default_rng(12).uniform(-1.0, 1.0, 20_000),
        [-1.0, 0.0, 1.0],
        np.clip(np.concatenate([at_flat - 1e-9, at_flat + 1e-9]), -1.0, 1.0),
    ])

    def residual(q):
        return np.abs(q - p0 + scenarios._memory_force(q, amps, deltas))

    q = scenarios._solve_rays(p0, amps, deltas)
    reference = residual(oracles.bisect_rays(p0, amps, deltas))
    assert np.all(residual(q) <= reference + 8 * np.finfo(float).eps)
    half = len(p0) // 2
    halves = [scenarios._solve_rays(part, amps, deltas) for part in (p0[:half], p0[half:])]
    assert np.array_equal(q, np.concatenate(halves))


def test_solve_rays_working_set_does_not_grow_with_rays():
    # rays are polished in fixed-size blocks, so apart from the returned
    # array the solver's peak memory is the same for 15k and 150k rays
    amps, deltas = scenarios._pair_terms(TEN_SOURCES)

    def working_set(n):
        p0 = np.random.default_rng(13).uniform(-1.0, 1.0, n)
        tracemalloc.start()
        try:
            q = scenarios._solve_rays(p0, amps, deltas)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - q.nbytes

    assert working_set(150_000) <= 1.5 * working_set(15_000)


def test_mean_motion_converges_to_locked_ray():
    tau_max = 5000
    for p in (0.1, 0.3, -0.22):
        q_star = _solve_ray(p, EQUAL_PAIR)
        xs, ps = oracles.mean_motion(p, EQUAL_PAIR, tau_max)
        assert xs.shape == (tau_max,)
        assert ps.shape == (tau_max,)
        assert xs[0] == p
        assert abs(ps[-1] - q_star) <= 1e-6
        assert abs(xs[-1] / tau_max - q_star) <= 1e-6


def test_mean_motion_validates():
    with pytest.raises(ValueError):
        oracles.mean_motion(0.1, EQUAL_PAIR, 0)


# ---------------------------------------------------------------------------
# bound geometries


@pytest.mark.parametrize(
    "p,ell,expected",
    [(0.05, 10, 0.0), (0.33, 10, 0.4), (0.61, 10, 0.6), (-0.45, 10, -0.4), (0.4, 10, 0.4)],
)
def test_ring_steady_momentum(p, ell, expected):
    assert scenarios.ring_steady_momentum(p, ell) == pytest.approx(expected)


@pytest.mark.parametrize(
    "p,ell,expected", [(0.28, 10, 0.3), (0.05, 10, 0.1), (-0.33, 6, -0.3333333333333333)]
)
def test_box_steady_momentum(p, ell, expected):
    period = oracles.bound_config("box", ell, p).period
    assert scenarios.ring_steady_momentum(p, period) == pytest.approx(expected)


def test_box_levels_are_twice_as_dense():
    # a box of width ell quantizes like a ring of circumference 2*ell, bit
    # for bit the box rule round(p*ell)/ell
    for ell in range(2, 60):
        period = oracles.bound_config("box", ell, 0.0).period
        assert period == 2 * ell and oracles.bound_config("ring", ell, 0.0).period == ell
        for p in np.linspace(-1.0, 1.0, 201).tolist() + [0.5 / ell, -1.5 / ell]:
            box_rule = scenarios._round_half_away(p * ell) / ell
            assert scenarios.ring_steady_momentum(p, period) == box_rule


def test_steady_momentum_domain():
    with pytest.raises(ValueError):
        scenarios.ring_steady_momentum(0.3, 1)
    with pytest.raises(ValueError):
        scenarios.ring_steady_momentum(1.2, 10)


def test_ring_limit_sum_converges_to_sawtooth():
    # Fejer-weighted pair sum against the closed sawtooth, away from jumps
    for pbar, ell in [(0.13, 5), (0.07, 10), (0.31, 4), (-0.18, 7)]:
        partial = oracles.ring_limit_sum(pbar, ell, 1000)
        closed = scenarios.ring_memory_force(pbar, ell)
        assert abs(partial - closed) <= 1e-2
    with pytest.raises(ValueError):
        oracles.ring_limit_sum(0.1, 5, 1)


def test_ring_limit_sum_is_the_equal_source_pair_table():
    # the closed-form multiplicities equal the pair table of 50 equal
    # sources spaced ell apart
    sources = [(5 * k, 1.0 / 50) for k in range(50)]
    table = scenarios._pair_terms(sources)
    for pbar in (0.13, -0.29, 0.5, 0.77):
        merged = scenarios._memory_force(pbar, *table)
        assert abs(oracles.ring_limit_sum(pbar, 5, 50) - merged) <= 1e-15


def test_ring_limit_sum_truncation_settles():
    # consecutive truncations agree once the tail weight fades
    pbar, ell = 0.13, 5
    a = oracles.ring_limit_sum(pbar, ell, 4000)
    b = oracles.ring_limit_sum(pbar, ell, 8000)
    assert abs(a - b) <= 1e-5


def test_sawtooth_oddness_and_periodicity():
    for q in (0.07, 0.13, 0.29):
        assert scenarios.ring_memory_force(-q, 5) == pytest.approx(
            -scenarios.ring_memory_force(q, 5), abs=1e-15
        )
        assert scenarios.ring_memory_force(q + 2.0 / 5, 5) == pytest.approx(
            scenarios.ring_memory_force(q, 5), abs=1e-15
        )


def test_sawtooth_bounded_by_inverse_ell():
    ell = 6
    q = np.linspace(-1.0, 1.0, 1201)
    q = q[np.abs(q * ell / 2 - np.round(q * ell / 2)) > 1e-9]  # the sawtooth between the rays
    values = [scenarios.ring_memory_force(float(x), ell) for x in q]
    assert max(abs(v) for v in values) <= 1.0 / ell + 1e-12


def test_ring_memory_force_vanishes_on_quantized_rays():
    for ell in (4, 5, 10):
        for n in range(-ell // 2, ell // 2 + 1):
            q = 2.0 * n / ell
            assert scenarios.ring_memory_force(q, ell) == 0.0
    # and is nonzero just off the ray
    assert scenarios.ring_memory_force(0.41, 10) != 0.0


@given(q=st.floats(-1.0, 1.0), period=st.integers(2, 1000))
@example(q=-28 / 41, period=41)  # a ray the float test misses: the force is about -1/41, not 0
def test_ring_memory_force_is_bounded_by_the_ray_spacing(q, period):
    # the premise of run_ring's bracket: the force never moves p_eff by more than 1/period
    assert abs(scenarios.ring_memory_force(q, period)) <= 1.0 / period + _RING_FORCE_SLACK


@given(period=st.integers(2, 200))
def test_ring_memory_force_is_bounded_at_the_cell_edges(period):
    # the sawtooth jumps by 2/period at each ray 2n/period, so on the rounded
    # ray and a few ulps either side of it the force is 0 or near +/-1/period
    for n in range(-(period // 2), period // 2 + 1):
        for direction in (-np.inf, np.inf):
            q = 2.0 * n / period
            for _ in range(5):
                if abs(q) <= 1.0:
                    assert abs(scenarios.ring_memory_force(q, period)) <= (
                        1.0 / period + _RING_FORCE_SLACK
                    )
                q = float(np.nextafter(q, direction))


def test_ring_memory_force_restores_toward_ray():
    # below a stable ray the force is negative (p_eff = p - force grows)
    ell = 10
    assert scenarios.ring_memory_force(0.38, ell) < 0.0
    assert scenarios.ring_memory_force(0.42, ell) > 0.0


def test_box_memory_force_is_ring_at_double_circumference():
    # a box's force is the ring force at its period 2*ell: zero on every
    # box ray n/ell, and a sawtooth of half the ring's spacing between them
    period = oracles.bound_config("box", 5, 0.3).period
    assert period == 10
    for n in range(-5, 6):
        assert scenarios.ring_memory_force(n / 5, period) == 0.0
    assert scenarios.ring_memory_force(0.13, period) != scenarios.ring_memory_force(0.13, 5)
    with pytest.raises(ValueError):
        oracles.bound_config("box", 1, 0.1)


def test_forces_match_quantization_rules():
    # zeros of the force and the steady momentum map name the same rays
    ell = 8
    for p in np.linspace(-0.95, 0.95, 39):
        target = scenarios.ring_steady_momentum(p, ell)
        assert scenarios.ring_memory_force(target, ell) == 0.0
