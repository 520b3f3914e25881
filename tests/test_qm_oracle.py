"""Reference wave-mechanics densities the simulator is judged against."""

import math

import numpy as np
import pytest

from latticemc import qm_oracle


def _pair(p1, p2, delta):
    """Two sources ``delta`` sites apart with weights (p1, p2)."""
    return [(0, p1), (delta, p2)]


def test_single_source_is_flat():
    assert qm_oracle.qm_multi_source(0, 50, [(0, 1.0)]) == pytest.approx(0.01)
    arr = qm_oracle.qm_multi_source(np.arange(-5, 6), 50, [(0, 1.0)])
    assert np.all(arr == 0.01)
    with pytest.raises(ValueError):
        qm_oracle.qm_multi_source(0, 0, [(0, 1.0)])


def test_two_source_extremes():
    tau = 100
    # equal weights: full visibility, density doubles at the center
    assert qm_oracle.qm_multi_source(0, tau, _pair(0.5, 0.5, 2)) == pytest.approx(1.0 / tau)
    # first dark fringe for delta=2 sits at xi = tau/2
    dark = qm_oracle.qm_multi_source(tau // 2, tau, _pair(0.5, 0.5, 2))
    assert dark == pytest.approx(0.0, abs=1e-15)
    # one closed slit: flat again
    assert qm_oracle.qm_multi_source(17, tau, _pair(1.0, 0.0, 2)) == pytest.approx(1.0 / (2 * tau))


def test_two_source_period_counts_fringes():
    # maxima at xi = 2 n tau / delta: delta - 1 of them strictly inside
    # the screen, one more on each edge
    tau, delta = 300, 4
    xi = np.arange(-tau, tau + 1)
    dens = qm_oracle.qm_multi_source(xi, tau, _pair(0.5, 0.5, delta))
    maxima = np.flatnonzero((dens[1:-1] > dens[:-2]) & (dens[1:-1] >= dens[2:]))
    assert len(maxima) == delta - 1
    assert xi[maxima + 1].tolist() == [-150, 0, 150]


def test_two_source_sums_to_one_over_screen():
    # pairwise cosine sums vanish over 2*tau consecutive sites
    tau = 64
    xi = np.arange(-tau, tau)
    for p1 in (0.5, 0.9, 0.3):
        dens = qm_oracle.qm_multi_source(xi, tau, _pair(p1, 1.0 - p1, 6))
        assert dens.sum() == pytest.approx(1.0, abs=1e-12)


def test_multi_source_reduces_to_two_source():
    # two sources give the closed two-source law (1 + 2 sqrt(p1 p2) cos) / (2 tau)
    tau, delta = 90, 4
    xi = np.arange(-tau, tau + 1)
    pair = (1.0 + 2.0 * math.sqrt(0.7 * 0.3) * np.cos(math.pi * delta * xi / tau)) / (2.0 * tau)
    multi = qm_oracle.qm_multi_source(xi, tau, [(delta // 2, 0.7), (-delta // 2, 0.3)])
    assert np.abs(pair - multi).max() <= 1e-15


def test_equal_spaced_matches_multi_source():
    # n equal sources delta apart: separation j*delta occurs n - j times
    tau, n_sources, delta = 120, 4, 2
    xi = np.arange(-tau, tau + 1)
    sources = [((j - (n_sources - 1) / 2) * delta, 1.0 / n_sources) for j in range(n_sources)]
    # sites must be integers; (j - 1.5) * 2 is
    sources = [(int(s), w) for s, w in sources]
    direct = qm_oracle.qm_multi_source(xi, tau, sources)
    collapsed = np.ones(xi.shape)
    for j in range(1, n_sources):
        collapsed += (2.0 * (n_sources - j) / n_sources) * np.cos(math.pi * j * delta * xi / tau)
    collapsed /= 2.0 * tau
    assert np.abs(direct - collapsed).max() <= 1e-12


def test_multi_source_normalization_and_errors():
    tau = 32
    xi = np.arange(-tau, tau)
    dens = qm_oracle.qm_multi_source(xi, tau, [(-2, 0.25), (0, 0.5), (2, 0.25)])
    assert dens.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        qm_oracle.qm_multi_source(0, tau, [(0, 0.5), (1, 0.6)])
    with pytest.raises(ValueError):
        qm_oracle.qm_multi_source(0, tau, [(1, 0.5), (1, 0.5)])


def test_equal_spaced_single_source_degenerates():
    # one source is flat wherever it sits
    assert qm_oracle.qm_multi_source(11, 40, [(7, 1.0)]) == pytest.approx(1.0 / 80.0)


def test_phase_argument_convention():
    # the cosine argument advances by pi when xi moves tau/delta sites
    tau, delta = 60, 3
    a = qm_oracle.qm_multi_source(0, tau, _pair(0.5, 0.5, delta))
    b = qm_oracle.qm_multi_source(tau // delta, tau, _pair(0.5, 0.5, delta))
    assert a == pytest.approx(1.0 / tau)
    assert b == pytest.approx(0.0, abs=1e-15)
    assert math.isclose(a + b, 1.0 / tau, abs_tol=1e-15)
