"""Transition probabilities of the one step law."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from latticemc.lattice import transition_probs


def test_transition_probs_reference_values():
    t = transition_probs(0.0)
    assert t.up == 0.25
    assert t.down == 0.25
    assert t.stay == 0.5
    t = transition_probs(1.0)
    assert t.up == 1.0
    assert t.stay == 0.0
    assert t.down == 0.0
    t = transition_probs(0.5)
    assert t.up == pytest.approx(0.5625, abs=1e-15)
    assert t.down == pytest.approx(0.0625, abs=1e-15)
    assert t.stay == pytest.approx(0.375, abs=1e-15)


def test_transition_probs_invariants_on_grid():
    for p in np.linspace(-1.0, 1.0, 201):
        t = transition_probs(float(p))
        assert abs(t.up + t.stay + t.down - 1.0) <= 1e-15
        assert abs(t.up - t.down - p) <= 1e-15
        assert abs(t.up + t.down - (1.0 + p * p) / 2.0) <= 1e-15
        assert abs(t.stay ** 2 - 4.0 * t.up * t.down) <= 1e-15
        # the per-tick velocity has mean p and variance E[v**2] - p**2 = stay
        assert abs(t.up + t.down - p * p - t.stay) <= 1e-15


@given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_transition_probs_invariants_property(p):
    t = transition_probs(p)
    assert 0.0 <= t.up <= 1.0
    assert 0.0 <= t.stay <= 0.5
    assert 0.0 <= t.down <= 1.0
    assert abs(t.up + t.stay + t.down - 1.0) <= 1e-15
    assert abs(t.up - t.down - p) <= 2e-16
    assert abs(t.energy - (1.0 + p * p) / 2.0) <= 1e-15


def test_energy_propensity_range():
    assert transition_probs(0.0).energy == 0.5
    assert transition_probs(1.0).energy == 1.0
    assert transition_probs(-1.0).energy == 1.0
    for p in np.linspace(-1, 1, 41):
        e = transition_probs(float(p)).energy
        assert 0.5 <= e <= 1.0
        assert abs(e - (1.0 + p * p) / 2.0) <= 1e-15


@pytest.mark.parametrize("bad", [1.5, -1.0001, float("nan"), 2.0])
def test_propensity_domain_errors(bad):
    with pytest.raises(ValueError):
        transition_probs(bad)
