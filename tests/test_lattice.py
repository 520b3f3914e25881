"""Transition probabilities and physical lattice units."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from latticemc.lattice import (
    ELECTRON_MASS,
    LIGHT_SPEED,
    PLANCK_H,
    LatticeUnits,
    lattice_units,
    transition_probs,
    uncertainty_product,
)


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
        assert abs(t.mean - p) <= 1e-15
        assert abs(t.variance - t.stay) <= 1e-15


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


def test_lattice_units_electron():
    units = lattice_units(ELECTRON_MASS)
    # spatial cell is half the Compton wavelength h/(m c)
    compton = PLANCK_H / (ELECTRON_MASS * LIGHT_SPEED)
    assert units.X == pytest.approx(compton / 2.0, rel=1e-12)
    assert units.T == pytest.approx(units.X / LIGHT_SPEED, rel=1e-12)
    assert units.c == pytest.approx(LIGHT_SPEED, rel=1e-12)


def test_action_quantum_is_half_planck():
    for mass in (ELECTRON_MASS, 1.0, 1e-27):
        units = lattice_units(mass)
        assert units.action_quantum == pytest.approx(PLANCK_H / 2.0, rel=1e-12)


def test_lattice_units_mass_scaling():
    light = lattice_units(1.0)
    heavy = lattice_units(10.0)
    assert light.X == pytest.approx(10.0 * heavy.X, rel=1e-12)
    assert light.T == pytest.approx(10.0 * heavy.T, rel=1e-12)


def test_lattice_units_rejects_bad_mass():
    with pytest.raises(ValueError):
        lattice_units(0.0)
    with pytest.raises(ValueError):
        lattice_units(-1e-30)


def test_uncertainty_product_lattice_units():
    # velocity spread c/n times position spread 2*n*X is constant
    dv, dx, product = uncertainty_product(10)
    assert dv == pytest.approx(0.1, abs=1e-15)
    assert dx == pytest.approx(20.0, abs=1e-12)
    assert product == pytest.approx(2.0, abs=1e-12)
    for n in (1, 7, 1000):
        _, _, prod_n = uncertainty_product(n)
        assert prod_n == pytest.approx(2.0, rel=1e-12)


def test_uncertainty_product_physical_units():
    units = lattice_units(ELECTRON_MASS)
    _, _, product = uncertainty_product(42, units)
    # m * dv * dx = m * 2 X^2/T = h: saturated up to the packaging factor
    assert ELECTRON_MASS * product == pytest.approx(PLANCK_H, rel=1e-12)


def test_uncertainty_product_rejects_bad_n():
    with pytest.raises(ValueError):
        uncertainty_product(0)


def test_units_dataclass_is_frozen():
    units = lattice_units(1.0)
    with pytest.raises(Exception):
        units.X = 1.0


def test_transition_probs_as_array():
    t = transition_probs(0.3)
    arr = t.as_array()
    assert arr.shape == (3,)
    # order: down, stay, up (ascending displacement)
    assert arr[0] == t.down
    assert arr[1] == t.stay
    assert arr[2] == t.up


def test_lattice_units_repr_fields():
    units = lattice_units(2.5)
    assert isinstance(units, LatticeUnits)
    assert units.mass == 2.5
    assert math.isfinite(units.X) and units.X > 0
    assert math.isfinite(units.T) and units.T > 0
