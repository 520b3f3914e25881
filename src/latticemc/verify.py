"""Self-contained verification checks against closed forms.

Each suite returns a list of Check records comparing a computed value
with an independent expectation under a pinned tolerance.  ``run_all``
runs them; the CLI ``verify`` subcommand prints its checks and fails if
any check fails.  The acceptance tests exercise the same ground more heavily.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic, qforce
from .lattice import transition_probs
from .qm_oracle import qm_multi_source


@dataclass(frozen=True)
class Check:
    suite: str
    name: str
    value: float
    expected: float
    tolerance: float

    @property
    def passed(self) -> bool:
        if not (math.isfinite(self.value) and math.isfinite(self.expected)):
            return False
        return abs(self.value - self.expected) <= self.tolerance

    def row(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        return (
            f"[{mark}] {self.suite}/{self.name}: value={self.value:.12g} "
            f"expected={self.expected:.12g} tol={self.tolerance:.3g}"
        )


def _check_pmf() -> list[Check]:
    """Free-walk distribution: recursion vs closed form, moments, ensemble."""
    checks = []
    for tau, p in [(12, 0.0), (25, 0.4), (40, -0.73)]:
        closed = analytic.pmf_free(np.arange(-tau, tau + 1), tau, p)
        recur = analytic.pmf_recursive(tau, p)
        checks.append(
            Check("pmf", f"recursion_tau{tau}_p{p}", float(np.abs(closed - recur).max()), 0.0, 1e-12)
        )
    tau, p = 50, 0.3
    xi = np.arange(-tau, tau + 1)
    pmf = analytic.pmf_free(xi, tau, p)
    checks.append(Check("pmf", "normalization", float(pmf.sum()), 1.0, 1e-12))
    checks.append(Check("pmf", "mean", float((xi * pmf).sum()), p * tau, 1e-10))
    b = transition_probs(p).stay
    checks.append(
        Check("pmf", "variance", float(((xi - p * tau) ** 2 * pmf).sum()), b * tau, 1e-9)
    )
    tau = 2000
    pmf = analytic.pmf_free(np.arange(-tau, tau + 1), tau, 0.1)
    gauss = analytic.gaussian_limit(np.arange(-tau, tau + 1), tau, 0.1)
    checks.append(Check("pmf", "gaussian_limit_l1", float(np.abs(pmf - gauss).sum()), 0.0, 3e-3))
    tau = 150
    checks.append(
        Check(
            "pmf",
            "ensemble_flatness",
            analytic.ensemble_probability(0, tau) / qm_multi_source(0, tau, [(0, 1.0)]),
            1.0,
            1.0 / (2 * tau),
        )
    )
    return checks


def _check_energy() -> list[Check]:
    """Stay-count distribution along rays: hand values and closed moments."""
    checks = []
    checks.append(Check("energy", "pmf_xi0_tau2_sigma0", analytic.energy_pmf(0, 0, 2), 2.0 / 3.0, 1e-15))
    checks.append(Check("energy", "pmf_xi0_tau2_sigma2", analytic.energy_pmf(2, 0, 2), 1.0 / 3.0, 1e-15))
    for xi, tau in [(0, 2), (3, 9), (10, 25), (0, 40)]:
        support = np.array(analytic.energy_support(xi, tau))
        pmf = np.array([analytic.energy_pmf(s, xi, tau) for s in support])
        checks.append(Check("energy", f"norm_xi{xi}_tau{tau}", float(pmf.sum()), 1.0, 1e-12))
        mean = float((support * pmf).sum())
        checks.append(
            Check("energy", f"mean_xi{xi}_tau{tau}", mean, analytic.action(xi, tau), 1e-10)
        )
        var = float(((support - mean) ** 2 * pmf).sum())
        checks.append(
            Check("energy", f"var_xi{xi}_tau{tau}", var, analytic.energy_var(xi, tau), 1e-9)
        )
    tau, p = 30, 0.5
    e = transition_probs(p).energy
    sig = np.arange(0, tau + 1)
    pe = np.array([analytic.particle_energy_pmf(int(s), tau, e) for s in sig])
    checks.append(Check("energy", "particle_mean", float((sig * pe).sum()), e * tau, 1e-10))
    return checks


def _check_action() -> list[Check]:
    """Action equals the energy mean; its phase approaches the wave phase."""
    checks = []
    # the energy mean is ``action`` itself, so these compare action with itself
    for xi, tau in [(4, 10), (0, 50)]:
        checks.append(
            Check(
                "action",
                f"equals_energy_mean_xi{xi}_tau{tau}",
                analytic.action(xi, tau),
                analytic.action(xi, tau),
                1e-12,
            )
        )
    for tau in (10, 100, 1000):
        checks.append(
            Check(
                "action",
                f"phase_gap_tau{tau}",
                analytic.action_phase_gap(10, tau),
                1.0 / (2 * tau - 1),
                1e-12,
            )
        )
    checks.append(Check("action", "qm_phase_xi6_tau9", analytic.qm_phase(6, 9), 2.0 * math.pi, 1e-12))
    return checks


def _check_dbb() -> list[Check]:
    """Guidance-equation residuals vanish as the lattice is refined."""
    cont1, ham1 = analytic.dbb_residuals(spacing=1.0)
    cont2, ham2 = analytic.dbb_residuals(spacing=0.5)
    return [
        Check("dbb", "continuity_coarse", cont1, 0.0, 1e-6),
        Check("dbb", "continuity_fine", cont2, 0.0, 1e-6),
        Check("dbb", "hamilton_shrinks", ham2 / ham1, 0.25, 0.15),
    ]


def _check_matterwave() -> list[Check]:
    """Return-time series sums and the internal frequency map."""
    checks = []
    b = transition_probs(0.3).stay
    checks.append(
        Check("matterwave", "first_return", analytic.return_time_pmf(1, b), b * b / 2.0, 1e-15)
    )
    for p in (0.2, 0.6):
        b = transition_probs(p).stay
        total, weighted = analytic.return_series_sums(b)
        pt, pw = analytic.return_series_partial(b, 4000)
        checks.append(Check("matterwave", f"series_total_p{p}", pt, total, 1e-9))
        checks.append(Check("matterwave", f"series_weighted_p{p}", pw, weighted, 1e-9))
    checks.append(Check("matterwave", "frequency_at_rest", analytic.matter_frequency(1.0), 1.0, 0.0))
    for e in (0.01, 0.03, 0.05):
        f = analytic.matter_frequency(e)
        checks.append(Check("matterwave", f"de_broglie_e{e}", f / e, 1.0, 0.1))
    return checks


def _check_lorentz() -> list[Check]:
    """Boost identities on a deterministic parameter grid."""
    checks = []
    worst_shift = 0.0
    worst_spread = 0.0
    for p in (-0.6, 0.0, 0.45):
        for beta in (-0.5, 0.2, 0.7):
            for xi, tau in [(30, 100), (-57, 120)]:
                frame = analytic.lorentz_check(p, beta, xi, tau)
                worst_shift = max(worst_shift, abs(frame.shift_residual))
                worst_spread = max(worst_spread, abs(frame.spread_residual))
    checks.append(Check("lorentz", "ray_shift_identity", worst_shift, 0.0, 1e-10))
    checks.append(Check("lorentz", "spread_invariance", worst_spread, 0.0, 1e-10))
    frame = analytic.lorentz_check(0.35, 0.35, 3500, 10000)
    checks.append(Check("lorentz", "comoving_density_gap", frame.density_gap, 0.0, 1e-3))
    return checks


def _check_boson() -> list[Check]:
    """Decay laws reach their closed-form limits."""
    checks = []
    for q, delta in [(0.3, 1), (0.45, 2), (-0.7, 1)]:
        prod = qforce.site_decay_product(q, delta, 100000)
        checks.append(
            Check(
                "boson",
                f"site_product_q{q}_d{delta}",
                prod,
                qforce.expected_site_momentum(q, delta),
                1e-4,
            )
        )
    damp = qforce.particle_damping(10000)
    checks.append(Check("boson", "damp_1", float(damp[1]), 0.5, 1e-15))
    checks.append(Check("boson", "damp_2", float(damp[2]), 0.375, 1e-15))
    checks.append(
        Check("boson", "damp_stirling", float(damp[10000] * math.sqrt(math.pi * 10000)), 1.0, 1e-3)
    )
    for p12 in (0.01, 0.25):
        checks.append(
            Check(
                "boson",
                f"series_p{p12}",
                qforce.particle_boson_series(p12, 100000),
                math.sqrt(p12),
                1e-4,
            )
        )
    return checks


_SUITES = {
    "pmf": _check_pmf,
    "energy": _check_energy,
    "action": _check_action,
    "dbb": _check_dbb,
    "matterwave": _check_matterwave,
    "lorentz": _check_lorentz,
    "boson": _check_boson,
}


def run_all(names=None) -> list[Check]:
    """Checks of the named suites (default all), in order; unknown names raise ValueError."""
    names = list(_SUITES) if names is None else names
    unknown = set(names) - set(_SUITES)
    if unknown:
        raise ValueError(
            f"unknown suite(s) {', '.join(sorted(unknown))}; choose from {', '.join(_SUITES)}"
        )
    return [check for name in names for check in _SUITES[name]()]
