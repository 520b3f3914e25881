"""Closed-form laws of the trinomial lattice walk.

Everything here is deterministic: exact pmfs and their recursions, the
ensemble (momentum-averaged) arrival law, the accumulated-energy
distribution obtained by path counting, the discrete action and its
continuum phase, first-return series for the internal clock frequency,
and the velocity-boost map of the walk parameters.

Binomial coefficients are evaluated exactly as integers up to tau = 30
and through log-gamma beyond, so every pmf stays usable at tau ~ 1e4.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .lattice import _check_propensity, _scalar_or_array

EXACT_BINOMIAL_MAX_TAU = 30


@functools.lru_cache(maxsize=8)
def _log_factorials(size: int) -> np.ndarray:
    """Table of log(m!) for m < size, each entry its own math.lgamma.

    A running sum of logs would drift by about 1e-9 at m = 2e4.
    """
    return np.fromiter((math.lgamma(m + 1.0) for m in range(size)), dtype=float, count=size)


def _log_binomial(n, k):
    n = np.asarray(n, dtype=np.int64)
    k = np.asarray(k, dtype=np.int64)
    # power-of-two table sizes let repeated pmf evaluations share one table
    table = _log_factorials(1 << int(n.max()).bit_length())
    return table[n] - table[k] - table[n - k]


def _check_tau(tau: int) -> int:
    if tau != int(tau) or tau < 1:
        raise ValueError(f"tau must be a positive integer, got {tau!r}")
    return int(tau)


# ---------------------------------------------------------------------------
# free-walk position pmf


def pmf_free(xi, tau: int, p: float, xi0: int = 0):
    """Probability of arriving at site ``xi`` after ``tau`` ticks.

    The displacement ``xi - xi0`` has the law of a Binomial(2*tau, (1+p)/2)
    count shifted by -tau: the walk's one trinomial step is equivalent in
    distribution to two coin half-steps.  Zero outside |xi - xi0| <= tau.
    Accepts scalar or array ``xi``.
    """
    tau = _check_tau(tau)
    p = _check_propensity(p)
    xi_arr = np.asarray(xi, dtype=np.int64)
    d = xi_arr - int(xi0)
    inside = np.abs(d) <= tau
    up = (1.0 + p) / 2.0
    down = (1.0 - p) / 2.0
    k = np.where(inside, tau + d, 0)
    if p == 1.0 or p == -1.0:
        target = tau if p == 1.0 else -tau
        out = np.where(inside & (d == target), 1.0, 0.0)
    else:
        log_pmf = _log_binomial(2 * tau, k) + k * math.log(up) + (2 * tau - k) * math.log(down)
        out = np.where(inside, np.exp(log_pmf), 0.0)
    return _scalar_or_array(xi, out)


def pmf_recursive(tau: int, p: float) -> np.ndarray:
    """Free-walk pmf over the full support [-tau, tau] by step recursion.

    Starts from a point mass and applies the three-term transition once per
    tick; serves as an independent route to ``pmf_free``.
    """
    tau = _check_tau(tau)
    p = _check_propensity(p)
    up = ((1.0 + p) / 2.0) ** 2
    down = ((1.0 - p) / 2.0) ** 2
    stay = (1.0 - p * p) / 2.0
    rho = np.array([1.0])
    kernel = np.array([down, stay, up])
    for _ in range(tau):
        rho = np.convolve(rho, kernel)
    return rho


def gaussian_limit(xi, tau: int, p: float, xi0: int = 0):
    """Large-tau normal density with mean p*tau + xi0 and variance stay*tau.

    Degenerate when |p| = 1 (the per-step variance vanishes); that case
    raises instead of returning a point mass.
    """
    tau = _check_tau(tau)
    p = _check_propensity(p)
    b = (1.0 - p * p) / 2.0
    if b == 0.0:
        raise ValueError("|p| = 1 gives a point mass; no density exists")
    xi_arr = np.asarray(xi, dtype=float)
    var = b * tau
    out = np.exp(-((xi_arr - xi0 - p * tau) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
    return _scalar_or_array(xi, out)


def ensemble_probability(xi, tau: int):
    """Arrival law after averaging the propensity uniformly over [-1, 1].

    Exactly flat: 1/(2*tau + 1) on |xi| <= tau, zero outside, for every tau.
    """
    tau = _check_tau(tau)
    xi_arr = np.asarray(xi, dtype=np.int64)
    out = np.where(np.abs(xi_arr) <= tau, 1.0 / (2 * tau + 1), 0.0)
    return _scalar_or_array(xi, out)


def qm_lattice_density(tau: int) -> float:
    """Flat wave-packet density 1/(2*tau) the ensemble law converges to."""
    tau = _check_tau(tau)
    return 1.0 / (2.0 * tau)


# ---------------------------------------------------------------------------
# accumulated energy (number of moving ticks) given the arrival site


def energy_support(xi: int, tau: int) -> range:
    """Possible moving-tick counts for a walk from 0 to ``xi`` in ``tau`` ticks."""
    tau = _check_tau(tau)
    axi = abs(int(xi))
    if axi > tau:
        raise ValueError(f"|xi| = {axi} exceeds tau = {tau}")
    return range(axi, tau + 1, 2)


def energy_pmf(sigma: int, xi: int, tau: int) -> float:
    """Probability that a walk arriving at ``xi`` at ``tau`` moved ``sigma`` times.

    Path counting: with ``sigma`` moving ticks there are
    C(tau, (sigma+|xi|)/2) * C(tau - (sigma+|xi|)/2, tau - sigma) up/down
    arrangements, each path weighted 2**(tau - sigma) relative to the
    others once the propensity cancels (stay**2 = 4*up*down).  Independent
    of the propensity.
    """
    tau = _check_tau(tau)
    axi = abs(int(xi))
    sigma = int(sigma)
    if axi > tau:
        raise ValueError(f"|xi| = {axi} exceeds tau = {tau}")
    if sigma < axi or sigma > tau or (sigma - axi) % 2 != 0:
        return 0.0
    n_up = (sigma + axi) // 2
    if tau <= EXACT_BINOMIAL_MAX_TAU:
        num = math.comb(tau, n_up) * math.comb(tau - n_up, tau - sigma) * (1 << (tau - sigma))
        return float(Fraction(num, math.comb(2 * tau, tau + axi)))
    log_val = (
        _log_binomial(tau, n_up)
        + _log_binomial(tau - n_up, tau - sigma)
        + (tau - sigma) * math.log(2.0)
        - _log_binomial(2 * tau, tau + axi)
    )
    return float(np.exp(log_val))


def energy_mean(xi: int, tau: int) -> float:
    """Mean moving-tick count given arrival at ``xi``: (xi^2+tau^2-tau)/(2tau-1)."""
    tau = _check_tau(tau)
    x2 = float(xi) ** 2
    return (x2 + tau * tau - tau) / (2.0 * tau - 1.0)


def energy_var(xi: int, tau: int) -> float:
    """Variance of the moving-tick count given arrival at ``xi``."""
    tau = _check_tau(tau)
    x2 = float(xi) ** 2
    t = float(tau)
    num = 2.0 * (x2 - t * t) * (x2 - (t - 1.0) ** 2)
    den = (2.0 * t - 1.0) ** 2 * (2.0 * t - 3.0)
    if num == 0.0:
        return 0.0
    return num / den


def particle_energy_pmf(sigma: int, tau: int, e: float) -> float:
    """Unconditional probability of ``sigma`` moving ticks: Binomial(tau, e).

    ``e`` is the per-tick moving probability (1 + p^2)/2.
    """
    tau = _check_tau(tau)
    sigma = int(sigma)
    e = float(e)
    if not 0.0 <= e <= 1.0:
        raise ValueError(f"moving probability must lie in [0, 1], got {e!r}")
    if sigma < 0 or sigma > tau:
        return 0.0
    if tau <= EXACT_BINOMIAL_MAX_TAU:
        return float(math.comb(tau, sigma) * e**sigma * (1.0 - e) ** (tau - sigma))
    if e == 0.0 or e == 1.0:  # the log form would meet 0 * log(0); the count is certain
        return 1.0 if sigma == tau * e else 0.0
    log_val = _log_binomial(tau, sigma) + sigma * math.log(e) + (tau - sigma) * math.log(1.0 - e)
    return float(np.exp(log_val))


# ---------------------------------------------------------------------------
# action and continuum correspondence


def action(xi, tau: int):
    """Discrete action: the mean accumulated energy at the arrival site."""
    tau = _check_tau(tau)
    x2 = np.asarray(xi, dtype=float) ** 2
    out = (x2 + tau * tau - tau) / (2.0 * tau - 1.0)
    return _scalar_or_array(xi, out)


def qm_phase(xi, tau: int):
    """Free wave-packet phase pi*xi^2/(2*tau) at the arrival site."""
    tau = _check_tau(tau)
    out = math.pi * np.asarray(xi, dtype=float) ** 2 / (2.0 * tau)
    return _scalar_or_array(xi, out)


def action_phase_gap(xi, tau: int):
    """Relative gap between pi*(action - central action) and the phase.

    Equals 1/(2*tau - 1) identically; exposed for correspondence scans.
    """
    centered = math.pi * (np.asarray(action(xi, tau)) - action(0, tau))
    phase = np.asarray(qm_phase(xi, tau))
    with np.errstate(invalid="ignore", divide="ignore"):
        gap = np.where(phase != 0.0, np.abs(centered - phase) / np.abs(phase), 0.0)
    return _scalar_or_array(xi, gap)


# ---------------------------------------------------------------------------
# continuum guidance checks


def density_continuum(xi, tau, f: Callable[[np.ndarray], np.ndarray]):
    """Continuum arrival density f(xi/tau)/tau for a ray-momentum density f."""
    xi = np.asarray(xi, dtype=float)
    tau = np.asarray(tau, dtype=float)
    return f(xi / tau) / tau


def sigma_continuum(xi, tau):
    """Continuum action (xi^2 + tau^2)/(2*tau); includes the rest drift tau/2."""
    xi = np.asarray(xi, dtype=float)
    tau = np.asarray(tau, dtype=float)
    return (xi * xi + tau * tau) / (2.0 * tau)


def _sigma_centered(xi, tau):
    # position-dependent part of the action; the tau/2 rest drift carries no
    # spatial gradient and is removed before the Hamilton-Jacobi residual.
    xi = np.asarray(xi, dtype=float)
    tau = np.asarray(tau, dtype=float)
    return xi * xi / (2.0 * tau)


def dbb_residuals(
    tau_min: float = 100.0,
    tau_max: float = 200.0,
    spacing: float = 1.0,
    f: Callable[[np.ndarray], np.ndarray] | None = None,
    xi_half_width: float | None = None,
) -> tuple[float, float]:
    """Max residuals of the continuity and Hamilton-Jacobi relations.

    All derivatives are second-order central differences of the continuum
    fields on a rectangle tau in [tau_min, tau_max], |xi| <= xi_half_width
    (default tau_min/2, so the ray coordinate stays inside (-1, 1)).

    Continuity uses the full action gradient; the Hamilton-Jacobi residual
    is evaluated for the centered action xi^2/(2*tau), i.e. with the rest
    drift tau/2 removed, which is the form the phase correspondence refers
    to.  Both residuals are pure discretization error and shrink as
    spacing**2.  Returns (continuity_max, hamilton_jacobi_max).
    """
    if f is None:

        def f(q):
            return np.full_like(np.asarray(q, dtype=float), 0.5)

    if xi_half_width is None:
        xi_half_width = tau_min / 2.0
    if tau_min <= 2.0 * spacing:
        raise ValueError("tau_min too small for the requested spacing")

    h = float(spacing)
    taus = np.arange(tau_min, tau_max + h / 2.0, h)
    xis = np.arange(-xi_half_width, xi_half_width + h / 2.0, h)
    XI = xis[:, None]
    TAU = taus[None, :]

    def P(x, t):
        return density_continuum(x, t, f)

    def grad_sigma(x, t):
        return (sigma_continuum(x + h, t) - sigma_continuum(x - h, t)) / (2.0 * h)

    dP_dtau = (P(XI, TAU + h) - P(XI, TAU - h)) / (2.0 * h)
    flux_right = P(XI + h, TAU) * grad_sigma(XI + h, TAU)
    flux_left = P(XI - h, TAU) * grad_sigma(XI - h, TAU)
    continuity = dP_dtau + (flux_right - flux_left) / (2.0 * h)

    dSc_dtau = (_sigma_centered(XI, TAU + h) - _sigma_centered(XI, TAU - h)) / (2.0 * h)
    hamilton = dSc_dtau + 0.5 * grad_sigma(XI, TAU) ** 2

    return float(np.abs(continuity).max()), float(np.abs(hamilton).max())


# ---------------------------------------------------------------------------
# first-return series and the internal clock frequency


def _check_stay(b: float) -> float:
    b = float(b)
    if not 0.0 <= b < 1.0:
        raise ValueError(f"stay probability must lie in [0, 1), got {b!r}")
    return b


def return_time_pmf(n, b: float):
    """Probability of a first return to the start after 2*n ticks.

    Closed form 2*b**(2n) * (n/3 - 4/9 + (13/9)*4**(-n)); n >= 1.
    """
    b = _check_stay(b)
    n_arr = np.asarray(n, dtype=float)
    if np.any(n_arr < 1):
        raise ValueError("n must be >= 1")
    r = b * b
    out = 2.0 * r**n_arr * (n_arr / 3.0 - 4.0 / 9.0 + (13.0 / 9.0) * 0.25**n_arr)
    return _scalar_or_array(n, out)


def return_series_sums(b: float) -> tuple[float, float]:
    """Closed forms of sum(P(n)) and sum(n*P(n)) over n >= 1.

    Geometric resummation of the first-return pmf:
      sum P    = (2/3)r/(1-r)^2 - (8/9)(1/(1-r) - 1) + (26/9)(1/(1-r/4) - 1)
      sum n*P  = (2/3)r(1+r)/(1-r)^3 - (8/9)r/(1-r)^2 + (26/9)(r/4)/(1-r/4)^2
    with r = b**2.
    """
    b = _check_stay(b)
    r = b * b
    s0 = (
        (2.0 / 3.0) * r / (1.0 - r) ** 2
        - (8.0 / 9.0) * (1.0 / (1.0 - r) - 1.0)
        + (26.0 / 9.0) * (1.0 / (1.0 - r / 4.0) - 1.0)
    )
    s1 = (
        (2.0 / 3.0) * r * (1.0 + r) / (1.0 - r) ** 3
        - (8.0 / 9.0) * r / (1.0 - r) ** 2
        + (26.0 / 9.0) * (r / 4.0) / (1.0 - r / 4.0) ** 2
    )
    return s0, s1


def return_series_partial(b: float, n_max: int) -> tuple[float, float]:
    """Direct partial sums of sum(P(n)) and sum(n*P(n)) up to n_max."""
    b = _check_stay(b)
    n = np.arange(1, int(n_max) + 1, dtype=float)
    pn = return_time_pmf(n, b)
    return float(pn.sum()), float((n * pn).sum())


def mean_return_time(b: float) -> float:
    """Conditional mean first-return time E[n | the walk returns]."""
    s0, s1 = return_series_sums(b)
    if s0 == 0.0:
        return 1.0
    return s1 / s0


def matter_frequency(e: float) -> float:
    """Internal clock frequency 1/E[n], as a rational function of e = 1 - b.

    Equals 1 at e = 1 and e + O(e^2) for small e (the wave-frequency/energy
    proportionality).  Note: the per-tick moving probability of the
    propensity walk satisfies e >= 1/2; smaller arguments evaluate the same
    rational function as a formal limit.
    """
    e = float(e)
    if not 0.0 <= e <= 1.0:
        raise ValueError(f"e must lie in [0, 1], got {e!r}")
    num = (
        e
        * (2.0 - e)
        * (-1.0 - e)
        * (3.0 - e)
        * (e**4 - 4.0 * e**3 + 5.0 * e**2 - 2.0 * e + 1.0)
    )
    den = (e * e - 2.0 * e - 1.0) * (
        5.0 * e**4 - 20.0 * e**3 + 29.0 * e**2 - 18.0 * e + 6.0
    )
    return num / den


# ---------------------------------------------------------------------------
# uniform-velocity boost of the walk parameters


@dataclass(frozen=True)
class BoostedFrame:
    """Walk parameters seen from a frame moving at lattice velocity beta."""

    p: float
    beta: float
    q: float
    xi: float
    tau: float
    p_boosted: float
    stay_boosted: float
    xi_boosted: float
    tau_boosted: float
    cell_scale: float
    shift_residual: float
    spread_residual: float
    density_gap: float


def lorentz_check(p: float, beta: float, xi: float, tau: float) -> BoostedFrame:
    """Boost the walk at ray coordinate q = xi/tau by velocity ``beta``.

    The boosted propensity composes like a velocity, the cell size is
    rescaled so the invariant checks hold exactly:

      xi' - p'tau' = (xi - p tau)(1 - p beta)/(1 - q beta)   (drift residual)
      stay' * tau' = stay * tau                              (spread residual)

    ``density_gap`` is the relative difference of the large-tau normal
    densities evaluated in the two frames; it vanishes when q = p.
    """
    p = _check_propensity(p)
    beta = float(beta)
    if abs(beta) >= 1.0:
        raise ValueError(f"|beta| must be < 1, got {beta!r}")
    if abs(p) == 1.0:
        raise ValueError("|p| = 1 has no spread; boost undefined")
    tau = float(tau)
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    xi = float(xi)
    q = xi / tau
    if abs(q) > 1.0:
        raise ValueError("|xi/tau| must be <= 1")

    b = (1.0 - p * p) / 2.0
    p_b = (p - beta) / (1.0 - beta * p)
    b_b = b * (1.0 - beta * beta) / (1.0 - p * beta) ** 2
    factor = (1.0 - p * beta) ** 2 / ((1.0 - beta * beta) * (1.0 - q * beta))
    xi_b = factor * (xi - beta * tau)
    tau_b = factor * (tau - beta * xi)
    cell_scale = (1.0 - q * beta) * math.sqrt(1.0 - beta * beta) / (1.0 - p * beta) ** 2

    shift_res = (xi_b - p_b * tau_b) - (xi - p * tau) * (1.0 - p * beta) / (1.0 - q * beta)
    spread_res = b_b * tau_b - b * tau

    def normal(x, mean, var):
        return math.exp(-((x - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)

    rho = normal(xi, p * tau, b * tau)
    rho_b = normal(xi_b, p_b * tau_b, b_b * tau_b)
    gap = abs(rho_b - rho) / rho if rho > 0.0 else abs(rho_b - rho)

    return BoostedFrame(
        p=p,
        beta=beta,
        q=q,
        xi=xi,
        tau=tau,
        p_boosted=p_b,
        stay_boosted=b_b,
        xi_boosted=xi_b,
        tau_boosted=tau_b,
        cell_scale=cell_scale,
        shift_residual=shift_res,
        spread_residual=spread_res,
        density_gap=gap,
    )
