"""Output checks: closed-form laws and the statistics that gate on them.

The laws are restated here from the paper's formulas instead of imported
from ``latticemc``, so a change that renames, merges or rewrites the
program's own law functions can neither break a check nor move its
reference along with a bug.  ``tests/test_checks.py`` compares each law
with the program's version while both exist.

False-failure budget.  A full parent-versus-change comparison makes
2 x 22 benchmark runs per workload, and a 20-second run checks 3 to 12
program runs, so at most about 2,000 gated program runs in all and about
500 of any one workload.  At ``ALPHA`` = 1e-6 per chi-square gate a
correct program fails any of them with probability below 0.002, inside
the 1% budget.  The wrong laws the self-test uses are still rejected at
chi-square values hundreds of times the critical one.

The other gates were measured over distinct program seeds:

- training fringe (300 runs): alignment 0.845 +- 0.043, least 0.717,
  against the floor 0.5 (8.1 standard deviations); visibility
  0.336 +- 0.033, least 0.230, against the floor 0.15 (5.6 standard
  deviations); no run failed.  Taken as normal, a run fails with
  probability about 1e-8, below 1e-5 per comparison.
- ring lock (275 runs at p = 0.37): ``mean_p_bar`` lies within 6e-6 of
  0.4 in every run, against the tolerance 0.01; no run failed.
- exit code, row totals, light-cone support, JSON-equals-CSV and the
  manifest are exact and cannot fail a correct program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2 as chi2_dist

ALPHA = 1e-6


@dataclass(frozen=True)
class Verdict:
    ok: bool
    detail: str


# ---------------------------------------------------------------------------
# laws


def _log_factorials(n: int) -> np.ndarray:
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1, dtype=float)))))


def free_pmf(d: np.ndarray, tau: int, q: float, logfact: np.ndarray | None = None) -> np.ndarray:
    """Arrival pmf of a free walk at propensity q: Binomial(2 tau, (1+q)/2) - tau."""
    logfact = _log_factorials(2 * tau) if logfact is None else logfact
    d = np.asarray(d, dtype=np.int64)
    inside = np.abs(d) <= tau
    k = np.where(inside, tau + d, 0)
    if abs(q) == 1.0:
        return np.where(inside & (d == int(q) * tau), 1.0, 0.0)
    log_pmf = (
        logfact[2 * tau] - logfact[k] - logfact[2 * tau - k]
        + k * math.log((1.0 + q) / 2.0) + (2 * tau - k) * math.log((1.0 - q) / 2.0)
    )
    return np.where(inside, np.exp(log_pmf), 0.0)


def flat_law(xi: np.ndarray, tau: int) -> np.ndarray:
    """Uniform-preparation free ensemble: 1/(2 tau + 1) inside the light cone."""
    return np.where(np.abs(np.asarray(xi, dtype=float)) <= tau, 1.0 / (2 * tau + 1), 0.0)


def _pair_sum(q: np.ndarray, sources) -> np.ndarray:
    out = np.ones_like(q, dtype=float)
    for i, (si, wi) in enumerate(sources):
        for sj, wj in sources[i + 1:]:
            out = out + 2.0 * math.sqrt(wi * wj) * np.cos(math.pi * abs(si - sj) * q)
    return out


def cosine_law(xi: np.ndarray, tau: int, sources) -> np.ndarray:
    """Infinite-time fringe law (1 + sum_pairs 2 sqrt(Pi Pj) cos(pi d xi / tau)) / (2 tau)."""
    return _pair_sum(np.asarray(xi, dtype=float) / tau, sources) / (2.0 * tau)


def finite_time_law(xi: np.ndarray, tau: int, sources, n_nodes: int = 400) -> np.ndarray:
    """Arrival pmf of locked-ray walks after tau ticks.

    Rays are distributed with density (1 + sum_pairs ...)/2 on [-1, 1];
    a walker locked on ray q lands with the free kernel around its source.
    """
    xi = np.asarray(xi, dtype=np.int64)
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    ray_density = _pair_sum(nodes, sources) / 2.0
    logfact = _log_factorials(2 * tau)
    out = np.zeros(xi.shape)
    for q, glw, rho in zip(nodes, weights, ray_density):
        kernel = glw * rho
        for site, w in sources:
            out += w * kernel * free_pmf(xi - site, tau, q, logfact)
    return out


def ring_target(p: float, ell: int) -> float:
    """Quantized ring momentum (2/ell) * round(p ell / 2), halves away from zero."""
    half = abs(p) * ell / 2.0
    return math.copysign(2.0 * math.floor(half + 0.5) / ell, p)


# ---------------------------------------------------------------------------
# statistics


def pool(observed: np.ndarray, expected: np.ndarray, min_expected: float = 5.0):
    """Merge consecutive cells left to right until each expects ``min_expected``."""
    obs_groups, exp_groups = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            obs_groups.append(acc_o)
            exp_groups.append(acc_e)
            acc_o = acc_e = 0.0
    if obs_groups:
        obs_groups[-1] += acc_o
        exp_groups[-1] += acc_e
    return np.array(obs_groups), np.array(exp_groups)


def cells(values: np.ndarray, sites: np.ndarray, lo: int, hi: int, n_cells: int) -> np.ndarray:
    """Sum per-site values into ``n_cells`` equal-width cells covering [lo, hi]."""
    edges = np.linspace(lo - 0.5, hi + 0.5, n_cells + 1)
    idx = np.clip(np.searchsorted(edges, sites, side="right") - 1, 0, n_cells - 1)
    out = np.zeros(n_cells)
    np.add.at(out, idx, values)
    return out


def chi_square(counts: np.ndarray, law: np.ndarray, label: str) -> Verdict:
    """Pearson chi-square of counts against a pmf on the same cells, gated at ALPHA."""
    counts = np.asarray(counts, dtype=float)
    law = np.asarray(law, dtype=float)
    total = counts.sum()
    if total <= 0 or law.sum() <= 0:
        return Verdict(False, f"{label}: empty histogram or law")
    obs, exp = pool(counts, law / law.sum() * total)
    if len(obs) < 2:
        return Verdict(False, f"{label}: fewer than two pooled cells")
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    dof = len(obs) - 1
    p = float(chi2_dist.sf(chi2, dof))
    return Verdict(p > ALPHA, f"{label}: chi2={chi2:.1f} dof={dof} p={p:.3g} alpha={ALPHA:g}")


def fringe_fit(counts: np.ndarray, law: np.ndarray, flat: np.ndarray) -> tuple[float, float]:
    """(alignment, visibility) of the observed deviation from the flat law.

    Alignment is the cosine between the observed and the law's deviation;
    visibility is the observed deviation projected on the law's, in units
    of the law's, so 1 reproduces the law and 0 is flat.
    """
    obs = np.asarray(counts, dtype=float)
    obs = obs / obs.sum()
    law = np.asarray(law, dtype=float) / np.sum(law)
    flat = np.asarray(flat, dtype=float) / np.sum(flat)
    a, b = obs - flat, law - flat
    norm = float(np.linalg.norm(a) * np.linalg.norm(b))
    if norm == 0.0:
        return 0.0, 0.0
    return float(a @ b / norm), float(a @ b / (b @ b))
