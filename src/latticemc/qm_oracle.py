"""Reference densities from the continuum wave picture, in lattice units.

A point source prepared with every momentum equally likely spreads into a
flat packet of density 1/(2*tau); several coherent sources add pairwise
cosine terms with phase pi * separation * xi / tau.  Bound geometries
(ring, box) quantize the stationary momenta.  These are the independent
references the walk results are validated against; no physical constants
appear because the lattice units absorb them.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import _scalar_or_array


def qm_single_source(xi, tau: int):
    """Flat packet density 1/(2*tau), independent of position."""
    if tau < 1:
        raise ValueError("tau must be >= 1")
    out = np.full_like(np.asarray(xi, dtype=float), 1.0 / (2.0 * tau))
    return _scalar_or_array(xi, out)


def qm_two_source(xi, tau: int, p1: float, p2: float, delta: int):
    """Two coherent sources ``delta`` sites apart with weights (p1, p2)."""
    if tau < 1:
        raise ValueError("tau must be >= 1")
    if delta < 1:
        raise ValueError("delta must be >= 1")
    for w in (p1, p2):
        if not 0.0 <= w <= 1.0:
            raise ValueError("source weights must lie in [0, 1]")
    x = np.asarray(xi, dtype=float)
    out = (1.0 + 2.0 * math.sqrt(p1 * p2) * np.cos(math.pi * delta * x / tau)) / (2.0 * tau)
    return _scalar_or_array(xi, out)


def qm_multi_source(xi, tau: int, sources):
    """General coherent superposition of weighted point sources.

    ``sources`` is a sequence of (site, weight) pairs; weights must sum
    to 1.  Pairwise terms use the source separations |site_i - site_j|.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    sources = [(int(s), float(w)) for s, w in sources]
    total = sum(w for _, w in sources)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"source weights must sum to 1, got {total!r}")
    x = np.asarray(xi, dtype=float)
    out = np.ones_like(x)
    for i in range(len(sources)):
        si, wi = sources[i]
        for j in range(i + 1, len(sources)):
            sj, wj = sources[j]
            delta = abs(si - sj)
            if delta == 0:
                raise ValueError("sources must occupy distinct sites")
            out = out + 2.0 * math.sqrt(wi * wj) * np.cos(math.pi * delta * x / tau)
    out = out / (2.0 * tau)
    return _scalar_or_array(xi, out)


def qm_equal_spaced(xi, tau: int, n_sources: int, delta: int):
    """``n_sources`` equally likely sources, adjacent ones ``delta`` apart.

    Collapses the pairwise sum by separation multiplicity: separation
    j*delta occurs (n_sources - j) times, each with weight 2/n_sources.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    if n_sources < 1:
        raise ValueError("n_sources must be >= 1")
    if delta < 1:
        raise ValueError("delta must be >= 1")
    x = np.asarray(xi, dtype=float)
    out = np.ones_like(x)
    for j in range(1, n_sources):
        out = out + (2.0 * (n_sources - j) / n_sources) * np.cos(math.pi * j * delta * x / tau)
    out = out / (2.0 * tau)
    return _scalar_or_array(xi, out)


def qm_ring_momenta(ell: int, n_max: int) -> np.ndarray:
    """Stationary lattice momenta on a ring of ``ell`` sites: 2n/ell."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return np.array([2.0 * n / ell for n in range(n_max + 1)])


def qm_box_momenta(ell: int, n_max: int) -> np.ndarray:
    """Stationary lattice momentum magnitudes in a box of ``ell`` sites: n/ell.

    n starts at 1; the n = 0 state vanishes identically.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return np.array([n / ell for n in range(1, n_max + 1)])
