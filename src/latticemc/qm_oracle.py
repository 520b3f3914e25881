"""Reference densities from the continuum wave picture, in lattice units.

A point source prepared with every momentum equally likely spreads into a
flat packet of density 1/(2*tau); several coherent sources add pairwise
cosine terms with phase pi * separation * xi / tau.  The CLI writes this
density as the ``qm_oracle`` column of a slit run; no physical constants
appear because the lattice units absorb them.  ``qm_multi_source``
restates the same far-field law as ``scenarios.multi_slit_density``
with its own pair loop, so it checks that code path, not the law.  A
single source is a one-entry list.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import _scalar_or_array


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

