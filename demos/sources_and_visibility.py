"""Source weighting and fringe visibility.

With unequal source weights P1, P2 the interference term scales as
2*sqrt(P1*P2), so a 0.9/0.1 split keeps the fringes but damps their
contrast to 0.6.  With three sources every pair contributes its own
cosine.  Both patterns come out of the same trained-mode sampler.
"""

import numpy as np

from latticemc.qforce import run_trained_slits
from latticemc.scenarios import ScenarioConfig, multi_slit_density, two_slit_config

N_PARTICLES = 5000
N_STEPS = 10000
WINDOW = 9000


def binned(hist, edges):
    mask = (hist.support >= -WINDOW) & (hist.support <= WINDOW)
    out = np.zeros(len(edges) - 1)
    np.add.at(out, np.searchsorted(edges, hist.support[mask], side="right") - 1,
              hist.counts[mask])
    return out / out.sum()


def model_cells(sources, edges):
    sites = np.arange(-WINDOW, WINDOW + 1)
    dens = multi_slit_density(sites, N_STEPS, sources)
    out = np.zeros(len(edges) - 1)
    np.add.at(out, np.searchsorted(edges, sites, side="right") - 1, dens)
    return out / out.sum()


# ---------------------------------------------------------------------------
# 1. unequal sources: fringe contrast 2*sqrt(0.9*0.1) = 0.6

config = two_slit_config(delta=2, p1=0.9, n_particles=N_PARTICLES,
                         n_steps=N_STEPS, seed=77)
hist = run_trained_slits(config, shards=4)

edges10 = np.linspace(-WINDOW, WINDOW + 1, 11)
l1 = np.abs(binned(hist, edges10) - model_cells(config.sources, edges10)).sum()
print(f"unequal 0.9/0.1 sources: 10-cell L1 to the analytic density = {l1:.4f}")

# fit frequency ~ a + b*cos(2 pi xi / fringe period); visibility is b/a
edges50 = np.linspace(-WINDOW, WINDOW + 1, 51)
freq = binned(hist, edges50)
centers = (edges50[:-1] + edges50[1:]) / 2.0
design = np.column_stack([np.ones(50), np.cos(np.pi * 2.0 * centers / N_STEPS)])
coef, *_ = np.linalg.lstsq(design, freq, rcond=None)
print(f"fitted fringe visibility = {coef[1] / coef[0]:.4f}  (expected 0.600)")

# ---------------------------------------------------------------------------
# 2. three equal sources one site apart

config3 = ScenarioConfig("multi-slit", N_PARTICLES, N_STEPS,
                         ((-1, 1 / 3), (0, 1 / 3), (1, 1 / 3)), seed=78)
hist3 = run_trained_slits(config3, shards=4)
l1_three = np.abs(binned(hist3, edges10) - model_cells(config3.sources, edges10)).sum()
print(f"three equal sources: 10-cell L1 to the analytic density = {l1_three:.4f}")

# the pairwise cosine structure: separations 1, 1, and 2 sites
sites = np.arange(-WINDOW, WINDOW + 1, 250)
dens = multi_slit_density(sites, N_STEPS, config3.sources)
level = dens.mean()
print("\nthree-source density profile (relative to the mean level):")
for x, d in zip(sites[::4], dens[::4]):
    bar = "#" * int(round(24.0 * d / (2.0 * level)))
    print(f"  xi={x:6d}  {d / level:5.2f}  {bar}")
