"""Two-slit interference from walkers that never see each other.

Each particle starts at one of two sources and walks alone; the lattice
remembers earlier visitors through site registers and decaying bosons.
Once that memory has converged (trained mode), a walker's effective
propensity locks onto the ray solving q + g(q) = p0, and the ensemble
histogram develops cosine fringes with period 2*tau/delta even though
every particle went through exactly one source.

The script runs the trained ensemble, prints an ASCII fringe profile,
and compares the histogram to the exact finite-time law and to the
limiting cosine law.
"""

import numpy as np

from latticemc.qforce import run_trained_slits
from latticemc.scenarios import finite_time_slit_density, multi_slit_density, two_slit_config
from latticemc.stats import compare

N_PARTICLES = 50000
N_STEPS = 300
DELTA = 2

config = two_slit_config(delta=DELTA, n_particles=N_PARTICLES, n_steps=N_STEPS, seed=6)
hist = run_trained_slits(config, shards=4)

# ---------------------------------------------------------------------------
# 1. fringe profile, 25 cells across the central 90% of the light cone

window = int(0.9 * N_STEPS)
edges = np.linspace(-window, window + 1, 26)
mask = (hist.support >= -window) & (hist.support <= window)
cells = np.zeros(25)
np.add.at(cells, np.searchsorted(edges, hist.support[mask], side="right") - 1,
          hist.counts[mask])
freq = cells / cells.sum()

sites = np.arange(-window, window + 1)
sharp = multi_slit_density(sites, N_STEPS, config.sources)
sharp_cells = np.zeros(25)
np.add.at(sharp_cells, np.searchsorted(edges, sites, side="right") - 1, sharp)
sharp_cells /= sharp_cells.sum()

print(f"two-slit, delta={DELTA}, N={N_PARTICLES}, tau={N_STEPS}")
print(f"{'cell center':>12} {'measured':>9} {'fringe law':>10}")
scale = 60.0 / freq.max()
for i in range(25):
    center = 0.5 * (edges[i] + edges[i + 1])
    bar = "#" * int(round(freq[i] * scale))
    print(f"{center:12.0f} {freq[i]:9.4f} {sharp_cells[i]:10.4f}  {bar}")

# ---------------------------------------------------------------------------
# 2. the histogram agrees with the exact finite-time law by chi-square

exact = finite_time_slit_density(sites, N_STEPS, config.sources)
ref = np.zeros(25)
np.add.at(ref, np.searchsorted(edges, sites, side="right") - 1, exact)
ref /= ref.sum()
total = int(cells.sum())
rep = compare(freq, ref, total)
print(f"\nchi-square vs finite-time law: {rep.chi2:8.1f}  "
      f"(critical {rep.critical:.1f}, {'pass' if rep.passed else 'FAIL'})")

flat = np.diff(edges)
rep_flat = compare(freq, flat / flat.sum(), total)
print(f"chi-square vs flat (no interference): {rep_flat.chi2:8.1f}  "
      f"({'pass' if rep_flat.passed else 'rejected, as it should be'})")

print(f"cell L1 distance to the limiting cosine law: "
      f"{np.abs(freq - sharp_cells).sum():.4f}")

# ---------------------------------------------------------------------------
# 3. at longer runs the finite-time law converges to the cosine law

for tau in (300, 1000, 3000):
    xi = np.arange(int(-0.95 * tau), int(0.95 * tau) + 1, max(1, tau // 1000))
    render = finite_time_slit_density(xi, tau, config.sources)
    limit = multi_slit_density(xi, tau, config.sources)
    gap = np.abs(render - limit).max() * 2 * tau
    print(f"tau={tau:5d}: max |finite-time - cosine| = {gap:.4f} "
          f"in units of the mean level")
