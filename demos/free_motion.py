"""Free motion on the lattice: flat ensembles and drifting wave packets.

A walker takes one of three moves per tick (up, stay, down) with
probabilities set by its momentum propensity p.  Averaged over a uniform
preparation p ~ U(-1, 1), the arrival histogram is exactly flat on the
light cone; at fixed p it is a drifting near-Gaussian packet.  This
script runs both ensembles and prints the measured moments next to the
closed forms.
"""

import math

import numpy as np

from latticemc import analytic
from latticemc.walker import run_ensemble_free

N_PARTICLES = 50000
N_STEPS = 300

# ---------------------------------------------------------------------------
# 1. uniform preparation: the histogram is flat at 1/(2 tau + 1)

hist = run_ensemble_free(N_PARTICLES, N_STEPS, seed=1)
freq = hist.frequency()
flat = 1.0 / (2 * N_STEPS + 1)
print(f"uniform preparation, N={N_PARTICLES}, tau={N_STEPS}")
print(f"  flat level          {flat:.6f}")
print(f"  mean frequency      {freq.mean():.6f}")
print(f"  max |freq - flat|   {np.abs(freq - flat).max():.6f}")
print(f"  sites outside cone  {(np.abs(hist.support) > N_STEPS).sum()}")

# ---------------------------------------------------------------------------
# 2. fixed preparation: drift p per tick, spread b = (1 - p^2)/2 per tick

for p in (0.0, 0.2, -0.6):
    hist = run_ensemble_free(N_PARTICLES, N_STEPS, p=p, seed=2)
    x = hist.support.astype(float)
    f = hist.frequency()
    mean = (x * f).sum()
    var = ((x - mean) ** 2 * f).sum()
    b = (1.0 - p * p) / 2.0
    print(f"fixed p={p:+.1f}: mean {mean:8.3f} (expect {p * N_STEPS:8.1f})   "
          f"var {var:7.2f} (expect {b * N_STEPS:7.2f})")

# ---------------------------------------------------------------------------
# 3. the closed-form pmf against its large-tau normal limit

p, tau = 0.2, N_STEPS
xi = np.arange(-tau, tau + 1)
exact = analytic.pmf_free(xi, tau, p)
normal = analytic.gaussian_limit(xi, tau, p)
print(f"closed form vs normal limit at p={p}, tau={tau}: "
      f"max gap {np.abs(exact - normal).max():.2e}")

# the walk is odd in p: running downhill mirrors running uphill
mirror = analytic.pmf_free(-xi, tau, -p)
print(f"mirror symmetry pmf(xi, p) = pmf(-xi, -p): "
      f"max gap {np.abs(exact - mirror).max():.2e}")

# sanity: a tick is two half-steps, so the displacement variance per tick
# is b = (1 - p^2)/2 and the packet width grows like sqrt(b * tau)
sigma = math.sqrt((1.0 - p * p) / 2.0 * tau)
print(f"packet width sqrt(b tau) = {sigma:.2f} sites")
