"""Boost covariance, the internal clock, and the hydrodynamic picture.

The walk's drift and spread transform under a uniform-velocity boost
exactly like relativistic quantities: the propensity composes like a
velocity, and with the cell size rescaled per ray both the comoving
displacement and the spread product are invariant.  Independently, the
walk carries wave-like bookkeeping: the first-return clock ticks at a
frequency proportional to the moving probability, the mean accumulated
energy reproduces the free packet phase up to a 1/(2*tau - 1) factor,
and the continuum density obeys continuity plus a Hamilton-Jacobi
relation, the pair of equations behind velocity-field trajectory
readings of the probability flow.
"""

import numpy as np

from latticemc.analytic import (
    action_phase_gap,
    dbb_residuals,
    ensemble_probability,
    lorentz_check,
    matter_frequency,
    mean_return_time,
    return_series_partial,
    return_series_sums,
)

# ---------------------------------------------------------------------------
# 1. boosts: velocity composition and exact invariants

frame = lorentz_check(p=0.5, beta=0.5, xi=125.0, tau=250.0)
print("boost of a p=0.5 walk viewed from a frame riding at beta=0.5:")
print(f"  composed drift (p-beta)/(1-beta*p) = {frame.p_boosted:.6f}")
print(f"  cell rescaling on the mean ray     = {frame.cell_scale:.6f}")
print(f"  density gap between the frames     = {frame.density_gap:.2e}")

rng = np.random.default_rng(90)
worst_shift = worst_spread = 0.0
for _ in range(100):
    p, beta, q = rng.uniform(-0.95, 0.95, size=3)
    f = lorentz_check(p=p, beta=beta, xi=q * 250.0, tau=250.0)
    worst_shift = max(worst_shift, abs(f.shift_residual))
    worst_spread = max(worst_spread, abs(f.spread_residual))
print("over 100 random (p, beta, ray) triples at tau=250:")
print(f"  max comoving-displacement residual = {worst_shift:.2e}")
print(f"  max spread-product residual        = {worst_spread:.2e}")

off_ray = lorentz_check(p=0.2, beta=0.3, xi=0.35 * 100.0, tau=100.0)
on_ray = lorentz_check(p=0.2, beta=0.3, xi=0.2 * 10000.0, tau=10000.0)
print("the two frames agree on the density only along the mean ray:")
print(f"  on the ray q = p = 0.2        : density gap {on_ray.density_gap:.2e}")
print(f"  off the ray (q=0.35, tau=100) : density gap {off_ray.density_gap:.2e}")

# ---------------------------------------------------------------------------
# 2. the first-return clock: frequency tracks the moving probability

print(f"\nmatter_frequency(1.0) = {matter_frequency(1.0)} (a walk that never stays)")
print("small moving probability e, formal limit of the same rational function:")
print(f"{'e':>8} {'f(e)':>12} {'f(e)/e':>10}")
for e in (0.01, 0.02, 0.05, 0.1):
    f_e = matter_frequency(e)
    print(f"{e:8.2f} {f_e:12.6f} {f_e / e:10.4f}")
print("the ratio approaching 1 is the frequency/energy proportionality")
print(f"for the walk itself (b=0.5): mean return time {mean_return_time(0.5):.4f} ticks, "
      f"frequency {matter_frequency(0.5):.4f}")

# ---------------------------------------------------------------------------
# 3. the first-return series match their closed forms

print("\nfirst-return partial sums (500 terms) vs closed forms:")
print(f"{'b':>6} {'sum P':>12} {'closed':>12} {'sum nP':>12} {'closed':>12}")
for b in (0.1, 0.25, 0.4, 0.5):
    s0, s1 = return_series_partial(b, 500)
    c0, c1 = return_series_sums(b)
    print(f"{b:6.2f} {s0:12.8f} {c0:12.8f} {s1:12.8f} {c1:12.8f}")

# ---------------------------------------------------------------------------
# 4. mean accumulated energy vs the free packet phase

print("\nuniform preparation stays exactly flat, and the centered action")
print("tracks the packet phase pi*xi^2/(2*tau) to relative order 1/(2*tau):")
print(f"{'tau':>6} {'flatness':>10} {'phase gap':>12} {'1/(2tau-1)':>12}")
for tau in (100, 1000, 10000):
    xi = np.arange(-tau, tau + 1)
    flat = np.abs(ensemble_probability(xi, tau) * (2 * tau + 1) - 1.0).max()
    gap = float(np.max(action_phase_gap(np.arange(1, tau), tau)))
    print(f"{tau:6d} {flat:10.1e} {gap:12.6e} {1.0 / (2 * tau - 1):12.6e}")

# ---------------------------------------------------------------------------
# 5. continuity and Hamilton-Jacobi hold in the continuum limit

print("\nresiduals of the continuity and Hamilton-Jacobi relations")
print("(second-order differences, so halving the spacing divides both by 4):")
print(f"{'spacing':>8} {'continuity':>12} {'ham-jacobi':>12}")
rows = {}
for h in (1.0, 0.5):
    cont, ham = dbb_residuals(h)
    rows[h] = (cont, ham)
    print(f"{h:8.1f} {cont:12.3e} {ham:12.3e}")
print(f"measured ratios: continuity x{rows[1.0][0] / rows[0.5][0]:.2f}, "
      f"hamilton-jacobi x{rows[1.0][1] / rows[0.5][1]:.2f}")
