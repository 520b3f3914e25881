"""Lattice memory in closeup: boson creation, decay, and steady values.

An interference event plants a boson pair.  The site keeps one boson
whose momentum starts at the visitor's sample momentum q and shrinks by
(1 - (delta*q)**2 / age**2) each tick, an infinite product converging
to q * sinc(delta*q).  The walker carries the other, damped by
(1 - 1/(2*age)) per tick; refreshed at the pair rate P1*P2, its
expected value converges to sqrt(P1*P2) times the site value.  This
script steps through each law numerically, walks one visit by hand,
and finishes with a short sequential training run to show the lattice
memory bending the landing histogram toward the fringe pattern.
"""

import math

import numpy as np

from latticemc.qforce import (
    ParticleState,
    TrainingLattice,
    effective_momentum,
    expected_site_momentum,
    particle_boson_series,
    particle_damping,
    run_training_slits,
    site_decay_product,
    site_momentum_series,
    visit,
)
from latticemc.scenarios import multi_slit_density, two_slit_config

# ---------------------------------------------------------------------------
# 1. the site boson decays tick by tick toward q * sinc(delta * q)

q, delta = 0.4, 2
limit = expected_site_momentum(q, delta)
print(f"site boson born at q={q}, delta={delta}; limit q*sinc(delta*q) = {limit:.6f}")
for age in range(1, 7):
    print(f"  age {age}: w = {site_decay_product(q, delta, age):.6f}")

gap = abs(site_decay_product(q, delta, 100000) - limit)
print(f"after 100000 ticks the product sits {gap:.2e} from the limit")

# ---------------------------------------------------------------------------
# 2. the carried boson damps like the central binomial ratio

print("\ncarried boson from p=1.0:")
for age, factor in enumerate(particle_damping(4)[1:], start=1):
    print(f"  age {age}: p = {factor:.6f}")

damp = particle_damping(10000)
print("cumulative damping vs the 1/sqrt(pi*k) tail:")
for k in (10, 100, 1000, 10000):
    print(f"  k={k:5d}: damp = {damp[k]:.6f}   1/sqrt(pi*k) = {1.0 / math.sqrt(math.pi * k):.6f}")

# ---------------------------------------------------------------------------
# 3. the refresh rate drops out of the steady site value

q = 0.37
limit = expected_site_momentum(q, delta)
print(f"\nsite boson refreshed at a constant rate (q={q}, limit {limit:.6f}):")
for rate in (0.2, 0.03, 0.003):
    value = site_momentum_series(q, delta, rate, 20000)
    print(f"  rate {rate:5.3f}: mean momentum = {value:.6f}   error = {abs(value - limit):.2e}")

# ---------------------------------------------------------------------------
# 4. the carried-boson series sums to sqrt of the pair rate

print("\ncarried boson refreshed at pair rate P -> sqrt(P):")
for p_pair in (0.04, 0.25, 0.5):
    value = particle_boson_series(p_pair, 100000)
    print(f"  P = {p_pair:4.2f}: series = {value:.6f}   sqrt(P) = {math.sqrt(p_pair):.6f}")

hand = math.sqrt(0.5 * 0.5) * expected_site_momentum(0.25, 2)
print(f"equal sources at q=0.25, delta=2: carried momentum {hand:.6f} "
      f"(exactly 1/(4*pi) = {1.0 / (4.0 * math.pi):.6f})")

# ---------------------------------------------------------------------------
# 5. one visit, by hand

print("\nvisit walkthrough at a single site:")
lattice = TrainingLattice()
first = ParticleState(xi=0, tau=4, counter=3, p0=0.6)
lattice.ticks = 1
shift = visit(lattice, first)
print(f"  first arrival (counter 3): register := {lattice.registers[0]}, "
      f"pair created: {shift is not None}")

second = ParticleState(xi=0, tau=4, counter=1, p0=0.2)
lattice.ticks = 2
shift = visit(lattice, second)
planted_q, born = lattice.site_bosons[0][shift]
print(f"  second arrival (counter 1): shift = {shift}, counters exchanged "
      f"(walker now carries {second.counter}, register = {lattice.registers[0]})")
print(f"    site boson starts at w0 = {planted_q:.4f} with delta*q = {abs(shift) * planted_q:.4f}")
print(f"    walker inherits {second.bosons[shift][0]:.4f} (slot was empty)")

third = ParticleState(xi=0, tau=5, counter=-1, p0=0.1)
lattice.ticks = born + 2
shift = visit(lattice, third)
carried, _ = third.bosons[shift]
print(f"  third arrival (counter -1) two ticks later: same shift {shift}, "
      f"inherits w = {carried:.6f}")
p_eff = effective_momentum(third, particle_damping(1), lattice.ticks)
print(f"    effective propensity {p_eff:.6f} (preparation 0.1 minus the carried momentum)")

# ---------------------------------------------------------------------------
# 6. training against a persistent lattice bends the histogram

cfg = two_slit_config(delta=2, n_particles=1000, n_steps=100, seed=31)
run = run_training_slits(cfg)
print(f"\ntraining run: {cfg.n_particles} emissions x {cfg.n_steps} ticks")
print(f"  boson pairs created: {run.bosons_created}")
print(f"  lattice clock: {run.lattice.ticks} ticks, "
      f"{sum(map(len, run.lattice.site_bosons.values()))} site bosons alive, "
      f"{run.lattice.overdriven_events} overdriven")

window, tau = 90, cfg.n_steps
edges = np.linspace(-window, window + 1, 13)
sup, counts = run.positions.support, run.positions.counts
mask = (sup >= -window) & (sup <= window)
obs = np.zeros(12)
np.add.at(obs, np.searchsorted(edges, sup[mask], side="right") - 1, counts[mask])
obs /= obs.sum()
sites = np.arange(-window, window + 1)
ref = np.zeros(12)
np.add.at(ref, np.searchsorted(edges, sites, side="right") - 1,
          multi_slit_density(sites, tau, cfg.sources))
ref /= ref.sum()
flat = np.diff(edges)
flat /= flat.sum()
a, b = obs - flat, ref - flat
alignment = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
print(f"  cosine of (histogram - flat) with (fringe law - flat) on 12 cells: {alignment:.3f}")
print("  a positive alignment this early means the memory is already steering "
      "walkers toward the bright fringes")
