"""Momentum quantization on a ring and in a box.

A walker bound to a ring of ell sites keeps meeting its own lattice
memory, which is the same statistics as an infinite train of sources
spaced ell apart.  The resulting sawtooth force pushes the sample
momentum counter/tau onto the nearest quantized ray 2n/ell.  A box of
width ell behaves like a ring of circumference 2*ell (reflections are
mirror images), so its levels are twice as dense: n/ell.
"""

import numpy as np

from latticemc.qforce import ring_counters, run_ring
from latticemc.scenarios import ScenarioConfig, ring_steady_momentum

ELL = 10
N_STEPS = 100000

# ---------------------------------------------------------------------------
# 1. ring: preparations lock onto multiples of 2/ell

print(f"ring of {ELL} sites, {N_STEPS} ticks")
print(f"{'p':>6} {'locked mean':>12} {'target 2n/ell':>14}")
for p in (0.05, 0.17, 0.33, 0.61, 0.88):
    mean = run_ring(ScenarioConfig("ring", 1, N_STEPS, ell=ELL, p=p, seed=26))[0]
    target = ring_steady_momentum(p, ELL)
    print(f"{p:6.2f} {mean:12.4f} {target:14.1f}")

# ---------------------------------------------------------------------------
# 2. the lock-in transient: sample momentum vs tick count

config = ScenarioConfig("ring", 1, N_STEPS, ell=ELL, p=0.33, seed=26)
print("\nlock-in of p=0.33 toward 0.4 (log-time relaxation):")
counters = np.concatenate(list(ring_counters(config)))
for mark in (100, 1000, 10000, N_STEPS - 1):
    print(f"  after {mark:6d} ticks: counter/tau = {counters[mark] / (mark + 1):.4f}")

_, centers, counts = run_ring(config)
peak = centers[np.argmax(counts)]
print(f"  second-half momentum histogram peaks at {peak:.2f}")

# ---------------------------------------------------------------------------
# 3. box: levels at n/ell, half the ring spacing

print(f"\nbox of width 5, {N_STEPS} ticks")
for p in (0.22, 0.37, 0.68):
    config = ScenarioConfig("box", 1, N_STEPS, ell=5, p=p, seed=28)
    mean = run_ring(config)[0]  # a box walks as a ring of 2*ell, folded
    target = ring_steady_momentum(p, config.period)  # a ring of circumference 2*ell
    # the folded walk reaches both walls and never jumps a site, so it reflects there
    wrapped = np.concatenate(list(ring_counters(config))) % config.period
    pos = np.minimum(wrapped, config.period - wrapped)
    inside = pos.min() == 0 and pos.max() == 5 and (np.abs(np.diff(pos)) <= 1).all()
    print(f"  p={p:4.2f}: locked mean {mean:7.4f}  target {target:4.1f}  "
          f"walker stayed inside: {inside}")
