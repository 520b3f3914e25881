"""Drawn differential tests: each fast path against its slow reference in ``oracles``.

The fixed-config differentials sit next to each runner's other tests;
these draw their configs, with the draws weighted towards the float
decision edges: quantized rays and one ulp either side of them, the
ends of the propensity range and the ends of the runner's blocks.  Every
test is derandomized with a fixed example count, so a run is
deterministic, and no draw is filtered out.
"""

import numpy as np
import oracles
from hypothesis import example, given, settings, strategies as st

from latticemc import qforce

BLOCK = qforce._RING_BLOCK


@st.composite
def bound_configs(draw):
    """A ring or box config: ell 2-60, p on, next to or off a quantized ray, n at block edges."""
    kind = draw(st.sampled_from(["ring", "box"]))
    ell = draw(st.sampled_from([41, *range(2, 61)]))
    period = ell if kind == "ring" else 2 * ell
    ray = 2 * draw(st.integers(-(period // 2), period // 2)) / period
    p = draw(st.one_of(
        st.just(ray),
        st.sampled_from([-np.inf, np.inf]).map(
            lambda to: float(np.clip(np.nextafter(ray, to), -1.0, 1.0))
        ),
        st.sampled_from([-1.0, 1.0]),
        st.floats(-1.0, 1.0),
    ))
    n_steps = draw(st.one_of(
        st.integers(1, 300),
        st.builds(lambda k, d: k * BLOCK + d, st.integers(1, 3), st.integers(-1, 1)),
    ))
    seed = draw(st.integers(0, 2**32 - 1))
    return oracles.bound_config(kind, ell, p, n_steps=n_steps, seed=seed)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(cfg=bound_configs())
# the ray that rounds a cell down at ell 41 (see ring_memory_force), at a block edge
@example(cfg=oracles.bound_config("ring", 41, -28 / 41, n_steps=BLOCK, seed=0))
@example(cfg=oracles.bound_config("box", 41, 1.0, n_steps=BLOCK + 1, seed=1))
def test_run_ring_matches_per_tick_reference_on_drawn_configs(cfg):
    assert np.array_equal(qforce.run_ring(cfg).counters, oracles.ring_per_tick(cfg))
