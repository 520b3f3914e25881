"""Drawn differential tests: each fast path against its slow reference in ``oracles``.

The fixed-config differentials sit next to each runner's other tests;
these draw their configs, with the draws weighted towards the float
decision edges: quantized rays and one ulp either side of them, the
ends of the propensity range, source weights of 0 or summing to one ulp
below 1, the ends of the runners' blocks, and the floats and ints at
the ends of their ranges in the tables the program writes.  Every
test is derandomized with a fixed example count, so a run is
deterministic, and no draw is filtered out.
"""

import io

import numpy as np
import oracles
from hypothesis import example, given, settings, strategies as st

from latticemc import cli, qforce, scenarios, stats, walker
from latticemc.scenarios import ScenarioConfig

BLOCK = walker._BLOCK


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


def _split_edge_examples(test):
    """Add one example per locked-half length in ``oracles.SPLIT_EDGES``, rings and boxes in turn."""
    for i, m in enumerate(oracles.SPLIT_EDGES):
        kind, ell, p = [("ring", 10, 0.37), ("box", 7, -0.95), ("ring", 3, 0.3)][i % 3]
        test = example(cfg=oracles.bound_config(kind, ell, p, n_steps=2 * m - m % 2, seed=i))(test)
    return test


@settings(derandomize=True, max_examples=100, deadline=None)
@given(cfg=bound_configs())
# the ray that rounds a cell down at ell 41 (see ring_memory_force), at a block edge
@example(cfg=oracles.bound_config("ring", 41, -28 / 41, n_steps=BLOCK, seed=0))
@example(cfg=oracles.bound_config("box", 41, 1.0, n_steps=BLOCK + 1, seed=1))
@_split_edge_examples
def test_run_ring_matches_per_tick_reference_on_drawn_configs(cfg):
    # the walk's counters, and the locked-half summary it streams, against
    # the tick-by-tick walk and the whole trace's second half, bit for bit
    counters = oracles.ring_per_tick(cfg)
    assert np.array_equal(np.concatenate(list(qforce.ring_counters(cfg))), counters)
    mean, centers, counts = qforce.run_ring(cfg)
    want_mean, want_centers, want_counts = oracles.locked_half_summary(counters)
    assert mean == want_mean
    assert np.array_equal(centers, want_centers) and np.array_equal(counts, want_counts)


def _shard_sizes():
    """Particles per shard: 1 to 5, or one either side of and on a multiple of the shard block."""
    return st.one_of(
        st.integers(1, 5),
        st.builds(lambda k, d: k * BLOCK + d, st.integers(1, 3), st.integers(-1, 1)),
    )


@st.composite
def free_runs(draw):
    """A free run: p uniform, fixed or +/-1, from a nonzero xi0."""
    p = draw(st.one_of(st.none(), st.floats(-1.0, 1.0), st.sampled_from([-1.0, 1.0])))
    xi0 = draw(st.integers(1, 10**6)) * draw(st.sampled_from([-1, 1]))
    return oracles.free_run(p, xi0, draw(st.integers(0, 40)))


def _draw_weights(draw, k: int) -> list[float]:
    """k source weights: one is 0, and they sum to 1 or one ulp below it."""
    raw = draw(st.lists(st.integers(1, 100), min_size=k - 1, max_size=k - 1))
    weights = [w / sum(raw) for w in raw]
    weights[-1] = 1.0 - sum(weights[:-1])
    if draw(st.booleans()):  # one ulp off the last weight, so the sum falls short of 1
        weights[-1] = float(np.nextafter(weights[-1], 0.0))
    weights.insert(draw(st.integers(0, k - 1)), 0.0)
    return weights


@st.composite
def trained_runs(draw):
    """A trained run over 2-10 sources; one weighs 0, and the weights sum to 1 or one ulp below it."""
    k = draw(st.integers(2, 10))
    sites = sorted(draw(st.lists(st.integers(-60, 60), min_size=k, max_size=k, unique=True)))
    weights = _draw_weights(draw, k)
    return oracles.trained_run(list(zip(sites, weights)), draw(st.integers(0, 40)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    run=st.one_of(free_runs(), trained_runs()),
    size=_shard_sizes(),
    shards=st.integers(1, 5),
    extra=st.integers(0, 4),
    threads=st.integers(1, 2),
    seed=st.integers(0, 2**64 - 1),
)
# one particle past a block, the first shard size drawn in two blocks
@example(run=oracles.free_run(None, -7, 30), size=BLOCK + 1, shards=1, extra=0, threads=1, seed=3)
@example(run=oracles.trained_run([(-4, 0.25), (0, 0.0), (5, 0.75)], 30), size=BLOCK, shards=3,
         extra=2, threads=2, seed=4)
def test_blocked_shards_match_whole_draws_on_drawn_runs(run, size, shards, extra, threads, seed):
    # every shard holds size or size + 1 particles, so the block edges fall
    # inside each; its blocks draw what the shard drawn whole draws
    draw, stages, whole, cone = run
    n = size * shards + extra % shards
    hist = walker._run_shards(draw, stages, cone, n, seed, shards, threads)
    assert hist.offset == cone[0]
    assert hist.counts.tolist() == oracles.run_shards_spawned(whole, cone, n, seed, shards).tolist()


@st.composite
def ray_problems(draw):
    """(sources, grid points, ulp sides, uniform p0) for the ray solver, either side of exactness.

    The ray table is exact for an equal pair up to about 54 apart and for
    ten sources 3 apart, and not for wider pairs or thirty sources 3
    apart, so pairs are drawn 2-54 apart or wider, and 10-30 sources 3
    apart.  A pair's weights are equal, one ulp short of 1 in sum, or
    1 and 0; the sources' are equal or weighted as ``trained_runs``.  Each
    drawn grid point gives p0 at the table's F row there, or one ulp
    below or above it, where the table's fit is F itself; 200 uniform p0
    fall inside cells, where an inexact fit is not.
    """
    if draw(st.booleans()):
        d = draw(st.one_of(st.integers(2, 54), st.integers(55, 400)))
        weights = draw(st.sampled_from([(0.5, 0.5), (0.5, float(np.nextafter(0.5, 0.0))), (1.0, 0.0)]))
        sources = [(0, weights[0]), (d, weights[1])]
    else:
        k = draw(st.integers(10, 30))
        weights = [1.0 / k] * k if draw(st.booleans()) else _draw_weights(draw, k)
        sources = [(3 * i, w) for i, w in enumerate(weights)]
    last = scenarios._RAY_TABLE_INTERVALS
    points = draw(st.lists(st.one_of(st.integers(0, last), st.sampled_from([0, 1, last - 1, last])),
                           min_size=1, max_size=40))
    sides = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=len(points), max_size=len(points)))
    uniform = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, 200)
    return sources, np.array(points), np.array(sides), uniform


@settings(derandomize=True, max_examples=60, deadline=None)
@given(problem=ray_problems())
@example(problem=([(0, 0.5), (54, 0.5)], np.array([0, 8192, 16384]), np.array([1, -1, 0]), np.zeros(0)))
def test_solve_rays_matches_bisection_on_drawn_tables(problem):
    # the residual gate of test_solve_rays_matches_bisection_residuals, with
    # p0 at +/-1 and at the grid values of F and one ulp beside them, where
    # a ray sits on a cell edge of the table
    sources, points, sides, uniform = problem
    amps, deltas = scenarios._pair_terms(sources)
    table = scenarios._ray_table(amps, deltas)
    at = table[0][0][points]
    beside = np.where(sides == 0, at, np.nextafter(at, np.where(sides > 0, 2.0, -2.0)))
    p0 = np.clip(np.concatenate([[-1.0, 1.0], beside, uniform]), -1.0, 1.0)

    def residual(q):
        return np.abs(q - p0 + scenarios._memory_force(q, amps, deltas))

    reference = residual(oracles.bisect_rays(p0, amps, deltas))
    assert np.all(residual(scenarios._solve_rays(p0, table)) <= reference + 8 * np.finfo(float).eps)


@st.composite
def training_configs(draw):
    """A training run over 2-5 sources within +/-300, weighted as ``trained_runs``.

    The draws lean towards the widest runs, sources at +/-300 and 40
    emissions of 400 ticks, where a long-lived site boson's decay product
    leaves the float range and an emission ends on a NaN propensity.
    """
    k = draw(st.integers(2, 5))
    site = st.one_of(st.integers(-300, 300), st.sampled_from([-300, 300]))
    sites = draw(st.lists(site, min_size=k, max_size=k, unique=True))
    sources = list(zip(sites, _draw_weights(draw, k)))
    n_particles = draw(st.one_of(st.integers(1, 40), st.just(40)))
    n_steps = draw(st.one_of(st.integers(1, 400), st.just(400)))
    return ScenarioConfig("multi-slit", n_particles, n_steps, sources, seed=draw(st.integers(0, 2**32 - 1)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(cfg=training_configs())
# six emissions of this run end on a NaN propensity
@example(cfg=ScenarioConfig("multi-slit", 40, 400, [(-300, 0.25), (20, 0.5), (300, 0.25)], seed=36))
def test_run_training_slits_matches_per_visit_reference_on_drawn_configs(cfg):
    # the inline tick against the plain forms, bit for bit, NaN bits too
    fast, slow = qforce.run_training_slits(cfg), oracles.training_per_visit(cfg)
    assert list(fast.emissions) == list(slow.emissions)
    for name, column in fast.emissions.items():
        assert column.dtype == slow.emissions[name].dtype
        assert column.tobytes() == slow.emissions[name].tobytes(), name
    assert repr(fast.lattice) == repr(slow.lattice)
    assert fast.positions.offset == slow.positions.offset
    assert np.array_equal(fast.positions.counts, slow.positions.counts)


CHUNK = stats._CHUNK
# floats where formatting is fragile: non-finite, signed zero, subnormal, huge, one ulp off 1
EDGE_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1,
               float(np.nextafter(1.0, 0.0)), 1e-05, 1e16, 123456789.0]
# ints beyond 2**53, where a float would round, and the int64 ends
EDGE_INTS = [0, -1, 2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63)]


@st.composite
def tables(draw):
    """(names, columns, summary): 1-5 int64 or float64 columns of 1, R-1, R, R+1 or 3R+5 rows.

    R is the writers' chunk size.  Each column mixes drawn edge values
    with values spread over its dtype's range.
    """
    rows = draw(st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5]))
    kinds = draw(st.lists(st.sampled_from(["int64", "float64"]), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in kinds:
        if kind == "int64":
            spread = rng.integers(-(2**63), 2**63 - 1, rows, endpoint=True)
            edges = np.array(EDGE_INTS)
        else:
            spread = rng.standard_normal(rows) * 10.0 ** rng.integers(-320, 308, rows)
            edges = np.array(EDGE_FLOATS)
        at = rng.random(rows) < 0.3
        spread[at] = rng.choice(edges, at.sum())
        columns.append(spread)
    names = [f"c{i}" for i in range(len(kinds))]
    summary = {"rows": rows, "edge": draw(st.sampled_from(EDGE_FLOATS)), "name": "c0"}
    return names, columns, summary


@settings(derandomize=True, max_examples=40, deadline=None)
@given(table=tables())
@example(table=(["xi", "x"], [np.array([7]), np.array([np.nan])], {"nan": np.nan}))
def test_chunked_writers_match_per_row_references_on_drawn_tables(table):
    # the chunked CSV and JSON against a row at a time and one whole json.dump, byte for byte
    names, columns, summary = table

    def written(write, *args):
        fh = io.StringIO(newline="")
        write(fh, *args)
        return fh.getvalue()

    assert written(stats.write_csv, names, columns) == written(oracles.csv_per_row, names, columns)
    assert (written(cli._dump_table, names, columns, summary)
            == written(oracles.json_whole, names, columns, summary))
