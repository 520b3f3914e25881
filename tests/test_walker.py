"""Monte Carlo walker engine: sampling law, determinism, sharding."""

import inspect
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import oracles
import pytest
from hypothesis import given, strategies as st

from latticemc import analytic, qforce, walker
from latticemc.lattice import transition_probs
from latticemc.scenarios import ScenarioConfig
from latticemc.stats import _chi2_critical, _pool, compare


def test_step_matches_run_free_sampling():
    # the scalar step rule and the vectorized walk consume draws identically
    u = np.random.default_rng(42).random(200)
    assert oracles.run_free(0, 0.3, 200, np.random.default_rng(42)) == sum(
        walker.move(x, 0.3) for x in u.tolist()
    )


def test_move_cuts_at_transition_probs():
    for p in (-1.0, -0.6, 0.0, 0.35, 1.0):
        probs = transition_probs(p)
        for u in np.linspace(0.0, 1.0, 201, endpoint=False):
            expected = 1 if u < probs.up else (0 if u < probs.up + probs.stay else -1)
            assert walker.move(u, p) == expected


def _law_cuts(p):
    """The step law's two cuts at ``p``, as ``_bracket_moves`` reads them: up and up + stay."""
    probs = transition_probs(p)
    return probs.up, probs.up + probs.stay


def test_cuts_are_where_move_switches():
    # move inlines the cuts of transition_probs; a draw one ulp below a cut moves up a class
    for p in [-1.0, 1.0, *np.random.default_rng(5).uniform(-1.0, 1.0, 500).tolist()]:
        up, not_down = _law_cuts(p)
        assert walker.move(up, p) == (0 if up < not_down else -1)
        assert walker.move(np.nextafter(up, -np.inf), p) == 1
        assert walker.move(not_down, p) == -1
        assert walker.move(np.nextafter(not_down, -np.inf), p) == (0 if up < not_down else 1)


# the last bracket is one ulp wide, and its second cut at p_hi rounds one ulp
# below the one at p_lo
BRACKETS = [
    (-1.0, -1.0), (-1.0, -0.9), (-0.2, 0.1), (0.27, 0.47), (0.3, 0.3), (0.9, 1.0), (1.0, 1.0),
    (0.2739233746429086, 0.27392337464290867),
]


@pytest.mark.parametrize("p_lo,p_hi", BRACKETS)
def test_bracket_moves_agree_with_move_at_every_cut(p_lo, p_hi):
    # draws one ulp either side of each cut at p_lo, p_hi and +/-1, and of the
    # slack-widened cuts; a decided draw moves the same at every p in the bracket
    cuts = [c for p in (p_lo, p_hi, -1.0, 1.0) for c in _law_cuts(p)]
    cuts += [c + s for c in cuts for s in (-walker._CUT_SLACK, walker._CUT_SLACK)]
    near = [np.nextafter(c, d) for c in cuts for d in (-np.inf, np.inf)] + cuts
    u = np.unique(np.clip(near + [0.0, 0.5], 0.0, np.nextafter(1.0, 0.0)))
    u = np.concatenate([u, np.random.default_rng(8).random(2000)])
    moves, open_ = walker._bracket_moves(u, p_lo, p_hi)
    assert moves.dtype == np.int64 and not moves[open_].any()
    assert (~open_).any()
    ps = [p_lo, p_hi, *np.linspace(p_lo, p_hi, 41).tolist()]
    for x, m in zip(u[~open_].tolist(), moves[~open_].tolist()):
        assert all(walker.move(x, p) == m for p in ps)


@given(p=st.floats(-1.0, 1.0), draws=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
def test_bracket_moves_at_one_propensity_decide_like_move(p, draws):
    # a bracket of one propensity decides every draw as move does, leaving
    # open only draws within the slack of the second cut
    up, not_down = _law_cuts(p)
    near = [np.nextafter(c, d) for c in (up, not_down) for d in (-np.inf, np.inf)]
    u = np.clip(np.array([*draws, up, not_down, *near]), 0.0, np.nextafter(1.0, 0.0))
    moves, open_ = walker._bracket_moves(u, p, p)
    for x, m, is_open in zip(u.tolist(), moves.tolist(), open_.tolist()):
        if is_open:
            assert m == 0 and abs(x - not_down) <= walker._CUT_SLACK
        else:
            assert m == walker.move(x, p)


def test_run_free_zero_steps():
    rng = np.random.default_rng(0)
    assert oracles.run_free(5, 0.4, 0, rng) == 5
    with pytest.raises(ValueError):
        oracles.run_free(0, 0.4, -1, rng)


def test_run_free_stays_within_horizon():
    rng = np.random.default_rng(7)
    for _ in range(50):
        xi = oracles.run_free(0, 0.9, 30, rng)
        assert -30 <= xi <= 30


def test_ensemble_same_seed_is_identical():
    a = walker.run_ensemble_free(2000, 50, p=0.3, seed=11)
    b = walker.run_ensemble_free(2000, 50, p=0.3, seed=11)
    assert a.offset == b.offset
    assert np.array_equal(a.counts, b.counts)


def test_ensemble_shards_do_not_change_result():
    kwargs = dict(p=-0.2, seed=5, shards=4)
    a = walker.run_ensemble_free(1001, 40, threads=1, **kwargs)
    b = walker.run_ensemble_free(1001, 40, threads=4, **kwargs)
    assert a.offset == b.offset
    assert np.array_equal(a.counts, b.counts)
    assert a.total == 1001


def test_ensemble_pinned_counts_three_shards():
    # exact output for a fixed (seed, shards) pair; a change that moves it
    # alters RNG-visible results and must bump the package version
    hist = walker.run_ensemble_free(300, 20, seed=11, shards=3)
    assert hist.offset == -20
    assert hist.counts.tolist() == oracles.pad_to_cone([
        9, 9, 4, 5, 8, 8, 8, 12, 9, 11, 7, 11, 10, 7, 7, 6, 6, 6, 6, 5, 11,
        7, 6, 8, 5, 6, 12, 0, 9, 12, 4, 5, 6, 5, 7, 7, 6, 7, 11, 7, 5,
    ], -20, (-20, 20))
    # a fixed propensity from a shifted source
    hist = walker.run_ensemble_free(300, 20, p=0.3, xi0=5, seed=11, shards=3)
    assert hist.offset == -15
    assert hist.counts.tolist() == oracles.pad_to_cone([
        2, 0, 6, 17, 15, 18, 29, 35, 41, 31, 41, 27, 14, 13, 6, 1, 3, 1,
    ], 3, (-15, 25))


def test_empty_shards_are_not_seeded():
    # shards beyond the particle count hold no particles: they change no
    # stream and cost no generator, and a run keeps no shard's generator
    few = walker.run_ensemble_free(5, 10, seed=3, shards=5)
    many = walker.run_ensemble_free(5, 10, seed=3, shards=100000)
    assert few.offset == many.offset
    assert np.array_equal(few.counts, many.counts)
    for n, shards, threads in ((2, 20000, 1), (4000, 4000, 1), (4000, 4000, 2)):
        tracemalloc.start()
        try:
            walker.run_ensemble_free(n, 10, seed=3, shards=shards, threads=threads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, (n, shards, threads)


def test_ensemble_memory_is_flat_in_the_particle_count():
    # a shard draws, solves and bins one block of particles at a time, so
    # 3e5 particles peak no higher than 1e4, free or trained over the
    # benchmark's ten sources
    ten_sources = [(site, 0.1) for site in range(-15, 13, 3)]
    runs = {
        "free": lambda n: walker.run_ensemble_free(n, 30, seed=1),
        "trained": lambda n: qforce.run_trained_slits(
            ScenarioConfig("multi-slit", n, 30, ten_sources, seed=1)),
    }

    def peak(run, n):
        tracemalloc.start()
        try:
            run(n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for kind, run in runs.items():
        peak(run, 100)  # the first run in a process also allocates one-off state
        assert peak(run, 300_000) - peak(run, 10_000) <= 2**19, kind


# per kind of run: the block draw, its stage count, its whole-draw reference, and the light cone
_SHARDS = {
    "free": oracles.free_run(None, 0, 30),
    "trained": oracles.trained_run([(-3, 0.3), (1, 0.2), (4, 0.5)], 30),
}


@pytest.mark.parametrize("kind", sorted(_SHARDS))
@pytest.mark.parametrize("n,shards", [(1001, 4), (30001, 7), (5, 100000)])
@pytest.mark.parametrize("seed", [0, 17, 2**40 + 3])
def test_run_shards_matches_eager_spawn(kind, n, shards, seed):
    # each shard's generator, derived by index in its job, is the one
    # SeedSequence(seed).spawn gives it, and its blocks draw what the
    # shard drawn whole does
    draw, stages, whole, cone = _SHARDS[kind]
    expected = oracles.run_shards_spawned(whole, cone, n, seed, shards)
    for threads in (1, 2):
        hist = walker._run_shards(draw, stages, cone, n, seed, shards, threads)
        assert hist.offset == cone[0]
        assert hist.counts.tolist() == expected.tolist(), threads


def test_pool_is_bounded_by_shards_and_cores(monkeypatch):
    # a run of W workers starts W - 1 threads beside the caller's
    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountingThread)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    for shards, threads, pool in ((64, 64, 4), (3, 64, 3), (64, 1, None)):
        started.clear()
        hist = walker.run_ensemble_free(1001, 20, seed=5, shards=shards, threads=threads)
        alone = walker.run_ensemble_free(1001, 20, seed=5, shards=shards, threads=1)
        assert len(started) == (0 if pool is None else pool - 1)
        assert np.array_equal(hist.counts, alone.counts)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # no affinity: count cores
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # core count unknown: one worker
    started.clear()
    walker.run_ensemble_free(1001, 20, seed=5, shards=64, threads=64)
    assert started == []
    with pytest.raises(ValueError, match="threads"):
        walker.run_ensemble_free(1001, 20, seed=5, shards=4, threads=0)


def test_pool_is_bounded_by_usable_cpus(monkeypatch):
    # one CPU in the affinity mask: a four-thread run starts no thread, however
    # many CPUs the host has, and gives the one-thread counts
    def no_thread(*args, **kwargs):
        raise AssertionError("started a thread on one usable CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(threading, "Thread", no_thread)
    hist = walker.run_ensemble_free(1001, 20, seed=5, shards=4, threads=4)
    alone = walker.run_ensemble_free(1001, 20, seed=5, shards=4, threads=1)
    assert np.array_equal(hist.counts, alone.counts)


def test_threaded_sums_survive_rapid_switching(monkeypatch):
    # eight workers on fewer cores, switching threads every microsecond,
    # add each shard's counts exactly once
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        hist = walker.run_ensemble_free(20_000, 50, seed=9, shards=16, threads=8)
    finally:
        sys.setswitchinterval(interval)
    alone = walker.run_ensemble_free(20_000, 50, seed=9, shards=16, threads=1)
    assert np.array_equal(hist.counts, alone.counts)


def test_a_worker_threads_error_reaches_the_caller(monkeypatch):
    # worker 0 finishes in the caller's thread; worker 1's error is raised there once it is joined
    def draw(n, streams):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("worker 1")
        return np.zeros(n, dtype=np.int64)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with pytest.raises(MemoryError, match="worker 1"):
        walker._run_shards(draw, 1, (0, 0), 10, 0, 2, 2)


def test_worker_0s_error_waits_for_the_other_workers(monkeypatch):
    # the caller's own draw fails at once, while worker 1 is still drawing;
    # the error reaches the caller only after worker 1 has finished and
    # been joined, and no thread of the run is left alive
    finished = []

    def draw(n, streams):
        if threading.current_thread() is threading.main_thread():
            raise MemoryError("worker 0")
        time.sleep(0.2)
        finished.append(n)
        return np.zeros(n, dtype=np.int64)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    before = set(threading.enumerate())
    with pytest.raises(MemoryError, match="worker 0"):
        walker._run_shards(draw, 1, (0, 0), 10, 0, 2, 2)
    assert finished == [5]
    assert set(threading.enumerate()) == before


def test_each_block_is_one_draw_call(monkeypatch):
    # a shard draws each block of at most max(_BLOCK, cone rows) particles
    # in one call, which returns that block's int64 sites: uniform and
    # fixed-p free runs, and a trained run whose cone is wider than a block
    calls = []

    def spy(module, name):
        fn = getattr(module, name)
        signature = inspect.signature(fn)

        def draw(*args, **kwargs):
            sites = fn(*args, **kwargs)
            calls.append((signature.bind(*args, **kwargs).arguments["n_particles"], sites))
            return sites

        monkeypatch.setattr(module, name, draw)

    spy(walker, "_simulate_free_shard")
    spy(qforce, "_trained_shard")
    n = 3 * walker._BLOCK + 5
    wide = ScenarioConfig("multi-slit", 25_000, 5000, [(-2, 0.5), (2, 0.5)], seed=2)
    rows = wide.cone[1] - wide.cone[0] + 1
    assert rows > walker._BLOCK
    runs = [
        (lambda: walker.run_ensemble_free(n, 30, seed=1, shards=2), n, walker._BLOCK),
        (lambda: walker.run_ensemble_free(n, 30, p=0.3, seed=1, shards=2), n, walker._BLOCK),
        (lambda: qforce.run_trained_slits(wide, shards=2), wide.n_particles, rows),
    ]
    for run, total, block in runs:
        calls.clear()
        run()
        for size, sites in calls:
            assert 1 <= size <= block
            assert isinstance(sites, np.ndarray) and sites.dtype == np.int64 and sites.shape == (size,)
        assert max(size for size, _ in calls) == block
        assert sum(size for size, _ in calls) == total


def test_ensemble_seed_objects_are_rejected():
    # a seed is an int: a reused SeedSequence would be changed by spawning,
    # and a Generator has no per-shard children, so neither is accepted
    for seed in (np.random.default_rng(9), np.random.SeedSequence(5)):
        with pytest.raises(TypeError):
            walker.run_ensemble_free(100, 10, seed=seed)
        with pytest.raises(TypeError):
            walker.run_ensemble_free(100, 10, seed=seed, shards=2)


def test_ensemble_argument_validation():
    with pytest.raises(ValueError):
        walker.run_ensemble_free(0, 10)
    with pytest.raises(ValueError):
        walker.run_ensemble_free(10, -1)
    with pytest.raises(ValueError):
        walker.run_ensemble_free(10, 10, shards=0)
    with pytest.raises(ValueError):
        walker.run_ensemble_free(10, 10, p=2.0)
    with pytest.raises(ValueError, match=r"must lie in \[-1, 1\]"):
        walker.run_ensemble_free(5, 10, p=np.nan, seed=1)


def test_ensemble_point_mass_matches_closed_pmf():
    # chi-squared goodness of fit against the exact walk distribution
    n_particles, n_steps, p = 40000, 60, 0.3
    hist = walker.run_ensemble_free(n_particles, n_steps, p=p, seed=2024, shards=4)
    sites = np.arange(-n_steps, n_steps + 1)
    full = np.zeros(sites.size)
    full[hist.support - sites[0]] = hist.frequency()
    reference = analytic.pmf_free(sites, n_steps, p)
    report = compare(full, reference, hist.total)
    assert report.passed, f"chi2={report.chi2:.1f} > {report.critical:.1f}"


def test_ensemble_mean_and_variance():
    n_particles, n_steps, p = 50000, 80, -0.4
    b = transition_probs(p).stay
    hist = walker.run_ensemble_free(n_particles, n_steps, p=p, seed=77)
    support = hist.support
    freq = hist.frequency()
    mean = float((support * freq).sum())
    var = float(((support - mean) ** 2 * freq).sum())
    assert abs(mean - p * n_steps) <= 4.0 * np.sqrt(b * n_steps / n_particles)
    assert abs(var - b * n_steps) <= 0.1 * b * n_steps


def test_ensemble_uniform_propensity_is_flat():
    # averaging over preparation flattens the arrival law to 1/(2 tau + 1)
    n_particles, n_steps = 60000, 40
    hist = walker.run_ensemble_free(n_particles, n_steps, seed=31415)
    sites = np.arange(-n_steps, n_steps + 1)
    freq = hist.frequency()
    full = np.zeros(sites.size)
    idx = hist.support - sites[0]
    full[idx] = freq
    reference = np.full(sites.size, 1.0 / (2 * n_steps + 1))
    report = compare(full, reference, n_particles)
    assert report.passed, f"chi2={report.chi2:.1f} > {report.critical:.1f}"


def test_ensemble_shifted_source():
    hist = walker.run_ensemble_free(500, 0, p=0.0, xi0=12, seed=1)
    assert hist.support.tolist() == [12]
    assert hist.counts.tolist() == [500]


# ---------------------------------------------------------------------------
# the one-draw ensemble against the per-tick reference walk


def _two_sample_chi2(a, b, min_count=10):
    """Chi-square of two equal-size endpoint samples, on sites pooled to ``min_count`` joint counts."""
    lo = min(a.min(), b.min())
    size = max(a.max(), b.max()) - lo + 1
    ca, cb = (np.bincount(x - lo, minlength=size) for x in (a, b))
    ga, joint = _pool(ca, ca + cb, min_count)
    gb, _ = _pool(cb, ca + cb, min_count)
    return float(((ga - gb) ** 2 / joint).sum()), len(joint) - 1


@pytest.mark.parametrize("preparation", ["fixed", "uniform"])
def test_ensemble_matches_per_tick_reference(preparation):
    n_particles, n_steps, p = 20000, 40, 0.3
    fixed = preparation == "fixed"
    hist = walker.run_ensemble_free(n_particles, n_steps, p=p if fixed else None, seed=606)
    fast = np.repeat(hist.support, hist.counts)
    rng = np.random.default_rng(607)
    ps = np.full(n_particles, p) if fixed else rng.uniform(-1.0, 1.0, n_particles)
    slow = np.array([oracles.run_free(0, float(q), n_steps, rng) for q in ps])
    chi2, dof = _two_sample_chi2(fast, slow)
    assert dof > 20
    assert chi2 < _chi2_critical(dof), f"chi2={chi2:.1f} on {dof} dof"
