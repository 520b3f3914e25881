"""The benchmark's workloads: program arguments, sizes and output checks.

Every workload is one ``latticemc`` command line.  Its outputs (CSV,
JSON mirror, manifest) are parsed into an ``Observation`` and judged
against a closed-form law.  ``judge`` takes the law as an argument so the
self-test can hand it a known-wrong one.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import Verdict

MULTI_SOURCES = tuple((site, 0.1) for site in range(-15, 13, 3))
TWO_SOURCES = ((1, 0.5), (-1, 0.5))
# The ring's memory force is a sawtooth, so between the rays 0.2 and 0.4
# counter/tau drifts toward 0.4 at only (p - 0.3)/tau: lock-in is
# logarithmic in tau.  At p = 0.33, 7 of 392 walks ended their second
# half short of 0.4 by more than 0.01 and one of 516 by 0.056, within
# 0.015 of the unlocked value 0.33: no tolerance passes every correct
# walk and rejects an unlocked one.  At p = 0.37 the drift is 0.07/tau
# from 0.03 away and 275 of 275 walks read 0.4 within 6e-6.
RING_ELL, RING_P, RING_TOLERANCE = 10, 0.37, 0.01


@dataclass
class Observation:
    """What a run left behind, parsed from its output files."""

    xi: np.ndarray
    counts: np.ndarray
    summary: dict
    structure: list[Verdict] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: tuple[str, ...]
    n_particles: int
    n_steps: int
    # span-name prefixes of the layer this workload was chosen to load
    focus: tuple[str, ...]
    # the correct law, in whatever form ``judge`` takes it
    law: object
    judge: Callable[["Workload", Observation, object], list[Verdict]]

    @property
    def ticks(self) -> int:
        """Particle ticks one run performs (lattice ticks for a single walker)."""
        return self.n_particles * self.n_steps

    def argv(self, seed: int, outdir: Path) -> list[str]:
        return [
            *self.args,
            "--n-particles", str(self.n_particles),
            "--n-steps", str(self.n_steps),
            "--seed", str(seed),
            "--out", str(outdir / "out.csv"),
            "--json", str(outdir / "out.json"),
            "--manifest", str(outdir / "manifest.json"),
        ]

    def check(self, outdir: Path, law=None) -> list[Verdict]:
        try:
            obs = observe(outdir)
        except (OSError, ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
            return [Verdict(False, f"unreadable output: {type(exc).__name__}: {exc}")]
        return obs.structure + self.judge(self, obs, self.law if law is None else law)


def observe(outdir: Path) -> Observation:
    """Parse CSV, JSON mirror and manifest; the JSON rows must equal the CSV rows."""
    with open(outdir / "out.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    with open(outdir / "out.json") as fh:
        doc = json.load(fh)
    with open(outdir / "manifest.json") as fh:
        manifest = json.load(fh)
    header, body = rows[0], rows[1:]
    same = header == doc["columns"] and len(body) == len(doc["rows"]) and all(
        [float(v) for v in c] == [float(v) for v in j] for c, j in zip(body, doc["rows"])
    )
    structure = [
        Verdict(same, f"json rows equal csv rows ({len(body)} rows)"),
        Verdict(
            manifest.get("tool") == "latticemc" and isinstance(manifest.get("params"), dict),
            "manifest parses",
        ),
    ]
    values = np.array([[float(v) for v in row[:2]] for row in body])
    return Observation(
        xi=values[:, 0],
        counts=values[:, 1].astype(np.int64),
        summary=doc["summary"],
        structure=structure,
    )


def _total(w: Workload, obs: Observation) -> Verdict:
    total = int(obs.counts.sum())
    return Verdict(total == w.n_particles, f"total {total} == N {w.n_particles}")


def _judge_free(w: Workload, obs: Observation, law) -> list[Verdict]:
    tau = w.n_steps
    full_cone = np.array_equal(obs.xi, np.arange(-tau, tau + 1))
    return [
        _total(w, obs),
        Verdict(full_cone, f"support is the light cone [-{tau}, {tau}]"),
        checks.chi_square(obs.counts, law(obs.xi, tau), "per-site counts vs law"),
    ]


def _judge_cells(n_cells: int):
    def judge(w: Workload, obs: Observation, law) -> list[Verdict]:
        lo, hi = int(obs.xi[0]), int(obs.xi[-1])
        observed = checks.cells(obs.counts, obs.xi, lo, hi, n_cells)
        expected = checks.cells(law(obs.xi, w.n_steps), obs.xi, lo, hi, n_cells)
        return [_total(w, obs), checks.chi_square(observed, expected, f"{n_cells} cells vs law")]
    return judge


def _judge_training(w: Workload, obs: Observation, law) -> list[Verdict]:
    # The fringe-alignment criterion of tests/test_qforce.py (12 cells over
    # |xi| <= 90 at tau = 100), plus a floor on the fitted visibility: noise
    # from a flat law aligns above 0.5 about one time in twenty, but its
    # visibility is 0 +- 0.03, while 2000-particle training runs reach 0.27-0.39.
    window, n_cells = 90, 12
    inside = np.abs(obs.xi) <= window
    sites = np.arange(-window, window + 1)
    observed = checks.cells(obs.counts[inside], obs.xi[inside], -window, window, n_cells)
    expected = checks.cells(law(sites, w.n_steps), sites, -window, window, n_cells)
    flat = checks.cells(np.ones(len(sites)), sites, -window, window, n_cells)
    alignment, visibility = checks.fringe_fit(observed, expected, flat)
    return [
        _total(w, obs),
        Verdict(alignment > 0.5, f"fringe alignment {alignment:.3f} > 0.5"),
        Verdict(visibility > 0.15, f"fringe visibility {visibility:.3f} > 0.15"),
    ]


def _judge_ring(w: Workload, obs: Observation, target) -> list[Verdict]:
    mean = float(obs.summary["mean_p_bar"])
    kept = w.n_steps - w.n_steps // 2
    return [
        Verdict(int(obs.counts.sum()) == kept, f"momentum histogram holds {kept} ticks"),
        Verdict(abs(mean - target) < RING_TOLERANCE,
                f"mean_p_bar {mean:.5f} within {RING_TOLERANCE} of {target:.4f}"),
    ]


def _sources_arg(sources) -> str:
    return "--sources=" + ",".join(f"{s}:{w}" for s, w in sources)


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="free-long",
            why="free ensemble, long walks: the walker's per-tick loop is almost the whole run,"
            " with no ray solver, no bosons and a small output",
            args=("free",),
            n_particles=100_000,
            n_steps=1000,
            focus=("walker.",),
            law=checks.flat_law,
            judge=_judge_free,
        ),
        Workload(
            name="multislit-trained",
            why="ten-source trained run on two threads: the per-particle ray solve over 45 source"
            " pairs dominates, plus shard seeding, threads and merge",
            args=("interfere", "--scenario", "multi-slit", _sources_arg(MULTI_SOURCES),
                  "--shards", "2", "--threads", "2"),
            n_particles=30_000,
            n_steps=300,
            focus=("qforce._solve_rays",),
            law=lambda xi, tau: checks.finite_time_law(xi, tau, MULTI_SOURCES),
            judge=_judge_cells(40),
        ),
        Workload(
            name="training-twoslit",
            why="the only sequential lattice-memory run: site-boson decay bookkeeping dominates",
            args=("interfere", "--scenario", "two-slit", "--delta", "2", "--mode", "training"),
            n_particles=2000,
            n_steps=100,
            focus=("qforce._LazySiteBoson.advance",),
            law=lambda xi, tau: checks.cosine_law(xi, tau, TWO_SOURCES),
            judge=_judge_training,
        ),
        Workload(
            name="ring-lock",
            why="the only bound walk: a scalar per-tick loop through the ring memory force,"
            " with import a large share of the run",
            args=("interfere", "--scenario", "ring", "--ell", str(RING_ELL), "--p", str(RING_P)),
            n_particles=1,
            n_steps=300_000,
            focus=("qforce.run_ring",),
            law=checks.ring_target(RING_P, RING_ELL),
            judge=_judge_ring,
        ),
    ]
}


def program_seed(seed: int, index: int) -> int:
    """Seed handed to the program for the ``index``-th run of a benchmark run."""
    return seed * 1000 + index

