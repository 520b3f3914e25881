"""Histogram accumulation, goodness-of-fit reporting and output files.

Counts are kept as int64 on a contiguous integer support starting at
``offset``.  A run bins its final sites on its whole light cone
(``lattice.light_cone``), so shards binned on one cone add their counts
and the sum depends only on the per-shard streams, not on scheduling.
``write_csv`` is the one row rule of the program's tables and
``write_files`` the one way a run's files reach disk.
"""

from __future__ import annotations

import csv
import os
import shutil
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

# 99.9th percentile of the standard normal, used by the chi-square gate.
_Z_999 = 3.090232306167813


@dataclass
class Histogram:
    offset: int
    counts: np.ndarray

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 1:
            raise ValueError("counts must be one-dimensional")

    @classmethod
    def on_cone(cls, sites, cone: tuple[int, int]) -> "Histogram":
        """Counts of ``sites`` at every site of ``cone`` = (first, last), zeros included."""
        first, last = cone
        rows = last - first + 1
        counts = np.bincount(np.asarray(sites, dtype=np.int64) - first, minlength=rows)
        if len(counts) != rows:
            raise ValueError(f"a site lies past the light cone's last site {last}")
        return cls(offset=first, counts=counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def support(self) -> np.ndarray:
        """Integer coordinates of the bins."""
        return np.arange(self.offset, self.offset + len(self.counts))

    def frequency(self) -> np.ndarray:
        total = self.total
        if total == 0:
            raise ValueError("empty histogram has no frequencies")
        return self.counts / total


def chi2_critical(dof: int) -> float:
    """Upper 0.1% chi-square critical value via the Wilson-Hilferty cube.

    Within ~1% of the exact quantile for dof >= 5 and ~0.25% for dof >= 24,
    always erring on the lenient side.
    """
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    k = float(dof)
    return k * (1.0 - 2.0 / (9.0 * k) + _Z_999 * np.sqrt(2.0 / (9.0 * k))) ** 3


@dataclass(frozen=True)
class ComparisonReport:
    l1: float
    chi2: float
    dof: int
    critical: float
    passed: bool


def _pool(observed: np.ndarray, expected: np.ndarray, min_expected: float):
    """Group consecutive bins so every group's expected count reaches the floor.

    Greedy left-to-right; a trailing underweight group is folded into its
    predecessor.  Keeps tails pooled inward and never reorders bins.
    """
    obs_groups: list[float] = []
    exp_groups: list[float] = []
    acc_o = 0.0
    acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            obs_groups.append(acc_o)
            exp_groups.append(acc_e)
            acc_o = 0.0
            acc_e = 0.0
    if acc_e > 0.0 or acc_o > 0.0:
        if obs_groups:
            obs_groups[-1] += acc_o
            exp_groups[-1] += acc_e
        else:
            obs_groups.append(acc_o)
            exp_groups.append(acc_e)
    return np.array(obs_groups), np.array(exp_groups)


def compare(
    frequency: np.ndarray,
    reference: np.ndarray,
    total: int,
) -> ComparisonReport:
    """Compare an empirical frequency vector against a reference pmf.

    ``frequency`` and ``reference`` must share the same support ordering and
    ``reference`` must sum to 1 (within 1e-6).  The chi-square statistic is
    computed on bins pooled to 5 expected counts and gated at
    the upper 0.1% point for the pooled dof (``chi2_critical``).
    """
    frequency = np.asarray(frequency, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if frequency.shape != reference.shape:
        raise ValueError(
            f"support mismatch: {frequency.shape} vs {reference.shape}"
        )
    if total <= 0:
        raise ValueError("total must be positive")
    if abs(reference.sum() - 1.0) > 1e-6:
        raise ValueError(f"reference must sum to 1, got {reference.sum()!r}")
    if np.any(reference < 0.0):
        raise ValueError("reference has negative entries")

    l1 = float(np.abs(frequency - reference).sum())

    observed = frequency * total
    expected = reference * total
    obs_g, exp_g = _pool(observed, expected, 5.0)
    if len(obs_g) < 2:
        raise ValueError("fewer than two pooled bins; chi-square undefined")
    chi2 = float(((obs_g - exp_g) ** 2 / exp_g).sum())
    dof = len(obs_g) - 1
    critical = chi2_critical(dof)
    return ComparisonReport(
        l1=l1,
        chi2=chi2,
        dof=dof,
        critical=critical,
        passed=chi2 < critical,
    )


def table_rows(columns):
    """Rows of Python ints and floats, one per index of the column arrays."""
    return zip(*(np.asarray(col).tolist() for col in columns))


def write_csv(fh, names, columns) -> None:
    """Write a header and one row per index of ``columns``.

    The one row rule of every CSV the program writes: integers are
    written as they are and floats as ``.17g``, which round-trips.
    """
    writer = csv.writer(fh)
    writer.writerow(names)
    for row in table_rows(columns):
        writer.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])


def write_files(targets) -> None:
    """Write every ``(path, write)`` target, where ``write(fh)`` fills one text file.

    The files are replaced together or not at all: each target is first
    written to a temp file beside it, and the targets are replaced only
    after every temp file is complete, in the order given, so of two
    targets naming one path the later wins.  On any failure every temp
    file is removed.  A replaced file keeps its permission bits.  A
    symlink, or a target that exists but is not a regular file
    (``/dev/null``, a pipe, a terminal), is written in place once the
    temp files are complete and before any target is replaced, since
    renaming over it would replace the link or the device node itself.
    """
    staged, in_place = [], []
    try:
        for index, (path, write) in enumerate(targets):
            path = os.fspath(path)
            if os.path.islink(path) or (os.path.exists(path) and not os.path.isfile(path)):
                in_place.append((path, write))
                continue
            head, tail = os.path.split(path)
            tmp = os.path.join(head, f".{tail}.{os.getpid()}.{index}.tmp")
            try:
                fh = open(tmp, "w", newline="")
            except OSError as exc:  # report the target, not the temp name
                raise OSError(exc.errno, exc.strerror, path) from exc
            staged.append((tmp, path))
            with fh:
                if os.path.exists(path):
                    shutil.copymode(path, tmp)
                write(fh)
        for path, write in in_place:
            with open(path, "w", newline="") as fh:
                write(fh)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            with suppress(FileNotFoundError):
                os.unlink(tmp)
        raise
