"""Histogram binning, chi-square gate, pooling, binning, CSV layout."""

import csv
import os
import stat

import numpy as np
import pytest
import scipy.stats

from latticemc import stats


# ---------------------------------------------------------------------------
# histogram container


def test_on_cone_counts_and_offset():
    hist = stats.Histogram.on_cone([3, -2, 3, 0, 3], (-4, 4))
    assert hist.offset == -4
    assert hist.counts.tolist() == [0, 0, 1, 0, 1, 0, 0, 3, 0]
    assert hist.total == 5
    assert hist.support.tolist() == list(range(-4, 5))
    # with no sites the cone still has every row
    assert stats.Histogram.on_cone([], (2, 4)).counts.tolist() == [0, 0, 0]


def test_on_cone_rejects_sites_off_the_cone():
    for sites in ([-5, 0], [0, 5]):
        with pytest.raises(ValueError):
            stats.Histogram.on_cone(sites, (-4, 4))


def test_frequency_sums_to_one():
    hist = stats.Histogram.on_cone([0, 0, 1, 2], (0, 2))
    freq = hist.frequency()
    assert freq.sum() == pytest.approx(1.0, abs=1e-15)
    assert freq.tolist() == [0.5, 0.25, 0.25]


def test_frequency_of_empty_counts_raises():
    hist = stats.Histogram(offset=0, counts=np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError):
        hist.frequency()


def test_counts_must_be_one_dimensional():
    with pytest.raises(ValueError):
        stats.Histogram(offset=0, counts=np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# chi-square critical values


@pytest.mark.parametrize(
    "dof,rel_tol", [(5, 0.012), (10, 0.006), (24, 0.0025), (100, 5e-4), (600, 5e-5)]
)
def test_chi2_critical_matches_scipy(dof, rel_tol):
    exact = scipy.stats.chi2.ppf(0.999, dof)
    ours = stats._chi2_critical(dof)
    assert abs(ours - exact) / exact <= rel_tol
    # the approximation sits above the exact quantile, so the gate is
    # never stricter than its nominal level
    assert ours >= exact


def test_chi2_critical_domain():
    with pytest.raises(ValueError):
        stats._chi2_critical(0)


# ---------------------------------------------------------------------------
# pooled comparison gate


def test_compare_accepts_true_distribution():
    rng = np.random.default_rng(8)
    reference = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
    total = 20000
    counts = rng.multinomial(total, reference)
    report = stats.compare(counts / total, reference, total)
    assert report.passed
    assert report.dof >= 2
    assert report.l1 < 0.05


def test_compare_rejects_wrong_distribution():
    reference = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
    wrong = np.array([0.4, 0.2, 0.1, 0.2, 0.1])
    report = stats.compare(wrong, reference, 20000)
    assert not report.passed
    assert report.chi2 > report.critical


def test_compare_pools_sparse_tails():
    # per-site expected counts of 0.5 must be pooled, not divided by
    reference = np.full(40, 1.0 / 40.0)
    frequency = reference.copy()
    report = stats.compare(frequency, reference, 80)
    assert report.chi2 == 0.0
    assert report.dof < 39


def test_compare_validation_errors():
    ref = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        stats.compare(np.array([1.0]), ref, 10)
    with pytest.raises(ValueError):
        stats.compare(ref, np.array([0.6, 0.6]), 10)
    with pytest.raises(ValueError):
        stats.compare(ref, np.array([-0.2, 1.2]), 10)
    with pytest.raises(ValueError):
        stats.compare(ref, ref, 0)
    with pytest.raises(ValueError):
        # everything pools into a single bin at tiny totals
        stats.compare(ref, ref, 5)


def test_pool_greedy_grouping():
    observed = np.array([1.0, 1.0, 6.0, 1.0])
    expected = np.array([2.0, 3.0, 6.0, 1.0])
    obs_g, exp_g = stats._pool(observed, expected, 5.0)
    assert exp_g.tolist() == [5.0, 7.0]
    assert obs_g.tolist() == [2.0, 7.0]
    assert obs_g.sum() == observed.sum()
    assert exp_g.sum() == expected.sum()


# ---------------------------------------------------------------------------
# CSV layout and output files


def _write_table(path, names, columns):
    stats.write_files([(path, lambda fh: stats.write_csv(fh, names, columns))])


def _histogram_columns(hist):
    return [hist.support, hist.counts, hist.frequency()]


def test_write_histogram_csv(tmp_path):
    hist = stats.Histogram(offset=-1, counts=[1, 2, 1])
    path = tmp_path / "h.csv"
    columns = [*_histogram_columns(hist), np.array([0.25, 0.5, 0.25])]
    _write_table(path, ["xi", "count", "frequency", "model"], columns)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["xi", "count", "frequency", "model"]
    assert rows[1] == ["-1", "1", "0.25", "0.25"]
    assert len(rows) == 4


def test_write_histogram_csv_roundtrips_floats(tmp_path):
    counts = [1, 3]
    hist = stats.Histogram(offset=0, counts=counts)
    path = tmp_path / "h.csv"
    _write_table(path, ["xi", "count", "frequency"], _histogram_columns(hist))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert float(rows[1][2]) == 0.25
    assert float(rows[2][2]) == 0.75


def test_write_value_histogram_csv(tmp_path):
    path = tmp_path / "v.csv"
    counts = np.array([3, 1])
    _write_table(path, ["pbar", "count", "frequency"],
                 [np.array([0.1, 0.3]), counts, counts / counts.sum()])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["pbar", "count", "frequency"]
    assert [r[0] for r in rows[1:]] == ["0.10000000000000001", "0.29999999999999999"]
    assert [r[1] for r in rows[1:]] == ["3", "1"]
    assert float(rows[1][2]) == 0.75


def _fails_mid_file(fh):  # as a full disk would, after part of the file
    fh.write("xi,count\n0,1\n")
    raise OSError(28, "No space left on device")


def _writes(text):
    return lambda fh: fh.write(text)


def test_failed_write_leaves_no_partial_or_temp_file(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.json"
    with pytest.raises(OSError):
        stats.write_files([(first, _writes("complete\n")), (second, _fails_mid_file)])
    assert list(tmp_path.iterdir()) == []

    first.write_text("earlier run\n")
    second.write_text("earlier run\n")
    with pytest.raises(OSError):
        stats.write_files([(first, _writes("complete\n")), (second, _fails_mid_file)])
    assert first.read_text() == second.read_text() == "earlier run\n"
    assert sorted(tmp_path.iterdir()) == [first, second]


def test_write_files_unwritable_later_target_replaces_nothing(tmp_path):
    first = tmp_path / "a.csv"
    first.write_text("earlier run\n")
    missing = tmp_path / "no" / "dir" / "b.json"
    with pytest.raises(OSError) as exc:
        stats.write_files([(first, _writes("new\n")), (missing, _writes("new\n"))])
    assert exc.value.filename == str(missing)  # the target, not the temp name
    assert first.read_text() == "earlier run\n"
    assert list(tmp_path.iterdir()) == [first]


def test_write_files_later_target_wins_on_a_shared_path(tmp_path):
    path = tmp_path / "same.out"
    stats.write_files([(path, _writes("csv\n")), (str(path), _writes("json\n"))])
    assert path.read_text() == "json\n"
    assert list(tmp_path.iterdir()) == [path]


def test_write_files_keeps_mode_and_writes_symlinks_in_place(tmp_path):
    hist = stats.Histogram(offset=0, counts=[2, 2])
    path = tmp_path / "h.csv"
    path.write_text("earlier run\n")
    os.chmod(path, 0o640)
    _write_table(path, ["xi", "count", "frequency"], _histogram_columns(hist))
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
    assert path.read_text().startswith("xi,count,frequency")

    link = tmp_path / "link.csv"
    link.symlink_to(path)
    _write_table(link, ["xi", "count", "frequency"],
                 _histogram_columns(stats.Histogram(offset=5, counts=[4])))
    assert link.is_symlink()
    assert path.read_text().splitlines()[1].startswith("5,4,")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h.csv", "link.csv"]
