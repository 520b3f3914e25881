"""End-to-end tests of the command-line interface."""

import csv
import hashlib
import json
import os
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import latticemc
from latticemc import analytic, cli, qforce, stats, verify


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# free


def test_free_writes_padded_histogram_csv(tmp_path, capsys):
    out = tmp_path / "free.csv"
    code = cli.main([
        "free", "--n-particles", "2000", "--n-steps", "40", "--p", "0.2",
        "--seed", "7", "--xi0", "5", "--out", str(out),
    ])
    assert code == 0
    rows = read_rows(out)
    assert rows[0] == ["xi", "count", "frequency", "model_P"]
    assert len(rows) == 1 + 81  # every site in [xi0 - tau, xi0 + tau]
    xi = np.array([int(r[0]) for r in rows[1:]])
    counts = np.array([int(r[1]) for r in rows[1:]])
    assert xi[0] == 5 - 40 and xi[-1] == 5 + 40
    assert counts.sum() == 2000
    freq = np.array([float(r[2]) for r in rows[1:]])
    assert np.allclose(freq, counts / 2000.0, rtol=0, atol=1e-16)
    model = np.array([float(r[3]) for r in rows[1:]])
    assert model.sum() == pytest.approx(1.0, abs=1e-9)
    assert "free: N=2000 tau=40" in capsys.readouterr().out


def test_free_uniform_model_is_flat(tmp_path):
    out = tmp_path / "free.csv"
    assert cli.main([
        "free", "--n-particles", "500", "--n-steps", "30", "--seed", "1",
        "--out", str(out),
    ]) == 0
    rows = read_rows(out)
    model = np.array([float(r[3]) for r in rows[1:]])
    assert np.allclose(model, 1.0 / 61.0)


def test_free_model_is_centred_on_the_emission_site(tmp_path):
    out = tmp_path / "free.csv"
    assert cli.main([
        "free", "--n-particles", "200", "--n-steps", "9", "--p", "0.2", "--xi0", "4",
        "--out", str(out),
    ]) == 0
    rows = read_rows(out)[1:]
    xi = np.array([int(r[0]) for r in rows])
    model = np.array([float(r[3]) for r in rows])
    assert xi.tolist() == list(range(4 - 9, 4 + 9 + 1))
    assert np.array_equal(model, analytic.pmf_free(xi - 4, 9, 0.2))


def test_free_same_seed_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["free", "--n-particles", "3000", "--n-steps", "50", "--seed", "11"]
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_free_threads_do_not_change_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["free", "--n-particles", "4001", "--n-steps", "50", "--seed", "12",
            "--shards", "4"]
    assert cli.main(base + ["--threads", "1", "--out", str(a)]) == 0
    assert cli.main(base + ["--threads", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_free_manifest_rerun_reproduces_outputs(tmp_path):
    out = tmp_path / "run.csv"
    js = tmp_path / "run.json"
    manifest = tmp_path / "run.manifest.json"
    assert cli.main([
        "free", "--n-particles", "2500", "--n-steps", "60", "--p", "-0.3",
        "--seed", "21", "--out", str(out), "--json", str(js),
        "--manifest", str(manifest),
    ]) == 0
    doc = json.loads(manifest.read_text())
    assert doc["tool"] == "latticemc" and doc["command"] == "free"

    redo = tmp_path / "redo"
    assert cli.main(["rerun", str(manifest), "--out-dir", str(redo)]) == 0
    assert (redo / "run.csv").read_bytes() == out.read_bytes()
    assert (redo / "run.json").read_bytes() == js.read_bytes()


@pytest.mark.parametrize("argv", [
    ["--scenario", "multi-slit", "--sources=-3:0.3,1:0.2,4:0.5", "--n-particles", "3000",
     "--n-steps", "60", "--shards", "3", "--threads", "2"],
    ["--scenario", "two-slit", "--mode", "training", "--n-particles", "200",
     "--n-steps", "30", "--diagnostics", "run.diag.csv"],
    ["--scenario", "ring", "--ell", "10", "--p", "0.37", "--n-steps", "20000"],
    ["--scenario", "box", "--ell", "5", "--p", "0.37", "--n-steps", "20000"],
], ids=["multi-slit", "training", "ring", "box"])
def test_interfere_manifest_rerun_reproduces_outputs(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main([
        "interfere", *argv, "--seed", "4", "--out", "run.csv", "--json", "run.json",
        "--manifest", "run.manifest.json",
    ]) == 0
    assert cli.main(["rerun", "run.manifest.json", "--out-dir", "redo"]) == 0
    names = ["run.csv", "run.json"] + (["run.diag.csv"] if "--diagnostics" in argv else [])
    for name in names:
        assert (tmp_path / "redo" / name).read_bytes() == (tmp_path / name).read_bytes()


# ---------------------------------------------------------------------------
# interfere


def test_interfere_two_slit_csv_and_json(tmp_path):
    out = tmp_path / "slit.csv"
    js = tmp_path / "slit.json"
    assert cli.main([
        "interfere", "--scenario", "two-slit", "--delta", "2",
        "--n-particles", "3000", "--n-steps", "60", "--seed", "2",
        "--out", str(out), "--json", str(js),
    ]) == 0
    rows = read_rows(out)
    assert rows[0] == ["xi", "count", "frequency", "model_P", "qm_oracle"]
    assert len(rows) == 1 + 123  # [-1 - tau, 1 + tau]
    counts = np.array([int(r[1]) for r in rows[1:]])
    assert counts.sum() == 3000
    model = np.array([float(r[3]) for r in rows[1:]])
    oracle = np.array([float(r[4]) for r in rows[1:]])
    assert np.abs(model - oracle).max() <= 1e-12

    doc = json.loads(js.read_text())
    assert doc["columns"] == ["xi", "count", "frequency", "model_P", "qm_oracle"]
    assert len(doc["rows"]) == 123
    assert doc["summary"]["scenario"] == "two-slit"


def test_interfere_explicit_sources(tmp_path):
    out = tmp_path / "tri.csv"
    assert cli.main([
        "interfere", "--scenario", "multi-slit",
        "--sources=-3:0.25,0:0.5,3:0.25",
        "--n-particles", "1000", "--n-steps", "40", "--seed", "3",
        "--out", str(out),
    ]) == 0
    rows = read_rows(out)
    assert int(rows[1][0]) == -43 and int(rows[-1][0]) == 43


def test_interfere_same_seed_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = [
        "interfere", "--scenario", "two-slit", "--n-particles", "2000",
        "--n-steps", "50", "--seed", "9", "--shards", "3",
    ]
    assert cli.main(argv + ["--threads", "1", "--out", str(a)]) == 0
    assert cli.main(argv + ["--threads", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_interfere_training_mode_is_sequential(tmp_path, capsys):
    out = tmp_path / "train.csv"
    diag = tmp_path / "diag.csv"
    assert cli.main([
        "interfere", "--scenario", "two-slit", "--mode", "training",
        "--n-particles", "50", "--n-steps", "30", "--seed", "4",
        "--threads", "8", "--out", str(out), "--diagnostics", str(diag),
    ]) == 0
    captured = capsys.readouterr()
    assert "training mode is sequential" in captured.err
    assert diag.exists()
    rows = read_rows(diag)
    assert rows[0] == ["emission", "source", "final_xi", "bosons_created", "final_p_eff"]
    assert len(rows) == 51


def test_interfere_ring_reports_lock(tmp_path, capsys):
    out = tmp_path / "ring.csv"
    assert cli.main([
        "interfere", "--scenario", "ring", "--ell", "10", "--p", "0.33",
        "--n-steps", "40000", "--seed", "5", "--out", str(out),
    ]) == 0
    rows = read_rows(out)
    assert rows[0] == ["pbar", "count", "frequency"]
    text = capsys.readouterr().out
    assert "target=0.4000" in text


def test_interfere_box_reports_lock(tmp_path, capsys):
    out = tmp_path / "box.csv"
    assert cli.main([
        "interfere", "--scenario", "box", "--ell", "5", "--p", "0.37",
        "--n-steps", "20000", "--seed", "5", "--out", str(out),
    ]) == 0
    assert read_rows(out)[0] == ["pbar", "count", "frequency"]
    assert "interfere: box ell=5" in capsys.readouterr().out


@pytest.mark.parametrize("kind, ell", [("ring", "10"), ("box", "5")])
def test_interfere_bound_run_builds_its_locked_half_once(tmp_path, monkeypatch, kind, ell):
    # the mean, the histogram and the JSON summary all read one locked half,
    # streamed from one walk
    summary, walk = qforce._locked_summary, qforce.ring_counters
    calls, walks = [], []

    def spy(blocks, n):
        calls.append(n)
        return summary(blocks, n)

    def walk_spy(config):
        walks.append(config.n_steps)
        return walk(config)

    monkeypatch.setattr(qforce, "_locked_summary", spy)
    monkeypatch.setattr(qforce, "ring_counters", walk_spy)
    assert cli.main([
        "interfere", "--scenario", kind, "--ell", ell, "--p", "0.37", "--n-steps", "20000",
        "--out", str(tmp_path / "run.csv"), "--json", str(tmp_path / "run.json"),
    ]) == 0
    assert calls == walks == [20000]


@pytest.mark.parametrize("kind", ["ring", "box"])
def test_interfere_bound_run_notes_it_is_sequential(tmp_path, capsys, kind):
    # shards and threads cannot split one walk, and a run of one walker in
    # converged memory has no ensemble and no training mode: a notice on
    # stderr, and the same stdout line and output bytes as without the flags
    argv = ["interfere", "--scenario", kind, "--ell", "10", "--p", "0.37",
            "--n-steps", "1000", "--seed", "5"]

    def run(name, flags):
        paths = (tmp_path / f"{name}.csv", tmp_path / f"{name}.json")
        assert cli.main([*argv, *flags, "--out", str(paths[0]), "--json", str(paths[1])]) == 0
        return capsys.readouterr(), [path.read_bytes() for path in paths]

    plain, plain_bytes = run("plain", [])
    assert plain.err == "" and plain.out.count("\n") == 1
    sequential = f"interfere: a {kind} run is one sequential walk; using one thread\n"
    one_walker = (f"interfere: a {kind} run follows one walker in converged memory; "
                  "--n-particles and --mode are ignored\n")
    for i, (flags, err) in enumerate([
        (["--shards", "4", "--threads", "4"], sequential), (["--shards", "2"], sequential),
        (["--threads", "3"], sequential), (["--n-particles", "1"], ""), (["--mode", "trained"], ""),
        (["--n-particles", "500"], one_walker), (["--mode", "training"], one_walker),
        (["--n-particles", "2", "--mode", "training", "--shards", "2"], sequential + one_walker),
    ]):
        captured, output_bytes = run(f"flagged{i}", flags)
        assert captured.err == err
        assert captured.out == plain.out
        assert output_bytes == plain_bytes


@pytest.mark.parametrize("base, unread, err", [
    (["--scenario", "ring", "--ell", "10", "--p", "0.37"],
     ["--delta", "8", "--p1", "0.9", "--sources=0:0.5,4:0.5"], "--delta, --p1 and --sources"),
    (["--scenario", "multi-slit", "--sources=-3:0.25,0:0.5,3:0.25"],
     ["--ell", "7", "--p", "0.2", "--delta", "10"], "--delta, --ell and --p"),
    (["--scenario", "two-slit", "--sources=-3:0.5,3:0.5"],
     ["--delta", "10", "--p1", "0.9"], "--delta and --p1"),
    (["--scenario", "two-slit", "--delta", "4"], ["--ell", "7"], "--ell"),
    (["--scenario", "multi-slit", "--sources=-3:0.25,0:0.5,3:0.25"],
     ["--delta", "2", "--p1", "0.5"], None),
    (["--scenario", "box", "--ell", "6", "--p", "0.2"],
     ["--delta", "2", "--p1", "0.5"], None),
])
def test_interfere_notes_options_the_scenario_does_not_read(tmp_path, capsys, base, unread, err):
    # a value for an option the scenario does not read (--delta and --p1 count
    # only off their defaults) draws one notice on stderr; stdout and output
    # bytes are those of the run without it
    kind = base[1]
    size = ["--n-particles", "200"] if kind in ("two-slit", "multi-slit") else []
    argv = ["interfere", *base, *size, "--n-steps", "40", "--seed", "7"]

    def run(name, flags):
        paths = (tmp_path / f"{name}.csv", tmp_path / f"{name}.json")
        assert cli.main([*argv, *flags, "--out", str(paths[0]), "--json", str(paths[1])]) == 0
        return capsys.readouterr(), [path.read_bytes() for path in paths]

    plain, plain_bytes = run("plain", [])
    flagged, flagged_bytes = run("flagged", unread)
    assert plain.err == ""
    assert flagged.err == (f"interfere: this {kind} run does not read {err}; ignored\n" if err else "")
    assert flagged.out == plain.out
    assert flagged_bytes == plain_bytes


def test_interfere_ring_needs_geometry(tmp_path, capsys):
    code = cli.main([
        "interfere", "--scenario", "ring", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert "needs --ell and --p" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# configuration file handling


def test_config_file_supplies_and_cli_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n-particles = 600\nn_steps = 40  # comment\nseed = 3\np = 0.1\n")
    out = tmp_path / "a.csv"
    assert cli.main(["free", "--config", str(cfg), "--out", str(out)]) == 0
    counts = sum(int(r[1]) for r in read_rows(out)[1:])
    assert counts == 600

    out2 = tmp_path / "b.csv"
    assert cli.main([
        "free", "--config", str(cfg), "--n-particles", "900", "--out", str(out2),
    ]) == 0
    counts2 = sum(int(r[1]) for r in read_rows(out2)[1:])
    assert counts2 == 900


_CONFIG_VALUES = {
    "scenario": "two-slit", "delta": "4", "p1": "0.3", "sources": "-2:0.5,2:0.5", "ell": "5",
    "p": "0.2", "mode": "training", "xi0": "3", "n_particles": "60", "n_steps": "12",
    "seed": "4", "shards": "2", "threads": "2", "out": "cfg.csv", "json_out": "cfg.json",
    "manifest": "cfg.manifest.json", "diagnostics": "cfg.diag.csv",
}


@pytest.mark.parametrize("command, key", [
    *[("free", key) for key in cli._FREE_OPTIONS],
    *[("interfere", key) for key in cli._INTERFERE_OPTIONS],
])
def test_every_option_key_is_accepted_in_a_config_file(tmp_path, monkeypatch, capsys,
                                                       command, key):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(f"{key} = {_CONFIG_VALUES[key]}\n")
    flags = {"n_particles": "30", "n_steps": "8", "out": "run.csv", "manifest": "run.manifest.json"}
    if command == "interfere":
        flags["scenario"] = "two-slit"
    flags.pop(key, None)
    argv = [command, "--config", "run.cfg"]
    for flag_key, value in flags.items():
        argv += ["--" + flag_key.replace("_", "-"), value]
    assert cli.main(argv) == 0, capsys.readouterr().err
    options = cli._FREE_OPTIONS if command == "free" else cli._INTERFERE_OPTIONS
    manifest = _CONFIG_VALUES["manifest"] if key == "manifest" else "run.manifest.json"
    params = json.loads((tmp_path / manifest).read_text())["params"]
    assert params[key] == options[key].kind(_CONFIG_VALUES[key])
    if key == "json_out":
        assert json.loads((tmp_path / "cfg.json").read_text())["columns"][0] == "xi"


def test_config_file_errors(tmp_path, capsys):
    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text("n_particels = 100\n")
    assert cli.main(["free", "--config", str(bad_key), "--out", "x.csv"]) == 2
    assert "unknown config keys" in capsys.readouterr().err

    bad_value = tmp_path / "badval.cfg"
    bad_value.write_text("n_particles = lots\n")
    assert cli.main(["free", "--config", str(bad_value), "--out", "x.csv"]) == 2

    no_equals = tmp_path / "noeq.cfg"
    no_equals.write_text("just words\n")
    assert cli.main(["free", "--config", str(no_equals), "--out", "x.csv"]) == 2

    assert cli.main(["free", "--config", str(tmp_path / "missing.cfg"),
                     "--out", "x.csv"]) == 2

    not_utf8 = tmp_path / "notutf8.cfg"
    not_utf8.write_bytes(b"\xff\xfe\x00bad = 1\n")
    assert cli.main(["free", "--config", str(not_utf8), "--out", "x.csv"]) == 2
    assert "cannot read config file" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        cli.main(["free", "--no-such-flag"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["interfere", "--mode", "annealed", "--out", "x.csv"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 1


def test_config_errors_exit_2(tmp_path, capsys):
    assert cli.main(["free", "--n-particles", "1000", "--n-steps", "30"]) == 2
    assert "missing required option --out" in capsys.readouterr().err
    assert cli.main([
        "free", "--p", "1.5", "--out", str(tmp_path / "x.csv"),
    ]) == 2
    assert cli.main([
        "free", "--n-particles", "0", "--out", str(tmp_path / "x.csv"),
    ]) == 2
    assert cli.main([
        "interfere", "--scenario", "two-slit", "--delta", "3",
        "--out", str(tmp_path / "x.csv"),
    ]) == 2
    out = str(tmp_path / "x.csv")
    huge = str(2**70)
    small = ["--n-particles", "10", "--n-steps", "5"]
    for argv in [
        ["free", "--p", "nan", "--out", out],
        ["interfere", "--scenario", "ring", "--ell", "10", "--p", "nan", "--out", out],
        ["interfere", "--scenario", "two-slit", "--p1", "nan", "--out", out],
        ["interfere", "--scenario", "multi-slit", "--sources=-1:nan,1:nan", "--out", out],
        # light cones that leave int64: past it, wrapping past its top, or
        # ending the support one past the largest int64
        ["free", *small, "--xi0", huge, "--out", out],
        ["free", *small, "--xi0", str(2**63 - 3), "--out", out],
        ["free", *small, "--xi0", str(2**63 - 1 - 5), "--out", out],
        ["free", "--n-particles", "1", "--n-steps", huge, "--out", out],
        ["interfere", "--scenario", "two-slit", "--delta", huge, *small, "--out", out],
        ["interfere", "--scenario", "multi-slit", f"--sources=0:0.5,{huge}:0.5", *small,
         "--out", out],
        # sources whose cones fit but whose joint cone has more rows than
        # int64 can count, or more than an int64 count array can hold
        ["interfere", "--scenario", "multi-slit",
         "--sources=-9223372036854775000:0.5,9223372036854775000:0.5", *small, "--out", out],
        ["interfere", "--scenario", "multi-slit",
         "--sources=-4611686018427387000:0.5,4611686018427387000:0.5", *small, "--out", out],
    ]:
        capsys.readouterr()
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("latticemc: config error")
        assert not os.path.exists(out), argv


NEGATIVE_SEED_RUNS = {
    "free": ["free", "--n-particles", "10", "--n-steps", "5"],
    "interfere": ["interfere", "--scenario", "ring", "--ell", "4", "--p", "0.3",
                  "--n-steps", "50"],
}


@pytest.mark.parametrize("command", sorted(NEGATIVE_SEED_RUNS))
@pytest.mark.parametrize("origin", ["flag", "config", "manifest"])
def test_negative_seed_exits_2_and_writes_nothing(tmp_path, capsys, origin, command):
    argv = NEGATIVE_SEED_RUNS[command]
    out = tmp_path / "x.csv"
    if origin == "flag":
        argv = [*argv, "--seed", "-5", "--out", str(out)]
    elif origin == "config":
        config = tmp_path / "run.cfg"
        config.write_text("seed = -5\n")
        argv = [*argv, "--config", str(config), "--out", str(out)]
    else:
        manifest = tmp_path / "run.manifest.json"
        assert cli.main([*argv, "--out", str(out), "--manifest", str(manifest)]) == 0
        doc = json.loads(manifest.read_text())
        doc["params"]["seed"] = -5
        manifest.write_text(json.dumps(doc))
        argv = ["rerun", str(manifest), "--out-dir", str(tmp_path / "redo")]
        out = tmp_path / "redo"
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "latticemc: config error: seed must be >= 0, got -5\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["ring", "box"])
@pytest.mark.parametrize("key", ["n_particles", "n_steps"])
@pytest.mark.parametrize("origin", ["flag", "config", "manifest"])
def test_interfere_sizes_below_one_exit_2(tmp_path, capsys, kind, key, origin):
    argv = ["interfere", "--scenario", kind, "--ell", "10", "--p", "0.3"]
    values = {"n_steps": 50, key: -5}
    out = tmp_path / "x.csv"
    if origin == "flag":
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in values.items()]
        argv = [*argv, *flags, "--out", str(out)]
    elif origin == "config":
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        argv = [*argv, "--config", str(config), "--out", str(out)]
    else:
        manifest = tmp_path / "run.manifest.json"
        assert cli.main([*argv, "--n-steps", "50", "--out", str(out),
                         "--manifest", str(manifest)]) == 0
        doc = json.loads(manifest.read_text())
        doc["params"][key] = -5
        manifest.write_text(json.dumps(doc))
        argv = ["rerun", str(manifest), "--out-dir", str(tmp_path / "redo")]
        out = tmp_path / "redo"
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"latticemc: config error: {key} must be >= 1, got -5\n"
    assert not out.exists()


# the top site stays below the int64 maximum, so the support's exclusive end fits
@pytest.mark.parametrize("xi0", [2**63 - 2 - 5, -(2**63) + 5])
def test_light_cone_at_int64_limits_runs(tmp_path, xi0):
    out = tmp_path / "x.csv"
    assert cli.main([
        "free", "--n-steps", "5", "--n-particles", "10", "--p", "0.2", "--xi0", str(xi0),
        "--out", str(out),
    ]) == 0
    sites = [int(row[0]) for row in read_rows(out)[1:]]
    assert sites == list(range(xi0 - 5, xi0 + 6))


# each cone has about 1e17 sites: its int64 counts fit the cone check but no
# address space, so the allocation is refused at once
@pytest.mark.parametrize("argv", [
    ["free", "--n-steps", "50000000000000000"],
    ["interfere", "--scenario", "two-slit", "--delta", "100000000000000000", "--n-steps", "5"],
    ["interfere", "--scenario", "two-slit", "--delta", "100000000000000000", "--n-steps", "5",
     "--mode", "training"],
    ["interfere", "--scenario", "multi-slit", "--sources=0:0.5,100000000000000000:0.5",
     "--n-steps", "5"],
], ids=["free", "trained", "training", "multi-slit"])
def test_run_too_large_for_memory_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "a.csv"
    assert cli.main(argv + ["--n-particles", "10", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("latticemc: config error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_internal_value_error_is_not_a_config_error(tmp_path, monkeypatch):
    # a ValueError past validation is a bug in the program, not bad input
    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(qforce, "run_trained_slits", broken)
    with pytest.raises(ValueError, match="internal bug"):
        cli.main([
            "interfere", "--scenario", "two-slit", "--n-particles", "10",
            "--n-steps", "5", "--out", str(tmp_path / "x.csv"),
        ])


def test_verify_selected_suite_passes(capsys):
    assert cli.main(["verify", "--suite", "pmf"]) == 0
    out = capsys.readouterr().out
    assert "[pass]" in out and "checks passed" in out
    assert "[FAIL]" not in out


def test_verify_all_suites_pass(capsys):
    assert cli.main(["verify"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    passed, total = last.removeprefix("verify: ").removesuffix(" checks passed").split("/")
    assert passed == total and int(total) > 0


def test_verify_stdout_is_pinned(capsys):
    # every verify check is deterministic, so its whole report is one fixed text
    assert cli.main(["verify"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "9a14423cedb8c72ea935c93bb27244cc50b17613eb8d4e7c259d02464dcdcf49"


def test_verify_unknown_suite_exits_2(capsys):
    assert cli.main(["verify", "--suite", "astrology"]) == 2
    assert "unknown suite" in capsys.readouterr().err
    # every name is checked before any suite runs
    assert cli.main(["verify", "--suite", "pmf", "--suite", "astrology"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "latticemc: config error: unknown suite(s) astrology; "
        "choose from pmf, energy, action, dbb, matterwave, lorentz, boson\n"
    )


def test_verify_failure_exits_3(monkeypatch, capsys):
    def forced_failure():
        return [verify.Check("synthetic", "forced", 1.0, 0.0, 0.1)]

    monkeypatch.setitem(verify._SUITES, "synthetic", forced_failure)
    assert cli.main(["verify", "--suite", "synthetic"]) == 3
    out = capsys.readouterr().out
    assert "[FAIL] synthetic/forced" in out
    assert "0/1 checks passed" in out


def test_rerun_rejects_bad_manifests(tmp_path, capsys):
    assert cli.main(["rerun", str(tmp_path / "nope.json")]) == 2
    not_json = tmp_path / "not.json"
    not_json.write_text("{broken")
    assert cli.main(["rerun", str(not_json)]) == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"command": "dance", "params": {"x": 1}}))
    assert cli.main(["rerun", str(wrong)]) == 2
    capsys.readouterr()
    # bytes that are not UTF-8, and nesting deeper than the JSON decoder recurses
    not_utf8 = tmp_path / "notutf8.json"
    not_utf8.write_bytes(b"\xff\xfe\x00bad = 1\n")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    for manifest in (not_utf8, deep):
        assert cli.main(["rerun", str(manifest)]) == 2
        assert "cannot read manifest" in capsys.readouterr().err


def _recorded_free_run(tmp_path):
    out = tmp_path / "run.csv"
    manifest = tmp_path / "run.manifest.json"
    assert cli.main([
        "free", "--n-particles", "800", "--n-steps", "30", "--seed", "4",
        "--out", str(out), "--manifest", str(manifest),
    ]) == 0
    return out, manifest, json.loads(manifest.read_text())


def test_rerun_fills_missing_optional_keys(tmp_path):
    out, manifest, doc = _recorded_free_run(tmp_path)
    del doc["params"]["shards"], doc["params"]["threads"]
    manifest.write_text(json.dumps(doc))
    redo = tmp_path / "redo"
    assert cli.main(["rerun", str(manifest), "--out-dir", str(redo)]) == 0
    assert (redo / "run.csv").read_bytes() == out.read_bytes()


def test_rerun_rejects_mistyped_or_missing_params(tmp_path, capsys):
    _, manifest, doc = _recorded_free_run(tmp_path)
    for key, value in [
        ("seed", "abc"), ("n_steps", "12"), ("n_steps", 2.5), ("shards", True), ("out", None),
    ]:
        bad = json.loads(json.dumps(doc))
        bad["params"][key] = value
        manifest.write_text(json.dumps(bad))
        assert cli.main(["rerun", str(manifest), "--out-dir", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if isinstance(value, str):  # manifest values are typed JSON, never parsed from text
            assert f"expected int, got {value!r}" in err


def test_failed_rerun_removes_the_directories_it_made(tmp_path, capsys):
    _, manifest, doc = _recorded_free_run(tmp_path)
    doc["params"]["n_particles"] = 0
    manifest.write_text(json.dumps(doc))
    assert cli.main(["rerun", str(manifest), "--out-dir", str(tmp_path / "new" / "dir")]) == 2
    assert not (tmp_path / "new").exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    assert cli.main(["rerun", str(manifest), "--out-dir", str(kept / "sub")]) == 2
    assert kept.is_dir() and not any(kept.iterdir())
    assert "n_particles must be >= 1" in capsys.readouterr().err


def test_unwritable_output_exits_2(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir"
    assert cli.main([
        "free", "--n-particles", "100", "--n-steps", "10",
        "--out", str(missing_dir / "x.csv"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "cannot write output" in err


def test_failed_rename_reports_the_target(tmp_path, monkeypatch, capsys):
    # an empty path opens its temp file in the working directory, then cannot be renamed to
    monkeypatch.chdir(tmp_path)
    assert cli.main(["free", "--n-particles", "10", "--n-steps", "5", "--out", ""]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "cannot write output" in err and ".tmp" not in err
    assert list(tmp_path.iterdir()) == []


def _fail_json_rows(monkeypatch):
    # the table's JSON writes its head, then fails on its first chunk of rows
    dumps = json.dumps

    def dumps_then_fail(obj, **kwargs):
        if isinstance(obj, list):
            raise OSError(28, "No space left on device")
        return dumps(obj, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", dumps_then_fail)


def test_failed_json_write_exits_2_and_leaves_no_file(tmp_path, monkeypatch, capsys):
    _fail_json_rows(monkeypatch)
    assert cli.main([
        "free", "--n-particles", "100", "--n-steps", "10",
        "--out", str(tmp_path / "run.csv"), "--json", str(tmp_path / "run.json"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "cannot write output" in err
    assert list(tmp_path.iterdir()) == []


def test_failed_run_leaves_none_of_its_outputs(tmp_path, capsys):
    # the diagnostics table is complete before the CSV target fails
    assert cli.main([
        "interfere", "--scenario", "two-slit", "--delta", "2", "--mode", "training",
        "--n-particles", "50", "--n-steps", "20", "--diagnostics", str(tmp_path / "d.csv"),
        "--json", str(tmp_path / "t.json"), "--out", str(tmp_path / "missing" / "t.csv"),
    ]) == 2
    assert "cannot write output" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("failure", ["unwritable-manifest", "json-fails-mid-file"])
def test_failed_run_keeps_earlier_run_files(tmp_path, monkeypatch, capsys, failure):
    out, js, manifest = tmp_path / "run.csv", tmp_path / "run.json", tmp_path / "run.manifest.json"
    argv = ["free", "--n-particles", "500", "--n-steps", "20", "--out", str(out), "--json", str(js)]
    assert cli.main(argv + ["--seed", "1", "--manifest", str(manifest)]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    if failure == "unwritable-manifest":
        manifest = tmp_path / "missing" / "run.manifest.json"
    else:
        _fail_json_rows(monkeypatch)
    assert cli.main(argv + ["--seed", "2", "--manifest", str(manifest)]) == 2
    assert "cannot write output" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_two_options_naming_one_path_keep_the_later_file(tmp_path):
    # outputs go down in the order diagnostics, CSV, JSON, manifest
    same = str(tmp_path / "same.out")
    assert cli.main([
        "free", "--n-particles", "100", "--n-steps", "10", "--out", same, "--json", same,
    ]) == 0
    assert json.loads((tmp_path / "same.out").read_text())["columns"][0] == "xi"
    assert list(tmp_path.iterdir()) == [tmp_path / "same.out"]


def _peak_writing_table(rows: int) -> int:
    """Peak traced bytes of writing a ``rows``-row table's CSV and JSON, its columns built untraced."""
    names, columns = ["frequency"], [np.linspace(0.0, 1.0, rows)]
    with open(os.devnull, "w", newline="") as fh:
        tracemalloc.start()
        try:
            stats.write_csv(fh, names, columns)
            cli._dump_table(fh, names, columns, {"n_particles": rows})
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_table_output_memory_is_flat_in_the_row_count():
    # both writers hold one chunk of rows as Python objects, so a 2e5-row
    # table peaks within 0.5 MB of a 1e4-row one; one float column, the
    # formatted one, keeps the traced writes short
    _peak_writing_table(100)  # the first write in a process also allocates one-off state
    assert abs(_peak_writing_table(200_000) - _peak_writing_table(10_000)) <= 2**19


@pytest.mark.parametrize("argv", [
    ["--scenario", "two-slit", "--mode", "trained", "--n-particles", "100", "--n-steps", "10"],
    ["--scenario", "ring", "--ell", "10", "--p", "0.3", "--n-steps", "1000"],
    ["--scenario", "box", "--ell", "5", "--p", "0.3", "--n-steps", "1000"],
], ids=["trained", "ring", "box"])
def test_diagnostics_outside_training_mode_is_noted(tmp_path, capsys, argv):
    diag = tmp_path / "dd.csv"
    assert cli.main([
        "interfere", *argv, "--diagnostics", str(diag), "--out", str(tmp_path / "t.csv"),
    ]) == 0
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "training mode only" in captured.err
    assert captured.out.count("\n") == 1
    assert not diag.exists()


@pytest.mark.parametrize("argv, keys", [
    (
        ["free", "--n-particles", "100", "--n-steps", "10"],
        ["n_particles", "n_steps", "p", "xi0", "seed", "shards", "threads", "out", "json_out",
         "manifest"],
    ),
    (
        ["interfere", "--scenario", "two-slit", "--n-particles", "100", "--n-steps", "10"],
        ["scenario", "delta", "p1", "sources", "ell", "p", "mode", "n_particles", "n_steps",
         "seed", "shards", "threads", "out", "json_out", "manifest", "diagnostics"],
    ),
], ids=["free", "interfere"])
def test_manifest_params_keys_and_order_are_pinned(tmp_path, argv, keys):
    # a manifest's "params" is a file format that rerun reads; recorded at version 0.2.0
    manifest = tmp_path / "run.manifest.json"
    assert cli.main(argv + ["--out", str(tmp_path / "run.csv"), "--manifest", str(manifest)]) == 0
    assert list(json.loads(manifest.read_text())["params"]) == keys


@pytest.mark.parametrize("argv, csv_sha, json_sha", [
    (
        ["free", "--n-particles", "3000", "--n-steps", "40", "--seed", "17", "--shards", "2"],
        "709a477cd3a3b3155e33095487ffead859baf6e90e45ecdfcd263c281eb15fd6",
        "418a95ca5a5253df38a9c2aebef72c88209170c0217575327a8d2ed2896aba2f",
    ),
    (
        ["interfere", "--scenario", "ring", "--ell", "10", "--p", "0.37",
         "--n-steps", "20000", "--seed", "5"],
        "5d11485f2b548bffe2ec00f8db9a615bcdb6dbf8deee0098f331d9a442e88886",
        "f10ede6e3193338748314d7994d37e204c871455e74a76ac65e46ad07f294c66",
    ),
    (
        ["interfere", "--scenario", "box", "--ell", "5", "--p", "0.37",
         "--n-steps", "20000", "--seed", "5"],
        "5d11485f2b548bffe2ec00f8db9a615bcdb6dbf8deee0098f331d9a442e88886",
        "c5a375dfae36b6df5e054f846726a79f4ac5d14e18204d992c6b17ae91b0e8cd",
    ),
    (
        ["interfere", "--scenario", "two-slit", "--delta", "4", "--p1", "0.3",
         "--n-particles", "3000", "--n-steps", "60", "--shards", "2", "--seed", "9"],
        "1acb6eb9c4152186404ed1be6e9cfbda78a91ab20bd9f3cb98707c1752a1e3a9",
        "a1fd517abb3a7c20afa1a02fd434e22b1071134b2da8e57fea21fe5f8943bb86",
    ),
], ids=["free-uniform", "ring", "box", "trained-two-slit"])
def test_output_file_bytes_are_pinned(tmp_path, argv, csv_sha, json_sha):
    # recorded at version 0.2.0; the free, ring and box columns are integer
    # counts or IEEE divisions of counts, so no libm value enters them; the
    # trained two-slit model_P and qm_oracle columns are numpy cosines, whose
    # last bits may differ on another numpy build or CPU
    out, js = tmp_path / "run.csv", tmp_path / "run.json"
    assert cli.main(argv + ["--out", str(out), "--json", str(js)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256(js.read_bytes()).hexdigest() == json_sha


def test_out_to_devnull_writes_in_place(tmp_path):
    # a device target is written through, never renamed over
    assert cli.main([
        "free", "--n-particles", "100", "--n-steps", "10",
        "--out", os.devnull, "--json", str(tmp_path / "run.json"),
    ]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert json.loads((tmp_path / "run.json").read_text())["summary"]


def test_rerun_warns_on_version_mismatch(tmp_path, capsys):
    out, manifest, doc = _recorded_free_run(tmp_path)
    capsys.readouterr()
    assert cli.main(["rerun", str(manifest), "--out-dir", str(tmp_path / "same")]) == 0
    assert capsys.readouterr().err == ""

    doc["version"] = "0.1.0"
    manifest.write_text(json.dumps(doc))
    assert cli.main(["rerun", str(manifest), "--out-dir", str(tmp_path / "old")]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1 and captured.out.startswith("free:")
    assert captured.err.count("\n") == 1
    assert "0.1.0" in captured.err and latticemc.__version__ in captured.err
    assert (tmp_path / "old" / "run.csv").read_bytes() == out.read_bytes()


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency; the command line must not import it
    src = os.path.dirname(os.path.dirname(latticemc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, latticemc.cli; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert proc.returncode == 0


def _run_child(code, **env_overrides):
    """Run ``code`` in a fresh interpreter on this source tree without OPENBLAS_NUM_THREADS."""
    src = os.path.dirname(os.path.dirname(latticemc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(env_overrides)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_sets_one_blas_thread_before_numpy_loads():
    # the package loads no numpy, so the CLI's thread default is in place
    # before numpy starts OpenBLAS; an eager import in __init__ would bring
    # back one spinning BLAS worker per core
    _run_child(
        "import os, sys\n"
        "before = dict(os.environ)\n"
        "import latticemc\n"
        "assert 'numpy' not in sys.modules\n"
        "assert dict(os.environ) == before\n"
        "import latticemc.cli\n"
        "assert os.environ['OPENBLAS_NUM_THREADS'] == '1'\n"
        "if os.path.isdir('/proc/self/task'):\n"
        "    assert len(os.listdir('/proc/self/task')) == 1, os.listdir('/proc/self/task')\n"
    )
    # the library sets nothing: a user who imports it keeps their BLAS threads
    _run_child(
        "import os\n"
        "before = dict(os.environ)\n"
        "from latticemc import analytic, lattice, qforce, qm_oracle\n"
        "from latticemc import scenarios, stats, verify, walker\n"
        "assert dict(os.environ) == before\n"
    )
    # the caller's own setting wins
    _run_child(
        "import os, latticemc.cli\n"
        "assert os.environ['OPENBLAS_NUM_THREADS'] == '2'\n",
        OPENBLAS_NUM_THREADS="2",
    )


_ENGINES = {f"latticemc.{name}" for name in ("walker", "qforce", "qm_oracle", "verify", "analytic")}


@pytest.mark.parametrize("argv, loaded, unloaded", [
    ([], set(), _ENGINES | {"concurrent.futures"}),
    (["free", "--n-particles", "100", "--n-steps", "10"],
     {"latticemc.walker", "latticemc.analytic"},
     {"latticemc.qforce", "latticemc.qm_oracle", "latticemc.verify", "concurrent.futures"}),
    (["interfere", "--scenario", "ring", "--ell", "10", "--p", "0.3", "--n-steps", "1000"],
     {"latticemc.qforce"},
     {"latticemc.analytic", "latticemc.qm_oracle", "latticemc.verify"}),
    (["interfere", "--scenario", "two-slit", "--n-particles", "100", "--n-steps", "10",
      "--threads", "2", "--shards", "2"],
     {"latticemc.qforce", "latticemc.qm_oracle"},
     {"latticemc.verify", "concurrent.futures"}),
], ids=["import", "free", "ring", "trained-pool"])
def test_each_command_imports_only_the_engines_it_runs(tmp_path, argv, loaded, unloaded):
    # a fresh process compiles every module it imports, so importing the
    # CLI loads no engine and a run loads only its own; a run of more than
    # one worker starts plain threads, so no run loads concurrent.futures
    out = ["--out", str(tmp_path / "run.csv")]
    run = f"assert latticemc.cli.main({argv + out!r}) == 0\n" if argv else ""
    stdout = _run_child(
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}  # two usable CPUs, so two threads make a pool\n"
        "import latticemc.cli\n"
        + run
        + "print(' '.join(sorted(sys.modules)))\n"
    )
    modules = set(stdout.splitlines()[-1].split())
    assert loaded <= modules
    assert not unloaded & modules, unloaded & modules


def test_lazy_package_names_resolve():
    import latticemc.analytic
    import latticemc.scenarios

    assert latticemc.pmf_free is latticemc.analytic.pmf_free
    assert latticemc.multi_slit_density is latticemc.scenarios.multi_slit_density
    for name in latticemc.__all__:
        assert getattr(latticemc, name) is not None
    assert not hasattr(latticemc, "nope")
    with pytest.raises(AttributeError, match="nope"):
        latticemc.nope
    with pytest.raises(ImportError, match="nope"):
        from latticemc import nope
