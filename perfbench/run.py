"""Benchmark of the ``latticemc`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` and nothing is installed.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` repeats, while one more repeat still ends within ``--seconds``,
one child process
``python -m latticemc.cli <workload argv>`` and one child
``python -c "import latticemc.cli"``, one process at a time, and reports
medians of the end-to-end metrics (wall, CPU and peak RSS of the
program's process from ``os.wait4``, import time, particle ticks per
second).

``--trace 1`` calls ``latticemc.cli.main(argv)`` in this process with
every layer boundary of ``spans.LAYERS`` wrapped, plus
``python -X importtime -c "import latticemc.cli"``, and reports medians
of the per-layer metrics.  ``trace.overhead_s`` is the tracer's cost
estimated from its span counts and a wrapper cost calibrated in-process,
not a difference of two noisy wall times.

Every run's exit code, stdout and output files are checked after the
run and outside its timing (see ``workloads.py``).  Outputs go to a
temporary directory under ``.perfbench-tmp/`` that is removed after each
run.  Verdicts and the span table go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench-tmp"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS, Workload, program_seed  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ticks_per_s": "1/s",
}

# per-layer metric -> unit; times come from spans, the rest from counts
PER_LAYER_UNITS = {
    "walker.run_ensemble_free.self_s": "s",
    "walker._simulate_free_shard.s": "s",
    "walker.particle_ticks": "count",
    "qforce.run_trained_slits.self_s": "s",
    "qforce._trained_shard.self_s": "s",
    "qforce._solve_rays.s": "s",
    "qforce.rays_solved": "count",
    "qforce.rays_per_particle": "ratio",
    "qforce.run_training_slits.self_s": "s",
    "qforce._LazySiteBoson.advance.s": "s",
    "qforce.advance_calls": "count",
    "qforce.bosons_created": "count",
    "qforce.overdriven_events": "count",
    "qforce.overdriven_share": "ratio",
    "qforce.live_site_bosons": "count",
    "qforce.run_ring.s": "s",
    "stats.Histogram.from_samples.s": "s",
    "stats.merge.s": "s",
    "stats.write_histogram_csv.s": "s",
    "stats.write_value_histogram_csv.s": "s",
    "stats.csv_rows": "count",
    "stats.csv_bytes": "bytes",
    "cli.main.self_s": "s",
    "cli._write_json.s": "s",
    "cli.json_bytes": "bytes",
    "cli._write_manifest.s": "s",
    "scenarios.multi_slit_density.s": "s",
    "qm_oracle.qm_multi_source.s": "s",
    "analytic.ensemble_probability.s": "s",
    "setup.import.numpy_s": "s",
    "setup.import.scipy_s": "s",
    "setup.import.latticemc_s": "s",
    "trace.overhead_s": "s",
    "trace.focus_share": "ratio",
    "trace.absent_spans": "count",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args: list[str], workdir: Path) -> dict:
    """Run one python child to exit through ``launch.py``; see there for why."""
    out, err = workdir / "stdout", workdir / "stderr"
    launcher = subprocess.run(
        [sys.executable, "-I", "-S", str(HERE / "launch.py"), str(out), str(err),
         sys.executable, *args],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, cwd=ROOT, env=child_env(),
        check=True,
    )
    result = json.loads(launcher.stdout)
    result["stdout"] = out.read_text(errors="replace")
    result["stderr"] = err.read_text(errors="replace")
    return result


def judge_run(workload: Workload, returncode: int, stdout: str, outdir: Path, label: str) -> bool:
    """Exit code, one stdout line, then the workload's output check."""
    lines = stdout.splitlines()
    verdicts = [(returncode == 0, f"exit code {returncode}"),
                (len(lines) == 1, f"{len(lines)} stdout line(s)")]
    if returncode == 0:
        verdicts += [(v.ok, v.detail) for v in workload.check(outdir)]
    ok = all(passed for passed, _ in verdicts)
    log(f"{label}: {'PASS' if ok else 'FAIL'}: " + "; ".join(
        f"{'ok' if passed else 'FAILED'} {detail}" for passed, detail in verdicts))
    return ok


@contextlib.contextmanager
def run_dir():
    TMP.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=TMP))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP.rmdir()


def window(seconds: float):
    """Count samples while one more of median length still ends within
    ``seconds``, so a run does not overshoot its window; at least one."""
    start, durations, index = time.monotonic(), [], 0
    while index == 0 or time.monotonic() - start + statistics.median(durations) <= seconds:
        began = time.monotonic()
        yield index
        durations.append(time.monotonic() - began)
        index += 1


def median_metrics(samples: list[dict], units: dict[str, str]) -> dict:
    return {
        name: {"value": statistics.median(s[name] for s in samples), "unit": unit}
        for name, unit in units.items()
    }


# ---------------------------------------------------------------------------
# end to end


def measure(workload: Workload, seed: int, seconds: float) -> dict:
    with run_dir() as warm:  # compile bytecode once; users do not pay it per run
        spawn(["-c", "import latticemc.cli"], warm)
    samples, attempted, failed = [], 0, 0
    start = time.monotonic()
    for _ in window(seconds):
        with run_dir() as tmp:
            argv = workload.argv(program_seed(seed, attempted), tmp)
            run = spawn(["-m", "latticemc.cli", *argv], tmp)
            setup = spawn(["-c", "import latticemc.cli"], tmp)
            attempted += 1
            ok = setup["returncode"] == 0 and judge_run(
                workload, run["returncode"], run["stdout"], tmp, f"run {attempted}")
        if not ok:
            failed += 1
            log(run["stderr"][-2000:] + setup["stderr"][-2000:])
            continue
        samples.append({
            "wall_s": run["wall_s"],
            "cpu_s": run["cpu_s"],
            "peak_rss_mb": run["peak_rss_mb"],
            "setup_s": setup["wall_s"],
            "ticks_per_s": workload.ticks / run["wall_s"],
        })
    log(f"{len(samples)} timed runs in {time.monotonic() - start:.1f} s")
    return {"attempted": attempted, "failed": failed,
            "metrics": median_metrics(samples, END_TO_END_UNITS) if samples else {}}


# ---------------------------------------------------------------------------
# traced


def import_times(tmp: Path) -> dict[str, float]:
    """numpy and scipy cumulative import time, and latticemc's own module time."""
    run = spawn(["-X", "importtime", "-c", "import latticemc.cli"], tmp)
    if run["returncode"] != 0:
        raise RuntimeError("import latticemc.cli failed:\n" + run["stderr"])
    rows = []
    for line in run["stderr"].splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            own, cumulative = int(parts[0].split(":")[1]), int(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(), own, cumulative))
    # children are printed before their parent; walk backwards to know ancestors
    out = {"numpy": 0.0, "scipy": 0.0, "latticemc": 0.0}
    ancestors: list[tuple[int, str]] = []
    for depth, name, own, cumulative in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        root = name.split(".")[0]
        if root == "latticemc":
            out[root] += own / 1e6
        elif root in out and all(a.split(".")[0] != root for _, a in ancestors):
            out[root] += cumulative / 1e6
        ancestors.append((depth, name))
    return {f"setup.import.{k}_s": v for k, v in out.items()}


def call_main(cli, argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        log(traceback.format_exc())
        code = 1
    return code, buffer.getvalue()


def layer_metrics(workload: Workload, tracer: spans.Tracer) -> dict[str, float]:
    stats = tracer.summary()
    counts = tracer.counts

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    out = {}
    for metric in PER_LAYER_UNITS:
        span, _, kind = metric.rpartition(".")
        if kind in ("s", "self_s"):
            found = stats.get(span)
            out[metric] = (found.self_s if kind == "self_s" else found.total_s) if found else 0.0
        else:
            out[metric] = float(counts.get(metric, 0))
    advance = stats.get("qforce._LazySiteBoson.advance")
    out["qforce.advance_calls"] = float(advance.calls if advance else 0)
    out["qforce.rays_per_particle"] = ratio(
        counts["qforce.rays_solved"], counts["qforce.particles"])
    out["qforce.overdriven_share"] = ratio(
        counts["qforce.overdriven_events"], counts["qforce.bosons_created"])
    focus = sum(s.self_s for name, s in stats.items() if name.startswith(workload.focus))
    out["trace.focus_share"] = ratio(focus, sum(s.self_s for s in stats.values()))
    out["trace.absent_spans"] = float(len(tracer.absent))
    return out


def print_span_table(tracer: spans.Tracer) -> None:
    log(f"{'span':40s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}")
    for name, s in sorted(tracer.summary().items(), key=lambda kv: -kv[1].self_s):
        log(f"{name:40s} {s.calls:8d} {s.total_s:10.4f} {s.self_s:10.4f}")
    for name in tracer.absent:
        log(f"{name:40s} absent")
    for name, n in tracer.hook_errors.items():
        log(f"{name:40s} count hook failed {n} time(s)")


def trace_overhead(tracer: spans.Tracer, costs: dict[bool, float]) -> float:
    """Seconds the tracer added to a run: each layer's calls times the cost of
    one wrapper, with or without a count hook, calibrated in this process."""
    return sum(s.calls * costs[spans.LAYERS.get(name) is not None]
               for name, s in tracer.summary().items())


def trace(workload: Workload, seed: int, seconds: float) -> dict:
    sys.path.insert(0, str(SRC))
    import latticemc.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported latticemc from {cli.__file__}, not from {SRC}")
    costs = {False: spans.span_cost(), True: spans.span_cost(hook=lambda counts, a, r: None)}
    samples, attempted, failed = [], 0, 0
    for _ in window(seconds):
        with run_dir() as tmp:
            argv = workload.argv(program_seed(seed, 0), tmp)
            tracer = spans.Tracer()
            spans.install(tracer)
            try:
                with tracer.span("cli.main"):
                    code, stdout = call_main(cli, argv)
            finally:
                tracer.restore()
            attempted += 1
            ok = judge_run(workload, code, stdout, tmp, f"traced run {attempted}")
            imports = import_times(tmp)
        if not ok:
            failed += 1
            continue
        sample = layer_metrics(workload, tracer)
        sample.update(imports)
        sample["trace.overhead_s"] = trace_overhead(tracer, costs)
        samples.append(sample)
    print_span_table(tracer)
    return {"attempted": attempted, "failed": failed,
            "metrics": median_metrics(samples, PER_LAYER_UNITS) if samples else {}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "latticemc" / "cli.py").is_file():
        log(f"no latticemc sources under {SRC}; run from a source checkout")
        return 2
    workload = WORKLOADS[args.workload]
    run = trace if args.trace else measure
    result = run(workload, args.seed, args.seconds)
    result["correct"] = result["failed"] == 0 and bool(result["metrics"])
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
