"""Print every end-to-end and per-layer metric of every workload, with units
and every run's check verdicts.

    python3 perfbench/report.py [--seeds 1,2,3] [--seconds 30] [--workload NAME ...] [--out FILE]

Each workload runs through ``run.py`` untraced once per seed, then traced
once with the first seed.  With several seeds an end-to-end metric is
printed as the median over seeds and its spread, the distance between
the quartiles as a share of the median.  ``--out`` also writes every
value, each workload's argv and "why", and the machine (Python, numpy
and scipy versions, core count, CPU model, git commit) to a JSON file;
``perfbench/baseline.json`` was written this way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END_UNITS, PER_LAYER_UNITS, ROOT  # noqa: E402
from workloads import WORKLOADS, program_seed  # noqa: E402


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = models[0] if models else None
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
    }


def bench(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{name} --trace {trace} failed:\n{proc.stderr}")
    verdicts = [line for line in proc.stderr.splitlines()
                if ": PASS: " in line or ": FAIL: " in line]
    return json.loads(lines[-1]), verdicts


def spread(values: list[float]) -> float | None:
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1", help="comma-separated benchmark seeds")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--out", help="also write the report as JSON")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    env = environment()
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    report = {"environment": env, "seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for name in args.workload or list(WORKLOADS):
        workload = WORKLOADS[name]
        entry = {"why": workload.why, "argv": workload.argv(program_seed(seeds[0], 0), Path("OUT"))}
        print(f"\n== {name}: {workload.why}")
        print("   latticemc " + " ".join(entry["argv"]))
        for kind, units, trace, kind_seeds in (("end_to_end", END_TO_END_UNITS, 0, seeds),
                                               ("per_layer", PER_LAYER_UNITS, 1, seeds[:1])):
            values = {metric: [] for metric in units}
            attempted = failed = 0
            for seed in kind_seeds:
                result, verdicts = bench(name, seed, args.seconds, trace)
                attempted += result["attempted"]
                failed += result["failed"]
                for metric in units:
                    if metric in result["metrics"]:
                        values[metric].append(result["metrics"][metric]["value"])
                for line in verdicts:
                    print(f"   seed {seed} {line}")
            entry[kind] = values
            entry[f"{kind}_fail_ratio"] = failed / attempted
            print(f"-- {kind}: attempted={attempted} failed={failed} "
                  f"fail_ratio={entry[f'{kind}_fail_ratio']:.3g}")
            for metric, unit in units.items():
                vals = values[metric]
                text = format(statistics.median(vals), ".6g") if vals else "missing"
                share = spread(vals)
                print(f"   {metric:40s} {text:>14s} {unit:6s}"
                      + ("" if share is None else f" spread {share:.3f} over {len(vals)} seeds"))
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
