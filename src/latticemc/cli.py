"""Command-line interface.

Subcommands:

* ``free``       free-walk ensemble, CSV histogram with a model column
* ``interfere``  slit / ring / box scenarios with memory-mediated force
* ``verify``     closed-form self checks, nonzero exit on failure
* ``rerun``      repeat a run recorded in a manifest, bit for bit

Exit codes: 0 success, 1 usage error, 2 configuration error,
3 verification failure.  Options may come from ``--config FILE`` (flat
``key = value`` lines); explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, analytic, qforce, verify
from .stats import Histogram, table_rows, write_csv, write_files
from .walker import run_ensemble_free
from .scenarios import (
    KINDS,
    ScenarioConfig,
    box_steady_momentum,
    multi_slit_density,
    ring_steady_momentum,
    two_slit_config,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_VERIFY = 3


class ConfigError(Exception):
    """Bad option value or option file; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we reserve that
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# option handling


def _load_config(path: str) -> dict[str, str]:
    """Read flat ``key = value`` lines; '#' starts a comment."""
    values: dict[str, str] = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _convert(key: str, raw, kind):
    """Parse a config-file string, or type-check a value from a flag or manifest."""
    if isinstance(raw, str):
        try:
            return kind(raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key}: cannot parse {raw!r} as {kind.__name__}") from exc
    allowed = (int, float) if kind is float else kind
    if isinstance(raw, bool) or not isinstance(raw, allowed):
        raise ConfigError(f"config key {key}: expected {kind.__name__}, got {raw!r}")
    return kind(raw)


_REQUIRED = object()


def _apply_schema(values: dict, schema: dict, origin: str) -> dict:
    """Check and convert option values against ``schema``; absent keys take defaults."""
    unknown = set(values) - set(schema)
    if unknown:
        raise ConfigError(f"unknown {origin} keys: {', '.join(sorted(unknown))}")
    out = {}
    for key, (kind, default) in schema.items():
        if values.get(key) is not None:
            out[key] = _convert(key, values[key], kind)
        elif default is _REQUIRED:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
        else:
            out[key] = default
    return out


def _resolve(ns: argparse.Namespace, schema: dict) -> dict:
    """Merge CLI values, config-file values, and defaults into one dict."""
    values = _load_config(ns.config) if getattr(ns, "config", None) else {}
    for key in schema:
        if getattr(ns, key, None) is not None:
            values[key] = getattr(ns, key)
    return _apply_schema(values, schema, "config")


def _positive(params: dict, *keys: str) -> None:
    for key in keys:
        if params[key] is not None and params[key] < 1:
            raise ConfigError(f"{key} must be >= 1, got {params[key]}")


# ---------------------------------------------------------------------------
# outputs


def _write_outputs(params: dict, command: str, names, columns, summary: dict, line: str,
                   diagnostics=None) -> dict:
    """Write a run's CSV, ``--json`` mirror, ``--manifest`` and diagnostics, then print ``line``.

    ``columns`` are arrays, one per name, a row per index; ``diagnostics``
    is an optional (names, columns) table for ``--diagnostics``.  The
    files are replaced together or not at all (``stats.write_files``).
    """
    targets = []
    if diagnostics is not None:
        targets.append((params["diagnostics"], lambda fh: write_csv(fh, *diagnostics)))
    targets.append((params["out"], lambda fh: write_csv(fh, names, columns)))
    if params["json_out"]:
        def write_json(fh):
            rows = list(table_rows(columns))
            _dump(fh, {"columns": names, "rows": rows, "summary": summary})

        targets.append((params["json_out"], write_json))
    if params["manifest"]:
        manifest = {
            "tool": "latticemc",
            "version": __version__,
            "created": datetime.now(timezone.utc).isoformat(),
            "command": command,
            "params": params,
            "outputs": {"csv": params["out"], "json": params["json_out"]},
        }
        targets.append((params["manifest"], lambda fh: _dump(fh, manifest)))
    write_files(targets)
    print(line)
    return summary


def _dump(fh, doc: dict) -> None:
    json.dump(doc, fh, indent=1)
    fh.write("\n")


# ---------------------------------------------------------------------------
# free


_FREE_SCHEMA = {
    "n_particles": (int, 50000),
    "n_steps": (int, 300),
    "p": (float, None),
    "xi0": (int, 0),
    "seed": (int, 0),
    "shards": (int, 1),
    "threads": (int, 1),
    "out": (str, _REQUIRED),
    "json_out": (str, None),
    "manifest": (str, None),
}


def _execute_free(params: dict) -> dict:
    _positive(params, "n_particles", "n_steps", "shards", "threads")
    p = params["p"]
    if p is not None and not -1.0 <= p <= 1.0:
        raise ConfigError(f"propensity must lie in [-1, 1], got {p}")
    tau = params["n_steps"]
    xi0 = params["xi0"]

    hist = run_ensemble_free(
        params["n_particles"], tau, p=p, xi0=xi0, seed=params["seed"],
        shards=params["shards"], threads=params["threads"],
    )
    hist = hist.merge(Histogram(xi0 - tau, np.zeros(2 * tau + 1)))
    support = hist.support
    if p is None:
        model = analytic.ensemble_probability(support - xi0, tau)
    else:
        model = analytic.pmf_free(support, tau, p, xi0=xi0)
    freq = hist.frequency()
    summary = {
        "n_particles": hist.total,
        "n_steps": tau,
        "mean": float((support * freq).sum()),
        "l1_to_model": float(np.abs(freq - model).sum()),
    }
    line = (
        "free: N={n_particles} tau={n_steps} mean={mean:.4f} "
        "l1_to_model={l1_to_model:.4f}".format(**summary)
    )
    return _write_outputs(
        params, "free", ["xi", "count", "frequency", "model_P"],
        [support, hist.counts, freq, model], summary, line,
    )


# ---------------------------------------------------------------------------
# interfere


_INTERFERE_SCHEMA = {
    "scenario": (str, _REQUIRED),
    "delta": (int, 2),
    "p1": (float, 0.5),
    "sources": (str, None),
    "ell": (int, None),
    "p": (float, None),
    "mode": (str, "trained"),
    "n_particles": (int, None),
    "n_steps": (int, None),
    "seed": (int, 0),
    "shards": (int, 1),
    "threads": (int, 1),
    "out": (str, _REQUIRED),
    "json_out": (str, None),
    "manifest": (str, None),
    "diagnostics": (str, None),
}


def _parse_sources(spec: str) -> list[tuple[int, float]]:
    out = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ConfigError(f"source {part!r} must look like site:weight")
        site, _, weight = part.partition(":")
        try:
            out.append((int(site), float(weight)))
        except ValueError as exc:
            raise ConfigError(f"cannot parse source {part!r}") from exc
    if len(out) < 2:
        raise ConfigError("need at least two sources")
    return out


def _build_scenario(params: dict) -> ScenarioConfig:
    kind = params["scenario"]
    if kind not in KINDS:
        raise ConfigError(f"unknown scenario {kind!r}")
    slit = kind in ("two-slit", "multi-slit")
    if kind == "multi-slit" and not params["sources"]:
        raise ConfigError("multi-slit needs --sources site:weight,...")
    if not slit and (params["ell"] is None or params["p"] is None):
        raise ConfigError(f"{kind} needs --ell and --p")
    n_particles = params["n_particles"] if params["n_particles"] is not None else 50000
    n_steps = params["n_steps"] if params["n_steps"] is not None else (300 if slit else 40000)
    try:
        if kind == "two-slit" and not params["sources"]:
            return two_slit_config(
                params["delta"], params["p1"], n_particles, n_steps, params["seed"]
            )
        return ScenarioConfig(
            kind=kind,
            n_particles=n_particles if slit else 1,  # ring and box follow one walker
            n_steps=n_steps,
            sources=_parse_sources(params["sources"]) if slit else (),
            ell=0 if slit else params["ell"],
            p=None if slit else params["p"],
            seed=params["seed"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _execute_interfere(params: dict) -> dict:
    _positive(params, "shards", "threads")
    if params["mode"] not in ("trained", "training"):
        raise ConfigError(f"mode must be trained or training, got {params['mode']!r}")
    config = _build_scenario(params)
    slit = config.kind in ("two-slit", "multi-slit")
    training = slit and params["mode"] == "training"
    if params["diagnostics"] and not training:
        print("interfere: --diagnostics applies to training mode only; ignored", file=sys.stderr)

    if not slit:
        run = qforce.run_ring(config) if config.kind == "ring" else qforce.run_box(config)
        centers, counts = run.momentum_histogram()
        target = (
            ring_steady_momentum(config.p, config.ell)
            if config.kind == "ring"
            else box_steady_momentum(config.p, config.ell)
        )
        summary = {
            "scenario": config.kind,
            "ell": config.ell,
            "p": config.p,
            "n_steps": config.n_steps,
            "mean_p_bar": run.mean_p_bar,
            "quantized_target": target,
        }
        line = (
            "interfere: {scenario} ell={ell} p={p} mean_p_bar={mean_p_bar:.4f} "
            "target={quantized_target:.4f}".format(**summary)
        )
        return _write_outputs(
            params, "interfere", ["pbar", "count", "frequency"],
            [centers, counts, counts / max(1, counts.sum())], summary, line,
        )

    diagnostics = None
    if not training:
        hist = qforce.run_trained_slits(config, shards=params["shards"], threads=params["threads"])
    else:
        if params["threads"] > 1 or params["shards"] > 1:
            print("interfere: training mode is sequential; using one thread", file=sys.stderr)
        run = qforce.run_training_slits(config)
        hist = run.positions
        if params["diagnostics"]:
            names = ["emission", *run.emissions]
            diagnostics = (names, [np.arange(config.n_particles), *run.emissions.values()])
    sites = [s for s, _ in config.sources]
    lo, hi = min(sites) - config.n_steps, max(sites) + config.n_steps
    hist = hist.merge(Histogram(lo, np.zeros(hi - lo + 1)))
    support = hist.support
    model = multi_slit_density(support, config.n_steps, config.sources)
    from .qm_oracle import qm_multi_source

    oracle = qm_multi_source(support, config.n_steps, config.sources)
    freq = hist.frequency()
    summary = {
        "scenario": config.kind,
        "mode": params["mode"],
        "n_particles": hist.total,
        "n_steps": config.n_steps,
        "l1_to_model": float(np.abs(freq - model).sum()),
    }
    line = (
        "interfere: {scenario} mode={mode} N={n_particles} tau={n_steps} "
        "l1_to_model={l1_to_model:.4f}".format(**summary)
    )
    return _write_outputs(
        params, "interfere", ["xi", "count", "frequency", "model_P", "qm_oracle"],
        [support, hist.counts, freq, model, oracle], summary, line, diagnostics,
    )


# ---------------------------------------------------------------------------
# verify and rerun


def _execute_verify(params: dict) -> int:
    names = params["suite"]
    if names:
        unknown = set(names) - set(verify.suite_names())
        if unknown:
            raise ConfigError(
                f"unknown suite(s) {', '.join(sorted(unknown))}; "
                f"choose from {', '.join(verify.suite_names())}"
            )
    checks = verify.run_all(names)
    failed = sum(1 for c in checks if not c.passed)
    for check in checks:
        print(check.row())
    print(f"verify: {len(checks) - failed}/{len(checks)} checks passed")
    return failed


def _execute_rerun(manifest_path: str, out_dir: str | None) -> dict:
    try:
        with open(manifest_path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read manifest {manifest_path}: {exc}") from exc
    command = doc.get("command") if isinstance(doc, dict) else None
    if command not in ("free", "interfere") or not isinstance(doc.get("params"), dict):
        raise ConfigError("manifest does not describe a rerunnable command")
    schema = _FREE_SCHEMA if command == "free" else _INTERFERE_SCHEMA
    params = _apply_schema(doc["params"], schema, "manifest")
    if doc.get("version") != __version__:
        print(
            f"latticemc: manifest was written by version {doc.get('version')}, "
            f"this is {__version__}; random streams may differ",
            file=sys.stderr,
        )
    made = None  # the outermost directory this rerun creates, removed if the run fails
    if out_dir is not None:
        missing = os.path.abspath(out_dir)
        while not os.path.exists(missing):
            made, missing = missing, os.path.dirname(missing)
        os.makedirs(out_dir, exist_ok=True)
        for key in ("out", "json_out", "manifest", "diagnostics"):
            if params.get(key):
                params[key] = os.path.join(out_dir, os.path.basename(params[key]))
    try:
        return (_execute_free if command == "free" else _execute_interfere)(params)
    except BaseException:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise


# ---------------------------------------------------------------------------
# parser wiring


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value option file")
    sub.add_argument("--n-particles", dest="n_particles", type=int)
    sub.add_argument("--n-steps", dest="n_steps", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--shards", type=int)
    sub.add_argument("--threads", type=int)
    sub.add_argument("--out", help="output CSV path")
    sub.add_argument("--json", dest="json_out", help="mirror the table as JSON")
    sub.add_argument("--manifest", help="write a rerunnable manifest JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="latticemc", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"latticemc {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    free = subs.add_parser("free", help="free-walk ensemble histogram")
    _add_common(free)
    free.add_argument("--p", type=float, help="fixed propensity; omit for uniform ensemble")
    free.add_argument("--xi0", type=int, help="emission site (default 0)")

    inter = subs.add_parser(
        "interfere", help="slit, ring, or box interference run"
    )
    _add_common(inter)
    inter.add_argument("--scenario", choices=KINDS, default=None)
    inter.add_argument("--delta", type=int, help="two-slit source separation (even)")
    inter.add_argument("--p1", type=float, help="two-slit first-source weight")
    inter.add_argument("--sources", help="multi-slit sources, site:weight,...")
    inter.add_argument("--ell", type=int, help="ring circumference / box width")
    inter.add_argument("--p", type=float, help="ring/box preparation propensity")
    inter.add_argument("--mode", choices=["trained", "training"], default=None)
    inter.add_argument("--diagnostics", help="training mode: per-emission CSV")

    ver = subs.add_parser("verify", help="closed-form checks")
    ver.add_argument("--suite", action="append", help="suite name (repeatable; default all)")

    rerun = subs.add_parser("rerun", help="repeat a manifest run")
    rerun.add_argument("manifest", help="manifest JSON from a previous run")
    rerun.add_argument("--out-dir", dest="out_dir", help="redirect outputs into this directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.command == "free":
            _execute_free(_resolve(ns, _FREE_SCHEMA))
            return EXIT_OK
        if ns.command == "interfere":
            _execute_interfere(_resolve(ns, _INTERFERE_SCHEMA))
            return EXIT_OK
        if ns.command == "verify":
            failed = _execute_verify({"suite": ns.suite})
            return EXIT_VERIFY if failed else EXIT_OK
        if ns.command == "rerun":
            _execute_rerun(ns.manifest, ns.out_dir)
            return EXIT_OK
    except ConfigError as exc:
        print(f"latticemc: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # config and manifest reads raise ConfigError; this is an output write
        print(f"latticemc: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
