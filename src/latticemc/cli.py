"""Command-line interface.

Subcommands:

* ``free``       free-walk ensemble, CSV histogram with a model column
* ``interfere``  slit / ring / box scenarios with memory-mediated force
* ``verify``     closed-form self checks, nonzero exit on failure
* ``rerun``      repeat a run recorded in a manifest, bit for bit

Exit codes: 0 success, 1 usage error, 2 configuration error,
3 verification failure.  Options may come from ``--config FILE`` (flat
``key = value`` lines); explicit flags win over the file.

The run commands, ``free`` and ``interfere``, are declared once, in
``_RUN_COMMANDS`` (help, option table, executor): the parser, ``main``
and ``rerun`` all read it.  Each run ends in one ``_write_outputs`` call.

Importing this module loads numpy and the parser's own needs (``lattice``,
``stats``, ``scenarios``) and no engine: each command imports the engines
it runs when it runs, ``walker`` and ``analytic`` for ``free``, ``qforce``
(and ``qm_oracle`` for slits) for ``interfere``, and ``verify`` for
``verify``.  So a run neither compiles nor loads another command's code.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from datetime import datetime, timezone
from typing import NamedTuple

# before numpy loads OpenBLAS: the CLI calls no BLAS, so it needs no spinning worker pool
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .lattice import light_cone
from .stats import _row_chunks, write_csv, write_files
from .scenarios import (
    KINDS,
    SLIT_KINDS,
    ScenarioConfig,
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
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.split("\n"), start=1):  # text mode read \r\n as \n
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _convert(key: str, raw, kind, text: bool):
    """Parse a config-file string (``text``), or type-check a flag or manifest value."""
    if text and isinstance(raw, str):
        try:
            return kind(raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key}: cannot parse {raw!r} as {kind.__name__}") from exc
    allowed = (int, float) if kind is float else kind
    if isinstance(raw, bool) or not isinstance(raw, allowed):
        raise ConfigError(f"config key {key}: expected {kind.__name__}, got {raw!r}")
    return kind(raw)


_REQUIRED = object()


class _Option(NamedTuple):
    """One run option: its flag's type and help, its default, and its allowed values."""

    kind: type
    default: object = None
    help: str | None = None
    choices: tuple[str, ...] | None = None
    floor: int | None = None


def _apply_schema(values: dict, schema: dict, origin: str) -> dict:
    """Check and convert option values against ``schema``; absent keys take defaults.

    Strings are parsed only when ``origin`` is "config" (a config file's
    text); flag and manifest values must already have the option's type.
    Choices and floors are checked once every value is converted.
    """
    unknown = set(values) - set(schema)
    if unknown:
        raise ConfigError(f"unknown {origin} keys: {', '.join(sorted(unknown))}")
    out = {}
    for key, opt in schema.items():
        if values.get(key) is not None:
            out[key] = _convert(key, values[key], opt.kind, origin == "config")
        elif opt.default is _REQUIRED:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
        else:
            out[key] = opt.default
    for key, opt in schema.items():
        value = out[key]
        if opt.choices and value not in opt.choices:
            raise ConfigError(f"{key} must be one of {', '.join(opt.choices)}, got {value!r}")
        if opt.floor is not None and value is not None and value < opt.floor:
            raise ConfigError(f"{key} must be >= {opt.floor}, got {value}")
    return out


def _resolve(ns: argparse.Namespace, schema: dict) -> dict:
    """Merge CLI values, config-file values, and defaults into one dict."""
    values = _load_config(ns.config) if ns.config else {}
    for key in schema:
        if getattr(ns, key) is not None:
            values[key] = getattr(ns, key)
    return _apply_schema(values, schema, "config")


# ---------------------------------------------------------------------------
# outputs


def _write_outputs(params: dict, command: str, names, columns, summary: dict, line: str,
                   diagnostics=None) -> None:
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
        targets.append((params["json_out"], lambda fh: _dump_table(fh, names, columns, summary)))
    if params["manifest"]:
        manifest = {
            "tool": "latticemc",
            "version": __version__,
            "created": datetime.now(timezone.utc).isoformat(),
            "command": command,
            "params": params,
            "outputs": {"csv": params["out"], "json": params["json_out"]},
        }
        text = json.dumps(manifest, indent=1) + "\n"
        targets.append((params["manifest"], lambda fh: fh.write(text)))
    write_files(targets)
    print(line)


def _dump_table(fh, names, columns, summary: dict) -> None:
    """Write {"columns": names, "rows": the table's rows, "summary": summary} as
    ``json.dump(..., indent=1)`` and a newline would, in chunks.

    The C encoder writes each chunk of rows with ``indent=1``'s item
    separator at depth 2; no number holds ``]`` or ``[``, so one replace
    at the joints between rows gives that layout byte for byte.  The
    document's head and tail come from the same dump with no rows.
    """
    head, no_rows, tail = json.dumps(
        {"columns": names, "rows": [], "summary": summary}, indent=1
    ).partition('"rows": []')
    fh.write(head)
    first = sep = '"rows": [\n  [\n   '
    between = "\n  ],\n  [\n   "  # one row's end and the next one's start
    for chunk in _row_chunks([np.asarray(col) for col in columns]):
        fh.write(sep)
        # inside the chunk's outer "[[" and "]]"; one expression, so at most two copies live at once
        fh.write(json.dumps(list(zip(*chunk)), separators=(",\n   ", ": "))
                 .replace("],\n   [", between)[2:-2])
        sep = between
    fh.write(no_rows if sep is first else "\n  ]\n ]")
    fh.write(tail + "\n")


# Each table's key order is the order of a manifest's "params", a file format.
_RUN_OPTIONS = {
    "seed": _Option(int, 0, floor=0),
    "shards": _Option(int, 1, floor=1),
    "threads": _Option(int, 1, floor=1),
    "out": _Option(str, _REQUIRED, "output CSV path"),
    "json_out": _Option(str, help="mirror the table as JSON"),
    "manifest": _Option(str, help="write a rerunnable manifest JSON"),
}


# ---------------------------------------------------------------------------
# free


_FREE_OPTIONS = {
    "n_particles": _Option(int, 50000, floor=1),
    "n_steps": _Option(int, 300, floor=1),
    "p": _Option(float, help="fixed propensity; omit for uniform ensemble"),
    "xi0": _Option(int, 0, "emission site (default 0)"),
    **_RUN_OPTIONS,
}


def _execute_free(params: dict) -> None:
    from . import analytic, walker

    p = params["p"]
    if p is not None and not -1.0 <= p <= 1.0:
        raise ConfigError(f"propensity must lie in [-1, 1], got {p}")
    tau = params["n_steps"]
    xi0 = params["xi0"]
    try:
        light_cone(xi0, xi0, tau)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    hist = walker.run_ensemble_free(
        params["n_particles"], tau, p=p, xi0=xi0, seed=params["seed"],
        shards=params["shards"], threads=params["threads"],
    )
    support = hist.support
    if p is None:
        model = analytic.ensemble_probability(support - xi0, tau)
    else:
        model = analytic.pmf_free(support - xi0, tau, p)
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
    _write_outputs(
        params, "free", ["xi", "count", "frequency", "model_P"],
        [support, hist.counts, freq, model], summary, line,
    )


# ---------------------------------------------------------------------------
# interfere


_INTERFERE_OPTIONS = {
    "scenario": _Option(str, _REQUIRED, choices=KINDS),
    "delta": _Option(int, 2, "two-slit source separation (even)"),
    "p1": _Option(float, 0.5, "two-slit first-source weight"),
    "sources": _Option(str, help="multi-slit sources, site:weight,..."),
    "ell": _Option(int, help="ring circumference / box width"),
    "p": _Option(float, help="ring/box preparation propensity"),
    "mode": _Option(str, "trained", choices=("trained", "training")),
    "n_particles": _Option(int, floor=1),
    "n_steps": _Option(int, floor=1),
    **_RUN_OPTIONS,
    "diagnostics": _Option(str, help="training mode: per-emission CSV"),
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


def _build_scenario(params: dict) -> tuple[ScenarioConfig, tuple[str, ...]]:
    """The run's config, and the geometry options it was built from."""
    kind = params["scenario"]
    slit = kind in SLIT_KINDS
    if kind == "multi-slit" and not params["sources"]:
        raise ConfigError("multi-slit needs --sources site:weight,...")
    if not slit and (params["ell"] is None or params["p"] is None):
        raise ConfigError(f"{kind} needs --ell and --p")
    read = ("ell", "p") if not slit else ("sources",) if params["sources"] else ("delta", "p1")
    n_particles = params["n_particles"] if params["n_particles"] is not None else 50000
    n_steps = params["n_steps"] if params["n_steps"] is not None else (300 if slit else 40000)
    try:
        if read == ("delta", "p1"):
            config = two_slit_config(
                params["delta"], params["p1"], n_particles, n_steps, params["seed"]
            )
        else:
            config = ScenarioConfig(
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
    return config, read


def _execute_interfere(params: dict) -> None:
    from . import qforce

    config, read = _build_scenario(params)
    kind = config.kind
    slit = kind in SLIT_KINDS
    training = slit and params["mode"] == "training"
    parallel = params["threads"] > 1 or params["shards"] > 1
    # a value given to a geometry option the config was not built from goes unused
    unread = [
        "--" + key for key in ("delta", "p1", "sources", "ell", "p")
        if key not in read and params[key] not in (None, _INTERFERE_OPTIONS[key].default)
    ]
    flags = ", ".join(unread[:-1]) + " and " + unread[-1] if len(unread) > 1 else "".join(unread)
    for shown, notice in [
        (unread, f"this {kind} run does not read {flags}; ignored"),
        (params["diagnostics"] and not training,
         "--diagnostics applies to training mode only; ignored"),
        (not slit and parallel, f"a {kind} run is one sequential walk; using one thread"),
        (not slit and ((params["n_particles"] or 1) > 1 or params["mode"] == "training"),
         f"a {kind} run follows one walker in converged memory; "
         "--n-particles and --mode are ignored"),
        (training and parallel, "training mode is sequential; using one thread"),
    ]:
        if shown:
            print("interfere: " + notice, file=sys.stderr)

    diagnostics = None
    if not slit:
        mean_p_bar, centers, counts = qforce.run_ring(config)
        names, columns = ["pbar", "count", "frequency"], [centers, counts, counts / counts.sum()]
        summary = {
            "scenario": kind,
            "ell": config.ell,
            "p": config.p,
            "n_steps": config.n_steps,
            "mean_p_bar": mean_p_bar,
            "quantized_target": ring_steady_momentum(config.p, config.period),
        }
        detail = "ell={ell} p={p} mean_p_bar={mean_p_bar:.4f} target={quantized_target:.4f}"
    else:
        if training:
            run = qforce.run_training_slits(config)
            hist = run.positions
            if params["diagnostics"]:
                diagnostics = (["emission", *run.emissions],
                               [np.arange(config.n_particles), *run.emissions.values()])
        else:
            hist = qforce.run_trained_slits(config, shards=params["shards"],
                                            threads=params["threads"])
        from . import qm_oracle

        support = hist.support
        model = multi_slit_density(support, config.n_steps, config.sources)
        freq = hist.frequency()
        names = ["xi", "count", "frequency", "model_P", "qm_oracle"]
        columns = [support, hist.counts, freq, model,
                   qm_oracle.qm_multi_source(support, config.n_steps, config.sources)]
        summary = {
            "scenario": kind,
            "mode": params["mode"],
            "n_particles": hist.total,
            "n_steps": config.n_steps,
            "l1_to_model": float(np.abs(freq - model).sum()),
        }
        detail = "mode={mode} N={n_particles} tau={n_steps} l1_to_model={l1_to_model:.4f}"
    line = ("interfere: {scenario} " + detail).format(**summary)
    _write_outputs(params, "interfere", names, columns, summary, line, diagnostics)


# name -> (help, option table, executor) of each command whose flags come
# from an option table and whose run a manifest repeats
_RUN_COMMANDS = {
    "free": ("free-walk ensemble histogram", _FREE_OPTIONS, _execute_free),
    "interfere": ("slit, ring, or box interference run", _INTERFERE_OPTIONS, _execute_interfere),
}


# ---------------------------------------------------------------------------
# verify and rerun


def _execute_verify(params: dict) -> int:
    from . import verify

    try:
        checks = verify.run_all(params["suite"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    failed = sum(1 for c in checks if not c.passed)
    for check in checks:
        print(check.row())
    print(f"verify: {len(checks) - failed}/{len(checks)} checks passed")
    return failed


def _execute_rerun(manifest_path: str, out_dir: str | None) -> None:
    try:
        with open(manifest_path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise ConfigError(f"cannot read manifest {manifest_path}: {exc}") from exc
    command = doc.get("command") if isinstance(doc, dict) else None
    if not (isinstance(command, str) and command in _RUN_COMMANDS  # a list is not hashable
            and isinstance(doc.get("params"), dict)):
        raise ConfigError("manifest does not describe a rerunnable command")
    _, schema, execute = _RUN_COMMANDS[command]
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
        execute(params)
    except BaseException:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise


# ---------------------------------------------------------------------------
# parser wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="latticemc", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"latticemc {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    for name, (help_text, options, _) in _RUN_COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", help="flat key = value option file")
        for key, opt in options.items():
            flag = "--json" if key == "json_out" else "--" + key.replace("_", "-")
            sub.add_argument(flag, dest=key, type=opt.kind, choices=opt.choices, help=opt.help)

    ver = subs.add_parser("verify", help="closed-form checks")
    ver.add_argument("--suite", action="append", help="suite name (repeatable; default all)")

    rerun = subs.add_parser("rerun", help="repeat a manifest run")
    rerun.add_argument("manifest", help="manifest JSON from a previous run")
    rerun.add_argument("--out-dir", dest="out_dir", help="redirect outputs into this directory")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.command == "verify":
            return EXIT_VERIFY if _execute_verify({"suite": ns.suite}) else EXIT_OK
        if ns.command == "rerun":
            _execute_rerun(ns.manifest, ns.out_dir)
        else:
            _, options, execute = _RUN_COMMANDS[ns.command]
            execute(_resolve(ns, options))
        return EXIT_OK
    except (ConfigError, MemoryError) as exc:  # MemoryError: a cone too large to allocate
        print(f"latticemc: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # config and manifest reads raise ConfigError; this is an output write
        print(f"latticemc: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
