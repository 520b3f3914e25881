"""Digest of everything a user sees from the ``latticemc`` command line.

    python tests/cli_digest.py SRC [--seed N] > digest.json

runs every case in ``CASES`` against the package under ``SRC`` (the
directory that holds ``latticemc/``) and prints one JSON object: per
case, each command's exit code, the sha256 of its stdout and its stderr
text, then the sha256 of every file the case left behind, with the
manifest's ``created`` line dropped.  Two trees whose digests are equal
behave byte for byte alike on these cases, so a refactor is checked with

    python tests/cli_digest.py OLD/src > old.json
    python tests/cli_digest.py src > new.json
    diff old.json new.json

``--seed N`` appends ``--seed N`` to every ``free`` and ``interfere``
command, so the same cases can be run at fresh seeds.  Each case runs
in its own empty directory, one child process per command, with
``COLUMNS=100`` so that help texts wrap alike.  Output paths are
relative, so manifests do not record the directory.  Pytest does not
collect this module; ``test_cli.py`` runs its first two cases.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

OUTPUTS = ("--out", "out.csv", "--json", "out.json", "--manifest", "manifest.json")
TEN_SOURCES = "--sources=" + ",".join(f"{site}:0.1" for site in range(-15, 13, 3))
RING = ("interfere", "--scenario", "ring", "--ell", "10", "--p", "0.37", "--n-steps", "3000")
TWO_SLIT = ("interfere", "--scenario", "two-slit", "--n-particles", "400", "--n-steps", "30")
TRAINING = (*TWO_SLIT, "--delta", "2", "--mode", "training")


def _rerun(*run):
    return [[*run, *OUTPUTS], ["rerun", "manifest.json", "--out-dir", "redo"]]


def _manifest(command, params) -> str:
    return json.dumps({"command": command, "params": params})


# (name, commands, files written before the first command); a command is
# the argument list after ``latticemc``
CASES = [
    ("help", [["--help"]], {}),
    ("free-tiny", [["free", "--n-particles", "50", "--n-steps", "5", *OUTPUTS]], {}),
    *((f"help-{command}", [[command, "--help"]], {})
      for command in ("free", "interfere", "verify", "rerun")),
    ("version", [["--version"]], {}),
    # each benchmark workload's argv at small sizes
    ("free-long", [["free", "--n-particles", "2000", "--n-steps", "100", *OUTPUTS]], {}),
    ("multislit-trained", [["interfere", "--scenario", "multi-slit", TEN_SOURCES,
                            "--shards", "2", "--threads", "2", "--n-particles", "3000",
                            "--n-steps", "100", *OUTPUTS]], {}),
    ("training-twoslit", [[*TRAINING, "--diagnostics", "diag.csv", *OUTPUTS]], {}),
    ("ring-lock", [[*RING, *OUTPUTS]], {}),
    # other runs
    ("free-p", [["free", "--n-particles", "900", "--n-steps", "40", "--p", "0.3",
                 "--xi0", "-7", "--shards", "3", *OUTPUTS]], {}),
    ("box", [["interfere", "--scenario", "box", "--ell", "5", "--p", "0.37",
              "--n-steps", "3000", *OUTPUTS]], {}),
    ("trained-two-slit", [[*TWO_SLIT, "--delta", "4", "--p1", "0.3", *OUTPUTS]], {}),
    # every stream layout over three shards, each spanning two 8192-particle blocks
    *((f"blocks-{name}", [[*run, "--shards", "3", "--threads", "2", "--n-particles", "30001",
                           "--n-steps", "30", *OUTPUTS]], {})
      for name, run in [("free", ["free"]), ("free-p", ["free", "--p", "0.3"]),
                        ("trained", ["interfere", "--scenario", "two-slit", "--delta", "4"])]),
    ("config-file", [["free", "--config", "run.cfg", "--n-steps", "20", *OUTPUTS]],
     {"run.cfg": "n-particles = 100\nn_steps = 5\nseed = 3  # last value wins\nseed = 4\n"}),
    ("verify", [["verify"]], {}),
    # every combination of interfere's notices
    ("notice-ring-four", [[*RING, "--delta", "8", "--diagnostics", "d.csv", "--threads", "2",
                           "--n-particles", "5", *OUTPUTS]], {}),
    ("notice-box-two", [["interfere", "--scenario", "box", "--ell", "5", "--p", "0.37",
                         "--n-steps", "3000", "--shards", "2", "--mode", "training",
                         *OUTPUTS]], {}),
    ("notice-ring-unread-three", [[*RING, "--delta", "8", "--p1", "0.9",
                                   "--sources=0:0.5,4:0.5", *OUTPUTS]], {}),
    ("notice-trained", [[*TWO_SLIT, "--ell", "7", "--diagnostics", "d.csv", *OUTPUTS]], {}),
    ("notice-training", [[*TRAINING, "--ell", "7", "--shards", "2", *OUTPUTS]], {}),
    ("notice-training-all", [[*TRAINING, "--ell", "7", "--p", "0.2", "--threads", "2",
                              "--diagnostics", "diag.csv", *OUTPUTS]], {}),
    ("notice-multi-slit", [["interfere", "--scenario", "multi-slit", "--sources=-3:0.5,3:0.5",
                            "--delta", "10", "--n-particles", "100", "--n-steps", "20",
                            "--diagnostics", "d.csv", *OUTPUTS]], {}),
    # rerun --out-dir of a free, a training and a ring manifest
    ("rerun-free", _rerun("free", "--n-particles", "300", "--n-steps", "20"), {}),
    ("rerun-training", _rerun(*TRAINING, "--diagnostics", "diag.csv"), {}),
    ("rerun-ring", _rerun(*RING), {}),
    # usage errors, exit 1
    ("usage-no-command", [[]], {}),
    ("usage-unknown-flag", [["free", "--no-such-flag"]], {}),
    ("usage-other-command-flag", [["free", "--scenario", "ring", "--out", "o.csv"]], {}),
    ("usage-bad-choice", [["interfere", "--mode", "annealed", "--out", "o.csv"]], {}),
    ("usage-bad-type", [["free", "--n-steps", "ten", "--out", "o.csv"]], {}),
    # configuration errors, exit 2
    ("config-missing-out", [["free", "--n-particles", "10"]], {}),
    ("config-bad-propensity", [["free", "--p", "2", "--out", "o.csv"]], {}),
    ("config-negative-seed", [["free", "--seed", "-1", "--out", "o.csv"]], {}),
    ("config-file-bad-value", [["free", "--config", "bad.cfg", "--out", "o.csv"]],
     {"bad.cfg": "n_steps = ten\n"}),
    ("config-file-unknown-key", [["interfere", "--config", "bad.cfg", "--out", "o.csv"]],
     {"bad.cfg": "scenario = ring\nxi0 = 3\n"}),
    ("config-file-missing", [["free", "--config", "none.cfg", "--out", "o.csv"]], {}),
    ("config-multi-slit-no-sources", [["interfere", "--scenario", "multi-slit",
                                       "--out", "o.csv"]], {}),
    ("config-ring-no-geometry", [["interfere", "--scenario", "ring", "--out", "o.csv"]], {}),
    ("config-odd-delta", [[*TWO_SLIT, "--delta", "3", "--out", "o.csv"]], {}),
    ("config-unwritable-output", [["free", "--n-particles", "10", "--n-steps", "5",
                                   "--out", "no/such/dir/o.csv"]], {}),
    *((f"config-rerun-{name}", [["rerun", "m.json", "--out-dir", "redo"]], {"m.json": text})
      for name, text in [
          ("missing-file", None),
          ("not-json", "{broken"),
          ("verify", _manifest("verify", {"suite": None})),
          ("rerun", _manifest("rerun", {"manifest": "m.json"})),
          ("list-command", _manifest(["free"], {})),
          ("bad-param", _manifest("free", {"n_particles": 0, "out": "o.csv"})),
      ]),
]

_CREATED = re.compile(rb'^ "created": .*\n', re.MULTILINE)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_case(src_dir: str, commands, files, seed: int | None) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src_dir), COLUMNS="100")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in files.items():
            if text is not None:
                (root / name).write_text(text)
        steps = []
        for argv in commands:
            if seed is not None and argv[:1] in (["free"], ["interfere"]):
                argv = [*argv, "--seed", str(seed)]
            proc = subprocess.run([sys.executable, "-m", "latticemc.cli", *argv], cwd=root,
                                  env=env, capture_output=True, timeout=600)
            steps.append({"exit": proc.returncode, "stdout": _sha(proc.stdout),
                          "stderr": proc.stderr.decode(errors="replace")})
        outputs = {}
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            name = path.relative_to(root).as_posix()
            if name not in files:
                data = path.read_bytes()
                outputs[name] = _sha(_CREATED.sub(b"", data) if name.endswith("manifest.json")
                                     else data)
    return {"steps": steps, "outputs": outputs}


def digest(src_dir, cases=CASES, seed: int | None = None) -> dict:
    """Case name -> {"steps": [exit, stdout sha, stderr] per command, "outputs": {file: sha}}."""
    return {name: _run_case(src_dir, commands, files, seed) for name, commands, files in cases}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="directory that holds the latticemc package")
    parser.add_argument("--seed", type=int, help="append --seed N to every run command")
    args = parser.parse_args(argv)
    json.dump(digest(args.src, seed=args.seed), sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
