"""Every narrative script in demos/ runs to completion against the package."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latticemc

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# SHA-256 of each demo's stdout; every demo is seeded, so its text never moves
DEMO_STDOUT_SHA256 = {
    "boson_decay_laws": "d29211e19dc50ca337c6cb0e5c0c76a6a55955d82fc3fa43b746471b85fbd281",
    "free_motion": "3f2561d4c20b5d6cdf3a3a7af6e278280675b3c1cede9ebd57bb20029e6c5b45",
    "relativity_and_waves": "56686aa758f2428e0811af7abb88bad450f4357e7b3370f5698b05d1fec5e765",
    "ring_quantization": "ca3fc2f728dced40ddbe41f1c8573287c6e93eaad7d279027b31293dccb549dc",
    "sources_and_visibility": "ed14316458773be653ef5218e1d132fc43c5fb89e33fcfb8deacb7f12fffff31",
    "two_slit": "cc311943e611d7807b4a97c27de008d881e447732896aa6eb176d394495ecb58",
}


def test_demos_are_found():
    assert DEMOS, "no scripts under demos/"


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(script):
    src = os.path.dirname(os.path.dirname(latticemc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEMO_STDOUT_SHA256[script.stem]
