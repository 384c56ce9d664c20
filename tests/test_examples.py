"""Every script in ``examples/`` runs to completion without scipy.

Each example runs as a user would start it, in a fresh interpreter with
``src`` importable and a temporary working directory.  ``-X importtime``
lists every module the run imported, so a scipy import anywhere on an
example's path fails the test: numpy is the only runtime dependency.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_DIR = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO_DIR / "examples").glob("*.py"))


def test_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_exits_zero(script, tmp_path):
    path = [str(REPO_DIR / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-X", "importtime", str(script)],
                          cwd=tmp_path, capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    # -X importtime writes "import time: self | cumulative | module".
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in done.stderr.splitlines()
                if line.startswith("import time:")]
    assert "repro" in imported
    assert [name for name in imported
            if name == "scipy" or name.startswith("scipy.")] == []
