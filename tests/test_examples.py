"""Every script in ``examples/`` runs to completion.

Each example runs as a user would start it, in a fresh interpreter with
``src`` importable and a temporary working directory.
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
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
