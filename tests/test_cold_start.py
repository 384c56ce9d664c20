"""The cold-start contract: numpy is the only runtime dependency.

``import repro`` loads no scipy, and neither does any CLI subcommand:
scipy is a test-only oracle.  BER calls never load it either:
:mod:`repro.phy.ber` runs its own port of the Cephes kernel behind
``scipy.special.erfc`` and returns its bits.  Each check
runs in a fresh interpreter, because this test process may already hold
scipy.
"""

from __future__ import annotations

import dis
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any

import pytest

from repro.phy import ber

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def _fresh_python(*args: str) -> subprocess.CompletedProcess[str]:
    """Run ``python *args`` in a new interpreter with ``src`` importable."""
    path = [str(SRC_DIR), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    return done


def _fresh_json(code: str) -> Any:
    """Run ``code`` in a new interpreter; its last stdout line is JSON."""
    return json.loads(_fresh_python("-c", code).stdout.splitlines()[-1])


def _scipy_modules(names: list[str]) -> list[str]:
    return [n for n in names if n == "scipy" or n.startswith("scipy.")]


def test_import_repro_loads_no_scipy():
    loaded = _fresh_json("import json, sys\n"
                         "import repro\n"
                         "print(json.dumps(sorted(sys.modules)))")
    assert _scipy_modules(loaded) == []


def test_cli_list_loads_no_scipy():
    done = _fresh_python("-X", "importtime", "-m", "repro", "list")
    assert "fig11" in done.stdout
    # -X importtime writes "import time: self | cumulative | module".
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in done.stderr.splitlines()
                if line.startswith("import time:")]
    assert "repro.cli" in imported
    assert _scipy_modules(imported) == []


_FIRST_BER_CALLS = """
import json, sys
import numpy as np
from repro.phy.ber import ber_ask_table, ber_fsk_noncoherent, qfunc
from repro.units import db_to_linear

x = {x}
snr_db = {snr_db}
q = qfunc(x)
ask, fsk = ber_ask_table(snr_db), ber_fsk_noncoherent(snr_db)
loaded = sorted(sys.modules)
from scipy import special


def q_oracle(v):
    return 0.5 * special.erfc(np.asarray(v) / np.sqrt(2.0))


gamma = db_to_linear(snr_db)
want_ask = q_oracle(np.sqrt(gamma))
want_fsk = 0.5 * np.exp(-gamma / 2.0)


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \\
        and a.tobytes() == b.tobytes()


print(json.dumps({{"loaded": loaded, "q": same(q, q_oracle(x)),
                  "ask": same(ask, want_ask),
                  "fsk": same(fsk, want_fsk)}}))
"""


@pytest.mark.parametrize("x, snr_db", [
    ("np.linspace(-8.0, 40.0, 4001)", "np.linspace(-5.0, 25.0, 301)"),
    ("2.5", "15.0"),
    ("np.float64(-0.75)", "np.float64(12.5)"),
], ids=["arrays", "floats", "numpy-scalars"])
def test_ber_calls_load_no_scipy_and_keep_bits(x, snr_db):
    """qfunc, ber_ask_table and ber_fsk_noncoherent load no scipy module
    and return the direct scipy expressions bit for bit."""
    outcome = _fresh_json(_FIRST_BER_CALLS.format(x=x, snr_db=snr_db))
    assert _scipy_modules(outcome.pop("loaded")) == []
    assert outcome == {"q": True, "ask": True, "fsk": True}


def test_ber_calls_run_no_import_statement():
    """The BER hot path runs no import statement per call."""
    for fn in (ber.qfunc, ber._erfc, ber.ber_ask_table,
               ber.ber_fsk_noncoherent):
        opnames = {ins.opname for ins in dis.get_instructions(fn)}
        assert "IMPORT_NAME" not in opnames, fn.__name__


def test_figure_and_chaos_runs_load_no_scipy():
    """One fig11 placement and one chaos scenario, the BER-heavy
    workloads, run without loading any scipy module."""
    loaded = _fresh_json(
        "import json, sys\n"
        "from repro.experiments import chaos, fig11_ber_cdf\n"
        "fig11_ber_cdf.run(seed=0, num_placements=1)\n"
        "chaos.run('kitchen-sink', seed=0, duration_s=30.0)\n"
        "print(json.dumps(sorted(sys.modules)))")
    assert "repro.experiments.chaos" in loaded
    assert _scipy_modules(loaded) == []


_EVERY_SUBCOMMAND = """
import contextlib, io, json, sys
from pathlib import Path
from repro.cli import main

tmp = Path(sys.argv[1])
telemetry = tmp / "chaos.jsonl"
journal = tmp / "campaign.jsonl"
codes = {}


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes[" ".join(argv)] = main(list(argv))
    return out.getvalue()


run("list")
run("reproduce", "table1")
run("link")
run("network", "--nodes", "1")
run("characterize")
telemetry.write_text(run("chaos", "--scenario", "blockage",
                         "--duration", "10", "--json"))
run("admission", "saturate", "--nodes", "20", "--replicates", "1",
    "--load", "0.5")
run("energy", "compare", "--replicates", "1", "--bits", "64")
run("energy", "outage", "--replicates", "1", "--nodes", "1")
run("campaign", "fig11", "--trials", "1", "--out", str(journal))
run("telemetry", "summarize", str(telemetry))
run("telemetry", "flame", str(telemetry))
run("fsck", str(journal), str(telemetry))
print(json.dumps({"codes": codes, "loaded": sorted(sys.modules)}))
"""


def test_every_cli_subcommand_loads_no_scipy(tmp_path):
    """The smallest form of each ``python -m repro`` subcommand, run
    one after another in one interpreter, exits 0 and leaves no scipy
    module behind."""
    from repro.cli import build_parser

    done = _fresh_python("-c", _EVERY_SUBCOMMAND, str(tmp_path))
    outcome = json.loads(done.stdout.splitlines()[-1])
    subparsers = next(action for action in build_parser()._actions
                      if action.dest == "command")
    ran = {argv.split()[0] for argv in outcome["codes"]}
    assert ran == set(subparsers.choices)
    assert all(code == 0 for code in outcome["codes"].values()), \
        outcome["codes"]
    assert _scipy_modules(outcome["loaded"]) == []
