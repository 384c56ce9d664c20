"""The cold-start contract: ``import repro`` loads no scipy.

scipy loads on first use only: :mod:`scipy.special` on the first BER
call, :mod:`scipy.signal` on the first filter or PSD.  The routines
reached that way are the same objects as a direct scipy call, so every
output keeps its bits.  Each check runs in a fresh interpreter, because
this test process may already hold scipy.
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
from repro.phy.ber import qfunc, qfunc_inv

x = {x}
p = {p}
loaded_before = "scipy.special" in sys.modules
q, q_inv = qfunc(x), qfunc_inv(p)
from scipy import special

want_q = 0.5 * special.erfc(x / np.sqrt(2.0))
want_inv = np.sqrt(2.0) * special.erfcinv(2.0 * p)


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \\
        and a.tobytes() == b.tobytes()


print(json.dumps({{"loaded_before": loaded_before,
                  "q": same(q, want_q), "q_inv": same(q_inv, want_inv)}}))
"""


@pytest.mark.parametrize("x, p", [
    ("np.linspace(-8.0, 40.0, 4001)", "np.linspace(1e-12, 0.999, 5001)"),
    ("2.5", "1e-6"),
    ("np.float64(-0.75)", "np.float64(0.3)"),
], ids=["arrays", "floats", "numpy-scalars"])
def test_first_ber_calls_load_scipy_special_and_keep_bits(x, p):
    """The first qfunc/qfunc_inv calls import scipy.special themselves
    and return the direct scipy expressions bit for bit."""
    outcome = _fresh_json(_FIRST_BER_CALLS.format(x=x, p=p))
    assert outcome == {"loaded_before": False, "q": True, "q_inv": True}


def test_ber_calls_run_no_import_statement():
    """The BER hot path reaches the ufuncs through one cached accessor."""
    for fn in (ber.qfunc, ber.qfunc_inv):
        opnames = {ins.opname for ins in dis.get_instructions(fn)}
        assert "IMPORT_NAME" not in opnames, fn.__name__
    from scipy import special

    assert ber._erfc_ufuncs() == (special.erfc, special.erfcinv)
    assert ber._erfc_ufuncs() is ber._erfc_ufuncs()


_FIRST_SIGNAL_CALLS = """
import json, sys
import numpy as np
from repro.phy.filters import apply_fir, fir_lowpass
from repro.phy.spectrum import power_spectral_density
from repro.phy.waveform import Waveform

loaded_before = "scipy.signal" in sys.modules
rng = np.random.default_rng(7)
real = rng.standard_normal(3000)
cplx = real + 1j * rng.standard_normal(3000)
wave = Waveform(cplx, 8e6)
taps = fir_lowpass(5e5, 8e6, 101)
filtered = [apply_fir(real, taps), apply_fir(cplx, taps)]
freqs, psd = power_spectral_density(wave)
short_freqs, short_psd = power_spectral_density(wave, nperseg=256)
from scipy import signal

want_taps = signal.firwin(101, 5e5, fs=8e6)
delay = (want_taps.size - 1) // 2
want_filtered = [
    signal.lfilter(want_taps, [1.0],
                   np.concatenate([x, np.full(delay, x[-1])]))[delay:]
    for x in (real, cplx)]


def welch_sorted(nperseg):
    f, s = signal.welch(cplx, fs=8e6, nperseg=nperseg,
                        return_onesided=False, detrend=False)
    order = np.argsort(f)
    return f[order], s[order]


def same(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b)


print(json.dumps({
    "loaded_before": loaded_before,
    "fir_lowpass": same(taps, want_taps),
    "apply_fir": all(same(got, want)
                     for got, want in zip(filtered, want_filtered)),
    "psd": all(same(got, want) for got, want in zip(
        (freqs, psd, short_freqs, short_psd),
        welch_sorted(1024) + welch_sorted(256))),
}))
"""


def test_filters_and_psd_load_scipy_signal_and_match_it():
    """fir_lowpass, apply_fir and power_spectral_density import
    scipy.signal on first use and return what firwin, lfilter and
    welch return."""
    outcome = _fresh_json(_FIRST_SIGNAL_CALLS)
    assert outcome == {"loaded_before": False, "fir_lowpass": True,
                       "apply_fir": True, "psd": True}
