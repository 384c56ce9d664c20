"""Small FIR filtering toolbox used by the AP's baseband processor.

scipy loads on first use: :func:`fir_lowpass` and :func:`apply_fir`
import :mod:`scipy.signal` in their bodies.  At module top, scipy cost
every cold start of ``import repro`` about 1 s and 68 MiB of RSS (2-vCPU
host), and only the USRP front end filters.
"""

from __future__ import annotations

import numpy as np

__all__ = ["moving_average", "fir_lowpass", "apply_fir"]


def moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Centred moving average with edge replication, length preserved.

    Used as the post-envelope smoother: a bit period's worth of averaging
    integrates out noise without smearing neighbouring symbols.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    x = np.asarray(x, dtype=float)
    if window == 1 or x.size == 0:
        return x.copy()
    window = min(window, x.size)
    kernel = np.ones(window) / window
    padded = np.concatenate([
        np.full(window // 2, x[0]),
        x,
        np.full(window - 1 - window // 2, x[-1]),
    ])
    return np.convolve(padded, kernel, mode="valid")


def fir_lowpass(cutoff_hz: float, sample_rate_hz: float,
                num_taps: int = 63) -> np.ndarray:
    """Hamming-windowed linear-phase FIR low-pass prototype."""
    if not 0 < cutoff_hz < sample_rate_hz / 2:
        raise ValueError("cutoff must be inside (0, Nyquist)")
    if num_taps < 3:
        raise ValueError("need at least 3 taps")
    from scipy.signal import firwin

    return firwin(num_taps, cutoff_hz, fs=sample_rate_hz)


def apply_fir(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Zero-phase-ish FIR application: filter then compensate group delay."""
    x = np.asarray(x)
    taps = np.asarray(taps, dtype=float)
    if x.size == 0:
        return x.copy()
    from scipy.signal import lfilter

    delay = (taps.size - 1) // 2
    padded = np.concatenate([x, np.full(delay, x[-1], dtype=x.dtype)])
    y = lfilter(taps, [1.0], padded)
    return y[delay:]
