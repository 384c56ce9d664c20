"""Spectral analysis: PSD and occupied bandwidth.

The FDM design (§7a) hands each node a channel "depending on the data
rate requirement"; whether neighbours actually coexist comes down to the
OTAM waveform's occupied bandwidth.  These utilities measure it from
sampled waveforms, so tests can verify that a node's emission fits the
channel the allocator sized for it.

scipy loads on first use: :func:`power_spectral_density` imports
:mod:`scipy.signal` in its body.  At module top, scipy cost every cold
start of ``import repro`` about 1 s and 68 MiB of RSS (2-vCPU host).
"""

from __future__ import annotations

import numpy as np

from .waveform import Waveform

__all__ = [
    "power_spectral_density",
    "occupied_bandwidth_hz",
]


def power_spectral_density(wave: Waveform,
                           nperseg: int | None = None
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Welch PSD of a complex baseband capture.

    Returns ``(freqs_hz, psd)`` sorted by frequency, two-sided (complex
    input), density-normalised so ``sum(psd) * df == mean power``.
    """
    if len(wave) < 8:
        raise ValueError("capture too short for a PSD estimate")
    if nperseg is None:
        nperseg = min(1024, len(wave))
    from scipy.signal import welch

    freqs, psd = welch(wave.samples, fs=wave.sample_rate_hz,
                       nperseg=nperseg, return_onesided=False,
                       detrend=False)
    order = np.argsort(freqs)
    return freqs[order], psd[order]


def occupied_bandwidth_hz(wave: Waveform, fraction: float = 0.99) -> float:
    """x%-power occupied bandwidth (the regulatory OBW definition).

    The narrowest symmetric-in-energy interval containing ``fraction``
    of the total power, found by trimming equal power off both spectrum
    tails.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    freqs, psd = power_spectral_density(wave)
    total = float(np.sum(psd))
    if total <= 0.0:
        return 0.0
    tail = (1.0 - fraction) / 2.0
    cumulative = np.cumsum(psd) / total
    low_idx = int(np.searchsorted(cumulative, tail))
    high_idx = int(np.searchsorted(cumulative, 1.0 - tail))
    high_idx = min(high_idx, freqs.size - 1)
    return float(freqs[high_idx] - freqs[low_idx])
