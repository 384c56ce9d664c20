"""Spectral analysis: PSD, occupied bandwidth, emission-mask checks.

The FDM design (§7a) hands each node a channel "depending on the data
rate requirement"; whether neighbours actually coexist comes down to the
OTAM waveform's occupied bandwidth and out-of-channel leakage.  These
utilities measure both from sampled waveforms, so tests can verify that
(a) a node's emission fits the channel the allocator sized for it and
(b) the adjacent-channel rejection numbers used by the interference
model are consistent with the waveform's actual skirt.

scipy loads on first use: :func:`power_spectral_density` imports
:mod:`scipy.signal` in its body.  At module top, scipy cost every cold
start of ``import repro`` about 1 s and 68 MiB of RSS (2-vCPU host).
"""

from __future__ import annotations

import numpy as np

from ..units import linear_to_db
from .waveform import Waveform

__all__ = [
    "power_spectral_density",
    "occupied_bandwidth_hz",
    "power_in_band_fraction",
    "adjacent_channel_leakage_db",
    "check_emission_mask",
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


def power_in_band_fraction(wave: Waveform, low_hz: float,
                           high_hz: float) -> float:
    """Fraction of total power inside ``[low_hz, high_hz]``."""
    if high_hz <= low_hz:
        raise ValueError("band edges out of order")
    freqs, psd = power_spectral_density(wave)
    total = float(np.sum(psd))
    if total <= 0.0:
        return 0.0
    mask = (freqs >= low_hz) & (freqs <= high_hz)
    return float(np.sum(psd[mask]) / total)


def adjacent_channel_leakage_db(wave: Waveform,
                                channel_bandwidth_hz: float) -> float:
    """ACLR-style ratio: in-channel power over first-adjacent power [dB].

    Both bands are ``channel_bandwidth_hz`` wide and centred at 0 and at
    ±one channel spacing (the worse of the two neighbours is reported).
    """
    if channel_bandwidth_hz <= 0:
        raise ValueError("channel bandwidth must be positive")
    half = channel_bandwidth_hz / 2.0
    in_channel = power_in_band_fraction(wave, -half, half)
    upper = power_in_band_fraction(wave, channel_bandwidth_hz - half,
                                   channel_bandwidth_hz + half)
    lower = power_in_band_fraction(wave, -channel_bandwidth_hz - half,
                                   -channel_bandwidth_hz + half)
    worst_neighbour = max(upper, lower, 1e-15)
    if in_channel <= 0.0:
        return float("-inf")
    return float(linear_to_db(in_channel / worst_neighbour))


def check_emission_mask(wave: Waveform, mask: list[tuple[float, float]],
                        reference_bandwidth_hz: float = 1e5) -> bool:
    """Whether a capture meets a stepped emission mask.

    ``mask`` is ``[(offset_hz, max_rel_db), ...]``: beyond each offset
    from the carrier, the power in any reference bandwidth must sit at
    least ``-max_rel_db`` below the in-channel reference level.  This is
    the shape of FCC-style out-of-band emission rules.
    """
    if not mask:
        raise ValueError("empty mask")
    freqs, psd = power_spectral_density(wave)
    df = float(freqs[1] - freqs[0])
    bins_per_ref = max(int(round(reference_bandwidth_hz / df)), 1)

    def band_power(center: float) -> float:
        idx = int(np.argmin(np.abs(freqs - center)))
        lo = max(idx - bins_per_ref // 2, 0)
        hi = min(idx + bins_per_ref // 2 + 1, psd.size)
        return float(np.sum(psd[lo:hi]))

    reference = band_power(0.0)
    if reference <= 0.0:
        return False
    for offset, max_rel_db in sorted(mask):
        for sign in (+1.0, -1.0):
            level = band_power(sign * offset)
            rel_db = float(linear_to_db(max(level, 1e-30) / reference))
            if rel_db > -abs(max_rel_db):
                return False
    return True
