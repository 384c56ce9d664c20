"""Envelope detection — the ASK half of the AP's joint demodulator."""

from __future__ import annotations

import numpy as np

__all__ = [
    "envelope_detect",
    "threshold_levels",
]


def envelope_detect(samples: np.ndarray) -> np.ndarray:
    """Magnitude envelope of a complex baseband signal.

    The mmX AP sees a sine wave whose amplitude was modulated by the
    channel (OTAM); taking ``|x[n]|`` recovers exactly that amplitude
    track.
    """
    return np.abs(np.asarray(samples))


def threshold_levels(envelope: np.ndarray) -> tuple[float, float, float]:
    """Estimate the two ASK levels and decision threshold from an envelope.

    Runs a tiny 2-means (Lloyd) clustering on the envelope samples,
    initialised at the min/max, and returns ``(low, high, threshold)``
    with the threshold midway between the converged level means.  Works
    with no training when the two levels are separated; degenerates to
    equal levels (threshold at their value) otherwise — which is precisely
    the case where the FSK dimension must take over (section 6.3).
    """
    env = np.asarray(envelope, dtype=float)
    if env.size == 0:
        raise ValueError("empty envelope")
    low = float(env.min())
    high = float(env.max())
    if high - low <= 1e-15:
        return low, high, low
    for _ in range(25):
        threshold = 0.5 * (low + high)
        low_set = env[env <= threshold]
        high_set = env[env > threshold]
        if low_set.size == 0 or high_set.size == 0:
            break
        new_low = float(low_set.mean())
        new_high = float(high_set.mean())
        if abs(new_low - low) < 1e-12 and abs(new_high - high) < 1e-12:
            low, high = new_low, new_high
            break
        low, high = new_low, new_high
    return low, high, 0.5 * (low + high)
