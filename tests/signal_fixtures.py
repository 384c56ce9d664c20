"""Reference signals and antennas the PHY and antenna tests build on.

``carrier`` is a pure complex tone and ``IsotropicElement`` a unit-gain
element; the program itself uses neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.waveform import Waveform


@dataclass(frozen=True)
class IsotropicElement:
    """Unit-gain reference element."""

    def field(self, theta_rad) -> np.ndarray:
        """Unit field in every direction."""
        return np.ones_like(np.asarray(theta_rad, dtype=float))

    def power_db(self, theta_rad) -> np.ndarray:
        """0 dB everywhere."""
        return np.zeros_like(np.asarray(theta_rad, dtype=float))


def carrier(frequency_hz: float, duration_s: float, sample_rate_hz: float,
            amplitude: float = 1.0, phase_rad: float = 0.0) -> Waveform:
    """A pure complex tone at ``frequency_hz`` off the channel centre."""
    n = int(round(duration_s * sample_rate_hz))
    t = np.arange(n) / sample_rate_hz
    samples = amplitude * np.exp(1j * (2.0 * np.pi * frequency_hz * t
                                       + phase_rad))
    return Waveform(samples, sample_rate_hz)
