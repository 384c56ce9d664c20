"""Fig. 6 / Eq. 1-4: the Time-Modulated Array's direction hashing (§7b).

Two nodes transmit on the same frequency channel from different
directions; the TMA's switched elements shift each arrival onto a
different harmonic of the switching frequency.  The experiment verifies
this at two levels: analytically (harmonic gains from Eq. 4) and in the
time domain (FFT of the switched-array output of Eq. 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import CARRIER_FREQUENCY_HZ
from ..network.tma import TimeModulatedArray
from .report import format_table

__all__ = ["Fig6Result", "run", "render"]


@dataclass(frozen=True)
class Fig6Result:
    """Direction-to-harmonic mapping evidence."""

    arrival_degs: tuple[float, ...]
    dominant_harmonics: tuple[int, ...]
    image_suppressions_db: tuple[float, ...]
    spectrum_harmonic_bins: tuple[int, ...]
    """Per-arrival strongest harmonic measured from the time-domain FFT."""

    @property
    def directions_separated(self) -> bool:
        """Whether the two directions land on distinct harmonics."""
        return len(set(self.dominant_harmonics)) == len(self.dominant_harmonics)

    @property
    def analysis_matches_timedomain(self) -> bool:
        """Eq. 4 predictions vs the Eq. 1 time-domain simulation."""
        return self.dominant_harmonics == self.spectrum_harmonic_bins


def _measured_dominant_harmonic(tma: TimeModulatedArray, theta_rad: float,
                                sample_rate_hz: float, num_samples: int
                                ) -> int:
    """Strongest harmonic of a unit tone pushed through Eq. 1 + FFT."""
    x = np.ones(num_samples, dtype=np.complex128)
    y = tma.process(x, sample_rate_hz, theta_rad)
    spectrum = np.fft.fft(y) / num_samples
    freqs = np.fft.fftfreq(num_samples, d=1.0 / sample_rate_hz)
    # Collapse FFT bins onto harmonic orders of the switching rate.
    orders = np.round(freqs / tma.switching_rate_hz).astype(int)
    max_order = tma.num_elements
    powers = {}
    for m in range(-max_order, max_order + 1):
        mask = orders == m
        if mask.any():
            powers[m] = float(np.sum(np.abs(spectrum[mask]) ** 2))
    return max(powers, key=powers.get)


def run(arrival_degs=(0.0, 40.0), num_elements: int = 8,
        switching_rate_hz: float = 50e6) -> Fig6Result:
    """Check the hashing for a set of arrival directions.

    The default pair (0°, 40°) mirrors Fig. 6's two-arrow illustration:
    two co-channel signals from well-separated directions.
    """
    tma = TimeModulatedArray(num_elements=num_elements,
                             frequency_hz=CARRIER_FREQUENCY_HZ,
                             switching_rate_hz=switching_rate_hz)
    sample_rate = switching_rate_hz * tma.samples_per_period
    num_samples = tma.samples_per_period * 64
    dominant, suppression, measured = [], [], []
    for deg in arrival_degs:
        theta = np.radians(deg)
        dominant.append(tma.dominant_harmonic(theta))
        suppression.append(tma.image_suppression_db(theta))
        measured.append(_measured_dominant_harmonic(
            tma, theta, sample_rate, num_samples))
    return Fig6Result(
        arrival_degs=tuple(float(d) for d in arrival_degs),
        dominant_harmonics=tuple(dominant),
        image_suppressions_db=tuple(suppression),
        spectrum_harmonic_bins=tuple(measured),
    )


def render(result: Fig6Result) -> str:
    """Per-direction harmonic mapping table."""
    rows = [[f"{d:.0f}", m, mm, f"{s:.1f}"]
            for d, m, mm, s in zip(result.arrival_degs,
                                   result.dominant_harmonics,
                                   result.spectrum_harmonic_bins,
                                   result.image_suppressions_db)]
    table = format_table(
        ["arrival [deg]", "harmonic (Eq. 4)", "harmonic (FFT of Eq. 1)",
         "image suppression [dB]"],
        rows, title="Fig. 6 — TMA direction-to-harmonic hashing")
    checks = format_table(
        ["check", "value"],
        [
            ["directions on distinct harmonics",
             str(result.directions_separated)],
            ["analysis matches time domain",
             str(result.analysis_matches_timedomain)],
        ])
    return "\n\n".join([table, checks])
