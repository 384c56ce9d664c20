"""Time-Modulated Array: SDM without extra mmWave chains (§7b, Eq. 1-4).

Each AP antenna element sits behind an RF switch driven by a periodic
on/off waveform ``w_n(t)`` with period ``T_p``.  Writing ``w_n`` as a
Fourier series (Eq. 3) and substituting into the array output (Eq. 1)
shows the received signal is replicated at harmonics of the switching
frequency, with per-harmonic array coefficients (Eq. 4).  Each harmonic
therefore has its *own beam pattern*; with the classic sequential
schedule, harmonic m points where ``d sin(theta) / lambda = m / N`` —
so signals arriving from different directions pop out on different
frequencies.  One mmWave chain, spatial demultiplexing for free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..units import linear_to_db, wavelength

__all__ = ["sequential_switching_schedule", "TimeModulatedArray"]


def sequential_switching_schedule(num_elements: int,
                                  samples_per_period: int) -> np.ndarray:
    """The canonical SDMA-TMA schedule: elements on one after another.

    Returns a ``(num_elements, samples_per_period)`` 0/1 matrix where
    element n is on during the n-th equal slice of the period.  This is
    the schedule from He et al. [25], which the paper cites for its
    20-30 dB image suppression figure.
    """
    if num_elements < 1:
        raise ValueError("need at least one element")
    if samples_per_period < num_elements:
        raise ValueError("need at least one sample per element slot")
    schedule = np.zeros((num_elements, samples_per_period), dtype=float)
    edges = np.linspace(0, samples_per_period, num_elements + 1).astype(int)
    for n in range(num_elements):
        schedule[n, edges[n]:edges[n + 1]] = 1.0
    return schedule


@dataclass
class TimeModulatedArray:
    """An N-element ULA with per-element switched feeds.

    Parameters
    ----------
    num_elements:
        Array size N.
    frequency_hz:
        Carrier the array receives at (sets lambda for the phase term).
    switching_rate_hz:
        ``1 / T_p`` — the harmonic spacing.  Must exceed the per-node
        signal bandwidth or harmonics alias onto each other.
    spacing_m:
        Element spacing; defaults to half a wavelength.
    samples_per_period:
        Time resolution of the switching schedule.
    """

    num_elements: int
    frequency_hz: float
    switching_rate_hz: float
    spacing_m: float | None = None
    samples_per_period: int = 64

    def __post_init__(self):
        if self.num_elements < 2:
            raise ValueError("TMA needs at least 2 elements")
        if self.switching_rate_hz <= 0:
            raise ValueError("switching rate must be positive")
        if self.spacing_m is None:
            self.spacing_m = float(wavelength(self.frequency_hz)) / 2.0
        if self.spacing_m <= 0:
            raise ValueError("element spacing must be positive")
        self.schedule = sequential_switching_schedule(
            self.num_elements, self.samples_per_period)

    # --- Eq. 3: Fourier coefficients of the switching waveforms --------------

    def fourier_coefficients(self, harmonics) -> np.ndarray:
        """``a[m, n]`` for requested harmonic orders m (Eq. 3).

        Computed from the sampled schedule via the DFT, so any schedule
        (not just the sequential one) works.
        """
        m = np.atleast_1d(np.asarray(harmonics, dtype=int))
        k = self.samples_per_period
        t_idx = np.arange(k)
        # a_mn = (1/K) sum_t w_n[t] exp(-j 2 pi m t / K)
        basis = np.exp(-2j * np.pi * np.outer(m, t_idx) / k)  # (M, K)
        return basis @ self.schedule.T / k  # (M, N)

    # --- Eq. 4: per-harmonic beam patterns -----------------------------------

    def steering_vector(self, theta_rad: float) -> np.ndarray:
        """Inter-element phase progression for an arrival direction."""
        lam = float(wavelength(self.frequency_hz))
        n = np.arange(self.num_elements)
        return np.exp(1j * 2.0 * np.pi * self.spacing_m / lam
                      * n * np.sin(theta_rad))

    def harmonic_powers_db(self, theta_rad: float,
                           max_harmonic: int | None = None) -> np.ndarray:
        """Power [dB] of each harmonic -max..max for one arrival direction.

        Index 0 of the returned array is harmonic ``-max_harmonic``.
        """
        if max_harmonic is None:
            max_harmonic = self.num_elements
        m = np.arange(-max_harmonic, max_harmonic + 1)
        coeffs = self.fourier_coefficients(m)  # (M, N)
        gains = coeffs @ self.steering_vector(theta_rad)
        power = np.abs(gains) ** 2
        return linear_to_db(np.maximum(power, 1e-30))

    def dominant_harmonic(self, theta_rad: float,
                          max_harmonic: int | None = None) -> int:
        """The harmonic order carrying most of a direction's energy."""
        if max_harmonic is None:
            max_harmonic = self.num_elements
        powers = self.harmonic_powers_db(theta_rad, max_harmonic)
        return int(np.argmax(powers)) - max_harmonic

    def image_suppression_db(self, theta_rad: float,
                             max_harmonic: int | None = None) -> float:
        """Strongest-to-next-harmonic power ratio [dB] for one direction.

        The paper quotes 20-30 dB for the unwanted copies; the sequential
        schedule achieves ~"sinc-sidelobe" suppression that lands in that
        band for moderate N.
        """
        powers = self.harmonic_powers_db(theta_rad, max_harmonic)
        order = np.sort(powers)[::-1]
        return float(order[0] - order[1])

    # --- Eq. 1: time-domain processing ------------------------------------------

    def process(self, samples: np.ndarray, sample_rate_hz: float,
                theta_rad: float) -> np.ndarray:
        """Apply the switched array to a signal arriving from ``theta``.

        Implements Eq. 1 directly in the time domain: each element sees
        the signal with its spatial phase, gated by its switching
        waveform, and the gated copies are summed.  An FFT of the output
        shows the harmonic images.
        """
        x = np.asarray(samples, dtype=np.complex128)
        if sample_rate_hz <= 0:
            raise ValueError("sample rate must be positive")
        period_samples = sample_rate_hz / self.switching_rate_hz
        if period_samples < self.samples_per_period:
            raise ValueError("sample rate too low for the switching schedule")
        t = np.arange(x.size) / sample_rate_hz
        # Map each time instant into the switching period.
        phase_in_period = (t * self.switching_rate_hz) % 1.0
        slot = np.minimum((phase_in_period * self.samples_per_period).astype(int),
                          self.samples_per_period - 1)
        steering = self.steering_vector(theta_rad)
        y = np.zeros_like(x)
        for n in range(self.num_elements):
            y += self.schedule[n, slot] * steering[n] * x
        return y

    def separate(self, samples: np.ndarray, sample_rate_hz: float,
                 arrivals: list[float]) -> np.ndarray:
        """Mix several same-channel arrivals through the TMA.

        ``samples`` has shape (num_signals, n); each row arrives from the
        matching direction in ``arrivals``.  Returns the combined output
        whose spectrum shows each signal shifted to its direction's
        dominant harmonic — the demultiplexing of Fig. 6.
        """
        x = np.atleast_2d(np.asarray(samples, dtype=np.complex128))
        if x.shape[0] != len(arrivals):
            raise ValueError("one arrival direction per signal row required")
        out = np.zeros(x.shape[1], dtype=np.complex128)
        for row, theta in zip(x, arrivals):
            out += self.process(row, sample_rate_hz, theta)
        return out
