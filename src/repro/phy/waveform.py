"""Complex-baseband waveform synthesis.

The reproduction simulates the mmX air interface at complex baseband: the
24 GHz carrier is removed analytically and what remains is the envelope and
the small FSK offsets that the AP's USRP would digitise after
down-conversion (section 8.2).  A :class:`Waveform` couples the sample
array to its sample rate so downstream DSP can't silently mix rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from ..rng import ensure_rng
from ..units import FloatArray

__all__ = [
    "Waveform",
    "carrier",
    "two_level_waveform",
    "awgn_noise",
]

ComplexArray = npt.NDArray[np.complex128]


@dataclass(frozen=True)
class Waveform:
    """Complex baseband samples tagged with their sample rate."""

    samples: ComplexArray
    sample_rate_hz: float

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.complex128)
        object.__setattr__(self, "samples", samples)
        if self.sample_rate_hz <= 0:
            raise ValueError("sample rate must be positive")
        if samples.ndim != 1:
            raise ValueError("waveform samples must be one-dimensional")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        """Duration of the waveform in seconds."""
        return self.samples.size / self.sample_rate_hz

    def time_axis(self) -> FloatArray:
        """Sample timestamps [s], starting at zero."""
        axis: FloatArray = np.arange(self.samples.size) / self.sample_rate_hz
        return axis

    def power(self) -> float:
        """Mean power of the samples (linear units)."""
        if self.samples.size == 0:
            return 0.0
        return float(np.mean(np.abs(self.samples) ** 2))

    def scaled(self, amplitude: complex) -> Waveform:
        """Return a copy scaled by a (possibly complex) amplitude factor."""
        return Waveform(self.samples * amplitude, self.sample_rate_hz)

    def concatenated(self, other: Waveform) -> Waveform:
        """Concatenate two waveforms at identical sample rates."""
        if other.sample_rate_hz != self.sample_rate_hz:
            raise ValueError("cannot concatenate waveforms at different rates")
        return Waveform(np.concatenate([self.samples, other.samples]),
                        self.sample_rate_hz)


def carrier(frequency_hz: float, duration_s: float, sample_rate_hz: float,
            amplitude: float = 1.0, phase_rad: float = 0.0) -> Waveform:
    """A pure complex tone — what the mmX node's VCO emits at baseband.

    ``frequency_hz`` is the *offset from the nominal carrier*; 0 means the
    tone sits exactly at the channel centre.
    """
    n = int(round(duration_s * sample_rate_hz))
    t = np.arange(n) / sample_rate_hz
    samples = amplitude * np.exp(1j * (2.0 * np.pi * frequency_hz * t + phase_rad))
    return Waveform(samples, sample_rate_hz)


def _samples_per_bit(bit_rate_bps: float, sample_rate_hz: float) -> int:
    sps = sample_rate_hz / bit_rate_bps
    if sps < 2:
        raise ValueError(
            f"sample rate {sample_rate_hz} too low for bit rate {bit_rate_bps}")
    if abs(sps - round(sps)) > 1e-9:
        raise ValueError("sample rate must be an integer multiple of bit rate")
    return int(round(sps))


def two_level_waveform(bits: npt.ArrayLike, bit_rate_bps: float,
                       sample_rate_hz: float,
                       amp_one: complex, amp_zero: complex,
                       freq_one_hz: float = 0.0,
                       freq_zero_hz: float = 0.0) -> Waveform:
    """Per-bit amplitude *and* frequency keying with continuous phase.

    This is the general waveform OTAM produces at the AP: each bit selects a
    beam, hence a channel amplitude (``amp_one`` / ``amp_zero``), and
    optionally a slightly different VCO frequency (joint ASK-FSK,
    section 6.3).  Phase is kept continuous across bit boundaries, as a free
    running VCO would.
    """
    bit_array = np.asarray(bits, dtype=np.uint8).ravel()
    sps = _samples_per_bit(bit_rate_bps, sample_rate_hz)
    n = bit_array.size * sps
    amps = np.where(np.repeat(bit_array, sps) == 1, amp_one, amp_zero)
    freqs = np.where(np.repeat(bit_array, sps) == 1, freq_one_hz,
                     freq_zero_hz)
    # Continuous phase: integrate the instantaneous frequency.
    dt = 1.0 / sample_rate_hz
    phase = 2.0 * np.pi * np.cumsum(freqs) * dt
    phase = np.concatenate([[0.0], phase[:-1]])
    samples = amps * np.exp(1j * phase)
    assert samples.size == n
    return Waveform(samples, sample_rate_hz)


def awgn_noise(n: int, noise_power: float,
               rng: np.random.Generator | None = None) -> ComplexArray:
    """Complex AWGN samples with total (I+Q) power ``noise_power``."""
    if n < 0:
        raise ValueError("sample count must be non-negative")
    if noise_power < 0:
        raise ValueError("noise power must be non-negative")
    generator = ensure_rng(rng)
    sigma = np.sqrt(noise_power / 2.0)
    noise: ComplexArray = sigma * (generator.standard_normal(n)
                                   + 1j * generator.standard_normal(n))
    return noise

