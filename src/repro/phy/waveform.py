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

__all__ = [
    "Waveform",
    "two_level_waveform",
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

    The capture is one complex buffer from start to finish: the phase is
    integrated in its imaginary part, exponentiated in place and scaled
    per bit under the bit mask, so synthesis holds no full-length
    temporary besides that mask.
    """
    bit_array = np.asarray(bits, dtype=np.uint8).ravel()
    sps = _samples_per_bit(bit_rate_bps, sample_rate_hz)
    ones = np.repeat(bit_array == 1, sps)
    samples = np.empty(ones.size, dtype=np.complex128)
    # Continuous phase: sample k carries the integral of the
    # instantaneous frequency over samples 0..k-1.
    phase = samples.imag
    phase[:1] = 0.0
    phase[1:] = freq_zero_hz
    phase[1:][ones[:-1]] = freq_one_hz
    np.cumsum(phase, out=phase)
    phase *= 2.0 * np.pi
    phase *= 1.0 / sample_rate_hz
    samples.real = 0.0
    np.exp(samples, out=samples)
    # Tone first, amplitude second.  Complex multiply rounds through FMA,
    # so the operand order decides the last bit; this is the order numpy's
    # temporary elision gave long captures of ``amps * exp(...)``, and
    # writing it out keeps a sample's bits independent of the capture's
    # length.
    np.multiply(samples, amp_one, out=samples, where=ones)
    np.multiply(samples, amp_zero, out=samples, where=~ones)
    return Waveform(samples, sample_rate_hz)
