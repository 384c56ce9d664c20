"""Complex-baseband waveform synthesis.

The reproduction simulates the mmX air interface at complex baseband: the
24 GHz carrier is removed analytically and what remains is the envelope and
the small FSK offsets that the AP's USRP would digitise after
down-conversion (section 8.2).  A :class:`Waveform` couples the sample
array to its sample rate so downstream DSP can't silently mix rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import numpy.typing as npt

__all__ = [
    "Keying",
    "Waveform",
    "synthesize_block",
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


class Keying(NamedTuple):
    """How each bit value reaches the receiver: an amplitude and a tone."""

    amp_one: complex
    amp_zero: complex
    freq_one_hz: float
    freq_zero_hz: float


def synthesize_block(out: ComplexArray, bits: npt.NDArray[np.uint8],
                     samples_per_bit: int, sample_rate_hz: float,
                     keying: Keying, tone_sum: float = 0.0) -> float:
    """Write the keyed samples of ``bits`` into ``out``, in place.

    ``out`` holds ``samples_per_bit`` complex128 samples per bit.
    ``tone_sum`` is the sum of the tones [Hz] of every sample before the
    block (0 for a capture's first block).  Returns the sum the next
    block starts from, so a capture synthesised block by block equals
    the capture synthesised whole, bit for bit.

    The phase is integrated in the block's imaginary part, exponentiated
    in place and scaled per bit under the bit mask, so synthesis holds no
    temporary as long as the block besides that mask.
    """
    ones = np.repeat(bits == 1, samples_per_bit)
    # Continuous phase: sample k carries the integral of the
    # instantaneous frequency over samples 0..k-1.  np.cumsum adds in
    # order, so the sum carried in from the block before adds exactly
    # as it would inside one long block.
    phase = out.imag
    phase[:1] = tone_sum
    phase[1:] = keying.freq_zero_hz
    phase[1:][ones[:-1]] = keying.freq_one_hz
    np.cumsum(phase, out=phase)
    if ones.size:
        last = keying.freq_one_hz if ones[-1] else keying.freq_zero_hz
        tone_sum = float(phase[-1] + last)
    phase *= 2.0 * np.pi
    phase *= 1.0 / sample_rate_hz
    out.real = 0.0
    np.exp(out, out=out)
    # Tone first, amplitude second.  Complex multiply rounds through FMA,
    # so the operand order decides the last bit; this is the order numpy's
    # temporary elision gave long captures of ``amps * exp(...)``, and
    # writing it out keeps a sample's bits independent of the capture's
    # length.
    np.multiply(out, keying.amp_one, out=out, where=ones)
    np.multiply(out, keying.amp_zero, out=out, where=~ones)
    return tone_sum


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

    The whole capture is one block of :func:`synthesize_block`, in one
    complex buffer.
    """
    bit_array = np.asarray(bits, dtype=np.uint8).ravel()
    sps = _samples_per_bit(bit_rate_bps, sample_rate_hz)
    samples = np.empty(bit_array.size * sps, dtype=np.complex128)
    synthesize_block(samples, bit_array, sps, sample_rate_hz,
                     Keying(amp_one, amp_zero, freq_one_hz, freq_zero_hz))
    return Waveform(samples, sample_rate_hz)
