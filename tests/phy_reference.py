"""Reference capture path: synthesis, noise, preamble search and tone bank.

These are :func:`repro.phy.waveform.two_level_waveform`,
:func:`repro.channel.noise.complex_awgn`, the two ``received_with_noise``
methods the links had (``OtamLink``, ``BackscatterLink``) and
:func:`repro.phy.preamble.correlate_preamble` as they were before the
capture became one in-place buffer, kept verbatim so the differential
tests can demand the same bits from the fast path.  The additions are
:func:`reference_two_level_waveform_ordered`, the same synthesis with the
tone-times-amplitude multiply order written out, and the keying the two
``received_with_noise`` bodies took from ``OtamModulator``: its
``received_waveform`` and ``ask_only_waveform`` as they were, written
inline.  The bodies synthesise through the program's
``two_level_waveform``, which has its own reference.  A link now streams
its capture through the receiver block by block; demodulating a
``received_with_noise`` capture whole is the path it must match.

``reference_two_level_waveform`` computes ``amps * np.exp(1j * phase)``.
From 16,384 samples (256 KiB of complex128) numpy's temporary elision
evaluates that in place on the ``exp`` temporary with the operands
swapped, so its long captures equal the ordered form and its short ones
may differ from it in the last bit.

``reference_goertzel_block_powers`` is
:func:`repro.phy.goertzel.goertzel_block_powers` as it was while its bins
were a BLAS matrix product (``blocks @ tones.T``).  BLAS sums in another
order than the program's ``einsum`` loop, and in an order that depends on
the kernel it picks for the host CPU, so the tests hold the two within a
rounding bound, not bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.channel.noise import noise_power_dbm
from repro.core.otam import transmitted_beam_bits
from repro.phy.bits import as_bit_array
from repro.phy.waveform import Waveform, _samples_per_bit, two_level_waveform
from repro.rng import ensure_rng
from repro.units import db_to_amplitude, dbm_to_milliwatts

__all__ = [
    "ELISION_MIN_SAMPLES",
    "reference_backscatter_received_with_noise",
    "reference_complex_awgn",
    "reference_correlate_preamble",
    "reference_goertzel_block_powers",
    "reference_otam_received_with_noise",
    "reference_two_level_waveform",
    "reference_two_level_waveform_ordered",
]

ELISION_MIN_SAMPLES = 256 * 1024 // 16
"""Shortest complex128 capture numpy's temporary elision rewrites."""


def reference_two_level_waveform(bits, bit_rate_bps: float,
                                 sample_rate_hz: float,
                                 amp_one: complex, amp_zero: complex,
                                 freq_one_hz: float = 0.0,
                                 freq_zero_hz: float = 0.0) -> Waveform:
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


def reference_two_level_waveform_ordered(bits, bit_rate_bps: float,
                                         sample_rate_hz: float,
                                         amp_one: complex, amp_zero: complex,
                                         freq_one_hz: float = 0.0,
                                         freq_zero_hz: float = 0.0
                                         ) -> Waveform:
    """The reference with the multiply written ``exp(...) * amps``."""
    bit_array = np.asarray(bits, dtype=np.uint8).ravel()
    sps = _samples_per_bit(bit_rate_bps, sample_rate_hz)
    amps = np.where(np.repeat(bit_array, sps) == 1, amp_one, amp_zero)
    freqs = np.where(np.repeat(bit_array, sps) == 1, freq_one_hz,
                     freq_zero_hz)
    dt = 1.0 / sample_rate_hz
    phase = 2.0 * np.pi * np.cumsum(freqs) * dt
    phase = np.concatenate([[0.0], phase[:-1]])
    return Waveform(np.exp(1j * phase) * amps, sample_rate_hz)


def reference_complex_awgn(n: int, power_dbm: float,
                           rng: np.random.Generator | None = None
                           ) -> np.ndarray:
    if n < 0:
        raise ValueError("sample count must be non-negative")
    rng = ensure_rng(rng)
    power_lin = float(dbm_to_milliwatts(power_dbm))
    sigma = np.sqrt(power_lin / 2.0)
    return sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def reference_otam_received_with_noise(link, bits, channel=None, rng=None,
                                       use_otam: bool = True) -> Waveform:
    """``OtamLink.received_with_noise`` on ``link``, noise as a second array."""
    ch = channel or link.channel_response()
    mod = link.modulator
    bit_array = transmitted_beam_bits(bits)
    if bit_array.size == 0:
        raise ValueError("cannot modulate an empty bit sequence")
    if use_otam:
        amp_one, amp_zero = mod.per_bit_amplitudes(ch)
        freq_zero = mod.config.freq_zero_hz
    else:
        # The without-OTAM baseline: OOK through Beam 1 only.
        amp_one = float(db_to_amplitude(mod.eirp_dbm)) * ch.h1
        amp_zero = 0.0
        freq_zero = mod.config.freq_one_hz
    clean = two_level_waveform(
        bit_array,
        bit_rate_bps=mod.config.bit_rate_bps,
        sample_rate_hz=mod.config.sample_rate_hz,
        amp_one=amp_one,
        amp_zero=amp_zero,
        freq_one_hz=mod.config.freq_one_hz,
        freq_zero_hz=freq_zero)
    noise_dbm = noise_power_dbm(link.config.sample_rate_hz,
                                link.ap_hardware.cascade_noise_figure_db)
    noise = reference_complex_awgn(len(clean.samples), noise_dbm, rng)
    return Waveform(clean.samples + noise, clean.sample_rate_hz)


def reference_backscatter_received_with_noise(tag, bits, rng=None,
                                              excess_loss_db: float = 0.0
                                              ) -> Waveform:
    """``BackscatterLink.received_with_noise`` on ``tag``, likewise."""
    channel = tag.reflection_channel(excess_loss_db)
    amp_one, amp_zero = tag.modulator.per_bit_amplitudes(channel)
    bit_array = transmitted_beam_bits(bits)
    if bit_array.size == 0:
        raise ValueError("cannot modulate an empty bit sequence")
    clean = two_level_waveform(
        bit_array,
        bit_rate_bps=tag.config.bit_rate_bps,
        sample_rate_hz=tag.config.sample_rate_hz,
        amp_one=amp_one,
        amp_zero=amp_zero,
        freq_one_hz=tag.config.freq_one_hz,
        freq_zero_hz=tag.config.freq_one_hz)
    noise_dbm = noise_power_dbm(
        tag.config.sample_rate_hz,
        tag.ap_hardware.cascade_noise_figure_db)
    noise = reference_complex_awgn(len(clean.samples), noise_dbm, rng)
    return Waveform(clean.samples + noise, clean.sample_rate_hz)


def _bipolar(bits) -> np.ndarray:
    return 2.0 * as_bit_array(bits).astype(float) - 1.0


def reference_correlate_preamble(soft_bits: np.ndarray,
                                 preamble) -> np.ndarray:
    x = np.asarray(soft_bits, dtype=float)
    p = _bipolar(preamble)
    if x.size < p.size:
        return np.zeros(0)
    windows = np.lib.stride_tricks.sliding_window_view(x, p.size)
    norms = np.linalg.norm(windows, axis=1) * np.linalg.norm(p)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = windows @ p / norms
    return np.nan_to_num(corr)


def reference_goertzel_block_powers(samples, block_size: int,
                                    frequencies_hz,
                                    sample_rate_hz: float) -> np.ndarray:
    x = np.asarray(samples, dtype=np.complex128)
    if block_size < 1:
        raise ValueError("block size must be >= 1")
    freqs = np.atleast_1d(np.asarray(frequencies_hz, dtype=float))
    num_blocks = x.size // block_size
    blocks = x[: num_blocks * block_size].reshape(num_blocks, block_size)
    t = np.arange(block_size) / sample_rate_hz
    # (num_freqs, block_size) conjugated tone matrix.
    tones = np.exp(-2j * np.pi * np.outer(freqs, t))
    spectra = blocks @ tones.T  # (num_blocks, num_freqs)
    powers = (np.abs(spectra) ** 2) / (block_size * block_size)
    return powers
