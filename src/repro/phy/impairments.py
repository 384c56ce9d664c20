"""Receiver/transmitter impairments: CFO, phase noise, quantisation.

The mmX node's VCO is free-running (no PLL — that is half the cost
saving), so the AP sees a carrier frequency offset of tens to hundreds
of kHz plus phase noise; the USRP's ADC quantises.  These models let the
sample-level pipeline be exercised under realistic hardware dirt, and
the tests pin down how much of each the joint ASK-FSK demodulator
tolerates — the robustness argument behind using such coarse
modulations in the first place.
"""

from __future__ import annotations

import numpy as np

from ..rng import ensure_rng
from ..units import db_to_amplitude
from .waveform import Waveform

__all__ = [
    "apply_cfo",
    "apply_phase_noise",
    "quantize",
    "apply_iq_imbalance",
]


def apply_cfo(wave: Waveform, offset_hz: float) -> Waveform:
    """Shift a waveform by a carrier frequency offset.

    A free-running HMC533 drifts with temperature and supply; 10 ppm at
    24 GHz is 240 kHz.  OTAM tolerates this because the FSK decision
    compares *two tone powers* whose frequencies drift together, and
    the ASK decision ignores frequency entirely.
    """
    t = np.arange(wave.samples.size) / wave.sample_rate_hz
    shifted = wave.samples * np.exp(2j * np.pi * offset_hz * t)
    return Waveform(shifted, wave.sample_rate_hz)


def apply_phase_noise(wave: Waveform, linewidth_hz: float,
                      rng: np.random.Generator | None = None) -> Waveform:
    """Apply Wiener (random-walk) phase noise with a given 3 dB linewidth.

    The standard oscillator model: phase increments are Gaussian with
    variance ``2 pi * linewidth / fs`` per sample.
    """
    if linewidth_hz < 0:
        raise ValueError("linewidth cannot be negative")
    if linewidth_hz == 0:
        return Waveform(wave.samples.copy(), wave.sample_rate_hz)
    rng = ensure_rng(rng)
    sigma = np.sqrt(2.0 * np.pi * linewidth_hz / wave.sample_rate_hz)
    phase = np.cumsum(sigma * rng.standard_normal(wave.samples.size))
    return Waveform(wave.samples * np.exp(1j * phase), wave.sample_rate_hz)


def quantize(wave: Waveform, bits: int,
             full_scale: float | None = None) -> Waveform:
    """Quantise I and Q to a ``bits``-bit ADC.

    ``full_scale`` defaults to the waveform's peak magnitude (an ideal
    AGC); smaller values clip, larger values waste dynamic range — both
    faithful failure modes of a real capture.
    """
    if bits < 1:
        raise ValueError("need at least 1 bit")
    x = wave.samples
    if full_scale is None:
        peak = float(np.max(np.abs(x))) if x.size else 1.0
        full_scale = peak if peak > 0 else 1.0
    levels = 2 ** (bits - 1)
    step = full_scale / levels

    def q(component: np.ndarray) -> np.ndarray:
        clipped = np.clip(component, -full_scale, full_scale - step)
        return np.round(clipped / step) * step

    return Waveform(q(x.real) + 1j * q(x.imag), wave.sample_rate_hz)


def apply_iq_imbalance(wave: Waveform, gain_db: float = 0.5,
                       phase_deg: float = 2.0) -> Waveform:
    """Apply receiver I/Q gain and phase imbalance.

    The standard model: ``y = mu * x + nu * conj(x)`` with mu/nu derived
    from the gain/phase mismatch.  Creates an image tone — which for
    two-tone FSK lands on the *other* tone's frequency, so the tests
    check the demodulator survives typical (fractional-dB) imbalance.
    """
    g = float(db_to_amplitude(gain_db))
    phi = np.radians(phase_deg)
    mu = 0.5 * (1.0 + g * np.exp(1j * phi))
    nu = 0.5 * (1.0 - g * np.exp(1j * phi))
    return Waveform(mu * wave.samples + nu * np.conj(wave.samples),
                    wave.sample_rate_hz)
