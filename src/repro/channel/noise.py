"""Receiver noise: thermal floor and AWGN sample generation."""

from __future__ import annotations

import numpy as np

from ..constants import THERMAL_NOISE_DBM_PER_HZ
from ..rng import ensure_rng
from ..units import dbm_to_milliwatts, linear_to_db

__all__ = ["noise_power_dbm", "complex_awgn"]


def noise_power_dbm(bandwidth_hz: float, noise_figure_db: float = 0.0) -> float:
    """Noise power [dBm] in a bandwidth, including receiver noise figure."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    return (THERMAL_NOISE_DBM_PER_HZ + float(linear_to_db(bandwidth_hz))
            + noise_figure_db)


def complex_awgn(samples: np.ndarray, power_dbm: float,
                 rng: np.random.Generator | None = None) -> np.ndarray:
    """Add complex Gaussian noise of total power ``power_dbm`` to a capture.

    The noise lives in the same "dBm-referenced amplitude" currency the
    channel gains use: an amplitude of 1.0 corresponds to 0 dBm, so power
    ``p`` dBm maps to mean |x|^2 of ``10^(p/10)``.  ``samples`` must be a
    writeable complex128 array; the noise is added to it in place and it
    is returned.  Every I sample is drawn before every Q sample, one
    half-size buffer reused for both, so a seed gives the same capture
    as drawing ``I + 1j * Q`` whole.
    """
    if samples.dtype != np.complex128:
        raise TypeError("noise is added to a complex128 capture")
    rng = ensure_rng(rng)
    power_lin = float(dbm_to_milliwatts(power_dbm))
    sigma = np.sqrt(power_lin / 2.0)
    draw = np.empty(samples.shape)
    for part in (samples.real, samples.imag):
        rng.standard_normal(out=draw)
        draw *= sigma
        part += draw
    return samples
