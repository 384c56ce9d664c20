"""Receiver noise: thermal floor and AWGN sample generation."""

from __future__ import annotations

import numpy as np

from ..constants import THERMAL_NOISE_DBM_PER_HZ
from ..rng import ensure_rng
from ..units import dbm_to_milliwatts, linear_to_db

__all__ = ["CaptureNoise", "complex_awgn", "noise_power_dbm"]


def noise_power_dbm(bandwidth_hz: float, noise_figure_db: float = 0.0) -> float:
    """Noise power [dBm] in a bandwidth, including receiver noise figure."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    return (THERMAL_NOISE_DBM_PER_HZ + float(linear_to_db(bandwidth_hz))
            + noise_figure_db)


class CaptureNoise:
    """Receiver noise for one capture, added to it block by block.

    The noise lives in the same "dBm-referenced amplitude" currency the
    channel gains use: an amplitude of 1.0 corresponds to 0 dBm, so power
    ``p`` dBm maps to mean |x|^2 of ``10^(p/10)``.

    Every I sample of the capture is drawn first, when the noise is made,
    into one float buffer half a capture long.  Each block then adds its
    I slice and draws its Q samples into that spent slice, so the stream
    gives every I sample before any Q sample however the capture is cut:
    the blocks get the noise of ``I + 1j * Q`` drawn whole.  Drawing I and
    Q block by block would change the noise.
    """

    def __init__(self, num_samples: int, power_dbm: float,
                 rng: np.random.Generator | None = None):
        self._rng = ensure_rng(rng)
        self._sigma = np.sqrt(float(dbm_to_milliwatts(power_dbm)) / 2.0)
        self._draws = np.empty(num_samples)
        self._rng.standard_normal(out=self._draws)
        self._used = 0

    def add(self, block: np.ndarray) -> np.ndarray:
        """Add the next ``block.size`` samples' noise to ``block`` in place.

        ``block`` must be a writeable complex128 array; it is returned.
        """
        if block.dtype != np.complex128:
            raise TypeError("noise is added to a complex128 capture")
        stop = self._used + block.size
        if stop > self._draws.size:
            raise ValueError("block runs past the end of the capture")
        draw = self._draws[self._used:stop].reshape(block.shape)
        self._used = stop
        draw *= self._sigma
        block.real += draw
        self._rng.standard_normal(out=draw)
        draw *= self._sigma
        block.imag += draw
        return block


def complex_awgn(samples: np.ndarray, power_dbm: float,
                 rng: np.random.Generator | None = None) -> np.ndarray:
    """Add complex Gaussian noise of total power ``power_dbm`` to a capture.

    ``samples`` must be a writeable complex128 array; the noise is added
    to it in place and it is returned.  The capture is one block of
    :class:`CaptureNoise`, so one half-size buffer serves both its I and
    its Q draws.
    """
    return CaptureNoise(samples.size, power_dbm, rng).add(samples)
