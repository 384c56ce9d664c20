"""Uniform linear arrays and array-factor math.

All angles are azimuth angles theta [rad] measured from the array's
broadside (boresight).  Element n sits at position ``n * spacing`` along
the array axis, so the phase advance toward direction theta is
``2*pi/lambda * n * d * sin(theta)`` — the convention used in the paper's
TMA equation (Eq. 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..units import amplitude_to_db, wavelength

__all__ = ["array_factor", "UniformLinearArray"]


def array_factor(theta_rad, weights, spacing_m: float,
                 frequency_hz: float) -> np.ndarray:
    """Complex array factor for arbitrary per-element complex weights.

    Parameters
    ----------
    theta_rad:
        Azimuth angle(s) from broadside [rad].
    weights:
        Complex excitation per element (amplitude and phase).
    spacing_m:
        Inter-element spacing [m].
    frequency_hz:
        Carrier frequency [Hz].

    Returns the complex sum ``sum_n w_n exp(j 2 pi n d sin(theta)/lambda)``.
    """
    theta = np.atleast_1d(np.asarray(theta_rad, dtype=float))
    w = np.asarray(weights, dtype=np.complex128).ravel()
    if w.size == 0:
        raise ValueError("need at least one element weight")
    if spacing_m <= 0:
        raise ValueError("element spacing must be positive")
    lam = wavelength(frequency_hz)
    n = np.arange(w.size)
    phase = 2.0 * np.pi * spacing_m / lam * np.outer(np.sin(theta), n)
    result = np.exp(1j * phase) @ w
    return result if np.ndim(theta_rad) else result[0]


@dataclass(frozen=True)
class UniformLinearArray:
    """A ULA of identical elements with fixed complex excitation.

    Combines the element pattern (pattern multiplication principle) with
    the array factor.  ``field`` returns amplitude normalised so the peak
    over [-pi, pi] is 1.0, making patterns directly comparable to the
    paper's normalised Fig. 8.
    """

    element: object
    num_elements: int
    spacing_m: float
    frequency_hz: float
    weights: np.ndarray = None

    def __post_init__(self):
        if self.num_elements < 1:
            raise ValueError("array needs at least one element")
        if self.spacing_m <= 0:
            raise ValueError("element spacing must be positive")
        w = self.weights
        if w is None:
            w = np.ones(self.num_elements, dtype=np.complex128)
        w = np.asarray(w, dtype=np.complex128).ravel()
        if w.size != self.num_elements:
            raise ValueError("weights length must match num_elements")
        object.__setattr__(self, "weights", w)
        # Precompute normalisation over a fine azimuth grid.
        grid = np.linspace(-np.pi, np.pi, 3601)
        peak = float(np.max(np.abs(self._raw_field(grid))))
        object.__setattr__(self, "_peak", peak if peak > 0 else 1.0)

    def _raw_field(self, theta_rad) -> np.ndarray:
        af = array_factor(theta_rad, self.weights, self.spacing_m,
                          self.frequency_hz)
        return self.element.field(theta_rad) * np.abs(af)

    def field(self, theta_rad) -> np.ndarray:
        """Normalised field amplitude (1.0 at the pattern peak)."""
        return self._raw_field(theta_rad) / self._peak

    def power_db(self, theta_rad) -> np.ndarray:
        """Normalised power pattern [dB relative to the pattern peak]."""
        amp = self.field(theta_rad)
        return amplitude_to_db(np.maximum(amp, 1e-12))
