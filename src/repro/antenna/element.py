"""Single-antenna element models: patch, dipole and isotropic reference.

Patterns are azimuth cuts (the plane the paper's Fig. 8 measures): a
function of angle theta [rad] measured from the element's boresight, and
return *field amplitude* relative to the boresight peak (1.0 at peak).
Power patterns are the square of these amplitudes.

:class:`DipoleElement` follows the two-path contract of
:mod:`repro.units`: a finite ``float`` angle (``np.float64`` included)
is evaluated on Python floats and returns a ``float`` with the bits the
0-d array path returns, while arrays and non-finite angles keep the
numpy path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..units import db_to_amplitude

__all__ = ["PatchElement", "DipoleElement"]

_DEGREES_PER_RADIAN = 180.0 / math.pi
"""The factor ``np.degrees`` multiplies by (``math.degrees`` divides)."""


@dataclass(frozen=True)
class PatchElement:
    """Microstrip patch: broad forward lobe, weak back lobe.

    The analytic approximation for a patch cut is ``cos(theta)^q`` over
    the forward hemisphere.  ``q = 1`` is the textbook E-plane shape;
    the azimuth (H-plane) cut of a fabricated patch is broader, and the
    paper's measured Fig. 8 pattern keeps useful gain out to the ±60°
    field-of-view edge, so the default is ``q = 0.5``.  ``back_lobe_db``
    sets the rear leakage floor (typical for RO4835 boards).
    """

    back_lobe_db: float = -20.0
    exponent: float = 1.0

    def field(self, theta_rad) -> np.ndarray:
        """Field amplitude at azimuth angle(s) theta from boresight."""
        theta = np.asarray(theta_rad, dtype=float)
        cos = np.cos(theta)
        forward = np.where(cos > 0.0, np.power(np.maximum(cos, 0.0),
                                               self.exponent), 0.0)
        floor = db_to_amplitude(self.back_lobe_db)
        return np.maximum(forward, floor)


@dataclass(frozen=True)
class DipoleElement:
    """The AP's dipole: 5 dBi gain, 62 deg 3-dB beamwidth (section 8.2).

    Modelled as a Gaussian-shaped main lobe in dB — the standard
    engineering fit for a measured single-lobe pattern — with a -15 dB
    floor outside the lobe.
    """

    gain_dbi: float = 5.0
    beamwidth_deg: float = 62.0
    floor_db: float = -15.0

    def power_db(self, theta_rad) -> np.ndarray:
        """Power pattern [dB relative to peak] with Gaussian main lobe.

        A finite ``float`` returns a ``float`` (see the module
        docstring): degrees as ``np.degrees`` computes them, ``** 2``
        (libm ``pow``, as numpy's scalar power) and ``max`` in place of
        ``np.maximum`` give the bits of the 0-d array path.
        """
        if isinstance(theta_rad, float) and math.isfinite(theta_rad):
            value = self._scalar_power_db(theta_rad)
            if value is not None:
                return value
        theta_deg = np.degrees(np.asarray(theta_rad, dtype=float))
        # Gaussian lobe: -3 dB at +-beamwidth/2.
        lobe = -3.0 * (2.0 * theta_deg / self.beamwidth_deg) ** 2
        return np.maximum(lobe, self.floor_db)

    def _scalar_power_db(self, theta_rad: float) -> float | None:
        """:meth:`power_db` of one finite angle, on Python floats.

        None (an angle whose degrees overflow, a zero beamwidth) hands
        the angle to the array path, which warns.
        """
        theta_deg = theta_rad * _DEGREES_PER_RADIAN
        if math.isinf(theta_deg):
            return None
        try:
            lobe = -3.0 * (2.0 * theta_deg / self.beamwidth_deg) ** 2
        except (ZeroDivisionError, OverflowError):
            return None
        return float(max(lobe, self.floor_db))

    def field(self, theta_rad) -> np.ndarray:
        """Field amplitude relative to the peak."""
        return db_to_amplitude(self.power_db(theta_rad))
