"""The mmX orthogonal beam pair (sections 6.2 and 8.1).

Each mmX node carries two fixed 2-patch arrays behind the SPDT switch:

* **Beam 1** — patches excited in phase: a broadside lobe at 0°.
* **Beam 0** — patches excited with 180° phase difference: a null at
  broadside and two peaks at about ±30°.

The paper adds that "the distance between antenna elements corresponding
to Beam 1 is properly designed to create a null at ±30°, so that the two
beams are orthogonal".  For a 2-element array with spacing ``d``:

* in-phase array factor  ``|2 cos(pi d/lambda sin(theta))|`` — null where
  ``d/lambda sin(theta) = 1/2``;
* anti-phase array factor ``|2 sin(pi d/lambda sin(theta))|`` — null at
  broadside, peak where ``d/lambda sin(theta) = 1/2``.

Choosing ``d = lambda`` for both arrays therefore puts Beam 1's null
exactly on Beam 0's ±30° peaks and vice versa — the mutual-null structure
of Fig. 8 drops out of the geometry with no phase shifters anywhere.

:class:`ParametricBeam` follows the two-path contract of
:mod:`repro.units`: a finite ``float`` angle (``np.float64`` included)
is evaluated on Python floats and returns a ``float`` with the bits the
0-d array path returns, while arrays and non-finite angles keep the
numpy path.  The channel tier evaluates one path at a time, so it runs
on the float path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..constants import BEAM0_PEAK_DEG, CARRIER_FREQUENCY_HZ
from ..units import db_to_amplitude, wavelength
from .array import UniformLinearArray
from .element import _DEGREES_PER_RADIAN, PatchElement

__all__ = ["OrthogonalBeamPair", "design_mmx_beams", "ParametricBeam",
           "measured_mmx_beams"]


@dataclass(frozen=True)
class OrthogonalBeamPair:
    """The node's two switchable beams, as peak-normalised patterns.

    The absolute gain is not stored here: the link budget starts from
    the node's radiated EIRP (:data:`repro.constants.NODE_EIRP_DBM`),
    which already includes the ~8 dBi peak gain of a 2-element patch
    array.
    """

    beam1: object
    beam0: object

    def __post_init__(self):
        # Both beams radiate the same total power (they share the one
        # VCO), but Beam 0 splits its power across two arms.  Patterns
        # come peak-normalised from the array model, so rescale Beam 0
        # to match Beam 1's integrated power — its per-arm peak then
        # sits the physical ~2-3 dB below Beam 1's single lobe, as the
        # measured Fig. 8 shows.
        grid = np.linspace(-np.pi, np.pi, 1441)
        p1 = float(np.trapezoid(self.beam1.field(grid) ** 2, grid))
        p0 = float(np.trapezoid(self.beam0.field(grid) ** 2, grid))
        object.__setattr__(self, "_beam0_scale",
                           float(np.sqrt(p1 / p0)) if p0 > 0 else 1.0)

    def pattern(self, bit: int):
        """The beam selected when the data bit is ``bit`` (0 or 1).

        Either a :class:`~repro.antenna.array.UniformLinearArray`
        (analytic design) or a :class:`ParametricBeam` (measured fit) —
        anything exposing ``field`` / ``power_db``.
        """
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        return self.beam1 if bit == 1 else self.beam0

    def field(self, bit: int, theta_rad) -> np.ndarray:
        """Field amplitude of the selected beam, power-normalised.

        Beam 1's peak is 1.0; Beam 0 carries the equal-power rescale
        (see ``__post_init__``), so its arm peaks come out below 1.0.
        """
        value = self.pattern(bit).field(theta_rad)
        if bit == 0:
            value = value * self._beam0_scale
        return value


@dataclass(frozen=True)
class ParametricBeam:
    """A beam pattern built from Gaussian lobes, notches and a floor.

    This is the standard way to encode a *measured* antenna cut: each
    lobe is a Gaussian in dB (-3 dB at half its width off its centre),
    the overall response never falls below ``floor_db`` (fabricated
    boards always leak), and explicit notches carve the deep nulls the
    measurement shows.
    """

    lobes: tuple[tuple[float, float], ...]
    """(centre_deg, 3dB-width_deg) per lobe."""

    notches: tuple[tuple[float, float, float], ...] = ()
    """(centre_deg, depth_db, width_deg) per forced null."""

    floor_db: float = -18.0
    """Leakage floor relative to the pattern peak."""

    def power_db(self, theta_rad) -> np.ndarray:
        """Power pattern [dB relative to the strongest lobe peak].

        A finite ``float`` returns a ``float`` (see the module
        docstring); anything else takes the numpy path.
        """
        if isinstance(theta_rad, float) and math.isfinite(theta_rad):
            value = self._scalar_power_db(theta_rad)
            if value is not None:
                return value
        theta_deg = np.degrees(np.asarray(theta_rad, dtype=float))

        def wrapped_delta(centre):
            return (theta_deg - centre + 180.0) % 360.0 - 180.0

        value = np.full_like(theta_deg, -np.inf, dtype=float)
        for centre, width in self.lobes:
            delta = wrapped_delta(centre)
            value = np.maximum(value, -3.0 * (2.0 * delta / width) ** 2)
        value = np.maximum(value, self.floor_db)
        for centre, depth, width in self.notches:
            delta = np.abs(wrapped_delta(centre))
            notch = depth * np.exp(-0.5 * (delta / (width / 2.0)) ** 2)
            value = value + notch
        return value

    def _scalar_power_db(self, theta_rad: float) -> float | None:
        """:meth:`power_db` of one finite angle, on Python floats.

        Each step returns the bits numpy's scalar arithmetic returned:
        degrees as numpy computes them (``x * (180 / pi)``, where
        ``math.degrees`` divides), Python ``%`` (numpy's scalar
        remainder rule), ``** 2`` (libm ``pow``), ``max`` for
        ``np.maximum`` and ``np.exp`` on the bare float, because
        ``math.exp`` differs from numpy's ``exp`` in the last bit.
        None (an angle whose degrees overflow, a zero or overflowing
        width) hands the angle to the array path, which warns.
        """
        theta_deg = theta_rad * _DEGREES_PER_RADIAN
        if math.isinf(theta_deg):
            return None
        value = -math.inf
        try:
            for centre, width in self.lobes:
                delta = (theta_deg - centre + 180.0) % 360.0 - 180.0
                value = max(value, -3.0 * (2.0 * delta / width) ** 2)
            value = max(value, float(self.floor_db))
            for centre, depth, width in self.notches:
                delta = abs((theta_deg - centre + 180.0) % 360.0 - 180.0)
                exponent = -0.5 * (delta / (width / 2.0)) ** 2
                value = value + depth * float(np.exp(exponent))
        except (ZeroDivisionError, OverflowError):
            return None
        return value

    def field(self, theta_rad) -> np.ndarray:
        """Field amplitude relative to the pattern peak."""
        return db_to_amplitude(self.power_db(theta_rad))


def measured_mmx_beams() -> OrthogonalBeamPair:
    """The node beams as a parametric fit to the *measured* Fig. 8 cut.

    Where :func:`design_mmx_beams` derives the patterns from first
    principles (2-element array factors), this fits what the paper
    actually measured in the anechoic chamber: Beam 1 a single 40°-wide
    broadside lobe with deep nulls at ±30°; Beam 0 two 40°-wide arms at
    ±30° with a deep null at broadside; both with a realistic -18 dB
    fabrication floor, and enough gain left at the ±60° field-of-view
    edge that the node's quoted 120° FoV holds.  The links use this
    pair by default — evaluation should run against the measured
    antenna, not its idealisation.

    The pair is built on first use and shared: every call returns the
    same frozen instance, so a link does not re-integrate both patterns.
    """
    return _measured_mmx_beams()


@functools.cache
def _measured_mmx_beams() -> OrthogonalBeamPair:
    beam1 = ParametricBeam(
        lobes=((0.0, 40.0),),
        notches=((-30.0, -25.0, 6.0), (30.0, -25.0, 6.0)),
    )
    beam0 = ParametricBeam(
        lobes=((-30.0, 40.0), (30.0, 40.0)),
        notches=((0.0, -25.0, 6.0),),
    )
    return OrthogonalBeamPair(beam1=beam1, beam0=beam0)


def design_mmx_beams(frequency_hz: float = CARRIER_FREQUENCY_HZ,
                     back_lobe_db: float = -20.0,
                     beam1_element_exponent: float = 2.0,
                     beam0_element_exponent: float = 0.5
                     ) -> OrthogonalBeamPair:
    """Synthesise the mmX node's beam pair at a carrier frequency.

    Spacing is ``lambda`` (see module docstring) so Beam 0 peaks land at
    ±30° (:data:`repro.constants.BEAM0_PEAK_DEG`) and the two patterns
    are mutually nulled.

    The element exponents fit each array's envelope to the *measured*
    Fig. 8 cut: the in-phase array shows a clean single lobe with its
    off-axis response suppressed below about -10 dB (a wide-element
    analytic model would leave a -6 dB grating shoulder at ±55° that
    the fabricated board does not exhibit), while the anti-phase array
    keeps useful gain out to the ±60° field-of-view edge.  Two 2-patch
    arrays with separate feed networks on different board regions do
    not share one element pattern, so fitting them separately is the
    honest way to match the measurement.
    """
    lam = float(wavelength(frequency_hz))
    # d/lambda = 1/(2 sin(peak)) puts the anti-phase peak (and the
    # in-phase null) exactly at the designed +-30 degrees.
    spacing = lam / (2.0 * np.sin(np.radians(BEAM0_PEAK_DEG)))
    beam1 = UniformLinearArray(
        PatchElement(back_lobe_db=back_lobe_db,
                     exponent=beam1_element_exponent),
        num_elements=2, spacing_m=spacing, frequency_hz=frequency_hz,
        weights=np.array([1.0, 1.0]))
    beam0 = UniformLinearArray(
        PatchElement(back_lobe_db=back_lobe_db,
                     exponent=beam0_element_exponent),
        num_elements=2, spacing_m=spacing, frequency_hz=frequency_hz,
        weights=np.array([1.0, -1.0]))
    return OrthogonalBeamPair(beam1=beam1, beam0=beam0)
