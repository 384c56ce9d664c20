"""Antenna substrate: element patterns, arrays, and the mmX beam pair.

The mmX node has no phase shifters — just two fixed 2-patch arrays wired
for in-phase (Beam 1, broadside) and anti-phase (Beam 0, split toward
±30°) excitation (sections 6.2 and 8.1).  This subpackage synthesises
those patterns analytically, provides the AP dipole, and implements a
conventional phased array for the beam-searching baselines.
"""

from .array import UniformLinearArray, array_factor
from .element import PatchElement, DipoleElement, IsotropicElement
from .orthogonal import OrthogonalBeamPair, design_mmx_beams, measured_mmx_beams
from .patterns import (
    half_power_beamwidth_deg,
    find_null_directions_deg,
    peak_direction_deg,
    pattern_orthogonality_db,
    directivity_dbi,
)
from .phased_array import PhasedArray

__all__ = [
    "DipoleElement",
    "IsotropicElement",
    "OrthogonalBeamPair",
    "PatchElement",
    "PhasedArray",
    "UniformLinearArray",
    "array_factor",
    "design_mmx_beams",
    "directivity_dbi",
    "find_null_directions_deg",
    "half_power_beamwidth_deg",
    "measured_mmx_beams",
    "pattern_orthogonality_db",
    "peak_direction_deg",
]
