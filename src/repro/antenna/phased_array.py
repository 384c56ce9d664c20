"""Conventional phased array — the hardware mmX *avoids* needing.

The beam-searching baselines (section 3, "mmWave Beam Alignment") steer a
phased array across candidate directions.  This model includes the two
costs the paper holds against phased arrays: quantised phase shifters and
per-element power/cost overhead (each element needs one LNA/PA and one
phase shifter — footnote 6 and section 6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..units import wavelength
from .array import UniformLinearArray
from .element import PatchElement

__all__ = ["PhasedArray"]

# Paper section "Expensive hardware": amplifier $220, phase shifter $150.
_COST_PER_ELEMENT_USD = 220.0 + 150.0
# Section 6: "A phased array with even a small number of antennas
# (8 elements) consumes more than a watt" -> ~0.15 W per element.
_POWER_PER_ELEMENT_W = 0.15


@dataclass
class PhasedArray:
    """An N-element half-wavelength ULA with quantised phase shifters."""

    num_elements: int
    frequency_hz: float
    phase_bits: int = 5
    element: object = None

    def __post_init__(self):
        if self.num_elements < 2:
            raise ValueError("a phased array needs at least 2 elements")
        if self.phase_bits < 1:
            raise ValueError("phase shifters need at least 1 bit")
        if self.element is None:
            self.element = PatchElement()
        self.spacing_m = float(wavelength(self.frequency_hz)) / 2.0

    @property
    def power_consumption_w(self) -> float:
        """Array power draw: one LNA/PA + phase shifter per element."""
        return self.num_elements * _POWER_PER_ELEMENT_W

    @property
    def cost_usd(self) -> float:
        """Array BOM cost from the paper's per-component prices."""
        return self.num_elements * _COST_PER_ELEMENT_USD

    def _quantise(self, phases_rad: np.ndarray) -> np.ndarray:
        step = 2.0 * np.pi / (1 << self.phase_bits)
        return np.round(phases_rad / step) * step

    def steered_pattern(self, steer_theta_rad: float) -> UniformLinearArray:
        """Pattern with the main lobe steered to a direction.

        Phase-shifter quantisation is applied, so very fine steering
        angles collapse onto the nearest realisable beam — one reason
        codebook beam search uses a finite set of directions.
        """
        lam = wavelength(self.frequency_hz)
        n = np.arange(self.num_elements)
        ideal = -2.0 * np.pi * self.spacing_m / lam * n * np.sin(steer_theta_rad)
        weights = np.exp(1j * self._quantise(ideal))
        return UniformLinearArray(self.element, self.num_elements,
                                  self.spacing_m, self.frequency_hz,
                                  weights=weights)

    def codebook_directions_rad(self, num_beams: int | None = None) -> np.ndarray:
        """A uniform-in-sine steering codebook covering ±90°.

        Defaults to ``num_elements`` beams — the resolution limit of the
        array — matching how exhaustive search enumerates beams.
        """
        count = num_beams or self.num_elements
        if count < 1:
            raise ValueError("codebook needs at least one beam")
        sines = np.linspace(-0.9, 0.9, count)
        return np.arcsin(sines)
