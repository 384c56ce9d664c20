"""Base types for RF component models."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ComponentSpec", "RFComponent"]


@dataclass(frozen=True)
class ComponentSpec:
    """The per-component quantities the paper's arguments rest on.

    The cost/power case against conventional mmWave radios (section 1,
    "High power consumption" / "Expensive hardware") is made entirely in
    these terms, so every modelled part carries them.
    """

    name: str
    gain_db: float = 0.0
    noise_figure_db: float = 0.0
    power_w: float = 0.0
    cost_usd: float = 0.0

    def __post_init__(self):
        if self.power_w < 0:
            raise ValueError("power draw cannot be negative")
        if self.cost_usd < 0:
            raise ValueError("cost cannot be negative")


class RFComponent:
    """An RF stage with a spec; chains cascade these.

    Subclasses add behaviour (tuning curves, switching limits...).  For
    passive/lossy stages ``gain_db`` is negative and the noise figure of a
    passive device equals its loss, which subclasses enforce where it
    applies.
    """

    def __init__(self, spec: ComponentSpec):
        self.spec = spec

    @property
    def gain_db(self) -> float:
        """Small-signal power gain [dB] (negative = loss)."""
        return self.spec.gain_db

    @property
    def noise_figure_db(self) -> float:
        """Stage noise figure [dB]."""
        return self.spec.noise_figure_db

    @property
    def power_w(self) -> float:
        """DC power draw [W]."""
        return self.spec.power_w

    @property
    def cost_usd(self) -> float:
        """Unit cost [USD]."""
        return self.spec.cost_usd
