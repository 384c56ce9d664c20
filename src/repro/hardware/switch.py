"""ADRF5020 SPDT switch model (section 8.1).

The switch is the node's modulator: the digital controller toggles it to
steer the VCO tone into Beam 1 or Beam 0.  Its datasheet limits are load
bearing: the 100 MHz maximum toggle rate caps the node at 100 Mbps
(section 9.1), the <2 dB insertion loss sits in the EIRP budget, and the
65 dB isolation bounds how much carrier leaks into the *unselected* beam.
"""

from __future__ import annotations

from ..constants import (
    SWITCH_INSERTION_LOSS_DB,
    SWITCH_ISOLATION_DB,
    SWITCH_MAX_RATE_HZ,
)
from .components import ComponentSpec, RFComponent

__all__ = ["ADRF5020Switch"]


class ADRF5020Switch(RFComponent):
    """Behavioural SPDT: two output ports, one selected per data bit."""

    def __init__(self,
                 insertion_loss_db: float = SWITCH_INSERTION_LOSS_DB,
                 isolation_db: float = SWITCH_ISOLATION_DB,
                 max_rate_hz: float = SWITCH_MAX_RATE_HZ):
        if insertion_loss_db < 0:
            raise ValueError("insertion loss cannot be negative")
        if isolation_db <= insertion_loss_db:
            raise ValueError("isolation must exceed insertion loss")
        if max_rate_hz <= 0:
            raise ValueError("max switching rate must be positive")
        super().__init__(ComponentSpec(
            name="ADRF5020 SPDT", gain_db=-insertion_loss_db,
            noise_figure_db=insertion_loss_db, power_w=0.002, cost_usd=20.0))
        self.insertion_loss_db = insertion_loss_db
        self.isolation_db = isolation_db
        self.max_rate_hz = max_rate_hz

    @property
    def max_bitrate_bps(self) -> float:
        """One beam toggle per bit: bitrate cap equals the toggle rate."""
        return self.max_rate_hz

    def validate_bitrate(self, bitrate_bps: float) -> None:
        """Raise if a requested bitrate exceeds the switching limit."""
        if bitrate_bps <= 0:
            raise ValueError("bitrate must be positive")
        if bitrate_bps > self.max_rate_hz:
            raise ValueError(
                f"bitrate {bitrate_bps/1e6:.0f} Mbps exceeds the switch's "
                f"{self.max_rate_hz/1e6:.0f} MHz toggle limit")
