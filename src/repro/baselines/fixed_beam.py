"""Section 6's first strawman: a single fixed beam pointed by the user.

"One naive approach is to use an antenna array with a fixed beam, and
then ask the user to point the device towards the access point.
Unfortunately... when the line-of-sight path gets blocked, the signal
will be completely lost."  This node is mmX minus OTAM minus the second
beam — it quantifies what the second beam buys.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..antenna.orthogonal import OrthogonalBeamPair, measured_mmx_beams
from ..channel.multipath import beam_channel_gain
from ..channel.raytrace import trace_paths
from ..sim.placement import Placement
from ..units import amplitude_to_db

__all__ = ["FixedBeamNode"]


@dataclass
class FixedBeamNode:
    """A node that always transmits OOK through one broadside beam."""

    frequency_hz: float = 24.125e9
    beams: OrthogonalBeamPair = field(default_factory=measured_mmx_beams)

    def channel_gain(self, placement: Placement, room, ap_element,
                     max_bounces: int = 1) -> complex:
        """Complex channel gain through the single fixed beam (Beam 1)."""
        paths = trace_paths(placement.node_position, placement.ap_position,
                            room, max_bounces=max_bounces)
        return beam_channel_gain(
            paths,
            tx_field=lambda theta: self.beams.field(1, theta),
            rx_field=ap_element.field,
            tx_orientation_rad=placement.node_orientation_rad,
            rx_orientation_rad=placement.ap_orientation_rad,
            frequency_hz=self.frequency_hz,
        )

    def outage(self, placement: Placement, room, ap_element,
               noise_dbm: float, eirp_dbm: float = 10.0,
               ap_gain_dbi: float = 5.0,
               implementation_loss_db: float = 10.0,
               required_snr_db: float = 10.0) -> tuple[float, bool]:
        """(SNR dB, in-outage?) for this placement.

        The interesting cases are blocked-LoS placements, where the fixed
        beam has nothing to fall back on and drops into outage.
        """
        gain = abs(self.channel_gain(placement, room, ap_element))
        if gain <= 0.0:
            return float("-inf"), True
        level = (eirp_dbm + ap_gain_dbi - implementation_loss_db
                 + float(amplitude_to_db(gain)))
        snr = level - noise_dbm
        return snr, snr < required_snr_db
