"""The mmX access point: down-converter, baseband processor, registry.

Fig. 3(b) plus the network-side duties of section 4: during
*initialization* the AP allocates each node a channel sized to its data
rate demand (over a WiFi/Bluetooth side link — here a direct method
call); during *transmission* it demodulates each node's capture with the
joint ASK-FSK decoder.

The AP keeps one demodulator per registered node and nothing else per
node: a node's channel lives in the allocator's spectrum book, and a
:class:`NodeRegistration` is assembled from the two on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..antenna.element import DipoleElement
from ..core.ask_fsk import AskFskConfig
from ..core.demodulator import DemodResult, JointDemodulator
from ..core.packet import Packet, PacketCodec, PacketError
from ..hardware.chains import AccessPointHardware
from ..network.fdm import ChannelPlan, FdmAllocator
from ..phy.waveform import Waveform

__all__ = ["NodeRegistration", "MmxAccessPoint"]


@dataclass(frozen=True)
class NodeRegistration:
    """The AP's record for one admitted node."""

    node_id: int
    channel: ChannelPlan
    config: AskFskConfig


class MmxAccessPoint:
    """A complete mmX AP device."""

    def __init__(self,
                 hardware: AccessPointHardware | None = None,
                 antenna: DipoleElement | None = None,
                 allocator: FdmAllocator | None = None,
                 codec: PacketCodec | None = None):
        self.hardware = hardware or AccessPointHardware()
        self.antenna = antenna or DipoleElement()
        self.allocator = allocator or FdmAllocator()
        self.codec = codec or PacketCodec()
        self._demodulators: dict[int, JointDemodulator] = {}

    # --- initialization phase --------------------------------------------------

    def register_node(self, node_id: int, demanded_rate_bps: float,
                      config: AskFskConfig | None = None) -> NodeRegistration:
        """Admit a node: allocate a channel sized to its rate demand.

        This is the once-only initialization of section 7(a), performed
        over the WiFi/Bluetooth module in hardware.  A full band raises
        :class:`~repro.network.fdm.SpectrumExhausted`, so cluster
        failover can walk on to the next AP in its preference order.
        """
        if node_id in self._demodulators:
            raise ValueError(f"node {node_id} is already registered")
        channel = self.allocator.allocate(node_id, demanded_rate_bps)
        if config is None:
            config = AskFskConfig(
                bit_rate_bps=demanded_rate_bps,
                sample_rate_hz=8 * demanded_rate_bps)
        self._demodulators[node_id] = JointDemodulator(config)
        return NodeRegistration(node_id=node_id, channel=channel,
                                config=config)

    def adopt_registration(self, node_id: int,
                           config: AskFskConfig) -> NodeRegistration:
        """Register a node on the channel the allocator already holds.

        The checkpoint-restore path: :meth:`register_node` would run a
        fresh first-fit and could land the node on a *different*
        channel; adoption attaches a demodulator to the exact pre-crash
        plan, which must already be present via
        :meth:`repro.network.fdm.FdmAllocator.restore_plan`.
        """
        if node_id in self._demodulators:
            raise ValueError(f"node {node_id} is already registered")
        channel = self.allocator.plan_for(node_id)
        self._demodulators[node_id] = JointDemodulator(config)
        return NodeRegistration(node_id=node_id, channel=channel,
                                config=config)

    def deregister_node(self, node_id: int) -> None:
        """Release a node's channel."""
        if self._demodulators.pop(node_id, None) is None:
            raise KeyError(f"node {node_id} is not registered")
        self.allocator.release(node_id)

    def registration(self, node_id: int) -> NodeRegistration:
        """Look up a node's registration: its allocator plan and its
        demodulator's numerology."""
        demod = self._demodulators.get(node_id)
        if demod is None:
            raise KeyError(f"node {node_id} is not registered")
        return NodeRegistration(node_id=node_id,
                                channel=self.allocator.plan_for(node_id),
                                config=demod.config)

    @property
    def registered_nodes(self) -> list[int]:
        """IDs of all admitted nodes."""
        return sorted(self._demodulators)

    # --- transmission phase -------------------------------------------------------

    def demodulate(self, node_id: int, capture: Waveform) -> DemodResult:
        """Run the joint ASK-FSK demodulator on one node's capture."""
        demod = self._demodulators.get(node_id)
        if demod is None:
            raise KeyError(f"node {node_id} is not registered")
        return demod.demodulate(capture)

    def receive_packet(self, node_id: int, capture: Waveform) -> Packet:
        """Demodulate a capture and decode the packet frame.

        Raises :class:`PacketError` if the frame cannot be recovered
        (bad preamble, truncation, CRC failure).
        """
        result = self.demodulate(node_id, capture)
        return self.codec.decode(result.bits)

    def try_receive_packet(self, node_id: int,
                           capture: Waveform) -> Packet | None:
        """Like :meth:`receive_packet` but returns None on frame loss."""
        try:
            return self.receive_packet(node_id, capture)
        except PacketError:
            return None
