"""The mmX access point: down-converter, baseband processor, registry.

Fig. 3(b) plus the network-side duties of section 4: during
*initialization* the AP allocates each node a channel sized to its data
rate demand (over a WiFi/Bluetooth side link — here a direct method
call); during *transmission* it demodulates each node's capture with the
joint ASK-FSK decoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..antenna.element import DipoleElement
from ..core.ask_fsk import AskFskConfig
from ..core.demodulator import DemodResult, JointDemodulator
from ..core.packet import Packet, PacketCodec, PacketError
from ..hardware.chains import AccessPointHardware
from ..network.fdm import ChannelPlan, FdmAllocator, SpectrumExhausted
from ..phy.waveform import Waveform

if TYPE_CHECKING:  # pragma: no cover - import-cycle guard
    from ..energy.carrier import CarrierScheduler
    from ..energy.classes import NodeClassSpec

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
                 codec: PacketCodec | None = None,
                 carrier: CarrierScheduler | None = None):
        self.hardware = hardware or AccessPointHardware()
        self.antenna = antenna or DipoleElement()
        self.allocator = allocator or FdmAllocator()
        self.carrier = carrier
        """Optional :class:`repro.energy.CarrierScheduler` — the AP's
        illumination-airtime budget for passive backscatter tags."""
        self.codec = codec or PacketCodec()
        self._registrations: dict[int, NodeRegistration] = {}
        self._demodulators: dict[int, JointDemodulator] = {}
        self._tma_assignments: dict[int, int] = {}
        self.reallocation_failures = 0

    # --- initialization phase --------------------------------------------------

    def register_node(self, node_id: int, demanded_rate_bps: float,
                      config: AskFskConfig | None = None) -> NodeRegistration:
        """Admit a node: allocate a channel sized to its rate demand.

        This is the once-only initialization of section 7(a), performed
        over the WiFi/Bluetooth module in hardware.  A full band raises
        :class:`~repro.network.fdm.SpectrumExhausted`, so cluster
        failover can walk on to the next AP in its preference order.
        """
        if node_id in self._registrations:
            raise ValueError(f"node {node_id} is already registered")
        channel = self.allocator.allocate(node_id, demanded_rate_bps)
        if config is None:
            config = AskFskConfig(
                bit_rate_bps=demanded_rate_bps,
                sample_rate_hz=8 * demanded_rate_bps)
        registration = NodeRegistration(node_id=node_id, channel=channel,
                                        config=config)
        self._registrations[node_id] = registration
        self._demodulators[node_id] = JointDemodulator(config)
        return registration

    def register_backscatter_node(self, node_id: int,
                                  illumination_duty: float,
                                  spec: NodeClassSpec | None = None,
                                  config: AskFskConfig | None = None
                                  ) -> NodeRegistration:
        """Admit a passive backscatter tag.

        A tag needs **two** grants where an active node needs one: a
        spectrum rung (the reflected sidebands still occupy band) *and*
        ``illumination_duty`` of this AP's carrier airtime — reflected
        bits only exist while the AP illuminates the tag.  Requires a
        :class:`~repro.energy.CarrierScheduler` (:attr:`carrier`).

        Spectrum is granted first, then airtime; an airtime miss unwinds
        the spectrum grant.  A blocked tag holds nothing and
        :class:`~repro.network.fdm.SpectrumExhausted` is raised, matching
        :meth:`register_node`'s failure signal.
        """
        from ..energy.classes import BACKSCATTER_CLASS, node_class

        if self.carrier is None:
            raise ValueError("backscatter registration needs a "
                             "CarrierScheduler on the AP")
        if node_id in self._registrations:
            raise ValueError(f"node {node_id} is already registered")
        tag = spec if spec is not None else node_class(BACKSCATTER_CLASS)
        if tag.modulation != "backscatter-ask":
            raise ValueError(f"node class {tag.name!r} is not a "
                             "backscatter class")
        channel = self.allocator.allocate(node_id, tag.bitrate_bps)
        if not self.carrier.reserve(node_id, illumination_duty):
            self.allocator.release(node_id)
            raise SpectrumExhausted(
                f"no illumination airtime for tag {node_id}")
        if config is None:
            from ..energy.backscatter import backscatter_config

            config = backscatter_config(tag.bitrate_bps)
        registration = NodeRegistration(node_id=node_id, channel=channel,
                                        config=config)
        self._registrations[node_id] = registration
        self._demodulators[node_id] = JointDemodulator(config)
        return registration

    def adopt_registration(self, node_id: int, channel: ChannelPlan,
                           config: AskFskConfig) -> NodeRegistration:
        """Install a registration whose channel the allocator already holds.

        The checkpoint-restore path: :meth:`register_node` would run a
        fresh first-fit and could land the node on a *different*
        channel; adoption re-attaches the exact pre-crash plan (which
        must already be present via
        :meth:`repro.network.fdm.FdmAllocator.restore_plan`).
        """
        if node_id in self._registrations:
            raise ValueError(f"node {node_id} is already registered")
        held = self.allocator.plan_for(node_id)
        if (held.center_hz != channel.center_hz
                or held.bandwidth_hz != channel.bandwidth_hz):
            raise ValueError(
                f"node {node_id}: adopted channel disagrees with the "
                f"allocator's plan")
        registration = NodeRegistration(node_id=node_id, channel=channel,
                                        config=config)
        self._registrations[node_id] = registration
        self._demodulators[node_id] = JointDemodulator(config)
        return registration

    def deregister_node(self, node_id: int) -> None:
        """Release a node's channel (and any TMA slot it held)."""
        reg = self._registrations.pop(node_id, None)
        if reg is None:
            raise KeyError(f"node {node_id} is not registered")
        self._demodulators.pop(node_id, None)
        self._tma_assignments.pop(node_id, None)
        self.allocator.release(node_id)
        # A tag also holds a carrier grant the allocator knows nothing
        # about.
        if self.carrier is not None and node_id in self.carrier:
            self.carrier.release(node_id)

    def registration(self, node_id: int) -> NodeRegistration:
        """Look up a node's registration."""
        try:
            return self._registrations[node_id]
        except KeyError:
            raise KeyError(f"node {node_id} is not registered") from None

    @property
    def registered_nodes(self) -> list[int]:
        """IDs of all admitted nodes."""
        return sorted(self._registrations)

    # --- resilience hooks ------------------------------------------------------

    def mark_interference(self, low_hz: float, high_hz: float) -> list[int]:
        """Record an in-band interferer; returns the node IDs it hits.

        The spectrum range is blocked in the allocator so future
        allocations avoid it; nodes whose channels overlap it are
        returned so the caller (typically a
        :class:`repro.resilience.LinkSupervisor`) can decide to
        :meth:`reallocate_node` them.
        """
        self.allocator.block_range(low_hz, high_hz)
        probe = ChannelPlan(node_id=-1, center_hz=(low_hz + high_hz) / 2.0,
                            bandwidth_hz=high_hz - low_hz)
        # Indexed range query instead of a scan over every
        # registration; same strict-overlap predicate, same result.
        return sorted(plan.node_id for plan
                      in self.allocator.plans_overlapping(probe.low_hz,
                                                          probe.high_hz)
                      if plan.node_id in self._registrations)

    def reallocate_node(self, node_id: int) -> NodeRegistration | None:
        """Move a node's FDM channel away from blocked spectrum.

        Preserves the node's bandwidth and demodulator (including any
        attached health monitor); only the channel plan changes.

        Degrades gracefully when the allocator has no clean channel
        left: the node keeps its old (interfered) registration, the
        failure is counted in :attr:`reallocation_failures` (surfaced
        by :meth:`stats`), and ``None`` is returned — a congested band
        must never strand a node without *any* channel, nor crash the
        supervisor that asked for the move.
        """
        reg = self.registration(node_id)
        try:
            channel = self.allocator.reallocate(node_id)
        except SpectrumExhausted:
            self.reallocation_failures += 1
            return None
        updated = NodeRegistration(node_id=node_id, channel=channel,
                                   config=reg.config)
        self._registrations[node_id] = updated
        return updated

    # --- SDM / TMA bookkeeping -------------------------------------------------

    def assign_tma_slot(self, node_id: int, harmonic_index: int) -> None:
        """Record which TMA harmonic a (SDM-sharing) node is hashed to.

        The assignment is part of the AP's control-plane state — it
        must survive a crash/restore cycle along with the FDM map, which
        is why :mod:`repro.cluster.checkpoint` serialises it.
        """
        if node_id not in self._registrations:
            raise KeyError(f"node {node_id} is not registered")
        if harmonic_index < 0:
            raise ValueError("harmonic index cannot be negative")
        self._tma_assignments[node_id] = int(harmonic_index)

    @property
    def tma_assignments(self) -> dict[int, int]:
        """Node -> TMA harmonic index for every SDM-sharing node."""
        return dict(self._tma_assignments)

    def stats(self) -> dict:
        """Control-plane health counters for operators and chaos gates."""
        stats = {
            "registered_nodes": len(self._registrations),
            "tma_assignments": len(self._tma_assignments),
            "reallocation_failures": self.reallocation_failures,
            "allocated_bandwidth_hz": self.allocator.allocated_bandwidth_hz,
            "blocked_ranges": len(self.allocator.blocked_ranges),
        }
        if self.carrier is not None:
            stats["carrier_grants"] = len(self.carrier)
            stats["carrier_utilization"] = self.carrier.utilization
        return stats

    def attach_health_monitor(self, node_id: int, monitor) -> None:
        """Attach a :class:`repro.resilience.LinkHealthMonitor` to one
        node's demodulator, so every capture feeds its health estimate."""
        demod = self._demodulators.get(node_id)
        if demod is None:
            raise KeyError(f"node {node_id} is not registered")
        demod.health_monitor = monitor

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
