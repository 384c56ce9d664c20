"""The admission policy ladder: FDM first, SDM escalation, reject.

Section 7 of the paper describes the ladder implicitly: a node gets a
dedicated FDM channel sized to its rate demand while the band has room
(§7a), shares a channel through TMA spatial reuse when it does not
(§7b), and — at "billions of things" scale — is ultimately *blocked*
when neither works.  :class:`AdmissionController` makes the ladder an
explicit, instrumented object:

* ``admit`` walks the ladder once per arriving node and returns a
  :class:`AdmissionDecision` naming the rung it landed on;
* ``mark_interference`` runs **one batched re-admission pass** for an
  interferer sweep: victims are looked up with an indexed range query,
  all their spectrum is freed first, and only then is each re-admitted
  through the ladder — so early movers cannot steal the slots later
  victims are about to vacate, and no per-node block/probe loop runs;
* every transition feeds the ``admission.*`` telemetry family
  (admitted/blocked/evicted/reallocated counters, occupancy and
  fragmentation gauges) so saturation studies and chaos runs read the
  same export.

SDM's spectral side is modelled deterministically: spatial channel
``i`` of ``C`` maps to the fixed equal slice ``i`` of the managed band.
Real TMA reuse rides on existing FDM carriers; pinning slices instead
keeps SDM admissions independent of FDM churn, which is what makes the
saturation campaign byte-identical across serial and parallel runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..network.fdm import ChannelPlan, FdmAllocator, SpectrumExhausted
from ..network.sdm_scheduler import HARMONIC_COLLISION_RAD
from ..telemetry import NullRecorder, TelemetryRecorder
from .sdm import SdmAssignment, SdmPacker

if TYPE_CHECKING:  # pragma: no cover - import-cycle guard
    from ..energy.carrier import CarrierScheduler

__all__ = ["AdmissionDecision", "ReadmissionReport", "AdmissionController"]


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one walk down the admission ladder."""

    node_id: int
    state: str
    """``"fdm"``, ``"sdm"``, or ``"blocked"``."""

    plan: ChannelPlan | None
    """The dedicated (FDM) or shared-slice (SDM) channel, if admitted."""

    sdm: SdmAssignment | None
    """Spatial-reuse bookkeeping when the node landed on the SDM rung."""

    @property
    def admitted(self) -> bool:
        """Whether the node holds any channel at all."""
        return self.state != "blocked"


@dataclass(frozen=True)
class ReadmissionReport:
    """What one batched interference pass did to the hit nodes."""

    victims: tuple[int, ...]
    """Every node whose FDM channel overlapped the interferer."""

    moved: tuple[int, ...]
    """Victims that landed on a fresh FDM channel."""

    spilled_to_sdm: tuple[int, ...]
    """Victims the full band pushed onto the SDM rung."""

    evicted: tuple[int, ...]
    """Victims neither rung could take — they lost their channel."""


class _NodeState:
    """Mutable per-node admission record (slots keep 10⁶ of them cheap)."""

    __slots__ = ("rate_bps", "bearing_rad", "decision",
                 "illumination_duty")

    def __init__(self, rate_bps: float, bearing_rad: float | None,
                 decision: AdmissionDecision,
                 illumination_duty: float | None = None):
        self.rate_bps = rate_bps
        self.bearing_rad = bearing_rad
        self.decision = decision
        self.illumination_duty = illumination_duty


class AdmissionController:
    """FDM-first / SDM-escalation / reject admission over one band."""

    def __init__(self,
                 allocator: FdmAllocator | None = None,
                 sdm_channels: int = 8,
                 sdm_threshold_rad: float = HARMONIC_COLLISION_RAD,
                 sdm_max_probes: int = 16,
                 telemetry: TelemetryRecorder | None = None,
                 carrier: CarrierScheduler | None = None):
        if sdm_channels < 1:
            raise ValueError("need at least one SDM channel")
        self.allocator = allocator if allocator is not None \
            else FdmAllocator()
        self.sdm = SdmPacker(num_channels=sdm_channels,
                             threshold_rad=sdm_threshold_rad,
                             max_probes=sdm_max_probes)
        self.telemetry = telemetry if telemetry is not None \
            else NullRecorder()
        """Sink for the ``admission.*`` family.  The controller never
        advances the recorder's clock — the driver owns time."""
        self.carrier = carrier
        """Optional :class:`repro.energy.CarrierScheduler`.  When set,
        admissions that name an ``illumination_duty`` (backscatter
        tags) must *also* win illumination airtime — a tag consumes
        carrier time, not just spectrum — and blocked airtime unwinds
        the spectrum rung so a rejected tag holds nothing."""
        self._nodes: dict[int, _NodeState] = {}
        self._slice_hz = self.allocator.total_bandwidth_hz / sdm_channels

    # --- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def decision_for(self, node_id: int) -> AdmissionDecision:
        """The current admission state of one node."""
        try:
            return self._nodes[node_id].decision
        except KeyError:
            raise KeyError(f"node {node_id} is not admitted") from None

    @property
    def occupancy(self) -> float:
        """Committed fraction of the band (1 − free/total), in [0, 1]."""
        alloc = self.allocator
        return 1.0 - alloc.free_bandwidth_hz / alloc.total_bandwidth_hz

    @property
    def fragmentation(self) -> float:
        """Free-spectrum shredding metric (see
        :attr:`repro.network.fdm.FdmAllocator.fragmentation`)."""
        return self.allocator.fragmentation

    def counts(self) -> dict[str, int]:
        """Admitted-node census per ladder rung."""
        fdm = sdm = 0
        for state in self._nodes.values():
            if state.decision.state == "fdm":
                fdm += 1
            else:
                sdm += 1
        return {"fdm": fdm, "sdm": sdm, "total": len(self._nodes)}

    def _slice_plan(self, node_id: int, channel_index: int) -> ChannelPlan:
        """The fixed spectral slice backing one SDM spatial channel."""
        alloc = self.allocator
        center = alloc.band_low_hz + (channel_index + 0.5) * self._slice_hz
        return ChannelPlan(node_id=node_id, center_hz=center,
                           bandwidth_hz=self._slice_hz)

    def _gauges(self) -> None:
        tel = self.telemetry
        tel.gauge("admission.occupancy", self.occupancy)
        tel.gauge("admission.fragmentation", self.fragmentation)
        tel.gauge("admission.registered", float(len(self._nodes)))

    # --- the ladder -------------------------------------------------------

    def _try_fdm(self, node_id: int, rate_bps: float) -> ChannelPlan | None:
        try:
            return self.allocator.allocate(node_id, rate_bps)
        except SpectrumExhausted:
            return None

    def _try_sdm(self, node_id: int,
                 bearing_rad: float | None) -> AdmissionDecision | None:
        if bearing_rad is None:
            return None
        assignment = self.sdm.admit(node_id, bearing_rad)
        if assignment is None:
            return None
        plan = self._slice_plan(node_id, assignment.channel_index)
        return AdmissionDecision(node_id=node_id, state="sdm",
                                 plan=plan, sdm=assignment)

    def admit(self, node_id: int, rate_bps: float,
              bearing_rad: float | None = None,
              illumination_duty: float | None = None) -> AdmissionDecision:
        """Walk the ladder for one arriving node.

        FDM needs only the rate demand; the SDM rung additionally needs
        the node's arrival ``bearing_rad`` (spatial reuse is impossible
        without geometry — a bearing-less node skips straight from a
        full band to ``"blocked"``).

        ``illumination_duty`` marks a backscatter tag: besides a
        spectrum rung the tag must win that fraction of the AP's
        illumination airtime from the attached
        :class:`~repro.energy.CarrierScheduler`.  If the airtime budget
        refuses, the freshly won spectrum is handed back and the tag is
        ``"blocked"`` — it never holds a slot it cannot be heard on.
        """
        if node_id in self._nodes:
            raise ValueError(f"node {node_id} is already admitted")
        if illumination_duty is not None and self.carrier is None:
            raise ValueError("illumination_duty needs a CarrierScheduler "
                             "attached to the controller")
        tel = self.telemetry
        decision_or_none: AdmissionDecision | None = None
        plan = self._try_fdm(node_id, rate_bps)
        if plan is not None:
            decision_or_none = AdmissionDecision(
                node_id=node_id, state="fdm", plan=plan, sdm=None)
        else:
            decision_or_none = self._try_sdm(node_id, bearing_rad)
        if decision_or_none is not None and illumination_duty is not None:
            assert self.carrier is not None
            if not self.carrier.reserve(node_id, illumination_duty):
                # Unwind the spectrum rung: a tag without illumination
                # airtime is inaudible, so granting it a slot would
                # only shred the band.
                if decision_or_none.state == "fdm":
                    self.allocator.release(node_id)
                else:
                    self.sdm.release(node_id)
                decision_or_none = None
                if tel.enabled:
                    tel.count("admission.blocked_carrier")
        if decision_or_none is not None:
            self._nodes[node_id] = _NodeState(rate_bps, bearing_rad,
                                              decision_or_none,
                                              illumination_duty)
            if tel.enabled:
                tel.count("admission.admitted_fdm"
                          if decision_or_none.state == "fdm"
                          else "admission.admitted_sdm")
                self._gauges()
            return decision_or_none
        if tel.enabled:
            tel.count("admission.blocked")
        return AdmissionDecision(node_id=node_id, state="blocked",
                                 plan=None, sdm=None)

    def _release_carrier(self, state: _NodeState, node_id: int) -> None:
        """Hand an illuminated tag's airtime back (no-op otherwise)."""
        if state.illumination_duty is not None and self.carrier is not None \
                and node_id in self.carrier:
            self.carrier.release(node_id)

    def release(self, node_id: int) -> None:
        """Return a node's channel (whichever rung holds it)."""
        state = self._nodes.pop(node_id, None)
        if state is None:
            raise KeyError(f"node {node_id} is not admitted")
        if state.decision.state == "fdm":
            self.allocator.release(node_id)
        else:
            self.sdm.release(node_id)
        self._release_carrier(state, node_id)
        tel = self.telemetry
        if tel.enabled:
            tel.count("admission.released")
            self._gauges()

    # --- batched interference handling ------------------------------------

    def mark_interference(self, low_hz: float,
                          high_hz: float) -> ReadmissionReport:
        """Block a range and re-admit every hit node in one pass.

        This is the one code path that moves a node off blocked
        spectrum.  The batched discipline: (1) find the victims with an
        indexed range query, (2) block the range, (3) free **all**
        victim spectrum, (4) re-admit victims in node-id order through
        the full ladder.  Freeing everything before re-admitting means
        the pass is order-independent in what it vacates — a victim can
        take over another victim's old (still clean) spectrum, which
        per-node move loops structurally cannot do.

        A victim that no rung can take is **evicted** (its spectrum
        stays free): under an interferer sweep, keeping nodes parked on
        jammed spectrum only manufactures collisions.  The eviction
        shows up in the report and the ``admission.evicted`` counter.
        """
        victims = [plan.node_id for plan
                   in self.allocator.plans_overlapping(low_hz, high_hz)
                   if plan.node_id in self._nodes]
        victims.sort()
        self.allocator.block_range(low_hz, high_hz)
        for node_id in victims:
            self.allocator.release(node_id)
        moved: list[int] = []
        spilled: list[int] = []
        evicted: list[int] = []
        tel = self.telemetry
        for node_id in victims:
            state = self._nodes[node_id]
            plan = self._try_fdm(node_id, state.rate_bps)
            if plan is not None:
                state.decision = AdmissionDecision(
                    node_id=node_id, state="fdm", plan=plan, sdm=None)
                moved.append(node_id)
                if tel.enabled:
                    tel.count("admission.reallocated")
                continue
            decision_or_none = self._try_sdm(node_id, state.bearing_rad)
            if decision_or_none is not None:
                state.decision = decision_or_none
                spilled.append(node_id)
                if tel.enabled:
                    tel.count("admission.reallocated")
                    tel.count("admission.sdm_spill")
                continue
            self._release_carrier(state, node_id)
            del self._nodes[node_id]
            evicted.append(node_id)
            if tel.enabled:
                tel.count("admission.evicted")
        if tel.enabled:
            self._gauges()
            tel.event("admission.interference", low_hz=low_hz,
                      high_hz=high_hz, victims=len(victims),
                      moved=len(moved), spilled=len(spilled),
                      evicted=len(evicted))
        return ReadmissionReport(victims=tuple(victims),
                                 moved=tuple(moved),
                                 spilled_to_sdm=tuple(spilled),
                                 evicted=tuple(evicted))
