"""Fault events and the per-timestep link disturbance they compose into.

The seed repository scores every link at one frozen SNR; nothing ever
fails mid-run.  Real short-range mmWave deployments live in a transient
fault regime — people cross the beam, oscillators drift with
temperature, switches stick, batteries brown out, the unlicensed band
fills with other radios (Shokri-Ghadikolaei et al. on mmWave MAC design;
the paper's own section 9.2 blockage protocol).  This module defines the
vocabulary for that regime:

* :class:`FaultEvent` — one fault of a given *kind* occupying a time
  window with a kind-specific severity.
* :class:`LinkDisturbance` — the *composition* of all faults active at
  one instant, expressed as perturbations of the analytic link state
  (per-beam excess loss, VCO frequency offset, a welded SPDT, a dead
  node, a dead side channel, in-band interference power).

Both are plain frozen dataclasses with no dependency on the rest of the
package, so every layer (core link, resilience, energy) can consume
them without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["FAULT_KINDS", "FaultEvent", "LinkDisturbance", "NO_DISTURBANCE"]


FAULT_KINDS = (
    "blockage",
    "vco_drift",
    "stuck_beam",
    "dropout",
    "side_channel_outage",
    "interference",
    "ap_crash",
    "energy_outage",
)
"""Every fault class the injector knows how to schedule.

========================  ====================================================
blockage                  A body crossing (or parking in) the LoS; severity is
                          the excess loss [dB] the LoS beam pays.
vco_drift                 Thermal frequency drift of the node's free-running
                          VCO; severity is the peak carrier offset [Hz].
stuck_beam                The SPDT welds to one port; severity is the beam
                          index (0.0 or 1.0) the switch is stuck on.
dropout                   Node power brown-out: the carrier disappears
                          entirely and the channel assignment is lost.
side_channel_outage       The WiFi/BLE control link is down; no (re-)
                          initialization can complete while active.
interference              An in-band ISM transmitter lands on one FDM
                          channel; severity is its received power [dBm] at
                          the AP, ``channel_index`` says which channel.
ap_crash                  An entire access point goes down (power cut, kernel
                          panic); severity is the integer index of the AP in
                          its cluster.  Handled by the control plane
                          (:mod:`repro.cluster`), not the link model —
                          :meth:`FaultSchedule.disturbance_at` passes it
                          through untouched in ``active_kinds``.
energy_outage             The harvesting field collapses (illuminator blocked
                          or powered off); severity is the *fraction of
                          harvested power lost*, in [0, 1].  Consumed by the
                          energy layer (:mod:`repro.energy`) via the
                          ``harvest_scale`` disturbance field — the link
                          budget itself is untouched until the node's store
                          actually runs dry and it goes dormant.
========================  ====================================================
"""


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault occupying ``[start_s, start_s + duration_s)``."""

    kind: str
    start_s: float
    duration_s: float
    severity: float = 1.0
    channel_index: int | None = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        # Written so that NaN fails: every comparison with NaN is False.
        if not self.start_s >= 0:
            raise ValueError("fault cannot start before the run")
        if not self.duration_s > 0:
            raise ValueError("fault duration must be positive")
        if self.kind == "stuck_beam" and self.severity not in (0.0, 1.0):
            raise ValueError("stuck_beam severity is the beam index (0 or 1)")
        if self.kind == "interference" and self.channel_index is None:
            raise ValueError("interference events must name a channel")
        if self.kind == "ap_crash" and (
                self.severity < 0 or self.severity != int(self.severity)):
            raise ValueError("ap_crash severity is a non-negative AP index")
        if self.kind == "energy_outage" and not 0.0 <= self.severity <= 1.0:
            raise ValueError("energy_outage severity is the harvested-"
                             "power fraction lost, in [0, 1]")

    @property
    def end_s(self) -> float:
        """First instant the fault is no longer active."""
        return self.start_s + self.duration_s

    def active_at(self, time_s: float) -> bool:
        """Whether the fault is in force at an instant."""
        return self.start_s <= time_s < self.end_s

    def profile(self, time_s: float) -> float:
        """Severity scaling at an instant (0 when inactive).

        Most faults are rectangular (full severity for the whole
        window).  Thermal VCO drift ramps up and back down — a
        triangular profile peaking mid-window — because the oscillator
        walks away from and back to its calibration point as the die
        heats and cools.
        """
        if not self.active_at(time_s):
            return 0.0
        if self.kind == "vco_drift":
            phase = (time_s - self.start_s) / self.duration_s
            return 2.0 * min(phase, 1.0 - phase)
        return 1.0


@dataclass(frozen=True)
class LinkDisturbance:
    """All fault effects in force at one instant, composed.

    Field semantics match how :func:`repro.core.link.perturb_breakdown`
    applies them: losses subtract from the clean per-beam received
    levels, ``vco_offset_hz`` detunes both FSK tones off their Goertzel
    bins, ``stuck_beam`` collapses the ASK contrast (both symbols
    radiate through the welded port), ``interference_dbm`` adds to the
    victim's noise floor, and ``node_down`` silences everything.
    """

    beam1_extra_loss_db: float = 0.0
    beam0_extra_loss_db: float = 0.0
    vco_offset_hz: float = 0.0
    stuck_beam: int | None = None
    node_down: bool = False
    side_channel_up: bool = True
    interference_dbm: float = float("-inf")
    harvest_scale: float = 1.0
    """Multiplier on harvested power in force at this instant (1.0 =
    the field is intact, 0.0 = total energy outage).  Consumed by the
    :mod:`repro.energy` battery layer, not the link budget —
    :func:`repro.core.link.perturb_breakdown` ignores it, the same
    control-plane pass-through treatment ``ap_crash`` gets."""

    active_kinds: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.beam1_extra_loss_db < 0 or self.beam0_extra_loss_db < 0:
            raise ValueError("excess loss cannot be negative")
        if self.stuck_beam not in (None, 0, 1):
            raise ValueError("stuck beam must be None, 0 or 1")
        if not 0.0 <= self.harvest_scale <= 1.0:
            raise ValueError("harvest scale must be in [0, 1]")

    @property
    def has_interference(self) -> bool:
        """Whether in-band interference is landing on the victim."""
        return self.interference_dbm != float("-inf")


NO_DISTURBANCE = LinkDisturbance()
"""The fault-free disturbance (shared immutable instance)."""
