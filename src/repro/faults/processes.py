"""Fault processes: generators of :class:`FaultEvent` schedules.

Each process knows how to emit the events of one fault class over a run
of a given duration.  Stochastic processes (Poisson blocker crossings,
random brown-outs) draw every random quantity from the generator they
are *handed* — they own no RNG state — so the :class:`~repro.faults.
injector.FaultInjector` can apply the same one-master-seed, one-child-
stream-per-process discipline as :class:`repro.engine.CampaignPlan`
and every chaos run regenerates bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import FaultEvent

__all__ = [
    "TransientBlockerProcess",
    "PersistentBlockerProcess",
    "VcoDriftProcess",
    "StuckBeamProcess",
    "NodeDropoutProcess",
    "SideChannelOutageProcess",
    "InterfererProcess",
    "ApCrashProcess",
    "EnergyOutageProcess",
]


def _check_window(start_s: float, duration_s: float) -> None:
    if start_s < 0:
        raise ValueError("fault window cannot start before the run")
    if duration_s <= 0:
        raise ValueError("fault window must have positive duration")


@dataclass(frozen=True)
class TransientBlockerProcess:
    """Poisson stream of people walking through the line of sight.

    Each crossing blocks the LoS beam for 0.5-2 s (a person at walking
    pace spans the first Fresnel zone for about that long) and costs
    a draw from the paper's 20-35 dB blocked-path excess band.
    """

    rate_per_minute: float = 6.0
    crossing_s: tuple[float, float] = (0.5, 2.0)
    loss_db: tuple[float, float] = (20.0, 35.0)

    def __post_init__(self):
        if self.rate_per_minute <= 0:
            raise ValueError("crossing rate must be positive")
        if not 0 < self.crossing_s[0] <= self.crossing_s[1]:
            raise ValueError("invalid crossing duration range")
        if not 0 < self.loss_db[0] <= self.loss_db[1]:
            raise ValueError("invalid blockage loss range")

    def events(self, rng: np.random.Generator,
               duration_s: float) -> list[FaultEvent]:
        """Draw one run's crossings."""
        events = []
        t = float(rng.exponential(60.0 / self.rate_per_minute))
        while t < duration_s:
            events.append(FaultEvent(
                kind="blockage", start_s=t,
                duration_s=float(rng.uniform(*self.crossing_s)),
                severity=float(rng.uniform(*self.loss_db))))
            t += float(rng.exponential(60.0 / self.rate_per_minute))
        return events


@dataclass(frozen=True)
class PersistentBlockerProcess:
    """One person parking in the LoS for a fixed window (§9.2 protocol)."""

    start_s: float = 5.0
    duration_s: float = 10.0
    loss_db: float = 27.5

    def __post_init__(self):
        _check_window(self.start_s, self.duration_s)
        if self.loss_db <= 0:
            raise ValueError("blockage loss must be positive")

    def events(self, rng: np.random.Generator,
               duration_s: float) -> list[FaultEvent]:
        """The single deterministic blockage window (RNG unused)."""
        if self.start_s >= duration_s:
            return []
        return [FaultEvent(kind="blockage", start_s=self.start_s,
                           duration_s=self.duration_s,
                           severity=self.loss_db)]


@dataclass(frozen=True)
class VcoDriftProcess:
    """Thermal frequency drift of the node's free-running VCO.

    The node has no feedback path, so nothing corrects the drift; the
    FSK tones walk off the AP's Goertzel bins and back as the die heats
    and cools (triangular profile, see :meth:`FaultEvent.profile`).
    """

    start_s: float = 5.0
    duration_s: float = 10.0
    peak_offset_hz: float = 0.5e6

    def __post_init__(self):
        _check_window(self.start_s, self.duration_s)
        if self.peak_offset_hz <= 0:
            raise ValueError("peak drift must be positive")

    def events(self, rng: np.random.Generator,
               duration_s: float) -> list[FaultEvent]:
        """The single deterministic drift window (RNG unused)."""
        if self.start_s >= duration_s:
            return []
        return [FaultEvent(kind="vco_drift", start_s=self.start_s,
                           duration_s=self.duration_s,
                           severity=self.peak_offset_hz)]


@dataclass(frozen=True)
class StuckBeamProcess:
    """The SPDT welds onto one port for a window.

    With the switch stuck, every bit radiates through the same beam:
    the received amplitude no longer depends on the data and the ASK
    contrast collapses to zero.  The FSK dimension survives — the VCO
    nudge still happens — which is exactly the joint-modulation
    redundancy argument of section 6.3.
    """

    start_s: float = 5.0
    duration_s: float = 10.0
    beam: int = 1

    def __post_init__(self):
        _check_window(self.start_s, self.duration_s)
        if self.beam not in (0, 1):
            raise ValueError("beam index must be 0 or 1")

    def events(self, rng: np.random.Generator,
               duration_s: float) -> list[FaultEvent]:
        """The single deterministic stuck-switch window (RNG unused)."""
        if self.start_s >= duration_s:
            return []
        return [FaultEvent(kind="stuck_beam", start_s=self.start_s,
                           duration_s=self.duration_s,
                           severity=float(self.beam))]


@dataclass(frozen=True)
class NodeDropoutProcess:
    """Random node power brown-outs (battery sag, harvester starvation).

    While down the node radiates nothing and — like a real cold boot —
    forgets its channel assignment, so it must re-initialize over the
    side channel before transmitting again.
    """

    rate_per_minute: float = 1.0
    outage_s: tuple[float, float] = (1.0, 4.0)

    def __post_init__(self):
        if self.rate_per_minute <= 0:
            raise ValueError("dropout rate must be positive")
        if not 0 < self.outage_s[0] <= self.outage_s[1]:
            raise ValueError("invalid outage duration range")

    def events(self, rng: np.random.Generator,
               duration_s: float) -> list[FaultEvent]:
        """Draw one run's brown-outs."""
        events = []
        t = float(rng.exponential(60.0 / self.rate_per_minute))
        while t < duration_s:
            width = float(rng.uniform(*self.outage_s))
            events.append(FaultEvent(kind="dropout", start_s=t,
                                     duration_s=width))
            t += width + float(rng.exponential(60.0 / self.rate_per_minute))
        return events


@dataclass(frozen=True)
class SideChannelOutageProcess:
    """The WiFi/BLE control link goes down for a window."""

    start_s: float = 5.0
    duration_s: float = 5.0

    def __post_init__(self):
        _check_window(self.start_s, self.duration_s)

    def events(self, rng: np.random.Generator,
               duration_s: float) -> list[FaultEvent]:
        """The single deterministic outage window (RNG unused)."""
        if self.start_s >= duration_s:
            return []
        return [FaultEvent(kind="side_channel_outage", start_s=self.start_s,
                           duration_s=self.duration_s)]


@dataclass(frozen=True)
class InterfererProcess:
    """An in-band ISM transmitter lands on one FDM channel.

    The 24 GHz ISM band is unlicensed; a radar sensor or another
    network can key up on spectrum the AP already allocated.  The
    interferer raises the victim channel's noise floor by its received
    power at the AP until it stops — or until the AP moves the victim
    to a clean channel (the resilience layer's job).
    """

    start_s: float = 5.0
    duration_s: float = 10.0
    power_dbm: float = -65.0
    channel_index: int = 0

    def __post_init__(self):
        _check_window(self.start_s, self.duration_s)
        if self.channel_index < 0:
            raise ValueError("channel index cannot be negative")

    def events(self, rng: np.random.Generator,
               duration_s: float) -> list[FaultEvent]:
        """The single deterministic interference window (RNG unused)."""
        if self.start_s >= duration_s:
            return []
        return [FaultEvent(kind="interference", start_s=self.start_s,
                           duration_s=self.duration_s,
                           severity=self.power_dbm,
                           channel_index=self.channel_index)]


@dataclass(frozen=True)
class EnergyOutageProcess:
    """The harvesting field collapses for a window.

    Someone parks a forklift in front of the power illuminator, the
    illuminator reboots, or the facility sheds its wireless-power
    budget: every harvesting node in the field loses ``severity`` of
    its harvested power for the window (Khan et al. treat illuminator
    availability as the dominant outage mode — a rectenna has no
    battery truck to fall back on).  Unlike a ``dropout`` this does
    not silence the node instantly: the store drains, the node goes
    *dormant*, and it must be recognised as sleeping-not-dead by the
    resilience and cluster layers.
    """

    start_s: float = 5.0
    duration_s: float = 10.0
    severity: float = 1.0
    """Fraction of harvested power lost, in (0, 1]."""

    def __post_init__(self):
        _check_window(self.start_s, self.duration_s)
        if not 0.0 < self.severity <= 1.0:
            raise ValueError("severity is the harvest fraction lost, "
                             "in (0, 1]")

    def events(self, rng: np.random.Generator,
               duration_s: float) -> list[FaultEvent]:
        """The single deterministic outage window (RNG unused)."""
        if self.start_s >= duration_s:
            return []
        return [FaultEvent(kind="energy_outage", start_s=self.start_s,
                           duration_s=self.duration_s,
                           severity=self.severity)]


@dataclass(frozen=True)
class ApCrashProcess:
    """One access point goes down hard for a window.

    A power cut or firmware panic takes the *whole* control plane with
    it: every registration, the FDM spectrum map, the TMA assignments.
    The node-side faults above degrade one link; this one strands every
    node the AP serves — which is why it is handled by
    :class:`repro.cluster.Cluster` (heartbeat detection + failover +
    checkpointed reboot) rather than the link-level disturbance model.
    """

    start_s: float = 5.0
    duration_s: float = 10.0
    ap_index: int = 0

    def __post_init__(self):
        _check_window(self.start_s, self.duration_s)
        if self.ap_index < 0:
            raise ValueError("AP index cannot be negative")

    def events(self, rng: np.random.Generator,
               duration_s: float) -> list[FaultEvent]:
        """The single deterministic crash window (RNG unused)."""
        if self.start_s >= duration_s:
            return []
        return [FaultEvent(kind="ap_crash", start_s=self.start_s,
                           duration_s=self.duration_s,
                           severity=float(self.ap_index))]
