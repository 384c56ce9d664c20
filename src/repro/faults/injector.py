"""Seeded composition of fault processes into reproducible schedules.

:class:`FaultInjector` owns the RNG discipline: one master seed spawns
one independent child stream per process (the same
``np.random.SeedSequence`` pattern as
:meth:`repro.engine.CampaignPlan.child_seeds`), so adding, removing or reordering one process never
perturbs the draws of another, and an entire chaos campaign regenerates
bit-identically from a single integer.

:class:`FaultSchedule` is the materialised result: a sorted event list
that can be queried for the composed :class:`LinkDisturbance` at any
instant, from the point of view of a victim on any FDM channel.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..units import dbm_to_milliwatts, milliwatts_to_dbm
from .events import NO_DISTURBANCE, FaultEvent, LinkDisturbance
from .processes import (
    EnergyOutageProcess,
    InterfererProcess,
    NodeDropoutProcess,
    PersistentBlockerProcess,
    SideChannelOutageProcess,
    StuckBeamProcess,
    TransientBlockerProcess,
    VcoDriftProcess,
)

__all__ = ["FaultSchedule", "FaultInjector", "SCENARIOS", "scenario_injector"]

NLOS_BLOCKAGE_FRACTION = 0.25
"""How much of a LoS blocker's loss the NLoS beam pays.

A body parked on the direct path only grazes the reflected path — the
whole reason OTAM's second beam exists (section 6.1)."""


class FaultSchedule:
    """An immutable, queryable set of scheduled fault events."""

    def __init__(self, events, duration_s: float):
        if duration_s <= 0:
            raise ValueError("schedule duration must be positive")
        self.events: tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.start_s, e.kind)))
        self.duration_s = float(duration_s)
        for event in self.events:
            if event.start_s >= self.duration_s:
                raise ValueError("event starts after the schedule ends")

    def active_at(self, time_s: float) -> tuple[FaultEvent, ...]:
        """All events in force at an instant."""
        return tuple(e for e in self.events if e.active_at(time_s))

    def kinds(self) -> tuple[str, ...]:
        """The distinct fault classes this schedule exercises (sorted)."""
        return tuple(sorted({e.kind for e in self.events}))

    def last_fault_end_s(self) -> float:
        """When the final fault clears (0 for an empty schedule)."""
        if not self.events:
            return 0.0
        return min(max(e.end_s for e in self.events), self.duration_s)

    def disturbance_at(self, time_s: float,
                       channel_index: int | None = None) -> LinkDisturbance:
        """Compose every active event into one link disturbance.

        ``channel_index`` is the victim's current FDM channel:
        interference events only land on a victim sharing the
        interferer's channel (``None`` matches any — the conservative
        single-link view).  Blockage losses add in dB (bodies stack),
        interference powers add linearly, drift offsets add, the most
        recent stuck-beam event wins, and energy-outage severities
        (harvest fractions lost) compose multiplicatively on the
        surviving harvest scale.
        """
        active = self.active_at(time_s)
        if not active:
            return NO_DISTURBANCE
        beam1_loss = 0.0
        beam0_loss = 0.0
        vco_offset = 0.0
        stuck: int | None = None
        node_down = False
        side_up = True
        interference_lin = 0.0
        harvest_scale = 1.0
        kinds = []
        for event in active:
            kinds.append(event.kind)
            if event.kind == "blockage":
                beam1_loss += event.severity * event.profile(time_s)
                beam0_loss += (NLOS_BLOCKAGE_FRACTION * event.severity
                               * event.profile(time_s))
            elif event.kind == "vco_drift":
                vco_offset += event.severity * event.profile(time_s)
            elif event.kind == "stuck_beam":
                stuck = int(event.severity)
            elif event.kind == "dropout":
                node_down = True
            elif event.kind == "side_channel_outage":
                side_up = False
            elif event.kind == "interference":
                if channel_index is None \
                        or event.channel_index == channel_index:
                    interference_lin += float(dbm_to_milliwatts(event.severity))
            elif event.kind == "energy_outage":
                harvest_scale *= 1.0 - event.severity
        interference_dbm = (float(milliwatts_to_dbm(interference_lin))
                            if interference_lin > 0 else float("-inf"))
        return LinkDisturbance(
            beam1_extra_loss_db=beam1_loss,
            beam0_extra_loss_db=beam0_loss,
            vco_offset_hz=vco_offset,
            stuck_beam=stuck,
            node_down=node_down,
            side_channel_up=side_up,
            interference_dbm=float(interference_dbm),
            harvest_scale=harvest_scale,
            active_kinds=tuple(sorted(set(kinds))),
        )


class FaultInjector:
    """Composes fault processes into seeded, reproducible schedules."""

    def __init__(self, processes, master_seed: int = 0):
        self.processes = tuple(processes)
        self.master_seed = int(master_seed)

    def schedule(self, duration_s: float,
                 quiet_tail_s: float = 0.0) -> FaultSchedule:
        """Materialise one run's schedule.

        Every process gets its own child generator spawned from the
        master seed, so the draw streams are independent and stable
        under process list edits (matching
        :meth:`~repro.engine.CampaignPlan.child_seeds`' discipline).

        ``quiet_tail_s`` reserves a fault-free window at the end of the
        run (events are generated over the shortened horizon and
        clipped to it) so recovery — post-fault SNR returning to the
        clean baseline — is always measurable.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if not 0.0 <= quiet_tail_s < duration_s:
            raise ValueError("quiet tail must fit inside the run")
        horizon = duration_s - quiet_tail_s
        ss = np.random.SeedSequence(self.master_seed)
        children = ss.spawn(len(self.processes))
        events: list[FaultEvent] = []
        for process, child in zip(self.processes, children):
            rng = np.random.default_rng(child)
            for event in process.events(rng, horizon):
                if event.end_s > horizon:
                    event = replace(event,
                                    duration_s=horizon - event.start_s)
                events.append(event)
        return FaultSchedule(events, duration_s)


def _blockage_processes():
    return [
        TransientBlockerProcess(rate_per_minute=8.0),
        PersistentBlockerProcess(start_s=8.0, duration_s=8.0),
    ]


def _interference_processes():
    return [InterfererProcess(start_s=5.0, duration_s=15.0,
                              power_dbm=-60.0, channel_index=0)]


def _dropout_processes():
    return [
        NodeDropoutProcess(rate_per_minute=4.0),
        SideChannelOutageProcess(start_s=10.0, duration_s=4.0),
    ]


def _stuck_beam_processes():
    return [StuckBeamProcess(start_s=6.0, duration_s=12.0, beam=1)]


def _drift_processes():
    return [VcoDriftProcess(start_s=5.0, duration_s=14.0,
                            peak_offset_hz=0.6e6)]


def _energy_outage_processes():
    return [EnergyOutageProcess(start_s=6.0, duration_s=12.0,
                                severity=1.0)]


def _kitchen_sink_processes():
    return [
        TransientBlockerProcess(rate_per_minute=6.0),
        PersistentBlockerProcess(start_s=4.0, duration_s=6.0),
        VcoDriftProcess(start_s=12.0, duration_s=6.0,
                        peak_offset_hz=0.5e6),
        StuckBeamProcess(start_s=20.0, duration_s=5.0, beam=1),
        NodeDropoutProcess(rate_per_minute=2.0),
        SideChannelOutageProcess(start_s=27.0, duration_s=2.0),
        InterfererProcess(start_s=14.0, duration_s=8.0,
                          power_dbm=-60.0, channel_index=0),
    ]


SCENARIOS = {
    "blockage": _blockage_processes,
    "interference": _interference_processes,
    "dropout": _dropout_processes,
    "stuck-beam": _stuck_beam_processes,
    "drift": _drift_processes,
    "energy-outage": _energy_outage_processes,
    "kitchen-sink": _kitchen_sink_processes,
}
"""Named fault scenarios the chaos experiment and CLI expose."""


def scenario_injector(name: str, master_seed: int = 0) -> FaultInjector:
    """Build the injector for a named scenario."""
    try:
        builder = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from "
            f"{', '.join(sorted(SCENARIOS))}") from None
    return FaultInjector(builder(), master_seed=master_seed)
