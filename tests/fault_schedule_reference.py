"""Reference fault-schedule queries: scan every event, then compose.

These are :meth:`repro.faults.FaultSchedule.active_at` and
:meth:`~repro.faults.FaultSchedule.disturbance_at` as they were before
the schedule indexed its events, kept verbatim so the differential
tests can demand ``repr``-equal disturbances (same bits, same types)
from the indexed path.  :class:`ScanSchedule` wraps a schedule's event
tuple; its two methods also patch onto :class:`FaultSchedule` itself,
which is how the chaos slow path queries by scanning.  It shares only
the data types, ``NLOS_BLOCKAGE_FRACTION`` and the ``units`` converters
with the program.
"""

from __future__ import annotations

from repro.faults.events import NO_DISTURBANCE, FaultEvent, LinkDisturbance
from repro.faults.injector import NLOS_BLOCKAGE_FRACTION
from repro.units import dbm_to_milliwatts, milliwatts_to_dbm


class ScanSchedule:
    """A schedule's events, queried by a full scan on every call."""

    def __init__(self, schedule):
        self.events: tuple[FaultEvent, ...] = schedule.events

    def active_at(self, time_s: float) -> tuple[FaultEvent, ...]:
        """All events in force at an instant."""
        return tuple(e for e in self.events if e.active_at(time_s))

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
