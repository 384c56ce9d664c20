"""Time-series link simulation — "dynamic and stationary environments".

Section 1 claims mmX "works in both dynamic and stationary
environments"; OTAM's whole point is surviving mobility without
re-searching beams.  :class:`TimelineSimulator` advances walkers through
the room in fixed steps, evaluates the link at every instant, and
produces SNR traces plus the outage/transition statistics a deployment
engineer would ask for: outage probability, mean outage duration, and
how often the OTAM polarity flips (each flip is a blockage event the
preamble absorbs instead of a re-beam-search).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .environment import Room
from .placement import Placement

__all__ = ["LinkTrace", "TimelineSimulator"]


@dataclass(frozen=True)
class LinkTrace:
    """A sampled time series of link quality."""

    times_s: np.ndarray
    otam_snr_db: np.ndarray
    no_otam_snr_db: np.ndarray
    inverted: np.ndarray
    """Boolean polarity state per sample (True = Beam 0 stronger)."""

    def outage_fraction(self, threshold_db: float = 10.0,
                        with_otam: bool = True) -> float:
        """Fraction of time below an SNR threshold."""
        series = self.otam_snr_db if with_otam else self.no_otam_snr_db
        if series.size == 0:
            return 0.0
        return float(np.mean(series < threshold_db))

    def outage_events(self, threshold_db: float = 10.0,
                      with_otam: bool = True) -> list[tuple[float, float]]:
        """(start_s, duration_s) of each contiguous outage interval."""
        series = self.otam_snr_db if with_otam else self.no_otam_snr_db
        below = series < threshold_db
        events = []
        start = None
        dt = float(self.times_s[1] - self.times_s[0]) if len(self.times_s) > 1 else 0.0
        for i, state in enumerate(below):
            if state and start is None:
                start = self.times_s[i]
            elif not state and start is not None:
                events.append((float(start), float(self.times_s[i] - start)))
                start = None
        if start is not None:
            events.append((float(start),
                           float(self.times_s[-1] - start + dt)))
        return events

    def mean_outage_duration_s(self, threshold_db: float = 10.0,
                               with_otam: bool = True) -> float:
        """Average length of an outage interval (0 when none occur)."""
        events = self.outage_events(threshold_db, with_otam)
        if not events:
            return 0.0
        return float(np.mean([d for _, d in events]))

    def polarity_flips(self) -> int:
        """Number of times the stronger beam changed — blockage events."""
        if self.inverted.size < 2:
            return 0
        return int(np.count_nonzero(np.diff(self.inverted.astype(int))))


class TimelineSimulator:
    """Steps walkers through a room and records link quality over time."""

    def __init__(self, room: Room, placement: Placement,
                 walkers: list | None = None,
                 time_step_s: float = 0.1):
        if time_step_s <= 0:
            raise ValueError("time step must be positive")
        self.room = room
        self.placement = placement
        self.walkers = walkers or []
        self.time_step_s = time_step_s

    def run(self, duration_s: float) -> LinkTrace:
        """Simulate ``duration_s`` seconds of the environment evolving.

        Each step every walker moves, the room's blocker set is
        refreshed, the channel is re-traced and the analytic link
        quality recorded.  Static obstacles already in the room are
        preserved.
        """
        # Imported here to avoid a package-level cycle (core.link pulls
        # in the channel package, which needs repro.sim initialised).
        from ..core.link import OtamLink

        if duration_s <= 0:
            raise ValueError("duration must be positive")
        steps = int(round(duration_s / self.time_step_s))
        static_blockers = list(self.room.blockers)
        times = np.arange(steps) * self.time_step_s
        otam = np.empty(steps)
        no_otam = np.empty(steps)
        inverted = np.empty(steps, dtype=bool)
        try:
            for i in range(steps):
                moving = [w.step(self.time_step_s) for w in self.walkers]
                self.room.blockers = static_blockers + moving
                link = OtamLink(placement=self.placement, room=self.room)
                breakdown = link.snr_breakdown()
                otam[i] = breakdown.otam_snr_db
                no_otam[i] = breakdown.no_otam_snr_db
                inverted[i] = breakdown.inverted
        finally:
            self.room.blockers = static_blockers
        return LinkTrace(times_s=times, otam_snr_db=otam,
                         no_otam_snr_db=no_otam, inverted=inverted)
