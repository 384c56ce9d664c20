"""The indexed fault schedule answers every query as the full scan did.

:class:`~repro.faults.FaultSchedule` bisects a sorted edge table for the
active set and composes each (segment, channel) pair once, except in
drift segments.  :class:`ScanSchedule` (``tests/fault_schedule_reference.py``)
keeps the scan-and-compose queries it replaced.  Both must agree by
``repr`` (same bits, same types, same event order) at every event edge,
one ulp either side of it, on the chaos step grid and at times no run
asks for.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    FAULT_KINDS,
    NO_DISTURBANCE,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    TransientBlockerProcess,
    scenario_injector,
)

from .fault_schedule_reference import ScanSchedule

DURATION_S = 12.0
CHANNELS = (None, 0, 1)
GRID_S = [0.1 * k for k in range(int(DURATION_S / 0.1))]
"""The chaos loop's step times: ``np.arange(steps) * time_step_s``."""

ODD_TIMES_S = [-1.0, math.inf, math.nan]

_EDGY_TIMES = st.one_of(
    st.floats(min_value=0.0, max_value=9.0),
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 4.0, 6.0]))
"""Event times, often on a coarse grid so edges coincide."""


@st.composite
def _events(draw):
    """One valid event of any fault kind."""
    kind = draw(st.sampled_from(FAULT_KINDS))
    start = draw(_EDGY_TIMES)
    duration = draw(st.one_of(st.floats(min_value=0.05, max_value=6.0),
                              st.sampled_from([0.5, 1.0, 2.0, 4.0])))
    channel = None
    if kind == "blockage":
        severity = draw(st.floats(min_value=0.0, max_value=45.0))
    elif kind == "vco_drift":
        severity = draw(st.floats(min_value=1.0, max_value=3e6))
    elif kind == "stuck_beam":
        severity = float(draw(st.sampled_from((0, 1))))
    elif kind == "interference":
        severity = draw(st.floats(min_value=-95.0, max_value=-40.0))
        channel = draw(st.sampled_from((0, 1)))
    elif kind == "ap_crash":
        severity = float(draw(st.integers(min_value=0, max_value=2)))
    elif kind == "energy_outage":
        severity = draw(st.floats(min_value=0.0, max_value=1.0))
    else:
        severity = 1.0
    return FaultEvent(kind=kind, start_s=start, duration_s=duration,
                      severity=severity, channel_index=channel)


def _probe_times(schedule):
    """Every edge, one ulp either side, the step grid and odd times."""
    times = []
    for event in schedule.events:
        for edge in (event.start_s, event.end_s):
            times += [math.nextafter(edge, -math.inf), edge,
                      math.nextafter(edge, math.inf)]
    return times + GRID_S + ODD_TIMES_S


def _assert_matches_scan(schedule, times):
    scan = ScanSchedule(schedule)
    for t in times:
        assert repr(schedule.active_at(t)) == repr(scan.active_at(t)), t
        for channel in CHANNELS:
            assert (repr(schedule.disturbance_at(t, channel))
                    == repr(scan.disturbance_at(t, channel))), (t, channel)


class TestIndexMatchesScan:
    @given(st.lists(_events(), max_size=10), st.randoms())
    @settings(max_examples=150, deadline=None)
    def test_random_schedules(self, events, random):
        schedule = FaultSchedule(events, DURATION_S)
        times = _probe_times(schedule)
        # A segment is composed at its first query, wherever in the
        # segment that falls: ask in a drawn order, then again.
        random.shuffle(times)
        _assert_matches_scan(schedule, times)
        _assert_matches_scan(schedule, times)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("scenario", ["drift", "kitchen-sink"])
    def test_scenario_schedules(self, scenario, seed):
        schedule = scenario_injector(scenario, seed).schedule(
            30.0, quiet_tail_s=3.0)
        _assert_matches_scan(schedule, _probe_times(schedule)
                             + [0.1 * k for k in range(300)])

    @pytest.mark.parametrize("start, duration", [
        (math.nan, 1.0), (1.0, math.nan), (1.0, math.inf), (8.0, 1e-16)])
    def test_events_that_never_end_or_never_start(self, start, duration):
        """An endless event and an end that rounds onto the start are
        indexed like the scan; an event with a NaN time is refused."""
        if math.isnan(start) or math.isnan(duration):
            with pytest.raises(ValueError):
                FaultEvent("blockage", start, duration, severity=10.0)
            return
        events = [FaultEvent("blockage", start, duration, severity=10.0),
                  FaultEvent("dropout", 0.5, 2.0)]
        schedule = FaultSchedule(events, DURATION_S)
        _assert_matches_scan(schedule, _probe_times(schedule)
                             + [1e16, -math.inf])

    def test_nan_schedule_duration_is_refused(self):
        """A NaN or infinite duration is refused before anything runs
        (the injector's Poisson loop would never end on an infinite
        horizon)."""
        for duration in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                FaultSchedule([FaultEvent("dropout", 0.5, 2.0)], duration)
            with pytest.raises(ValueError):
                FaultInjector([TransientBlockerProcess()]).schedule(duration)

    def test_empty_schedule(self):
        schedule = FaultSchedule([], DURATION_S)
        _assert_matches_scan(schedule, GRID_S + ODD_TIMES_S)
        assert schedule.disturbance_at(1.0) is NO_DISTURBANCE


class TestComposedOncePerSegment:
    def test_steady_segment_returns_one_object(self):
        schedule = FaultSchedule(
            [FaultEvent("blockage", 1.0, 4.0, severity=20.0),
             FaultEvent("interference", 2.0, 1.0, severity=-60.0,
                        channel_index=0)], DURATION_S)
        first = schedule.disturbance_at(1.0, 0)
        assert schedule.disturbance_at(1.9, 0) is first
        # Another segment, and another channel, are composed apart.
        assert schedule.disturbance_at(2.0, 0) is not first
        assert schedule.disturbance_at(1.5, 1) is not first
        assert schedule.disturbance_at(1.5, 1) \
            is schedule.disturbance_at(1.0, 1)

    def test_drift_segment_composes_per_query(self):
        schedule = FaultSchedule(
            [FaultEvent("vco_drift", 1.0, 4.0, severity=5e5)], DURATION_S)
        early = schedule.disturbance_at(1.5)
        late = schedule.disturbance_at(3.0)
        assert early.vco_offset_hz < late.vco_offset_hz
        assert schedule.disturbance_at(1.5) is not early
        assert schedule.disturbance_at(1.5) == early
