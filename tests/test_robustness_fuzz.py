"""Robustness/fuzz tests: hostile inputs must fail loudly, never wrongly.

A networking library meets malformed frames, truncated captures and
garbage bits constantly.  These tests check the failure *containment*
contracts: the packet codec either returns the exact payload or raises
``PacketError`` (never silently corrupt data), the demodulator never
crashes on arbitrary sample streams, and the geometry/trace code
survives degenerate rooms.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ask_fsk import AskFskConfig
from repro.core.demodulator import JointDemodulator
from repro.core.packet import Packet, PacketCodec, PacketError
from repro.channel.raytrace import trace_paths
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultSchedule,
)
from repro.faults.processes import NodeDropoutProcess, TransientBlockerProcess
from repro.network.tma import TimeModulatedArray
from repro.phy.waveform import Waveform
from repro.resilience import ChaosSimulation, LinkHealthMonitor
from repro.sim.environment import Blocker, Room, Wall
from repro.sim.geometry import Point, Segment

CONFIG = AskFskConfig(bit_rate_bps=1e6, sample_rate_hz=8e6)


class TestPacketCodecContainment:
    """CRC must catch corruption: correct payload or PacketError."""

    @given(st.binary(min_size=1, max_size=64),
           st.lists(st.integers(min_value=0, max_value=10_000),
                    min_size=1, max_size=8),
           st.booleans())
    @settings(max_examples=60)
    def test_corruption_never_yields_wrong_payload(self, payload,
                                                   flip_seeds, use_fec):
        codec = PacketCodec(use_fec=use_fec)
        frame = codec.encode(Packet(payload=payload, sequence=1))
        corrupted = frame.copy()
        for seed in flip_seeds:
            corrupted[seed % corrupted.size] ^= 1
        try:
            decoded = codec.decode(corrupted)
        except PacketError:
            return  # loud failure is the desired outcome
        # If it decodes, it must decode *correctly* (FEC repaired it, or
        # the flips cancelled).  A wrong payload with a passing CRC would
        # need a 2^-16 collision AND consistent framing; the Hamming path
        # additionally corrects <=1 flip per codeword.
        assert decoded.payload == payload

    @given(st.lists(st.integers(0, 1), min_size=0, max_size=300))
    @settings(max_examples=60)
    def test_random_bits_never_crash_decoder(self, bits):
        codec = PacketCodec()
        try:
            packet = codec.decode(np.asarray(bits, dtype=np.uint8))
        except PacketError:
            return
        assert isinstance(packet.payload, bytes)

    def test_truncations_all_fail_loudly(self):
        codec = PacketCodec()
        frame = codec.encode(Packet(payload=b"truncate me", sequence=0))
        for cut in range(codec.preamble.size + 1, frame.size - 1, 7):
            with pytest.raises(PacketError):
                codec.decode(frame[:cut])


class TestDemodulatorContainment:
    """Arbitrary captures produce a result object, never an exception."""

    @given(st.integers(min_value=0, max_value=257),
           st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=30)
    def test_noise_capture_survives(self, n, scale):
        rng = np.random.default_rng(n)
        samples = scale * (rng.standard_normal(n)
                           + 1j * rng.standard_normal(n))
        result = JointDemodulator(CONFIG).demodulate(
            Waveform(samples, CONFIG.sample_rate_hz))
        assert result.branch in ("ask", "fsk", "none")
        assert result.bits.size <= max(n // CONFIG.samples_per_bit, 0)

    def test_all_zero_capture(self):
        result = JointDemodulator(CONFIG).demodulate(
            Waveform(np.zeros(800, dtype=complex), CONFIG.sample_rate_hz))
        assert result.bits.size == 100
        assert not result.preamble_found

    def test_constant_dc_capture(self):
        result = JointDemodulator(CONFIG).demodulate(
            Waveform(np.full(800, 0.5 + 0.0j), CONFIG.sample_rate_hz))
        assert result.branch in ("ask", "fsk")

    def test_inf_free_output_for_huge_values(self):
        samples = np.full(800, 1e12 + 1e12j)
        result = JointDemodulator(CONFIG).demodulate(
            Waveform(samples, CONFIG.sample_rate_hz))
        assert result.bits.size == 100


class TestGeometryContainment:
    def test_degenerate_room_single_wall(self):
        room = Room(walls=[Wall(Segment(Point(0, 0), Point(4, 0)))],
                    width_m=4.0, length_m=4.0)
        paths = trace_paths(Point(1, 1), Point(3, 1), room, max_bounces=2)
        assert len(paths) >= 1  # LoS always there

    def test_node_on_top_of_blocker(self):
        room = Room.rectangular(4.0, 4.0)
        room.add_blocker(Blocker(Point(1.0, 1.0), radius_m=0.3))
        paths = trace_paths(Point(1.0, 1.0), Point(3.0, 3.0), room)
        # The blocker covers the transmitter: every path pays its loss,
        # but tracing still succeeds.
        assert paths
        assert all(p.excess_loss_db > 0 for p in paths)

    def test_colocated_endpoints(self):
        room = Room.rectangular(4.0, 4.0)
        paths = trace_paths(Point(2.0, 2.0), Point(2.0, 2.0), room)
        assert isinstance(paths, list)

    def test_endpoint_on_wall(self):
        room = Room.rectangular(4.0, 4.0)
        paths = trace_paths(Point(0.0, 2.0), Point(2.0, 2.0), room)
        assert isinstance(paths, list)


@st.composite
def fault_events(draw):
    """One arbitrary-but-valid fault event."""
    kind = draw(st.sampled_from(
        ("blockage", "vco_drift", "stuck_beam", "dropout",
         "side_channel_outage", "interference")))
    start = draw(st.floats(min_value=0.0, max_value=25.0))
    duration = draw(st.floats(min_value=0.05, max_value=12.0))
    if kind == "stuck_beam":
        severity = float(draw(st.sampled_from((0.0, 1.0))))
    elif kind == "vco_drift":
        severity = draw(st.floats(min_value=1.0, max_value=3e6))
    elif kind == "interference":
        severity = draw(st.floats(min_value=-95.0, max_value=-40.0))
    elif kind == "blockage":
        severity = draw(st.floats(min_value=0.0, max_value=45.0))
    else:
        severity = 1.0
    channel = (draw(st.integers(min_value=0, max_value=3))
               if kind == "interference" else None)
    return FaultEvent(kind=kind, start_s=start, duration_s=duration,
                      severity=severity, channel_index=channel)


# Processes whose recovery never waits on the side channel: with the
# control link up, an adaptive re-init succeeds as fast as the static
# tight-loop retry, so the supervisor can only gain.  (A side-channel
# outage can leave the adaptive policy sleeping in backoff for a moment
# after the static loop already reconnected — excluded here, covered
# with fixed seeds in benchmarks/test_chaos_recovery.py.)
@st.composite
def side_channel_safe_processes(draw):
    processes = []
    if draw(st.booleans()):
        processes.append(TransientBlockerProcess(
            rate_per_minute=draw(st.floats(min_value=2.0, max_value=20.0))))
    if draw(st.booleans()):
        processes.append(FaultEvent(
            "blockage",
            start_s=draw(st.floats(min_value=0.0, max_value=5.0)),
            duration_s=draw(st.floats(min_value=0.5, max_value=6.0)),
            severity=draw(st.floats(min_value=10.0, max_value=40.0))))
    if draw(st.booleans()):
        processes.append(FaultEvent(
            "vco_drift",
            start_s=draw(st.floats(min_value=0.0, max_value=5.0)),
            duration_s=draw(st.floats(min_value=0.5, max_value=6.0)),
            severity=draw(st.floats(min_value=1e4, max_value=2e6))))
    if draw(st.booleans()):
        processes.append(FaultEvent(
            "stuck_beam",
            start_s=draw(st.floats(min_value=0.0, max_value=5.0)),
            duration_s=draw(st.floats(min_value=0.5, max_value=6.0)),
            severity=float(draw(st.sampled_from((0, 1))))))
    if draw(st.booleans()):
        processes.append(NodeDropoutProcess(
            rate_per_minute=draw(st.floats(min_value=1.0, max_value=10.0))))
    if draw(st.booleans()):
        processes.append(FaultEvent(
            "interference",
            start_s=draw(st.floats(min_value=0.0, max_value=5.0)),
            duration_s=draw(st.floats(min_value=0.5, max_value=6.0)),
            severity=draw(st.floats(min_value=-80.0, max_value=-50.0)),
            channel_index=0))
    if not processes:
        processes.append(FaultEvent("blockage", 1.0, 3.0, severity=27.5))
    return processes


_CHAOS_LINK = []


def _chaos_link():
    """One ray-traced link, shared across examples (tracing is slow)."""
    if not _CHAOS_LINK:
        from repro.core.link import facing_link
        _CHAOS_LINK.append(facing_link(4.0))
    return _CHAOS_LINK[0]


class TestFaultScheduleProperties:
    """The injector and disturbance composition never misbehave."""

    @given(st.lists(fault_events(), min_size=0, max_size=10),
           st.floats(min_value=-1.0, max_value=40.0),
           st.one_of(st.none(), st.integers(min_value=0, max_value=3)))
    @settings(max_examples=60)
    def test_composition_never_crashes(self, events, t, channel):
        schedule = FaultSchedule(events, duration_s=40.0)
        d = schedule.disturbance_at(t, channel)
        assert d.beam1_extra_loss_db >= 0.0
        assert d.beam0_extra_loss_db >= 0.0
        assert d.beam0_extra_loss_db <= d.beam1_extra_loss_db + 1e-9
        assert d.stuck_beam in (None, 0, 1)
        # Composition is a pure function of (time, channel).
        assert d == schedule.disturbance_at(t, channel)

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=1.0, max_value=30.0))
    @settings(max_examples=25)
    def test_injector_deterministic_from_master_seed(self, seed, duration):
        processes = [TransientBlockerProcess(), NodeDropoutProcess(
            rate_per_minute=4.0)]
        a = FaultInjector(processes, master_seed=seed).schedule(duration)
        b = FaultInjector(processes, master_seed=seed).schedule(duration)
        assert a.events == b.events

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15)
    def test_appending_a_process_preserves_earlier_streams(self, seed):
        base = [TransientBlockerProcess()]
        extended = base + [FaultEvent("interference", 5.0, 10.0,
                                      severity=-65.0, channel_index=0)]
        a = FaultInjector(base, master_seed=seed).schedule(20.0)
        b = FaultInjector(extended, master_seed=seed).schedule(20.0)
        blockages = [e for e in b.events if e.kind == "blockage"]
        assert tuple(blockages) == a.events

    @given(st.lists(fault_events(), min_size=0, max_size=10),
           st.floats(min_value=0.05, max_value=0.5))
    @settings(max_examples=20, deadline=None)
    def test_availability_and_mttr_within_bounds(self, events, step):
        schedule = FaultSchedule(events, duration_s=30.0)
        monitor = LinkHealthMonitor()
        clean_snr = 25.0
        for t in np.arange(0.0, 30.0, step):
            d = schedule.disturbance_at(float(t), 0)
            snr = (float("-inf") if d.node_down
                   else clean_snr - d.beam1_extra_loss_db)
            monitor.observe(float(t), snr)
        report = monitor.report()
        assert 0.0 <= report.availability <= 1.0
        assert 0.0 <= report.degraded_fraction <= 1.0
        assert report.mttr_s >= 0.0
        assert report.outage_count >= 0

    @given(st.lists(fault_events(), min_size=0, max_size=6))
    @settings(max_examples=20, deadline=None)
    def test_recovery_actions_idempotent(self, events):
        """Re-observing an already-handled state fires no new actions."""
        from repro.core.link import perturb_breakdown
        from repro.resilience import LinkSupervisor

        link = _chaos_link()
        clean = link.snr_breakdown()
        schedule = FaultSchedule(events, duration_s=30.0)
        supervisor = LinkSupervisor(rng=np.random.default_rng(0))
        t = 0.0
        for _ in range(40):
            d = schedule.disturbance_at(t, 0)
            b = perturb_breakdown(clean, d, link.config)
            supervisor.step(t, b, node_down=d.node_down,
                            side_channel_up=d.side_channel_up)
            t += 0.25
        # Hold the link clean and let it settle: after the recovery
        # ladder has fully stepped back up, further clean observations
        # must be action-free (no flapping).
        for _ in range(200):
            supervisor.step(t, clean, node_down=False, side_channel_up=True)
            t += 0.25
        settled = len(supervisor.actions)
        for _ in range(50):
            decision = supervisor.step(t, clean, node_down=False,
                                       side_channel_up=True)
            assert decision.actions == ()
            t += 0.25
        assert len(supervisor.actions) == settled

    @given(side_channel_safe_processes(),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_adaptive_never_worse_than_static(self, processes, seed):
        """Same fault schedule, same seed: the recovery ladder can only
        help (the static configuration is always in its search space)."""
        injector = FaultInjector(processes, master_seed=seed)
        sim = ChaosSimulation(_chaos_link(), time_step_s=0.25)
        result = sim.run(injector, 10.0)
        assert (result.adaptive_delivery_ratio
                >= result.static_delivery_ratio - 1e-9)


class TestTmaLinearity:
    @given(st.floats(min_value=-1.2, max_value=1.2),
           st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=20)
    def test_process_is_linear_in_amplitude(self, theta, scale):
        tma = TimeModulatedArray(4, 24.125e9, 50e6, samples_per_period=16)
        fs = 50e6 * 16
        x = np.ones(64, dtype=complex)
        y1 = tma.process(x, fs, theta)
        y2 = tma.process(scale * x, fs, theta)
        assert np.allclose(y2, scale * y1)

    @given(st.floats(min_value=-1.2, max_value=1.2))
    @settings(max_examples=20)
    def test_superposition(self, theta):
        tma = TimeModulatedArray(4, 24.125e9, 50e6, samples_per_period=16)
        fs = 50e6 * 16
        a = np.exp(1j * np.linspace(0, 3, 64))
        b = np.exp(-1j * np.linspace(0, 5, 64))
        combined = tma.process(a + b, fs, theta)
        separate = tma.process(a, fs, theta) + tma.process(b, fs, theta)
        assert np.allclose(combined, separate)
