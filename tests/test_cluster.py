"""Tests for checkpointing, heartbeat detection, and multi-AP failover."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ApCheckpoint,
    CheckpointError,
    Cluster,
    FailoverSimulation,
    HeartbeatMonitor,
)
from repro.cluster.checkpoint import _digest
from repro.constants import ISM_24GHZ_HIGH_HZ, ISM_24GHZ_LOW_HZ
from repro.network.fdm import FdmAllocator, SpectrumExhausted
from repro.node.access_point import MmxAccessPoint


def _populated_ap(rates, blocks=()):
    ap = MmxAccessPoint()
    for node_id, rate in enumerate(rates):
        ap.register_node(node_id, rate)
    for low, high in blocks:
        ap.allocator.block_range(low, high)
    return ap


_UNIT = st.floats(min_value=0.0, max_value=1.0,
                  allow_nan=False, allow_infinity=False)


class TestCheckpoint:
    def test_round_trip_exact(self):
        ap = _populated_ap([1e6, 2e6, 4e6],
                           blocks=[(24.2e9, 24.21e9)])
        snapshot = ApCheckpoint.capture(ap)
        restored = snapshot.restore()
        assert ApCheckpoint.capture(restored) == snapshot
        assert restored.registered_nodes == ap.registered_nodes
        assert restored.allocator.plans == ap.allocator.plans

    def test_each_channel_stored_once(self):
        snapshot = ApCheckpoint.capture(_populated_ap([1e6, 2e6]))
        data = snapshot.to_dict()
        # Registrations carry node id + numerology; the channel lives
        # only in ``plans``.
        assert [r[0] for r in data["registrations"]] == [0, 1]
        assert all(len(r) == 4 for r in data["registrations"])
        text = json.dumps(data)
        for _, center_hz, _ in data["plans"]:
            assert text.count(json.dumps(center_hz)) == 1

    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(st.tuples(
               st.sampled_from(["alloc", "release", "block"]),
               _UNIT, _UNIT), min_size=1, max_size=40),
           band=st.sampled_from([(0.0, 100.0), (24.0e9, 24.0e9 + 1000.0),
                                 (-50.0, -36.3), (7.3, 21.0),
                                 (ISM_24GHZ_LOW_HZ, ISM_24GHZ_HIGH_HZ)]),
           guard=st.sampled_from([0.0, 0.25, 1.0, 0.017]))
    def test_restore_accepts_every_first_fit_state(self, ops, band, guard):
        """capture(restore(ck)) == ck for any state the allocator built,
        edge rounding included."""
        low, high = band
        span = high - low
        alloc = FdmAllocator(band_low_hz=low, band_high_hz=high,
                             bandwidth_per_bps=1.0, guard_fraction=guard,
                             min_channel_hz=1e-9)
        ap = MmxAccessPoint(allocator=alloc)
        live: list[int] = []
        for node_id, (kind, u, v) in enumerate(ops):
            if kind == "alloc":
                try:
                    alloc.allocate(node_id, span * (1e-6 + u / 3.0))
                    live.append(node_id)
                except SpectrumExhausted:
                    pass
            elif kind == "release" and live:
                alloc.release(live.pop(int(u * len(live)) % len(live)))
            elif kind == "block":
                a = low - span * 0.3 + u * span * 1.6
                alloc.block_range(a, a + span * (1e-6 + v * 0.4))
            snapshot = ApCheckpoint.capture(ap)
            assert ApCheckpoint.capture(snapshot.restore()) == snapshot

    @settings(max_examples=25, deadline=None)
    @given(rates=st.lists(
        st.floats(min_value=1e5, max_value=20e6,
                  allow_nan=False, allow_infinity=False),
        min_size=0, max_size=8))
    def test_serialization_round_trip_property(self, rates):
        """JSON round trip is lossless for any admissible population."""
        ap = MmxAccessPoint()
        admitted = 0
        for node_id, rate in enumerate(rates):
            try:
                ap.register_node(node_id, rate)
                admitted += 1
            except SpectrumExhausted:
                break
        snapshot = ApCheckpoint.capture(ap)
        again = ApCheckpoint.from_json(snapshot.to_json())
        assert again == snapshot
        restored = again.restore()
        assert len(restored.registered_nodes) == admitted
        assert ApCheckpoint.capture(restored) == snapshot

    def test_tampered_payload_rejected(self):
        snapshot = ApCheckpoint.capture(_populated_ap([1e6]))
        data = snapshot.to_dict()
        data["plans"][0][1] += 1.0
        with pytest.raises(CheckpointError):
            ApCheckpoint.from_dict(data)

    def test_missing_integrity_rejected(self):
        data = ApCheckpoint.capture(_populated_ap([1e6])).to_dict()
        del data["integrity"]
        with pytest.raises(CheckpointError):
            ApCheckpoint.from_dict(data)

    def test_unknown_schema_rejected(self):
        snapshot = ApCheckpoint.capture(_populated_ap([1e6]))
        data = snapshot._state_dict()
        data["schema_version"] = 999
        data["integrity"] = _digest(data)
        with pytest.raises(CheckpointError):
            ApCheckpoint.from_dict(data)

    def test_schema_1_rejected(self):
        """The schema-1 layout (each channel stored twice, TMA slots,
        reallocation counter) is refused, not misread."""
        data = {
            "schema_version": 1,
            "band": {"band_low_hz": ISM_24GHZ_LOW_HZ,
                     "band_high_hz": ISM_24GHZ_HIGH_HZ,
                     "bandwidth_per_bps": 2.0, "guard_fraction": 0.25,
                     "min_channel_hz": 1e6},
            "plans": [[0, 24.001e9, 2e6]],
            "blocked": [],
            "registrations": [[0, 24.001e9, 2e6, 1e6, 8e6, 250e3]],
            "tma_assignments": [],
            "reallocation_failures": 0,
        }
        data["integrity"] = _digest(data)
        with pytest.raises(CheckpointError, match="schema 1"):
            ApCheckpoint.from_dict(data)

    def test_garbage_json_rejected(self):
        with pytest.raises(CheckpointError):
            ApCheckpoint.from_json("not json {")

    def test_file_round_trip(self, tmp_path):
        snapshot = ApCheckpoint.capture(_populated_ap([1e6, 3e6]))
        path = tmp_path / "ap.ckpt"
        snapshot.save(path)
        assert ApCheckpoint.load(path) == snapshot


class TestSingleSpectrumRecord:
    """The allocator's book is the AP's only record of its channels."""

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(st.tuples(
        st.sampled_from(["register", "deregister", "block"]),
        _UNIT, _UNIT), min_size=1, max_size=40))
    def test_ap_state_is_read_from_the_book(self, ops):
        ap = MmxAccessPoint()
        alloc = ap.allocator
        span = alloc.total_bandwidth_hz
        for node_id, (kind, u, v) in enumerate(ops):
            if kind == "register":
                try:
                    ap.register_node(node_id, 1e5 + u * 20e6)
                except SpectrumExhausted:
                    pass
            elif kind == "deregister" and ap.registered_nodes:
                nodes = ap.registered_nodes
                ap.deregister_node(nodes[int(u * len(nodes)) % len(nodes)])
            elif kind == "block":
                # Wide, often overlapping ranges, some past the band.
                low = alloc.band_low_hz - 0.1 * span + u * 1.1 * span
                alloc.block_range(low, low + span * (1e-3 + 0.3 * v))
            for n in ap.registered_nodes:
                assert ap.registration(n).channel is alloc.plan_for(n)
            assert ap.registered_nodes == sorted(
                p.node_id for p in alloc.plans)
            blocked = alloc.blocked_ranges
            assert all(lo < hi for lo, hi in blocked)
            assert all(a[1] < b[0] for a, b in zip(blocked, blocked[1:]))
            snapshot = ApCheckpoint.capture(ap)
            assert ApCheckpoint.capture(snapshot.restore()) == snapshot


class TestHeartbeat:
    def test_detection_after_threshold(self):
        monitor = HeartbeatMonitor(interval_s=0.5, miss_threshold=3)
        monitor.watch(0, 0.0)
        assert monitor.is_alive(0, 1.4)
        assert not monitor.is_alive(0, 1.5)
        assert monitor.detection_latency_s == pytest.approx(1.5)

    def test_newly_dead_reports_once(self):
        monitor = HeartbeatMonitor(interval_s=0.5, miss_threshold=2)
        monitor.watch(0, 0.0)
        monitor.watch(1, 0.0)
        monitor.beat(1, 0.9)
        assert monitor.newly_dead(1.2) == [0]
        assert monitor.newly_dead(1.3) == []          # not re-reported
        assert monitor.newly_dead(2.5) == [1]

    def test_beat_revives(self):
        monitor = HeartbeatMonitor(interval_s=0.5, miss_threshold=2)
        monitor.watch(0, 0.0)
        assert monitor.newly_dead(2.0) == [0]
        monitor.beat(0, 2.1)
        assert monitor.is_alive(0, 2.2)
        assert monitor.newly_dead(3.5) == [0]         # can die again

    def test_time_must_advance(self):
        monitor = HeartbeatMonitor()
        monitor.watch(0, 5.0)
        with pytest.raises(ValueError):
            monitor.beat(0, 4.0)

    def test_unwatched_ap_raises(self):
        with pytest.raises(KeyError):
            HeartbeatMonitor().is_alive(9, 0.0)


class TestCluster:
    def _cluster(self, num_aps=2, miss_threshold=2, interval_s=0.5):
        return Cluster(
            aps=[MmxAccessPoint() for _ in range(num_aps)],
            heartbeat=HeartbeatMonitor(interval_s=interval_s,
                                       miss_threshold=miss_threshold))

    def test_registration_follows_preference(self):
        cluster = self._cluster()
        assert cluster.register_node(0, 1e6, preference=[1, 0]) == 1
        assert cluster.register_node(1, 1e6, preference=[0, 1]) == 0
        assert cluster.is_served(0) and cluster.is_served(1)

    def test_crash_detect_failover(self):
        cluster = self._cluster()
        cluster.register_node(0, 1e6, preference=[0, 1])
        cluster.checkpoint_all()
        cluster.crash(0)
        # Stranded but undetected: the node is not served, not migrated.
        assert cluster.step(0.5) == {}
        assert not cluster.is_served(0)
        # Past the detection latency the death is declared and the node
        # re-associates with the survivor.
        migrations = cluster.step(2.0)
        assert migrations == {0: [0]}
        assert cluster.serving_ap(0) == 1
        assert cluster.is_served(0)
        assert cluster.failover_count == 1

    def test_failover_overflow_orphans(self):
        cluster = self._cluster()
        # Fill AP 1 completely so the failover target has no spectrum.
        node_id = 100
        while True:
            try:
                cluster.members[1].ap.register_node(node_id, 20e6)
            except SpectrumExhausted:
                break
            node_id += 1
        cluster.register_node(0, 20e6, preference=[0, 1])
        cluster.crash(0)
        cluster.step(5.0)
        assert cluster.orphaned == {0}
        assert cluster.serving_ap(0) is None

    def test_recover_restores_checkpoint_and_reconciles(self):
        cluster = self._cluster()
        cluster.register_node(0, 1e6, preference=[0, 1])
        cluster.register_node(1, 2e6, preference=[0, 1])
        plans_before = cluster.members[0].ap.allocator.plans
        cluster.checkpoint_all()
        cluster.crash(0)
        cluster.step(5.0)                  # both nodes migrate to AP 1
        restored = cluster.recover(0, 6.0)
        # The restored AP reproduced its spectrum map, then released the
        # nodes that migrated while it was down.
        assert cluster.members[0].alive
        assert restored.registered_nodes == []
        assert cluster.serving_ap(0) == 1
        # A fresh crash of AP 1 now fails everyone back over to AP 0.
        cluster.crash(1)
        cluster.step(12.0)
        assert cluster.serving_ap(0) == 0
        assert cluster.members[0].ap.allocator.plans != plans_before \
            or cluster.members[0].ap.registered_nodes == [0, 1]

    def test_recover_without_checkpoint_reboots_empty(self):
        cluster = self._cluster(num_aps=1)
        cluster.register_node(0, 1e6)
        cluster.crash(0)
        cluster.step(5.0)                  # nowhere to go: orphaned
        assert cluster.orphaned == {0}
        restored = cluster.recover(0, 6.0)
        assert restored.registered_nodes == []
        assert cluster.orphaned == {0}     # state was never checkpointed

    def test_duplicate_node_rejected(self):
        cluster = self._cluster()
        cluster.register_node(0, 1e6)
        with pytest.raises(ValueError):
            cluster.register_node(0, 1e6)

    def _disk_cluster(self, tmp_path, num_aps=2):
        return Cluster(
            aps=[MmxAccessPoint() for _ in range(num_aps)],
            heartbeat=HeartbeatMonitor(interval_s=0.5,
                                       miss_threshold=2),
            checkpoint_dir=tmp_path)

    def test_checkpoint_dir_persists_every_capture(self, tmp_path):
        cluster = self._disk_cluster(tmp_path)
        cluster.register_node(0, 1e6, preference=[0, 1])
        cluster.checkpoint_all()
        for ap_id in (0, 1):
            loaded = ApCheckpoint.load(tmp_path / f"ap{ap_id}.ckpt")
            assert loaded == cluster.members[ap_id].checkpoint

    def test_recover_falls_back_to_disk_checkpoint(self, tmp_path):
        """Process restart: in-memory captures gone, disk survives."""
        first = self._disk_cluster(tmp_path)
        first.register_node(0, 1e6, preference=[0, 1])
        first.checkpoint_all()

        rebooted = self._disk_cluster(tmp_path)
        rebooted.crash(0)
        restored = rebooted.recover(0, 1.0)
        assert restored.registered_nodes == [0]
        assert rebooted.recovery_errors == []

    def test_recover_skips_and_reports_corrupt_checkpoint(
            self, tmp_path):
        """Satellite (b): a rotten checkpoint file must not take the
        failover path down with it — skip, report, reboot empty."""
        cluster = self._disk_cluster(tmp_path)
        cluster.register_node(0, 1e6, preference=[0, 1])
        cluster.checkpoint_all()
        path = tmp_path / "ap0.ckpt"
        path.write_text(path.read_text().replace('"plans"', '"plons"'))

        rebooted = self._disk_cluster(tmp_path)
        rebooted.crash(0)
        restored = rebooted.recover(0, 1.0)   # does not raise
        assert restored.registered_nodes == []
        assert rebooted.members[0].alive
        assert len(rebooted.recovery_errors) == 1
        ap_id, reason = rebooted.recovery_errors[0]
        assert ap_id == 0 and "integrity" in reason

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            Cluster(aps=[])


class TestFailoverSimulation:
    def _sim(self):
        from repro.sim.environment import Room
        from repro.sim.geometry import Point

        room = Room.rectangular(width_m=20.0, length_m=10.0)
        return FailoverSimulation(
            room,
            ap_positions=[Point(2.0, 5.0), Point(18.0, 5.0)],
            node_positions=[Point(4.0, 3.0), Point(6.0, 7.0),
                            Point(14.0, 3.0), Point(16.0, 7.0)],
            demanded_rate_bps=1e6,
            heartbeat=HeartbeatMonitor(interval_s=0.5, miss_threshold=3))

    def _schedule(self, seed=7):
        from repro.faults import ApCrashProcess, FaultInjector

        injector = FaultInjector(
            [ApCrashProcess(start_s=8.0, duration_s=12.0, ap_index=0)],
            master_seed=seed)
        return injector.schedule(duration_s=30.0)

    def test_cluster_beats_frozen_baseline(self):
        result = self._sim().run(self._schedule(), dt_s=0.1)
        assert result.adaptive_delivery_ratio \
            > result.static_delivery_ratio
        assert result.failover_count == 2
        assert result.orphaned_nodes == 0

    def test_detection_window_costs_delivery(self):
        result = self._sim().run(self._schedule(), dt_s=0.1)
        # During the stranded window the cluster delivers strictly less
        # than before the crash.
        crash_idx = int(8.5 / 0.1)
        pre_crash = result.adaptive_success[:int(8.0 / 0.1)]
        assert result.adaptive_success[crash_idx] < pre_crash.mean()

    def test_repeat_runs_identical(self):
        sim = self._sim()
        a = sim.run(self._schedule(), dt_s=0.1)
        b = sim.run(self._schedule(), dt_s=0.1)
        assert np.array_equal(a.adaptive_success, b.adaptive_success)
        assert np.array_equal(a.static_success, b.static_success)

    def test_no_crash_schedule_is_a_tie_at_full_delivery(self):
        from repro.faults.injector import FaultSchedule

        result = self._sim().run(FaultSchedule([], duration_s=5.0),
                                 dt_s=0.5)
        assert result.failover_count == 0
        # Both policies serve everyone; only link quality separates them.
        assert result.adaptive_delivery_ratio > 0.9
        assert result.static_delivery_ratio > 0.9
