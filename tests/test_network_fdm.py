"""Tests for the FDM channel allocator."""

import pytest

from repro.constants import ISM_24GHZ_HIGH_HZ, ISM_24GHZ_LOW_HZ
from repro.network.fdm import ChannelPlan, FdmAllocator, SpectrumExhausted


class TestChannelPlan:
    def test_edges(self):
        plan = ChannelPlan(node_id=0, center_hz=24.1e9, bandwidth_hz=20e6)
        assert plan.low_hz == pytest.approx(24.09e9)
        assert plan.high_hz == pytest.approx(24.11e9)

    def test_overlap_detection(self):
        a = ChannelPlan(0, 24.10e9, 20e6)
        b = ChannelPlan(1, 24.11e9, 20e6)
        c = ChannelPlan(2, 24.20e9, 20e6)
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_adjacent_channels_do_not_overlap(self):
        a = ChannelPlan(0, 24.10e9, 20e6)
        b = ChannelPlan(1, 24.12e9, 20e6)  # edges touch exactly
        assert not a.overlaps(b)


class TestAllocator:
    def test_sizing_scales_with_rate(self):
        alloc = FdmAllocator()
        assert (alloc.channel_bandwidth_for_rate(10e6)
                > alloc.channel_bandwidth_for_rate(1e6))

    def test_min_channel_floor(self):
        alloc = FdmAllocator(min_channel_hz=1e6)
        assert alloc.channel_bandwidth_for_rate(1.0) == 1e6

    def test_allocations_disjoint(self):
        alloc = FdmAllocator()
        plans = [alloc.allocate(i, 10e6) for i in range(5)]
        for i, a in enumerate(plans):
            for b in plans[i + 1:]:
                assert not a.overlaps(b)

    def test_allocations_inside_band(self):
        alloc = FdmAllocator()
        for i in range(8):
            plan = alloc.allocate(i, 10e6)
            assert plan.low_hz >= ISM_24GHZ_LOW_HZ
            assert plan.high_hz <= ISM_24GHZ_HIGH_HZ

    def test_exhaustion_raises(self):
        alloc = FdmAllocator()
        with pytest.raises(SpectrumExhausted):
            for i in range(100):
                alloc.allocate(i, 20e6)

    def test_hd_camera_capacity(self):
        # Footnote 1: HD video needs ~10 Mbps.  The 250 MHz band should
        # host at least 8 such cameras under FDM alone.
        alloc = FdmAllocator()
        count = 0
        try:
            for i in range(100):
                alloc.allocate(i, 10e6)
                count += 1
        except SpectrumExhausted:
            pass
        assert count >= 8

    def test_release_and_reuse(self):
        alloc = FdmAllocator()
        first = alloc.allocate(0, 50e6)
        alloc.release(0)
        again = alloc.allocate(1, 50e6)
        assert again.center_hz == pytest.approx(first.center_hz)

    def test_release_unknown(self):
        with pytest.raises(KeyError):
            FdmAllocator().release(3)

    def test_duplicate_node_rejected(self):
        alloc = FdmAllocator()
        alloc.allocate(1, 1e6)
        with pytest.raises(ValueError):
            alloc.allocate(1, 1e6)

    def test_first_fit_reuses_gaps(self):
        alloc = FdmAllocator(guard_fraction=0.0)
        a = alloc.allocate(0, 10e6)
        b = alloc.allocate(1, 10e6)
        alloc.release(0)
        c = alloc.allocate(2, 5e6)  # smaller request fits the gap
        assert c.low_hz >= a.low_hz - 1.0
        assert c.high_hz <= b.low_hz + 1.0

    def test_plans_sorted(self):
        alloc = FdmAllocator()
        for i in range(4):
            alloc.allocate(i, 10e6)
        centers = [p.center_hz for p in alloc.plans]
        assert centers == sorted(centers)

    def test_plan_lookup(self):
        alloc = FdmAllocator()
        plan = alloc.allocate(7, 10e6)
        assert alloc.plan_for(7) == plan
        with pytest.raises(KeyError):
            alloc.plan_for(8)


class TestRestorePlan:
    def test_exact_reinsertion(self):
        alloc = FdmAllocator()
        plan = ChannelPlan(node_id=3, center_hz=24.2e9, bandwidth_hz=20e6)
        alloc.restore_plan(plan)
        assert alloc.plan_for(3) == plan

    def test_duplicate_rejected(self):
        alloc = FdmAllocator()
        alloc.allocate(1, 10e6)
        with pytest.raises(ValueError):
            alloc.restore_plan(ChannelPlan(1, 24.2e9, 20e6))

    def test_out_of_band_rejected(self):
        alloc = FdmAllocator()
        with pytest.raises(ValueError):
            alloc.restore_plan(ChannelPlan(0, ISM_24GHZ_HIGH_HZ, 20e6))

    def test_overlap_rejected(self):
        alloc = FdmAllocator()
        alloc.restore_plan(ChannelPlan(0, 24.2e9, 20e6))
        with pytest.raises(ValueError):
            alloc.restore_plan(ChannelPlan(1, 24.21e9, 20e6))


class TestExhaustionAndDegradation:
    """Allocator exhaustion and the AP's graceful handling of it."""

    def _full_allocator(self):
        alloc = FdmAllocator()
        node_id = 0
        while True:
            try:
                alloc.allocate(node_id, 20e6)
            except SpectrumExhausted:
                return alloc, node_id
            node_id += 1

    def test_exhausted_allocator_stays_consistent(self):
        alloc, count = self._full_allocator()
        # The failed allocation left no half-committed state behind.
        assert len(alloc.plans) == count
        for i, a in enumerate(alloc.plans):
            for b in alloc.plans[i + 1:]:
                assert not a.overlaps(b)

    def test_mark_interference_on_full_ap(self):
        from repro.node.access_point import MmxAccessPoint

        ap = MmxAccessPoint()
        node_id = 0
        while True:
            try:
                ap.register_node(node_id, 10e6)
            except SpectrumExhausted:
                break
            node_id += 1
        victim = ap.allocator.plan_for(0)
        hit = ap.mark_interference(victim.low_hz, victim.high_hz)
        assert 0 in hit
        # Fully allocated band + a fresh block: no clean channel exists,
        # so the move degrades gracefully instead of raising.
        before = ap.registration(0)
        assert ap.reallocate_node(0) is None
        assert ap.registration(0) == before
        assert ap.stats()["reallocation_failures"] == 1

    def test_reallocation_failure_counter_accumulates(self):
        from repro.node.access_point import MmxAccessPoint

        ap = MmxAccessPoint()
        ap.register_node(0, 10e6)
        # Block the entire band except the victim's own slot.
        ap.allocator.block_range(ISM_24GHZ_LOW_HZ, ISM_24GHZ_HIGH_HZ)
        assert ap.reallocate_node(0) is None
        assert ap.reallocate_node(0) is None
        assert ap.reallocation_failures == 2


class TestFirstFitRegression:
    """Pins the seed scan's placement order, bit for bit.

    The allocator now runs on :class:`repro.admission.SpectrumBook`;
    these exact centers are the contract that refactor must never
    shift.  Derived from the seed algorithm by hand: cursor walks from
    the band floor, each channel lands at ``cursor + width/2`` and
    advances the cursor by ``width * (1 + guard)``.
    """

    def test_sequential_fill_centers(self):
        alloc = FdmAllocator(band_low_hz=0.0, band_high_hz=1000.0,
                             bandwidth_per_bps=1.0, guard_fraction=0.25,
                             min_channel_hz=1e-9)
        centers = [alloc.allocate(i, 100.0).center_hz for i in range(4)]
        # width 100, guard step 25: starts at 0, 125, 250, 375.
        assert centers == [50.0, 175.0, 300.0, 425.0]

    def test_gap_reuse_prefers_lowest_fit(self):
        alloc = FdmAllocator(band_low_hz=0.0, band_high_hz=1000.0,
                             bandwidth_per_bps=1.0, guard_fraction=0.0,
                             min_channel_hz=1e-9)
        for i in range(5):
            alloc.allocate(i, 100.0)
        alloc.release(1)   # hole at [100, 200)
        alloc.release(3)   # hole at [300, 400)
        # 60 fits the first hole; the next 60 needs the cursor past the
        # first hole's tail occupancy, landing in the second hole.
        assert alloc.allocate(10, 60.0).low_hz == 100.0
        assert alloc.allocate(11, 60.0).low_hz == 300.0
        # 90 skips the 40-wide residue of hole one.
        assert alloc.allocate(12, 90.0).low_hz == 500.0

    def test_guard_respected_around_blocks(self):
        alloc = FdmAllocator(band_low_hz=0.0, band_high_hz=1000.0,
                             bandwidth_per_bps=1.0, guard_fraction=0.5,
                             min_channel_hz=1e-9)
        alloc.block_range(0.0, 100.0)
        plan = alloc.allocate(0, 100.0)
        # Seed scan: cursor = high + width * guard = 100 + 50.
        assert plan.low_hz == 150.0


class TestReallocateDegradation:
    """Graceful-``None`` moves and the SDM-spill telemetry contract."""

    def test_allocator_reallocate_restores_on_exhaustion(self):
        alloc = FdmAllocator(band_low_hz=0.0, band_high_hz=100.0,
                             bandwidth_per_bps=1.0, guard_fraction=0.0,
                             min_channel_hz=1e-9)
        plan = alloc.allocate(0, 80.0)
        alloc.block_range(0.0, 100.0)
        with pytest.raises(SpectrumExhausted):
            alloc.reallocate(0)
        # The failed move left the old plan exactly in place.
        assert alloc.plan_for(0) == plan
        assert alloc.allocated_bandwidth_hz == pytest.approx(80.0)

    def test_controller_reallocate_returns_none_under_blocked_band(self):
        from repro.admission import AdmissionController

        alloc = FdmAllocator(band_low_hz=0.0, band_high_hz=100.0,
                             bandwidth_per_bps=1.0, guard_fraction=0.0,
                             min_channel_hz=1e-9)
        ctrl = AdmissionController(allocator=alloc)
        ctrl.admit(0, 50.0)  # no bearing: the SDM rung cannot catch it
        alloc.block_range(0.0, 100.0)
        old = ctrl.decision_for(0)
        assert ctrl.reallocate(0) is None
        assert ctrl.decision_for(0) == old  # still on the old channel

    def test_reallocate_spills_to_sdm_and_counts_it(self):
        from repro.admission import AdmissionController
        from repro.telemetry import Recorder

        tel = Recorder()
        alloc = FdmAllocator(band_low_hz=0.0, band_high_hz=100.0,
                             bandwidth_per_bps=1.0, guard_fraction=0.0,
                             min_channel_hz=1e-9)
        ctrl = AdmissionController(allocator=alloc, sdm_channels=2,
                                   telemetry=tel)
        ctrl.admit(0, 50.0, bearing_rad=0.3)
        alloc.block_range(0.0, 100.0)
        decision = ctrl.reallocate(0)
        assert decision is not None and decision.state == "sdm"
        counters = {c.name: c.value for c in tel.metrics.counters()}
        assert counters["admission.sdm_spill"] == 1
        assert counters["admission.reallocated"] == 1
        # The freed FDM spectrum really was released.
        assert alloc.allocated_bandwidth_hz == pytest.approx(0.0)
