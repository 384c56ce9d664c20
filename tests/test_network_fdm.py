"""Tests for the FDM channel allocator."""

import pytest

from repro.admission import SpectrumBook
from repro.constants import ISM_24GHZ_HIGH_HZ, ISM_24GHZ_LOW_HZ
from repro.network.fdm import ChannelPlan, FdmAllocator, SpectrumExhausted


class TestChannelPlan:
    def test_edges(self):
        plan = ChannelPlan(node_id=0, center_hz=24.1e9, bandwidth_hz=20e6)
        assert plan.low_hz == pytest.approx(24.09e9)
        assert plan.high_hz == pytest.approx(24.11e9)


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
                assert a.high_hz <= b.low_hz or b.high_hz <= a.low_hz

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

    @staticmethod
    def _unit(low=0.0, high=100.0):
        return FdmAllocator(band_low_hz=low, band_high_hz=high,
                            bandwidth_per_bps=1.0, guard_fraction=0.0,
                            min_channel_hz=1e-9)

    def test_ulp_overlapping_first_fit_neighbours_restore(self):
        alloc = self._unit()
        alloc.allocate(0, 27.714109)
        alloc.allocate(1, 36.531517)
        # center ± width/2 rounds plan 1's low edge an ulp below plan
        # 0's high edge; restore must accept what first-fit built.
        assert alloc.plan_for(1).low_hz < alloc.plan_for(0).high_hz
        fresh = self._unit()
        for plan in alloc.plans:
            fresh.restore_plan(plan)
        assert fresh.plans == alloc.plans

    def test_first_fit_plan_an_ulp_below_the_band_restores(self):
        alloc = self._unit(7.3, 21.0)
        plan = alloc.allocate(0, 3.7064514688526446)
        assert plan.low_hz < alloc.band_low_hz
        fresh = self._unit(7.3, 21.0)
        fresh.restore_plan(plan)
        assert fresh.plan_for(0) == plan

    def test_shift_beyond_rounding_allowance_rejected(self):
        tol = SpectrumBook(0.0, 100.0).edge_tolerance(10.0)
        alloc = self._unit()
        alloc.restore_plan(ChannelPlan(0, 25.0, 10.0))  # [20, 30]
        # A neighbour reaching into [20, 30] by less than the allowance
        # is rounding; by twice the allowance it is an overlap.
        with pytest.raises(ValueError, match="overlaps node 0"):
            alloc.restore_plan(ChannelPlan(1, 35.0 - 2 * tol, 10.0))
        alloc.restore_plan(ChannelPlan(1, 35.0 - tol / 2, 10.0))
        with pytest.raises(ValueError, match="outside the managed band"):
            alloc.restore_plan(ChannelPlan(2, 5.0 - 2 * tol, 10.0))
        with pytest.raises(ValueError, match="outside the managed band"):
            alloc.restore_plan(ChannelPlan(2, 95.0 + 2 * tol, 10.0))
        alloc.restore_plan(ChannelPlan(2, 5.0 - tol / 2, 10.0))
        alloc.restore_plan(ChannelPlan(3, 95.0 + tol / 2, 10.0))


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
                assert a.high_hz <= b.low_hz or b.high_hz <= a.low_hz

    def test_mark_interference_on_full_band(self):
        from repro.admission import AdmissionController

        ctrl = AdmissionController()
        node_id = 0
        while ctrl.admit(node_id, 10e6).state == "fdm":
            node_id += 1
        victim = ctrl.decision_for(0).plan
        report = ctrl.mark_interference(victim.low_hz, victim.high_hz)
        # Fully allocated band + a fresh block: no clean channel exists
        # and the victim has no bearing for the SDM rung, so the pass
        # evicts it instead of raising or leaving it on jammed spectrum.
        assert report.victims == (0,)
        assert report.evicted == (0,)
        with pytest.raises(KeyError):
            ctrl.decision_for(0)
        assert [p.node_id for p in ctrl.allocator.plans] \
            == list(range(1, node_id))


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
    """The SDM-spill contract of the batched move."""

    def test_reallocate_spills_to_sdm_and_counts_it(self):
        from repro.admission import AdmissionController

        alloc = FdmAllocator(band_low_hz=0.0, band_high_hz=100.0,
                             bandwidth_per_bps=1.0, guard_fraction=0.0,
                             min_channel_hz=1e-9)
        ctrl = AdmissionController(allocator=alloc, sdm_channels=2)
        ctrl.admit(0, 50.0, bearing_rad=0.3)
        report = ctrl.mark_interference(0.0, 100.0)
        # The report counts the one victim, as spilled and not moved.
        assert report.victims == (0,)
        assert report.spilled_to_sdm == (0,)
        assert report.moved == () and report.evicted == ()
        assert ctrl.decision_for(0).state == "sdm"
        # The freed FDM spectrum really was released.
        assert alloc.allocated_bandwidth_hz == pytest.approx(0.0)
