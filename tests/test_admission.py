"""Tests for :mod:`repro.admission` — book equivalence, SDM packing,
the admission ladder, and the saturation campaign.

The load-bearing claims:

* the interval-indexed :class:`SpectrumBook` places channels
  **byte-identically** to the seed first-fit scan (proven here against
  a verbatim reference implementation, under hypothesis-driven op
  sequences of allocates / releases / blocks);
* occupancy accounting never drifts: the book's incremental ``free_hz``
  always equals the brute-force complement of the live plans + blocks;
* the SDM packer never admits a harmonic collision (co-channel
  bearings closer than
  :data:`~repro.network.sdm_scheduler.HARMONIC_COLLISION_RAD`, checked
  over every admitted pair);
* the saturation campaign is byte-identical serial vs supervised
  parallel at a fixed master seed.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.admission import (
    AdmissionController,
    SaturationConfig,
    SdmPacker,
    SpectrumBook,
    default_config,
    run_saturation,
)
from repro.network.fdm import ChannelPlan, FdmAllocator, SpectrumExhausted
from repro.network.sdm_scheduler import HARMONIC_COLLISION_RAD
from repro.sim.geometry import normalize_angle


class ReferenceFirstFit:
    """The seed ``FdmAllocator._place`` scan, verbatim.

    Kept as the ground truth the book must match bit-for-bit: sort the
    occupied intervals, walk a cursor from the band floor, stop at the
    first gap that fits ``width * (1 + guard)``.
    """

    def __init__(self, low: float, high: float, guard: float):
        self.low, self.high, self.guard = low, high, guard
        self.plans: dict[int, ChannelPlan] = {}
        self.blocked: list[tuple[float, float]] = []

    def place(self, width: float) -> float | None:
        pitch = width * (1.0 + self.guard)
        occupied = sorted(
            [(p.low_hz, p.high_hz) for p in self.plans.values()]
            + list(self.blocked))
        cursor = self.low
        for low, high in occupied:
            if cursor + pitch <= low:
                break
            cursor = max(cursor, high + width * self.guard)
        if cursor + width > self.high:
            return None
        return cursor


def _free_complement(low: float, high: float,
                     intervals: list[tuple[float, float]]) -> float:
    """Brute-force free measure of [low, high] minus the intervals."""
    clipped = sorted((max(low, a), min(high, b)) for a, b in intervals
                     if b > low and a < high)
    free = 0.0
    cursor = low
    for a, b in clipped:
        if a > cursor:
            free += a - cursor
        cursor = max(cursor, b)
    return free + max(0.0, high - cursor)


# One operation = (kind, payload); payloads are drawn wide enough to
# produce exhaustion, gap reuse, out-of-band blocks and ulp-hostile
# widths.
_OPS = st.lists(
    st.tuples(st.sampled_from(["alloc", "release", "block"]),
              st.floats(min_value=0.0, max_value=1.0,
                        allow_nan=False, allow_infinity=False),
              st.floats(min_value=0.0, max_value=1.0,
                        allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=300)


class TestBookMatchesSeedFirstFit:
    """Hypothesis: the book is the seed scan, bit for bit."""

    @given(ops=_OPS,
           band=st.sampled_from([(0.0, 100.0), (24.0e9, 24.0e9 + 1000.0),
                                 (-50.0, -36.3), (7.3, 21.0)]),
           guard=st.sampled_from([0.0, 0.25, 1.0, 0.017]))
    @settings(max_examples=150, deadline=None)
    def test_equivalence_and_accounting(self, ops, band, guard):
        low, high = band
        span = high - low
        alloc = FdmAllocator(band_low_hz=low, band_high_hz=high,
                             bandwidth_per_bps=1.0, guard_fraction=guard,
                             min_channel_hz=1e-9)
        ref = ReferenceFirstFit(low, high, guard)
        live: list[int] = []
        next_id = 0
        for kind, u, v in ops:
            if kind == "alloc":
                # Floored relative to the span: widths below the float
                # ulp of the band coordinates make the seed scan itself
                # degenerate (zero-width plans), outside the contract.
                width = span * (1e-6 + u / 3.0)
                expected = ref.place(width)
                try:
                    plan = alloc.allocate(next_id, width)
                    got = plan.low_hz
                except SpectrumExhausted:
                    got = None
                if expected is None:
                    assert got is None
                else:
                    probe = ChannelPlan(node_id=0, bandwidth_hz=width,
                                        center_hz=expected + width / 2.0)
                    assert got == probe.low_hz
                    ref.plans[next_id] = alloc.plan_for(next_id)
                    live.append(next_id)
                next_id += 1
            elif kind == "release" and live:
                victim = live.pop(int(u * len(live)) % len(live))
                alloc.release(victim)
                del ref.plans[victim]
            elif kind == "block":
                a = low - span * 0.3 + u * span * 1.6
                b = a + span * (1e-6 + v * 0.4)
                alloc.block_range(a, b)
                ref.blocked.append((float(a), float(b)))
            # Occupancy accounting must never drift from brute force.
            occupied = ([(p.low_hz, p.high_hz)
                         for p in ref.plans.values()] + ref.blocked)
            assert alloc.free_bandwidth_hz == pytest.approx(
                _free_complement(low, high, occupied), abs=1e-6)
        assert sorted(p.node_id for p in alloc.plans) == sorted(ref.plans)


class TestSpectrumBook:
    def test_place_commit_release_roundtrip(self):
        book = SpectrumBook(0.0, 100.0)
        at = book.place(10.0, 0.0)
        assert at == 0.0
        book.commit(ChannelPlan(1, 5.0, 10.0))
        assert book.place(10.0, 0.0) == 10.0
        book.release(1)
        assert book.place(10.0, 0.0) == 0.0
        assert book.free_hz == pytest.approx(100.0)

    def test_release_finds_the_extent_by_node_id(self):
        book = SpectrumBook(0.0, 100.0)
        plan = ChannelPlan(7, 25.0, 10.0)
        book.commit(plan)
        book.commit(ChannelPlan(8, 45.0, 10.0))
        assert book.plan_for(7) is plan
        assert 7 in book and 9 not in book
        book.release(7)
        assert 7 not in book
        assert [p.node_id for p in book.plans] == [8]
        assert book.free_hz == pytest.approx(90.0)
        with pytest.raises(KeyError):
            book.release(7)
        with pytest.raises(KeyError):
            book.plan_for(7)

    def test_too_wide_returns_none(self):
        book = SpectrumBook(0.0, 100.0)
        assert book.place(100.5, 0.0) is None

    def test_blocks_merge(self):
        book = SpectrumBook(0.0, 100.0)
        book.block(10.0, 30.0)
        book.block(20.0, 40.0)  # overlapping: merges
        book.block(60.0, 70.0)
        book.block(70.0, 75.0)  # touching: merges
        assert book.blocked_ranges == ((10.0, 40.0), (60.0, 75.0))
        assert book.free_hz == pytest.approx(55.0)
        assert book.place(20.0, 0.0) == 40.0

    def test_overlapping_plan_ids(self):
        book = SpectrumBook(0.0, 100.0)
        book.commit(ChannelPlan(1, 5.0, 10.0))
        book.commit(ChannelPlan(2, 25.0, 10.0))
        assert [p.node_id for p in book.overlapping_plans(5.0, 25.0)] \
            == [1, 2]
        assert book.overlapping_plans(10.0, 20.0) == []

    def test_largest_gap_tracks_fragmentation(self):
        book = SpectrumBook(0.0, 100.0)
        book.commit(ChannelPlan(1, 45.0, 10.0))
        assert book.largest_gap_hz == pytest.approx(50.0)
        assert book.free_hz == pytest.approx(90.0)


class TestSdmPacker:
    @given(bearings=st.lists(
        st.floats(min_value=-math.pi, max_value=math.pi,
                  allow_nan=False), min_size=1, max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_never_admits_a_harmonic_collision(self, bearings):
        packer = SdmPacker(num_channels=4)
        admitted = []
        for node_id, bearing in enumerate(bearings):
            assignment = packer.admit(node_id, bearing)
            if assignment is not None:
                admitted.append(assignment)
        # The harmonic-collision predicate over every admitted
        # co-channel pair: zero collisions, always.
        for i, a in enumerate(admitted):
            for b in admitted[i + 1:]:
                if a.channel_index != b.channel_index:
                    continue
                gap = abs(normalize_angle(a.bearing_rad - b.bearing_rad))
                assert gap >= HARMONIC_COLLISION_RAD

    def test_deterministic(self):
        bearings = [0.1 * i for i in range(40)]
        runs = []
        for _ in range(2):
            packer = SdmPacker(num_channels=3)
            runs.append([packer.admit(i, b) for i, b in
                         enumerate(bearings)])
        assert runs[0] == runs[1]

    def test_release_frees_the_slot(self):
        packer = SdmPacker(num_channels=1)
        first = packer.admit(0, 0.0)
        assert first is not None
        assert packer.admit(1, 0.0) is None  # same bearing collides
        packer.release(0)
        again = packer.admit(1, 0.0)
        assert again is not None
        assert again.channel_index == first.channel_index

    def test_harmonic_indices_unique_per_channel(self):
        packer = SdmPacker(num_channels=1)
        taken = set()
        for i in range(8):
            assignment = packer.admit(i, i * math.radians(25.0))
            assert assignment is not None
            assert assignment.harmonic_index not in taken
            taken.add(assignment.harmonic_index)


def _is_admitted(ctrl: AdmissionController, node_id: int) -> bool:
    try:
        ctrl.decision_for(node_id)
    except KeyError:
        return False
    return True


class TestAdmissionLadder:
    def _tiny(self, **kwargs) -> AdmissionController:
        """A controller over a 100 Hz band (1 Hz per bps, no floor)."""
        alloc = FdmAllocator(band_low_hz=0.0, band_high_hz=100.0,
                             bandwidth_per_bps=1.0, guard_fraction=0.0,
                             min_channel_hz=1e-9)
        return AdmissionController(allocator=alloc, **kwargs)

    def test_fdm_first(self):
        ctrl = self._tiny()
        decision = ctrl.admit(0, 10.0, bearing_rad=0.0)
        assert decision.state == "fdm" and decision.admitted
        assert decision.sdm is None
        assert ctrl.decision_for(0) == decision

    def test_sdm_escalation_when_band_full(self):
        ctrl = self._tiny(sdm_channels=4)
        ctrl.admit(0, 100.0)  # the whole band
        decision = ctrl.admit(1, 10.0, bearing_rad=1.0)
        assert decision.state == "sdm" and decision.admitted
        assert decision.sdm is not None
        assert decision.plan is not None  # the shared slice
        assert ctrl.decision_for(1) == decision

    def test_blocked_without_bearing(self):
        ctrl = self._tiny()
        ctrl.admit(0, 100.0)
        decision = ctrl.admit(1, 10.0)  # no bearing: no SDM rung
        assert decision.state == "blocked" and not decision.admitted
        assert not _is_admitted(ctrl, 1)

    def test_release_returns_spectrum(self):
        ctrl = self._tiny()
        ctrl.admit(0, 100.0)
        ctrl.release(0)
        assert not _is_admitted(ctrl, 0)
        assert ctrl.admit(1, 100.0).state == "fdm"

    def test_release_sdm_node(self):
        ctrl = self._tiny(sdm_channels=2)
        ctrl.admit(0, 100.0)
        assert ctrl.admit(1, 10.0, bearing_rad=0.5).state == "sdm"
        ctrl.release(1)
        assert not _is_admitted(ctrl, 1) and _is_admitted(ctrl, 0)

    def test_occupancy_and_fragmentation(self):
        ctrl = self._tiny()
        assert ctrl.occupancy == pytest.approx(0.0)
        ctrl.admit(0, 50.0)
        assert ctrl.occupancy == pytest.approx(0.5)
        assert 0.0 <= ctrl.fragmentation <= 1.0

class TestBatchedReadmission:
    def _tiny(self, **kwargs) -> AdmissionController:
        alloc = FdmAllocator(band_low_hz=0.0, band_high_hz=100.0,
                             bandwidth_per_bps=1.0, guard_fraction=0.0,
                             min_channel_hz=1e-9)
        return AdmissionController(allocator=alloc, **kwargs)

    def test_single_pass_moves_all_victims(self):
        ctrl = self._tiny()
        for i in range(4):
            ctrl.admit(i, 10.0)  # [0,10) [10,20) [20,30) [30,40)
        report = ctrl.mark_interference(0.0, 25.0)
        assert report.victims == (0, 1, 2)
        assert set(report.moved) == {0, 1, 2}
        assert not report.spilled_to_sdm and not report.evicted
        # Everyone landed clear of the blocked range, nobody overlaps.
        plans = [ctrl.decision_for(i).plan for i in range(4)]
        for plan in plans:
            assert plan.low_hz >= 25.0 or plan.high_hz <= 0.0
        for i, a in enumerate(plans):
            for b in plans[i + 1:]:
                assert a.high_hz <= b.low_hz or b.high_hz <= a.low_hz

    def test_batched_pass_beats_per_node_loops(self):
        # Two 30 Hz victims + 40 Hz blocked: re-admitting one at a time
        # against a 60 Hz residue works only because the batch frees
        # BOTH victims before placing either — exactly the failure mode
        # per-node loops hit when the band is tight.
        ctrl = self._tiny()
        ctrl.admit(0, 30.0)
        ctrl.admit(1, 30.0)
        report = ctrl.mark_interference(0.0, 40.0)
        assert set(report.moved) == {0, 1}
        for i in range(2):
            assert ctrl.decision_for(i).plan.low_hz >= 40.0

    def test_spill_to_sdm_then_evict(self):
        ctrl = self._tiny(sdm_channels=2)
        ctrl.admit(0, 60.0, bearing_rad=0.0)
        ctrl.admit(1, 30.0)  # no bearing: cannot spill, must evict
        report = ctrl.mark_interference(0.0, 100.0)
        assert report.victims == (0, 1)
        assert report.spilled_to_sdm == (0,)
        assert report.evicted == (1,)
        assert ctrl.decision_for(0).state == "sdm"
        assert not _is_admitted(ctrl, 1)

class TestSaturationCampaign:
    def test_serial_vs_supervised_byte_identical(self):
        from repro.engine import SerialExecutor, SupervisedPool

        config = default_config(loads=(0.5, 3.0), replicates=2,
                                arrivals=80)
        serial = run_saturation(config, master_seed=7,
                                executor=SerialExecutor(), num_shards=1)
        parallel = run_saturation(config, master_seed=7,
                                  executor=SupervisedPool(jobs=2),
                                  num_shards=4)
        assert serial.curve() == parallel.curve()
        assert serial.churn_ops == parallel.churn_ops

    def test_blocking_grows_with_load(self):
        config = SaturationConfig(loads=(0.25, 8.0), replicates=2,
                                  arrivals=150)
        result = run_saturation(config, master_seed=0)
        assert result.blocking_probability[0] <= \
            result.blocking_probability[1]
        # Saturation pushes arrivals off FDM and onto spatial reuse.
        assert result.sdm_share[1] > result.sdm_share[0]
        assert result.churn_ops >= config.num_trials * config.arrivals

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SaturationConfig(loads=())
        with pytest.raises(ValueError):
            SaturationConfig(loads=(0.0,))
        with pytest.raises(ValueError):
            SaturationConfig(loads=(math.inf,))
        with pytest.raises(ValueError):
            SaturationConfig(loads=(math.nan,))
        with pytest.raises(ValueError):
            SaturationConfig(replicates=0)
        with pytest.raises(ValueError):
            SaturationConfig(warmup_fraction=1.0)
        with pytest.raises(ValueError):
            SaturationConfig(rate_classes=((1e6, -1.0),))

    def test_render_mentions_every_load(self):
        from repro.admission import render

        config = default_config(loads=(0.5, 1.5), replicates=1,
                                arrivals=40)
        text = render(run_saturation(config))
        assert "0.50" in text and "1.50" in text
        assert "P(block)" in text
