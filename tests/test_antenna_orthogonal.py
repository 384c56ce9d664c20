"""Tests for the mmX orthogonal beam pair (Fig. 8 properties)."""

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.antenna.orthogonal import (
    OrthogonalBeamPair,
    ParametricBeam,
    design_mmx_beams,
    measured_mmx_beams,
)
from repro.antenna.patterns import (
    half_power_beamwidth_deg,
    pattern_orthogonality_db,
    peak_direction_deg,
)


@pytest.fixture(params=["analytic", "measured"])
def beams(request) -> OrthogonalBeamPair:
    if request.param == "analytic":
        return design_mmx_beams()
    return measured_mmx_beams()


class TestBeamGeometry:
    def test_beam1_peaks_at_broadside(self, beams):
        assert peak_direction_deg(beams.beam1) == pytest.approx(0.0, abs=1.0)

    def test_beam0_peaks_near_30(self, beams):
        peak = abs(peak_direction_deg(beams.beam0))
        assert 25.0 <= peak <= 32.0

    def test_beam0_null_at_broadside(self, beams):
        assert float(beams.beam0.power_db(0.0)) < -15.0

    def test_beam1_null_at_30(self, beams):
        assert float(beams.beam1.power_db(np.radians(30.0))) < -15.0

    def test_mutual_orthogonality(self, beams):
        assert pattern_orthogonality_db(beams.beam1, beams.beam0) < -15.0
        assert pattern_orthogonality_db(beams.beam0, beams.beam1) < -15.0

    def test_beamwidth_in_paper_range(self, beams):
        # Paper: ~40 deg measured; the analytic 2-element model is a bit
        # narrower.  Accept the plausible band.
        width = half_power_beamwidth_deg(beams.beam1)
        assert 20.0 <= width <= 50.0

    def test_beam0_symmetric(self, beams):
        theta = np.radians(np.linspace(5, 80, 16))
        assert np.asarray(beams.beam0.power_db(theta)) == pytest.approx(
            np.asarray(beams.beam0.power_db(-theta)), abs=1e-6)


class TestPairInterface:
    def test_pattern_selection(self, beams):
        assert beams.pattern(1) is beams.beam1
        assert beams.pattern(0) is beams.beam0

    def test_invalid_bit(self, beams):
        with pytest.raises(ValueError):
            beams.pattern(2)

    def test_beam0_power_normalised_below_beam1(self, beams):
        # Beam 0 splits power across two arms: its arm peak must sit
        # below Beam 1's single-lobe peak.
        grid = np.linspace(-np.pi, np.pi, 3601)
        peak1 = float(np.max(beams.field(1, grid)))
        peak0 = float(np.max(beams.field(0, grid)))
        assert peak0 < peak1
        assert peak0 > 0.4 * peak1  # but only by a few dB

    def test_equal_total_power(self, beams):
        grid = np.linspace(-np.pi, np.pi, 3601)
        p1 = np.trapezoid(np.asarray(beams.field(1, grid)) ** 2, grid)
        p0 = np.trapezoid(np.asarray(beams.field(0, grid)) ** 2, grid)
        assert p0 == pytest.approx(p1, rel=0.02)


class TestFieldOfView:
    def test_combined_coverage_within_fov(self):
        # Section 9.1: 120 deg field of view.  Within +-60 deg the best
        # of the two measured beams should stay within ~12 dB of peak.
        beams = measured_mmx_beams()
        theta = np.radians(np.linspace(-60, 60, 121))
        best = np.maximum(
            20 * np.log10(np.maximum(beams.field(1, theta), 1e-9)),
            20 * np.log10(np.maximum(beams.field(0, theta), 1e-9)))
        assert float(best.min()) > -13.0

    def test_coverage_collapses_outside_fov(self):
        beams = measured_mmx_beams()
        theta = np.radians(150.0)
        best = max(float(beams.field(1, theta)), float(beams.field(0, theta)))
        assert 20 * np.log10(best) < -12.0


class TestParametricBeam:
    def test_single_lobe_peak(self):
        beam = ParametricBeam(lobes=((0.0, 40.0),))
        assert float(beam.power_db(0.0)) == pytest.approx(0.0)

    def test_lobe_3db_width(self):
        beam = ParametricBeam(lobes=((0.0, 40.0),))
        assert float(beam.power_db(np.radians(20.0))) == pytest.approx(-3.0)

    def test_floor(self):
        beam = ParametricBeam(lobes=((0.0, 20.0),), floor_db=-18.0,
                              notches=())
        assert float(beam.power_db(np.radians(120.0))) == pytest.approx(-18.0)

    def test_notch_depth(self):
        beam = ParametricBeam(lobes=((0.0, 180.0),),
                              notches=((30.0, -25.0, 6.0),))
        assert float(beam.power_db(np.radians(30.0))) < -20.0

    def test_angle_wrapping(self):
        beam = ParametricBeam(lobes=((170.0, 40.0),))
        # -175 deg is 15 deg away from +170 across the wrap.
        assert float(beam.power_db(np.radians(-175.0))) > -3.1

    def test_design_frequency_scales_spacing(self):
        low = design_mmx_beams(frequency_hz=24.0e9)
        high = design_mmx_beams(frequency_hz=24.25e9)
        assert low.beam1.spacing_m > high.beam1.spacing_m


def _bits(value) -> bytes:
    return struct.pack("<d", value)


#: Signed zeros, the wrap points, and the lobe and notch centres.
PINNED_ANGLES = (0.0, -0.0, math.pi, -math.pi, 4 * math.pi, -4 * math.pi,
                 math.radians(30.0), -math.radians(30.0),
                 float(np.radians(30.0)), float(np.radians(-30.0)))

ANGLES = st.one_of(st.floats(-10.0, 10.0),
                   st.floats(allow_nan=False, allow_infinity=False))


class TestScalarPowerDb:
    """The float path of ParametricBeam.power_db against the 0-d array
    path it replaced: same bits, and a Python float."""

    @pytest.fixture(params=[1, 0], ids=["beam1", "beam0"])
    def beam(self, request) -> ParametricBeam:
        return measured_mmx_beams().pattern(request.param)

    @staticmethod
    def _assert_matches_array_path(beam, theta):
        # Angles whose degrees or lobe terms overflow fall back to the
        # array path (and its warnings); every other one stays on floats.
        with np.errstate(over="ignore", invalid="ignore"):
            value = beam.power_db(theta)
            reference = beam.power_db(np.asarray(theta))
        assert _bits(float(value)) == _bits(float(reference))
        if abs(theta) <= 1e6:
            assert type(value) is float

    @pytest.mark.parametrize("theta", PINNED_ANGLES)
    def test_pinned_angles(self, beam, theta):
        self._assert_matches_array_path(beam, theta)

    @given(theta=ANGLES)
    def test_any_finite_angle(self, theta):
        for bit in (0, 1):
            self._assert_matches_array_path(
                measured_mmx_beams().pattern(bit), theta)

    def test_field_is_a_float(self, beam):
        theta = math.radians(12.5)
        assert type(beam.field(theta)) is float
        assert _bits(beam.field(theta)) == _bits(
            float(beam.field(np.asarray(theta))))

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_angles_take_the_array_path(self, beam, theta):
        with np.errstate(invalid="ignore"):
            value = beam.power_db(theta)
            reference = beam.power_db(np.asarray(theta))
        assert type(value) is not float
        assert math.isnan(value) and math.isnan(reference)

    def test_zero_width_takes_the_array_path(self):
        beam = ParametricBeam(lobes=((0.0, 0.0),))
        with np.errstate(divide="ignore", invalid="ignore"):
            value = beam.power_db(0.5)
        assert type(value) is not float


class TestSharedMeasuredBeams:
    def test_repeat_calls_return_one_instance(self):
        pair = measured_mmx_beams()
        assert measured_mmx_beams() is pair
        assert measured_mmx_beams(8.0) is pair
        assert measured_mmx_beams(peak_gain_dbi=8) is pair
        assert measured_mmx_beams(5.0) is measured_mmx_beams(5.0)
        assert measured_mmx_beams(5.0) is not pair

    def test_shared_instance_is_frozen(self):
        pair = measured_mmx_beams()
        with pytest.raises(dataclasses.FrozenInstanceError):
            pair.peak_gain_dbi = 3.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            pair.beam1.floor_db = 0.0
        assert isinstance(pair.beam0.lobes, tuple)
