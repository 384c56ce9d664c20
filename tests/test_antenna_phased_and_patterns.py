"""Tests for the phased-array baseline and pattern metrics."""

import numpy as np
import pytest

from repro.antenna.array import UniformLinearArray
from repro.antenna.orthogonal import measured_mmx_beams
from repro.antenna.patterns import (
    half_power_beamwidth_deg,
    peak_direction_deg,
)
from repro.antenna.phased_array import PhasedArray

from .signal_fixtures import IsotropicElement

FREQ = 24.125e9


class TestPhasedArray:
    def test_costs_scale_with_elements(self):
        small = PhasedArray(4, FREQ)
        large = PhasedArray(16, FREQ)
        assert large.cost_usd == pytest.approx(4 * small.cost_usd)
        assert large.power_consumption_w == pytest.approx(
            4 * small.power_consumption_w)

    def test_paper_eight_element_claim(self):
        # Section 6: an 8-element phased array consumes more than a watt
        # and costs a few hundred dollars.
        array = PhasedArray(8, FREQ)
        assert array.power_consumption_w > 1.0
        assert array.cost_usd > 200.0

    def test_steered_peak_location(self):
        array = PhasedArray(16, FREQ)
        pattern = array.steered_pattern(np.radians(30.0))
        assert peak_direction_deg(pattern) == pytest.approx(30.0, abs=2.0)

    def test_quantisation_limits_steering(self):
        coarse = PhasedArray(8, FREQ, phase_bits=1)
        fine = PhasedArray(8, FREQ, phase_bits=6)
        target = np.radians(17.0)
        gain_coarse = float(np.asarray(
            coarse.steered_pattern(target).power_db(target)))
        gain_fine = float(np.asarray(
            fine.steered_pattern(target).power_db(target)))
        assert gain_fine >= gain_coarse

    def test_codebook_covers_both_sides(self):
        array = PhasedArray(8, FREQ)
        dirs = array.codebook_directions_rad()
        assert dirs.size == 8
        assert dirs[0] < 0 < dirs[-1]

    def test_codebook_custom_size(self):
        assert PhasedArray(8, FREQ).codebook_directions_rad(32).size == 32

    def test_minimum_elements(self):
        with pytest.raises(ValueError):
            PhasedArray(1, FREQ)


class TestPatternMetrics:
    def test_peak_direction_of_steered(self):
        lam = 0.0124
        ula = UniformLinearArray(IsotropicElement(), 8, lam / 2, FREQ)
        assert peak_direction_deg(ula) == pytest.approx(0.0, abs=0.5)

    def test_beamwidth_positive(self):
        beams = measured_mmx_beams()
        assert half_power_beamwidth_deg(beams.beam1) > 0

    def test_beamwidth_around_secondary_lobe(self):
        beams = measured_mmx_beams()
        width = half_power_beamwidth_deg(beams.beam0, around_deg=30.0)
        assert 20.0 <= width <= 60.0
