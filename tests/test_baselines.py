"""Tests for the beam-search and platform baselines."""

import math

import numpy as np
import pytest

from repro.antenna.phased_array import PhasedArray
from repro.baselines.beam_search import (
    ExhaustiveBeamSearch,
    FeedbackBeamSelection,
    HierarchicalBeamSearch,
)
from repro.baselines.platforms import PLATFORMS, comparison_table, mmx_platform

FREQ = 24.125e9


def _metric(best_deg=20.0):
    best = np.radians(best_deg)

    def metric(direction_rad: float) -> float:
        return 30.0 * float(np.cos(direction_rad - best)) ** 2

    return metric


class TestExhaustiveSearch:
    def test_finds_best_direction(self):
        array = PhasedArray(16, FREQ)
        result = ExhaustiveBeamSearch(array).search(_metric(20.0))
        assert math.degrees(result.best_direction_rad) == pytest.approx(
            20.0, abs=8.0)

    def test_probe_count_is_codebook_size(self):
        array = PhasedArray(16, FREQ)
        result = ExhaustiveBeamSearch(array).search(_metric())
        assert result.probes == 16
        assert result.feedback_messages == 16

    def test_overhead_accounting(self):
        array = PhasedArray(8, FREQ)
        result = ExhaustiveBeamSearch(array).search(_metric())
        assert result.node_energy_j(1e-3, 2e-3, 1.0, 0.5) == pytest.approx(
            8 * 1e-3 * 1.0 + 8 * 2e-3 * 0.5)


class TestHierarchicalSearch:
    def test_fewer_probes_than_exhaustive(self):
        array = PhasedArray(64, FREQ)
        exhaustive = ExhaustiveBeamSearch(array).search(_metric())
        hierarchical = HierarchicalBeamSearch(array).search(_metric())
        assert hierarchical.probes < exhaustive.probes

    def test_converges_near_best(self):
        array = PhasedArray(64, FREQ)
        result = HierarchicalBeamSearch(array, levels=4).search(_metric(-35.0))
        assert math.degrees(result.best_direction_rad) == pytest.approx(
            -35.0, abs=6.0)

    def test_feedback_per_level(self):
        array = PhasedArray(16, FREQ)
        result = HierarchicalBeamSearch(array, levels=3).search(_metric())
        assert result.feedback_messages == 3

    def test_invalid_parameters(self):
        array = PhasedArray(16, FREQ)
        with pytest.raises(ValueError):
            HierarchicalBeamSearch(array, levels=0)


class TestFeedbackSelection:
    def test_picks_best_fixed_beam(self):
        selector = FeedbackBeamSelection(np.radians([-30, 0, 30]))
        result = selector.select(_metric(25.0))
        assert math.degrees(result.best_direction_rad) == pytest.approx(30.0)

    def test_needs_two_beams(self):
        with pytest.raises(ValueError):
            FeedbackBeamSelection([0.0])


class TestPlatforms:
    def test_mmx_row_derived_from_hardware(self):
        row = mmx_platform()
        assert row.power_w == pytest.approx(1.1)
        assert row.bitrate_bps == 100e6
        assert row.energy_per_bit_j == pytest.approx(11e-9)

    def test_table_has_all_five_rows(self):
        table = comparison_table()
        assert len(table) == 5
        assert table[0].name == "mmX"

    def test_paper_table_values(self):
        assert PLATFORMS["MiRa"].cost_usd == 7000.0
        assert PLATFORMS["WiFi"].energy_per_bit_j == pytest.approx(17.5e-9)
        assert PLATFORMS["Bluetooth"].energy_per_bit_j == pytest.approx(29e-9)

    def test_mmx_beats_wifi_and_bluetooth_energy(self):
        mmx = mmx_platform()
        assert mmx.energy_per_bit_j < PLATFORMS["WiFi"].energy_per_bit_j
        assert mmx.energy_per_bit_j < PLATFORMS["Bluetooth"].energy_per_bit_j

    def test_mmwave_classification(self):
        assert mmx_platform().is_mmwave
        assert PLATFORMS["OpenMili"].is_mmwave
        assert not PLATFORMS["WiFi"].is_mmwave
