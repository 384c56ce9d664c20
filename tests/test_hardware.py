"""Tests for the hardware behavioural models (VCO, switch, AP chain)."""

import numpy as np
import pytest

from repro.constants import (
    NODE_ENERGY_PER_BIT_J,
    NODE_POWER_W,
)
from repro.hardware.chains import AccessPointHardware, NodeHardware
from repro.hardware.frontend import (
    HMC751LNA,
    MicrostripFilter,
)
from repro.hardware.power import EnergyModel
from repro.hardware.switch import ADRF5020Switch
from repro.hardware.vco import HMC533VCO


class TestVco:
    def test_endpoints_match_fig7(self):
        vco = HMC533VCO()
        assert float(vco.frequency_hz(3.5)) == pytest.approx(23.95e9)
        assert float(vco.frequency_hz(4.9)) == pytest.approx(24.25e9)

    def test_monotone_tuning(self):
        vco = HMC533VCO()
        v = np.linspace(3.5, 4.9, 100)
        f = vco.frequency_hz(v)
        assert np.all(np.diff(f) > 0)

    def test_clamps_outside_range(self):
        vco = HMC533VCO()
        assert float(vco.frequency_hz(0.0)) == pytest.approx(23.95e9)
        assert float(vco.frequency_hz(10.0)) == pytest.approx(24.25e9)

    def test_covers_ism_band(self):
        assert HMC533VCO().covers_ism_band()

    def test_inverse_tuning(self):
        vco = HMC533VCO()
        for f in (23.95e9, 24.0e9, 24.125e9, 24.25e9):
            v = vco.voltage_for_frequency(f)
            assert float(vco.frequency_hz(v)) == pytest.approx(f, abs=1e3)

    def test_inverse_out_of_range(self):
        with pytest.raises(ValueError):
            HMC533VCO().voltage_for_frequency(25.0e9)

    def test_sensitivity_positive_and_reasonable(self):
        vco = HMC533VCO()
        slope = vco.tuning_sensitivity_hz_per_v(4.2)
        # 300 MHz over 1.4 V -> ~214 MHz/V.
        assert 1.5e8 < slope < 3.0e8

    def test_fsk_nudge_is_millivolts(self):
        # A 500 kHz FSK deviation needs only a few-mV control step —
        # "simply implemented by changing the control voltage" (6.3).
        vco = HMC533VCO()
        step = 500e3 / vco.tuning_sensitivity_hz_per_v(4.2)
        assert step < 0.01

    def test_invalid_curvature(self):
        with pytest.raises(ValueError):
            HMC533VCO(curvature=0.7)


class TestSwitch:
    def test_defaults_match_datasheet(self):
        sw = ADRF5020Switch()
        assert sw.insertion_loss_db == 2.0
        assert sw.isolation_db == 65.0
        assert sw.max_bitrate_bps == 100e6

    def test_validate_bitrate(self):
        sw = ADRF5020Switch()
        sw.validate_bitrate(100e6)  # at the cap is fine
        with pytest.raises(ValueError):
            sw.validate_bitrate(150e6)
        with pytest.raises(ValueError):
            sw.validate_bitrate(0.0)

    def test_isolation_must_exceed_loss(self):
        with pytest.raises(ValueError):
            ADRF5020Switch(insertion_loss_db=10.0, isolation_db=5.0)


class TestApFrontend:
    def test_lna_defaults(self):
        lna = HMC751LNA()
        assert lna.gain_db == 25.0
        assert lna.noise_figure_db == 2.0

    def test_filter_costs_nothing(self):
        assert MicrostripFilter().cost_usd == 0.0


class TestNodeHardware:
    def test_total_power_is_paper_value(self):
        assert NodeHardware().total_power_w == pytest.approx(NODE_POWER_W)

    def test_energy_per_bit_11nj(self):
        hw = NodeHardware()
        assert hw.energy_per_bit_j() == pytest.approx(NODE_ENERGY_PER_BIT_J)
        assert hw.energy_per_bit_j() == pytest.approx(11e-9)

    def test_cost_near_110(self):
        assert NodeHardware().total_cost_usd == pytest.approx(110.0, abs=15.0)

    def test_bitrate_cap(self):
        assert NodeHardware().max_bitrate_bps == 100e6

    def test_switch_refuses_rate_above_cap(self):
        """The node's rate check is its switch's (``MmxNode`` runs it)."""
        with pytest.raises(ValueError):
            NodeHardware().switch.validate_bitrate(1e9)


class TestApHardware:
    def test_cascade_nf_lna_dominated(self):
        # The LNA's 25 dB gain keeps the cascade within ~1.2 dB of its
        # own 2 dB NF despite 14 dB of downstream losses.
        ap = AccessPointHardware()
        assert 2.0 < ap.cascade_noise_figure_db < 3.5


class TestEnergyModel:
    def model(self) -> EnergyModel:
        return EnergyModel(active_power_w=1.1, idle_power_w=0.3,
                           bitrate_bps=100e6)

    def test_duty_cycle(self):
        assert self.model().duty_cycle_for_load(10e6) == pytest.approx(0.1)

    def test_average_power_interpolates(self):
        m = self.model()
        assert m.average_power_w(0.0) == pytest.approx(0.3)
        assert m.average_power_w(100e6) == pytest.approx(1.1)
        assert 0.3 < m.average_power_w(50e6) < 1.1

    def test_battery_life(self):
        m = self.model()
        hours = m.battery_life_hours(battery_wh=10.0, offered_load_bps=10e6)
        assert hours == pytest.approx(10.0 / m.average_power_w(10e6))

    def test_overload_rejected(self):
        with pytest.raises(ValueError):
            self.model().duty_cycle_for_load(200e6)

    def test_invalid_powers(self):
        with pytest.raises(ValueError):
            EnergyModel(active_power_w=0.1, idle_power_w=0.5, bitrate_bps=1e6)
