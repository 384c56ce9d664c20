"""Tests for path-loss models."""

import pytest

from repro.channel import pathloss as PL


class TestFreeSpace:
    def test_known_value_24ghz_1m(self):
        # FSPL(1 m, 24 GHz) = 20 log10(4 pi / lambda) ~ 60.1 dB.
        assert float(PL.free_space_path_loss_db(1.0, 24.0e9)) == pytest.approx(
            60.1, abs=0.2)

    def test_doubling_distance_adds_6db(self):
        pl1 = PL.free_space_path_loss_db(2.0, 24e9)
        pl2 = PL.free_space_path_loss_db(4.0, 24e9)
        assert float(pl2 - pl1) == pytest.approx(6.02, abs=0.01)

    def test_mmwave_penalty_vs_wifi(self):
        # The premise of the whole paper: 24 GHz loses ~20 dB to 2.4 GHz.
        gap = (PL.free_space_path_loss_db(5.0, 24e9)
               - PL.free_space_path_loss_db(5.0, 2.4e9))
        assert float(gap) == pytest.approx(20.0, abs=0.1)

    def test_near_field_clamped(self):
        tiny = PL.free_space_path_loss_db(1e-6, 24e9)
        lam = PL.free_space_path_loss_db(0.0125, 24e9)
        assert float(tiny) == pytest.approx(float(lam), abs=0.3)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            PL.free_space_path_loss_db(-1.0, 24e9)

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            PL.free_space_path_loss_db(1.0, 0.0)


class TestFriisReceived:
    def test_link_identity(self):
        rx = PL.friis_received_power_dbm(10.0, 5.0, 3.0, 24e9)
        expected = 10.0 + 5.0 - float(PL.free_space_path_loss_db(3.0, 24e9))
        assert float(rx) == pytest.approx(expected)


class TestOxygenAbsorption:
    def test_60ghz_much_worse_than_24ghz(self):
        d = 100.0
        a60 = float(PL.oxygen_absorption_db(d, 60e9))
        a24 = float(PL.oxygen_absorption_db(d, 24e9))
        assert a60 > 10 * a24

    def test_negligible_indoors_at_24ghz(self):
        assert float(PL.oxygen_absorption_db(18.0, 24e9)) < 0.01

    def test_scales_linearly(self):
        assert float(PL.oxygen_absorption_db(2000.0, 60e9)) == pytest.approx(
            2 * float(PL.oxygen_absorption_db(1000.0, 60e9)))
