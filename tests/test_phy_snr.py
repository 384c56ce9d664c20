"""Tests for repro.phy.snr: noise, cascades, link budgets."""

import numpy as np
import pytest

from repro.phy import snr as S


class TestThermalNoise:
    def test_one_hz_floor(self):
        assert S.thermal_noise_dbm(1.0) == pytest.approx(-174.0)

    def test_one_mhz(self):
        assert S.thermal_noise_dbm(1e6) == pytest.approx(-114.0)

    def test_noise_figure_adds(self):
        assert (S.thermal_noise_dbm(1e6, noise_figure_db=5.0)
                == pytest.approx(-109.0))

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            S.thermal_noise_dbm(0.0)


class TestFriisCascade:
    def test_single_stage_is_its_nf(self):
        assert S.noise_figure_cascade_db([(25.0, 2.0)]) == pytest.approx(2.0)

    def test_lna_first_dominates(self):
        # The mmX AP ordering: LNA(25 dB gain, 2 dB NF) then a 5 dB-loss
        # filter then a 9 dB-loss mixer — cascade stays close to 2 dB.
        nf = S.noise_figure_cascade_db([(25.0, 2.0), (-5.0, 5.0), (-9.0, 9.0)])
        assert 2.0 < nf < 3.0

    def test_lossy_first_is_much_worse(self):
        # Filter before LNA: its 5 dB loss adds straight onto the NF —
        # the quantitative reason for the paper's section 8.2 ordering.
        bad = S.noise_figure_cascade_db([(-5.0, 5.0), (25.0, 2.0)])
        good = S.noise_figure_cascade_db([(25.0, 2.0), (-5.0, 5.0)])
        assert bad > good + 4.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            S.noise_figure_cascade_db([])


class TestLinkBudget:
    def budget(self) -> S.LinkBudget:
        return S.LinkBudget(tx_eirp_dbm=10.0, rx_antenna_gain_dbi=5.0,
                            bandwidth_hz=25e6, rx_noise_figure_db=2.2)

    def test_noise_floor(self):
        floor = self.budget().noise_floor_dbm()
        assert floor == pytest.approx(-174.0 + 10 * np.log10(25e6) + 2.2)

    def test_snr_identity(self):
        b = self.budget()
        pl = 80.0
        assert b.snr_db(pl) == pytest.approx(
            b.received_power_dbm(pl) - b.noise_floor_dbm())

    def test_more_path_loss_less_snr(self):
        b = self.budget()
        assert b.snr_db(90.0) < b.snr_db(80.0)

    def test_max_path_loss_inverts_snr(self):
        b = self.budget()
        pl = b.max_path_loss_db(required_snr_db=10.0)
        assert b.snr_db(pl) == pytest.approx(10.0)

    def test_implementation_loss_hurts(self):
        lossy = S.LinkBudget(10.0, 5.0, 25e6, 2.2, implementation_loss_db=10.0)
        assert lossy.snr_db(80.0) == pytest.approx(self.budget().snr_db(80.0) - 10.0)


class TestTwoLevelSnrEstimator:
    def test_clean_levels_high_snr(self, rng):
        samples = np.concatenate([np.full(100, 1.0), np.full(100, 0.2)])
        samples += 1e-4 * rng.standard_normal(200)
        decisions = np.concatenate([np.ones(100), np.zeros(100)]).astype(int)
        assert S.estimate_snr_two_level(samples, decisions) > 40.0

    def test_known_snr_recovered(self, rng):
        distance, sigma = 1.0, 0.05
        n = 20000
        bits = rng.integers(0, 2, n)
        samples = bits * distance + sigma * rng.standard_normal(n)
        est = S.estimate_snr_two_level(samples, bits)
        expected = 10 * np.log10(distance**2 / (2 * sigma**2))
        assert est == pytest.approx(expected, abs=0.5)

    def test_missing_level_is_neg_inf(self):
        samples = np.ones(10)
        decisions = np.ones(10, dtype=int)
        assert S.estimate_snr_two_level(samples, decisions) == -np.inf

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            S.estimate_snr_two_level(np.ones(4), np.ones(3))
