"""Tests for repro.phy.snr: noise-figure cascades and the SNR estimator."""

import numpy as np
import pytest

from repro.phy import snr as S


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
