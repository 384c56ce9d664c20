"""Tests for the joint ASK-FSK numerology."""

import pytest

from repro.core.ask_fsk import AskFskConfig


class TestDefaults:
    def test_default_deviation_half_bitrate(self):
        cfg = AskFskConfig(bit_rate_bps=1e6, sample_rate_hz=8e6)
        assert cfg.fsk_deviation_hz == pytest.approx(5e5)
        assert cfg.tone_separation_hz == pytest.approx(1e6)

    def test_samples_per_bit(self):
        cfg = AskFskConfig(bit_rate_bps=1e6, sample_rate_hz=8e6)
        assert cfg.samples_per_bit == 8

    def test_tone_signs(self):
        cfg = AskFskConfig()
        assert cfg.freq_one_hz > 0 > cfg.freq_zero_hz
        assert cfg.freq_one_hz == -cfg.freq_zero_hz

    def test_occupied_bandwidth(self):
        cfg = AskFskConfig(bit_rate_bps=1e6, sample_rate_hz=8e6)
        assert cfg.occupied_bandwidth_hz == pytest.approx(3e6)


class TestValidation:
    def test_non_integer_sps_rejected(self):
        with pytest.raises(ValueError):
            AskFskConfig(bit_rate_bps=3e6, sample_rate_hz=8e6)

    def test_sample_rate_too_low(self):
        with pytest.raises(ValueError):
            AskFskConfig(bit_rate_bps=8e6, sample_rate_hz=8e6)

    def test_negative_deviation(self):
        with pytest.raises(ValueError):
            AskFskConfig(fsk_deviation_hz=-1e5)

    def test_tones_beyond_nyquist(self):
        with pytest.raises(ValueError):
            AskFskConfig(bit_rate_bps=1e6, sample_rate_hz=8e6,
                         fsk_deviation_hz=3e6)
