"""Tests for repro.phy.waveform."""

import numpy as np
import pytest

from repro.phy import waveform as W

from .signal_fixtures import carrier


class TestWaveform:
    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            W.Waveform(np.zeros(4, dtype=complex), 0.0)

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            W.Waveform(np.zeros((2, 4), dtype=complex), 1e6)


class TestCarrier:
    def test_frequency_is_correct(self):
        f, fs = 1e6, 16e6
        w = carrier(f, 1e-3, fs)
        spectrum = np.fft.fft(w.samples)
        freqs = np.fft.fftfreq(len(w), 1 / fs)
        peak = freqs[np.argmax(np.abs(spectrum))]
        assert peak == pytest.approx(f, abs=fs / len(w))

    def test_phase_offset(self):
        w = carrier(0.0, 1e-4, 8e6, phase_rad=np.pi / 2)
        assert w.samples[0] == pytest.approx(1j)


class TestTwoLevel:
    def test_amplitudes_keyed_by_bits(self):
        w = W.two_level_waveform([1, 0, 1, 1], 1e6, 8e6,
                                 amp_one=1.0, amp_zero=0.25)
        env = np.abs(w.samples).reshape(4, 8).mean(axis=1)
        assert env == pytest.approx([1.0, 0.25, 1.0, 1.0])

    def test_complex_amplitudes_allowed(self):
        w = W.two_level_waveform([1, 0], 1e6, 8e6,
                                 amp_one=1j, amp_zero=0.5 * np.exp(1j))
        env = np.abs(w.samples).reshape(2, 8).mean(axis=1)
        assert env == pytest.approx([1.0, 0.5])

    def test_phase_continuity(self):
        # Phase must not jump at bit boundaries (free-running VCO).
        w = W.two_level_waveform([1, 0, 1], 1e6, 16e6,
                                 amp_one=1.0, amp_zero=1.0,
                                 freq_one_hz=5e5, freq_zero_hz=-5e5)
        phase = np.unwrap(np.angle(w.samples))
        steps = np.abs(np.diff(phase))
        assert steps.max() < 0.5  # max per-sample advance ~2*pi*f/fs

    def test_fsk_tones_present(self):
        fs = 16e6
        w = W.two_level_waveform([1] * 16, 1e6, fs, 1.0, 1.0,
                                 freq_one_hz=5e5, freq_zero_hz=-5e5)
        spectrum = np.abs(np.fft.fft(w.samples))
        freqs = np.fft.fftfreq(len(w), 1 / fs)
        assert freqs[np.argmax(spectrum)] == pytest.approx(5e5, abs=1e5)


class TestAwgn:
    def test_noise_power(self, rng):
        noise = W.awgn_noise(200_000, 0.25, rng)
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(0.25, rel=0.02)

    def test_negative_noise_power_rejected(self):
        with pytest.raises(ValueError):
            W.awgn_noise(10, -1.0)
