"""Tests for repro.phy envelope detection, level estimation and Goertzel."""

import numpy as np
import pytest

from repro.phy import envelope as E
from repro.phy import goertzel as G


class TestEnvelope:
    def test_recovers_two_levels(self):
        t = np.arange(160) / 8e6
        tone = np.exp(1j * 2 * np.pi * 1e6 * t)
        env_in = np.repeat([1.0, 0.3], 80)
        env = E.envelope_detect(env_in * tone)
        assert env[:80] == pytest.approx(np.full(80, 1.0))
        assert env[80:] == pytest.approx(np.full(80, 0.3))


class TestThresholdLevels:
    def test_separated_levels(self, rng):
        env = np.concatenate([
            1.0 + 0.01 * rng.standard_normal(500),
            0.2 + 0.01 * rng.standard_normal(500),
        ])
        low, high, threshold = E.threshold_levels(env)
        assert low == pytest.approx(0.2, abs=0.05)
        assert high == pytest.approx(1.0, abs=0.05)
        assert 0.3 < threshold < 0.9

    def test_degenerate_equal_levels(self):
        low, high, threshold = E.threshold_levels(np.full(100, 0.5))
        assert low == high == threshold == pytest.approx(0.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            E.threshold_levels(np.zeros(0))

    def test_unbalanced_duty_cycle(self, rng):
        # 90/10 split must still find both levels.
        env = np.concatenate([
            1.0 + 0.01 * rng.standard_normal(900),
            0.1 + 0.01 * rng.standard_normal(100),
        ])
        low, high, _ = E.threshold_levels(env)
        assert high - low > 0.7


def _whole_block_powers(x, frequencies_hz, fs):
    """Tone powers with one block covering the whole input."""
    return G.goertzel_block_powers(x, x.size, frequencies_hz, fs)[0]


class TestGoertzelBlocks:
    def test_unit_tone_power_one(self):
        fs = 8e6
        t = np.arange(800) / fs
        x = np.exp(1j * 2 * np.pi * 5e5 * t)
        assert _whole_block_powers(x, [5e5], fs)[0] == pytest.approx(
            1.0, rel=1e-6)

    def test_orthogonal_tone_rejected(self):
        fs, n = 8e6, 800
        t = np.arange(n) / fs
        # Tones separated by k/T are orthogonal over the block.
        x = np.exp(1j * 2 * np.pi * 5e5 * t)
        other = 5e5 + fs / n * 10
        assert _whole_block_powers(x, [other], fs)[0] < 1e-10

    def test_negative_frequency(self):
        fs = 8e6
        t = np.arange(400) / fs
        x = np.exp(-1j * 2 * np.pi * 1e6 * t)
        negative, positive = _whole_block_powers(x, [-1e6, +1e6], fs)
        assert negative == pytest.approx(1.0, rel=1e-6)
        assert positive < 1e-3

    def test_amplitude_scales_as_square(self):
        fs = 8e6
        t = np.arange(400) / fs
        x = 0.5 * np.exp(1j * 2 * np.pi * 1e6 * t)
        assert _whole_block_powers(x, [1e6], fs)[0] == pytest.approx(
            0.25, rel=1e-6)

    def test_per_block_detection(self):
        fs, sps = 8e6, 8
        f0, f1 = -5e5, 5e5
        bits = [1, 0, 1, 1, 0]
        t = np.arange(sps) / fs
        chunks = [np.exp(1j * 2 * np.pi * (f1 if b else f0) * t) for b in bits]
        x = np.concatenate(chunks)
        powers = G.goertzel_block_powers(x, sps, [f0, f1], fs)
        decided = (powers[:, 1] > powers[:, 0]).astype(int)
        assert list(decided) == bits

    def test_shape(self):
        x = np.zeros(100, dtype=complex)
        out = G.goertzel_block_powers(x, 8, [1e5, 2e5, 3e5], 8e6)
        assert out.shape == (12, 3)

    def test_trailing_samples_dropped(self):
        x = np.ones(17, dtype=complex)
        out = G.goertzel_block_powers(x, 8, [0.0], 8e6)
        assert out.shape[0] == 2

    def test_invalid_block(self):
        with pytest.raises(ValueError):
            G.goertzel_block_powers(np.ones(8, dtype=complex), 0, [0.0], 8e6)
