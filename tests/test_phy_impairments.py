"""Tests for receiver/transmitter impairments and demodulator robustness."""

import numpy as np
import pytest

from repro.channel.multipath import ChannelResponse
from repro.channel.noise import complex_awgn
from repro.core.ask_fsk import AskFskConfig
from repro.core.demodulator import JointDemodulator
from repro.core.otam import OtamModulator
from repro.phy import impairments as I
from repro.phy.bits import random_bits
from repro.phy.preamble import default_preamble_bits
from repro.phy.waveform import Waveform

from .signal_fixtures import carrier


class TestCfo:
    def test_shifts_tone(self):
        fs = 8e6
        wave = carrier(0.0, 1e-3, fs)
        shifted = I.apply_cfo(wave, 1e6)
        spectrum = np.abs(np.fft.fft(shifted.samples))
        freqs = np.fft.fftfreq(shifted.samples.size, 1 / fs)
        assert freqs[int(np.argmax(spectrum))] == pytest.approx(1e6, abs=2e3)

    def test_zero_offset_identity(self):
        wave = carrier(1e5, 1e-4, 8e6)
        out = I.apply_cfo(wave, 0.0)
        assert np.allclose(out.samples, wave.samples)

    def test_preserves_power(self):
        wave = carrier(1e5, 1e-3, 8e6)
        shifted = I.apply_cfo(wave, 3e5).samples
        assert np.mean(np.abs(shifted) ** 2) == pytest.approx(
            np.mean(np.abs(wave.samples) ** 2))


class TestPhaseNoise:
    def test_zero_linewidth_identity(self):
        wave = carrier(0.0, 1e-4, 8e6)
        out = I.apply_phase_noise(wave, 0.0)
        assert np.allclose(out.samples, wave.samples)

    def test_preserves_envelope(self, rng):
        wave = carrier(0.0, 1e-3, 8e6, amplitude=0.7)
        out = I.apply_phase_noise(wave, 1e4, rng)
        assert np.allclose(np.abs(out.samples), 0.7)

    def test_broadens_spectrum(self, rng):
        fs = 8e6
        wave = carrier(0.0, 4e-3, fs)
        dirty = I.apply_phase_noise(wave, 5e4, rng)
        clean_spec = np.abs(np.fft.fft(wave.samples)) ** 2
        dirty_spec = np.abs(np.fft.fft(dirty.samples)) ** 2
        # Energy concentration at the carrier bin drops.
        assert dirty_spec.max() < 0.9 * clean_spec.max()

    def test_negative_linewidth_rejected(self):
        with pytest.raises(ValueError):
            I.apply_phase_noise(carrier(0, 1e-4, 8e6), -1.0)


class TestQuantize:
    def test_many_bits_near_identity(self):
        wave = carrier(1e5, 1e-4, 8e6)
        out = I.quantize(wave, 14)
        assert np.max(np.abs(out.samples - wave.samples)) < 1e-3

    def test_one_bit_is_sign(self):
        wave = carrier(1e5, 1e-4, 8e6)
        out = I.quantize(wave, 1)
        assert len(np.unique(out.samples.real)) <= 2

    def test_quantisation_noise_scales(self, rng):
        wave = Waveform(complex_awgn(np.zeros(4000, complex), 0.0, rng), 8e6)
        err8 = np.mean(np.abs(I.quantize(wave, 8).samples - wave.samples) ** 2)
        err4 = np.mean(np.abs(I.quantize(wave, 4).samples - wave.samples) ** 2)
        assert err4 > 10 * err8

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            I.quantize(carrier(0, 1e-4, 8e6), 0)


class TestIqImbalance:
    def test_creates_image_tone(self):
        fs = 8e6
        wave = carrier(1e6, 1e-3, fs)
        out = I.apply_iq_imbalance(wave, gain_db=1.0, phase_deg=5.0)
        spectrum = np.abs(np.fft.fft(out.samples)) ** 2
        freqs = np.fft.fftfreq(out.samples.size, 1 / fs)
        image_bin = int(np.argmin(np.abs(freqs + 1e6)))
        main_bin = int(np.argmin(np.abs(freqs - 1e6)))
        assert spectrum[image_bin] > 0.0
        assert spectrum[image_bin] < 0.1 * spectrum[main_bin]

    def test_no_imbalance_is_identity(self):
        wave = carrier(1e6, 1e-4, 8e6)
        out = I.apply_iq_imbalance(wave, gain_db=0.0, phase_deg=0.0)
        assert np.allclose(out.samples, wave.samples)


class TestDemodulatorUnderImpairments:
    """The robustness argument: coarse modulations shrug off dirt."""

    def _clean_capture(self, rng, config, h1=1.0, h0=0.15):
        bits = np.concatenate([default_preamble_bits(), random_bits(96, rng)])
        mod = OtamModulator(config, eirp_dbm=0.0)
        wave = mod.received_waveform(
            bits, ChannelResponse(h1=h1, h0=h0, paths=()))
        complex_awgn(wave.samples, -30.0, rng)
        return bits, wave

    def _errors(self, config, bits, wave):
        result = JointDemodulator(config).demodulate(wave)
        n = min(bits.size, result.bits.size)
        return int(np.count_nonzero(bits[:n] != result.bits[:n]))

    def test_survives_moderate_cfo(self, rng):
        # A wide-deviation config tolerates a free-running VCO's drift.
        config = AskFskConfig(bit_rate_bps=1e6, sample_rate_hz=16e6,
                              fsk_deviation_hz=2e6)
        bits, wave = self._clean_capture(rng, config)
        dirty = I.apply_cfo(wave, 200e3)  # ~8 ppm at 24 GHz
        assert self._errors(config, bits, dirty) == 0

    def test_survives_phase_noise(self, rng):
        config = AskFskConfig(bit_rate_bps=1e6, sample_rate_hz=8e6)
        bits, wave = self._clean_capture(rng, config)
        dirty = I.apply_phase_noise(wave, 1e4, rng)
        assert self._errors(config, bits, dirty) == 0

    def test_survives_8bit_adc(self, rng):
        config = AskFskConfig(bit_rate_bps=1e6, sample_rate_hz=8e6)
        bits, wave = self._clean_capture(rng, config)
        assert self._errors(config, bits, I.quantize(wave, 8)) == 0

    def test_survives_cheap_digitiser(self, rng):
        # The three dirt sources of a low-cost receive chain at once: a
        # 50 kHz LO offset, a 2 kHz oscillator linewidth and an 8-bit
        # ADC.
        config = AskFskConfig(bit_rate_bps=1e6, sample_rate_hz=16e6)
        bits, wave = self._clean_capture(rng, config)
        dirty = I.quantize(
            I.apply_phase_noise(I.apply_cfo(wave, 50e3), 2e3, rng), 8)
        assert self._errors(config, bits, dirty) == 0

    def test_survives_iq_imbalance(self, rng):
        config = AskFskConfig(bit_rate_bps=1e6, sample_rate_hz=8e6)
        bits, wave = self._clean_capture(rng, config)
        dirty = I.apply_iq_imbalance(wave, gain_db=0.5, phase_deg=3.0)
        assert self._errors(config, bits, dirty) == 0

    def test_extreme_cfo_breaks_fsk_only_cases(self, rng):
        # Sanity: the tolerance is finite.  With equal amplitudes the
        # decision is all-FSK, and a CFO of a full tone spacing flips it.
        config = AskFskConfig(bit_rate_bps=1e6, sample_rate_hz=8e6)
        bits, wave = self._clean_capture(rng, config, h1=0.5,
                                         h0=0.5 * np.exp(1j))
        dirty = I.apply_cfo(wave, config.tone_separation_hz)
        assert self._errors(config, bits, dirty) > 0
