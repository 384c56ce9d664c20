"""Tests for the OTAM modulator — modulation created by the channel."""

import numpy as np
import pytest

from repro.channel.multipath import ChannelResponse
from repro.core.ask_fsk import AskFskConfig
from repro.core.otam import OtamModulator, transmitted_beam_bits
from repro.hardware.switch import ADRF5020Switch


@pytest.fixture
def cfg():
    return AskFskConfig(bit_rate_bps=1e6, sample_rate_hz=8e6)


def channel(h1=1.0, h0=0.1):
    return ChannelResponse(h1=h1, h0=h0, paths=())


class TestBeamMapping:
    def test_identity_mapping(self):
        bits = [1, 0, 1, 1, 0]
        assert list(transmitted_beam_bits(bits)) == bits

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            transmitted_beam_bits([2, 0])


class TestPerBitAmplitudes:
    def test_strong_beam_on_one(self, cfg):
        mod = OtamModulator(cfg, eirp_dbm=0.0)
        amp1, amp0 = mod.per_bit_amplitudes(channel(h1=1.0, h0=0.1))
        assert abs(amp1) > abs(amp0)
        assert abs(amp1) == pytest.approx(1.0, rel=0.01)
        assert abs(amp0) == pytest.approx(0.1, rel=0.05)

    def test_switch_leakage_mixes_beams(self, cfg):
        mod = OtamModulator(cfg, eirp_dbm=0.0)
        amp1, _ = mod.per_bit_amplitudes(channel(h1=0.0, h0=1.0))
        # Even with h1 = 0, the isolation leakage radiates a little of
        # the carrier through Beam 0's channel.
        assert abs(amp1) > 0.0
        assert abs(amp1) < 10 ** (-50 / 20)

    def test_eirp_scales_amplitudes(self, cfg):
        quiet = OtamModulator(cfg, eirp_dbm=0.0)
        loud = OtamModulator(cfg, eirp_dbm=20.0)
        a_quiet, _ = quiet.per_bit_amplitudes(channel())
        a_loud, _ = loud.per_bit_amplitudes(channel())
        assert abs(a_loud) == pytest.approx(10.0 * abs(a_quiet))


class TestReceivedWaveform:
    def test_envelope_keyed_by_channel(self, cfg):
        mod = OtamModulator(cfg, eirp_dbm=0.0)
        bits = np.array([1, 0, 1, 0], dtype=np.uint8)
        wave = mod.received_waveform(bits, channel(h1=1.0, h0=0.25))
        env = np.abs(wave.samples).reshape(4, cfg.samples_per_bit).mean(axis=1)
        assert env[0] > 3 * env[1]
        assert env == pytest.approx([env[0], env[1]] * 2, rel=0.01)

    def test_inverted_channel_inverts_envelope(self, cfg):
        # Blocked LoS: Beam 0 stronger -> '0' bits arrive louder.
        mod = OtamModulator(cfg, eirp_dbm=0.0)
        bits = np.array([1, 0], dtype=np.uint8)
        wave = mod.received_waveform(bits, channel(h1=0.1, h0=1.0))
        env = np.abs(wave.samples).reshape(2, cfg.samples_per_bit).mean(axis=1)
        assert env[1] > env[0]

    def test_fsk_tones_in_waveform(self, cfg):
        mod = OtamModulator(cfg, eirp_dbm=0.0)
        bits = np.ones(32, dtype=np.uint8)
        wave = mod.received_waveform(bits, channel(h1=1.0, h0=1.0))
        spectrum = np.abs(np.fft.fft(wave.samples))
        freqs = np.fft.fftfreq(len(wave), 1 / cfg.sample_rate_hz)
        peak_freq = freqs[int(np.argmax(spectrum))]
        assert peak_freq == pytest.approx(cfg.freq_one_hz, abs=2e5)

    def test_empty_bits_rejected(self, cfg):
        with pytest.raises(ValueError):
            OtamModulator(cfg).received_waveform([], channel())

    def test_bitrate_over_switch_cap_rejected(self):
        with pytest.raises(ValueError):
            OtamModulator(AskFskConfig(bit_rate_bps=200e6,
                                       sample_rate_hz=800e6))

    def test_custom_switch_respected(self, cfg):
        slow = ADRF5020Switch(max_rate_hz=0.5e6)
        with pytest.raises(ValueError):
            OtamModulator(cfg, switch=slow)


class TestAskOnlyBaseline:
    def test_off_bits_are_silent(self, cfg):
        mod = OtamModulator(cfg, eirp_dbm=0.0)
        bits = np.array([1, 0], dtype=np.uint8)
        wave = mod.ask_only_waveform(bits, channel(h1=1.0, h0=1.0))
        env = np.abs(wave.samples).reshape(2, cfg.samples_per_bit).mean(axis=1)
        assert env[1] == pytest.approx(0.0, abs=1e-12)

    def test_ignores_beam0_channel(self, cfg):
        mod = OtamModulator(cfg, eirp_dbm=0.0)
        bits = np.array([1, 1], dtype=np.uint8)
        strong_h0 = mod.ask_only_waveform(bits, channel(h1=0.5, h0=5.0))
        weak_h0 = mod.ask_only_waveform(bits, channel(h1=0.5, h0=0.0))
        assert np.mean(np.abs(strong_h0.samples) ** 2) == pytest.approx(
            np.mean(np.abs(weak_h0.samples) ** 2))
