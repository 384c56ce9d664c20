"""Tests for the joint ASK-FSK demodulator."""

import numpy as np
import pytest

from repro.channel.multipath import ChannelResponse
from repro.channel.noise import complex_awgn
from repro.core.ask_fsk import AskFskConfig
from repro.core.demodulator import JointDemodulator
from repro.core.otam import OtamModulator
from repro.phy.bits import random_bits
from repro.phy.preamble import default_preamble_bits
from repro.phy.waveform import Waveform


@pytest.fixture
def cfg():
    return AskFskConfig(bit_rate_bps=1e6, sample_rate_hz=8e6)


def _capture(cfg, rng, h1, h0, snr_db=30.0, num_data_bits=96,
             bits=None):
    """Build a noisy OTAM capture with a preamble."""
    if bits is None:
        bits = np.concatenate([default_preamble_bits(),
                               random_bits(num_data_bits, rng)])
    mod = OtamModulator(cfg, eirp_dbm=0.0)
    clean = mod.received_waveform(bits, ChannelResponse(h1=h1, h0=h0, paths=()))
    strong = max(abs(h1), abs(h0))
    complex_awgn(clean.samples, 20.0 * np.log10(strong) - snr_db, rng)
    return bits, clean


def _ask_alone(demod, wave):
    """The joint decision with no tone contrast: the ASK branch decides."""
    soft = demod.ask_soft_values(wave)
    return demod.decide(soft, np.zeros((soft.size, 2)))


def _fsk_alone(demod, wave):
    """The joint decision on a flat envelope: the FSK branch decides."""
    powers = demod.fsk_tone_powers(wave)
    return demod.decide(np.zeros(powers.shape[0]), powers)


class TestAskBranch:
    def test_clean_decoding(self, cfg, rng):
        bits, wave = _capture(cfg, rng, h1=1.0, h0=0.15)
        result = _ask_alone(JointDemodulator(cfg), wave)
        assert result.branch == "ask"
        assert np.array_equal(result.bits, bits)
        assert result.ask_snr_db > 15.0

    def test_soft_values_two_clusters(self, cfg, rng):
        bits, wave = _capture(cfg, rng, h1=1.0, h0=0.2)
        soft = JointDemodulator(cfg).ask_soft_values(wave)
        assert soft.size == bits.size
        gap = soft[bits == 1].mean() - soft[bits == 0].mean()
        assert gap > 0.5

    def test_equal_levels_fail_ask(self, cfg, rng):
        _, wave = _capture(cfg, rng, h1=0.7, h0=0.7 * np.exp(1j))
        assert JointDemodulator(cfg).demodulate(wave).ask_snr_db < 10.0


class TestFskBranch:
    def test_clean_decoding(self, cfg, rng):
        bits, wave = _capture(cfg, rng, h1=0.7, h0=0.7 * np.exp(1j))
        result = _fsk_alone(JointDemodulator(cfg), wave)
        assert result.branch == "fsk"
        assert np.array_equal(result.bits, bits)
        assert result.fsk_snr_db > 10.0

    def test_tone_power_matrix_shape(self, cfg, rng):
        bits, wave = _capture(cfg, rng, h1=1.0, h0=1.0)
        powers = JointDemodulator(cfg).fsk_tone_powers(wave)
        assert powers.shape == (bits.size, 2)

    def test_no_polarity_ambiguity(self, cfg, rng):
        # FSK decisions are tied to the transmitted tone, so even an
        # 'inverted' channel (h0 stronger) decodes without flipping.
        bits, wave = _capture(cfg, rng, h1=0.3, h0=1.0)
        result = _fsk_alone(JointDemodulator(cfg), wave)
        assert result.branch == "fsk"
        assert np.array_equal(result.bits, bits)


class TestJointDecision:
    def test_distinct_levels_use_ask(self, cfg, rng):
        bits, wave = _capture(cfg, rng, h1=1.0, h0=0.1)
        result = JointDemodulator(cfg).demodulate(wave)
        assert result.branch == "ask"
        assert np.array_equal(result.bits, bits)
        assert result.preamble_found

    def test_equal_levels_fall_back_to_fsk(self, cfg, rng):
        bits, wave = _capture(cfg, rng, h1=0.7, h0=0.7 * np.exp(0.5j))
        result = JointDemodulator(cfg).demodulate(wave)
        assert result.branch == "fsk"
        assert np.array_equal(result.bits, bits)

    def test_inverted_channel_corrected(self, cfg, rng):
        # Fig. 4(b): blocked LoS, bits arrive inverted; the preamble
        # must flip them back.
        bits, wave = _capture(cfg, rng, h1=0.08, h0=1.0)
        result = JointDemodulator(cfg).demodulate(wave)
        assert np.array_equal(result.bits, bits)
        if result.branch == "ask":
            assert result.inverted

    def test_low_snr_produces_errors(self, cfg, rng):
        bits, wave = _capture(cfg, rng, h1=1.0, h0=0.5, snr_db=-3.0,
                              num_data_bits=400)
        result = JointDemodulator(cfg).demodulate(wave)
        n = min(bits.size, result.bits.size)
        errors = int(np.count_nonzero(bits[:n] != result.bits[:n]))
        assert errors > 0

    def test_rate_mismatch_rejected(self, cfg, rng):
        demod = JointDemodulator(cfg)
        wrong = Waveform(np.ones(64, dtype=complex), 4e6)
        with pytest.raises(ValueError):
            demod.demodulate(wrong)

    def test_empty_capture(self, cfg):
        demod = JointDemodulator(cfg)
        result = demod.demodulate(Waveform(np.zeros(0, dtype=complex),
                                           cfg.sample_rate_hz))
        assert result.branch == "none"
        assert result.bits.size == 0


class TestEndToEndBerSweep:
    def test_ber_improves_with_snr(self, cfg, rng):
        errors = []
        for snr in (0.0, 10.0, 25.0):
            bits, wave = _capture(cfg, rng, h1=1.0, h0=0.15, snr_db=snr,
                                  num_data_bits=600)
            result = JointDemodulator(cfg).demodulate(wave)
            n = min(bits.size, result.bits.size)
            errors.append(int(np.count_nonzero(bits[:n] != result.bits[:n])))
        assert errors[0] >= errors[1] >= errors[2]
        assert errors[2] == 0
