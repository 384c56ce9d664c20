"""Cross-validation: the analytic link model vs sample-level simulation.

The benchmarks trust `snr_breakdown()` to stand in for real captures.
These tests close the loop: at matched noise bandwidths, the analytic
decision SNR must agree with the SNR the demodulator *measures* on
actual waveforms, and the predicted BER ordering must match counted
errors.
"""

import math

import numpy as np
import pytest

from repro.core.ask_fsk import AskFskConfig
from repro.core.link import OtamLink
from repro.phy.bits import random_bits
from repro.phy.preamble import default_preamble_bits
from repro.sim.environment import Blocker, default_lab_room
from repro.sim.geometry import Point
from repro.sim.placement import Placement

CONFIG = AskFskConfig(bit_rate_bps=1e6, sample_rate_hz=8e6)


def _facing(distance: float) -> Placement:
    return Placement(Point(2.0, 0.15 + distance), -math.pi / 2,
                     Point(2.0, 0.15), math.pi / 2)


def _decision_snr_db(demod) -> float:
    """Decision SNR of the branch the demodulator used."""
    return demod.ask_snr_db if demod.branch == "ask" else demod.fsk_snr_db


def _frame(rng, n=256):
    return np.concatenate([default_preamble_bits(), random_bits(n, rng)])


class TestSnrAgreement:
    @pytest.mark.parametrize("distance", [1.5, 3.0, 5.0])
    def test_measured_snr_tracks_analytic(self, rng, distance):
        """Demodulator-measured decision SNR vs the analytic branch SNR.

        The analytic ASK branch SNR is defined in the *bit-rate* noise
        bandwidth; the demodulator integrates each bit, which realises
        exactly that bandwidth — so the two must agree within a few dB
        (envelope detection loses a little at low SNR, estimators are
        noisy at high SNR).
        """
        room = default_lab_room()
        link = OtamLink(placement=_facing(distance), room=room,
                        config=CONFIG)
        channel = link.channel_response()
        analytic = link.snr_breakdown(
            channel, bandwidth_hz=CONFIG.bit_rate_bps)
        report = link.simulate_transmission(_frame(rng), channel=channel,
                                            rng=rng)
        measured = _decision_snr_db(report.demod)
        predicted = analytic.otam_snr_db
        if predicted > 45.0:
            # Estimator saturates (finite bits, no errors) — just check
            # the measurement is also excellent.
            assert measured > 30.0
        else:
            assert measured == pytest.approx(predicted, abs=6.0)

    def test_blocked_placement_agreement(self, rng):
        room = default_lab_room()
        room.add_blocker(Blocker(Point(2.0, 1.5), penetration_loss_db=30.0))
        link = OtamLink(placement=_facing(3.0), room=room, config=CONFIG)
        channel = link.channel_response()
        analytic = link.snr_breakdown(
            channel, bandwidth_hz=CONFIG.bit_rate_bps)
        report = link.simulate_transmission(_frame(rng), channel=channel,
                                            rng=rng)
        room.clear_blockers()
        if analytic.otam_snr_db < 45.0:
            assert _decision_snr_db(report.demod) == pytest.approx(
                analytic.otam_snr_db, abs=7.0)


class TestBerAgreement:
    def test_measured_waterfall_is_monotone(self):
        """Counted BER walks the waterfall as the link degrades.

        The analytic table predicts *relative* behaviour (the paper uses
        it the same way); the envelope detector realises a few dB less
        than the idealised table at low per-sample SNR, so we assert
        ordering and regime, not absolute agreement.
        """
        room = default_lab_room()
        placement = _facing(2.5)
        rng = np.random.default_rng(99)
        bits = _frame(rng, n=4000)
        measured = []
        predicted = []
        for extra_loss in (28.0, 36.0, 44.0, 52.0):
            link = OtamLink(placement=placement, room=room, config=CONFIG,
                            implementation_loss_db=extra_loss)
            channel = link.channel_response()
            analytic = link.snr_breakdown(
                channel, bandwidth_hz=CONFIG.bit_rate_bps)
            predicted.append(analytic.ber_with_otam())
            report = link.simulate_transmission(bits, channel=channel,
                                                rng=rng)
            measured.append(report.ber)
        # Both walk the same direction down the waterfall...
        assert predicted == sorted(predicted)
        assert measured == sorted(measured)
        # ...and the regimes line up: clean at the top, broken at the
        # bottom.
        assert measured[0] == 0.0
        assert measured[-1] > 0.05

    def test_otam_beats_baseline_when_blocked_sample_level(self, rng):
        """The Fig. 10/11 claim at the waveform level, not just analytic."""
        room = default_lab_room()
        room.add_blocker(Blocker(Point(2.0, 2.0), penetration_loss_db=32.0))
        link = OtamLink(placement=_facing(4.0), room=room, config=CONFIG,
                        implementation_loss_db=32.0)
        channel = link.channel_response()
        bits = _frame(rng, n=3000)
        with_otam = link.simulate_transmission(bits, channel=channel,
                                               rng=rng, use_otam=True)
        without = link.simulate_transmission(bits, channel=channel,
                                             rng=rng, use_otam=False)
        room.clear_blockers()
        assert with_otam.ber < without.ber
