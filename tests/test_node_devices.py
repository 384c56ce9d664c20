"""Tests for the device layer: controller, MmxNode, MmxAccessPoint."""


import numpy as np
import pytest

from repro.channel.multipath import ChannelResponse
from repro.core.ask_fsk import AskFskConfig
from repro.node.access_point import MmxAccessPoint
from repro.node.controller import DigitalController
from repro.node.node import MmxNode
from repro.network.fdm import SpectrumExhausted


class TestController:
    def test_prepare_round_trips_through_codec(self):
        controller = DigitalController()
        job = controller.prepare(b"camera frame")
        decoded = controller.codec.decode(job.beam_bits)
        assert decoded.payload == b"camera frame"

    def test_sequence_increments_and_wraps(self):
        controller = DigitalController()
        seqs = [controller.prepare(b"x").packet.sequence for _ in range(258)]
        assert seqs[0] == 0
        assert seqs[255] == 255
        assert seqs[256] == 0

    def test_beam_and_vco_bits_identical(self):
        job = DigitalController().prepare(b"abc")
        assert np.array_equal(job.beam_bits, job.vco_bits)


class TestMmxNode:
    def _node(self) -> MmxNode:
        return MmxNode(node_id=1, config=AskFskConfig(bit_rate_bps=1e6,
                                                      sample_rate_hz=8e6))

    def test_uninitialized_cannot_transmit(self):
        node = self._node()
        assert not node.is_initialized
        with pytest.raises(RuntimeError):
            node.transmit(b"data", ChannelResponse(h1=1, h0=0.1, paths=()))

    def test_channel_assignment(self):
        node = self._node()
        node.assign_channel(24.05e9)
        assert node.is_initialized

    def test_out_of_band_assignment_rejected(self):
        node = self._node()
        with pytest.raises(ValueError):
            node.assign_channel(26.0e9)

    def test_vco_cannot_reach_band_edge_below_range(self):
        node = self._node()
        # 23.9 GHz is outside both the ISM band and the VCO range.
        with pytest.raises(ValueError):
            node.assign_channel(23.9e9)

    def test_transmit_produces_waveform(self):
        node = self._node()
        node.assign_channel(24.1e9)
        job, wave = node.transmit(b"hi", ChannelResponse(h1=1.0, h0=0.1,
                                                         paths=()))
        assert len(wave) == job.beam_bits.size * node.config.samples_per_bit

    def test_bitrate_over_cap_rejected_at_construction(self):
        with pytest.raises(ValueError):
            MmxNode(config=AskFskConfig(bit_rate_bps=200e6,
                                        sample_rate_hz=800e6))


class TestMmxAccessPoint:
    def test_register_allocates_channel(self):
        ap = MmxAccessPoint()
        reg = ap.register_node(1, demanded_rate_bps=10e6)
        assert reg.channel.bandwidth_hz >= 10e6
        assert ap.registered_nodes == [1]

    def test_duplicate_registration_rejected(self):
        ap = MmxAccessPoint()
        ap.register_node(1, 10e6)
        with pytest.raises(ValueError):
            ap.register_node(1, 10e6)

    def test_deregister_frees_spectrum(self):
        ap = MmxAccessPoint()
        # Fill the band with wide channels.
        count = 0
        try:
            for i in range(100):
                ap.register_node(i, 40e6)
                count += 1
        except SpectrumExhausted:
            pass
        assert count >= 2
        ap.deregister_node(0)
        ap.register_node(1000, 40e6)  # reuses the freed slot

    def test_deregister_unknown(self):
        with pytest.raises(KeyError):
            MmxAccessPoint().deregister_node(5)

    def test_demodulate_requires_registration(self):
        ap = MmxAccessPoint()
        from repro.phy.waveform import Waveform
        with pytest.raises(KeyError):
            ap.demodulate(9, Waveform(np.zeros(8, dtype=complex), 8e6))

    def test_end_to_end_packet_via_devices(self, rng):
        ap = MmxAccessPoint()
        config = AskFskConfig(bit_rate_bps=1e6, sample_rate_hz=8e6)
        node = MmxNode(node_id=3, config=config)
        reg = ap.register_node(3, demanded_rate_bps=1e6, config=config)
        node.assign_channel(reg.channel.center_hz)
        channel = ChannelResponse(h1=1.0, h0=0.15, paths=())
        _, wave = node.transmit(b"sensor reading 42", channel)
        # Add mild receiver noise.
        from repro.phy.waveform import Waveform, awgn_noise
        noisy = Waveform(wave.samples + awgn_noise(len(wave), 1e-4, rng),
                         wave.sample_rate_hz)
        packet = ap.receive_packet(3, noisy)
        assert packet.payload == b"sensor reading 42"

    def test_try_receive_returns_none_on_garbage(self, rng):
        ap = MmxAccessPoint()
        config = AskFskConfig(bit_rate_bps=1e6, sample_rate_hz=8e6)
        ap.register_node(4, 1e6, config=config)
        from repro.phy.waveform import Waveform, awgn_noise
        garbage = Waveform(awgn_noise(800, 1.0, rng), 8e6)
        assert ap.try_receive_packet(4, garbage) is None
