"""Tests for the MAC layer: queueing and the uplink loop."""

import numpy as np
import pytest

from repro.network.mac import (
    PacketQueue,
    UplinkSimulator,
)


class TestPacketQueue:
    def test_fifo_order(self):
        q = PacketQueue()
        q.offer(0.0, 100)
        q.offer(1.0, 200)
        assert q.pop() == (0.0, 100)
        assert q.pop() == (1.0, 200)

    def test_tail_drop_when_full(self):
        q = PacketQueue(capacity_packets=2)
        assert q.offer(0.0, 1)
        assert q.offer(0.1, 1)
        assert not q.offer(0.2, 1)
        assert q.dropped == 1
        assert len(q) == 2

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            PacketQueue().pop()

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            PacketQueue().offer(0.0, 0)


class TestUplinkSimulator:
    def _sim(self, p_success, rate=10e6, retries=3, rng_seed=0):
        return UplinkSimulator(
            link_rate_bps=rate, frame_bits=8 * 1024 + 200,
            frame_success_probability=p_success,
            max_retries=retries, rng=np.random.default_rng(rng_seed))

    def test_perfect_link_delivers_everything(self):
        stats = self._sim(1.0).run(duration_s=1.0, packet_interval_s=0.01)
        assert stats.delivery_ratio == 1.0
        assert stats.retransmissions == 0
        assert stats.goodput_bps > 0

    def test_dead_link_delivers_nothing(self):
        stats = self._sim(0.0).run(duration_s=0.5, packet_interval_s=0.05)
        assert stats.delivered_packets == 0
        assert stats.delivery_ratio == 0.0

    def test_lossy_link_retransmits(self):
        stats = self._sim(0.6).run(duration_s=2.0, packet_interval_s=0.01)
        assert stats.retransmissions > 0
        assert 0.8 < stats.delivery_ratio <= 1.0  # ARQ recovers most

    def test_latency_grows_with_loss(self):
        clean = self._sim(1.0).run(2.0, 0.01)
        lossy = self._sim(0.5, rng_seed=1).run(2.0, 0.01)
        assert lossy.mean_latency_s > clean.mean_latency_s

    def test_overload_drops(self):
        # Offered load far above the link rate: the queue must shed.
        sim = UplinkSimulator(link_rate_bps=1e6, frame_bits=10_000,
                              frame_success_probability=1.0,
                              queue=PacketQueue(capacity_packets=4),
                              rng=np.random.default_rng(0))
        stats = sim.run(duration_s=0.5, packet_interval_s=0.001)
        assert stats.dropped_packets > 0
        assert stats.delivery_ratio < 1.0

    def test_goodput_capped_by_link(self):
        sim = UplinkSimulator(link_rate_bps=1e6, frame_bits=8 * 1024 + 200,
                              frame_success_probability=1.0,
                              rng=np.random.default_rng(0))
        stats = sim.run(duration_s=1.0, packet_interval_s=1e-4)
        assert stats.goodput_bps < 1e6

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            self._sim(1.5)
        with pytest.raises(ValueError):
            self._sim(1.0).run(0.0, 0.01)
