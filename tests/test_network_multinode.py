"""Tests for interference accounting and the network sim."""

import numpy as np
import pytest

from repro.network.interference import InterferenceModel, sinr_db
from repro.network.network import MultiNodeNetwork
from repro.network.init_protocol import InitializationProtocol, SideChannel
from repro.node.access_point import MmxAccessPoint
from repro.node.node import MmxNode
from repro.core.ask_fsk import AskFskConfig
from repro.sim.environment import default_lab_room


class TestSinr:
    def test_no_interference_is_snr(self):
        assert sinr_db(-60.0, -90.0, []) == pytest.approx(30.0)

    def test_strong_interference_dominates(self):
        value = sinr_db(-60.0, -120.0, [-70.0])
        assert value == pytest.approx(10.0, abs=0.1)

    def test_interferers_accumulate(self):
        one = sinr_db(-60.0, -120.0, [-80.0])
        three = sinr_db(-60.0, -120.0, [-80.0, -80.0, -80.0])
        assert three == pytest.approx(one - 10 * np.log10(3), abs=0.01)


class TestInterferenceModel:
    def test_coupling_ordering(self):
        model = InterferenceModel()
        assert (model.coupling_db("cochannel-sdm")
                < model.coupling_db("adjacent")
                <= model.coupling_db("far"))

    def test_tma_default_in_paper_band(self):
        assert 20.0 <= InterferenceModel().tma_image_suppression_db <= 30.0

    def test_interference_power(self):
        model = InterferenceModel()
        out = model.interference_dbm(-60.0, "adjacent")
        assert out == pytest.approx(-60.0 - model.adjacent_channel_rejection_db)

    def test_unknown_relationship(self):
        with pytest.raises(ValueError):
            InterferenceModel().coupling_db("cosmic")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            InterferenceModel(adjacent_channel_rejection_db=70.0,
                              nonadjacent_rejection_db=60.0)


class TestMultiNodeNetwork:
    def _network(self, seed=0) -> MultiNodeNetwork:
        rng = np.random.default_rng(seed)
        return MultiNodeNetwork(default_lab_room(), rng)

    def test_snapshot_structure(self):
        net = self._network()
        snap = net.evaluate(5)
        assert len(snap.nodes) == 5
        assert np.isfinite(snap.mean_sinr_db)
        assert snap.min_sinr_db <= snap.mean_sinr_db

    def test_single_node_no_interference(self):
        net = self._network()
        snap = net.evaluate(1)
        node = snap.nodes[0]
        assert node.sinr_db == pytest.approx(node.snr_db, abs=1e-6)
        assert node.interference_dbm == -np.inf

    def test_fdm_only_nodes_barely_interfere(self):
        net = self._network(seed=1)
        snap = net.evaluate(5)  # all on distinct channels
        for node in snap.nodes:
            assert node.sinr_db > node.snr_db - 2.0

    def test_sdm_sharing_costs_some_sinr(self):
        net = self._network(seed=2)
        small = [net.evaluate(5).mean_sinr_db for _ in range(10)]
        large = [net.evaluate(20).mean_sinr_db for _ in range(10)]
        assert np.mean(large) < np.mean(small)
        # Fig. 13 shape: degradation is mild (a few dB), not a collapse.
        assert np.mean(small) - np.mean(large) < 10.0

    def test_twenty_nodes_still_robust(self):
        # "even when 20 sensors transmit simultaneously, their average
        # SNR is higher than 29 dB" — allow reproduction tolerance.
        net = self._network(seed=3)
        means = [net.evaluate(20).mean_sinr_db for _ in range(10)]
        assert np.mean(means) > 25.0

    def test_invalid_node_count(self):
        with pytest.raises(ValueError):
            self._network().evaluate(0)

    def test_placement_count_mismatch(self):
        net = self._network()
        with pytest.raises(ValueError):
            net.evaluate(3, placements=[])


class TestInitializationProtocol:
    def test_reliable_channel_one_attempt(self):
        ap = MmxAccessPoint()
        node = MmxNode(node_id=1, config=AskFskConfig())
        proto = InitializationProtocol(ap)
        record = proto.initialize(node, 1e6)
        assert record.attempts == 1
        assert node.is_initialized
        assert ap.registered_nodes == [1]

    def test_lossy_channel_retries(self):
        rng = np.random.default_rng(5)
        side = SideChannel(delivery_ratio=0.3, rng=rng)
        ap = MmxAccessPoint()
        proto = InitializationProtocol(ap, side, max_attempts=50)
        node = MmxNode(node_id=2, config=AskFskConfig())
        record = proto.initialize(node, 1e6)
        assert record.attempts >= 1
        assert node.is_initialized

    def test_dead_channel_rolls_back(self):
        class DeadChannel(SideChannel):
            def deliver(self):
                return False

        ap = MmxAccessPoint()
        proto = InitializationProtocol(ap, DeadChannel(), max_attempts=3)
        node = MmxNode(node_id=3, config=AskFskConfig())
        with pytest.raises(ConnectionError):
            proto.initialize(node, 1e6)
        # The failed node must not hold spectrum.
        assert ap.registered_nodes == []
        assert not node.is_initialized

    def test_initialize_all(self):
        ap = MmxAccessPoint()
        proto = InitializationProtocol(ap)
        nodes = [MmxNode(node_id=i, config=AskFskConfig()) for i in range(3)]
        records = proto.initialize_all([(n, 5e6) for n in nodes])
        assert len(records) == 3
        assert all(n.is_initialized for n in nodes)

    def test_invalid_delivery_ratio(self):
        with pytest.raises(ValueError):
            SideChannel(delivery_ratio=0.0)
