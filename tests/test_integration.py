"""Integration tests: whole-system scenarios across module boundaries."""

import math

from repro.core.ask_fsk import AskFskConfig
from repro.core.link import OtamLink
from repro.core.packet import Packet, PacketCodec
from repro.network.init_protocol import InitializationProtocol
from repro.node.access_point import MmxAccessPoint
from repro.node.node import MmxNode
from repro.phy.waveform import Waveform, awgn_noise
from repro.sim.environment import Blocker, default_lab_room
from repro.sim.geometry import Point, Segment, segment_circle_intersects_xy
from repro.sim.mobility import LinearCrossing, WalkingBlocker, los_blocker_between
from repro.sim.placement import Placement, PlacementSampler


CONFIG = AskFskConfig(bit_rate_bps=1e6, sample_rate_hz=8e6)


def _facing(distance=3.0):
    return Placement(Point(2.0, 0.15 + distance), -math.pi / 2,
                     Point(2.0, 0.15), math.pi / 2)


class TestSmartHomeScenario:
    """A camera streams packets to a home hub through the full stack."""

    def _setup(self):
        room = default_lab_room()
        ap = MmxAccessPoint()
        camera = MmxNode(node_id=1, config=CONFIG)
        proto = InitializationProtocol(ap)
        proto.initialize(camera, demanded_rate_bps=1e6)
        return room, ap, camera

    def _deliver(self, ap, camera, link, payload, rng):
        channel = link.channel_response()
        job, clean = camera.transmit(payload, channel)
        noise = awgn_noise(len(clean), 1e-9, rng)
        capture = Waveform(clean.samples * 1e3 + noise * 1e3,
                           clean.sample_rate_hz)
        return ap.try_receive_packet(camera.node_id, capture)

    def test_stream_delivered_clear_los(self, rng):
        room, ap, camera = self._setup()
        link = OtamLink(placement=_facing(3.0), room=room, config=CONFIG)
        for i in range(5):
            payload = f"frame-{i}".encode()
            packet = self._deliver(ap, camera, link, payload, rng)
            assert packet is not None
            assert packet.payload == payload

    def test_stream_survives_blockage(self, rng):
        room, ap, camera = self._setup()
        room.add_blocker(Blocker(Point(2.0, 1.5), penetration_loss_db=30.0))
        link = OtamLink(placement=_facing(3.0), room=room, config=CONFIG)
        packet = self._deliver(ap, camera, link, b"blocked frame", rng)
        assert packet is not None
        assert packet.payload == b"blocked frame"

    def test_sequence_numbers_progress(self, rng):
        room, ap, camera = self._setup()
        link = OtamLink(placement=_facing(2.0), room=room, config=CONFIG)
        seqs = []
        for i in range(3):
            packet = self._deliver(ap, camera, link, b"x", rng)
            seqs.append(packet.sequence)
        assert seqs == [0, 1, 2]


class TestDynamicEnvironment:
    """A person walks through the link while the node keeps sending."""

    def test_connectivity_through_walker(self, rng):
        room = default_lab_room()
        placement = _facing(4.0)
        crossing = LinearCrossing(
            Segment(Point(0.5, 2.0), Point(3.5, 2.0)), speed_mps=1.0)
        walker = WalkingBlocker(
            los_blocker_between(placement.node_position,
                                placement.ap_position), crossing)
        codec = PacketCodec()
        frame = codec.encode(Packet(payload=b"mobile", sequence=0))
        delivered = blocked_states = 0
        steps = 24
        for _ in range(steps):
            blocker = walker.step(0.25)
            room.clear_blockers()
            room.add_blocker(blocker)
            link = OtamLink(placement=placement, room=room, config=CONFIG)
            node, ap = placement.node_position, placement.ap_position
            blocked_states += segment_circle_intersects_xy(
                node.x, node.y, ap.x, ap.y, blocker.position.x,
                blocker.position.y, blocker.radius_m)
            report = link.simulate_transmission(frame, rng=rng)
            try:
                packet = codec.decode(report.demod.bits)
                delivered += packet.payload == b"mobile"
            except Exception:
                pass
        room.clear_blockers()
        # The walker actually crossed the LoS at least once, and OTAM
        # kept a large majority of frames flowing regardless.
        assert blocked_states >= 1
        assert delivered >= steps * 0.8

    def test_polarity_flips_as_walker_crosses(self, rng):
        room = default_lab_room()
        placement = _facing(4.0)
        link_clear = OtamLink(placement=placement, room=room, config=CONFIG)
        clear = link_clear.channel_response()
        room.add_blocker(Blocker(Point(2.0, 2.0), penetration_loss_db=32.0))
        blocked = OtamLink(placement=placement, room=room,
                           config=CONFIG).channel_response()
        room.clear_blockers()
        assert not clear.inverted
        assert blocked.inverted


class TestMultiCameraNetwork:
    """Several cameras registered at one AP, each on its own channel."""

    def test_initialization_and_disjoint_channels(self):
        ap = MmxAccessPoint()
        proto = InitializationProtocol(ap)
        nodes = [MmxNode(node_id=i, config=CONFIG) for i in range(6)]
        for node in nodes:
            proto.initialize(node, 10e6)
        plans = [ap.registration(n.node_id).channel for n in nodes]
        for i, a in enumerate(plans):
            for b in plans[i + 1:]:
                assert a.high_hz <= b.low_hz or b.high_hz <= a.low_hz
        for node in nodes:
            assert node.is_initialized

    def test_all_cameras_deliver(self, rng):
        room = default_lab_room()
        ap = MmxAccessPoint()
        proto = InitializationProtocol(ap)
        sampler = PlacementSampler(room, rng)
        delivered = 0
        for i in range(4):
            node = MmxNode(node_id=i, config=CONFIG)
            proto.initialize(node, demanded_rate_bps=1e6)
            link = OtamLink(placement=sampler.sample(), room=room,
                            config=CONFIG)
            channel = link.channel_response()
            _, clean = node.transmit(f"cam{i}".encode(), channel)
            capture = Waveform(clean.samples * 1e3
                               + awgn_noise(len(clean), 1e-9, rng) * 1e3,
                               clean.sample_rate_hz)
            packet = ap.try_receive_packet(i, capture)
            delivered += packet is not None
        assert delivered >= 3


class TestFecUnderNoise:
    def test_fec_recovers_marginal_link(self, rng):
        """At marginal SNR, Hamming-protected frames survive more often."""
        room = default_lab_room()
        placement = _facing(5.5)
        plain = PacketCodec(use_fec=False)
        fec = PacketCodec(use_fec=True)
        link = OtamLink(placement=placement, room=room, config=CONFIG,
                        implementation_loss_db=47.0)  # force marginal SNR
        channel = link.channel_response()

        def attempt(codec):
            ok = 0
            for _ in range(15):
                frame = codec.encode(Packet(payload=b"fragile bits"))
                report = link.simulate_transmission(frame, channel=channel,
                                                    rng=rng)
                try:
                    codec.decode(report.demod.bits)
                    ok += 1
                except Exception:
                    pass
            return ok

        assert attempt(fec) >= attempt(plain)
