"""Tests for per-beam channel gains and the ChannelResponse."""

import math
import struct
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.antenna.element import DipoleElement
from repro.antenna.orthogonal import measured_mmx_beams
from repro.channel.multipath import (
    ChannelResponse,
    beam_channel_gain,
    two_beam_gains,
)
from repro.channel.pathloss import free_space_path_loss_db, oxygen_absorption_db
from repro.channel.raytrace import PropagationPath
from repro.core.link import OtamLink, ism_carriers
from repro.sim.environment import Blocker, Room, default_lab_room
from repro.sim.geometry import Point, angle_of, normalize_angle
from repro.sim.placement import Placement, PlacementSampler
from repro.units import db_to_amplitude, wavelength

FREQ = 24.125e9


def _los_path(length: float, bearing: float = 0.0) -> PropagationPath:
    return PropagationPath(
        vertices=(Point(0, 0), Point(length, 0)),
        length_m=length,
        departure_bearing_rad=bearing,
        arrival_bearing_rad=bearing + math.pi,
        excess_loss_db=0.0,
        kind="los",
        num_bounces=0,
    )


class TestBeamChannelGain:
    def test_single_path_magnitude(self):
        path = _los_path(3.0)
        gain = beam_channel_gain(
            [path], tx_field=lambda t: 1.0, rx_field=lambda t: 1.0,
            tx_orientation_rad=0.0, rx_orientation_rad=math.pi,
            frequency_hz=FREQ)
        expected = 10 ** (-float(free_space_path_loss_db(3.0, FREQ)) / 20.0)
        assert abs(gain) == pytest.approx(expected, rel=1e-3)

    def test_pattern_attenuates(self):
        path = _los_path(3.0)
        full = beam_channel_gain([path], lambda t: 1.0, lambda t: 1.0,
                                 0.0, math.pi, FREQ)
        half = beam_channel_gain([path], lambda t: 0.5, lambda t: 1.0,
                                 0.0, math.pi, FREQ)
        assert abs(half) == pytest.approx(0.5 * abs(full))

    def test_zero_pattern_drops_path(self):
        path = _los_path(3.0)
        gain = beam_channel_gain([path], lambda t: 0.0, lambda t: 1.0,
                                 0.0, math.pi, FREQ)
        assert gain == 0.0

    def test_excess_loss_applied(self):
        clean = _los_path(3.0)
        lossy = PropagationPath(
            vertices=clean.vertices, length_m=clean.length_m,
            departure_bearing_rad=0.0, arrival_bearing_rad=math.pi,
            excess_loss_db=20.0, kind="los", num_bounces=0)
        g_clean = beam_channel_gain([clean], lambda t: 1.0, lambda t: 1.0,
                                    0.0, math.pi, FREQ)
        g_lossy = beam_channel_gain([lossy], lambda t: 1.0, lambda t: 1.0,
                                    0.0, math.pi, FREQ)
        assert abs(g_lossy) == pytest.approx(0.1 * abs(g_clean))

    def test_multipath_phases_combine(self):
        # Two equal paths half a wavelength apart in length cancel.
        lam = 299792458.0 / FREQ
        p1 = _los_path(3.0)
        p2 = _los_path(3.0 + lam / 2)
        g1 = beam_channel_gain([p1], lambda t: 1.0, lambda t: 1.0,
                               0.0, math.pi, FREQ)
        g_both = beam_channel_gain([p1, p2], lambda t: 1.0, lambda t: 1.0,
                                   0.0, math.pi, FREQ)
        # Partial cancellation: the sum is smaller than the single path.
        assert abs(g_both) < abs(g1)


class TestChannelResponse:
    def test_contrast_db(self):
        ch = ChannelResponse(h1=1.0, h0=0.1, paths=())
        assert ch.ask_contrast_db == pytest.approx(20.0)

    def test_contrast_with_zero(self):
        assert ChannelResponse(h1=1.0, h0=0.0, paths=()).ask_contrast_db == math.inf
        assert ChannelResponse(h1=0.0, h0=0.0, paths=()).ask_contrast_db == 0.0

    def test_inverted_flag(self):
        assert ChannelResponse(h1=0.1, h0=0.5, paths=()).inverted
        assert not ChannelResponse(h1=0.5, h0=0.1, paths=()).inverted

    def test_difference_gain_uses_magnitudes(self):
        # Equal magnitudes with different phases: envelope cannot tell
        # them apart, so the difference gain must be ~0.
        ch = ChannelResponse(h1=0.5, h0=0.5j, paths=())
        assert ch.difference_gain() == pytest.approx(0.0)

    def test_stronger_gain(self):
        ch = ChannelResponse(h1=0.2, h0=0.7, paths=())
        assert ch.stronger_gain() == pytest.approx(0.7)

    def test_level_db(self):
        ch = ChannelResponse(h1=0.1, h0=0.0, paths=())
        assert ch.level_db(1) == pytest.approx(-20.0)
        assert ch.level_db(0) == -math.inf


class TestTwoBeamGains:
    def test_clear_los_beam1_dominates_when_facing(self, rng):
        room = default_lab_room()
        beams = measured_mmx_beams()
        node, ap = Point(2.0, 3.0), Point(2.0, 0.15)
        ch = two_beam_gains(node, ap, room, beams, DipoleElement(),
                            node_orientation_rad=-math.pi / 2,
                            ap_orientation_rad=math.pi / 2,
                            frequency_hz=FREQ)
        assert abs(ch.h1) > abs(ch.h0)
        assert not ch.inverted

    def test_blocked_los_inverts(self):
        room = default_lab_room()
        beams = measured_mmx_beams()
        node, ap = Point(2.0, 3.0), Point(2.0, 0.15)
        room.add_blocker(Blocker(Point(2.0, 1.5), penetration_loss_db=35.0))
        ch = two_beam_gains(node, ap, room, beams, DipoleElement(),
                            node_orientation_rad=-math.pi / 2,
                            ap_orientation_rad=math.pi / 2,
                            frequency_hz=FREQ)
        room.clear_blockers()
        # Fig. 4(b): with the LoS blocked, Beam 0's reflection wins and
        # the bits invert.
        assert ch.inverted

    def test_paths_shared_between_beams(self):
        room = default_lab_room()
        beams = measured_mmx_beams()
        ch = two_beam_gains(Point(1.0, 4.0), Point(2.0, 0.15), room, beams,
                            DipoleElement(),
                            node_orientation_rad=-math.pi / 2,
                            ap_orientation_rad=math.pi / 2,
                            frequency_hz=FREQ)
        assert len(ch.paths) >= 2


def _complex_bits(z: complex) -> bytes:
    return struct.pack("<2d", z.real, z.imag)


def _reference_gain(paths, tx_field, rx_field, tx_orientation_rad,
                    rx_orientation_rad, frequency_hz) -> complex:
    """The per-path evaluation the shared trace replaced: both patterns
    on 0-d arrays, one path-loss call, amplitude and phasor per path."""
    lam = float(wavelength(frequency_hz))
    total = 0.0 + 0.0j
    for p in paths:
        dep = normalize_angle(p.departure_bearing_rad - tx_orientation_rad)
        arr = normalize_angle(p.arrival_bearing_rad - rx_orientation_rad)
        g_tx = float(tx_field(np.asarray(dep)))
        g_rx = float(rx_field(np.asarray(arr)))
        if g_tx <= 0.0 or g_rx <= 0.0:
            continue
        loss_db = (float(free_space_path_loss_db(p.length_m, frequency_hz))
                   + float(oxygen_absorption_db(p.length_m, frequency_hz))
                   + p.excess_loss_db)
        amplitude = g_tx * g_rx * float(db_to_amplitude(-loss_db))
        total += amplitude * np.exp(1j * (-2.0 * np.pi * p.length_m / lam))
    return complex(total)


def _assert_one_trace_is_exact(placement, room, carriers, max_bounces):
    """channel_responses(carriers) == one link per carrier == the
    per-path formula, bit for bit."""
    link = OtamLink(placement=placement, room=room, max_bounces=max_bounces)
    responses = link.channel_responses(carriers)
    assert len(responses) == len(carriers)
    for carrier, response in zip(carriers, responses):
        single = OtamLink(placement=placement, room=room,
                          frequency_hz=float(carrier),
                          max_bounces=max_bounces).channel_response()
        assert response.paths is responses[0].paths
        assert response.paths == single.paths
        assert _complex_bits(response.h1) == _complex_bits(single.h1)
        assert _complex_bits(response.h0) == _complex_bits(single.h0)
        for bit, h in ((1, response.h1), (0, response.h0)):
            reference = _reference_gain(
                response.paths, partial(link.beams.field, bit),
                link.ap_element.field, placement.node_orientation_rad,
                placement.ap_orientation_rad, float(carrier))
            assert _complex_bits(h) == _complex_bits(reference)


class TestChannelResponses:
    """OtamLink.channel_responses: one trace shared by every carrier."""

    @settings(max_examples=40, deadline=None)
    @given(node=st.tuples(st.floats(0.3, 3.7), st.floats(0.8, 5.7)),
           offset=st.floats(-math.pi, math.pi),
           blockers=st.lists(st.tuples(st.floats(0.3, 3.7),
                                       st.floats(0.3, 5.7)), max_size=2),
           max_bounces=st.sampled_from([0, 1, 2]),
           furnished=st.booleans(),
           carriers=st.lists(st.floats(20e9, 70e9), min_size=1,
                             max_size=4))
    def test_matches_one_link_per_carrier(self, node, offset, blockers,
                                          max_bounces, furnished, carriers):
        room = default_lab_room(furniture=furnished)
        for x, y in blockers:
            room.add_blocker(Blocker(Point(x, y)))
        ap, node = Point(2.0, 0.15), Point(*node)
        placement = Placement(
            node_position=node,
            node_orientation_rad=normalize_angle(angle_of(node, ap) + offset),
            ap_position=ap, ap_orientation_rad=math.pi / 2)
        _assert_one_trace_is_exact(placement, room, carriers, max_bounces)

    @pytest.mark.parametrize("facing", [True, False])
    @pytest.mark.parametrize("distance_m", [1.0, 9.5, 18.0])
    def test_axis_aligned_range_placements(self, distance_m, facing):
        # Fig. 12's straight-out placements: every leg runs parallel or
        # perpendicular to the corridor walls.
        room = Room.rectangular(width_m=4.0, length_m=20.0)
        placement = PlacementSampler(room, np.random.default_rng(0)) \
            .at_distance(distance_m, facing=facing)
        _assert_one_trace_is_exact(placement, room, ism_carriers(5), 2)

    def test_no_carriers_gives_no_responses(self, placement, room):
        assert OtamLink(placement=placement, room=room) \
            .channel_responses(()) == ()
