"""Combining sparse paths into per-beam complex channel gains.

This is where OTAM's physics lives.  For a chosen transmit beam, each
traced path contributes a complex amplitude

    a_p = 10^((G_tx(phi_dep) + G_rx(phi_arr) - FSPL(L) - excess) / 20)
          * exp(-j 2 pi L / lambda)

and the beam's channel gain is ``h = sum_p a_p``.  The received power for
that beam is ``EIRP-referenced``: we fold the transmit pattern in as a
*relative* pattern on top of the node's EIRP, so

    P_rx[dBm] = EIRP_peak[dBm] + 20 log10 |h|.

The two beams see different path sets (Beam 1 lights up the LoS leg,
Beam 0 the ±30° reflections), so their gains differ — that difference *is*
the over-the-air ASK signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..sim.geometry import Point, normalize_angle
from ..units import db_to_amplitude, wavelength
from .pathloss import free_space_path_loss_db, oxygen_absorption_db
from .raytrace import PropagationPath, trace_paths

__all__ = ["ChannelResponse", "beam_channel_gain", "two_beam_gains",
           "two_beam_responses"]


@dataclass(frozen=True)
class ChannelResponse:
    """Complex channel gains for both node beams at one placement.

    ``h0``/``h1`` are EIRP-referenced field gains built from the
    *normalised* antenna patterns: received power for bit b is
    ``EIRP_peak_dbm + G_ap_peak_dbi + 20 log10 |h_b|`` (the link layer
    adds the AP's absolute 5 dBi).  ``paths`` keeps the traced rays for
    inspection.
    """

    h1: complex
    h0: complex
    paths: tuple[PropagationPath, ...]

    @property
    def inverted(self) -> bool:
        """True when Beam 0 is received *stronger* than Beam 1.

        This is the blocked-LoS situation of Fig. 4(b): all bits arrive
        inverted and the preamble must flip them back.
        """
        return abs(self.h0) > abs(self.h1)

    def difference_gain(self) -> float:
        """|h1 - h0| — amplitude of the OTAM decision distance.

        The envelope detector distinguishes bits by the *difference* of
        the two received levels, so this (squared) is the signal power
        entering the ASK BER formula.
        """
        return abs(abs(self.h1) - abs(self.h0))


def _field_products(paths: tuple[PropagationPath, ...], tx_fields,
                    rx_field, tx_orientation_rad: float,
                    rx_orientation_rad: float) -> list[list[float | None]]:
    """``g_tx * g_rx`` per path for each transmit field.

    The products depend on the geometry only, so every carrier shares
    them.  A path whose transmit or receive field is zero has no
    product (``None``): it does not reach that beam's sum.
    """
    products: list[list[float | None]] = [[] for _ in tx_fields]
    for p in paths:
        dep = normalize_angle(p.departure_bearing_rad - tx_orientation_rad)
        arr = normalize_angle(p.arrival_bearing_rad - rx_orientation_rad)
        g_rx = float(rx_field(arr))
        for tx_field, out in zip(tx_fields, products):
            g_tx = float(tx_field(dep))
            out.append(None if g_tx <= 0.0 or g_rx <= 0.0 else g_tx * g_rx)
    return products


def _carrier_terms(paths: tuple[PropagationPath, ...], frequency_hz: float):
    """Per path at one carrier: loss amplitude and phasor.

    The amplitude is ``10^(-loss/20)`` with ``loss = (FSPL + oxygen) +
    excess``, and the phasor is ``exp(-j 2 pi L / lambda)``.  Path loss
    and the phasors run once on the array of lengths, which gives the
    bits of one call per path.  The amplitudes are converted one float
    at a time, because numpy's vectorised ``power`` differs from libm
    ``pow`` in the last bit.
    """
    if not paths:
        return [], []
    lengths = np.array([p.length_m for p in paths], dtype=float)
    excess = np.array([p.excess_loss_db for p in paths], dtype=float)
    loss = (free_space_path_loss_db(lengths, frequency_hz)
            + oxygen_absorption_db(lengths, frequency_hz)) + excess
    amplitudes = [db_to_amplitude(-value) for value in loss.tolist()]
    lam = float(wavelength(frequency_hz))
    phasors = np.exp(1j * (-2.0 * np.pi * lengths / lam))
    return amplitudes, phasors


def _path_sum(products: list[float | None], amplitudes, phasors) -> complex:
    """``sum_p (g_p * amplitude_p) * phasor_p``, one path at a time.

    Accumulating in path order (not ``np.sum``, whose pairwise summation
    rounds differently) keeps the bits of the per-path formula.
    """
    total = 0.0 + 0.0j
    for product, amplitude, phasor in zip(products, amplitudes, phasors):
        if product is not None:
            total += product * amplitude * phasor
    return complex(total)


def beam_channel_gain(paths, tx_field, rx_field,
                      tx_orientation_rad: float,
                      rx_orientation_rad: float,
                      frequency_hz: float) -> complex:
    """Complex channel gain for one transmit beam over traced paths.

    Parameters
    ----------
    paths:
        Iterable of :class:`PropagationPath`.
    tx_field, rx_field:
        Callables mapping an antenna-relative angle [rad] to *field
        amplitude* relative to each pattern's peak (1.0 at peak).
    tx_orientation_rad, rx_orientation_rad:
        Absolute boresight bearings of node and AP antennas.
    frequency_hz:
        Carrier frequency, for the phase term and FSPL.
    """
    paths = tuple(paths)
    (products,) = _field_products(paths, (tx_field,), rx_field,
                                  tx_orientation_rad, rx_orientation_rad)
    return _path_sum(products, *_carrier_terms(paths, frequency_hz))


def two_beam_responses(node_position: Point, ap_position: Point, room,
                       beams, ap_element,
                       node_orientation_rad: float,
                       ap_orientation_rad: float,
                       frequencies_hz,
                       max_bounces: int = 1
                       ) -> tuple[ChannelResponse, ...]:
    """Both node beams at several carriers over one trace of the room.

    The trace and each path's field products are carrier-independent,
    so they are computed once; each carrier adds only its path loss and
    phases.  Entry ``i`` is bit-identical to :func:`two_beam_gains` at
    ``frequencies_hz[i]``, and every entry shares one ``paths`` tuple.
    """
    paths = tuple(trace_paths(node_position, ap_position, room,
                              max_bounces=max_bounces))
    beam1, beam0 = _field_products(
        paths,
        (partial(beams.field, 1), partial(beams.field, 0)),
        ap_element.field, node_orientation_rad, ap_orientation_rad)
    responses = []
    for frequency_hz in frequencies_hz:
        amplitudes, phasors = _carrier_terms(paths, float(frequency_hz))
        responses.append(ChannelResponse(
            h1=_path_sum(beam1, amplitudes, phasors),
            h0=_path_sum(beam0, amplitudes, phasors),
            paths=paths))
    return tuple(responses)


def two_beam_gains(node_position: Point, ap_position: Point, room,
                   beams, ap_element,
                   node_orientation_rad: float,
                   ap_orientation_rad: float,
                   frequency_hz: float,
                   max_bounces: int = 1) -> ChannelResponse:
    """Trace the room once and evaluate both node beams against it.

    ``beams`` is an :class:`repro.antenna.OrthogonalBeamPair`;
    ``ap_element`` anything with a ``field(theta)`` method (the AP dipole).
    This is the one-carrier case of :func:`two_beam_responses`.
    """
    (response,) = two_beam_responses(
        node_position, ap_position, room, beams, ap_element,
        node_orientation_rad, ap_orientation_rad, (frequency_hz,),
        max_bounces=max_bounces)
    return response
