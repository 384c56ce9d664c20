"""End-to-end OTAM link: node hardware -> antennas -> room -> AP -> decoder.

Two complementary views of the same link:

* **Analytic** (:meth:`OtamLink.snr_breakdown`) — closed-form received
  levels, decision SNRs and predicted BER from the traced channel.  This
  mirrors the paper's own method: measure SNR, then substitute into
  standard ASK BER tables (section 9.3).
* **Sample-level** (:meth:`OtamLink.simulate_transmission`) — generate the
  actual over-the-air waveform, add receiver noise, run the joint
  demodulator, count bit errors.  This is the "USRP capture" substitute.

Calibration: ``implementation_loss_db`` (default 10 dB) absorbs
everything between ideal Friis propagation and the authors' testbed
(USRP quantisation, CFO, envelope-detector losses, antenna mismatches).
It is chosen once so the LoS SNR-vs-distance curve lands on the paper's
Fig. 12 levels, then held fixed across *all* experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..antenna.element import DipoleElement
from ..antenna.orthogonal import OrthogonalBeamPair, measured_mmx_beams
from ..channel.multipath import (
    ChannelResponse,
    two_beam_gains,
    two_beam_responses,
)
from ..channel.noise import CaptureNoise, noise_power_dbm
from ..channel.pathloss import friis_received_power_dbm
from ..constants import (
    AP_ANTENNA_GAIN_DBI,
    CARRIER_FREQUENCY_HZ,
    EVAL_NODE_CHANNEL_BANDWIDTH_HZ,
    ISM_24GHZ_HIGH_HZ,
    ISM_24GHZ_LOW_HZ,
    NODE_EIRP_DBM,
)
from ..hardware.chains import AccessPointHardware
from ..phy import ber as ber_theory
from ..phy.waveform import Keying, Waveform, synthesize_block
from ..sim.environment import default_lab_room
from ..sim.geometry import Point, angle_of
from ..sim.placement import Placement
from ..units import (
    amplitude_to_db,
    db_to_amplitude,
    dbm_to_milliwatts,
    milliwatts_to_dbm,
)
from .ask_fsk import AskFskConfig
from .demodulator import DemodResult, JointDemodulator
from .otam import OtamModulator, transmitted_beam_bits

__all__ = ["CAPTURE_BLOCK_BITS", "BistaticBreakdown", "LinkReport",
           "OtamLink", "SnrBreakdown", "bistatic_breakdown", "facing_link",
           "ism_carriers", "perturb_breakdown", "transmit"]


def ism_carriers(num_carriers: int) -> np.ndarray:
    """``num_carriers`` evenly spaced carriers inside the 24 GHz ISM band.

    The band edges are excluded.  These are the carriers the Fig. 10-12
    placements average over, the frequency diversity of a measurement
    campaign.
    """
    return np.linspace(ISM_24GHZ_LOW_HZ, ISM_24GHZ_HIGH_HZ,
                       num_carriers + 2)[1:-1]


@dataclass(frozen=True)
class SnrBreakdown:
    """Analytic link quality figures for one placement."""

    beam1_level_dbm: float
    """Received power when the node transmits on Beam 1."""

    beam0_level_dbm: float
    """Received power when the node transmits on Beam 0."""

    noise_dbm: float
    """Receiver noise floor in the measurement bandwidth."""

    ask_snr_db: float
    """SNR of the OTAM ASK decision (level *difference* vs noise)."""

    fsk_snr_db: float
    """SNR of the joint tone-discrimination decision.

    The two bits ride on *orthogonal* tones (section 6.3 / the
    AskFskConfig default), so the binary decision distance is
    ``sqrt(|h1|^2 + |h0|^2)`` — the mean of the two level powers vs
    noise.  When one beam's signal vanishes this degenerates to OOK on
    the surviving tone (-3 dB vs the ASK branch); when the levels are
    equal it equals either level's SNR, which is why FSK rescues the
    ambiguous-amplitude placements."""

    no_otam_snr_db: float
    """SNR of the conventional baseline: OOK through Beam 1 only."""

    inverted: bool
    """Whether Beam 0 arrives stronger than Beam 1 (blocked LoS)."""

    @property
    def otam_snr_db(self) -> float:
        """Effective joint ASK-FSK SNR: the better branch wins (§6.3)."""
        return max(self.ask_snr_db, self.fsk_snr_db)

    @property
    def ask_contrast_db(self) -> float:
        """|level gap| between the beams — small means 'need FSK'."""
        return abs(self.beam1_level_dbm - self.beam0_level_dbm)

    def ber_with_otam(self) -> float:
        """Predicted BER of the joint decoder (best branch's curve).

        Uses the paper's §9.3 methodology: substitute SNR into the
        standard ASK BER table (:func:`repro.phy.ber.ber_ask_table`)
        for the amplitude branch, the non-coherent FSK curve for the
        frequency branch.
        """
        ask = float(ber_theory.ber_ask_table(self.ask_snr_db))
        fsk = float(ber_theory.ber_fsk_noncoherent(self.fsk_snr_db))
        return min(ask, fsk)

    def ber_without_otam(self) -> float:
        """Predicted BER of the Beam-1-only OOK baseline (same table)."""
        return float(ber_theory.ber_ask_table(self.no_otam_snr_db))


def _amplitude(level_dbm: float) -> float:
    """Field amplitude in sqrt(mW) units for a dBm level (0 for -inf)."""
    if level_dbm == float("-inf"):
        return 0.0
    return float(db_to_amplitude(level_dbm))


def _level(amplitude: float) -> float:
    """Inverse of :func:`_amplitude`."""
    if amplitude <= 0.0:
        return float("-inf")
    return float(amplitude_to_db(amplitude))


def _fsk_drift_penalty_db(offset_hz: float, config: AskFskConfig) -> float:
    """Goertzel integration loss when the VCO drifts off its tones.

    The AP projects each bit period onto fixed bins at the two
    configured tone frequencies.  A carrier offset of ``f`` detunes
    both tones equally; coherent integration over one bit period then
    captures ``|sinc(f * T_bit)|`` of the tone amplitude.  At an offset
    of one tone separation the transmitted tones land on each other's
    bins and the branch is unusable — returned as ``inf``.
    """
    offset = abs(offset_hz)
    if offset >= config.tone_separation_hz:
        return float("inf")
    # |sinc(x)| on Python floats, computed as np.sinc does:
    # sin(pi x) / (pi x), and exactly 1 at x = 0.
    x = offset / config.bit_rate_bps
    y = math.pi * x
    attenuation = abs(math.sin(y) / y) if y else 1.0
    if attenuation <= 1e-9:
        return float("inf")
    return -float(amplitude_to_db(attenuation))


def perturb_breakdown(breakdown: SnrBreakdown,
                      disturbance,
                      config: AskFskConfig) -> SnrBreakdown:
    """Apply a :class:`repro.faults.LinkDisturbance` to a clean breakdown.

    This is the analytic fault model the chaos experiments run on: it
    recomputes every decision SNR from the *perturbed* per-beam received
    levels, so the joint ASK-FSK structure responds to each fault class
    the way the hardware would —

    * blockage subtracts per-beam excess loss (the LoS beam pays more
      than the NLoS beam, so the ASK contrast can shrink or invert);
    * a stuck SPDT radiates every symbol through the welded port,
      collapsing the ASK contrast to zero while FSK survives;
    * VCO drift detunes the Goertzel bins, degrading only the FSK
      branch (:func:`_fsk_drift_penalty_db`);
    * in-band interference raises the effective noise floor, so every
      reported SNR is really an SINR and ``noise_dbm`` is what the AP
      *measures* (the resilience layer keys interferer detection off
      that jump);
    * a node power dropout silences everything.

    The ASK level distance uses the amplitude difference of the two
    perturbed levels (phases are unknowable once faults perturb the
    traced channel); the fault-free path through
    :meth:`OtamLink.snr_breakdown` is untouched.

    Only the FSK SNR reads the VCO offset, so the function is the
    composition of two halves: :func:`_drift_free` scores everything
    else, and :func:`_with_drift` applies the drift penalty.  A caller
    stepping through a drift segment, where only the offset moves,
    scores the first half once and the second per step.
    """
    return _with_drift(_drift_free(breakdown, disturbance),
                       disturbance.vco_offset_hz, config)


_DriftFree = tuple[float, float, float, float, float | None, float, bool]
"""(beam 1 level, beam 0 level, noise, ASK SNR, FSK level, no-OTAM SNR,
inverted): a perturbed breakdown short of its FSK SNR.  The FSK level
is None for a node that is down, whose FSK branch is silent at any
VCO offset."""


def _drift_free_key(disturbance) -> tuple[object, ...]:
    """Every disturbance field :func:`_drift_free` reads, as a dict key."""
    d = disturbance
    return (d.node_down, d.beam1_extra_loss_db, d.beam0_extra_loss_db,
            d.stuck_beam, d.interference_dbm)


def _drift_free(breakdown: SnrBreakdown, disturbance) -> _DriftFree:
    """The half of :func:`perturb_breakdown` that ignores VCO drift.

    It reads the disturbance fields :func:`_drift_free_key` lists and
    no other.
    """
    if disturbance.node_down:
        ninf = float("-inf")
        return (ninf, ninf, breakdown.noise_dbm, ninf, None, ninf, False)
    level1 = breakdown.beam1_level_dbm - disturbance.beam1_extra_loss_db
    level0 = breakdown.beam0_level_dbm - disturbance.beam0_extra_loss_db
    if disturbance.stuck_beam == 1:
        level0 = level1
    elif disturbance.stuck_beam == 0:
        level1 = level0
    noise_mw = float(dbm_to_milliwatts(breakdown.noise_dbm))
    if disturbance.has_interference:
        noise_mw += float(dbm_to_milliwatts(disturbance.interference_dbm))
    noise_dbm = float(milliwatts_to_dbm(noise_mw))
    a1, a0 = _amplitude(level1), _amplitude(level0)
    ask_snr = _level(abs(a1 - a0)) - noise_dbm
    fsk_level = _level(math.sqrt((a1 * a1 + a0 * a0) / 2.0))
    return (level1, level0, noise_dbm, ask_snr, fsk_level,
            level1 - noise_dbm, a0 > a1)


def _with_drift(part: _DriftFree, vco_offset_hz: float,
                config: AskFskConfig) -> SnrBreakdown:
    """The breakdown of ``part`` with the FSK tones ``vco_offset_hz`` off
    their Goertzel bins (the other half of :func:`perturb_breakdown`)."""
    level1, level0, noise_dbm, ask_snr, fsk_level, no_otam, inverted = part
    if fsk_level is None:
        fsk_snr = float("-inf")
    else:
        penalty = _fsk_drift_penalty_db(vco_offset_hz, config)
        fsk_snr = float("-inf") if math.isinf(penalty) \
            else fsk_level - penalty - noise_dbm
    return SnrBreakdown(
        beam1_level_dbm=level1,
        beam0_level_dbm=level0,
        noise_dbm=noise_dbm,
        ask_snr_db=ask_snr,
        fsk_snr_db=fsk_snr,
        no_otam_snr_db=no_otam,
        inverted=inverted,
    )


@dataclass(frozen=True)
class BistaticBreakdown:
    """Analytic link quality of a bistatic backscatter link.

    The passive-tag counterpart of :class:`SnrBreakdown`: the carrier
    makes two trips (AP → tag, tag → AP) and the tag keys data by
    switching its antenna reflection coefficient between
    ``gamma_on``/``gamma_off`` — reflection-coefficient ASK (Sun et
    al. backscatter survey).  Field names mirror the active breakdown
    so downstream consumers (BER tables, renderers) treat both alike.
    """

    carrier_at_tag_dbm: float
    """Illumination carrier power incident on the tag antenna."""

    on_level_dbm: float
    """Received power at the AP while the tag reflects with Γ_on."""

    off_level_dbm: float
    """Received power at the AP while the tag reflects with Γ_off."""

    noise_dbm: float
    """AP receiver noise floor in the measurement bandwidth."""

    ask_snr_db: float
    """SNR of the reflection-ASK decision (level difference vs
    noise) — the only modulation dimension a passive tag has."""


def bistatic_breakdown(*, downlink_m: float,
                       ap_eirp_dbm: float = 20.0,
                       ap_rx_gain_dbi: float = AP_ANTENNA_GAIN_DBI,
                       tag_gain_dbi: float = 5.0,
                       gamma_on: float = 0.8, gamma_off: float = 0.1,
                       conversion_loss_db: float = 6.0,
                       frequency_hz: float = CARRIER_FREQUENCY_HZ,
                       bandwidth_hz: float = 1e6,
                       noise_figure_db: float | None = None
                       ) -> BistaticBreakdown:
    """The bistatic AP → tag → AP link budget.

    Three legs, each plain Friis plus the tag's reflection physics:

    1. carrier at the tag = AP EIRP − FSPL(downlink) + tag gain;
    2. reflected EIRP for state Γ = carrier + tag gain −
       conversion loss + ``20 log10 |Γ|`` (the tag re-radiates through
       the same aperture; the modulator's insertion cost and scattering
       inefficiency sit in ``conversion_loss_db``);
    3. level at the AP = reflected EIRP − FSPL(downlink) + AP rx gain:
       the illuminator and the receiver are co-located
       (monostatic-style), so the return trip is as long as the first.

    The ASK decision distance is the *amplitude difference* of the two
    reflection states — identical maths to the OTAM beam-contrast
    decision in :func:`perturb_breakdown`, which is why the existing
    envelope/Goertzel demodulator decodes backscatter unchanged.
    """
    # Written so that NaN fails every check.
    if not 0 < downlink_m < math.inf:
        raise ValueError("downlink distance must be positive and finite")
    if not 0.0 <= gamma_off < gamma_on <= 1.0:
        raise ValueError("need 0 <= gamma_off < gamma_on <= 1")
    if not 0 <= conversion_loss_db < math.inf:
        raise ValueError("losses must be finite and not negative")
    nf = noise_figure_db if noise_figure_db is not None \
        else AccessPointHardware().cascade_noise_figure_db
    carrier_at_tag = float(friis_received_power_dbm(
        eirp_dbm=ap_eirp_dbm, rx_gain_dbi=tag_gain_dbi,
        distance_m=downlink_m, frequency_hz=frequency_hz))

    def _reflected_level(gamma: float) -> float:
        if gamma == 0.0:
            return float("-inf")
        # The reflection coefficient acts once on the field, so the
        # power term is 20 log10|Γ| — exactly amplitude_to_db(gamma).
        reflected_eirp = (carrier_at_tag + tag_gain_dbi
                          - conversion_loss_db
                          + float(amplitude_to_db(gamma)))
        return float(friis_received_power_dbm(
            eirp_dbm=reflected_eirp, rx_gain_dbi=ap_rx_gain_dbi,
            distance_m=downlink_m, frequency_hz=frequency_hz))

    on_level = _reflected_level(gamma_on)
    off_level = _reflected_level(gamma_off)
    noise = noise_power_dbm(bandwidth_hz, nf)
    a_on, a_off = _amplitude(on_level), _amplitude(off_level)
    ask_snr = _level(abs(a_on - a_off)) - noise
    return BistaticBreakdown(carrier_at_tag_dbm=carrier_at_tag,
                             on_level_dbm=on_level,
                             off_level_dbm=off_level,
                             noise_dbm=noise,
                             ask_snr_db=ask_snr)


@dataclass(frozen=True)
class LinkReport:
    """Sample-level transmission outcome."""

    demod: DemodResult
    bit_errors: int
    ber: float
    num_bits: int


@dataclass
class OtamLink:
    """A node-AP link through a simulated room.

    One link serves every carrier of a placement:
    :meth:`channel_responses` traces the room once and shares the trace
    and the per-path beam products across the carriers, and
    :meth:`snr_breakdown` takes each response in turn (nothing in it
    depends on the carrier).  ``frequency_hz`` is the carrier of
    :meth:`channel_response`.
    """

    placement: Placement
    room: object
    config: AskFskConfig = field(default_factory=AskFskConfig)
    beams: OrthogonalBeamPair = field(default_factory=measured_mmx_beams)
    ap_element: DipoleElement = field(default_factory=DipoleElement)
    ap_hardware: AccessPointHardware = field(default_factory=AccessPointHardware)
    frequency_hz: float = CARRIER_FREQUENCY_HZ
    eirp_dbm: float = NODE_EIRP_DBM
    ap_gain_dbi: float = AP_ANTENNA_GAIN_DBI
    implementation_loss_db: float = 10.0
    max_bounces: int = 2

    def __post_init__(self):
        self.modulator = OtamModulator(
            self.config,
            eirp_dbm=(self.eirp_dbm - self.implementation_loss_db))
        self.demodulator = JointDemodulator(self.config)

    # --- channel ------------------------------------------------------------

    def channel_response(self) -> ChannelResponse:
        """Trace the room and evaluate both beams at ``frequency_hz``."""
        return two_beam_gains(
            self.placement.node_position,
            self.placement.ap_position,
            self.room,
            beams=self.beams,
            ap_element=self.ap_element,
            node_orientation_rad=self.placement.node_orientation_rad,
            ap_orientation_rad=self.placement.ap_orientation_rad,
            frequency_hz=self.frequency_hz,
            max_bounces=self.max_bounces,
        )

    def channel_responses(self, frequencies_hz) -> tuple[ChannelResponse, ...]:
        """Both beams at each carrier, from one trace of the room.

        Entry ``i`` equals ``channel_response()`` of this link built
        with ``frequency_hz=frequencies_hz[i]``, bit for bit.
        """
        return two_beam_responses(
            self.placement.node_position,
            self.placement.ap_position,
            self.room,
            beams=self.beams,
            ap_element=self.ap_element,
            node_orientation_rad=self.placement.node_orientation_rad,
            ap_orientation_rad=self.placement.ap_orientation_rad,
            frequencies_hz=frequencies_hz,
            max_bounces=self.max_bounces,
        )

    # --- analytic view --------------------------------------------------------

    def _level_dbm(self, gain: float) -> float:
        """Received power [dBm] for a channel field gain magnitude."""
        if gain <= 0.0:
            return float("-inf")
        return (self.eirp_dbm + self.ap_gain_dbi
                - self.implementation_loss_db
                + float(amplitude_to_db(gain)))

    def snr_breakdown(self, channel: ChannelResponse | None = None,
                      bandwidth_hz: float = EVAL_NODE_CHANNEL_BANDWIDTH_HZ
                      ) -> SnrBreakdown:
        """Closed-form link quality for this placement.

        ``bandwidth_hz`` defaults to the 25 MHz per-node channel of the
        multi-node experiment (section 9.5) so SNR numbers sit on the
        paper's Fig. 10/12 scales.  Faults are applied to the result by
        :func:`perturb_breakdown`.
        """
        ch = channel or self.channel_response()
        noise = noise_power_dbm(bandwidth_hz,
                                self.ap_hardware.cascade_noise_figure_db)
        level1 = self._level_dbm(abs(ch.h1))
        level0 = self._level_dbm(abs(ch.h0))
        ask_snr = self._level_dbm(ch.difference_gain()) - noise
        joint_gain = math.sqrt((abs(ch.h1) ** 2 + abs(ch.h0) ** 2) / 2.0)
        fsk_snr = self._level_dbm(joint_gain) - noise
        no_otam = level1 - noise
        return SnrBreakdown(
            beam1_level_dbm=level1,
            beam0_level_dbm=level0,
            noise_dbm=noise,
            ask_snr_db=ask_snr,
            fsk_snr_db=fsk_snr,
            no_otam_snr_db=no_otam,
            inverted=ch.inverted,
        )

    # --- sample-level view ------------------------------------------------------

    def simulate_transmission(self, bits,
                              channel: ChannelResponse | None = None,
                              rng: np.random.Generator | None = None,
                              use_otam: bool = True) -> LinkReport:
        """Transmit, receive with noise, jointly demodulate, count errors.

        ``use_otam=False`` sends the paper's without-OTAM baseline
        instead (:meth:`OtamModulator.keying`).
        """
        ch = channel or self.channel_response()
        keying = self.modulator.keying(ch, use_otam=use_otam, fsk=use_otam)
        return transmit(bits, keying, self.demodulator,
                        self.ap_hardware.cascade_noise_figure_db, rng)


CAPTURE_BLOCK_BITS = 1024
"""Bits of a capture :func:`transmit` synthesises, adds noise to and
reduces at a time."""


def transmit(bits, keying: Keying, demodulator: JointDemodulator,
             noise_figure_db: float,
             rng: np.random.Generator | None = None) -> LinkReport:
    """Send ``bits`` keyed by ``keying``, receive with noise, decode, count.

    The capture streams through the receiver (:func:`_observe_capture`)
    and the demodulator decides once, on the whole burst's per-bit
    observables.  Bit for bit, the report is that of
    :meth:`JointDemodulator.demodulate` on the whole noisy capture built
    in one piece, with the same generator state afterwards.
    """
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    sent = transmitted_beam_bits(bits)
    if sent.size == 0:
        raise ValueError("cannot modulate an empty bit sequence")
    demod = demodulator.decide(*_observe_capture(
        sent, keying, demodulator, noise_figure_db, rng))
    errors = int(np.count_nonzero(bits != demod.bits))
    return LinkReport(demod=demod, bit_errors=errors,
                      ber=errors / bits.size, num_bits=int(bits.size))


def _observe_capture(sent: np.ndarray, keying: Keying,
                     demodulator: JointDemodulator, noise_figure_db: float,
                     rng: np.random.Generator | None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Per-bit observables of the noisy capture of ``sent``, in blocks.

    The AP decodes its baseband one bit period at a time (§6.3), so the
    capture never exists whole: each block of :data:`CAPTURE_BLOCK_BITS`
    bits is synthesised into one reused buffer, gets its receiver noise
    (bandwidth: the sample rate) and is reduced to its mean envelopes
    and tone powers.  The one array as long as the burst is the noise's
    I draws, half a capture's bytes (:class:`CaptureNoise`); it is gone
    before the decision runs.
    """
    config = demodulator.config
    sps = config.samples_per_bit
    noise = CaptureNoise(
        sent.size * sps,
        noise_power_dbm(config.sample_rate_hz, noise_figure_db), rng)
    soft = np.empty(sent.size)
    powers = np.empty((sent.size, 2))
    capture = np.empty(min(sent.size, CAPTURE_BLOCK_BITS) * sps,
                       dtype=np.complex128)
    tone_sum = 0.0
    for start in range(0, sent.size, CAPTURE_BLOCK_BITS):
        rows = slice(start, start + CAPTURE_BLOCK_BITS)
        block = sent[rows]
        wave = Waveform(capture[: block.size * sps], config.sample_rate_hz)
        tone_sum = synthesize_block(wave.samples, block, sps,
                                    config.sample_rate_hz, keying, tone_sum)
        noise.add(wave.samples)
        soft[rows] = demodulator.ask_soft_values(wave)
        powers[rows] = demodulator.fsk_tone_powers(wave)
    return soft, powers


def facing_link(distance_m: float) -> OtamLink:
    """A node facing the AP from ``distance_m`` in the default lab room.

    The AP sits mid-width by the near wall, the node straight down the
    room from it; a node that would land within 0.1 m of a wall raises
    :class:`ValueError`.  The chaos runs and the energy campaigns put
    their one link here.
    """
    room = default_lab_room()
    ap = Point(room.width_m / 2.0, 0.15)
    node = Point(room.width_m / 2.0, 0.15 + distance_m)
    if not room.contains(node, margin=0.1):
        raise ValueError("distance does not fit in the lab room")
    placement = Placement(node, angle_of(node, ap), ap, math.pi / 2)
    return OtamLink(placement=placement, room=room)
