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
from ..channel.noise import complex_awgn, noise_power_dbm
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
from ..phy.waveform import Waveform
from ..sim.placement import Placement
from ..units import (
    amplitude_to_db,
    db_to_amplitude,
    dbm_to_milliwatts,
    milliwatts_to_dbm,
)
from .ask_fsk import AskFskConfig
from .demodulator import DemodResult, JointDemodulator
from .otam import OtamModulator

__all__ = ["BistaticBreakdown", "SnrBreakdown", "LinkReport", "OtamLink",
           "bistatic_breakdown", "ism_carriers", "perturb_breakdown"]


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
    """
    if disturbance.node_down:
        ninf = float("-inf")
        return SnrBreakdown(
            beam1_level_dbm=ninf, beam0_level_dbm=ninf,
            noise_dbm=breakdown.noise_dbm, ask_snr_db=ninf,
            fsk_snr_db=ninf, no_otam_snr_db=ninf, inverted=False)
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
    penalty = _fsk_drift_penalty_db(disturbance.vco_offset_hz, config)
    fsk_snr = float("-inf") if math.isinf(penalty) \
        else fsk_level - penalty - noise_dbm
    return SnrBreakdown(
        beam1_level_dbm=level1,
        beam0_level_dbm=level0,
        noise_dbm=noise_dbm,
        ask_snr_db=ask_snr,
        fsk_snr_db=fsk_snr,
        no_otam_snr_db=level1 - noise_dbm,
        inverted=a0 > a1,
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


def bistatic_breakdown(*, downlink_m: float, uplink_m: float | None = None,
                       ap_eirp_dbm: float = 20.0,
                       ap_rx_gain_dbi: float = AP_ANTENNA_GAIN_DBI,
                       tag_gain_dbi: float = 5.0,
                       gamma_on: float = 0.8, gamma_off: float = 0.1,
                       conversion_loss_db: float = 6.0,
                       excess_loss_db: float = 0.0,
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
    3. level at the AP = reflected EIRP − FSPL(uplink) + AP rx gain.

    The ASK decision distance is the *amplitude difference* of the two
    reflection states — identical maths to the OTAM beam-contrast
    decision in :func:`perturb_breakdown`, which is why the existing
    envelope/Goertzel demodulator decodes backscatter unchanged.
    ``uplink_m`` defaults to the downlink distance (monostatic-style
    co-located illuminator and receiver).  ``excess_loss_db`` lets
    fault disturbances (blockage) tax both trips.
    """
    if downlink_m <= 0:
        raise ValueError("downlink distance must be positive")
    up_m = downlink_m if uplink_m is None else uplink_m
    if up_m <= 0:
        raise ValueError("uplink distance must be positive")
    if not 0.0 <= gamma_off < gamma_on <= 1.0:
        raise ValueError("need 0 <= gamma_off < gamma_on <= 1")
    if conversion_loss_db < 0 or excess_loss_db < 0:
        raise ValueError("losses cannot be negative")
    nf = noise_figure_db if noise_figure_db is not None \
        else AccessPointHardware().cascade_noise_figure_db
    carrier_at_tag = float(friis_received_power_dbm(
        eirp_dbm=ap_eirp_dbm, rx_gain_dbi=tag_gain_dbi,
        distance_m=downlink_m, frequency_hz=frequency_hz)) \
        - excess_loss_db

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
            distance_m=up_m, frequency_hz=frequency_hz)) - excess_loss_db

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
                      bandwidth_hz: float = EVAL_NODE_CHANNEL_BANDWIDTH_HZ,
                      disturbance=None) -> SnrBreakdown:
        """Closed-form link quality for this placement.

        ``bandwidth_hz`` defaults to the 25 MHz per-node channel of the
        multi-node experiment (section 9.5) so SNR numbers sit on the
        paper's Fig. 10/12 scales.

        ``disturbance`` optionally applies an active
        :class:`repro.faults.LinkDisturbance` (see
        :func:`perturb_breakdown`); ``None`` or a clear disturbance
        leaves the fault-free computation bit-identical to the seed.
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
        breakdown = SnrBreakdown(
            beam1_level_dbm=level1,
            beam0_level_dbm=level0,
            noise_dbm=noise,
            ask_snr_db=ask_snr,
            fsk_snr_db=fsk_snr,
            no_otam_snr_db=no_otam,
            inverted=ch.inverted,
        )
        if disturbance is not None and not disturbance.is_clear:
            breakdown = perturb_breakdown(breakdown, disturbance,
                                          self.config)
        return breakdown

    # --- sample-level view ------------------------------------------------------

    def received_with_noise(self, bits, channel: ChannelResponse | None = None,
                            rng: np.random.Generator | None = None,
                            use_otam: bool = True) -> Waveform:
        """Noisy AP baseband capture for a transmitted bit sequence."""
        ch = channel or self.channel_response()
        if use_otam:
            clean = self.modulator.received_waveform(bits, ch)
        else:
            clean = self.modulator.ask_only_waveform(bits, ch)
        noise_dbm = noise_power_dbm(self.config.sample_rate_hz,
                                    self.ap_hardware.cascade_noise_figure_db)
        noise = complex_awgn(len(clean), noise_dbm, rng)
        return Waveform(clean.samples + noise, clean.sample_rate_hz)

    def simulate_transmission(self, bits,
                              channel: ChannelResponse | None = None,
                              rng: np.random.Generator | None = None,
                              use_otam: bool = True) -> LinkReport:
        """Transmit, receive with noise, jointly demodulate, count errors."""
        bits = np.asarray(bits, dtype=np.uint8).ravel()
        wave = self.received_with_noise(bits, channel, rng, use_otam)
        demod = self.demodulator.demodulate(wave)
        n = min(bits.size, demod.bits.size)
        errors = int(np.count_nonzero(bits[:n] != demod.bits[:n]))
        errors += abs(bits.size - demod.bits.size)
        ber = errors / bits.size if bits.size else 0.0
        return LinkReport(demod=demod, bit_errors=errors, ber=ber,
                          num_bits=int(bits.size))
