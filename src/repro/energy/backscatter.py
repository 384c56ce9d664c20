"""Passive backscatter tags: reflection-coefficient ASK, decoded by
the *unchanged* mmX receiver.

The deep trick (and the reason this fits mmX so naturally): OTAM
already treats modulation as something the **channel** does — the node
radiates a constant carrier and the data bit selects which channel
gain the AP sees.  A backscatter tag is the same abstraction one layer
down: the AP radiates a constant illumination carrier and the data bit
selects which *reflection coefficient* (Γ_on / Γ_off) the tag presents,
so the AP again sees a two-level amplitude keying of its own carrier.

This module makes that correspondence executable: it maps the bistatic
link budget (:func:`repro.core.link.bistatic_breakdown`) into a
synthetic :class:`~repro.channel.ChannelResponse` whose two "beam
gains" are the two reflection states, then drives the stock
:class:`~repro.core.OtamModulator` → envelope/Goertzel
:class:`~repro.core.JointDemodulator` pipeline.  No new receiver code:
the differential test in ``tests/test_energy.py`` pins the measured
BER against the closed-form ASK table at matched SNR.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..channel.multipath import ChannelResponse
from ..core.ask_fsk import AskFskConfig
from ..core.demodulator import JointDemodulator
from ..core.link import (
    BistaticBreakdown,
    LinkReport,
    bistatic_breakdown,
    transmit,
)
from ..core.otam import OtamModulator
from ..hardware.chains import AccessPointHardware
from ..units import db_to_amplitude
from .classes import BACKSCATTER_CLASS, NodeClassSpec, node_class

__all__ = ["BackscatterLink", "backscatter_config"]


def backscatter_config(bitrate_bps: float | None = None) -> AskFskConfig:
    """ASK-FSK numerology scaled to tag switching speeds.

    A passive modulator toggles ~10⁶ times/s, not 10⁸.  The config
    still carries the standard tone plan, but the tag transmits *both*
    bits on the bit-1 tone (a tag has no VCO to nudge, so there is no
    FSK dimension) — the joint demodulator then sees zero tone
    contrast and its ASK branch does all the work.
    """
    rate = float(bitrate_bps) if bitrate_bps is not None \
        else node_class(BACKSCATTER_CLASS).bitrate_bps
    if rate <= 0:
        raise ValueError("bitrate must be positive")
    return AskFskConfig(bit_rate_bps=rate, sample_rate_hz=16.0 * rate)


@dataclass
class BackscatterLink:
    """One AP ↔ passive tag link (bistatic, illumination-powered).

    The active-link mirror of :class:`repro.core.OtamLink`: analytic
    view via :meth:`breakdown`, sample-level view via
    :meth:`simulate_transmission` — both riding the existing PHY.
    """

    downlink_m: float = 2.0
    ap_eirp_dbm: float = 20.0
    gamma_on: float = 0.8
    gamma_off: float = 0.1
    conversion_loss_db: float = 6.0
    tag_gain_dbi: float = 5.0
    spec: NodeClassSpec = None  # type: ignore[assignment]
    config: AskFskConfig = None  # type: ignore[assignment]
    ap_hardware: AccessPointHardware = field(
        default_factory=AccessPointHardware)

    def __post_init__(self) -> None:
        if self.spec is None:
            self.spec = node_class(BACKSCATTER_CLASS)
        if self.spec.modulation != "backscatter-ask":
            raise ValueError(f"node class {self.spec.name!r} is not a "
                             "backscatter class")
        if self.config is None:
            self.config = backscatter_config(self.spec.bitrate_bps)
        self.modulator = OtamModulator(self.config, eirp_dbm=0.0)
        self.demodulator = JointDemodulator(self.config)

    def breakdown(self) -> BistaticBreakdown:
        """The bistatic AP → tag → AP budget for this geometry."""
        return bistatic_breakdown(
            downlink_m=self.downlink_m,
            ap_eirp_dbm=self.ap_eirp_dbm,
            tag_gain_dbi=self.tag_gain_dbi,
            gamma_on=self.gamma_on,
            gamma_off=self.gamma_off,
            conversion_loss_db=self.conversion_loss_db,
            bandwidth_hz=self.config.bit_rate_bps,
            noise_figure_db=self.ap_hardware.cascade_noise_figure_db)

    def reflection_channel(self) -> ChannelResponse:
        """The tag's two reflection states as a two-"beam" channel.

        ``h1``/``h0`` carry the *received field amplitudes* of the
        Γ_on/Γ_off states (dBm-referenced, matching the modulator's
        ``eirp_dbm=0`` normalisation), so the OTAM modulator reproduces
        the bistatic budget sample-for-sample.
        """
        bd = self.breakdown()
        h_on = 0.0 if bd.on_level_dbm == float("-inf") \
            else float(db_to_amplitude(bd.on_level_dbm))
        h_off = 0.0 if bd.off_level_dbm == float("-inf") \
            else float(db_to_amplitude(bd.off_level_dbm))
        return ChannelResponse(h1=complex(h_on), h0=complex(h_off),
                               paths=())

    def simulate_transmission(self, bits,
                              rng: np.random.Generator | None = None
                              ) -> LinkReport:
        """Backscatter, receive with noise, demodulate, count errors.

        Amplitudes come from the stock OTAM modulator (its leak-through
        model doubles as the tag's residual Γ_off reflection), but both
        bits ride the *same* tone — a tag cannot nudge the illuminator's
        frequency, so the FSK dimension carries no information by
        construction.
        """
        keying = self.modulator.keying(self.reflection_channel(),
                                       fsk=False)
        return transmit(bits, keying, self.demodulator,
                        self.ap_hardware.cascade_noise_figure_db, rng)
