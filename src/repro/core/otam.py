"""Over-The-Air Modulation: bits become beam selections (section 6.1).

A conventional radio modulates first and then points its best beam at the
AP.  OTAM inverts this: the node always transmits a *pure carrier* and
uses the data bit to pick which of its two fixed orthogonal beams radiates
it.  The two beams excite different subsets of the sparse mmWave paths, so
the AP receives a tone whose amplitude is keyed by the *channel* — ASK
created over the air, with zero beam searching and zero feedback.

The modulator therefore does not produce "a modulated signal" at the node;
it produces the *received* waveform given a channel
(:class:`repro.channel.ChannelResponse`), because that is where the
modulation physically happens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..channel.multipath import ChannelResponse
from ..hardware.switch import ADRF5020Switch
from ..phy.bits import as_bit_array
from ..phy.waveform import Keying, Waveform, two_level_waveform
from ..units import db_to_amplitude
from .ask_fsk import AskFskConfig

__all__ = ["OtamModulator", "transmitted_beam_bits"]


def transmitted_beam_bits(data_bits) -> np.ndarray:
    """Map data bits to beam selections: bit 1 -> Beam 1, bit 0 -> Beam 0.

    Trivial by design — the paper's Fig. 4 example ("to transmit 101, send
    the carrier to Beam 1, switch to Beam 0, switch back") *is* the
    modulation.  Kept as an explicit function so the node, the energy
    model and the tests all share the mapping.
    """
    return as_bit_array(data_bits)


@dataclass
class OtamModulator:
    """Generates the over-the-air waveform the AP receives.

    Parameters
    ----------
    config:
        Shared :class:`AskFskConfig` numerology.
    switch:
        The SPDT model; supplies insertion loss and the finite isolation
        that leaks a little carrier out of the *unselected* beam.
    eirp_dbm:
        Node EIRP at the selected beam's peak.  Amplitudes in the output
        waveform are dBm-referenced (|x|^2 of 1.0 == 0 dBm), matching
        :func:`repro.channel.noise.complex_awgn`.
    """

    config: AskFskConfig
    switch: ADRF5020Switch = None
    eirp_dbm: float = 10.0

    def __post_init__(self):
        if self.switch is None:
            self.switch = ADRF5020Switch()
        self.switch.validate_bitrate(self.config.bit_rate_bps)

    def per_bit_amplitudes(self, channel: ChannelResponse
                           ) -> tuple[complex, complex]:
        """Complex received amplitudes for a '1' bit and a '0' bit.

        The selected beam's channel gain passes through the switch's
        insertion loss; the other beam still radiates the isolation
        leakage.  Insertion loss is *not* re-applied on top of the EIRP
        (EIRP already includes it); only the leak-to-through ratio
        matters, so the through path is normalised to 1.
        """
        through, leak = 1.0, float(db_to_amplitude(
            -(self.switch.isolation_db - self.switch.insertion_loss_db)))
        scale = float(db_to_amplitude(self.eirp_dbm))
        amp_one = scale * (channel.h1 * through + channel.h0 * leak)
        amp_zero = scale * (channel.h0 * through + channel.h1 * leak)
        return complex(amp_one), complex(amp_zero)

    def keying(self, channel: ChannelResponse, *, use_otam: bool = True,
               fsk: bool = True) -> Keying:
        """Amplitude and tone each bit value reaches the AP with.

        With ``use_otam`` each bit picks its beam, so the channel keys
        the amplitude (:meth:`per_bit_amplitudes`).  Without it the node
        is the paper's *without OTAM* baseline, scenario (1) of
        section 9.2: it switches the carrier on and off at the radio and
        always radiates through the broadside Beam 1, so when Beam 1's
        path is weak the whole signal is weak, with no second beam to
        fall back on.  With ``fsk`` each bit also nudges the VCO to its
        own tone (joint ASK-FSK, section 6.3); without it both bits ride
        the bit-1 tone.
        """
        if use_otam:
            amp_one, amp_zero = self.per_bit_amplitudes(channel)
        else:
            amp_one = float(db_to_amplitude(self.eirp_dbm)) * channel.h1
            amp_zero = 0.0
        freq_one = self.config.freq_one_hz
        return Keying(amp_one, amp_zero, freq_one,
                      self.config.freq_zero_hz if fsk else freq_one)

    def received_waveform(self, data_bits,
                          channel: ChannelResponse) -> Waveform:
        """Noise-free waveform at the AP's baseband for a bit sequence.

        Each bit keys both the amplitude (beam selection through the
        channel — the ASK dimension) and a small tone offset (the FSK
        dimension).  Phase runs continuously, as a free-running VCO's
        would.
        """
        bits = transmitted_beam_bits(data_bits)
        if bits.size == 0:
            raise ValueError("cannot modulate an empty bit sequence")
        return two_level_waveform(bits, self.config.bit_rate_bps,
                                  self.config.sample_rate_hz,
                                  *self.keying(channel))
