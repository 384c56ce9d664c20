"""The AP's joint ASK-FSK demodulator with polarity resolution (§6.1, §6.3).

Decoding proceeds per bit period on the complex baseband capture:

1. **ASK branch** — average envelope per bit, 2-means level estimation,
   threshold midway.  This branch carries an inherent *polarity
   ambiguity*: when the LoS is blocked, Beam 0 arrives stronger than
   Beam 1 and every bit inverts (Fig. 4b).  The known preamble resolves
   it.
2. **FSK branch** — Goertzel tone powers at the two configured
   frequencies; bit = stronger tone.  No polarity ambiguity (the bit
   chooses the VCO frequency directly), but it fails when one beam's
   signal is too weak to detect its tone.
3. **Joint decision** — each branch reports a decision SNR; the better
   branch wins.  This is exactly the paper's argument for why *both* are
   needed: "FSK or ASK alone is not sufficient to decode the signal in
   all scenarios".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..phy.envelope import envelope_detect, threshold_levels
from ..phy.goertzel import goertzel_block_powers
from ..phy.preamble import default_preamble_bits, locate_preamble
from ..phy.snr import estimate_snr_two_level
from ..phy.waveform import Waveform
from .ask_fsk import AskFskConfig

__all__ = ["DemodResult", "JointDemodulator"]


@dataclass(frozen=True)
class DemodResult:
    """Joint demodulation outcome for one capture."""

    bits: np.ndarray
    """Decoded bits (preamble included, polarity corrected)."""

    branch: str
    """Which branch produced the decision: 'ask', 'fsk' or 'none'."""

    ask_snr_db: float
    """Decision SNR of the ASK (envelope) branch."""

    fsk_snr_db: float
    """Decision SNR of the FSK (tone-contrast) branch."""

    inverted: bool
    """Whether the ASK branch had to invert its bits (blocked-LoS case)."""

    preamble_found: bool
    """Whether the preamble correlation cleared its threshold."""


class JointDemodulator:
    """Decodes OTAM captures; one instance per configured link."""

    def __init__(self, config: AskFskConfig):
        self.config = config
        self.preamble = default_preamble_bits()

    # --- per-bit observables -----------------------------------------------

    def ask_soft_values(self, wave: Waveform) -> np.ndarray:
        """Per-bit mean envelope (the ASK observable)."""
        self._check_rate(wave)
        sps = self.config.samples_per_bit
        env = envelope_detect(wave.samples)
        num_bits = env.size // sps
        return env[: num_bits * sps].reshape(num_bits, sps).mean(axis=1)

    def fsk_tone_powers(self, wave: Waveform) -> np.ndarray:
        """Per-bit (power at f0, power at f1) matrix."""
        self._check_rate(wave)
        return goertzel_block_powers(
            wave.samples, self.config.samples_per_bit,
            [self.config.freq_zero_hz, self.config.freq_one_hz],
            wave.sample_rate_hz)

    # --- joint decision ---------------------------------------------------

    def demodulate(self, wave: Waveform) -> DemodResult:
        """Full joint ASK-FSK demodulation with polarity resolution.

        The capture must start on a bit edge: bit ``k`` is the sample
        block ``[k * samples_per_bit, (k + 1) * samples_per_bit)``.  The
        whole capture is one block of observables for :meth:`decide`.
        """
        return self.decide(self.ask_soft_values(wave),
                           self.fsk_tone_powers(wave))

    def decide(self, soft: np.ndarray, powers: np.ndarray) -> DemodResult:
        """Joint decision on a capture's per-bit observables.

        ``soft`` is the capture's :meth:`ask_soft_values` and ``powers``
        its :meth:`fsk_tone_powers`, one row per bit.  Each row depends
        on its own bit period only, so a receiver may compute them block
        by block.
        """
        if soft.size == 0:
            return DemodResult(bits=np.zeros(0, dtype=np.uint8),
                               branch="none",
                               ask_snr_db=float("-inf"),
                               fsk_snr_db=float("-inf"),
                               inverted=False, preamble_found=False)
        # ASK: envelope threshold decisions, *raw* (possibly inverted).
        _, _, threshold = threshold_levels(soft)
        ask_bits = (soft > threshold).astype(np.uint8)
        ask_snr = estimate_snr_two_level(soft, ask_bits)
        # FSK: the decision statistic per bit is ``P(f1) - P(f0)``; its
        # SNR is the separation of the two decision clusters, the same
        # metric as the ASK branch's, so the comparison is fair.
        contrast = powers[:, 1] - powers[:, 0]
        fsk_bits = (contrast > 0.0).astype(np.uint8)
        fsk_snr = estimate_snr_two_level(contrast, fsk_bits)

        # Resolve ASK polarity against the preamble (start of capture).
        inverted = False
        preamble_found = False
        if ask_bits.size >= self.preamble.size:
            detection = locate_preamble(2.0 * ask_bits.astype(float) - 1.0,
                                        self.preamble)
            preamble_found = detection.found
            if detection.found and detection.inverted:
                inverted = True
                ask_bits = (1 - ask_bits).astype(np.uint8)

        # If the ASK branch found no preamble its polarity is a
        # guess; a clean FSK branch is then preferable even at
        # comparable SNR.
        ask_effective = ask_snr if preamble_found else ask_snr - 6.0
        if ask_effective >= fsk_snr:
            branch, bits = "ask", ask_bits
        else:
            branch, bits = "fsk", fsk_bits
        return DemodResult(bits=bits, branch=branch,
                           ask_snr_db=ask_snr, fsk_snr_db=fsk_snr,
                           inverted=inverted, preamble_found=preamble_found)

    # --- helpers ------------------------------------------------------------

    def _check_rate(self, wave: Waveform) -> None:
        if abs(wave.sample_rate_hz - self.config.sample_rate_hz) > 1e-6:
            raise ValueError(
                f"waveform rate {wave.sample_rate_hz} does not match "
                f"configured {self.config.sample_rate_hz}")
