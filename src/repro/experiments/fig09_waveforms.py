"""Fig. 9 + the section 6.3 claim: ASK-decodable vs FSK-decodable captures.

Fig. 9(a): the two beams' paths differ, the envelope carries the bits —
ASK demodulation works.  Fig. 9(b): the paths happen to match, the
envelope is flat, and only the joint modulation's frequency dimension
recovers the bits.  Section 6.3 claims the ambiguous case occurs for
<10 % of placements; the Monte-Carlo half of this experiment measures
that probability with the ray-traced channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..channel.multipath import ChannelResponse
from ..channel.noise import complex_awgn
from ..core.ask_fsk import AskFskConfig
from ..core.demodulator import JointDemodulator
from ..core.link import OtamLink
from ..core.otam import OtamModulator
from ..phy.bits import random_bits
from ..phy.preamble import default_preamble_bits
from ..sim.environment import default_lab_room
from ..sim.mobility import los_blocker_between
from ..sim.placement import PlacementSampler
from ..units import amplitude_to_db, db_to_amplitude
from .report import format_table

__all__ = ["WaveformExample", "Fig9Result", "run", "render"]

#: Decision SNR below which a branch cannot decode reliably.
DECODE_SNR_DB = 10.0

#: Levels within this gap count as "the same loss" (section 6.3).
AMBIGUITY_CONTRAST_DB = 1.0


@dataclass(frozen=True)
class WaveformExample:
    """One synthetic capture with its demodulation outcome."""

    label: str
    bits: np.ndarray
    envelope: np.ndarray
    decoded_branch: str
    bit_errors: int
    ask_snr_db: float
    fsk_snr_db: float


@dataclass(frozen=True)
class Fig9Result:
    """The two showcase captures plus the ambiguity statistics."""

    ask_case: WaveformExample
    fsk_case: WaveformExample
    ambiguous_fraction: float
    ambiguous_decoded_fraction: float
    num_placements: int


def _example(label: str, channel: ChannelResponse, rng: np.random.Generator,
             config: AskFskConfig, snr_setup_db: float = 30.0
             ) -> WaveformExample:
    modulator = OtamModulator(config, eirp_dbm=0.0)
    demod = JointDemodulator(config)
    bits = np.concatenate([default_preamble_bits(),
                           random_bits(64, rng)])
    wave = modulator.received_waveform(bits, channel)
    # Noise set relative to the stronger level so both cases see the same
    # receiver floor.
    strong = max(abs(channel.h1), abs(channel.h0))
    complex_awgn(wave.samples, float(amplitude_to_db(strong)) - snr_setup_db,
                 rng)
    result = demod.demodulate(wave)
    n = min(bits.size, result.bits.size)
    errors = int(np.count_nonzero(bits[:n] != result.bits[:n]))
    return WaveformExample(
        label=label,
        bits=bits,
        envelope=np.abs(wave.samples),
        decoded_branch=result.branch,
        bit_errors=errors,
        ask_snr_db=result.ask_snr_db,
        fsk_snr_db=result.fsk_snr_db,
    )


def run(seed: int = 0, num_placements: int = 300) -> Fig9Result:
    """Build the two Fig. 9 captures and measure the ambiguity rate."""
    rng = np.random.default_rng(seed)
    config = AskFskConfig(bit_rate_bps=1e6, sample_rate_hz=8e6)

    # (a) distinct beam losses: NLoS beam 15 dB below the LoS beam.
    distinct = ChannelResponse(h1=1.0 + 0.0j,
                               h0=float(db_to_amplitude(-15.0)) + 0.0j,
                               paths=())
    ask_case = _example("Fig 9a (decode via ASK)", distinct, rng, config)

    # (b) equal losses: amplitudes match, only frequency separates bits.
    equal = ChannelResponse(h1=0.5 + 0.0j, h0=0.5 * np.exp(1j * 0.7),
                            paths=())
    fsk_case = _example("Fig 9b (decode via FSK)", equal, rng, config)

    # Monte-Carlo ambiguity probability over ray-traced placements with a
    # person near the LoS half the time (the situation that equalises
    # the beams).  "Same loss" means the two received levels sit within
    # AMBIGUITY_CONTRAST_DB of each other.
    ambiguous = 0
    ambiguous_with_signal = 0
    ambiguous_decoded = 0
    room = default_lab_room()
    sampler = PlacementSampler(room, rng)
    for _ in range(num_placements):
        placement = sampler.sample()
        room.clear_blockers()
        if rng.random() < 0.5:
            room.add_blocker(los_blocker_between(
                placement.node_position, placement.ap_position,
                fraction=float(rng.uniform(0.2, 0.8)), rng=rng))
        link = OtamLink(placement=placement, room=room)
        breakdown = link.snr_breakdown()
        if breakdown.ask_contrast_db < AMBIGUITY_CONTRAST_DB:
            ambiguous += 1
            # Joint decode succeeds via FSK whenever the placement is
            # not simply in outage (some signal actually arrives).
            stronger = max(breakdown.beam1_level_dbm,
                           breakdown.beam0_level_dbm)
            if stronger - breakdown.noise_dbm >= DECODE_SNR_DB:
                ambiguous_with_signal += 1
                if breakdown.fsk_snr_db >= DECODE_SNR_DB:
                    ambiguous_decoded += 1
    room.clear_blockers()
    return Fig9Result(
        ask_case=ask_case,
        fsk_case=fsk_case,
        ambiguous_fraction=ambiguous / num_placements,
        ambiguous_decoded_fraction=(
            ambiguous_decoded / ambiguous_with_signal
            if ambiguous_with_signal else 1.0),
        num_placements=num_placements,
    )


def render(result: Fig9Result) -> str:
    """Summary table for both captures and the ambiguity statistics."""
    rows = []
    for case in (result.ask_case, result.fsk_case):
        rows.append([case.label, case.decoded_branch, case.bit_errors,
                     f"{case.ask_snr_db:.1f}", f"{case.fsk_snr_db:.1f}"])
    table = format_table(
        ["capture", "branch used", "bit errors", "ASK SNR [dB]",
         "FSK SNR [dB]"],
        rows, title="Fig. 9 — joint ASK-FSK decoding examples")
    stats = format_table(
        ["metric", "value", "paper"],
        [
            ["ambiguous-amplitude fraction",
             f"{result.ambiguous_fraction:.1%}", "<10%"],
            ["of those, decodable via FSK",
             f"{result.ambiguous_decoded_fraction:.1%}", "all"],
        ],
        title="Section 6.3 ambiguity statistics")
    return "\n\n".join([table, stats])
