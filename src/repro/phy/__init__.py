"""Physical-layer substrate: DSP, modulation math, coding and link budgets.

This subpackage contains everything below the mmX-specific logic: generic
signal processing (waveforms, envelope detection, tone detection),
closed-form error-rate theory, channel coding, and noise/link-budget math.
The mmX core in :mod:`repro.core` composes these pieces.
"""

from .ber import (
    qfunc,
    ber_fsk_noncoherent,
)
from .bits import (
    bits_to_bytes,
    bytes_to_bits,
    random_bits,
    pack_uint,
    unpack_uint,
)
from .coding import (
    crc16_ccitt,
    HammingCode74,
    interleave,
    deinterleave,
)
from .envelope import envelope_detect, threshold_levels
from .goertzel import goertzel_block_powers
from .impairments import (
    apply_cfo,
    apply_phase_noise,
    apply_iq_imbalance,
    quantize,
)
from .preamble import (
    BARKER13,
    default_preamble_bits,
    correlate_preamble,
    locate_preamble,
)
from .snr import (
    noise_figure_cascade_db,
    estimate_snr_two_level,
)
from .waveform import (
    Waveform,
    two_level_waveform,
    awgn_noise,
)

__all__ = [
    "BARKER13",
    "HammingCode74",
    "Waveform",
    "apply_cfo",
    "apply_iq_imbalance",
    "apply_phase_noise",
    "awgn_noise",
    "ber_fsk_noncoherent",
    "bits_to_bytes",
    "bytes_to_bits",
    "correlate_preamble",
    "crc16_ccitt",
    "default_preamble_bits",
    "deinterleave",
    "envelope_detect",
    "estimate_snr_two_level",
    "goertzel_block_powers",
    "interleave",
    "locate_preamble",
    "noise_figure_cascade_db",
    "pack_uint",
    "qfunc",
    "quantize",
    "random_bits",
    "threshold_levels",
    "two_level_waveform",
    "unpack_uint",
]
