"""Physical-layer substrate: DSP, modulation math, coding and link budgets.

This subpackage contains everything below the mmX-specific logic: generic
signal processing (waveforms, filters, envelope detection, tone detection),
closed-form error-rate theory, channel coding, and noise/link-budget math.
The mmX core in :mod:`repro.core` composes these pieces.
"""

from .ber import (
    qfunc,
    qfunc_inv,
    ber_ook_coherent,
    ber_ook_noncoherent,
    ber_ask_coherent,
    ber_fsk_noncoherent,
    ber_bpsk,
    snr_db_for_target_ber,
)
from .bits import (
    bits_to_bytes,
    bytes_to_bits,
    bit_errors,
    random_bits,
    pack_uint,
    unpack_uint,
)
from .coding import (
    crc16_ccitt,
    RepetitionCode,
    HammingCode74,
    interleave,
    deinterleave,
)
from .envelope import envelope_detect, automatic_gain_control, threshold_levels
from .filters import moving_average, fir_lowpass, apply_fir
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
    thermal_noise_dbm,
    noise_figure_cascade_db,
    LinkBudget,
    estimate_snr_two_level,
)
from .spectrum import (
    occupied_bandwidth_hz,
    power_spectral_density,
)
from .timing import estimate_timing_offset, align_to_bits, timing_metric
from .waveform import (
    Waveform,
    carrier,
    two_level_waveform,
    awgn_noise,
)

__all__ = [
    "BARKER13",
    "HammingCode74",
    "LinkBudget",
    "RepetitionCode",
    "Waveform",
    "align_to_bits",
    "apply_cfo",
    "apply_fir",
    "apply_iq_imbalance",
    "apply_phase_noise",
    "automatic_gain_control",
    "awgn_noise",
    "ber_ask_coherent",
    "ber_bpsk",
    "ber_fsk_noncoherent",
    "ber_ook_coherent",
    "ber_ook_noncoherent",
    "bit_errors",
    "bits_to_bytes",
    "bytes_to_bits",
    "carrier",
    "correlate_preamble",
    "crc16_ccitt",
    "default_preamble_bits",
    "deinterleave",
    "envelope_detect",
    "estimate_snr_two_level",
    "estimate_timing_offset",
    "fir_lowpass",
    "goertzel_block_powers",
    "interleave",
    "locate_preamble",
    "moving_average",
    "noise_figure_cascade_db",
    "occupied_bandwidth_hz",
    "pack_uint",
    "power_spectral_density",
    "qfunc",
    "qfunc_inv",
    "quantize",
    "random_bits",
    "snr_db_for_target_ber",
    "thermal_noise_dbm",
    "threshold_levels",
    "timing_metric",
    "two_level_waveform",
    "unpack_uint",
]
