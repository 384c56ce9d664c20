"""The tone bank runs in numpy's own loop and decides the same bits.

:func:`repro.phy.goertzel.goertzel_block_powers` sums each block against
its tones with ``np.einsum``, which calls no BLAS.  The BLAS matrix
product it replaces (``tests/phy_reference.py``) sums in another order,
so the two agree within a rounding bound, not bit for bit; the
demodulator must still decide every bit, branch and polarity the same.
A fresh interpreter per OpenBLAS core checks that the powers' bits no
longer depend on the BLAS kernel picked for the host.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.demodulator as demodulator_module
from repro.core.link import facing_link
from repro.energy.backscatter import BackscatterLink
from repro.energy.classes import BACKSCATTER_CLASS, node_class
from repro.phy.goertzel import goertzel_block_powers
from repro.phy.preamble import default_preamble_bits
from repro.phy.waveform import two_level_waveform
from repro.sim.mobility import los_blocker_between

from .phy_reference import (
    reference_backscatter_received_with_noise,
    reference_goertzel_block_powers,
    reference_otam_received_with_noise,
)
from .test_cold_start import _fresh_python

BIT_RATE_BPS = 1e6
EPS = float(np.finfo(np.float64).eps)

_frequencies = st.one_of(
    st.sampled_from([0.0, 1.25e5, -1.25e5, 2.5e5, -2.5e5, 5e5, -5e5]),
    st.floats(-4e6, 4e6, allow_nan=False))


@st.composite
def _captures(draw):
    """A keyed or noise capture, its block length and 1-3 tones."""
    sps = draw(st.sampled_from([2, 4, 8, 16]))
    num_blocks = draw(st.integers(0, 600))
    trailing = draw(st.integers(0, sps - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-6, 6))
    tones = draw(st.lists(_frequencies, min_size=1, max_size=3))
    n = num_blocks * sps + trailing
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if draw(st.booleans()):
        # FSK-keyed like the demodulator's input: one tone per bit, the
        # bank's first two tones as f0 and f1 (a lone tone and its mirror).
        f0 = tones[0]
        f1 = tones[1] if len(tones) > 1 else -tones[0]
        bits = rng.integers(0, 2, num_blocks + (trailing > 0))
        keyed = two_level_waveform(bits, BIT_RATE_BPS, sps * BIT_RATE_BPS,
                                   1.0, 0.4 + 0.2j, f1, f0).samples[:n]
        snr = 10.0 ** (draw(st.integers(-10, 30)) / 20.0)
        x = keyed * snr + noise
    else:
        x = noise
    return x * scale, sps, tones


def _rounding_bound(samples: np.ndarray, block_size: int) -> np.ndarray:
    """Per-block bound on how far two summation orders' powers may differ.

    With ``S = Σ|x|`` over the block's ``n`` samples and unit tones, the
    real and imaginary part of a bin are each a sum of ``2n`` products,
    so any summation order lands within ``γ₂ₙ·S`` of the exact sum on
    each part, and two orders within ``2√2·γ₂ₙ·S ≈ 2√2·n·ε·S`` of each
    other.  Squaring a magnitude of at most ``S`` doubles that relative
    to ``S²``; ``abs``, the square and the division add a few ulps more.
    ``8·(n + 1)·ε·(S/n)²`` covers ``(4√2·n + 6)·ε·(S/n)²``.
    """
    num_blocks = samples.size // block_size
    blocks = samples[: num_blocks * block_size].reshape(num_blocks,
                                                        block_size)
    mean_magnitude = np.abs(blocks).sum(axis=1) / block_size
    return 8.0 * (block_size + 1) * EPS * mean_magnitude ** 2


class TestAgainstBlasReference:
    @settings(max_examples=200, deadline=None)
    @given(capture=_captures())
    @example(capture=(np.ones(7, dtype=complex), 8, [0.0, -5e5]))
    def test_powers_within_rounding_bound(self, capture):
        x, sps, tones = capture
        fs = sps * BIT_RATE_BPS
        fast = goertzel_block_powers(x, sps, tones, fs)
        ref = reference_goertzel_block_powers(x, sps, tones, fs)
        assert fast.dtype == np.float64
        assert fast.shape == ref.shape == (x.size // sps, len(tones))
        bound = _rounding_bound(x, sps)[:, None]
        assert np.all(np.abs(fast - ref) <= bound)
        if len(tones) > 1:
            # The FSK decision: wherever the contrast clears the bound on
            # both powers, both banks pick the same tone.
            contrast = fast[:, 1] - fast[:, 0]
            ref_contrast = ref[:, 1] - ref[:, 0]
            clear = np.abs(ref_contrast) > 2.0 * bound[:, 0]
            assert np.array_equal(contrast[clear] > 0,
                                  ref_contrast[clear] > 0)


_PAYLOAD_BITS = 20_000


def _payload(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.concatenate([default_preamble_bits(),
                           rng.integers(0, 2, _PAYLOAD_BITS, dtype=np.uint8)])


def _otam_capture(use_otam: bool = True, blocked: bool = False):
    link = facing_link(4.0)
    if blocked:
        placement = link.placement
        link.room.add_blocker(los_blocker_between(placement.node_position,
                                                  placement.ap_position))
    wave = reference_otam_received_with_noise(
        link, _payload(7), rng=np.random.default_rng(8), use_otam=use_otam)
    return link.demodulator, wave


def _tag_capture():
    tag = BackscatterLink(downlink_m=1.0, spec=node_class(BACKSCATTER_CLASS))
    wave = reference_backscatter_received_with_noise(
        tag, _payload(7), np.random.default_rng(8))
    return tag.demodulator, wave


def _fsk_bits(demod, wave) -> np.ndarray:
    """The FSK branch's decisions: the stronger of the two tones."""
    powers = demod.fsk_tone_powers(wave)
    return (powers[:, 1] - powers[:, 0] > 0.0).astype(np.uint8)


class TestDemodulatorDecisions:
    """20,000-bit captures decode the same under either bank."""

    @pytest.mark.parametrize("capture", [
        pytest.param(lambda: _otam_capture(), id="otam"),
        pytest.param(lambda: _otam_capture(use_otam=False), id="without-otam"),
        pytest.param(lambda: _otam_capture(blocked=True), id="blocked-los"),
        pytest.param(_tag_capture, id="tag"),
    ])
    def test_same_bits_branch_and_polarity(self, capture, monkeypatch):
        demod, wave = capture()
        fast = demod.demodulate(wave)
        fast_fsk = _fsk_bits(demod, wave)
        monkeypatch.setattr(demodulator_module, "goertzel_block_powers",
                            reference_goertzel_block_powers)
        ref = demod.demodulate(wave)
        ref_fsk = _fsk_bits(demod, wave)
        assert np.array_equal(fast.bits, ref.bits)
        assert np.array_equal(fast_fsk, ref_fsk)
        assert fast.branch == ref.branch
        assert fast.inverted == ref.inverted
        assert fast.preamble_found == ref.preamble_found
        assert fast.fsk_snr_db == pytest.approx(ref.fsk_snr_db, rel=1e-12)


_POWERS_DIGEST = """\
import hashlib
import numpy as np
from repro.channel.noise import complex_awgn
from repro.core.link import facing_link
from repro.phy.preamble import default_preamble_bits
bits = np.concatenate([default_preamble_bits(),
                       np.random.default_rng(0).integers(0, 2, 2000)])
link = facing_link(4.0)
wave = link.modulator.received_waveform(bits, link.channel_response())
complex_awgn(wave.samples, -100.0, np.random.default_rng(1))
powers = link.demodulator.fsk_tone_powers(wave)
print(hashlib.sha256(powers.tobytes()).hexdigest())
"""


def test_powers_do_not_depend_on_the_blas_core(monkeypatch):
    # OpenBLAS picks its kernel per CPU at load time and reads
    # OPENBLAS_CORETYPE to override it; another BLAS ignores the variable.
    digests = []
    for coretype in ("Haswell", "Prescott"):
        monkeypatch.setenv("OPENBLAS_CORETYPE", coretype)
        digests.append(_fresh_python("-c", _POWERS_DIGEST).stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]
