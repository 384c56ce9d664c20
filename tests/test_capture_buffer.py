"""One buffer per capture: the in-place capture path changes no bit.

:func:`repro.phy.waveform.two_level_waveform` builds the capture in one
complex buffer, :func:`repro.channel.noise.complex_awgn` adds its noise to
that buffer, and :func:`repro.phy.preamble.correlate_preamble` squares its
windows in row blocks.  ``tests/phy_reference.py`` keeps the array forms
they replace.  Synthesis must equal the reference with its multiply order
written out at every length, and the old code bit for bit from numpy's
elision threshold up; noise and correlation must equal the reference
everywhere.  A ``tracemalloc`` bound keeps the full-length temporaries
from coming back.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.multipath import ChannelResponse
from repro.channel.noise import complex_awgn
from repro.core.link import facing_link
from repro.core.otam import transmitted_beam_bits
from repro.energy.backscatter import BackscatterLink
from repro.energy.classes import BACKSCATTER_CLASS, node_class
from repro.phy.preamble import BARKER13, correlate_preamble, default_preamble_bits
from repro.phy.waveform import two_level_waveform

from .phy_reference import (
    ELISION_MIN_SAMPLES,
    reference_backscatter_received_with_noise,
    reference_complex_awgn,
    reference_correlate_preamble,
    reference_otam_received_with_noise,
    reference_two_level_waveform,
    reference_two_level_waveform_ordered,
)

BIT_RATE_BPS = 1e6

_amplitudes = st.one_of(
    st.sampled_from([0.0, 1.0, -0.5, 1j, 0.3 - 0.7j]),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                       allow_infinity=False),
    st.floats(-1e3, 1e3))
_tones = st.sampled_from([0.0, 2.5e5, -2.5e5, 5e5, 1.25e5])


@st.composite
def _waveform_args(draw):
    """Bits and keying for a capture on either side of the threshold."""
    sps = draw(st.sampled_from([2, 4, 8, 16]))
    threshold_bits = -(-ELISION_MIN_SAMPLES // sps)
    if draw(st.booleans()):
        num_bits = draw(st.integers(0, threshold_bits - 1))
    else:
        num_bits = draw(st.integers(threshold_bits, 2 * threshold_bits))
    pattern = draw(st.sampled_from(["random", "zeros", "ones"]))
    if pattern == "random":
        seed = draw(st.integers(0, 2**32 - 1))
        bits = np.random.default_rng(seed).integers(0, 2, num_bits)
    else:
        bits = np.full(num_bits, int(pattern == "ones"))
    amp_one = draw(_amplitudes)
    amp_zero = amp_one if draw(st.booleans()) else draw(_amplitudes)
    freq_one = draw(_tones)
    freq_zero = freq_one if draw(st.booleans()) else draw(_tones)
    return (bits.astype(np.uint8), BIT_RATE_BPS, sps * BIT_RATE_BPS,
            amp_one, amp_zero, freq_one, freq_zero)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


class TestSynthesis:
    @settings(max_examples=150, deadline=None)
    @given(args=_waveform_args())
    def test_matches_reference(self, args):
        fast = two_level_waveform(*args).samples
        ordered = reference_two_level_waveform_ordered(*args).samples
        assert _same_bits(fast, ordered)
        if fast.size >= ELISION_MIN_SAMPLES:
            assert _same_bits(fast, reference_two_level_waveform(*args).samples)

    @settings(max_examples=100, deadline=None)
    @given(args=_waveform_args(), cut=st.floats(0.0, 1.0))
    def test_prefix_is_a_prefix(self, args, cut):
        # A sample's bits depend on the bits before it, never on how
        # long the capture runs on.
        bits, bit_rate, rate = args[0], args[1], args[2]
        m = int(cut * bits.size)
        sps = int(round(rate / bit_rate))
        whole = two_level_waveform(*args).samples
        head = two_level_waveform(bits[:m], *args[1:]).samples
        assert _same_bits(head, whole[:m * sps])

    def test_empty_capture(self):
        wave = two_level_waveform([], BIT_RATE_BPS, 8e6, 1.0, 0.5)
        assert wave.samples.shape == (0,)
        assert wave.samples.dtype == np.complex128


class TestNoise:
    @pytest.mark.parametrize("n", [0, 1, 7, 4096, ELISION_MIN_SAMPLES + 3])
    @pytest.mark.parametrize("power_dbm", [-90.0, 0.0, 13.5])
    def test_in_place_equals_clean_plus_noise(self, n, power_dbm):
        clean = np.exp(1j * np.arange(n) / 7.0) * (0.3 - 0.1j)
        expected = clean + reference_complex_awgn(
            n, power_dbm, np.random.default_rng(n))
        capture = clean.copy()
        got = complex_awgn(capture, power_dbm, np.random.default_rng(n))
        assert got is capture
        assert _same_bits(got, expected)

    def test_stream_is_left_where_the_reference_leaves_it(self):
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        complex_awgn(np.zeros(100, complex), 0.0, a)
        reference_complex_awgn(100, 0.0, b)
        assert a.standard_normal() == b.standard_normal()


_PAYLOAD_SIZES = [1, 400, 2000]


def _payload(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.concatenate([default_preamble_bits(),
                           rng.integers(0, 2, n, dtype=np.uint8)])


class TestReceivedWithNoise:
    @pytest.mark.parametrize("num_bits", _PAYLOAD_SIZES)
    @pytest.mark.parametrize("use_otam", [True, False])
    def test_otam_link(self, num_bits, use_otam):
        link = facing_link(4.0)
        bits = _payload(num_bits, num_bits)
        got = link.received_with_noise(
            bits, rng=np.random.default_rng(1), use_otam=use_otam)
        want = reference_otam_received_with_noise(
            link, bits, rng=np.random.default_rng(1), use_otam=use_otam)
        assert _same_bits(got.samples, want.samples)
        assert got.sample_rate_hz == want.sample_rate_hz

    def test_otam_link_blocked_channel(self):
        link = facing_link(4.0)
        bits = _payload(300, 9)
        channel = ChannelResponse(h1=1e-4, h0=3e-4 + 1e-4j, paths=())
        got = link.received_with_noise(bits, channel,
                                       rng=np.random.default_rng(2))
        want = reference_otam_received_with_noise(
            link, bits, channel, rng=np.random.default_rng(2))
        assert _same_bits(got.samples, want.samples)

    @pytest.mark.parametrize("num_bits", _PAYLOAD_SIZES)
    def test_backscatter_link(self, num_bits):
        tag = BackscatterLink(downlink_m=1.0,
                              spec=node_class(BACKSCATTER_CLASS))
        bits = _payload(num_bits, num_bits)
        got = tag.received_with_noise(bits, np.random.default_rng(1))
        want = reference_backscatter_received_with_noise(
            tag, bits, np.random.default_rng(1))
        assert _same_bits(got.samples, want.samples)


@st.composite
def _soft_streams(draw):
    """Soft values with exact zeros, so some windows have zero norm."""
    n = draw(st.integers(0, 4200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gauss", "bipolar", "sparse"]))
    if kind == "gauss":
        x = rng.normal(size=n) * 10.0 ** draw(st.integers(-3, 3))
    elif kind == "bipolar":
        x = 2.0 * rng.integers(0, 2, n) - 1.0
    else:
        x = rng.normal(size=n) * (rng.random(n) < 0.05)
    if n and draw(st.booleans()):
        start = draw(st.integers(0, n - 1))
        x[start:start + draw(st.integers(1, 300))] = 0.0
    return x


class TestCorrelation:
    @settings(max_examples=150, deadline=None)
    @given(soft=_soft_streams(),
           preamble=st.sampled_from([BARKER13, default_preamble_bits(),
                                     default_preamble_bits(3),
                                     np.array([1], dtype=np.uint8)]))
    def test_matches_reference(self, soft, preamble):
        assert _same_bits(correlate_preamble(soft, preamble),
                          reference_correlate_preamble(soft, preamble))

    # Window counts around the block edges, a one-window stream, and the
    # 20,001 windows of a 20,026-bit capture.
    @pytest.mark.parametrize("windows", [1, 2, 1023, 1024, 1025, 2049,
                                         3073, 20_001])
    def test_block_edges(self, windows):
        preamble = default_preamble_bits()
        rng = np.random.default_rng(windows)
        n = windows + preamble.size - 1
        # Magnitudes over 16 decades, so a window's sum shows its order
        # in the last bit.
        soft = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, size=n)
        soft[100:160] = 0.0
        assert _same_bits(correlate_preamble(soft, preamble),
                          reference_correlate_preamble(soft, preamble))


class TestPeakMemory:
    """One transmission at 20,000 payload bits stays under 2x its capture.

    The array forms held four captures' worth at their peak.
    """

    @staticmethod
    def _peak_bytes(transmit) -> int:
        transmit()  # warm caches (channel trace, imports) untraced
        tracemalloc.start()
        try:
            transmit()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_active_node(self):
        link = facing_link(4.0)
        bits = _payload(20_000, 0)
        capture = (transmitted_beam_bits(bits).size
                   * link.config.samples_per_bit * 16)
        peak = self._peak_bytes(lambda: link.simulate_transmission(
            bits, rng=np.random.default_rng(0)))
        assert peak <= 2 * capture, f"peak {peak / capture:.2f}x capture"

    def test_backscatter_tag(self):
        tag = BackscatterLink(downlink_m=1.0,
                              spec=node_class(BACKSCATTER_CLASS))
        bits = _payload(20_000, 0)
        capture = (transmitted_beam_bits(bits).size
                   * tag.config.samples_per_bit * 16)
        peak = self._peak_bytes(lambda: tag.simulate_transmission(
            bits, np.random.default_rng(0)))
        assert peak <= 2 * capture, f"peak {peak / capture:.2f}x capture"
