"""One buffer per capture, one block at a time: the capture path changes no bit.

:func:`repro.phy.waveform.synthesize_block` builds a capture in place,
block by block, carrying the phase sum across blocks;
:class:`repro.channel.noise.CaptureNoise` adds its noise block by block;
``simulate_transmission`` streams a burst through both and the
demodulator's per-bit observables, and decides once.  Their one-block
cases are :func:`~repro.phy.waveform.two_level_waveform`,
:func:`~repro.channel.noise.complex_awgn` and
:meth:`~repro.core.demodulator.JointDemodulator.demodulate`.
:func:`repro.phy.preamble.correlate_preamble` squares its windows in row
blocks.  ``tests/phy_reference.py`` keeps the array forms they replace.
Synthesis must equal the reference with its multiply order written out at
every length, and the old code bit for bit from numpy's elision threshold
up; noise and correlation must equal the reference everywhere; any cut
into blocks must equal the one-block capture; and a streamed transmission
must decode exactly as ``demodulate`` decodes the reference's whole
capture.  A ``tracemalloc`` bound keeps full-length captures from coming
back.
"""

import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.multipath import ChannelResponse
from repro.channel.noise import CaptureNoise, complex_awgn, noise_power_dbm
from repro.core.ask_fsk import AskFskConfig
from repro.core.demodulator import JointDemodulator
from repro.core.link import CAPTURE_BLOCK_BITS, facing_link
from repro.core.otam import transmitted_beam_bits
from repro.energy.backscatter import BackscatterLink
from repro.energy.classes import BACKSCATTER_CLASS, node_class
from repro.phy.preamble import BARKER13, correlate_preamble, default_preamble_bits
from repro.phy.waveform import (
    Keying,
    Waveform,
    synthesize_block,
    two_level_waveform,
)

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


def _assert_same_report(report, want, bits):
    """``report`` decodes ``bits`` exactly as ``want`` (a whole-capture
    :class:`DemodResult`) did, and counts its errors against it."""
    got = report.demod
    assert _same_bits(got.bits, want.bits)
    assert got.branch == want.branch
    assert repr(got.ask_snr_db) == repr(want.ask_snr_db)
    assert repr(got.fsk_snr_db) == repr(want.fsk_snr_db)
    assert (got.inverted, got.preamble_found) == (want.inverted,
                                                  want.preamble_found)
    errors = int(np.count_nonzero(bits != want.bits))
    assert (report.bit_errors, report.ber, report.num_bits) == (
        errors, errors / bits.size, bits.size)


class TestReceivedWithNoise:
    """A streamed transmission decodes as ``demodulate`` decodes the
    reference's whole ``received_with_noise`` capture."""

    @pytest.mark.parametrize("num_bits", _PAYLOAD_SIZES)
    @pytest.mark.parametrize("use_otam", [True, False])
    def test_otam_link(self, num_bits, use_otam):
        link = facing_link(4.0)
        bits = _payload(num_bits, num_bits)
        a, b = np.random.default_rng(1), np.random.default_rng(1)
        got = link.simulate_transmission(bits, rng=a, use_otam=use_otam)
        want = reference_otam_received_with_noise(link, bits, rng=b,
                                                  use_otam=use_otam)
        _assert_same_report(got, link.demodulator.demodulate(want), bits)
        assert a.bit_generator.state == b.bit_generator.state

    def test_otam_link_blocked_channel(self):
        link = facing_link(4.0)
        bits = _payload(300, 9)
        channel = ChannelResponse(h1=1e-4, h0=3e-4 + 1e-4j, paths=())
        a, b = np.random.default_rng(2), np.random.default_rng(2)
        got = link.simulate_transmission(bits, channel, rng=a)
        want = reference_otam_received_with_noise(link, bits, channel, rng=b)
        _assert_same_report(got, link.demodulator.demodulate(want), bits)
        assert got.demod.inverted
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("num_bits", _PAYLOAD_SIZES)
    def test_backscatter_link(self, num_bits):
        tag = BackscatterLink(downlink_m=1.0,
                              spec=node_class(BACKSCATTER_CLASS))
        bits = _payload(num_bits, num_bits)
        a, b = np.random.default_rng(1), np.random.default_rng(1)
        got = tag.simulate_transmission(bits, a)
        want = reference_backscatter_received_with_noise(tag, bits, b)
        _assert_same_report(got, tag.demodulator.demodulate(want), bits)
        assert a.bit_generator.state == b.bit_generator.state


@dataclass(frozen=True)
class _Receiver:
    """An AP front end reduced to the one figure the links read."""

    cascade_noise_figure_db: float


def _receiver(noise_dbm: float, sample_rate_hz: float) -> _Receiver:
    """A front end whose noise over ``sample_rate_hz`` is ``noise_dbm``."""
    return _Receiver(noise_dbm - noise_power_dbm(sample_rate_hz))


_BLOCK = CAPTURE_BLOCK_BITS
_STREAM_BIT_COUNTS = [1, 2, 25, 26, 27, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                      2 * _BLOCK, 2 * _BLOCK + 1, 3 * _BLOCK - 1, 3 * _BLOCK,
                      4 * _BLOCK + 7]
# From a noiseless front end to noise at or above every link's signal.
_NOISE_DBM = [-math.inf, -300.0, -200.0, -150.0, -120.0, -100.0, -85.0,
              -70.0]
_CHANNELS = [None,  # the facing link's traced channel
             ChannelResponse(h1=1e-4, h0=3e-4 + 1e-4j, paths=()),
             ChannelResponse(h1=2e-4, h0=2e-4j, paths=()),
             ChannelResponse(h1=0.0, h0=1e-4, paths=()),
             ChannelResponse(h1=1e-4, h0=0.0, paths=())]


@st.composite
def _stream_cases(draw):
    """A link kind, its bits and channel, its receiver noise and a seed."""
    num_bits = draw(st.one_of(st.sampled_from(_STREAM_BIT_COUNTS),
                              st.integers(1, 5 * _BLOCK)))
    pattern = draw(st.sampled_from(["framed", "random", "zeros", "ones"]))
    if pattern in ("framed", "random"):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        bits = rng.integers(0, 2, num_bits, dtype=np.uint8)
        if pattern == "framed":
            preamble = default_preamble_bits()[:num_bits]
            bits[:preamble.size] = preamble
    else:
        bits = np.full(num_bits, int(pattern == "ones"), dtype=np.uint8)
    return (draw(st.sampled_from(["otam", "without-otam", "tag"])), bits,
            draw(st.sampled_from(_CHANNELS)),
            draw(st.sampled_from([0.3, 1.0, 4.0])),
            draw(st.sampled_from(_NOISE_DBM)),
            draw(st.integers(0, 2**32 - 1)))


class TestStream:
    """The streamed path against the whole-capture reference, over link
    kinds, bit counts around the block edges and noise levels."""

    @settings(max_examples=150, deadline=None)
    @given(case=_stream_cases())
    def test_matches_whole_capture(self, case):
        kind, bits, channel, tag_distance_m, noise_dbm, seed = case
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        if kind == "tag":
            node = BackscatterLink(downlink_m=tag_distance_m,
                                   spec=node_class(BACKSCATTER_CLASS))
            node.ap_hardware = _receiver(noise_dbm,
                                         node.config.sample_rate_hz)
            got = node.simulate_transmission(bits, a)
            want = reference_backscatter_received_with_noise(node, bits, b)
        else:
            node = facing_link(4.0)
            node.ap_hardware = _receiver(noise_dbm,
                                         node.config.sample_rate_hz)
            use_otam = kind == "otam"
            got = node.simulate_transmission(bits, channel, a, use_otam)
            want = reference_otam_received_with_noise(node, bits, channel,
                                                      b, use_otam)
        _assert_same_report(got, node.demodulator.demodulate(want), bits)
        assert a.bit_generator.state == b.bit_generator.state

    def test_empty_burst_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            facing_link(4.0).simulate_transmission([])
        with pytest.raises(ValueError, match="empty"):
            BackscatterLink(downlink_m=1.0).simulate_transmission([])


def _blockwise_capture(bits, sps, sample_rate_hz, keying, power_dbm, rng,
                       block_bits):
    """A capture synthesised and noised ``block_bits`` bits at a time."""
    capture = np.empty(bits.size * sps, dtype=np.complex128)
    noise = CaptureNoise(capture.size, power_dbm, rng)
    tone_sum = 0.0
    for start in range(0, bits.size, block_bits):
        block = capture[start * sps:(start + block_bits) * sps]
        tone_sum = synthesize_block(block, bits[start:start + block_bits],
                                    sps, sample_rate_hz, keying, tone_sum)
        noise.add(block)
    return capture


@st.composite
def _block_cases(draw):
    """Keyed bits and a block size, at most ~600 blocks per capture."""
    bits, bit_rate, rate, *keying = draw(_waveform_args())
    bits = bits[:draw(st.integers(1, 5000))] if bits.size \
        else np.ones(1, dtype=np.uint8)
    block_bits = draw(st.one_of(
        st.integers(max(1, bits.size // 600), 5000),
        st.sampled_from([bits.size, bits.size + 1,
                         max(1, bits.size - 1)])))
    return bits, bit_rate, rate, Keying(*keying), block_bits


class TestBlocks:
    """Any cut of a capture into blocks gives the one-block capture."""

    @staticmethod
    def _check(bits, bit_rate, rate, keying, block_bits, power_dbm, seed):
        sps = int(round(rate / bit_rate))
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        whole = complex_awgn(
            two_level_waveform(bits, bit_rate, rate, *keying).samples,
            power_dbm, a)
        blocks = _blockwise_capture(bits, sps, rate, keying, power_dbm, b,
                                    block_bits)
        assert _same_bits(blocks, whole)
        assert a.bit_generator.state == b.bit_generator.state
        # The demodulator's observables are per bit, so per block too.
        demod = JointDemodulator(AskFskConfig(bit_rate, rate,
                                              fsk_deviation_hz=bit_rate / 4))
        cuts = range(0, whole.size, block_bits * sps)
        parts = [Waveform(blocks[i:i + block_bits * sps], rate) for i in cuts]
        wave = Waveform(whole, rate)
        assert _same_bits(
            np.concatenate([demod.ask_soft_values(w) for w in parts]),
            demod.ask_soft_values(wave))
        assert _same_bits(
            np.concatenate([demod.fsk_tone_powers(w) for w in parts]),
            demod.fsk_tone_powers(wave))

    @settings(max_examples=200, deadline=None)
    @given(case=_block_cases(),
           power_dbm=st.sampled_from([-math.inf, -300.0, -60.0, 0.0, 20.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_any_cut_matches_one_block(self, case, power_dbm, seed):
        self._check(*case, power_dbm, seed)

    # Block sizes that divide the burst and ones that leave a short
    # last block, from one bit per block to one block per burst.
    @pytest.mark.parametrize("num_bits,block_bits", [
        (1, 1), (1, 1024), (7, 1), (7, 3), (7, 7), (1000, 1), (1000, 8),
        (1000, 7), (1024, 1024), (1024, 1023), (1025, 1024), (2048, 1024),
        (2049, 1024), (3000, 1000), (3000, 1024), (5003, 5000),
        (20_026, 1024)])
    @pytest.mark.parametrize("sps", [8, 16])
    def test_block_edges(self, num_bits, block_bits, sps):
        bits = np.random.default_rng(num_bits).integers(0, 2, num_bits,
                                                        dtype=np.uint8)
        keying = Keying(0.3 - 0.7j, 1e-3 + 2e-3j, 5e5, -5e5)
        self._check(bits, BIT_RATE_BPS, sps * BIT_RATE_BPS, keying,
                    block_bits, -70.0, num_bits)


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
    """One transmission at 20,000 payload bits stays under 0.9x its capture.

    The array forms held four captures' worth at their peak, the one
    whole buffer 1.5x.  A streamed capture keeps only its I noise draws
    (half a capture) at full length, so a full-length complex128 array
    anywhere on the path breaks the bound.
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
        assert peak < 0.9 * capture, f"peak {peak / capture:.2f}x capture"

    def test_backscatter_tag(self):
        tag = BackscatterLink(downlink_m=1.0,
                              spec=node_class(BACKSCATTER_CLASS))
        bits = _payload(20_000, 0)
        capture = (transmitted_beam_bits(bits).size
                   * tag.config.samples_per_bit * 16)
        peak = self._peak_bytes(lambda: tag.simulate_transmission(
            bits, np.random.default_rng(0)))
        assert peak < 0.9 * capture, f"peak {peak / capture:.2f}x capture"
