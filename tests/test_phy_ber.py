"""Tests for repro.phy.ber: closed-form error-rate theory."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from repro.phy import ber


class TestQFunction:
    def test_q_of_zero_is_half(self):
        assert ber.qfunc(0.0) == pytest.approx(0.5)

    def test_q_is_decreasing(self):
        x = np.linspace(-3, 5, 50)
        q = ber.qfunc(x)
        assert np.all(np.diff(q) < 0)

    def test_known_value(self):
        # Q(1.6449) ~ 0.05
        assert ber.qfunc(1.6449) == pytest.approx(0.05, abs=1e-4)

    def test_inverse_roundtrip(self):
        for p in (0.4, 0.1, 1e-3, 1e-9):
            assert ber.qfunc(ber.qfunc_inv(p)) == pytest.approx(p, rel=1e-9)


class TestBerCurves:
    def test_all_decrease_with_snr(self):
        snr = np.linspace(-5, 25, 40)
        for fn in (ber.ber_ook_coherent, ber.ber_ook_noncoherent,
                   ber.ber_fsk_noncoherent, ber.ber_fsk_coherent,
                   ber.ber_bpsk):
            values = fn(snr)
            assert np.all(np.diff(values) < 0), fn.__name__

    def test_bpsk_best_then_fsk_then_ook(self):
        # At equal average SNR: BPSK < coherent FSK < coherent OOK.
        snr = 10.0
        assert ber.ber_bpsk(snr) < ber.ber_fsk_coherent(snr)
        assert ber.ber_fsk_coherent(snr) < ber.ber_ook_coherent(snr)

    def test_noncoherent_never_beats_coherent_ook(self):
        snr = np.linspace(-10, 30, 60)
        assert np.all(ber.ber_ook_noncoherent(snr) >= ber.ber_ook_coherent(snr) - 1e-15)

    def test_low_snr_limit_half(self):
        assert float(ber.ber_ook_coherent(-40.0)) == pytest.approx(0.5, abs=0.01)
        assert float(ber.ber_fsk_noncoherent(-40.0)) == pytest.approx(0.5, abs=0.01)

    def test_high_snr_vanishes(self):
        assert float(ber.ber_ook_coherent(30.0)) < 1e-100
        assert float(ber.ber_fsk_noncoherent(30.0)) < 1e-100

    def test_paper_operating_point(self):
        # Section 9.4: SNR >= 15 dB gives BER below 1e-8 under the
        # paper's ASK BER table convention.
        assert float(ber.ber_ask_table(15.0)) < 1e-8

    def test_paper_table_decreases(self):
        snr = np.linspace(-5, 25, 40)
        assert np.all(np.diff(ber.ber_ask_table(snr)) < 0)

    def test_paper_table_more_optimistic_than_textbook(self):
        assert ber.ber_ask_table(12.0) < ber.ber_ook_coherent(12.0)


class TestAskCoherent:
    def test_matches_ook_at_full_separation(self):
        snr = np.linspace(0, 20, 10)
        assert np.allclose(ber.ber_ask_coherent(snr),
                           ber.ber_ook_coherent(snr))

    def test_derating_raises_ber(self):
        assert (ber.ber_ask_coherent(10.0, separation_fraction=0.5)
                > ber.ber_ask_coherent(10.0, separation_fraction=1.0))

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            ber.ber_ask_coherent(10.0, separation_fraction=0.0)
        with pytest.raises(ValueError):
            ber.ber_ask_coherent(10.0, separation_fraction=1.5)


class TestSnrForTargetBer:
    def test_roundtrip_ook(self):
        snr = ber.snr_db_for_target_ber(1e-6, "ook")
        assert float(ber.ber_ook_coherent(snr)) == pytest.approx(1e-6, rel=1e-6)

    def test_roundtrip_fsk(self):
        snr = ber.snr_db_for_target_ber(1e-6, "fsk")
        assert float(ber.ber_fsk_noncoherent(snr)) == pytest.approx(1e-6, rel=1e-6)

    def test_roundtrip_bpsk(self):
        snr = ber.snr_db_for_target_ber(1e-6, "bpsk")
        assert float(ber.ber_bpsk(snr)) == pytest.approx(1e-6, rel=1e-6)

    def test_tighter_target_needs_more_snr(self):
        assert (ber.snr_db_for_target_ber(1e-9, "ook")
                > ber.snr_db_for_target_ber(1e-3, "ook"))

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            ber.snr_db_for_target_ber(0.6)

    def test_unknown_modulation(self):
        with pytest.raises(ValueError):
            ber.snr_db_for_target_ber(1e-3, "qam4096")


def _toward_zero(x: float) -> float:
    return math.nextafter(x, 0.0)


ERFC_EDGES = [
    0.0, -0.0, 1.0, -1.0, _toward_zero(1.0), _toward_zero(-1.0),
    8.0, -8.0, _toward_zero(8.0), _toward_zero(-8.0),
    26.6, -26.6, 27.3, -27.3, 38.5, -38.5, 1e200, -1e200,
    sys.float_info.max, -sys.float_info.max, 5e-324, -5e-324,
    math.inf, -math.inf, math.nan,
]
"""Signed zeros, the |x| = 1 and |x| = 8 branch edges from below,
both sides of sqrt(MAXLOG) ~ 26.64 where exp(-x^2) underflows, values
far past it, the largest and smallest magnitudes, infinities and NaN."""

_TAIL_EDGES = [2.0 * math.exp(-2.0), 2.0 * math.exp(-32.0),
               2.0 - 2.0 * math.exp(-2.0)]
ERFCINV_EDGES = [
    0.0, 2.0, 1.0, 5e-324, 2.0 - 2.0**-52,
    *(v for edge in _TAIL_EDGES
      for v in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, 2.0))),
    -0.0, -1e-300, -1.0, 2.0 + 2.0**-51, 3.0, 1e300,
    math.inf, -math.inf, math.nan,
]
"""The domain ends and centre, the smallest subnormal, the largest value
below 2, the ndtri branch edges y/2 = exp(-2), exp(-32) and 1 - exp(-2)
with their neighbours, and values outside [0, 2]."""


def _same_bits(got: float, want: float) -> bool:
    """Equal IEEE-754 bit patterns (any NaN matches any NaN)."""
    if math.isnan(want):
        return math.isnan(got)
    return float(got).hex() == float(want).hex()


def _assert_array_bits(got, want) -> None:
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def _q_oracle(x):
    return 0.5 * special.erfc(np.asarray(x, dtype=np.float64) / np.sqrt(2.0))


def _q_inv_oracle(p):
    doubled = 2.0 * np.asarray(p, dtype=np.float64)
    return np.sqrt(2.0) * special.erfcinv(doubled)


class TestKernelsMatchScipy:
    """The Cephes ports return scipy's bits, NaN for NaN."""

    @pytest.mark.parametrize("x", ERFC_EDGES, ids=repr)
    def test_erfc_edges(self, x):
        assert _same_bits(ber._erfc(x), special.erfc(x))

    @settings(max_examples=1000)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_erfc_all_finite_floats(self, x):
        assert _same_bits(ber._erfc(x), special.erfc(x))

    @settings(max_examples=1000)
    @given(st.floats(min_value=-30.0, max_value=30.0))
    def test_erfc_working_range(self, x):
        assert _same_bits(ber._erfc(x), special.erfc(x))

    @pytest.mark.parametrize("y", ERFCINV_EDGES, ids=repr)
    def test_erfcinv_edges(self, y):
        assert _same_bits(ber._erfcinv(y), special.erfcinv(y))

    @settings(max_examples=1000)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_erfcinv_all_finite_floats(self, y):
        assert _same_bits(ber._erfcinv(y), special.erfcinv(y))

    @settings(max_examples=1000)
    @given(st.floats(min_value=0.0, max_value=2.0))
    def test_erfcinv_domain(self, y):
        assert _same_bits(ber._erfcinv(y), special.erfcinv(y))


class TestQFunctionsMatchScipy:
    """qfunc/qfunc_inv return the direct scipy expressions bit for bit."""

    @pytest.mark.parametrize("x", ERFC_EDGES, ids=repr)
    def test_qfunc_scalars(self, x):
        want = float(_q_oracle(x))
        assert _same_bits(ber.qfunc(x), want)
        assert _same_bits(ber.qfunc(np.float64(x)), want)

    @pytest.mark.parametrize("p", ERFCINV_EDGES, ids=repr)
    def test_qfunc_inv_scalars(self, p):
        want = float(_q_inv_oracle(p))
        assert _same_bits(ber.qfunc_inv(p), want)
        assert _same_bits(ber.qfunc_inv(np.float64(p)), want)

    @given(st.floats())
    def test_qfunc_float_and_array_paths(self, x):
        want = _q_oracle(x)
        assert _same_bits(ber.qfunc(x), want)
        _assert_array_bits(ber.qfunc(np.array([x])), want.reshape(1))

    # 2p overflows past DBL_MAX / 2, and numpy warns about it.
    @pytest.mark.filterwarnings(
        "ignore:overflow encountered in multiply:RuntimeWarning")
    @given(st.floats())
    def test_qfunc_inv_float_and_array_paths(self, p):
        want = _q_inv_oracle(p)
        assert _same_bits(ber.qfunc_inv(p), want)
        _assert_array_bits(ber.qfunc_inv(np.array([p])), want.reshape(1))

    def test_arrays(self):
        x = np.concatenate([np.linspace(-8.0, 40.0, 4001),
                            ERFC_EDGES]).reshape(2, -1)
        p = np.concatenate([np.linspace(1e-12, 0.999, 5001),
                            np.array(ERFCINV_EDGES) / 2.0])
        _assert_array_bits(ber.qfunc(x), _q_oracle(x))
        _assert_array_bits(ber.qfunc_inv(p), _q_inv_oracle(p))
        ints = [0, 1, 3]
        _assert_array_bits(ber.qfunc(ints), _q_oracle(ints))


class TestQFunctionTypes:
    @pytest.mark.parametrize("value", [2.5, 3, np.float64(0.25)],
                             ids=["float", "int", "np.float64"])
    def test_scalars_return_python_floats(self, value):
        assert type(ber.qfunc(value)) is float
        assert type(ber.qfunc_inv(value / 10)) is float

    def test_arrays_keep_shape_as_float64(self):
        for fn in (ber.qfunc, ber.qfunc_inv):
            out = fn(np.full((2, 3), 0.25, dtype=np.float32))
            assert isinstance(out, np.ndarray)
            assert out.dtype == np.float64 and out.shape == (2, 3)
            assert fn(np.empty((0, 4))).shape == (0, 4)

    def test_zero_d_array_gives_numpy_scalar(self):
        assert type(ber.qfunc(np.asarray(1.0))) is np.float64
        assert type(ber.qfunc_inv(np.asarray(0.25))) is np.float64
