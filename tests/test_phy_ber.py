"""Tests for repro.phy.ber: closed-form error-rate theory."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from repro.phy import ber
from repro.units import db_to_linear


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


class TestBerCurves:
    def test_all_decrease_with_snr(self):
        snr = np.linspace(-5, 25, 40)
        for fn in (ber.ber_ask_table, ber.ber_fsk_noncoherent):
            values = fn(snr)
            assert np.all(np.diff(values) < 0), fn.__name__

    def test_low_snr_limit_half(self):
        assert float(ber.ber_ask_table(-40.0)) == pytest.approx(0.5, abs=0.01)
        assert float(ber.ber_fsk_noncoherent(-40.0)) == pytest.approx(0.5, abs=0.01)

    def test_high_snr_vanishes(self):
        assert float(ber.ber_ask_table(30.0)) < 1e-100
        assert float(ber.ber_fsk_noncoherent(30.0)) < 1e-100

    def test_paper_operating_point(self):
        # Section 9.4: SNR >= 15 dB gives BER below 1e-8 under the
        # paper's ASK BER table convention.
        assert float(ber.ber_ask_table(15.0)) < 1e-8

    def test_paper_table_decreases(self):
        snr = np.linspace(-5, 25, 40)
        assert np.all(np.diff(ber.ber_ask_table(snr)) < 0)

    def test_paper_table_more_optimistic_than_textbook(self):
        # Textbook coherent OOK at average SNR gamma is Q(sqrt(gamma / 2)).
        textbook = ber.qfunc(math.sqrt(db_to_linear(12.0) / 2.0))
        assert ber.ber_ask_table(12.0) < textbook


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


class TestKernelsMatchScipy:
    """The Cephes port returns scipy's bits, NaN for NaN."""

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


class TestQFunctionsMatchScipy:
    """qfunc returns the direct scipy expression bit for bit."""

    @pytest.mark.parametrize("x", ERFC_EDGES, ids=repr)
    def test_qfunc_scalars(self, x):
        want = float(_q_oracle(x))
        assert _same_bits(ber.qfunc(x), want)
        assert _same_bits(ber.qfunc(np.float64(x)), want)

    @given(st.floats())
    def test_qfunc_float_and_array_paths(self, x):
        want = _q_oracle(x)
        assert _same_bits(ber.qfunc(x), want)
        _assert_array_bits(ber.qfunc(np.array([x])), want.reshape(1))

    def test_arrays(self):
        x = np.concatenate([np.linspace(-8.0, 40.0, 4001),
                            ERFC_EDGES]).reshape(2, -1)
        _assert_array_bits(ber.qfunc(x), _q_oracle(x))
        ints = [0, 1, 3]
        _assert_array_bits(ber.qfunc(ints), _q_oracle(ints))


class TestQFunctionTypes:
    @pytest.mark.parametrize("value", [2.5, 3, np.float64(0.25)],
                             ids=["float", "int", "np.float64"])
    def test_scalars_return_python_floats(self, value):
        assert type(ber.qfunc(value)) is float

    def test_arrays_keep_shape_as_float64(self):
        out = ber.qfunc(np.full((2, 3), 0.25, dtype=np.float32))
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.float64 and out.shape == (2, 3)
        assert ber.qfunc(np.empty((0, 4))).shape == (0, 4)

    def test_zero_d_array_gives_numpy_scalar(self):
        assert type(ber.qfunc(np.asarray(1.0))) is np.float64
