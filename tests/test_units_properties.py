"""Property-based tests (hypothesis) for :mod:`repro.units` edge cases.

``repro.units`` is the repo's single conversion authority (reprolint's
UNITS002 forbids hand-rolled ``10**(x/10)`` anywhere else), so its
round-trip identities and edge behaviour — zeros mapping to ``-inf`` dB,
negative amplitudes folding to magnitude, scalar/array parity — are load
bearing for every link-budget computation downstream.
"""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import units

finite_db = st.floats(min_value=-300.0, max_value=300.0,
                      allow_nan=False, allow_infinity=False)
positive_linear = st.floats(min_value=1e-30, max_value=1e30,
                            allow_nan=False, allow_infinity=False)
db_arrays = st.lists(finite_db, min_size=1, max_size=16)


class TestScalarRoundTrips:
    @given(finite_db)
    def test_db_linear_db(self, db):
        assert float(units.linear_to_db(units.db_to_linear(db))) == \
            pytest.approx(db, abs=1e-9)

    @given(positive_linear)
    def test_linear_db_linear(self, ratio):
        assert float(units.db_to_linear(units.linear_to_db(ratio))) == \
            pytest.approx(ratio, rel=1e-9)

    @given(finite_db)
    def test_dbm_milliwatts_dbm(self, dbm):
        assert float(units.milliwatts_to_dbm(units.dbm_to_milliwatts(dbm))) \
            == pytest.approx(dbm, abs=1e-9)

    @given(finite_db)
    def test_dbm_watts_dbm(self, dbm):
        assert float(units.watts_to_dbm(units.dbm_to_watts(dbm))) == \
            pytest.approx(dbm, abs=1e-9)

    @given(finite_db)
    def test_db_amplitude_db(self, db):
        assert float(units.amplitude_to_db(units.db_to_amplitude(db))) == \
            pytest.approx(db, abs=1e-9)

    @given(positive_linear)
    def test_amplitude_db_amplitude(self, amp):
        assert float(units.db_to_amplitude(units.amplitude_to_db(amp))) == \
            pytest.approx(amp, rel=1e-9)


class TestIdentitiesAcrossScales:
    @given(finite_db)
    def test_power_is_amplitude_squared(self, db):
        # A dB value interpreted as power ratio equals the square of the
        # same value interpreted as amplitude ratio.
        power = float(units.db_to_linear(db))
        amp = float(units.db_to_amplitude(db))
        assert power == pytest.approx(amp * amp, rel=1e-9)

    @given(finite_db)
    def test_watts_is_milliwatts_over_1000(self, dbm):
        assert float(units.dbm_to_watts(dbm)) == pytest.approx(
            float(units.dbm_to_milliwatts(dbm)) * 1e-3, rel=1e-12)

    @given(finite_db, finite_db)
    def test_dbm_difference_is_db_ratio(self, a, b):
        assert float(units.dbm_to_db_ratio(a, b)) == pytest.approx(
            a - b, abs=1e-9)


class TestEdgeCases:
    def test_zero_power_is_neg_inf_db(self):
        assert float(units.linear_to_db(0.0)) == -math.inf
        assert float(units.watts_to_dbm(0.0)) == -math.inf
        assert float(units.milliwatts_to_dbm(0.0)) == -math.inf
        assert float(units.amplitude_to_db(0.0)) == -math.inf

    def test_neg_inf_db_is_zero_power(self):
        assert float(units.db_to_linear(-math.inf)) == 0.0
        assert float(units.db_to_amplitude(-math.inf)) == 0.0
        assert float(units.dbm_to_milliwatts(-math.inf)) == 0.0

    @given(positive_linear)
    def test_negative_amplitude_folds_to_magnitude(self, amp):
        assert float(units.amplitude_to_db(-amp)) == pytest.approx(
            float(units.amplitude_to_db(amp)), abs=1e-12)

    @given(st.lists(st.one_of(st.just(0.0), positive_linear),
                    min_size=1, max_size=16))
    def test_array_with_zeros_round_trips(self, values):
        # -inf entries must survive the round trip without warnings
        # poisoning their finite neighbours.
        arr = np.asarray(values, dtype=np.float64)
        back = units.db_to_linear(units.linear_to_db(arr))
        assert np.allclose(back, arr, rtol=1e-9, atol=0.0)


class TestScalarArrayParity:
    @given(db_arrays)
    def test_db_to_linear_matches_elementwise(self, dbs):
        vec = units.db_to_linear(np.asarray(dbs))
        scalars = [float(units.db_to_linear(d)) for d in dbs]
        assert np.allclose(vec, scalars, rtol=1e-12)
        assert vec.dtype == np.float64

    @given(db_arrays)
    def test_dbm_to_milliwatts_matches_elementwise(self, dbms):
        vec = units.dbm_to_milliwatts(np.asarray(dbms))
        scalars = [float(units.dbm_to_milliwatts(d)) for d in dbms]
        assert np.allclose(vec, scalars, rtol=1e-12)

    @given(finite_db)
    def test_scalar_input_returns_scalar_float(self, db):
        out = units.db_to_linear(db)
        assert np.ndim(out) == 0
        assert float(out) >= 0.0


# --- scalar path == array path -------------------------------------------
#
# A float or int takes the scalar path; every other input, and every
# scalar it cannot reproduce exactly, takes the array path.  The
# reference below is the array path on a 0-d array, which is what a
# scalar ran through before the scalar path existed.  (A 1-element array
# is not the reference: numpy's vectorised ``power`` kernel can differ
# from libm ``pow`` in the last bit, while 0-d and Python-float
# arithmetic both call libm.)

ONE_ARG_CONVERTERS = [
    units.db_to_linear, units.linear_to_db,
    units.dbm_to_watts, units.watts_to_dbm,
    units.dbm_to_milliwatts, units.milliwatts_to_dbm,
    units.amplitude_to_db, units.db_to_amplitude,
    units.wavelength,
]
PINNED_SCALARS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308,
                  -1.0, 400.0, 4000.0, 3, 0)
"""Signed zeros, infinities, NaN, the smallest subnormal, overflowing
exponents, a negative ratio and plain ints."""


def _bits(value: float) -> bytes | None:
    """The IEEE-754 bit pattern (None for any NaN)."""
    return None if math.isnan(value) else struct.pack("<d", value)


def _call(fn, *args):
    """``fn(*args)`` plus the warning categories it raised, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [w.category for w in caught]


def _assert_scalar_matches_array_path(fn, *args):
    scalar, scalar_warnings = _call(fn, *args)
    array, array_warnings = _call(
        fn, *(np.asarray(a, dtype=np.float64) for a in args))
    assert isinstance(scalar, float)
    assert _bits(scalar) == _bits(float(array))
    assert scalar_warnings == array_warnings


def _pinned(*examples):
    def decorate(test):
        for args in examples:
            test = example(*args)(test)
        return test
    return decorate


class TestScalarPathMatchesArrayPath:
    @pytest.mark.parametrize("fn", ONE_ARG_CONVERTERS,
                             ids=lambda fn: fn.__name__)
    @_pinned(*((x,) for x in PINNED_SCALARS))
    @given(st.one_of(st.floats(), st.integers(-2**60, 2**60)))
    def test_one_arg_converters(self, fn, value):
        _assert_scalar_matches_array_path(fn, value)

    @_pinned((math.inf, math.inf), (-math.inf, -math.inf),
             (math.nan, 1.0), (0.0, -0.0), (3, 1), (1e308, -1e308))
    @given(st.floats(), st.floats())
    def test_dbm_to_db_ratio(self, a, b):
        _assert_scalar_matches_array_path(units.dbm_to_db_ratio, a, b)

    @pytest.mark.parametrize("fn", [units.linear_to_db, units.watts_to_dbm,
                                    units.milliwatts_to_dbm,
                                    units.amplitude_to_db],
                             ids=lambda fn: fn.__name__)
    def test_zero_power_is_silent(self, fn):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fn(0.0) == -math.inf

    def test_negative_ratio_warns_like_the_array_path(self):
        with pytest.warns(RuntimeWarning, match="invalid value"):
            assert math.isnan(units.linear_to_db(-1.0))

    def test_overflow_is_inf_not_overflow_error(self):
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert units.db_to_linear(4000.0) == math.inf

    def test_zero_frequency_warns_like_the_array_path(self):
        with pytest.warns(RuntimeWarning, match="divide by zero"):
            assert units.wavelength(0.0) == math.inf

    @pytest.mark.parametrize("fn", ONE_ARG_CONVERTERS,
                             ids=lambda fn: fn.__name__)
    def test_python_scalars_return_python_floats(self, fn):
        assert type(fn(2.5)) is float
        assert type(fn(2)) is float
        assert type(fn(np.float64(2.5))) is float
