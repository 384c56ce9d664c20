"""Unit conversions used across the mmX stack.

All RF engineering here is done in two currencies: linear power ratios and
decibels.  These helpers are deliberately tiny so every other module can
share one, well-tested implementation.

Every converter has two paths, and a scalar gets the same bits and the
same warnings from either:

* **Scalar** — a ``float`` or ``int`` (``np.float64`` is a ``float``)
  is converted on Python floats and comes back as a ``float``.  This is
  the per-step link loop's path; it skips ``np.asarray`` and
  ``np.errstate``, which cost ~10x the arithmetic.  Exponents use
  Python's ``**``, which calls libm ``pow`` just as numpy's arithmetic
  on a 0-d array does (numpy's vectorised ``power`` kernel, which
  1-element and larger arrays use, can differ in the last bit).
  Logarithms call ``np.log10`` on the bare float, because
  ``math.log10`` differs from numpy's vectorised ``log10`` in the last
  bit on some inputs.
* **Array** — anything else, and every scalar the scalar path cannot
  reproduce exactly (a negative or NaN logarithm argument, an overflow,
  a zero frequency), goes through ``np.asarray`` and numpy.

This module is the repo's **single conversion authority**: reprolint's
``UNITS002`` rule forbids hand-rolled ``10 ** (x / 10)`` / ``log10``
conversions anywhere else, so every dB<->linear crossing in the codebase
goes through (and is tested through) these functions.
"""

from __future__ import annotations

import math
from typing import overload

import numpy as np
import numpy.typing as npt

from .constants import SPEED_OF_LIGHT

__all__ = [
    "FloatArray",
    "db_to_linear",
    "linear_to_db",
    "dbm_to_watts",
    "watts_to_dbm",
    "dbm_to_milliwatts",
    "milliwatts_to_dbm",
    "dbm_to_db_ratio",
    "amplitude_to_db",
    "db_to_amplitude",
    "wavelength",
]

FloatArray = npt.NDArray[np.float64]
"""The float64 array type every converter returns for array input."""


def _as_float_array(values: npt.ArrayLike) -> FloatArray:
    return np.asarray(values, dtype=np.float64)


def _scalar_exp10(value: npt.ArrayLike, divisor: float,
                  offset: float = 0.0) -> float | None:
    """``10 ** ((value - offset) / divisor)`` for a float or int, else None.

    Python raises ``OverflowError`` where numpy returns ``inf`` and
    warns; None hands that case to the array path too.
    """
    if isinstance(value, (float, int)):
        try:
            power: float = 10.0 ** ((float(value) - offset) / divisor)
        except OverflowError:
            return None
        return power
    return None


def _scalar_log10(value: npt.ArrayLike) -> float | None:
    """``log10`` of a positive or zero float or int, else None.

    Zero maps to ``-inf``, silently, as on the array path.  Negative
    and NaN inputs return None so the array path raises its warning.
    """
    if isinstance(value, (float, int)):
        x = float(value)
        if x > 0.0:
            return float(np.log10(x))
        if x == 0.0:
            return -math.inf
    return None


@overload
def db_to_linear(db: float) -> float: ...  # type: ignore[overload-overlap]
@overload
def db_to_linear(db: npt.ArrayLike) -> FloatArray: ...
def db_to_linear(db: npt.ArrayLike) -> float | FloatArray:
    """Convert a power ratio in dB to a linear ratio."""
    ratio = _scalar_exp10(db, 10.0)
    if ratio is not None:
        return ratio
    return 10.0 ** (_as_float_array(db) / 10.0)


@overload
def linear_to_db(ratio: float) -> float: ...  # type: ignore[overload-overlap]
@overload
def linear_to_db(ratio: npt.ArrayLike) -> FloatArray: ...
def linear_to_db(ratio: npt.ArrayLike) -> float | FloatArray:
    """Convert a linear power ratio to dB.

    Ratios of exactly zero map to ``-inf`` without warnings, which lets
    callers express "no signal at all" naturally.
    """
    log_scalar = _scalar_log10(ratio)
    if log_scalar is not None:
        return 10.0 * log_scalar
    with np.errstate(divide="ignore"):
        log_ratio: FloatArray = np.log10(_as_float_array(ratio))
    return 10.0 * log_ratio


@overload
def dbm_to_watts(dbm: float) -> float: ...  # type: ignore[overload-overlap]
@overload
def dbm_to_watts(dbm: npt.ArrayLike) -> FloatArray: ...
def dbm_to_watts(dbm: npt.ArrayLike) -> float | FloatArray:
    """Convert power in dBm to watts."""
    watts = _scalar_exp10(dbm, 10.0, offset=30.0)
    if watts is not None:
        return watts
    return 10.0 ** ((_as_float_array(dbm) - 30.0) / 10.0)


@overload
def watts_to_dbm(watts: float) -> float: ...  # type: ignore[overload-overlap]
@overload
def watts_to_dbm(watts: npt.ArrayLike) -> FloatArray: ...
def watts_to_dbm(watts: npt.ArrayLike) -> float | FloatArray:
    """Convert power in watts to dBm."""
    log_scalar = _scalar_log10(watts)
    if log_scalar is not None:
        return 10.0 * log_scalar + 30.0
    with np.errstate(divide="ignore"):
        log_watts: FloatArray = np.log10(_as_float_array(watts))
    return 10.0 * log_watts + 30.0


@overload
def dbm_to_milliwatts(dbm: float) -> float: ...  # type: ignore[overload-overlap]
@overload
def dbm_to_milliwatts(dbm: npt.ArrayLike) -> FloatArray: ...
def dbm_to_milliwatts(dbm: npt.ArrayLike) -> float | FloatArray:
    """Convert power in dBm to milliwatts (the natural linear dBm unit).

    Most of the stack carries absolute powers in dBm and sums them in
    "linear dBm-referenced" units — i.e. milliwatts — before converting
    back; this pair makes that round trip explicit.
    """
    milliwatts = _scalar_exp10(dbm, 10.0)
    if milliwatts is not None:
        return milliwatts
    return 10.0 ** (_as_float_array(dbm) / 10.0)


@overload
def milliwatts_to_dbm(milliwatts: float) -> float: ...  # type: ignore[overload-overlap]
@overload
def milliwatts_to_dbm(milliwatts: npt.ArrayLike) -> FloatArray: ...
def milliwatts_to_dbm(milliwatts: npt.ArrayLike) -> float | FloatArray:
    """Convert power in milliwatts to dBm (``-inf`` for zero power)."""
    log_scalar = _scalar_log10(milliwatts)
    if log_scalar is not None:
        return 10.0 * log_scalar
    with np.errstate(divide="ignore"):
        log_mw: FloatArray = np.log10(_as_float_array(milliwatts))
    return 10.0 * log_mw


@overload
def dbm_to_db_ratio(dbm_a: float, dbm_b: float) -> float: ...  # type: ignore[overload-overlap]
@overload
def dbm_to_db_ratio(dbm_a: npt.ArrayLike, dbm_b: npt.ArrayLike) -> FloatArray: ...
def dbm_to_db_ratio(dbm_a: npt.ArrayLike,
                    dbm_b: npt.ArrayLike) -> float | FloatArray:
    """Power ratio ``a / b`` in dB for two absolute powers in dBm."""
    if isinstance(dbm_a, (float, int)) and isinstance(dbm_b, (float, int)):
        ratio_db = float(dbm_a) - float(dbm_b)
        if math.isfinite(ratio_db):  # numpy warns on overflow, inf - inf
            return ratio_db
    return _as_float_array(dbm_a) - _as_float_array(dbm_b)


@overload
def amplitude_to_db(amplitude: float) -> float: ...  # type: ignore[overload-overlap]
@overload
def amplitude_to_db(amplitude: npt.ArrayLike) -> FloatArray: ...
def amplitude_to_db(amplitude: npt.ArrayLike) -> float | FloatArray:
    """Convert a voltage/field amplitude ratio to dB (20 log10)."""
    log_scalar = _scalar_log10(amplitude)
    if log_scalar is not None:
        return 20.0 * log_scalar
    with np.errstate(divide="ignore"):
        log_amp: FloatArray = np.log10(np.abs(_as_float_array(amplitude)))
    return 20.0 * log_amp


@overload
def db_to_amplitude(db: float) -> float: ...  # type: ignore[overload-overlap]
@overload
def db_to_amplitude(db: npt.ArrayLike) -> FloatArray: ...
def db_to_amplitude(db: npt.ArrayLike) -> float | FloatArray:
    """Convert dB to a voltage/field amplitude ratio (inverse 20 log10)."""
    amplitude = _scalar_exp10(db, 20.0)
    if amplitude is not None:
        return amplitude
    return 10.0 ** (_as_float_array(db) / 20.0)


@overload
def wavelength(frequency_hz: float) -> float: ...  # type: ignore[overload-overlap]
@overload
def wavelength(frequency_hz: npt.ArrayLike) -> FloatArray: ...
def wavelength(frequency_hz: npt.ArrayLike) -> float | FloatArray:
    """Free-space wavelength [m] for a carrier frequency [Hz]."""
    if isinstance(frequency_hz, (float, int)) and frequency_hz != 0:
        lam = SPEED_OF_LIGHT / float(frequency_hz)
        if not math.isinf(lam):  # numpy warns when the division overflows
            return lam
    return SPEED_OF_LIGHT / _as_float_array(frequency_hz)
