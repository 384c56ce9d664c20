"""Tests for repro.antenna.array: array factors and ULAs."""

import numpy as np
import pytest

from repro.antenna.array import UniformLinearArray, array_factor
from repro.units import wavelength

from .signal_fixtures import IsotropicElement

FREQ = 24.125e9


class TestArrayFactor:
    def test_broadside_sum(self):
        # In-phase elements add coherently at broadside.
        af = array_factor(0.0, [1.0, 1.0, 1.0, 1.0], 0.005, FREQ)
        assert abs(af) == pytest.approx(4.0)

    def test_antiphase_null_at_broadside(self):
        af = array_factor(0.0, [1.0, -1.0], 0.005, FREQ)
        assert abs(af) < 1e-12

    def test_two_element_null_position(self):
        # d = lambda: null where sin(theta) = 1/2, i.e. 30 degrees.
        lam = float(wavelength(FREQ))
        af = array_factor(np.radians(30.0), [1.0, 1.0], lam, FREQ)
        assert abs(af) < 1e-9

    def test_two_element_antiphase_peak_at_30(self):
        lam = float(wavelength(FREQ))
        af = array_factor(np.radians(30.0), [1.0, -1.0], lam, FREQ)
        assert abs(af) == pytest.approx(2.0, abs=1e-9)

    def test_vectorised_shape(self):
        theta = np.linspace(-1, 1, 11)
        out = array_factor(theta, [1, 1], 0.005, FREQ)
        assert out.shape == (11,)

    def test_empty_weights_rejected(self):
        with pytest.raises(ValueError):
            array_factor(0.0, [], 0.005, FREQ)

    def test_bad_spacing_rejected(self):
        with pytest.raises(ValueError):
            array_factor(0.0, [1, 1], 0.0, FREQ)


class TestUniformLinearArray:
    def _ula(self, weights=None, n=2):
        lam = float(wavelength(FREQ))
        return UniformLinearArray(IsotropicElement(), n, lam, FREQ,
                                  weights=weights)

    def test_normalised_peak_is_one(self):
        ula = self._ula()
        grid = np.linspace(-np.pi, np.pi, 3601)
        assert float(np.max(ula.field(grid))) == pytest.approx(1.0, abs=1e-6)

    def test_power_db_zero_at_peak(self):
        ula = self._ula()
        grid = np.linspace(-np.pi, np.pi, 3601)
        assert float(np.max(ula.power_db(grid))) == pytest.approx(0.0, abs=1e-4)

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError):
            self._ula(weights=[1.0, 1.0, 1.0])

    def test_more_elements_narrower_beam(self):
        lam = float(wavelength(FREQ))
        small = UniformLinearArray(IsotropicElement(), 4, lam / 2, FREQ)
        large = UniformLinearArray(IsotropicElement(), 16, lam / 2, FREQ)
        theta = np.radians(10.0)
        assert float(large.power_db(theta)) < float(small.power_db(theta))

    def test_invalid_element_count(self):
        with pytest.raises(ValueError):
            UniformLinearArray(IsotropicElement(), 0, 0.005, FREQ)
