"""Tests for repro.antenna.element."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.antenna.element import DipoleElement, IsotropicElement, PatchElement


class TestPatchElement:
    def test_boresight_peak(self):
        patch = PatchElement()
        assert float(patch.field(0.0)) == pytest.approx(1.0)

    def test_symmetric(self):
        patch = PatchElement()
        theta = np.radians([10, 30, 60, 85])
        assert patch.field(theta) == pytest.approx(patch.field(-theta))

    def test_monotone_rolloff_forward(self):
        patch = PatchElement()
        theta = np.radians(np.linspace(0, 85, 30))
        values = patch.field(theta)
        assert np.all(np.diff(values) <= 1e-12)

    def test_back_lobe_floor(self):
        patch = PatchElement(back_lobe_db=-20.0)
        behind = patch.field(np.radians(180.0))
        assert float(behind) == pytest.approx(10 ** (-20 / 20))

    def test_power_db_at_peak_zero(self):
        assert float(PatchElement().power_db(0.0)) == pytest.approx(0.0)

    def test_exponent_controls_width(self):
        narrow = PatchElement(exponent=2.0)
        wide = PatchElement(exponent=0.5)
        theta = np.radians(50.0)
        assert float(narrow.field(theta)) < float(wide.field(theta))


class TestDipoleElement:
    def test_defaults_match_paper(self):
        dipole = DipoleElement()
        assert dipole.gain_dbi == 5.0
        assert dipole.beamwidth_deg == 62.0

    def test_peak_at_boresight(self):
        assert float(DipoleElement().power_db(0.0)) == pytest.approx(0.0)

    def test_3db_at_half_beamwidth(self):
        dipole = DipoleElement()
        edge = np.radians(dipole.beamwidth_deg / 2.0)
        assert float(dipole.power_db(edge)) == pytest.approx(-3.0)

    def test_floor_far_out(self):
        dipole = DipoleElement(floor_db=-15.0)
        assert float(dipole.power_db(np.radians(150.0))) == pytest.approx(-15.0)

    def test_absolute_gain(self):
        dipole = DipoleElement()
        assert float(dipole.gain_dbi_at(0.0)) == pytest.approx(5.0)

    def test_field_consistent_with_power(self):
        dipole = DipoleElement()
        theta = np.radians(20.0)
        assert float(dipole.field(theta)) == pytest.approx(
            10 ** (float(dipole.power_db(theta)) / 20.0))


class TestIsotropic:
    def test_unit_everywhere(self):
        iso = IsotropicElement()
        theta = np.radians(np.linspace(-180, 180, 19))
        assert iso.field(theta) == pytest.approx(np.ones(19))
        assert iso.power_db(theta) == pytest.approx(np.zeros(19))


def _bits(value) -> bytes:
    return struct.pack("<d", value)


class TestDipoleScalarPath:
    """The float path of DipoleElement.power_db against the 0-d array
    path it replaced: same bits, and a Python float."""

    @staticmethod
    def _assert_matches_array_path(theta):
        # Angles whose degrees or lobe term overflow fall back to the
        # array path (and its warnings); every other one stays on floats.
        dipole = DipoleElement()
        with np.errstate(over="ignore"):
            value = dipole.power_db(theta)
            reference = dipole.power_db(np.asarray(theta))
        assert _bits(float(value)) == _bits(float(reference))
        if abs(theta) <= 1e6:
            assert type(value) is float

    @pytest.mark.parametrize("theta", [
        0.0, -0.0, math.pi, -math.pi, 4 * math.pi, -4 * math.pi,
        math.radians(31.0), -math.radians(31.0), float(np.radians(31.0))])
    def test_pinned_angles(self, theta):
        self._assert_matches_array_path(theta)

    @given(theta=st.one_of(st.floats(-10.0, 10.0),
                           st.floats(allow_nan=False, allow_infinity=False)))
    def test_any_finite_angle(self, theta):
        self._assert_matches_array_path(theta)

    def test_field_is_a_float(self):
        dipole = DipoleElement()
        assert type(dipole.field(0.3)) is float
        assert _bits(dipole.field(0.3)) == _bits(
            float(dipole.field(np.asarray(0.3))))

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_angles_take_the_array_path(self, theta):
        dipole = DipoleElement()
        value = dipole.power_db(theta)
        assert type(value) is not float
        assert _bits(float(value)) == _bits(
            float(dipole.power_db(np.asarray(theta))))
