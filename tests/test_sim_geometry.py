"""Tests for the 2-D geometry primitives under the ray tracer."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.geometry import (
    Point,
    Segment,
    angle_of,
    distance,
    normalize_angle,
    reflect_point_across_line,
    reflect_point_xy,
    segment_circle_intersects_xy,
    segment_intersection,
    segment_intersection_xy,
)

from .raytrace_reference import (
    reference_reflect_point_across_line,
    reference_segment_circle_intersects,
    reference_segment_intersection,
)


class TestPoint:
    def test_arithmetic(self):
        q = Point(1.0, 2.0) - Point(1.0, 2.0)
        assert (q.x, q.y) == (0.0, 0.0)

    def test_norm(self):
        assert Point(3.0, 4.0).norm() == pytest.approx(5.0)


class TestSegment:
    def test_length(self):
        assert Segment(Point(0, 0), Point(3, 4)).length() == pytest.approx(5.0)


class TestIntersection:
    def test_crossing_segments(self):
        hit = segment_intersection(Segment(Point(0, 0), Point(2, 2)),
                                   Segment(Point(0, 2), Point(2, 0)))
        assert hit is not None
        assert (hit.x, hit.y) == pytest.approx((1.0, 1.0))

    def test_parallel_miss(self):
        assert segment_intersection(Segment(Point(0, 0), Point(1, 0)),
                                    Segment(Point(0, 1), Point(1, 1))) is None

    def test_non_crossing_skew(self):
        assert segment_intersection(Segment(Point(0, 0), Point(1, 1)),
                                    Segment(Point(3, 0), Point(4, 1))) is None

    def test_endpoint_touch_counts(self):
        hit = segment_intersection(Segment(Point(0, 0), Point(1, 1)),
                                   Segment(Point(1, 1), Point(2, 0)))
        assert hit is not None
        assert (hit.x, hit.y) == pytest.approx((1.0, 1.0))

    def test_collinear_overlap(self):
        hit = segment_intersection(Segment(Point(0, 0), Point(2, 0)),
                                   Segment(Point(1, 0), Point(3, 0)))
        assert hit is not None

    def test_collinear_disjoint(self):
        assert segment_intersection(Segment(Point(0, 0), Point(1, 0)),
                                    Segment(Point(2, 0), Point(3, 0))) is None


class TestCircleIntersection:
    def test_segment_through_circle(self):
        assert segment_circle_intersects_xy(-1, 0, 1, 0, 0, 0, 0.25)

    def test_segment_missing_circle(self):
        assert not segment_circle_intersects_xy(-1, 1, 1, 1, 0, 0, 0.25)

    def test_grazing_tangent(self):
        assert segment_circle_intersects_xy(-1, 0.25, 1, 0.25, 0, 0, 0.25)

    def test_endpoint_inside(self):
        assert segment_circle_intersects_xy(0.1, 0, 5, 0, 0, 0, 0.25)

    def test_degenerate_segment(self):
        assert segment_circle_intersects_xy(0, 0, 0, 0, 0.1, 0, 0.25)

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            segment_circle_intersects_xy(0, 0, 1, 0, 0, 0, -0.1)


class TestReflection:
    def test_reflect_across_x_axis(self):
        image = reflect_point_across_line(
            Point(1.0, 2.0), Segment(Point(0, 0), Point(1, 0)))
        assert (image.x, image.y) == pytest.approx((1.0, -2.0))

    def test_reflect_across_diagonal(self):
        image = reflect_point_across_line(
            Point(2.0, 0.0), Segment(Point(0, 0), Point(1, 1)))
        assert (image.x, image.y) == pytest.approx((0.0, 2.0))

    def test_point_on_line_unchanged(self):
        image = reflect_point_across_line(
            Point(0.5, 0.5), Segment(Point(0, 0), Point(1, 1)))
        assert (image.x, image.y) == pytest.approx((0.5, 0.5))

    def test_involution(self):
        line = Segment(Point(0, 3), Point(5, 1))
        p = Point(2.0, -1.0)
        twice = reflect_point_across_line(
            reflect_point_across_line(p, line), line)
        assert (twice.x, twice.y) == pytest.approx((p.x, p.y))

    def test_degenerate_line(self):
        with pytest.raises(ValueError):
            reflect_point_across_line(Point(0, 0),
                                      Segment(Point(1, 1), Point(1, 1)))


class TestAngles:
    def test_angle_of_east(self):
        assert angle_of(Point(0, 0), Point(1, 0)) == pytest.approx(0.0)

    def test_angle_of_north(self):
        assert angle_of(Point(0, 0), Point(0, 1)) == pytest.approx(math.pi / 2)

    def test_normalize_wraps_down(self):
        assert normalize_angle(3 * math.pi) == pytest.approx(math.pi)

    def test_normalize_wraps_up(self):
        assert normalize_angle(-3 * math.pi / 2) == pytest.approx(math.pi / 2)

    def test_normalize_identity_in_range(self):
        assert normalize_angle(0.5) == pytest.approx(0.5)

    def test_distance(self):
        assert distance(Point(1, 1), Point(4, 5)) == pytest.approx(5.0)


# --- Wrappers against kernels, bit for bit ---
#
# Each Point/Segment function must be its float kernel exactly, and both
# must match the arithmetic the tracer used before the kernels existed
# (kept in tests/raytrace_reference.py).  repr compares the bits and the
# coordinate types, which pass through the kernels untouched.

_coords = st.one_of(st.floats(-1e3, 1e3, allow_nan=False),
                    st.integers(-5, 5),
                    st.floats(-10.0, 10.0, allow_nan=False).map(np.float64))
_points = st.builds(Point, _coords, _coords)
_segments = st.builds(Segment, _points, _points)

_SEGMENT_PAIRS = [
    # crossing, parallel miss, skew miss, endpoint touch
    (Segment(Point(0, 0), Point(2, 2)), Segment(Point(0, 2), Point(2, 0))),
    (Segment(Point(0, 0), Point(1, 0)), Segment(Point(0, 1), Point(1, 1))),
    (Segment(Point(0, 0), Point(1, 1)), Segment(Point(3, 0), Point(4, 1))),
    (Segment(Point(0, 0), Point(1, 1)), Segment(Point(1, 1), Point(2, 0))),
    # collinear overlap (both orders) and collinear disjoint
    (Segment(Point(0, 0), Point(2, 0)), Segment(Point(1, 0), Point(3, 0))),
    (Segment(Point(1, 0), Point(3, 0)), Segment(Point(0, 0), Point(2, 0))),
    (Segment(Point(0, 0), Point(1, 0)), Segment(Point(2, 0), Point(3, 0))),
    # degenerate first segment: on the other's start, elsewhere
    (Segment(Point(1, 1), Point(1, 1)), Segment(Point(1, 1), Point(2, 2))),
    (Segment(Point(1.5, 1), Point(1.5, 1)), Segment(Point(1, 1), Point(2, 1))),
]


def _check_intersection(s1: Segment, s2: Segment) -> None:
    raw = segment_intersection_xy(s1.a.x, s1.a.y, s1.b.x, s1.b.y,
                                  s2.a.x, s2.a.y, s2.b.x, s2.b.y)
    hit = segment_intersection(s1, s2)
    assert repr(hit) == repr(None if raw is None else Point(*raw))
    assert repr(hit) == repr(reference_segment_intersection(s1, s2))


def _check_circle(seg: Segment, centre: Point, radius: float) -> None:
    raw = segment_circle_intersects_xy(seg.a.x, seg.a.y, seg.b.x, seg.b.y,
                                       centre.x, centre.y, radius)
    reference = reference_segment_circle_intersects(seg, centre, radius)
    assert repr(raw) == repr(reference)


def _check_reflection(p: Point, line: Segment) -> None:
    try:
        raw = reflect_point_xy(p.x, p.y, line.a.x, line.a.y,
                               line.b.x, line.b.y)
    except ValueError:
        for fn in (reflect_point_across_line,
                   reference_reflect_point_across_line):
            with pytest.raises(ValueError, match="degenerate"):
                fn(p, line)
        return
    image = reflect_point_across_line(p, line)
    assert repr(image) == repr(Point(*raw))
    assert repr(image) == repr(reference_reflect_point_across_line(p, line))


class TestWrappersMatchKernels:
    @given(_segments, _segments)
    def test_segment_intersection(self, s1, s2):
        _check_intersection(s1, s2)

    @pytest.mark.parametrize("s1, s2", _SEGMENT_PAIRS)
    def test_segment_intersection_special_cases(self, s1, s2):
        _check_intersection(s1, s2)

    @given(_segments, _points, st.floats(0.0, 100.0, allow_nan=False))
    def test_segment_circle(self, seg, centre, radius):
        _check_circle(seg, centre, radius)

    @pytest.mark.parametrize("seg, centre", [
        (Segment(Point(-1, 0), Point(1, 0)), Point(0, 0)),
        (Segment(Point(-1, 1), Point(1, 1)), Point(0, 0)),
        (Segment(Point(-1, 0.25), Point(1, 0.25)), Point(0, 0)),
        (Segment(Point(0.1, 0), Point(5, 0)), Point(0, 0)),
        (Segment(Point(0, 0), Point(0, 0)), Point(0.1, 0)),
    ])
    def test_segment_circle_special_cases(self, seg, centre):
        _check_circle(seg, centre, 0.25)

    def test_segment_circle_negative_radius(self):
        with pytest.raises(ValueError):
            segment_circle_intersects_xy(0, 0, 1, 0, 0, 0, -0.1)

    @given(_points, _segments)
    def test_reflection(self, p, line):
        _check_reflection(p, line)

    @pytest.mark.parametrize("p, line", [
        (Point(1.0, 2.0), Segment(Point(0, 0), Point(1, 0))),
        (Point(2.0, 0.0), Segment(Point(0, 0), Point(1, 1))),
        (Point(0.5, 0.5), Segment(Point(0, 0), Point(1, 1))),
        (Point(0, 0), Segment(Point(1, 1), Point(1, 1))),
    ])
    def test_reflection_special_cases(self, p, line):
        _check_reflection(p, line)
