import math
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from optishape.geometry import (
    Point2,
    Shape,
    area,
    area_coefficient,
    linspace,
    perimeter,
    polygon_vertices,
    shoelace_area,
)

CIRCLE = Shape()
SQUARE = Shape(4)
HEXAGON = Shape(6)

SWEEP_SHAPES = [CIRCLE] + [Shape(n) for n in (3, 4, 5, 6, 8, 12, 64)]


class TestShape:
    def test_polygon_needs_three_sides(self):
        with pytest.raises(ValueError):
            Shape(2)

    def test_circle_has_no_sides(self):
        assert CIRCLE.sides is None
        assert HEXAGON.sides == 6

    def test_no_sides_is_the_circle(self):
        assert Shape() == Shape(None) == CIRCLE
        assert Shape(6) == HEXAGON

    def test_constructor_rejects_two_sides(self):
        with pytest.raises(ValueError, match="a regular polygon needs sides >= 3, got 2"):
            Shape(2)

    def test_point_requires_finite_coordinates(self):
        with pytest.raises(ValueError):
            Point2(math.nan, 0.0)
        with pytest.raises(ValueError):
            Point2(0.0, math.inf)


class TestAreaCoefficient:
    def test_circle_is_pi(self):
        assert area_coefficient(CIRCLE) == math.pi

    def test_square_is_4(self):
        assert area_coefficient(SQUARE) == pytest.approx(4.0, abs=1e-12)

    def test_hexagon_matches_shoelace_oracle(self):
        oracle = shoelace_area(polygon_vertices(6, 1.0))
        c = area_coefficient(HEXAGON)
        assert c == pytest.approx(oracle, abs=1e-12)
        assert c == pytest.approx(3.4641016151377544, abs=1e-12)  # 2*sqrt(3)

    def test_strictly_decreasing_toward_pi(self):
        coefficients = [area_coefficient(Shape(n)) for n in range(3, 65)]
        for smaller, larger in zip(coefficients[1:], coefficients):
            assert smaller < larger
        assert all(c > math.pi for c in coefficients)

    def test_limit_approaches_circle(self):
        assert area_coefficient(Shape(10_000)) == pytest.approx(math.pi, rel=1e-7)


class TestAreaAndPerimeter:
    def test_unit_circle_area(self):
        assert area(CIRCLE, 1.0) == math.pi

    def test_square_area(self):
        assert area(SQUARE, 3.0) == pytest.approx(36.0, rel=1e-12)

    def test_hexagon_area_matches_shoelace_oracle(self):
        got = area(HEXAGON, 2.0)
        assert got == pytest.approx(shoelace_area(polygon_vertices(6, 2.0)), rel=1e-12)
        assert got == pytest.approx(13.856406460551018, rel=1e-12)  # 8*sqrt(3)

    def test_unit_circle_perimeter(self):
        assert perimeter(CIRCLE, 1.0) == pytest.approx(2.0 * math.pi, rel=1e-15)

    def test_square_perimeter_is_8r(self):
        assert perimeter(SQUARE, 3.0) == pytest.approx(24.0, rel=1e-12)

    def test_hexagon_perimeter_matches_edge_sum_oracle(self):
        pts = polygon_vertices(6, 1.0)
        edge_sum = sum(
            math.hypot(q.x - p.x, q.y - p.y)
            for p, q in zip(pts, pts[1:] + pts[:1])
        )
        got = perimeter(HEXAGON, 1.0)
        assert got == pytest.approx(edge_sum, rel=1e-12)
        assert got == pytest.approx(6.928203230275509, rel=1e-12)  # 4*sqrt(3)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_inradius_rejected(self, bad):
        with pytest.raises(ValueError):
            area(CIRCLE, bad)
        with pytest.raises(ValueError):
            perimeter(SQUARE, bad)


class TestPolygonVertices:
    def test_unit_square_corners(self):
        got = polygon_vertices(4, 1.0)
        expected = [(1, -1), (1, 1), (-1, 1), (-1, -1)]
        for p, (ex, ey) in zip(got, expected):
            assert p.x == pytest.approx(ex, abs=1e-12)
            assert p.y == pytest.approx(ey, abs=1e-12)

    def test_triangle_circumradius_is_2(self):
        for p in polygon_vertices(3, 1.0):
            assert math.hypot(p.x, p.y) == pytest.approx(2.0, abs=1e-12)

    def test_hexagon_circumradius(self):
        for p in polygon_vertices(6, 1.0):
            assert math.hypot(p.x, p.y) == pytest.approx(1.1547005383792517, abs=1e-12)

    def test_first_edge_midpoint_on_positive_x_axis(self):
        pts = polygon_vertices(5, 2.0)
        mid_x = (pts[0].x + pts[1].x) / 2.0
        mid_y = (pts[0].y + pts[1].y) / 2.0
        assert mid_x == pytest.approx(2.0, abs=1e-12)
        assert mid_y == pytest.approx(0.0, abs=1e-12)

    def test_counterclockwise_orientation(self):
        pts = polygon_vertices(7, 1.0)
        signed = sum(
            p.x * q.y - q.x * p.y for p, q in zip(pts, pts[1:] + pts[:1])
        )
        assert signed > 0

    def test_too_few_sides_rejected(self):
        with pytest.raises(ValueError):
            polygon_vertices(2, 1.0)


class TestShoelace:
    def test_unit_square(self):
        pts = [Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)]
        assert shoelace_area(pts) == 1.0

    def test_degenerate_collinear(self):
        pts = [Point2(0, 0), Point2(1, 1), Point2(2, 2)]
        assert shoelace_area(pts) == 0.0

    def test_octagon_matches_hand_formula(self):
        # independent hand computation: n*tan(pi/n) with n=8
        assert shoelace_area(polygon_vertices(8, 1.0)) == pytest.approx(
            8.0 * math.tan(math.pi / 8.0), abs=1e-12
        )
        assert shoelace_area(polygon_vertices(8, 1.0)) == pytest.approx(
            3.3137084989847603, abs=1e-12
        )

    def test_orientation_independent(self):
        pts = polygon_vertices(5, 1.0)
        assert shoelace_area(pts) == pytest.approx(
            shoelace_area(list(reversed(pts))), abs=0
        )

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            shoelace_area([Point2(0, 0), Point2(1, 0)])


class TestLinspace:
    def test_endpoints_and_spacing(self):
        assert linspace(0.0, 2400.0, 5) == [0.0, 600.0, 1200.0, 1800.0, 2400.0]

    def test_last_point_pinned_to_hi(self):
        xs = linspace(0.1, 0.7, 7)
        assert len(xs) == 7
        assert xs[0] == 0.1
        assert xs[-1] == 0.7

    def test_underflowing_step_keeps_interior_points(self):
        # 1e-320 / 10000 underflows to zero; the points are scaled after
        # dividing, so the interior does not collapse onto lo
        xs = linspace(0.0, 1e-320, 10001)
        assert xs[5000] == 5e-321
        assert xs == sorted(xs)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            linspace(0.0, 1.0, 1)

    @given(
        lo=st.floats(min_value=-1e300, max_value=1e300),
        span=st.floats(min_value=5e-324, max_value=1e300),
        sign=st.sampled_from([1.0, -1.0]),
        n=st.integers(min_value=2, max_value=500),
    )
    @example(lo=1.0, span=1.0, sign=-1.0, n=7)
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_bit_for_bit(self, lo, span, sign, n):
        # on increasing and decreasing ranges alike, but only where the step
        # is a normal float: at subnormal steps numpy's points can pass hi,
        # and linspace's stay inside (next tests)
        np = pytest.importorskip("numpy")
        hi = lo + sign * span
        if lo == hi or abs(hi - lo) / (n - 1) < sys.float_info.min:
            return
        assert linspace(lo, hi, n) == np.linspace(lo, hi, n).tolist()

    def test_rounded_up_subnormal_step_stays_inside(self):
        # 1e-320 / 300 is subnormal and rounds up, so lo + i*step, as numpy
        # takes it, passes hi from point 290 on
        xs = linspace(0.0, 1e-320, 301)
        assert max(xs) == xs[-1] == 1e-320
        assert xs == sorted(xs)

    @given(
        lo=st.one_of(st.just(0.0), st.floats(min_value=-1e-305, max_value=1e-305)),
        sign=st.sampled_from([1.0, -1.0]),
        n=st.integers(min_value=2, max_value=3000),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_subnormal_steps_stay_inside_and_monotone(self, lo, sign, n, data):
        # a span below n - 1 smallest normals, in steps of the smallest subnormal
        span = data.draw(st.integers(1, (n - 1) * 2**52 - 1)) * math.ulp(0.0)
        hi = lo + sign * span
        assume(lo != hi and abs(hi - lo) / (n - 1) < sys.float_info.min)
        xs = linspace(lo, hi, n)
        assert xs[0] == lo and xs[-1] == hi
        assert all(min(lo, hi) <= x <= max(lo, hi) for x in xs)
        assert xs == sorted(xs, reverse=hi < lo)


# Both take their count the way Shape and FenceLayout do: a non-int, or an int
# that does not fit in a float, is a ValueError that names the count.
@pytest.mark.parametrize(
    "func, args, message",
    [
        (polygon_vertices, (10**400, 1.0), "sides does not fit in a float: 1329 bits"),
        (polygon_vertices, (3.0, 1.0), "sides must be an int, got 3.0"),
        (linspace, (0.0, 1.0, 10**400), "points does not fit in a float: 1329 bits"),
        (linspace, (0.0, 1.0, 2.5), "points must be an int, got 2.5"),
    ],
    ids=["huge sides", "float sides", "huge points", "float points"],
)
def test_count_is_an_int_that_fits_in_a_float(func, args, message):
    with pytest.raises(ValueError, match=message):
        func(*args)


class TestInvariants:
    def test_perimeter_is_area_derivative(self):
        # central difference of the area at step r*1e-6 vs the perimeter
        for shape in SWEEP_SHAPES:
            for exponent in range(-3, 4):
                r, h = 10.0**exponent, 10.0**exponent * 1e-6
                estimate = (area(shape, r + h) - area(shape, r - h)) / (2 * h)
                p = perimeter(shape, r)
                assert abs(estimate - p) / p <= 1e-6

    def test_area_over_perimeter_is_half_inradius(self):
        for shape in SWEEP_SHAPES:
            for r in (1e-3, 0.37, 1.0, 42.0, 1e3):
                ratio = area(shape, r) / perimeter(shape, r)
                assert abs(ratio - r / 2.0) <= 4.0 * math.ulp(r / 2.0)

    def test_coefficient_matches_shoelace_up_to_64(self):
        for n in range(3, 65):
            gap = abs(
                area_coefficient(Shape(n))
                - shoelace_area(polygon_vertices(n, 1.0))
            )
            assert gap <= 1e-12

    def test_scaling_laws(self):
        for shape in SWEEP_SHAPES:
            for r in (1e-3, 1.0, 17.0):
                for k in (0.5, 2.0, 10.0):
                    assert area(shape, k * r) == pytest.approx(
                        k * k * area(shape, r), rel=1e-12
                    )
                    assert perimeter(shape, k * r) == pytest.approx(
                        k * perimeter(shape, r), rel=1e-12
                    )


class TestProperties:
    @given(
        n=st.integers(min_value=3, max_value=200),
        r=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=100, deadline=None)
    def test_ratio_property_random_polygons(self, n, r):
        shape = Shape(n)
        ratio = area(shape, r) / perimeter(shape, r)
        assert abs(ratio - r / 2.0) <= 4.0 * math.ulp(r / 2.0)

    @given(
        n=st.integers(min_value=3, max_value=100),
        r=st.floats(min_value=1e-2, max_value=1e2),
    )
    @settings(max_examples=50, deadline=None)
    def test_vertices_consistent_with_algebra(self, n, r):
        pts = polygon_vertices(n, r)
        assert len(pts) == n
        assert shoelace_area(pts) == pytest.approx(area(Shape(n), r), rel=1e-9)

    @given(
        n=st.integers(min_value=3, max_value=30),
        shift=st.integers(min_value=0, max_value=29),
    )
    @settings(max_examples=50, deadline=None)
    def test_shoelace_invariant_under_cyclic_shift(self, n, shift):
        pts = polygon_vertices(n, 1.0)
        shifted = pts[shift % n :] + pts[: shift % n]
        assert shoelace_area(shifted) == pytest.approx(shoelace_area(pts), rel=1e-12)
