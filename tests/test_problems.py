import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

import optishape
from optishape import oracle, problems
from optishape.geometry import Shape, area_coefficient, linspace
from optishape.problems import (
    PROBLEMS,
    FenceLayout,
    FenceSolution,
    containment_max,
    fence_area_curve,
    frontier_a,
    intersect_ellipse_circle,
    solve_box,
    solve_box_numeric,
    solve_can,
    solve_can_dual,
    solve_can_dual_numeric,
    solve_can_numeric,
    solve_ellipse_semicircle,
    solve_ellipse_semicircle_numeric,
    solve_fence,
    solve_fence_numeric,
    solve_rect_semicircle,
    solve_rect_semicircle_numeric,
    solve_rectangle,
    solve_rectangle_numeric,
)

CIRCLE = Shape()
SQUARE = Shape(4)
HEXAGON = Shape(6)

SWEEP_BASES = [CIRCLE] + [Shape(n) for n in range(3, 13)] + [Shape(100)]
SWEEP_VOLUMES = [1e-3, 1.0, 1e3, 1e6]

SQRT6_3 = math.sqrt(6.0) / 3.0
SQRT2_3 = math.sqrt(2.0) / 3.0
SQRT2_2 = math.sqrt(2.0) / 2.0


def count_calls(monkeypatch, name):
    """Replace problems.<name> with a wrapper that records each call's
    arguments in the returned list."""
    calls = []
    fn = getattr(problems, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    monkeypatch.setattr(problems, name, counting)
    return calls


class TestRectangle:
    def test_square_wins(self):
        sol = solve_rectangle(40.0)
        assert sol == (10.0, 10.0, 100.0)

    def test_big_fence(self):
        sol = solve_rectangle(2400.0)
        assert sol.x == 600.0
        assert sol.y == 600.0
        assert sol.area == 360000.0

    @given(side=st.floats(min_value=1e-3, max_value=1e6))
    @settings(max_examples=50, deadline=None)
    def test_perimeter_4s_gives_side_s(self, side):
        sol = solve_rectangle(4.0 * side)
        assert sol.x == side
        assert sol.y == side

    def test_numeric_agrees(self):
        closed = solve_rectangle(40.0)
        numeric = solve_rectangle_numeric(40.0)
        assert numeric.x == pytest.approx(closed.x, rel=1e-6)
        assert numeric.area == pytest.approx(closed.area, rel=1e-6)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            solve_rectangle(0.0)


class TestBox:
    def test_volume_8(self):
        sol = solve_box(8.0)
        assert sol.x == pytest.approx(2.0, rel=1e-14)
        assert sol.y == sol.x
        assert sol.z == sol.x
        assert sol.surface_area == pytest.approx(24.0, rel=1e-14)

    def test_unit_volume(self):
        sol = solve_box(1.0)
        assert sol == (1.0, 1.0, 1.0, 6.0)

    def test_volume_1000_matches_2d_oracle(self):
        # verified against a 2000x2000 brute-force grid before freezing;
        # re-checked here with a smaller refined grid
        from optishape.oracle import brute_min, resolution

        sol = solve_box(1000.0)
        assert sol.x == pytest.approx(10.0, rel=1e-14)
        assert sol.surface_area == pytest.approx(600.0, rel=1e-12)
        bx, by, _ = brute_min(
            lambda x, y: 2.0 * (x * y + 1000.0 / y + 1000.0 / x), (5.0, 15.0), (5.0, 15.0)
        )
        assert abs(bx - sol.x) <= 4.0 * resolution(5.0, 15.0)
        assert abs(by - sol.y) <= 4.0 * resolution(5.0, 15.0)

    def test_numeric_agrees(self):
        closed = solve_box(123.456)
        numeric = solve_box_numeric(123.456)
        for got, want in zip(numeric, closed):
            assert got == pytest.approx(want, rel=1e-6)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            solve_box(-3.0)


class TestFence:
    def test_classic_three_pen_field(self):
        sol = solve_fence(2400.0, FenceLayout(4, 2))
        assert sol.x == 300.0
        assert sol.y == 600.0
        assert sol.vertical_total == 1200.0
        assert sol.horizontal_total == 1200.0
        assert sol.area == 180000.0

    def test_plain_rectangle_layout_matches_square(self):
        sol = solve_fence(100.0, FenceLayout(2, 2))
        square = solve_rectangle(100.0)
        assert sol.x == square.x
        assert sol.y == square.y

    def test_three_vertical_runs(self):
        # brute-force grid over L in 1e7 steps confirmed L*=600 before freezing
        sol = solve_fence(1200.0, FenceLayout(3, 2))
        assert sol.vertical_total == 600.0
        assert sol.x == 200.0
        assert sol.y == 300.0
        assert sol.area == 60000.0

    def test_numeric_agrees(self):
        for fence, layout in [(2400.0, FenceLayout(4, 2)), (977.5, FenceLayout(7, 3))]:
            closed = solve_fence(fence, layout)
            numeric = solve_fence_numeric(fence, layout)
            assert numeric.x == pytest.approx(closed.x, rel=1e-6)
            assert numeric.y == pytest.approx(closed.y, rel=1e-6)

    def test_solution_consistency(self):
        sol = solve_fence(7777.0, FenceLayout(5, 4))
        assert sol.vertical_total == pytest.approx(5 * sol.x, rel=1e-12)
        assert sol.horizontal_total == pytest.approx(4 * sol.y, rel=1e-12)
        assert sol.vertical_total + sol.horizontal_total == pytest.approx(
            7777.0, abs=7777.0 * 1e-9
        )

    @given(
        fence=st.floats(min_value=1.0, max_value=1e6),
        v=st.integers(min_value=2, max_value=50),
        h=st.integers(min_value=2, max_value=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_half_split_property(self, fence, v, h):
        sol = solve_fence(fence, FenceLayout(v, h))
        assert abs(sol.vertical_total - fence / 2.0) <= 1e-9 * fence
        assert abs(sol.horizontal_total - fence / 2.0) <= 1e-9 * fence

    # The vertex of the area parabola, halfway between its roots 0 and the
    # fence: exact at every positive float, subnormals included.
    @given(fence=st.floats(min_value=math.ulp(0.0), max_value=sys.float_info.max),
           v=st.integers(min_value=2, max_value=50), h=st.integers(min_value=2, max_value=50))
    @example(fence=math.ulp(0.0), v=4, h=2)
    @example(fence=sys.float_info.max, v=4, h=2)
    @settings(max_examples=200, deadline=None)
    def test_half_split_is_exact(self, fence, v, h):
        assert solve_fence(fence, FenceLayout(v, h)).vertical_total.hex() == (fence / 2).hex()

    # Below the normal range a field has too few digits to hold the exact
    # answer: each lies within one step of 5e-324 of it.  The fence halves
    # the length twice, once into the runs and once into x or y, so the
    # worst case is 0.75 steps (y = 0 at fence 1.5e-323 on the 2x2 layout).
    @given(k=st.integers(1, 2**52 - 1), v=st.integers(2, 60), h=st.integers(2, 60))
    @example(k=3, v=2, h=2)
    @example(k=1, v=2, h=2)
    @example(k=2**52 - 1, v=60, h=60)
    @settings(max_examples=300, deadline=None)
    def test_subnormal_fence_is_within_one_step(self, k, v, h):
        fence = k * math.ulp(0.0)
        assert fence < sys.float_info.min
        exact_fence = Fraction(fence)
        exact = FenceSolution(exact_fence / (2 * v), exact_fence / (2 * h),
                              exact_fence / 2, exact_fence / 2, exact_fence**2 / (4 * v * h))
        sol = solve_fence(fence, FenceLayout(v, h))
        step = Fraction(math.ulp(0.0))
        for field, got, want in zip(sol._fields, sol, exact):
            assert abs(Fraction(got) - want) <= step, field

    # 2**500 - 2**447 is the largest float below 2**500.
    @given(v=st.integers(2, 2**500 - 2**447), h=st.integers(2, 2**500 - 2**447),
           t=st.floats(0.0, 1.0), log10_fence=st.floats(-300.0, 300.0))
    @settings(max_examples=200, deadline=None)
    def test_objective_is_unscaled_below_2_to_the_500(self, v, h, t, log10_fence):
        total = 10.0 ** log10_fence
        L = t * total
        want = -(L / float(v)) * ((total - L) / float(h))
        assert problems._fence_objective(total, FenceLayout(v, h))(L).hex() == want.hex()

    def test_invalid_layout_rejected(self):
        with pytest.raises(ValueError):
            FenceLayout(1, 2)
        with pytest.raises(ValueError):
            FenceLayout(4, 0)

    def test_nonpositive_fence_rejected(self):
        with pytest.raises(ValueError):
            solve_fence(0.0, FenceLayout(4, 2))


class TestFenceCurve:
    def test_endpoints_are_zero(self):
        rows = fence_area_curve(2400.0, FenceLayout(4, 2), 7)
        assert rows[0] == (0.0, 0.0)
        assert rows[-1] == (2400.0, 0.0)

    def test_midpoint_is_max_for_odd_counts(self):
        rows = fence_area_curve(2400.0, FenceLayout(4, 2), 9)
        areas = [a for _, a in rows]
        assert max(areas) == areas[4]
        assert rows[4] == (1200.0, 180000.0)

    def test_quarter_point_value(self):
        rows = fence_area_curve(2400.0, FenceLayout(4, 2), 5)
        assert rows[1] == (600.0, 135000.0)  # (600/4) * (1800/2)

    def test_point_count_and_spacing(self):
        rows = fence_area_curve(1000.0, FenceLayout(3, 2), 11)
        assert len(rows) == 11
        ls = [L for L, _ in rows]
        steps = [b - a for a, b in zip(ls, ls[1:])]
        assert all(s == pytest.approx(100.0, rel=1e-12) for s in steps)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fence_area_curve(2400.0, FenceLayout(4, 2), 1)

    @given(v=st.integers(2, 50), h=st.integers(2, 50), n_points=st.integers(2, 200),
           log10_fence=st.floats(min_value=-300.0, max_value=300.0))
    @settings(max_examples=200, deadline=None)
    def test_rows_are_the_negated_objective_bit_for_bit(self, v, h, n_points, log10_fence):
        total = 10.0 ** log10_fence
        layout = FenceLayout(v, h)
        neg_area = problems._fence_objective(total, layout)
        rows = fence_area_curve(total, layout, n_points)
        assert len(rows) == n_points
        for (L, area), want_L in zip(rows, linspace(0.0, total, n_points)):
            want = -neg_area(want_L)
            assert L == want_L
            assert area == want and math.copysign(1.0, area) == math.copysign(1.0, want), L


class TestCan:
    def test_litre_can(self):
        sol = solve_can(1000.0, CIRCLE)
        assert sol.r == pytest.approx((500.0 / math.pi) ** (1.0 / 3.0), rel=1e-14)
        assert sol.r == pytest.approx(5.41926070139289, abs=1e-9)
        assert sol.h == pytest.approx(2.0 * sol.r, rel=1e-12)
        assert sol.volume == pytest.approx(1000.0, rel=1e-12)

    def test_round_numbers(self):
        sol = solve_can(16.0 * math.pi, CIRCLE)
        assert sol.r == pytest.approx(2.0, rel=1e-14)
        assert sol.h == pytest.approx(4.0, rel=1e-14)

    def test_square_base(self):
        # confirmed against a 2e6-point grid over r before freezing
        sol = solve_can(2.0, SQUARE)
        assert sol.r == pytest.approx(0.6299605249474366, rel=1e-13)
        assert sol.h == pytest.approx(2.0 * sol.r, rel=1e-12)

    def test_numeric_agrees(self):
        for base in (CIRCLE, SQUARE, HEXAGON):
            closed = solve_can(1000.0, base)
            numeric = solve_can_numeric(1000.0, base)
            assert numeric.r == pytest.approx(closed.r, rel=1e-6)
            assert numeric.h == pytest.approx(closed.h, rel=1e-6)

    def test_solution_consistency(self):
        c = area_coefficient(HEXAGON)
        sol = solve_can(37.5, HEXAGON)
        assert sol.volume == pytest.approx(c * sol.r**2 * sol.h, rel=1e-12)
        assert sol.surface_area == pytest.approx(
            2.0 * c * sol.r**2 + 2.0 * c * sol.r * sol.h, rel=1e-12
        )

    def test_nonpositive_volume_rejected(self):
        with pytest.raises(ValueError):
            solve_can(0.0, CIRCLE)


class TestCanDual:
    def test_square_prism(self):
        # confirmed against a 2e6-point grid over r before freezing
        sol = solve_can_dual(24.0, SQUARE)
        assert sol.r == pytest.approx(1.0, rel=1e-12)
        assert sol.h == pytest.approx(2.0, rel=1e-12)
        assert sol.volume == pytest.approx(8.0, rel=1e-12)

    def test_litre_round_trip(self):
        sa = solve_can(1000.0, CIRCLE).surface_area
        assert sa == pytest.approx(553.5810445932084, rel=1e-12)
        back = solve_can_dual(sa, CIRCLE)
        assert back.volume == pytest.approx(1000.0, rel=1e-9)

    def test_unit_cube_check(self):
        sol = solve_can_dual(6.0, SQUARE)
        assert sol.r == pytest.approx(0.5, rel=1e-12)
        assert sol.h == pytest.approx(1.0, rel=1e-12)
        assert sol.volume == pytest.approx(1.0, rel=1e-12)

    def test_numeric_agrees(self):
        for base in (CIRCLE, SQUARE, HEXAGON):
            closed = solve_can_dual(100.0, base)
            numeric = solve_can_dual_numeric(100.0, base)
            assert numeric.r == pytest.approx(closed.r, rel=1e-6)
            assert numeric.volume == pytest.approx(closed.volume, rel=1e-6)

    def test_nonpositive_surface_rejected(self):
        with pytest.raises(ValueError):
            solve_can_dual(-1.0, CIRCLE)


class TestRectSemicircle:
    def test_unit_radius(self):
        sol = solve_rect_semicircle(1.0)
        assert sol.x == pytest.approx(SQRT2_2, rel=1e-14)
        assert sol.y == sol.x
        assert sol.area == pytest.approx(1.0, rel=1e-14)

    def test_radius_two(self):
        sol = solve_rect_semicircle(2.0)
        assert sol.x == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert sol.area == pytest.approx(4.0, rel=1e-14)

    def test_radius_ten_area(self):
        assert solve_rect_semicircle(10.0).area == pytest.approx(100.0, rel=1e-14)

    def test_numeric_agrees(self):
        closed = solve_rect_semicircle(1.0)
        numeric = solve_rect_semicircle_numeric(1.0)
        assert numeric.x == pytest.approx(closed.x, rel=1e-6)
        assert numeric.y == pytest.approx(closed.y, rel=1e-6)

    @given(k=st.floats(min_value=1e-2, max_value=1e3))
    @settings(max_examples=50, deadline=None)
    def test_scaling(self, k):
        unit = solve_rect_semicircle(1.0)
        scaled = solve_rect_semicircle(k)
        assert scaled.x == pytest.approx(k * unit.x, rel=1e-12)
        assert scaled.area == pytest.approx(k * k * unit.area, rel=1e-12)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            solve_rect_semicircle(0.0)


class TestContainmentMax:
    def test_optimal_ellipse_touches_at_the_vertex(self):
        # vertex at s = 1/2, value exactly one up to rounding
        assert containment_max(SQRT6_3, SQRT2_3) == pytest.approx(1.0, abs=1e-15)

    def test_circle_peaks_at_the_top(self):
        # a == b: the quadratic is linear in s, so the top point s = 1 wins
        assert containment_max(0.25, 0.25) == 0.25

    def test_tall_ellipse_peaks_at_the_top(self):
        # a < b: convex in s, so an end point wins; the top is (0, 2b)
        assert containment_max(0.2, 0.4) == pytest.approx(0.64, rel=1e-15)

    def test_wide_flat_ellipse_peaks_near_the_diameter(self):
        a, b = 0.9, 0.1
        s = b * b / (a * a - b * b)
        expected = (b * b - a * a) * s * s + 2.0 * b * b * s + a * a + b * b
        assert containment_max(a, b) == pytest.approx(expected, rel=1e-15)
        assert containment_max(a, b) > a * a


def containment_max_theta_scan(a, b):
    """Brute-force counterpart of containment_max, its reference here.

    Scans the squared center distance of (a*cos(theta), b + b*sin(theta))
    over one full turn of theta with the oracle; independent of the closed
    form in sin(theta).  Falls short of the true maximum by at most the
    curvature times the squared final cell, ~1e-13.  The distance has one
    maximum in sin(theta), so at most two in theta, at theta and pi - theta
    with the same value: the oracle's 21-node first round may refine either
    one.
    """
    _, neg_max = oracle.brute_min(
        lambda t: -((a * math.cos(t)) ** 2 + (b * (1.0 + math.sin(t))) ** 2),
        (-math.pi / 2.0, 3.0 * math.pi / 2.0))
    return -neg_max


class TestEllipseFits:
    def test_optimal_ellipse_is_tangent(self):
        assert containment_max(SQRT6_3, SQRT2_3) <= 1.0

    def test_tall_ellipse_pokes_out(self):
        assert containment_max(0.9, 0.9) > 1.0

    def test_small_circle_fits(self):
        assert containment_max(0.1, 0.1) <= 1.0

    @given(
        a=st.floats(min_value=0.05, max_value=1.2),
        b=st.floats(min_value=0.05, max_value=0.7),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_analytic_containment(self, a, b):
        # the oracle's theta scan is the independent reference; skip the
        # knife edge where rounding and the scan's ~1e-11 shortfall make the
        # two routes legitimately disagree
        scanned = containment_max_theta_scan(a, b)
        assert containment_max(a, b) == pytest.approx(scanned, abs=1e-9)
        if abs(scanned - 1.0) > 1e-9:
            assert (containment_max(a, b) <= 1.0) == (scanned <= 1.0)


def frontier_a_50_digits(b):
    """frontier_a's formula, a^2 = b^2 + ((1 - 2b^2) + sqrt(1 - 4b^2)) / 2,
    evaluated at 50 significant digits."""
    with mpmath.workdps(50):
        b = mpmath.mpf(b)
        return mpmath.sqrt(b * b + ((1 - 2 * b * b) + mpmath.sqrt(1 - 4 * b * b)) / 2)


class TestFrontierA:
    # The radicand is taken as (1 - 2b)(1 + 2b): as 1 - 4b^2 it cancels near
    # b = 1/2, 721 ulps off at b = 0.49999999628598163.
    @given(b=st.one_of(st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
                       st.floats(min_value=0.5 - 1e-9, max_value=0.5)))
    @example(b=5e-324)
    @example(b=1e-310)
    @example(b=1e-8)
    @example(b=0.49999999628598163)
    @example(b=math.nextafter(0.5, 0.0))
    @settings(max_examples=500, deadline=None)
    def test_within_2_ulps_of_50_digits(self, b):
        want = frontier_a_50_digits(b)
        assert abs(mpmath.mpf(frontier_a(b)) - want) <= 2.0 * math.ulp(float(want))

    # On the frontier the ellipse touches the arc: its largest squared
    # distance from the center is 1 to rounding.
    @given(b=st.floats(min_value=0.0, max_value=0.49, exclude_min=True))
    @example(b=5e-324)
    @example(b=0.49)
    @settings(max_examples=300, deadline=None)
    def test_ellipse_on_the_frontier_is_tangent(self, b):
        assert abs(containment_max(frontier_a(b), b) - 1.0) <= 2.0 * math.ulp(1.0)

    def test_half_height(self):
        assert frontier_a(0.5) == math.sqrt(0.5)

    def test_too_tall_raises(self):
        with pytest.raises(ValueError):
            frontier_a(math.nextafter(0.5, 1.0))

    # Above b = 1/2 the top point (0, 2b) leaves the disk for any a.
    @given(b=st.floats(min_value=0.5, exclude_min=True))
    @example(b=math.inf)
    @settings(max_examples=200, deadline=None)
    def test_any_b_above_half_raises(self, b):
        with pytest.raises(ValueError):
            frontier_a(b)

    def test_golden_frontier_point(self):
        assert abs(frontier_a(SQRT2_3) - SQRT6_3) <= math.ulp(SQRT6_3)

    def test_flat_sliver_spans_the_diameter(self):
        assert frontier_a(1e-4) > 0.99

    # Near b = 0 the frontier is 1 - b^2/2 - 5b^4/8 + ..., which rounds to
    # 1.0 itself below b = 1e-8 or so.
    @pytest.mark.parametrize("b", [1e-9, 1e-12, 1e-200, 5e-324])
    def test_flattest_slivers_reach_the_rim(self, b):
        assert frontier_a(b) == 1.0

    @given(b=st.floats(min_value=5e-324, max_value=1e-4))
    @settings(max_examples=200, deadline=None)
    def test_any_small_b_follows_the_flat_series(self, b):
        assert abs(frontier_a(b) - (1.0 - b * b / 2.0 - 5.0 * b**4 / 8.0)) <= math.ulp(1.0)

    # The frontier parts the ellipses that fit from those that do not.
    @given(b=st.floats(min_value=0.01, max_value=0.49))
    @settings(max_examples=200, deadline=None)
    def test_brackets_the_fit(self, b):
        a = frontier_a(b)
        assert containment_max(a * (1.0 - 1e-9), b) <= 1.0 < containment_max(a * (1.0 + 1e-9), b)

    # A taller ellipse must be narrower; a relative step of 1e-6 in b moves
    # the frontier by far more than its rounding.
    @given(b=st.floats(min_value=1e-4, max_value=0.49))
    @settings(max_examples=200, deadline=None)
    def test_decreasing_in_b(self, b):
        assert frontier_a(b * (1.0 + 1e-6)) < frontier_a(b)

    @given(b=st.floats(min_value=0.0, max_value=0.5, exclude_min=True))
    @settings(max_examples=200, deadline=None)
    def test_stays_between_the_half_height_and_the_radius(self, b):
        assert math.sqrt(0.5) <= frontier_a(b) <= 1.0

    # The b search reads the frontier once per evaluation it reports (41),
    # and once more for its answer.
    def test_b_search_evaluates_the_frontier_once_per_evaluation(self, monkeypatch):
        problems._solve_unit_ellipse_semicircle.cache_clear()
        calls = count_calls(monkeypatch, "frontier_a")
        solve_ellipse_semicircle_numeric()
        assert len(calls) == 42

    # The search never evaluates its bracket's ends, so the flat end b = 0
    # needs no clamp; its largest b is 0.483.
    def test_b_search_never_evaluates_the_ends(self, monkeypatch):
        problems._solve_unit_ellipse_semicircle.cache_clear()
        calls = count_calls(monkeypatch, "frontier_a")
        solve_ellipse_semicircle_numeric()
        assert 0.0 < min(b for (b,) in calls) and max(b for (b,) in calls) < 0.49

    def test_numeric_ellipse_lies_on_the_frontier(self):
        sol = solve_ellipse_semicircle_numeric()
        assert sol.a == frontier_a(sol.b)


class TestSolveEllipse:
    def test_golden_axes(self):
        sol = solve_ellipse_semicircle()
        assert sol.a == pytest.approx(SQRT6_3, abs=1e-6)
        assert sol.b == pytest.approx(SQRT2_3, abs=1e-6)

    def test_area(self):
        sol = solve_ellipse_semicircle()
        assert sol.area == pytest.approx(math.pi * math.sqrt(12.0) / 9.0, abs=1e-6)
        assert sol.area == pytest.approx(1.2091995761561452, abs=1e-6)

    def test_contacts(self):
        sol = solve_ellipse_semicircle()
        assert len(sol.contacts) == 2
        left, right = sol.contacts
        assert left.x == pytest.approx(-SQRT2_2, abs=1e-6)
        assert right.x == pytest.approx(SQRT2_2, abs=1e-6)
        assert left.y == pytest.approx(SQRT2_2, abs=1e-6)
        assert right.y == pytest.approx(SQRT2_2, abs=1e-6)

    def test_contacts_lie_on_both_curves(self):
        sol = solve_ellipse_semicircle()
        for p in sol.contacts:
            assert abs(p.x**2 + p.y**2 - 1.0) <= 1e-9
            on_ellipse = p.x**2 / sol.a**2 + (p.y - sol.b) ** 2 / sol.b**2
            assert abs(on_ellipse - 1.0) <= 1e-9

    def test_axes_ordering_invariant(self):
        sol = solve_ellipse_semicircle()
        assert 0.0 < sol.b <= sol.a < 1.0

    def test_scaled_radius(self):
        unit = solve_ellipse_semicircle()
        scaled = solve_ellipse_semicircle(2.5)
        assert scaled.a == pytest.approx(2.5 * unit.a, rel=1e-12)
        assert scaled.b == pytest.approx(2.5 * unit.b, rel=1e-12)
        assert scaled.area == pytest.approx(2.5**2 * unit.area, rel=1e-12)
        assert scaled.contacts[1].x == pytest.approx(2.5 * unit.contacts[1].x, rel=1e-12)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            solve_ellipse_semicircle(-1.0)
        with pytest.raises(ValueError):
            solve_ellipse_semicircle_numeric(0.0)

    def test_closed_form_is_tangent_at_the_rectangle_corners(self):
        sol = solve_ellipse_semicircle()
        assert containment_max(sol.a, sol.b) == 1.0
        assert [tuple(p) for p in sol.contacts] == [
            (pytest.approx(x, abs=1e-15), pytest.approx(SQRT2_2, abs=1e-15))
            for x in (-SQRT2_2, SQRT2_2)
        ]

    def test_second_radius_solves_no_contacts(self, monkeypatch):
        problems._closed_unit_ellipse.cache_clear()
        calls = count_calls(monkeypatch, "intersect_ellipse_circle")
        unit = solve_ellipse_semicircle(1.0)
        assert len(calls) == 1
        scaled = solve_ellipse_semicircle(3.7)
        assert len(calls) == 1
        assert (unit.a, unit.b, unit.area, tuple(map(tuple, unit.contacts))) == (
            0.8164965809277259, 0.47140452079103173, 1.2091995761561452,
            ((-0.7071067811865472, 0.7071067811865478), (0.7071067811865472, 0.7071067811865478)))
        assert (scaled.a, scaled.b, scaled.area, tuple(map(tuple, scaled.contacts))) == (
            3.021037349432586, 1.7441967269268175, 16.55394219757763,
            ((-2.616295090390225, 2.616295090390227), (2.616295090390225, 2.616295090390227)))

    def test_numeric_agrees(self):
        for radius in (1.0, 3.7):
            closed = solve_ellipse_semicircle(radius)
            numeric = solve_ellipse_semicircle_numeric(radius)
            assert numeric.a == pytest.approx(closed.a, rel=1e-6)
            assert numeric.b == pytest.approx(closed.b, rel=1e-6)
            assert numeric.area == pytest.approx(closed.area, rel=1e-6)

    # The closed axes are the golden values sqrt(6)/3 and sqrt(2)/3 to the
    # bit, so the gap solve reports is the numeric axes' distance from them.
    def test_closed_numeric_gap_is_the_numeric_axes_from_the_golden_values(self):
        numeric = solve_ellipse_semicircle_numeric(1.0)
        assert PROBLEMS["ellipse-semicircle"].solve(1.0)[1]["closed_numeric_gap"] == max(
            abs(numeric.a - SQRT6_3), abs(numeric.b - SQRT2_3))


class TestIntersectEllipseCircle:
    def test_optimal_ellipse_touches_at_rectangle_corners(self):
        points = intersect_ellipse_circle(SQRT6_3, SQRT2_3)
        assert len(points) == 2
        assert points[0].x == pytest.approx(-SQRT2_2, abs=1e-9)
        assert points[1].x == pytest.approx(SQRT2_2, abs=1e-9)
        assert points[0].y == pytest.approx(SQRT2_2, abs=1e-9)
        assert points[1].y == pytest.approx(SQRT2_2, abs=1e-9)

    def test_frontier_ellipse_contacts_lie_on_both_curves(self):
        a, b = frontier_a(0.3), 0.3
        points = intersect_ellipse_circle(a, b)
        assert [p.x for p in points] == [-points[1].x, points[1].x] and points[1].x > 0.0
        for p in points:
            assert abs(p.x**2 + p.y**2 - 1.0) <= 1e-12
            assert abs(p.x**2 / a**2 + (p.y - b) ** 2 / b**2 - 1.0) <= 1e-6

    @given(b=st.floats(min_value=0.01, max_value=0.49))
    @settings(max_examples=200, deadline=None)
    def test_any_frontier_ellipse_contacts_lie_on_both_curves(self, b):
        a = frontier_a(b)
        points = intersect_ellipse_circle(a, b)
        assert len(points) == 2 and points[0].x == -points[1].x < 0.0
        for p in points:
            assert abs(p.x**2 + p.y**2 - 1.0) <= 1e-12
            assert abs(p.x**2 / a**2 + (p.y - b) ** 2 / b**2 - 1.0) <= 1e-12

    # The contact is the vertex of a quadratic whose leading term is
    # a^2 - b^2, so an ellipse that is not wider than tall has none.
    @pytest.mark.parametrize("a, b", [(0.5, 0.5), (0.3, 0.4), (1e-200, 1e-200),
                                      (5e-324, 5e-324)])
    def test_axes_not_wider_than_tall_rejected(self, a, b):
        with pytest.raises(ValueError, match="a tangent ellipse has a > b"):
            intersect_ellipse_circle(a, b)

    # Where a > b holds but a^2 - b^2 underflows to 0 or a^2 overflows, the
    # error names the difference of squares, not the axes' order.
    @pytest.mark.parametrize("a, b", [(1e-200, 1e-201), (1e200, 1.0)])
    def test_squares_out_of_range_rejected(self, a, b):
        with pytest.raises(ValueError, match=r"a\^2 - b\^2 must be positive and finite") as exc:
            intersect_ellipse_circle(a, b)
        assert "a > b" not in str(exc.value)

    @given(a=st.floats(min_value=5e-324, max_value=1e308),
           b=st.floats(min_value=5e-324, max_value=1e308))
    def test_any_positive_axes_give_two_contacts_or_a_value_error(self, a, b):
        if a <= b:
            with pytest.raises(ValueError):
                intersect_ellipse_circle(a, b)
            return
        try:
            points = intersect_ellipse_circle(a, b)
        except ValueError:  # a^2 - b^2 underflows to 0 or overflows
            return
        assert len(points) == 2 and points[0] == (-points[1].x, points[1].y)
        assert 0.0 <= points[1].y <= 1.0
        assert abs(points[1].x ** 2 + points[1].y ** 2 - 1.0) <= 1e-15

    def test_nonpositive_axes_rejected(self):
        with pytest.raises(ValueError):
            intersect_ellipse_circle(-0.5, 0.5)


class TestCatalogInvariants:
    def test_h_equals_2r_for_all_bases_and_volumes(self):
        for base in SWEEP_BASES:
            for volume in SWEEP_VOLUMES:
                closed = solve_can(volume, base)
                assert abs(closed.h / closed.r - 2.0) <= 1e-6
                numeric = solve_can_numeric(volume, base)
                assert abs(numeric.h / numeric.r - 2.0) <= 1e-6

    def test_duality_round_trip(self):
        for base in SWEEP_BASES:
            for volume in SWEEP_VOLUMES:
                sa = solve_can(volume, base).surface_area
                back = solve_can_dual(sa, base)
                assert back.volume == pytest.approx(volume, rel=1e-6)

    def test_can_scaling(self):
        for base in SWEEP_BASES:
            r1 = solve_can(1.0, base).r
            for k in (0.5, 2.0, 10.0):
                assert solve_can(k**3, base).r == pytest.approx(k * r1, rel=1e-9)

    def test_randomized_half_split(self):
        rng = random.Random(20240817)
        for _ in range(200):
            fence = rng.uniform(1.0, 1e6)
            layout = FenceLayout(rng.randint(2, 50), rng.randint(2, 50))
            sol = solve_fence(fence, layout)
            assert abs(sol.vertical_total - fence / 2.0) <= 1e-9 * fence

    def test_contacts_coincide_with_rectangle_vertices(self):
        ellipse = solve_ellipse_semicircle()
        rect = solve_rect_semicircle(1.0)
        assert len(ellipse.contacts) == 2
        left, right = ellipse.contacts
        assert left.x == pytest.approx(-rect.x, abs=1e-6)
        assert right.x == pytest.approx(rect.x, abs=1e-6)
        assert left.y == pytest.approx(rect.y, abs=1e-6)
        assert right.y == pytest.approx(rect.y, abs=1e-6)


# Every catalog entry has the same shape: a closed-form and a numeric
# solver, both on the problems module and exported from the package.
@pytest.mark.parametrize("name", list(PROBLEMS))
def test_every_problem_has_closed_and_numeric_solvers(name):
    stem = PROBLEMS[name].stem
    for solver in (stem, stem + "_numeric"):
        assert callable(getattr(problems, solver))
        assert getattr(optishape, solver) is getattr(problems, solver)


# Each numeric solver searches once on the unit instance and rescales that
# answer.  At scale 1 the rescale is exact, so these are the bits the unit
# searches return.
UNIT_BITS = {
    ("rectangle",): (0.25, 0.25, 0.0625),
    ("box",): (0.999999990006512, 0.999999990006512, 1.0000000199869763, 6.0),
    ("fence", FenceLayout(4, 2)): (0.125, 0.25, 0.5, 0.5, 0.03125),
    ("fence", FenceLayout(2, 2)): (0.25, 0.25, 0.5, 0.5, 0.0625),
    ("fence", FenceLayout(5, 3)): (0.09999999912597393, 0.1666666681233768,
                                   0.49999999562986963, 0.5000000043701304,
                                   0.016666666666666666),
    ("fence", FenceLayout(11, 40)): (0.045454545454545456, 0.0125, 0.5, 0.5,
                                     0.0005681818181818183),
    ("can", CIRCLE): (0.5419260652704905, 1.0838521597537725, 5.535810445932086,
                      1.0),
    ("can", Shape(3)): (0.45824321221516484, 0.9164864251365462,
                                        6.546741815830327, 1.0),
    ("can", SQUARE): (0.4999999948255967, 1.0000000206976136, 6.0, 1.0),
    ("can", HEXAGON): (0.5245575251849368, 1.049115089525198, 5.7191057579816205, 1.0),
    ("can", Shape(12)): (0.5377479550658435, 1.0754959180702113,
                                         5.5788217590737315, 0.9999999999999999),
    ("can-dual", CIRCLE): (0.2303294316757509, 0.46065887118233834, 1.0,
                           0.07677647766029677),
    ("can-dual", Shape(3)): (0.1790949889780541, 0.35818997591132573, 1.0,
                                             0.05969832954575234),
    ("can-dual", SQUARE): (0.20412414407528184, 0.40824829509046184, 1.0,
                           0.06804138174397718),
    ("can-dual", HEXAGON): (0.21934566758251445, 0.43869134262243475, 1.0,
                            0.07311522294180514),
    ("can-dual", Shape(12)): (0.22767089934066465, 0.45534180642178007, 1.0,
                                              0.07589030021024659),
    ("rect-semicircle",): (0.7071067798427677, 0.7071067825303273, 1.0),
    ("ellipse-semicircle",): (0.8164965813098702, 0.4714045205704006, 1.2091995761561452,
                              ((-0.7071067821793873, 0.7071067801937078),
                               (0.7071067821793873, 0.7071067801937078))),
}

# The numeric solvers and the closed ellipse carry a unit answer to the
# requested scale, one product per field.  These are the bits of every field
# at four scales (two that round differently when a product's factors are
# grouped otherwise, and two small and large enough to underflow and
# overflow), as one generic per-degree helper computed them; the products
# each solver writes out must give the same bits.
INF = math.inf
SCALED_BITS = {
    ("solve_rectangle_numeric", 3.7): (0.925, 0.925, 0.8556250000000001),
    ("solve_rectangle_numeric", 1e-300): (2.5e-301, 2.5e-301, 0.0),
    ("solve_rectangle_numeric", 1e+300): (2.5e+299, 2.5e+299, INF),
    ("solve_rectangle_numeric", 0.37): (0.0925, 0.0925, 0.00855625),
    ("solve_box_numeric", 3.7): (1.5466803583153035, 1.5466803583153035, 1.5466804046854994,
                                 14.353321071669617),
    ("solve_box_numeric", 1e-300): (9.999999900065247e-101, 9.999999900065247e-101,
                                    1.0000000199869892e-100, 6.000000000000154e-200),
    ("solve_box_numeric", 1e+300): (9.999999900064992e+99, 9.999999900064992e+99,
                                    1.0000000199869636e+100, 5.999999999999846e+200),
    ("solve_box_numeric", 0.37): (0.7179054280324525, 0.7179054280324525, 0.7179054495555909,
                                  3.0923292833970644),
    ("solve_fence_numeric", 3.7): (0.36999999676610357, 0.6166666720564942, 1.8499999838305177,
                                   1.8500000161694825, 0.22816666666666668),
    ("solve_fence_numeric", 1e-300): (9.999999912597394e-302, 1.666666681233768e-301,
                                      4.999999956298696e-301, 5.000000043701304e-301, 0.0),
    ("solve_fence_numeric", 1e+300): (9.999999912597394e+298, 1.666666681233768e+299,
                                      4.999999956298697e+299, 5.000000043701304e+299, INF),
    ("solve_fence_numeric", 0.37): (0.03699999967661036, 0.061666667205649416,
                                    0.18499999838305176, 0.18500000161694824,
                                    0.0022816666666666667),
    ("solve_can_numeric", 3.7): (0.8113228291179719, 1.6226457187967156, 13.681360197857439,
                                 3.6999999999999993),
    ("solve_can_numeric", 1e-300): (5.245575251849435e-101, 1.0491150895252114e-100,
                                    5.719105757981767e-200, 1.0000000000000385e-300),
    ("solve_can_numeric", 1e+300): (5.245575251849301e+99, 1.0491150895251845e+100,
                                    5.719105757981473e+200, 9.999999999999615e+299),
    ("solve_can_numeric", 0.37): (0.37658269840891073, 0.7531654249276417, 2.947559701708555,
                                  0.37000000000000005),
    ("solve_can_dual_numeric", 3.7): (0.421919815821336, 0.8438396459872785, 3.7,
                                      0.520367775794928),
    ("solve_can_dual_numeric", 1e-300): (2.1934566758251444e-151, 4.3869134262243475e-151, 1e-300,
                                         0.0),
    ("solve_can_dual_numeric", 1e+300): (2.1934566758251446e+149, 4.386913426224348e+149,
                                         9.999999999999999e+299, INF),
    ("solve_can_dual_numeric", 0.37): (0.13342276079541676, 0.2668455261269964,
                                       0.36999999999999994, 0.01645547392467808),
    ("solve_rect_semicircle_numeric", 3.7): (2.6162950854182405, 2.616295095362211,
                                             13.690000000000001),
    ("solve_rect_semicircle_numeric", 1e-300): (7.071067798427677e-301, 7.071067825303274e-301,
                                                0.0),
    ("solve_rect_semicircle_numeric", 1e+300): (7.071067798427677e+299, 7.071067825303273e+299,
                                                INF),
    ("solve_rect_semicircle_numeric", 0.37): (0.26162950854182404, 0.2616295095362211, 0.1369),
    ("solve_ellipse_semicircle_numeric", 3.7): (
        3.02103735084652, 1.7441967261104823, 16.55394219757763,
        ((-2.616295094063733, 2.6162950867167187), (2.616295094063733, 2.6162950867167187))),
    ("solve_ellipse_semicircle_numeric", 1e-300): (
        8.164965813098703e-301, 4.7140452057040064e-301, 0.0,
        ((-7.071067821793873e-301, 7.071067801937078e-301),
         (7.071067821793873e-301, 7.071067801937078e-301))),
    ("solve_ellipse_semicircle_numeric", 1e+300): (
        8.164965813098703e+299, 4.714045205704006e+299, INF,
        ((-7.071067821793873e+299, 7.071067801937077e+299),
         (7.071067821793873e+299, 7.071067801937077e+299))),
    ("solve_ellipse_semicircle_numeric", 0.37): (
        0.302103735084652, 0.1744196726110482, 0.16553942197577626,
        ((-0.2616295094063733, 0.2616295086716719), (0.2616295094063733, 0.2616295086716719))),
    ("solve_ellipse_semicircle", 3.7): (
        3.021037349432586, 1.7441967269268175, 16.55394219757763,
        ((-2.616295090390225, 2.616295090390227), (2.616295090390225, 2.616295090390227))),
    ("solve_ellipse_semicircle", 1e-300): (
        8.16496580927726e-301, 4.7140452079103176e-301, 0.0,
        ((-7.071067811865473e-301, 7.0710678118654784e-301),
         (7.071067811865473e-301, 7.0710678118654784e-301))),
    ("solve_ellipse_semicircle", 1e+300): (
        8.16496580927726e+299, 4.714045207910318e+299, INF,
        ((-7.071067811865473e+299, 7.071067811865479e+299),
         (7.071067811865473e+299, 7.071067811865479e+299))),
    ("solve_ellipse_semicircle", 0.37): (
        0.3021037349432586, 0.17441967269268174, 0.16553942197577626,
        ((-0.2616295090390225, 0.26162950903902266), (0.2616295090390225, 0.26162950903902266))),
}
SCALED_PROBLEMS = [name for name in PROBLEMS if name != "ellipse-semicircle"]
EXTRA_ARGS = {"fence": (FenceLayout(5, 3),), "can": (HEXAGON,), "can-dual": (HEXAGON,)}
# Each rescaled field's degree in the length scale, and the length scale of
# each problem's size input (the identity where the input is a length).
DEGREES = {"rectangle": (1, 1, 2), "box": (1, 1, 1, 2), "fence": (1, 1, 1, 1, 2),
           "can": (1, 1, 2, 3), "can-dual": (1, 1, 2, 3), "rect-semicircle": (1, 1, 2)}
LENGTH_SCALE = {"box": lambda v: v ** (1.0 / 3.0), "can": lambda v: v ** (1.0 / 3.0),
                "can-dual": math.sqrt}


def _arg_id(x):
    if isinstance(x, FenceLayout):
        return f"{x.v_segments}x{x.h_segments}"
    return "circle" if x.sides is None else f"{x.sides}-gon"


def _key_id(key):
    name, *extra = key
    return " ".join([name, *map(_arg_id, extra)])


def _hex(values):
    """Every float of a (nested) record as its exact hex form, so that the
    sign of a zero counts too."""
    return tuple(v.hex() if isinstance(v, float) else _hex(v) for v in values)


def _solvers(name):
    stem = PROBLEMS[name].stem
    return getattr(problems, stem), getattr(problems, stem + "_numeric")


# The CLI refuses an infinite flag when it parses it; in the library every
# solver and the fence curve refuse an infinite scale as they refuse 0.
INFINITE_SCALE_ARGS = {
    **{solver: EXTRA_ARGS.get(name, ()) for name, p in PROBLEMS.items()
       for solver in (p.stem, p.stem + "_numeric")},
    "fence_area_curve": (FenceLayout(2, 2), 3),
}


@pytest.mark.parametrize("solver", list(INFINITE_SCALE_ARGS))
def test_infinite_scale_rejected(solver):
    with pytest.raises(ValueError, match="positive and finite"):
        getattr(problems, solver)(math.inf, *INFINITE_SCALE_ARGS[solver])


class TestUnitInstance:
    @pytest.mark.parametrize("key", list(UNIT_BITS), ids=_key_id)
    def test_scale_one_returns_the_unit_search_bits(self, key):
        name, *extra = key
        assert tuple(_solvers(name)[1](1.0, *extra)) == UNIT_BITS[key]

    @pytest.mark.parametrize("key", list(SCALED_BITS), ids=lambda key: f"{key[0]} {key[1]!r}")
    def test_rescale_keeps_every_bit(self, key):
        solver, scale = key
        name = solver[len("solve_"):].removesuffix("_numeric").replace("_", "-")
        got = getattr(problems, solver)(scale, *EXTRA_ARGS.get(name, ()))
        assert _hex(got) == _hex(SCALED_BITS[key])

    # Pinned bits catch a product grouped otherwise only at scales where the
    # grouping rounds differently; this checks every field at any scale
    # against the unit answer times the scale, one factor at a time.
    @pytest.mark.parametrize("name", SCALED_PROBLEMS)
    @given(log10_scale=st.floats(min_value=-320.0, max_value=308.0))
    @settings(max_examples=200, deadline=None)
    def test_rescale_multiplies_one_factor_at_a_time(self, name, log10_scale):
        scale = 10.0 ** log10_scale
        extra = EXTRA_ARGS.get(name, ())
        numeric = _solvers(name)[1]
        s = LENGTH_SCALE.get(name, lambda v: v)(scale)
        want = []
        for v, degree in zip(numeric(1.0, *extra), DEGREES[name]):
            for _ in range(degree):
                v *= s
            want.append(v)
        assert _hex(numeric(scale, *extra)) == _hex(want)

    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_second_scale_runs_no_search(self, monkeypatch, name):
        getattr(problems, "_solve_unit_" + name.replace("-", "_")).cache_clear()
        calls = count_calls(monkeypatch, "golden_section_min")
        numeric = _solvers(name)[1]
        extra = EXTRA_ARGS.get(name, ())
        numeric(1.0, *extra)
        searches = len(calls)
        assert searches > 0
        numeric(1e5, *extra)
        assert len(calls) == searches

    # What each unit search costs, as (golden-section searches, the
    # evaluations they report).  The box runs an inner search per evaluation
    # of its outer one.
    UNIT_SEARCH_COUNTS = {
        "rectangle": (1, 42), "box": (49, 2313), "fence": (1, 42), "can": (1, 49),
        "can-dual": (1, 42), "rect-semicircle": (1, 42), "ellipse-semicircle": (1, 41),
    }

    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_unit_search_counts(self, monkeypatch, name):
        getattr(problems, "_solve_unit_" + name.replace("-", "_")).cache_clear()
        evaluations = []
        golden = problems.golden_section_min

        def counted_golden(*args, **kwargs):
            sol = golden(*args, **kwargs)
            evaluations.append(sol.evaluations)
            return sol
        monkeypatch.setattr(problems, "golden_section_min", counted_golden)
        _solvers(name)[1](1.0, *EXTRA_ARGS.get(name, ()))
        assert (len(evaluations), sum(evaluations)) == self.UNIT_SEARCH_COUNTS[name]

    # Every unit search brackets its whole domain, whatever the answer: from
    # 0 to the domain's upper end, or to 20.0 where the domain (the box's
    # edges, the can's radius) has none.  The can-dual's radius ends where
    # the two bases use up the unit surface area.
    DOMAIN_HI = {"rectangle": 0.5, "box": 20.0, "fence": 1.0, "can": 20.0,
                 "rect-semicircle": 1.0, "ellipse-semicircle": 0.5}

    @pytest.mark.parametrize("name", list(PROBLEMS))
    def test_unit_searches_bracket_their_domain(self, monkeypatch, name):
        calls = count_calls(monkeypatch, "golden_section_min")
        unit = getattr(problems, "_solve_unit_" + name.replace("-", "_"))
        for base in SWEEP_BASES:
            unit.cache_clear()
            calls.clear()
            extra = (base,) if name in ("can", "can-dual") else EXTRA_ARGS.get(name, ())
            _solvers(name)[1](1.0, *extra)
            if name == "can-dual":
                hi = math.sqrt(1.0 / (2.0 * area_coefficient(base)))
            else:
                hi = self.DOMAIN_HI[name]
            assert calls and {args[1:] for args in calls} == {(0.0, hi)}

    def test_every_unit_answer_stays_cached(self):
        caches = {name: f for name, f in vars(problems).items()
                  if name.startswith("_solve_unit_") or name == "_closed_unit_ellipse"}
        assert len(caches) == len(PROBLEMS) + 1
        assert {name: f.cache_info().maxsize for name, f in caches.items()} == dict.fromkeys(caches)

    def test_every_fence_layout_stays_cached(self, monkeypatch):
        problems._solve_unit_fence.cache_clear()
        calls = count_calls(monkeypatch, "golden_section_min")
        layouts = [FenceLayout(v, h) for v in range(2, 51) for h in range(2, 51)]
        for layout in layouts:
            solve_fence_numeric(2400.0, layout)
        assert len(calls) == len(layouts) == 2401
        for layout in layouts:
            solve_fence_numeric(0.37, layout)
        assert len(calls) == 2401

    @pytest.mark.parametrize("name", SCALED_PROBLEMS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_field_matches_the_closed_form_at_any_scale(self, name, data):
        scale = 10.0 ** data.draw(st.floats(min_value=-300.0, max_value=300.0), "log10 scale")
        extra = ()
        if name == "fence":
            extra = (FenceLayout(data.draw(st.integers(2, 50)), data.draw(st.integers(2, 50))),)
        elif name in ("can", "can-dual"):
            extra = (data.draw(st.sampled_from(SWEEP_BASES)),)
        closed_solver, numeric_solver = _solvers(name)
        closed, numeric = closed_solver(scale, *extra), numeric_solver(scale, *extra)
        for field, want, got in zip(closed._fields, closed, numeric):
            if math.isfinite(want) and abs(want) >= sys.float_info.min:
                assert got == pytest.approx(want, rel=1e-6), field
