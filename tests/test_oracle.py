import inspect
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

import optishape.oracle
from optishape.geometry import linspace
from optishape.oracle import EvaluationError, GridSpec, brute_min
from optishape.problems import ellipse_fits

SQRT6_3 = math.sqrt(6.0) / 3.0
SQRT2_3 = math.sqrt(2.0) / 3.0


def counting(f):
    """f, and a list that gets one entry per evaluation."""
    calls = []

    def wrapped(*args):
        calls.append(args)
        return f(*args)

    return wrapped, calls


class TestGridSpec:
    def test_resolution_formula(self):
        grid = GridSpec(0.0, 1.0, points=100)
        assert grid.resolution == 1.0 / (99 * 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 1.0, 101)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, points=2)

    @pytest.mark.parametrize(
        "lo, hi, points",
        [(0.0, 1.0, 10**155), (0.0, 1e-300, 10**13), (-1e308, 1e308, 101)],
        ids=["too-many-nodes", "resolution-is-0", "width-is-inf"],
    )
    def test_resolution_must_be_a_positive_finite_float(self, lo, hi, points):
        with pytest.raises(ValueError, match="positive finite resolution"):
            GridSpec(lo, hi, points)

    def test_scan_is_validated_like_points(self):
        with pytest.raises(ValueError, match="need at least 3 grid points, got 2"):
            GridSpec(lo=0.0, hi=1.0, points=101, scan=2)
        assert GridSpec(lo=0.0, hi=1.0, points=101, scan=3).scan == 3

    def test_resolution_does_not_depend_on_scan(self):
        assert GridSpec(0.0, 1.0, 100, scan=5).resolution == GridSpec(0.0, 1.0, 100).resolution

    @given(
        points=st.integers(min_value=3, max_value=1000),
        width=st.floats(min_value=1e-3, max_value=1e6),
    )
    @settings(max_examples=100, deadline=None)
    def test_resolution_bound(self, points, width):
        grid = GridSpec(0.0, width, points=points)
        assert grid.resolution <= 2.0 * width / points**2


class TestBruteMin:
    def test_vee_function(self):
        x, value = brute_min(lambda v: abs(v - 1.0), GridSpec(0.0, 2.0, 10001))
        assert abs(x - 1.0) <= 2e-4
        assert value == pytest.approx(abs(x - 1.0))

    def test_can_surface_area(self):
        x, _ = brute_min(
            lambda r: 2.0 * math.pi * r * r + 2000.0 / r, GridSpec(0.5, 20.0, 100_000)
        )
        assert x == pytest.approx(5.41926070139289, abs=1e-6)

    def test_fence_area_maximum(self):
        x, _ = brute_min(
            lambda L: -(L / 4.0) * ((2400.0 - L) / 2.0),
            GridSpec(0.0, 2400.0, 10001),
        )
        assert x == pytest.approx(1200.0, abs=1e-4)

    def test_constant_ties_break_to_smallest_argument(self):
        x, value = brute_min(lambda _: 1.0, GridSpec(2.0, 5.0, 101))
        assert x == 2.0
        assert value == 1.0

    def test_nonfinite_value_is_an_error(self):
        grid = GridSpec(0.0, 1.0, 11)
        with pytest.raises(EvaluationError) as excinfo:
            brute_min(lambda x: math.inf if x < 0.35 else x, grid)
        assert "0.0" in str(excinfo.value)

    def test_refinement_tightens_argmin(self):
        x_star = math.e / 3.0
        f = lambda x: (x - x_star) ** 2
        grid = GridSpec(0.0, 2.0, 101)
        x_scan = min(linspace(0.0, 2.0, 101), key=f)  # the first scan alone
        x, _ = brute_min(f, grid)
        assert abs(x - x_star) <= 4.0 * grid.resolution < abs(x_scan - x_star)

    @pytest.mark.parametrize("points, k", [(101, 3), (5001, 4), (2049, 4)])
    def test_refinement_evaluates_21_nodes_per_round(self, points, k):
        # k rounds of tenfold shrinking: the first k with 10**k >= points
        assert 10 ** (k - 1) < points <= 10**k
        f, calls = counting(lambda x: (x - math.e / 3.0) ** 2)
        brute_min(f, GridSpec(0.0, 2.0, points))
        assert len(calls) == points + k * 21

    @pytest.mark.parametrize("points, scan, k", [(5001, 201, 6), (101, 11, 4), (2049, 201, 5)])
    def test_refinement_from_a_coarse_first_scan(self, points, scan, k):
        # k rounds of tenfold shrinking: the first k that takes the scan's
        # cell down to the resolution, whose formula is in points alone
        assert 10 ** (k - 1) < (points - 1) * points / (scan - 1) <= 10**k
        x_star = math.e / 3.0
        f, calls = counting(lambda x: (x - x_star) ** 2)
        grid = GridSpec(0.0, 2.0, points, scan=scan)
        x, _ = brute_min(f, grid)
        assert len(calls) == scan + k * 21
        assert abs(x - x_star) <= grid.resolution

    # A shallow wide well at 0.3 and a deeper narrow one near 0.77.  The
    # 201-node first scan has a cell of 0.005: it finds a well six cells
    # wide, but can miss one narrower than a cell, which the default
    # first scan, as dense as points, still finds.
    @pytest.mark.parametrize("center, half_width, scan, found", [
        (0.7712, 0.015, 201, True),
        (0.7725, 0.002, 201, False),
        (0.7725, 0.002, None, True),
    ], ids=["six-cells-wide", "narrower-than-a-cell", "dense-first-scan"])
    def test_first_scan_and_a_narrow_deeper_well(self, center, half_width, scan, found):
        grid = GridSpec(0.0, 1.0, 5001, scan=scan)
        x, value = brute_min(
            lambda x: min((x - 0.3) ** 2, ((x - center) / half_width) ** 2 - 1.0), grid
        )
        if found:
            assert abs(x - center) <= grid.resolution
            assert value == pytest.approx(-1.0)
        else:
            assert abs(x - 0.3) <= grid.resolution
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_no_grid_names_the_missing_grid(self):
        with pytest.raises(TypeError, match="brute_min.*'grid'"):
            brute_min(lambda x: x)

    @given(
        lo=st.floats(min_value=-100.0, max_value=100.0),
        width=st.floats(min_value=1e-2, max_value=100.0),
        where=st.floats(min_value=0.0, max_value=1.0),
        points=st.integers(min_value=3, max_value=300),
    )
    @settings(max_examples=100, deadline=None)
    def test_quadratic_argmin_within_resolution(self, lo, width, where, points):
        grid = GridSpec(lo, lo + width, points)
        x_star = min(grid.hi, lo + where * (grid.hi - lo))
        x, _ = brute_min(lambda x: (x - x_star) ** 2, grid)
        assert abs(x - x_star) <= grid.resolution

    @pytest.mark.parametrize("slope, end", [(1.0, 0.0), (-1.0, 1.0)])
    def test_minimum_at_an_end_clips_the_window(self, slope, end):
        grid = GridSpec(0.0, 1.0, 101)
        f, calls = counting(lambda x: slope * x)
        x, value = brute_min(f, grid)
        assert x == end
        assert value == slope * end
        # a clipped window is one cell wide, so it shrinks twentyfold a round
        # and takes fewer than the 3 rounds of an unclipped one
        assert len(calls) < 101 + 3 * 21

    @pytest.mark.parametrize("x_star", [1.5, math.e / 2.0])
    def test_resolution_below_float_spacing_terminates(self, x_star):
        # a window 1e-10 wide, so that points**2 cells are finer than floats
        grid = GridSpec(x_star - 4e-11, x_star + 6e-11, 10001)
        assert grid.resolution < math.ulp(x_star) / 100.0
        f, calls = counting(lambda x: (x - x_star) ** 2)
        x, _ = brute_min(f, grid)
        assert abs(x - x_star) <= math.ulp(x_star)
        # tenfold per round from a cell of 1e-14 down to under half an ulp
        # (~1e-16), where the window collapses to the incumbent
        assert len(calls) <= 10001 + 5 * 21


class TestBruteMin2D:
    def test_box_surface_area(self):
        grid = GridSpec(0.5, 4.0, 1000)
        x, y, _ = brute_min(
            lambda a, b: 2.0 * (a * b + 8.0 / b + 8.0 / a), grid, grid
        )
        cell = 3.5 / 999
        assert abs(x - 2.0) <= cell
        assert abs(y - 2.0) <= cell

    def test_paraboloid(self):
        grid = GridSpec(-1.0, 1.0, 101)
        x, y, value = brute_min(lambda a, b: a * a + b * b, grid, grid)
        assert abs(x) <= 1e-5
        assert abs(y) <= 1e-5
        assert value == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize(
        "points_x, points_y, k",
        # the last case refines until the finer y axis reaches its resolution
        [(11, 11, 2), (201, 201, 3), (11, 201, 3)],
    )
    def test_refinement_evaluates_21_by_21_nodes_per_round(self, points_x, points_y, k):
        f, calls = counting(lambda a, b: (a - 2.0 * math.e) ** 2 + (b - 2.0 * math.pi) ** 2)
        brute_min(f, GridSpec(4.0, 20.0, points_x), GridSpec(4.0, 20.0, points_y))
        assert len(calls) == points_x * points_y + k * 21**2

    def test_box_first_scan_of_41_by_41(self):
        # 4 rounds take the 41-node scan's cell of 0.4 below the
        # 201-point resolution of 3.98e-4
        f, calls = counting(lambda a, b: (a - 2.0 * math.e) ** 2 + (b - 2.0 * math.pi) ** 2)
        grid = GridSpec(4.0, 20.0, 201, scan=41)
        x, y, _ = brute_min(f, grid, grid)
        assert len(calls) == 41 * 41 + 4 * 21**2 == 3445
        assert abs(x - 2.0 * math.e) <= grid.resolution
        assert abs(y - 2.0 * math.pi) <= grid.resolution

    @given(
        lo=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
        width=st.tuples(st.floats(1e-2, 100.0), st.floats(1e-2, 100.0)),
        where=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        points=st.integers(min_value=3, max_value=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_quadratic_argmin_within_resolution(self, lo, width, where, points):
        gx, gy = (GridSpec(l, l + w, points) for l, w in zip(lo, width))
        x_star, y_star = (min(g.hi, g.lo + t * (g.hi - g.lo)) for g, t in zip((gx, gy), where))
        x, y, _ = brute_min(lambda a, b: (a - x_star) ** 2 + (b - y_star) ** 2, gx, gy)
        assert abs(x - x_star) <= gx.resolution
        assert abs(y - y_star) <= gy.resolution

    def test_minimum_in_a_corner_clips_both_windows(self):
        grid = GridSpec(0.0, 1.0, 11)
        f, calls = counting(lambda a, b: a + b)
        x, y, _ = brute_min(f, grid, grid)
        assert (x, y) == (0.0, 0.0)
        # fewer than the 2 rounds of unclipped windows
        assert len(calls) < 11**2 + 2 * 21**2

    def test_inscribed_ellipse_area(self):
        # penalized objective over the feasible set; the unrefined grid puts
        # the incumbent within a few cells of the optimum, so the tolerances
        # here are a couple orders looser than the grid cell
        def objective(a, b):
            if not ellipse_fits(a, b):
                return 1.0
            return -math.pi * a * b
        a, b, value = brute_min(
            objective,
            GridSpec(1e-6, 1.0, 500),
            GridSpec(1e-6, 0.5, 500),
        )
        assert a == pytest.approx(SQRT6_3, abs=0.02)
        assert b == pytest.approx(SQRT2_3, abs=0.02)
        assert -value == pytest.approx(math.pi * SQRT6_3 * SQRT2_3, abs=5e-3)

    def test_constant_ties_break_lexicographically(self):
        grid = GridSpec(0.0, 1.0, 11)
        x, y, _ = brute_min(lambda a, b: 0.0, grid, grid)
        assert (x, y) == (0.0, 0.0)

    def test_nonfinite_value_is_an_error(self):
        grid = GridSpec(0.5, 1.0, 5)
        with pytest.raises(EvaluationError):
            brute_min(lambda a, b: math.nan, grid, grid)

    def test_nonfinite_value_names_both_coordinates(self):
        grid = GridSpec(0.5, 1.0, 5)  # nodes 0.5, 0.625, 0.75, 0.875, 1.0
        with pytest.raises(EvaluationError, match=re.escape("at (0.75, 0.625)")):
            brute_min(lambda a, b: math.nan if a > 0.7 and b > 0.6 else a + b, grid, grid)


class TestBruteMin3D:
    def test_refinement_evaluates_21_cubed_nodes_per_round(self):
        # the 11-point axis takes 2 rounds to reach its resolution, and every
        # round re-grids all three axes
        f, calls = counting(lambda a, b, c: (a - 2.0 * math.e) ** 2 + (b - 2.0 * math.pi) ** 2
                            + (c - 3.0 * math.e) ** 2)
        x, y, z, _ = brute_min(f, GridSpec(4.0, 20.0, 5), GridSpec(4.0, 20.0, 7),
                               GridSpec(4.0, 20.0, 11))
        assert len(calls) == 5 * 7 * 11 + 2 * 21**3
        assert (x, y, z) == pytest.approx((2.0 * math.e, 2.0 * math.pi, 3.0 * math.e), abs=0.02)

    def test_constant_ties_break_lexicographically(self):
        grids = GridSpec(0.0, 1.0, 5), GridSpec(2.0, 3.0, 5), GridSpec(-1.0, 1.0, 5)
        assert brute_min(lambda a, b, c: 1.0, *grids) == (0.0, 2.0, -1.0, 1.0)


def test_oracle_module_does_not_import_the_search_machinery():
    source = inspect.getsource(optishape.oracle)
    assert not re.search(r"^\s*(from|import)\s+\S*optimize", source, re.MULTILINE)
