import inspect
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

import optishape.oracle
from optishape.oracle import EvaluationError, GridSpec, brute_min, brute_min_2d
from optishape.problems import ellipse_fits

SQRT6_3 = math.sqrt(6.0) / 3.0
SQRT2_3 = math.sqrt(2.0) / 3.0


class TestGridSpec:
    def test_resolution_formula(self):
        grid = GridSpec(0.0, 1.0, points=100, refine_rounds=3)
        assert grid.resolution == 1.0 / (99 * 100**3)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 1.0)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, points=2)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, refine_rounds=-1)

    @given(
        points=st.integers(min_value=3, max_value=1000),
        rounds=st.integers(min_value=0, max_value=4),
        width=st.floats(min_value=1e-3, max_value=1e6),
    )
    @settings(max_examples=100, deadline=None)
    def test_resolution_bound(self, points, rounds, width):
        grid = GridSpec(0.0, width, points=points, refine_rounds=rounds)
        assert grid.resolution <= 2.0 * width / points ** (rounds + 1)


class TestBruteMin:
    def test_vee_function(self):
        x, value = brute_min(lambda v: abs(v - 1.0), GridSpec(0.0, 2.0, 10001, 0))
        assert abs(x - 1.0) <= 2e-4
        assert value == pytest.approx(abs(x - 1.0))

    def test_can_surface_area_default_grid(self):
        x, _ = brute_min(
            lambda r: 2.0 * math.pi * r * r + 2000.0 / r, GridSpec(0.5, 20.0)
        )
        assert x == pytest.approx(5.41926070139289, abs=1e-6)

    def test_fence_area_maximum(self):
        x, _ = brute_min(
            lambda L: -(L / 4.0) * ((2400.0 - L) / 2.0),
            GridSpec(0.0, 2400.0, 10001, 1),
        )
        assert x == pytest.approx(1200.0, abs=1e-4)

    def test_constant_ties_break_to_smallest_argument(self):
        x, value = brute_min(lambda _: 1.0, GridSpec(2.0, 5.0, 101, 1))
        assert x == 2.0
        assert value == 1.0

    def test_nonfinite_value_is_an_error(self):
        grid = GridSpec(0.0, 1.0, 11, 0)
        with pytest.raises(EvaluationError) as excinfo:
            brute_min(lambda x: math.inf if x < 0.35 else x, grid)
        assert "0.0" in str(excinfo.value)

    def test_refinement_tightens_argmin(self):
        f = lambda x: (x - math.e / 3.0) ** 2
        coarse = GridSpec(0.0, 2.0, 101, 0)
        fine = GridSpec(0.0, 2.0, 101, 2)
        x_coarse, _ = brute_min(f, coarse)
        x_fine, _ = brute_min(f, fine)
        assert abs(x_fine - math.e / 3.0) <= abs(x_coarse - math.e / 3.0)
        assert abs(x_fine - math.e / 3.0) <= 4.0 * fine.resolution


class TestBruteMin2D:
    def test_box_surface_area(self):
        grid = GridSpec(0.5, 4.0, 1000, 0)
        x, y, _ = brute_min_2d(
            lambda a, b: 2.0 * (a * b + 8.0 / b + 8.0 / a), grid, grid
        )
        cell = 3.5 / 999
        assert abs(x - 2.0) <= cell
        assert abs(y - 2.0) <= cell

    def test_paraboloid(self):
        grid = GridSpec(-1.0, 1.0, 101, 2)
        x, y, value = brute_min_2d(lambda a, b: a * a + b * b, grid, grid)
        assert abs(x) <= 1e-5
        assert abs(y) <= 1e-5
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_inscribed_ellipse_area(self):
        # penalized objective over the feasible set; the unrefined grid puts
        # the incumbent within a few cells of the optimum, so the tolerances
        # here are a couple orders looser than the grid cell
        def objective(a, b):
            if not ellipse_fits(a, b):
                return 1.0
            return -math.pi * a * b
        a, b, value = brute_min_2d(
            objective,
            GridSpec(1e-6, 1.0, 500, 0),
            GridSpec(1e-6, 0.5, 500, 0),
        )
        assert a == pytest.approx(SQRT6_3, abs=0.02)
        assert b == pytest.approx(SQRT2_3, abs=0.02)
        assert -value == pytest.approx(math.pi * SQRT6_3 * SQRT2_3, abs=5e-3)

    def test_constant_ties_break_lexicographically(self):
        grid = GridSpec(0.0, 1.0, 11, 1)
        x, y, _ = brute_min_2d(lambda a, b: 0.0, grid, grid)
        assert (x, y) == (0.0, 0.0)

    def test_nonfinite_value_is_an_error(self):
        grid = GridSpec(0.5, 1.0, 5, 0)
        with pytest.raises(EvaluationError):
            brute_min_2d(lambda a, b: math.nan, grid, grid)


def test_oracle_module_does_not_import_the_search_machinery():
    source = inspect.getsource(optishape.oracle)
    assert not re.search(r"^\s*(from|import)\s+\S*optimize", source, re.MULTILINE)
