import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from optishape.optimize import (
    BracketError,
    ConvergenceError,
    bisect_boundary,
    central_diff,
    golden_section_min,
)

# independently verified against a 1e7-point brute-force grid before freezing
CUBE_ROOT_500 = 7.937005259840997
CAN_OPTIMAL_R = 5.41926070139289  # (500/pi)^(1/3)


class TestGoldenSection:
    def test_exact_vertex(self):
        sol = golden_section_min(lambda x: (x - 2.0) ** 2, 0.0, 5.0, tol=1e-10)
        assert abs(sol.argmin - 2.0) <= 1e-10
        assert sol.achieved_interval <= 1e-10
        assert sol.evaluations >= 1

    @pytest.mark.parametrize("tol", [10.0, 1.0, 1e-3, 1e-10])
    def test_evaluations_count_every_call(self, tol):
        calls = []
        sol = golden_section_min(lambda x: calls.append(x) or (x - 2.0) ** 2, 0.0, 5.0, tol=tol)
        assert sol.evaluations == len(calls)

    def test_can_surface_area(self):
        sol = golden_section_min(
            lambda r: 2.0 * math.pi * r * r + 2000.0 / r, 0.1, 50.0, tol=1e-10
        )
        assert sol.argmin == pytest.approx(CAN_OPTIMAL_R, abs=1e-7)

    def test_square_prism_surface_area(self):
        sol = golden_section_min(lambda x: 2.0 * x * x + 2000.0 / x, 0.1, 50.0, tol=1e-10)
        assert sol.argmin == pytest.approx(CUBE_ROOT_500, abs=1e-7)

    def test_bad_bracket_rejected(self):
        with pytest.raises(ValueError):
            golden_section_min(lambda x: x, 1.0, 1.0, tol=1e-10)
        with pytest.raises(ValueError):
            golden_section_min(lambda x: x, 2.0, 1.0, tol=1e-10)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            golden_section_min(lambda x: x, 0.0, 1.0, tol=0.0)

    def test_iteration_cap(self):
        with pytest.raises(ConvergenceError):
            golden_section_min(lambda x: (x - 0.5) ** 2, 0.0, 1.0, tol=1e-300)

    def test_deterministic(self):
        f = lambda x: math.cos(x) + 0.1 * x
        first = golden_section_min(f, 0.0, 6.0, tol=1e-10)
        second = golden_section_min(f, 0.0, 6.0, tol=1e-10)
        assert first == second

    def test_recovers_random_targets(self):
        rng = random.Random(7)
        for _ in range(1000):
            t = rng.uniform(0.05, 4.95)
            sol = golden_section_min(lambda x: (x - t) ** 2, 0.0, 5.0, tol=1e-10)
            assert abs(sol.argmin - t) <= 1e-10


@pytest.mark.parametrize(
    "search, f", [(golden_section_min, lambda x: x), (bisect_boundary, lambda x: x <= 0.5)],
    ids=["golden", "bisect"],
)
def test_searches_share_the_bracket_checks(search, f):
    with pytest.raises(ValueError, match=r"need lo < hi, got \[1.0, 1.0\]"):
        search(f, 1.0, 1.0, tol=1e-10)
    with pytest.raises(ValueError, match="tolerance must be positive, got 0.0"):
        search(f, 0.0, 1.0, tol=0.0)
    with pytest.raises(TypeError):  # no default tolerance
        search(f, 0.0, 1.0)


class TestBisectBoundary:
    def test_step_predicate(self):
        x = bisect_boundary(lambda v: v <= 1.0, 0.0, 2.0, tol=1e-12)
        assert abs(x - 1.0) <= 1e-12

    def test_sqrt_two(self):
        x = bisect_boundary(lambda v: v * v <= 2.0, 0.0, 2.0, tol=1e-10)
        assert x == pytest.approx(math.sqrt(2.0), abs=1e-10)

    def test_tolerance_below_the_float_spacing_stops_at_adjacent_floats(self):
        x = bisect_boundary(lambda v: v < 1.0, 0.5, 2.0, tol=1e-300)
        assert abs(x - 1.0) <= math.ulp(1.0)

    def test_bad_bracket(self):
        with pytest.raises(BracketError):
            bisect_boundary(lambda v: False, 0.0, 1.0, tol=1e-10)
        with pytest.raises(BracketError):
            bisect_boundary(lambda v: True, 0.0, 1.0, tol=1e-10)

    @given(c=st.floats(min_value=0.1, max_value=1.9))
    @settings(max_examples=100, deadline=None)
    def test_monotone_crossing_bracketing(self, c):
        tol = 1e-9
        pred = lambda v: v <= c
        x = bisect_boundary(pred, 0.0, 2.0, tol=tol)
        assert pred(x - 2.0 * tol)
        assert not pred(x + 2.0 * tol)


class TestCentralDiff:
    def test_circle_area_derivative(self):
        est = central_diff(lambda r: math.pi * r * r, 3.0, 1e-6)
        assert est == pytest.approx(6.0 * math.pi, rel=1e-9)

    def test_constant_function(self):
        assert central_diff(lambda _: 7.5, 123.0, 1e-6) == 0.0

    def test_square_area_derivative(self):
        est = central_diff(lambda r: 4.0 * r * r, 2.0, 1e-6)
        assert est == pytest.approx(16.0, rel=1e-9)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            central_diff(lambda x: x, 1.0, 0.0)

    @given(
        a=st.floats(min_value=0.5, max_value=2.0),
        b=st.floats(min_value=1.0, max_value=3.0),
        c=st.floats(min_value=-10.0, max_value=10.0),
        x=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_on_quadratics(self, a, b, c, x):
        h = 1e-6 * max(1.0, abs(x))
        est = central_diff(lambda v: a * v * v + b * v + c, x, h)
        true = 2.0 * a * x + b
        assert est == pytest.approx(true, rel=1e-9)

