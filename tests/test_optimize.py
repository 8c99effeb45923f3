import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

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
        with pytest.raises(ValueError, match="tolerance must be positive, got 0.0"):
            golden_section_min(lambda x: x, 0.0, 1.0, tol=0.0)
        with pytest.raises(TypeError):  # no default tolerance
            golden_section_min(lambda x: x, 0.0, 1.0)

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
    "search",
    [lambda lo, hi: golden_section_min(lambda x: x, lo, hi, tol=1e-10),
     lambda lo, hi: bisect_boundary(lambda x: x <= 0.5, lo, hi)],
    ids=["golden", "bisect"],
)
def test_searches_share_the_bracket_checks(search):
    with pytest.raises(ValueError, match=r"need lo < hi, got \[1.0, 1.0\]"):
        search(1.0, 1.0)
    with pytest.raises(ValueError, match=r"need lo < hi, got \[2.0, 1.0\]"):
        search(2.0, 1.0)


class TestBisectBoundary:
    def test_step_predicate(self):
        x = bisect_boundary(lambda v: v <= 1.0, 0.0, 2.0)
        assert x in (1.0, math.nextafter(1.0, math.inf))

    def test_sqrt_two(self):
        x = bisect_boundary(lambda v: v * v <= 2.0, 0.0, 2.0)
        assert abs(x - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))

    # The bisection runs until the bracket spans adjacent floats and returns
    # their midpoint, which rounds to one of them: x or the float below it
    # is the last true one, and the float above that is false.
    @given(
        c=st.floats(min_value=1e-300, max_value=1e300),
        lo=st.sampled_from([0.0, math.ulp(0.0), 1e-300]),
    )
    @example(c=1.0, lo=0.5)
    @settings(max_examples=300, deadline=None)
    def test_ends_on_adjacent_floats(self, c, lo):
        pred = lambda v: v * v * v <= c
        x = bisect_boundary(pred, lo, 2.0 * max(c, 1.0))
        last_true = x if pred(x) else math.nextafter(x, -math.inf)
        assert pred(last_true) and not pred(math.nextafter(last_true, math.inf))

    def test_takes_no_tolerance(self):
        with pytest.raises(TypeError):
            bisect_boundary(lambda v: v <= 1.0, 0.0, 2.0, tol=1e-12)

    def test_bad_bracket(self):
        with pytest.raises(BracketError):
            bisect_boundary(lambda v: False, 0.0, 1.0)
        with pytest.raises(BracketError):
            bisect_boundary(lambda v: True, 0.0, 1.0)

    @given(c=st.floats(min_value=0.1, max_value=1.9))
    @settings(max_examples=100, deadline=None)
    def test_monotone_crossing_bracketing(self, c):
        x = bisect_boundary(lambda v: v <= c, 0.0, 2.0)
        assert x in (c, math.nextafter(c, math.inf))


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

