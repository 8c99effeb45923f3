import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from optishape.optimize import (
    INV_PHI,
    RESOLUTION,
    bisect_boundary,
    golden_section_min,
)

# independently verified against a 1e7-point brute-force grid before freezing
CUBE_ROOT_500 = 7.937005259840997
CAN_OPTIMAL_R = 5.41926070139289  # (500/pi)^(1/3)


def final_bracket(probes, lo, hi, sol):
    """The ends of the bracket a search stopped on, found among its first
    ends and its probes: the two that lie achieved_interval apart around
    argmin."""
    points = {lo, hi, *probes}
    width = sol.achieved_interval
    for p in points:
        for q in (p + width, math.nextafter(p + width, -math.inf),
                  math.nextafter(p + width, math.inf)):
            if q in points and q - p == width and 0.5 * (p + q) == sol.argmin:
                return p, q
    raise AssertionError(f"no two probes bound {sol}")


def fresh_probes_split(lo, hi):
    """Whether two probes drawn afresh from [lo, hi] lie strictly inside it
    in order."""
    return lo < hi - (hi - lo) * INV_PHI < lo + (hi - lo) * INV_PHI < hi


class TestGoldenSection:
    def test_exact_vertex(self):
        sol = golden_section_min(lambda x: (x - 2.0) ** 2, 0.0, 5.0)
        assert abs(sol.argmin - 2.0) <= sol.achieved_interval <= RESOLUTION * 2.0 * (1.0 + 1e-6)
        assert sol.evaluations >= 1

    # The stop is relative to the bracket, so the count holds at every scale.
    @pytest.mark.parametrize("scale", [10.0, 1.0, 1e-3, 1e-10])
    def test_evaluations_count_every_call(self, scale):
        calls = []
        sol = golden_section_min(lambda x: calls.append(x) or (x - 2.0 * scale) ** 2,
                                 0.0, 5.0 * scale)
        assert sol.evaluations == len(calls)

    def test_can_surface_area(self):
        sol = golden_section_min(lambda r: 2.0 * math.pi * r * r + 2000.0 / r, 0.1, 50.0)
        assert sol.argmin == pytest.approx(CAN_OPTIMAL_R, abs=1e-7)

    def test_square_prism_surface_area(self):
        sol = golden_section_min(lambda x: 2.0 * x * x + 2000.0 / x, 0.1, 50.0)
        assert sol.argmin == pytest.approx(CUBE_ROOT_500, abs=1e-7)

    def test_bad_bracket_rejected(self):
        with pytest.raises(ValueError):
            golden_section_min(lambda x: x, 1.0, 1.0)
        with pytest.raises(ValueError):
            golden_section_min(lambda x: x, 2.0, 1.0)

    def test_takes_no_tolerance(self):
        with pytest.raises(TypeError):
            golden_section_min(lambda x: x, 0.0, 1.0, tol=1e-10)

    def test_deterministic(self):
        f = lambda x: math.cos(x) + 0.1 * x
        first = golden_section_min(f, 0.0, 6.0)
        second = golden_section_min(f, 0.0, 6.0)
        assert first == second

    def test_recovers_random_targets(self):
        rng = random.Random(7)
        for _ in range(1000):
            t = rng.uniform(0.05, 4.95)
            sol = golden_section_min(lambda x: (x - t) ** 2, 0.0, 5.0)
            assert abs(sol.argmin - t) <= sol.achieved_interval <= RESOLUTION * 5.0

    # The search stops once its bracket is RESOLUTION times its larger end
    # wide, or once fresh probes no longer lie strictly inside it in order;
    # probes that only crossed are drawn afresh.  The target never leaves the
    # bracket.  |x - t| orders any two probes on one side of t, so its values
    # resolve every argument.
    @given(ends=st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=3, max_size=3,
                         unique=True))
    @example(ends=[0.0, 1e-300, 1.0])
    @example(ends=[-1.0, 0.0, 1.0])
    @example(ends=[-1e300, 3.0, 1e300])  # the probes cross after about 110 steps
    @settings(max_examples=200, deadline=None)
    def test_stops_where_the_values_stop_resolving_the_argument(self, ends):
        lo, mid, hi = sorted(ends)
        for t in (lo, mid, hi):  # the target inside the bracket, and at each end
            probes = []
            sol = golden_section_min(lambda x: probes.append(x) or abs(x - t), lo, hi)
            probes.pop()  # the last call evaluates argmin
            a, b = final_bracket(probes, lo, hi, sol)
            assert (sol.achieved_interval <= RESOLUTION * max(abs(a), abs(b))
                    or not fresh_probes_split(a, b))
            assert abs(sol.argmin - t) <= sol.achieved_interval

    # A minimum at the bracket end 0 is never RESOLUTION-wide relative to
    # that end, so the search runs until its probes meet among the smallest
    # subnormals, past any old iteration cap.
    def test_minimum_at_zero_ends_without_a_cap(self):
        sol = golden_section_min(lambda x: x, 0.0, 1.0)
        assert sol == (5e-324, 5e-324, 1549, 1e-323)

    def test_nan_objective_ends(self):
        calls = []
        sol = golden_section_min(lambda x: calls.append(x) or math.nan, 0.0, 1.0)
        assert math.isnan(sol.value) and sol.evaluations == len(calls) < 100
        assert sol.achieved_interval <= RESOLUTION


@pytest.mark.parametrize(
    "search",
    [lambda lo, hi: golden_section_min(lambda x: x, lo, hi),
     lambda lo, hi: bisect_boundary(lambda x: x <= 0.5, lo, hi)],
    ids=["golden", "bisect"],
)
def test_searches_share_the_bracket_checks(search):
    with pytest.raises(ValueError, match=r"need finite lo < hi, got \[1.0, 1.0\]"):
        search(1.0, 1.0)
    with pytest.raises(ValueError, match=r"need finite lo < hi, got \[2.0, 1.0\]"):
        search(2.0, 1.0)
    with pytest.raises(ValueError, match=r"need finite lo < hi, got \[0.0, inf\]"):
        search(0.0, math.inf)
    with pytest.raises(ValueError, match=r"need finite lo < hi, got \[-inf, 2.0\]"):
        search(-math.inf, 2.0)
    with pytest.raises(ValueError, match=r"need finite lo < hi, got \[0.0, nan\]"):
        search(0.0, math.nan)
    with pytest.raises(ValueError, match=r"need finite lo < hi, got \[nan, 1.0\]"):
        search(math.nan, 1.0)


class TestBisectBoundary:
    def test_step_predicate(self):
        assert bisect_boundary(lambda v: v <= 1.0, 0.0, 2.0) == 1.0

    def test_sqrt_two(self):
        x = bisect_boundary(lambda v: v * v <= 2.0, 0.0, 2.0)
        assert abs(x - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))

    # The bisection runs until the bracket spans adjacent floats and returns
    # the lower one: x is the last true argument, and the float above it is
    # false.
    @given(
        c=st.floats(min_value=1e-300, max_value=1e300),
        lo=st.sampled_from([0.0, math.ulp(0.0), 1e-300]),
    )
    @example(c=1.0, lo=0.5)
    @settings(max_examples=300, deadline=None)
    def test_ends_on_adjacent_floats(self, c, lo):
        pred = lambda v: v * v * v <= c
        x = bisect_boundary(pred, lo, 2.0 * max(c, 1.0))
        assert pred(x) and not pred(math.nextafter(x, math.inf))

    def test_takes_no_tolerance(self):
        with pytest.raises(TypeError):
            bisect_boundary(lambda v: v <= 1.0, 0.0, 2.0, tol=1e-12)

    def test_bad_bracket(self):
        with pytest.raises(ValueError, match=r"^pred\(0\.0\) must be true at the lower end$"):
            bisect_boundary(lambda v: False, 0.0, 1.0)
        with pytest.raises(ValueError, match=r"^pred\(1\.0\) must be false at the upper end$"):
            bisect_boundary(lambda v: True, 0.0, 1.0)

    @given(c=st.floats(min_value=0.1, max_value=1.9))
    @settings(max_examples=100, deadline=None)
    def test_monotone_crossing_bracketing(self, c):
        assert bisect_boundary(lambda v: v <= c, 0.0, 2.0) == c


