import inspect
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

import optishape.oracle
from optishape.geometry import linspace
from optishape.oracle import brute_min, resolution
from optishape.problems import containment_max

SQRT6_3 = math.sqrt(6.0) / 3.0
SQRT2_3 = math.sqrt(2.0) / 3.0


def counting(f):
    """f, and a list that gets one entry per evaluation."""
    calls = []

    def wrapped(*args):
        calls.append(args)
        return f(*args)

    return wrapped, calls


class TestBounds:
    def test_resolution_formula(self):
        assert resolution(0.0, 1.0) == 1.0 / (5000 * 5001)

    def test_validation(self):
        for lo, hi in [(1.0, 1.0), (2.0, 1.0), (0.0, math.nan)]:
            with pytest.raises(ValueError, match=re.escape(f"need lo < hi, got [{lo}, {hi}]")):
                brute_min(lambda x: x, (lo, hi))

    # Every pair is checked before the objective is first called.
    @pytest.mark.parametrize(
        "lo, hi", [(0.0, 1e-317), (-1e308, 1e308)], ids=["resolution-is-0", "width-is-inf"],
    )
    def test_resolution_must_be_a_positive_finite_float(self, lo, hi):
        f, calls = counting(lambda a, b: a + b)
        with pytest.raises(ValueError, match="need a positive finite resolution, got"):
            brute_min(f, (0.0, 1.0), (lo, hi))
        assert calls == []

    @given(
        lo=st.floats(min_value=-1e6, max_value=1e6),
        width=st.floats(min_value=1e-3, max_value=1e6),
    )
    @settings(max_examples=100, deadline=None)
    def test_resolution_bound(self, lo, width):
        # below the cell of a 5001-node scan, shrunk 5000-fold once more
        assert resolution(lo, lo + width) <= 1.0001 * width / 5000**2

    # The tracer of the benchmark spans every call of a public function,
    # so the resolutions are taken once per call, not once per round.
    def test_one_resolution_per_axis_per_call(self, monkeypatch):
        counted, calls = counting(resolution)
        monkeypatch.setattr(optishape.oracle, "resolution", counted)
        brute_min(lambda a, b: (a - 0.3) ** 2 + (b - 0.6) ** 2, (0.0, 1.0), (0.0, 2.0))
        assert calls == [(0.0, 1.0), (0.0, 2.0)]


class TestBruteMin:
    def test_vee_function(self):
        x, value = brute_min(lambda v: abs(v - 1.0), (0.0, 2.0))
        assert abs(x - 1.0) <= 2e-4
        assert value == pytest.approx(abs(x - 1.0))

    def test_can_surface_area(self):
        x, _ = brute_min(
            lambda r: 2.0 * math.pi * r * r + 2000.0 / r, (0.5, 20.0)
        )
        assert x == pytest.approx(5.41926070139289, abs=1e-6)

    def test_fence_area_maximum(self):
        x, _ = brute_min(
            lambda L: -(L / 4.0) * ((2400.0 - L) / 2.0),
            (0.0, 2400.0),
        )
        assert x == pytest.approx(1200.0, abs=1e-4)

    def test_constant_ties_break_to_smallest_argument(self):
        x, value = brute_min(lambda _: 1.0, (2.0, 5.0))
        assert x == 2.0
        assert value == 1.0

    def test_nonfinite_value_is_an_error(self):
        with pytest.raises(ValueError, match="objective returned inf") as excinfo:
            brute_min(lambda x: math.inf if x < 0.35 else x, (0.0, 1.0))
        assert "0.0" in str(excinfo.value)

    def test_refinement_tightens_argmin(self):
        x_star = math.e / 3.0
        f = lambda x: (x - x_star) ** 2
        x_scan = min(linspace(0.0, 2.0, 5001), key=f)  # a 5001-node scan alone
        x, _ = brute_min(f, (0.0, 2.0))
        assert abs(x - x_star) <= 4.0 * resolution(0.0, 2.0) < abs(x_scan - x_star)

    @pytest.mark.parametrize("lo, hi", [(0.0, 2.0), (4.0, 20.0), (-1e-3, 1e6)])
    def test_refinement_evaluates_21_nodes_per_round(self, lo, hi):
        # 8 rounds, round zero included, on any interval: the first round's
        # cell is a twentieth of it and each later one a tenth of the last,
        # and 2 * 10**7 < 5000 * 5001 <= 2 * 10**8
        x_star = lo + (hi - lo) * math.e / 6.0
        f, calls = counting(lambda x: (x - x_star) ** 2)
        x, _ = brute_min(f, (lo, hi))
        assert len(calls) == 8 * 21
        assert abs(x - x_star) <= resolution(lo, hi)

    # A shallow wide well at 0.3 and a deeper one near 0.77.  The first
    # round's 21 nodes on [0, 1] have a cell of 0.05: they find a well six
    # cells wide, but can miss one narrower than a cell.
    @pytest.mark.parametrize("center, half_width, found", [
        (0.7712, 0.15, True),
        (0.7725, 0.002, False),
    ], ids=["six-cells-wide", "narrower-than-a-cell"])
    def test_first_scan_and_a_narrow_deeper_well(self, center, half_width, found):
        x, value = brute_min(
            lambda x: min((x - 0.3) ** 2, ((x - center) / half_width) ** 2 - 1.0), (0.0, 1.0)
        )
        if found:
            assert abs(x - center) <= resolution(0.0, 1.0)
            assert value == pytest.approx(-1.0)
        else:
            assert abs(x - 0.3) <= resolution(0.0, 1.0)
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_no_grid_names_the_missing_grid(self):
        with pytest.raises(TypeError, match="brute_min.*'bounds'"):
            brute_min(lambda x: x)

    @given(
        lo=st.floats(min_value=-100.0, max_value=100.0),
        width=st.floats(min_value=1e-2, max_value=100.0),
        where=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_quadratic_argmin_within_resolution(self, lo, width, where):
        hi = lo + width
        x_star = min(hi, lo + where * (hi - lo))
        x, _ = brute_min(lambda x: (x - x_star) ** 2, (lo, hi))
        assert abs(x - x_star) <= resolution(lo, hi)

    @pytest.mark.parametrize("slope, end", [(1.0, 0.0), (-1.0, 1.0)])
    def test_minimum_at_an_end_clips_the_window(self, slope, end):
        f, calls = counting(lambda x: slope * x)
        x, value = brute_min(f, (0.0, 1.0))
        assert x == end
        assert value == slope * end
        # a clipped window is one cell wide, so it shrinks twentyfold a round
        # and takes fewer than the 8 rounds of an unclipped one
        assert len(calls) < 8 * 21

    @pytest.mark.parametrize("x_star", [1.5, math.e / 2.0])
    def test_resolution_below_float_spacing_terminates(self, x_star):
        # a window 5e-11 wide, so that its resolution is finer than floats
        lo, hi = x_star - 2e-11, x_star + 3e-11
        assert resolution(lo, hi) < math.ulp(x_star) / 100.0
        f, calls = counting(lambda x: (x - x_star) ** 2)
        x, _ = brute_min(f, (lo, hi))
        assert abs(x - x_star) <= math.ulp(x_star)
        # tenfold per round from a first cell of 2.5e-12 down to under half
        # an ulp (~1e-16), where the window collapses to the incumbent
        assert len(calls) <= 7 * 21


class TestBruteMin2D:
    def test_box_surface_area(self):
        x, y, _ = brute_min(
            lambda a, b: 2.0 * (a * b + 8.0 / b + 8.0 / a), (0.5, 4.0), (0.5, 4.0)
        )
        cell = 3.5 / 999
        assert abs(x - 2.0) <= cell
        assert abs(y - 2.0) <= cell

    def test_paraboloid(self):
        x, y, value = brute_min(lambda a, b: a * a + b * b, (-1.0, 1.0), (-1.0, 1.0))
        assert abs(x) <= 1e-5
        assert abs(y) <= 1e-5
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_refinement_evaluates_21_by_21_nodes_per_round(self):
        # 8 rounds, round zero included, as in 1-D: the axes' widths differ,
        # but each refines to the same fraction of its interval
        f, calls = counting(lambda a, b: (a - 2.0 * math.e) ** 2 + (b - 2.0 * math.pi) ** 2)
        x, y, _ = brute_min(f, (4.0, 20.0), (0.0, 1000.0))
        assert len(calls) == 8 * 21**2
        assert abs(x - 2.0 * math.e) <= resolution(4.0, 20.0)
        assert abs(y - 2.0 * math.pi) <= resolution(0.0, 1000.0)

    def test_box_in_eight_rounds_of_21_by_21(self):
        # the oracle suite's box intervals: 8 rounds take the first round's
        # cell of 0.8 below the resolution of 6.4e-7
        f, calls = counting(lambda a, b: (a - 2.0 * math.e) ** 2 + (b - 2.0 * math.pi) ** 2)
        x, y, _ = brute_min(f, (4.0, 20.0), (4.0, 20.0))
        assert len(calls) == 8 * 21**2 == 3528
        assert abs(x - 2.0 * math.e) <= resolution(4.0, 20.0)
        assert abs(y - 2.0 * math.pi) <= resolution(4.0, 20.0)

    @given(
        lo=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
        width=st.tuples(st.floats(1e-2, 100.0), st.floats(1e-2, 100.0)),
        where=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=50, deadline=None)
    def test_quadratic_argmin_within_resolution(self, lo, width, where):
        bx, by = ((l, l + w) for l, w in zip(lo, width))
        x_star, y_star = (min(h, l + t * (h - l)) for (l, h), t in zip((bx, by), where))
        x, y, _ = brute_min(lambda a, b: (a - x_star) ** 2 + (b - y_star) ** 2, bx, by)
        assert abs(x - x_star) <= resolution(*bx)
        assert abs(y - y_star) <= resolution(*by)

    def test_minimum_in_a_corner_clips_both_windows(self):
        f, calls = counting(lambda a, b: a + b)
        x, y, _ = brute_min(f, (0.0, 1.0), (0.0, 1.0))
        assert (x, y) == (0.0, 0.0)
        # fewer than the 8 rounds of unclipped windows
        assert len(calls) < 8 * 21**2

    def test_inscribed_ellipse_area(self):
        # penalized objective over the feasible set; the unrefined grid puts
        # the incumbent within a few cells of the optimum, so the tolerances
        # here are a couple orders looser than the grid cell
        def objective(a, b):
            if containment_max(a, b) > 1.0:
                return 1.0
            return -math.pi * a * b
        a, b, value = brute_min(
            objective,
            (1e-6, 1.0),
            (1e-6, 0.5),
        )
        assert a == pytest.approx(SQRT6_3, abs=0.02)
        assert b == pytest.approx(SQRT2_3, abs=0.02)
        assert -value == pytest.approx(math.pi * SQRT6_3 * SQRT2_3, abs=5e-3)

    def test_constant_ties_break_lexicographically(self):
        x, y, _ = brute_min(lambda a, b: 0.0, (0.0, 1.0), (0.0, 1.0))
        assert (x, y) == (0.0, 0.0)

    def test_nonfinite_value_is_an_error(self):
        with pytest.raises(ValueError, match="objective returned nan"):
            brute_min(lambda a, b: math.nan, (0.5, 1.0), (0.5, 1.0))

    def test_nonfinite_value_names_both_coordinates(self):
        grid = (0.5, 1.0)  # nodes 0.5, 0.525, ..., 0.975, 1.0
        with pytest.raises(ValueError, match=re.escape("at (0.725, 0.625)")):
            brute_min(lambda a, b: math.nan if a > 0.71 and b > 0.61 else a + b, grid, grid)


class TestBruteMin3D:
    def test_refinement_evaluates_21_cubed_nodes_per_round(self):
        # 8 rounds, as on one axis or two, and every round scans all three
        # axes
        f, calls = counting(lambda a, b, c: (a - 2.0 * math.e) ** 2 + (b - 2.0 * math.pi) ** 2
                            + (c - 3.0 * math.e) ** 2)
        x, y, z, _ = brute_min(f, (4.0, 20.0), (4.0, 20.0), (4.0, 20.0))
        assert len(calls) == 8 * 21**3
        assert (x, y, z) == pytest.approx((2.0 * math.e, 2.0 * math.pi, 3.0 * math.e),
                                          abs=resolution(4.0, 20.0))

    def test_constant_ties_break_lexicographically(self):
        bounds = (0.0, 1.0), (2.0, 3.0), (-1.0, 1.0)
        assert brute_min(lambda a, b, c: 1.0, *bounds) == (0.0, 2.0, -1.0, 1.0)


def test_oracle_module_does_not_import_the_search_machinery():
    source = inspect.getsource(optishape.oracle)
    assert not re.search(r"^\s*(from|import)\s+\S*optimize", source, re.MULTILINE)
