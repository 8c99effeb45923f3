"""How close the closed forms come to the exact answer, in ulps, pinned as
it stands.  Where that answer is algebraic in the input it is checked in
exact rational arithmetic; the fields that involve pi (the circular can and
can-dual, the ellipse) against mpmath at 60 digits.  A change to a closed
form that moves a pin is an output change."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from optishape.geometry import Shape
from optishape.problems import (
    FenceLayout,
    solve_box,
    solve_can,
    solve_can_dual,
    solve_ellipse_semicircle,
    solve_fence,
    solve_rect_semicircle,
    solve_rectangle,
)

# Log-uniform over the float range, both ends included.
_rng = random.Random(5)
SCALES = [1e-323, 1e308, *(10.0 ** _rng.uniform(-323.0, 308.0) for _ in range(1000))]


def ulps_off(got, power, target):
    """The smallest k such that the exact answer, the positive root of
    x**power == target, lies within k ulps of ``got``: so that
    f(got - k ulp) <= target <= f(got + k ulp) for the increasing
    f(x) = x * |x|**(power - 1), evaluated exactly."""
    u = Fraction(math.ulp(got))

    def f(x):
        return x * abs(x) ** (power - 1)

    def within(k):
        return f(Fraction(got) - k * u) <= target <= f(Fraction(got) + k * u)

    if within(0):
        return 0
    hi = 1
    while not within(hi):
        hi *= 2
    lo = hi // 2  # within(hi) holds and within(lo) does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if within(mid) else (mid, hi)
    return hi


def _box(v):
    sol, v = solve_box(v), Fraction(v)
    return {"x": (sol.x, 3, v), "surface_area": (sol.surface_area, 3, 216 * v * v)}


def _rect_semicircle(r):
    sol, r = solve_rect_semicircle(r), Fraction(r)
    return {"x": (sol.x, 2, r * r / 2), "area": (sol.area, 1, r * r)}


def _rectangle(p):
    sol, p = solve_rectangle(p), Fraction(p)
    return {"x": (sol.x, 1, p / 4), "area": (sol.area, 1, p * p / 16)}


def _fence(length):
    sol, length = solve_fence(length, FenceLayout(4, 2)), Fraction(length)
    return {"x": (sol.x, 1, length / 8), "y": (sol.y, 1, length / 4),
            "area": (sol.area, 1, length * length / 32)}


# The worst over SCALES, in whole ulps, of each field that is finite: a
# correctly rounded answer reads 1 unless it is exact.  The box's edge is
# volume ** (1/3), a power to an inexact third, worst near the ends of the
# range; its surface area, 6 * x * x, about doubles that.
PINNED = {
    ("box", "x"): 118,
    ("box", "surface_area"): 247,
    ("rect-semicircle", "x"): 2,
    ("rect-semicircle", "area"): 3,
    ("rectangle", "x"): 1,
    ("rectangle", "area"): 1,
    ("fence", "x"): 1,
    ("fence", "y"): 1,
    ("fence", "area"): 1,
}
FIELDS = {"box": _box, "rect-semicircle": _rect_semicircle, "rectangle": _rectangle,
          "fence": _fence}


@pytest.mark.parametrize("key", list(PINNED), ids=" ".join)
def test_worst_ulp_error_is_pinned(key):
    problem, field = key
    worst = 0
    for scale in SCALES:
        got, power, target = FIELDS[problem](scale)[field]
        if math.isfinite(got):
            worst = max(worst, ulps_off(got, power, target))
    assert worst == PINNED[key]


def ulps_from(got, exact):
    """The smallest k such that ``exact``, an mpmath number, lies within k
    ulps of ``got``."""
    return int(mpmath.ceil(abs(mpmath.mpf(got) - exact) / math.ulp(got)))


def _can(v):
    sol, v = solve_can(v, Shape()), mpmath.mpf(v)
    r = mpmath.cbrt(v / (2 * mpmath.pi))
    return {"r": (sol.r, r), "h": (sol.h, 2 * r),
            "surface_area": (sol.surface_area, 6 * mpmath.pi * r * r), "volume": (sol.volume, v)}


def _can_dual(sa):
    sol, sa = solve_can_dual(sa, Shape()), mpmath.mpf(sa)
    r = mpmath.sqrt(sa / (6 * mpmath.pi))
    return {"r": (sol.r, r), "h": (sol.h, 2 * r), "surface_area": (sol.surface_area, sa),
            "volume": (sol.volume, 2 * mpmath.pi * r ** 3)}


def _ellipse(radius):
    sol, radius = solve_ellipse_semicircle(radius), mpmath.mpf(radius)
    return {"a": (sol.a, mpmath.sqrt(6) / 3 * radius), "b": (sol.b, mpmath.sqrt(2) / 3 * radius),
            "area": (sol.area, 2 * mpmath.pi * mpmath.sqrt(3) / 9 * radius * radius)}


# As PINNED, against the exact pi.  The can's radius is a cube root taken
# apart, volume ** (1/3) / (2 * pi) ** (1/3), worst near the ends of the
# range, and its height, volume / (pi * r * r), about doubles that.
# Can-dual's height is a difference, surface_area / (2 * pi * r) - r.
PINNED_PI = {
    ("can", "r"): 116,
    ("can", "h"): 232,
    ("can", "surface_area"): 2,
    ("can", "volume"): 1,
    ("can-dual", "r"): 3,
    ("can-dual", "h"): 5,
    ("can-dual", "surface_area"): 2,
    ("can-dual", "volume"): 3,
    ("ellipse-semicircle", "a"): 2,
    ("ellipse-semicircle", "b"): 2,
    ("ellipse-semicircle", "area"): 2,
}
PI_FIELDS = {"can": _can, "can-dual": _can_dual, "ellipse-semicircle": _ellipse}


@pytest.mark.parametrize("key", list(PINNED_PI), ids=" ".join)
def test_worst_ulp_error_of_pi_fields_is_pinned(key):
    problem, field = key
    worst = 0
    with mpmath.workdps(60):
        for scale in SCALES:
            got, exact = PI_FIELDS[problem](scale)[field]
            if math.isfinite(got):
                worst = max(worst, ulps_from(got, exact))
    assert worst == PINNED_PI[key]


@pytest.mark.parametrize("got, power, target, want", [
    (2.0, 3, Fraction(8), 0),
    (2.0, 3, Fraction(2.0 + 3 * math.ulp(2.0)) ** 3, 3),
    (2.0, 3, Fraction(2.0 - 2.5 * math.ulp(2.0)) ** 3, 3),
    (0.0, 2, Fraction(1, 10**700), 1),
])
def test_ulps_off(got, power, target, want):
    assert ulps_off(got, power, target) == want


@pytest.mark.parametrize("got, exact, want", [
    (2.0, mpmath.mpf(2), 0),
    (2.0, mpmath.mpf(2.0) + 3 * mpmath.mpf(math.ulp(2.0)), 3),
    (2.0, mpmath.mpf(2.0) - mpmath.mpf(2.5) * mpmath.mpf(math.ulp(2.0)), 3),
    (0.0, mpmath.mpf("1e-700"), 1),
])
def test_ulps_from(got, exact, want):
    assert ulps_from(got, exact) == want
