"""How close the closed forms come to the exact answer, in ulps, where that
answer is algebraic in the input: checked in exact rational arithmetic, and
pinned as it stands.  A change to a closed form that moves a pin is an
output change.  Fields that involve pi (the cans, the ellipse) are not
covered here."""

import math
import random
from fractions import Fraction

import pytest

from optishape.problems import (
    FenceLayout,
    solve_box,
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


@pytest.mark.parametrize("got, power, target, want", [
    (2.0, 3, Fraction(8), 0),
    (2.0, 3, Fraction(2.0 + 3 * math.ulp(2.0)) ** 3, 3),
    (2.0, 3, Fraction(2.0 - 2.5 * math.ulp(2.0)) ** 3, 3),
    (0.0, 2, Fraction(1, 10**700), 1),
])
def test_ulps_off(got, power, target, want):
    assert ulps_off(got, power, target) == want
